"""What each kind of process loads.

Only ``obs serve`` and ``svc serve`` serve HTTP, so only they load the
HTTP stack: a cell campaign, a ``sched run`` parent and a ``svc
worker`` run without ``asyncio`` and the two servers.  A unit worker
that a :class:`~repro.sched.pool.LeasePool` forks finds its whole code
path loaded by the parent and imports nothing itself.  Each check runs
in a fresh interpreter, so nothing the test session imported counts.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import urllib.request
from pathlib import Path

import pytest

import repro.obs
import repro.svc
from repro.svc import CampaignService
from repro.svc.api import ServiceServer

SRC = str(Path(__file__).resolve().parent.parent / "src")
ENV = dict(os.environ, PYTHONPATH=SRC)

#: The modules of the HTTP servers.
HTTP_STACK = {"asyncio", "repro.obs.http", "repro.obs.server",
              "repro.svc.api"}

#: Runs one ``repro.tools`` command, then writes its exit code and the
#: loaded modules to the file named by the first argument.
RUN_COMMAND = """
import json, sys
from repro import tools
rc = tools.main(sys.argv[2:])
with open(sys.argv[1], "w") as fh:
    json.dump({"rc": rc, "modules": sorted(sys.modules)}, fh)
"""

#: Leases one pruned, guarded unit into a LeasePool whose worker notes
#: the modules it imports between its start and its result; writes the
#: completion kind, the result's ``ok`` and those modules to the file
#: named by the first argument.
RUN_UNIT = """
import json, sys
from pathlib import Path
from repro.sched import pool
from repro.sched.plan import CampaignPlan, StudySpec

class Capture:
    def send(self, result):
        self.result = result

    def close(self):
        pass

def entry(conn, payload, unit_entry=pool.unit_entry):
    before = set(sys.modules)
    box = Capture()
    unit_entry(box, payload)
    conn.send({"ok": box.result["ok"],
               "imported": sorted(set(sys.modules) - before)})
    conn.close()

pool.unit_entry = entry
spec = StudySpec(setups=("MaFIN-x86",), benchmarks=("sha",),
                 structures=("l1d",), injections=2, prune="analyze",
                 guard="basic")
work = Path(sys.argv[2])
leases = pool.LeasePool(1)
lease = leases.launch(CampaignPlan.from_spec(spec).units[0], spec,
                      logs_path=work / "logs.jsonl",
                      masks_path=work / "masks.jsonl", fsync=False)
lease.proc.join(120)
[(_, kind, result)] = leases.poll()
with open(sys.argv[1], "w") as fh:
    json.dump({"kind": kind, **result}, fh)
"""


def run_script(script, out: Path, *args, timeout=120):
    subprocess.run([sys.executable, "-c", script, str(out), *map(str, args)],
                   env=ENV, stdout=subprocess.DEVNULL, check=True,
                   timeout=timeout)
    return json.loads(out.read_text())


class TestNoHttpStack:
    def test_cell_campaign(self, tmp_path):
        got = run_script(RUN_COMMAND, tmp_path / "out.json", "campaign",
                         "MaFIN-x86", "sha", "int_rf", "--injections", "1")
        assert got["rc"] == 0
        assert HTTP_STACK.isdisjoint(got["modules"])

    def test_sched_run_parent(self, tmp_path):
        got = run_script(RUN_COMMAND, tmp_path / "out.json", "sched", "run",
                         "--out", tmp_path / "study", "--setups",
                         "MaFIN-x86", "--benchmarks", "sha", "--structures",
                         "int_rf", "--injections", "1", "--workers", "1",
                         "--no-fsync")
        assert got["rc"] == 0
        assert HTTP_STACK.isdisjoint(got["modules"])

    def test_svc_worker(self, tmp_path):
        service = CampaignService(tmp_path / "root", workers=0, fsync=False)
        server = ServiceServer(service, port=0)
        ready = threading.Event()
        thread = threading.Thread(
            target=server.serve_forever,
            kwargs={"on_ready": lambda s: ready.set()}, daemon=True)
        thread.start()
        worker = None
        try:
            assert ready.wait(10.0), "service never bound"
            base = f"http://127.0.0.1:{server.port}"
            body = {"spec": {"setups": ["MaFIN-x86"], "benchmarks": ["sha"],
                             "structures": ["int_rf"], "injections": 1}}
            req = urllib.request.Request(
                f"{base}/studies", data=json.dumps(body).encode(),
                method="POST")
            with urllib.request.urlopen(req, timeout=10) as resp:
                sid = json.loads(resp.read())["id"]
            out = tmp_path / "out.json"
            worker = subprocess.Popen(
                [sys.executable, "-c", RUN_COMMAND, str(out), "svc",
                 "worker", "--connect", base, "--workers", "1",
                 "--scratch-dir", str(tmp_path / "scratch"), "--no-fsync"],
                env=ENV, stdout=subprocess.DEVNULL)
            with urllib.request.urlopen(f"{base}/studies/{sid}/events",
                                        timeout=120) as resp:
                last = [json.loads(line) for line in resp][-1]
            assert last["name"] == "study_complete"
            assert last["tally"]["done"] == 1
            # Stopping the server ends the idle worker's lease long-poll.
            worker.send_signal(signal.SIGTERM)
        finally:
            server.stop()
            thread.join(10.0)
            service.close()
            if worker is not None:
                try:
                    worker.wait(timeout=30)
                except subprocess.TimeoutExpired:
                    worker.kill()
                    raise
        got = json.loads(out.read_text())
        assert got["rc"] == 130
        assert HTTP_STACK.isdisjoint(got["modules"])


def test_forked_unit_imports_nothing(tmp_path):
    got = run_script(RUN_UNIT, tmp_path / "out.json", tmp_path)
    assert got["kind"] == "result" and got["ok"] is True
    assert got["imported"] == []


@pytest.mark.parametrize("package", [repro.obs, repro.svc])
def test_package_exports_resolve(package):
    for name in package.__all__:
        assert hasattr(package, name), name
