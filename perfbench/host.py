"""Run one ``repro.tools`` command with the benchmark's hooks.

Usage::

    python perfbench/host.py [--probe DIR] [--spans DIR] <repro.tools args...>

The study workloads start ``sched run``, ``svc serve`` and ``svc
worker`` through this script, so that the benchmark can reach into
those processes and, through fork, into their unit workers without
touching ``src/``:

``--probe DIR``
    every unit worker probes the host speed before and after its unit
    (``calibrate.Speed``) and appends the unit's time and its
    probe-weighted time to ``DIR/probe-<pid>.txt``;
``--spans DIR``
    the span recorder wraps the layers (``spans.py``); the process
    writes its spans to ``DIR/host-<pid>.json`` when the command
    returns, and unit workers write ``DIR/unit-<pid>.json``.
"""

import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import calibrate  # noqa: E402
import spans  # noqa: E402


def probe_units(out_dir: Path) -> None:
    from repro.sched import worker
    inner = worker.run_unit

    def run_unit(*args, **kwargs):
        speed = calibrate.Speed()
        try:
            return inner(*args, **kwargs)
        finally:
            speed.mark()
            with open(out_dir / f"probe-{os.getpid()}.txt", "a") as fh:
                fh.write(f"{speed.work_s!r} {speed.weighted!r}\n")
    worker.run_unit = run_unit


def main(argv) -> int:
    from repro import tools
    opts = {}
    while argv[:1] in (["--probe"], ["--spans"]):
        opts[argv[0]] = Path(argv[1])
        argv = argv[2:]
    rec = spans.install(opts["--spans"]) if "--spans" in opts else None
    if "--probe" in opts:
        probe_units(opts["--probe"])
    try:
        return tools.main(argv)
    finally:
        if rec is not None:
            rec.dump(opts["--spans"] / f"host-{os.getpid()}.json")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
