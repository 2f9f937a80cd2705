"""Execution-path conformance of one campaign cell.

A cell's logs file must be a pure function of the cell and its seed:
the execution path that produced it -- the serial campaign, the process
pool under fork or spawn, a scheduler unit run fresh or resumed from a
cut logs file, a whole study through ``run_study``, that study resumed
by ``Scheduler.resume`` after a kill, and the campaign service -- must
not show in a single byte.  One fixed cell runs
through every path, with pruning off and with ``analyze``, and each
logs file is compared with a sha256 recorded before the paths shared
one pipeline.

To re-derive the digests after a change that is *meant* to alter what a
campaign writes, run ``PYTHONPATH=src python -m tests.test_cell_conformance``.
"""

import contextlib
import hashlib
import json
import multiprocessing as mp
import shutil

import pytest

from repro.core.campaign import run_campaign
from repro.core.parallel import run_campaign_parallel
from repro.sched import Scheduler, run_study
from repro.sched.plan import StudySpec, WorkUnit
from repro.sched.worker import run_unit
from repro.svc import CampaignService

UNIT = WorkUnit("GeFIN-x86", "sha", "l1d")
STUDY_SEED = 5
SEED = UNIT.seed(STUDY_SEED)
INJECTIONS = 8
CUT_AFTER = 3

DIGESTS = {
    "analyze":
        "52ab2d9773fdad3af79bd85b8c29b93acaa53e24312ec8f02f633603294b0b99",
    "off":
        "280bddc5090acc499afcc1b72911a53dbe3ee895f8a3972336f98dc9a6a06fe1",
}


def spec(prune: str) -> StudySpec:
    return StudySpec(setups=(UNIT.setup,), benchmarks=(UNIT.benchmark,),
                     structures=(UNIT.structure,), injections=INJECTIONS,
                     seed=STUDY_SEED, prune=prune)


@contextlib.contextmanager
def start_method(name: str):
    previous = mp.get_start_method(allow_none=True)
    mp.set_start_method(name, force=True)
    try:
        yield
    finally:
        mp.set_start_method(previous, force=True)


def cell_kwargs(prune: str) -> dict:
    return dict(injections=INJECTIONS, seed=SEED, prune=prune)


def serial(logs, prune):
    run_campaign(UNIT.setup, UNIT.benchmark, UNIT.structure,
                 logs_path=logs, **cell_kwargs(prune))


def pool(method):
    def run(logs, prune):
        with start_method(method):
            run_campaign_parallel(UNIT.setup, UNIT.benchmark,
                                  UNIT.structure, workers=2, logs_path=logs,
                                  **cell_kwargs(prune))
    return run


CAMPAIGN_PATHS = {
    "serial": serial,
    "pool-fork": pool("fork"),
    "pool-spawn": pool("spawn"),
}


def cut(logs, keep: int) -> None:
    """Keep the golden row and the first *keep* records: a killed unit."""
    rows = logs.read_text().splitlines(keepends=True)
    kept, n = [], 0
    for row in rows:
        if json.loads(row).get("kind") == "injection":
            if n == keep:
                continue
            n += 1
        kept.append(row)
    logs.write_text("".join(kept))


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.fixture(scope="module")
def unit_logs(tmp_path_factory):
    """prune -> the logs bytes of a fresh ``run_unit``, run once each."""
    done = {}

    def get(prune):
        if prune not in done:
            logs = tmp_path_factory.mktemp("unit") / "logs.jsonl"
            result = run_unit(UNIT, spec(prune), logs)
            assert result["ok"] and result["fresh"] == INJECTIONS
            done[prune] = logs.read_bytes()
        return done[prune]
    return get


@pytest.mark.parametrize("prune", sorted(DIGESTS))
@pytest.mark.parametrize("path", list(CAMPAIGN_PATHS))
def test_campaign_logs_match_recorded_digest(path, prune, tmp_path):
    logs = tmp_path / "logs.jsonl"
    CAMPAIGN_PATHS[path](logs, prune)
    assert digest(logs.read_bytes()) == DIGESTS[prune]


@pytest.mark.parametrize("prune", sorted(DIGESTS))
def test_unit_logs_match_recorded_digest(prune, unit_logs):
    assert digest(unit_logs(prune)) == DIGESTS[prune]


@pytest.mark.parametrize("prune", sorted(DIGESTS))
def test_resumed_unit_logs_match_recorded_digest(prune, unit_logs,
                                                 tmp_path):
    logs = tmp_path / "logs.jsonl"
    logs.write_bytes(unit_logs(prune))
    cut(logs, CUT_AFTER)
    result = run_unit(UNIT, spec(prune), logs, attempt=2)
    assert result["resumed"] == CUT_AFTER
    assert result["fresh"] == INJECTIONS - CUT_AFTER
    assert digest(logs.read_bytes()) == DIGESTS[prune]


def study_logs(study_dir):
    return study_dir / "logs" / f"{UNIT.file_id}.jsonl"


@pytest.fixture(scope="module")
def study_dirs(tmp_path_factory):
    """prune -> the directory of a finished ``run_study``, run once each."""
    done = {}

    def get(prune):
        if prune not in done:
            study = tmp_path_factory.mktemp("study")
            assert run_study(spec(prune), study, workers=1).ok
            done[prune] = study
        return done[prune]
    return get


@pytest.mark.parametrize("prune", sorted(DIGESTS))
def test_study_logs_match_recorded_digest(prune, study_dirs):
    logs = study_logs(study_dirs(prune))
    assert digest(logs.read_bytes()) == DIGESTS[prune]


@pytest.mark.parametrize("prune", sorted(DIGESTS))
def test_resumed_study_logs_match_recorded_digest(prune, study_dirs,
                                                  tmp_path):
    # A study killed after its unit's records were written but before
    # the ``done`` row landed, with the logs torn back to CUT_AFTER.
    study = tmp_path / "study"
    shutil.copytree(study_dirs(prune), study)
    journal = study / "journal.jsonl"
    rows = journal.read_text().splitlines(keepends=True)
    journal.write_text("".join(row for row in rows
                               if json.loads(row).get("state") != "done"))
    cut(study_logs(study), CUT_AFTER)
    result = Scheduler.resume(study, workers=1).run(resume=True)
    assert result.ok and result.cells[UNIT.unit_id].attempts == 2
    assert digest(study_logs(study).read_bytes()) == DIGESTS[prune]


@pytest.mark.parametrize("prune", sorted(DIGESTS))
def test_service_logs_match_recorded_digest(prune, tmp_path):
    with CampaignService(tmp_path, workers=1) as service:
        study_id = service.submit(spec(prune))
        service.run_until_idle(timeout_s=120)
    logs = study_logs(tmp_path / "studies" / study_id)
    assert digest(logs.read_bytes()) == DIGESTS[prune]


if __name__ == "__main__":
    import tempfile
    from pathlib import Path

    with tempfile.TemporaryDirectory() as tmp:
        for prune in sorted(DIGESTS):
            logs = Path(tmp) / f"{prune}.jsonl"
            serial(logs, prune)
            print(f'    "{prune}":\n        "{digest(logs.read_bytes())}",')
