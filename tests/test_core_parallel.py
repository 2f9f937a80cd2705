"""Parallel campaign runner: failures inside the pool.

That parallel logs equal serial ones byte for byte is pinned by
tests/test_cell_conformance.py.
"""

import multiprocessing as mp

import pytest

from repro.core.campaign import run_campaign
from repro.core.parallel import run_campaign_parallel

fork_only = pytest.mark.skipif(
    mp.get_start_method(True) == "spawn",
    reason="monkeypatching workers needs the fork start method")


def test_parallel_unknown_structure():
    with pytest.raises(KeyError):
        run_campaign_parallel("GeFIN-x86", "sha", "nonsense",
                              injections=2, workers=2)


@fork_only
class TestWorkerFailurePaths:
    """A worker raising mid-injection must not hang or poison the pool."""

    def _patch_inject(self, monkeypatch, poison_ids):
        from repro.core.dispatcher import InjectorDispatcher
        original = InjectorDispatcher.inject

        def exploding(self, fault_set, early_stop=True):
            if fault_set.set_id in poison_ids:
                raise RuntimeError(f"injected bug for set {fault_set.set_id}")
            return original(self, fault_set, early_stop=early_stop)

        # Forked workers inherit the patched class.
        monkeypatch.setattr(InjectorDispatcher, "inject", exploding)

    def test_worker_exception_becomes_crash_record(self, monkeypatch):
        clean = run_campaign("GeFIN-x86", "sha", "int_rf", injections=6,
                             seed=21)           # reference, pre-patch
        self._patch_inject(monkeypatch, {3})
        result = run_campaign_parallel("GeFIN-x86", "sha", "int_rf",
                                       injections=6, seed=21, workers=2)
        assert result.injections == 6          # nothing lost, no hang
        bad = [r for r in result.records if r.set_id == 3]
        assert len(bad) == 1
        assert bad[0].reason == "sim-crash"
        assert "RuntimeError" in bad[0].detail
        assert result.classify()["Crash"] >= 1
        # The other five injections are untouched by the failure.
        for mine, ref in zip(result.records, clean.records):
            if mine.set_id != 3:
                assert mine.reason == ref.reason

    def test_progress_still_fires_in_mask_order(self, monkeypatch):
        self._patch_inject(monkeypatch, {1, 4})
        seen = []
        result = run_campaign_parallel(
            "GeFIN-x86", "sha", "int_rf", injections=6, seed=21, workers=2,
            progress=lambda i, n, rec: seen.append((i, n, rec.set_id)))
        assert [s[0] for s in seen] == [1, 2, 3, 4, 5, 6]
        assert [s[2] for s in seen] == [r.set_id for r in result.records]
        assert all(n == 6 for _, n, _ in seen)

    def test_every_injection_failing_still_drains(self, monkeypatch):
        self._patch_inject(monkeypatch, set(range(4)))
        result = run_campaign_parallel("GeFIN-x86", "sha", "l1d",
                                       injections=4, seed=21, workers=2)
        assert result.injections == 4
        assert result.classify()["Crash"] == 4
