"""The documented public API surface must exist and stay importable."""

import importlib

import pytest

import repro


class TestPublicApi:
    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_version(self):
        assert repro.__version__.count(".") == 2

    @pytest.mark.parametrize("module", [
        "repro.isa.common", "repro.isa.x86", "repro.isa.arm",
        "repro.isa.assembler", "repro.isa.disasm",
        "repro.lang.lexer", "repro.lang.parser", "repro.lang.sema",
        "repro.lang.interp", "repro.lang.codegen", "repro.lang.compiler",
        "repro.uarch.array", "repro.uarch.cache", "repro.uarch.issueq",
        "repro.uarch.btb", "repro.uarch.ras", "repro.uarch.predictor",
        "repro.uarch.tlb", "repro.uarch.prefetcher",
        "repro.sim.memory", "repro.sim.kernel", "repro.sim.functional",
        "repro.sim.base", "repro.sim.marss", "repro.sim.gem5",
        "repro.sim.config", "repro.sim.stats", "repro.sim.trace",
        "repro.core.fault", "repro.core.maskgen", "repro.core.sampling",
        "repro.core.campaign", "repro.core.dispatcher",
        "repro.core.parser", "repro.core.outcome",
        "repro.core.repository", "repro.core.report",
        "repro.core.checkpoint", "repro.core.ace", "repro.core.parallel",
        "repro.bench.suite", "repro.bench.inputs",
        "repro.injectors.mafin", "repro.injectors.gefin",
        "repro.obs", "repro.obs.trace", "repro.obs.metrics",
        "repro.obs.profile", "repro.obs.summarize", "repro.obs.http",
        "repro.sched", "repro.sched.plan", "repro.sched.journal",
        "repro.sched.worker", "repro.sched.scheduler", "repro.sched.study",
        "repro.svc", "repro.svc.api", "repro.svc.fleet",
        "repro.svc.service", "repro.svc.state",
        "repro.core.ioutil",
        "repro.tools",
    ])
    def test_module_imports_and_documents(self, module):
        mod = importlib.import_module(module)
        assert mod.__doc__ and len(mod.__doc__.strip()) > 20, module

    def test_quickstart_docstring_is_honest(self):
        # The package docstring advertises MaFIN().campaign(...).
        assert "MaFIN" in repro.__doc__
        assert hasattr(repro.MaFIN(), "campaign")

    def test_setup_labels_consistent(self):
        assert repro.SETUPS == repro.CONFIG_SETUPS
