"""repro — differential fault injection on microarchitectural simulators.

A from-scratch reproduction of Kaliorakis et al., *"Differential Fault
Injection on Microarchitectural Simulators"* (IISWC 2015): two
cycle-level out-of-order full-system simulators (MARSS-like and
gem5-like), two toy ISAs (x86-like and ARM-like), a MiniC compiler with
the study's 10 MiBench-like workloads, and the MaFIN/GeFIN fault
injectors — fault-mask generation, statistical sampling, campaign
control with checkpointing and early-stop, and a reconfigurable
fault-effect parser.

Quickstart::

    from repro import MaFIN

    result = MaFIN().campaign("sha", "l1d", injections=50)
    print(result.classify())          # Masked/SDC/DUE/Timeout/Crash/Assert
    print(result.vulnerability())     # share of non-masked outcomes

See DESIGN.md for the system map and EXPERIMENTS.md for the
paper-versus-measured experiment index.
"""

from repro.core.campaign import (CampaignResult, InjectionCampaign,
                                 run_campaign)
from repro.core.parallel import run_campaign_parallel
from repro.core.fault import (INTERMITTENT, PERMANENT, TRANSIENT, FaultMask,
                              FaultSet)
from repro.core.maskgen import FaultMaskGenerator, StructureInfo
from repro.core.outcome import (ASSERT, CLASSES, CRASH, DUE, MASKED, SDC,
                                TIMEOUT, GoldenReference, InjectionRecord)
from repro.core.parser import (DEFAULT_POLICY, ParserPolicy, classify,
                               classify_all, vulnerability)
from repro.core.report import (SETUPS, FigureResult, figure_spec,
                               golden_stats, study_figures)
from repro.core.sampling import (achieved_error_margin, fault_space,
                                 required_injections)
from repro.guard import (GuardPolicy, IntegrityVerifier,
                         InvariantViolation, check_invariants,
                         state_digest)
from repro.injectors.gefin import GeFIN
from repro.injectors.mafin import MaFIN
from repro.obs import (CampaignTelemetry, JSONLSink, MetricsRegistry,
                       NullSink, RingBufferSink, Tracer)
from repro.sched import (CampaignPlan, Scheduler, StudyResult, StudySpec,
                         WorkUnit, merge_studies, run_study, study_status)
from repro.sim.config import (CONFIG_SETUPS, SimConfig, paper_config,
                              scaled_config, setup_config)

__version__ = "1.0.0"

__all__ = [
    "CampaignResult", "InjectionCampaign", "run_campaign",
    "run_campaign_parallel",
    "Tracer", "NullSink", "RingBufferSink", "JSONLSink",
    "MetricsRegistry", "CampaignTelemetry",
    "TRANSIENT", "INTERMITTENT", "PERMANENT", "FaultMask", "FaultSet",
    "FaultMaskGenerator", "StructureInfo",
    "MASKED", "SDC", "DUE", "TIMEOUT", "CRASH", "ASSERT", "CLASSES",
    "GoldenReference", "InjectionRecord",
    "ParserPolicy", "DEFAULT_POLICY", "classify", "classify_all",
    "vulnerability",
    "StudySpec", "CampaignPlan", "WorkUnit", "Scheduler", "StudyResult",
    "run_study", "study_status", "merge_studies",
    "FigureResult", "figure_spec", "study_figures", "golden_stats",
    "SETUPS",
    "required_injections", "achieved_error_margin", "fault_space",
    "GuardPolicy", "IntegrityVerifier", "InvariantViolation",
    "check_invariants", "state_digest",
    "MaFIN", "GeFIN",
    "SimConfig", "paper_config", "scaled_config", "setup_config",
    "CONFIG_SETUPS",
    "__version__",
]
