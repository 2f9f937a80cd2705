"""repro.svc — campaign-as-a-service above the scheduler stack.

The paper's study model is one operator, one study, one scheduler.
This package turns that into a long-lived service: an HTTP front end
(:mod:`repro.svc.api`, a route table on the :mod:`repro.obs.http`
server that ``obs serve`` also runs on) accepts strictly-validated
:class:`~repro.sched.plan.StudySpec` submissions, the service
(:mod:`repro.svc.service`) takes units round-robin across the live
studies, each in plan order from its own
:class:`~repro.sched.study.StudyRun` ready list, the fleet
(:mod:`repro.svc.fleet`) settles every unit through the same
``StudyRun`` policy as ``sched run`` and caches compressed golden
payloads *across* studies, and a durable service journal
(:mod:`repro.svc.state`) makes the whole service kill-and-restart
safe — no unit lost, no unit re-run.

Every study the service runs uses the unchanged :mod:`repro.sched`
on-disk layout, so ``obs serve``, ``obs report`` and ``sched status``
work on a service study directory verbatim.

The fleet is not confined to one machine: :mod:`repro.svc.remote`
agents (``repro.tools svc worker``) lease units over HTTP with
monotonic fencing tokens, heartbeat liveness, and content-addressed
golden-blob fetch — and :mod:`repro.svc.chaos` injects transport
faults (drop/duplicate/delay/disconnect) to prove the records stay
byte-identical to an all-local run.

Remote results are *enforced*, not presumed, honest:
:mod:`repro.svc.attest` validates every shipped record file
semantically at ingest (422 on violation), challenges workers for
determinism at registration, re-executes a sampled fraction of remote
completions locally, and retracts (``audit_void``) everything an
eventually-distrusted worker produced.  ``repro.tools fsck``
(:mod:`repro.svc.fsck`) checks the same invariants offline.

CLI: ``python -m repro.tools svc
serve | submit | list | cancel | worker | fleet | gc`` and
``python -m repro.tools fsck`` (see docs/service.md).
"""

from repro.svc.api import ServiceServer
from repro.svc.attest import (Attestor, ChallengePending, RejectedComplete,
                              WorkerDistrusted, WorkerScorecard)
from repro.svc.chaos import NULL_CHAOS, TransportChaos
from repro.svc.fleet import (RemoteLease, RemoteWorker, ServiceRun,
                             StaleFence, UnknownWorker, WorkerFleet)
from repro.svc.fsck import fsck_path, fsck_service, fsck_study
from repro.svc.remote import WorkerAgent
from repro.svc.service import CampaignService, collect_garbage
from repro.svc.state import (ACCEPTED, CANCELLED, RUNNING, STUDY_DONE,
                             ServiceJournal, ServiceState, StudyRecord,
                             load_service, study_id_for)

__all__ = [
    "CampaignService", "ServiceServer",
    "WorkerFleet", "ServiceRun",
    "RemoteWorker", "RemoteLease", "StaleFence", "UnknownWorker",
    "WorkerAgent", "TransportChaos", "NULL_CHAOS", "collect_garbage",
    "ServiceJournal", "ServiceState", "StudyRecord", "load_service",
    "study_id_for",
    "ACCEPTED", "RUNNING", "STUDY_DONE", "CANCELLED",
    "Attestor", "WorkerScorecard", "RejectedComplete", "WorkerDistrusted",
    "ChallengePending", "fsck_path", "fsck_study", "fsck_service",
]
