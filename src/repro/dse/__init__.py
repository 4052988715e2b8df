"""repro.dse: parallel, cached, cross-layer design-space exploration.

The engine behind the paper's pre-fabrication exploration claim, as a
subsystem every layer plugs into:

* :mod:`repro.dse.space` — declarative :class:`ParameterSpace` (grid and
  latin-hypercube sampling over named axes);
* :mod:`repro.dse.jobs` — content-hash keyed :class:`Job` records;
* :mod:`repro.dse.cache` — on-disk JSON :class:`ResultCache` (identical
  re-runs are lookups, not simulations);
* :mod:`repro.dse.runner` — :class:`CampaignRunner` with streaming
  execution (:meth:`~repro.dse.runner.CampaignRunner.run_iter` +
  :class:`~repro.dse.runner.Progress` callbacks), chunked scheduling,
  content-derived seeds and failure isolation;
* :mod:`repro.dse.executors` — pluggable execution backends behind the
  :class:`Executor` protocol: :class:`SerialExecutor`,
  :class:`ProcessPoolExecutor`, and the network executor below;
* :mod:`repro.dse.net` — the one distributed executor: a TCP
  :class:`~repro.dse.net.CampaignServer` that owns the lease state in
  memory and leases points (heartbeat + expiry reclaim) to
  ``worker --connect host:port`` clients on any host
  (:class:`~repro.dse.net.NetworkExecutor`), plus a
  :class:`~repro.dse.net.Supervisor` that respawns and autoscales a
  local worker fleet against queue depth;
* :mod:`repro.dse.journal` — append-only JSONL event log with torn-line
  recovery and snapshot compaction (O(1) journal I/O per point);
* :mod:`repro.dse.retry` — :class:`RetryPolicy`: budgeted per-point
  retries with content-derived reseeding and flaky-point quarantine;
* :mod:`repro.dse.checkpoint` — :class:`CampaignState` journals behind
  the resumable :func:`run_memory_campaign` / :func:`run_system_campaign`
  entry points;
* :mod:`repro.dse.surrogate` — the one model-driven sampler,
  :class:`SurrogateSampler` (``sampler="surrogate"``): a TPE-style
  good/bad density-ratio model over the full space, pure numpy,
  deterministic in its seed, plus the batch scoring
  (:func:`score_records`) and round traces it reports;
* :mod:`repro.dse.fidelity` — multi-fidelity ladder
  (``fidelity="ladder"`` memory campaigns): the analytic NVSim
  estimate screens every point, only the frontier band pays the full
  Monte-Carlo evaluation;
* :mod:`repro.dse.pareto` — multi-objective frontier extraction;
* :mod:`repro.dse.analytics` — pure read-side campaign analytics:
  :func:`~repro.dse.analytics.build_report` replays the journal, the
  server lease logs and the result cache into a
  :class:`~repro.dse.analytics.CampaignReport` (latency percentiles,
  worker utilization, cache/retry/timeout rates, Pareto-front
  evolution) — ``python -m repro.dse analyze <dir>``;
* :mod:`repro.dse.chaos` — deterministic fault injection
  (:class:`~repro.dse.chaos.FaultPlane`) at the engine's persistence
  and network seams, plus the :class:`~repro.dse.chaos.InvariantChecker`
  that replays a campaign directory and asserts its conservation laws;
* :mod:`repro.dse.campaign` — :func:`explore_memory` (VAET-STT) and
  :func:`explore_system` (MAGPIE) entry points.

``DesignSpaceExplorer.sweep_subarrays`` and ``MagpieFlow.run`` are thin
wrappers over this engine, and ``python -m repro.dse`` drives
describe/run/resume/status/analyze campaigns from the command line.
"""

from repro.dse.analytics import (
    CampaignReport,
    ParetoSample,
    WorkerUtilization,
    build_report,
)
from repro.dse.cache import ResultCache
from repro.dse.chaos import (
    ChaosCrash,
    ChaosDrop,
    Fault,
    FaultPlane,
    InvariantChecker,
    Schedule,
    seeded_schedule,
)
from repro.dse.fidelity import (
    FIDELITY_MODES,
    LOWFI_MEMORY_TARGET,
    FidelityTrace,
    evaluate_memory_lowfi,
    lowfi_twin,
    promotion_indices,
    run_ladder,
)
from repro.dse.surrogate import (
    AdaptiveRound,
    AdaptiveTrace,
    SurrogateSampler,
    evaluations_to_target,
    score_records,
)
from repro.dse.checkpoint import (
    JOURNAL_NAME,
    CampaignState,
    campaign_key,
    journal_path,
    run_checkpointed,
)
from repro.dse.executors import (
    CHAOS_TARGET,
    EXECUTOR_NAMES,
    SELFTEST_TARGET,
    Executor,
    ProcessPoolExecutor,
    SerialExecutor,
    make_executor,
)
from repro.dse.jobs import Job, JobResult, canonical_json, content_key
from repro.dse.journal import JOURNAL_VERSION, JsonlJournal, read_events
from repro.dse.retry import RetryPolicy
from repro.dse.pareto import (
    Objective,
    dominance_ranks,
    dominates,
    hypervolume_proxy,
    objective_bounds,
    pareto_front,
    update_front,
)
from repro.dse.runner import (
    MEMORY_TARGET,
    SYSTEM_TARGET,
    TIMEOUT_ERROR,
    WORKERS_ENV,
    CampaignRunner,
    Progress,
    default_workers,
    get_target,
    is_timeout_error,
    register_target,
    timeout_error,
)
from repro.dse.net import (
    CampaignServer,
    NetworkExecutor,
    Supervisor,
    WorkerStalled,
    parse_connect,
    run_network_worker,
)
from repro.dse.space import Axis, ParameterSpace
from repro.dse.campaign import (
    MemoryCampaignResult,
    SystemCampaignResult,
    evaluate_memory_point,
    evaluate_system_point,
    explore_memory,
    explore_system,
    memory_point_spec,
    run_memory_campaign,
    run_system_campaign,
    system_point_spec,
)

__all__ = [
    "Axis",
    "ParameterSpace",
    "Job",
    "JobResult",
    "canonical_json",
    "content_key",
    "ResultCache",
    "CampaignRunner",
    "Executor",
    "EXECUTOR_NAMES",
    "SerialExecutor",
    "ProcessPoolExecutor",
    "make_executor",
    "CampaignServer",
    "NetworkExecutor",
    "Supervisor",
    "WorkerStalled",
    "parse_connect",
    "run_network_worker",
    "SELFTEST_TARGET",
    "CHAOS_TARGET",
    "Progress",
    "default_workers",
    "WORKERS_ENV",
    "MEMORY_TARGET",
    "SYSTEM_TARGET",
    "TIMEOUT_ERROR",
    "timeout_error",
    "is_timeout_error",
    "register_target",
    "get_target",
    "ChaosCrash",
    "ChaosDrop",
    "Fault",
    "FaultPlane",
    "InvariantChecker",
    "Schedule",
    "seeded_schedule",
    "CampaignState",
    "campaign_key",
    "journal_path",
    "run_checkpointed",
    "JOURNAL_NAME",
    "JOURNAL_VERSION",
    "JsonlJournal",
    "read_events",
    "RetryPolicy",
    "AdaptiveRound",
    "AdaptiveTrace",
    "score_records",
    "SurrogateSampler",
    "evaluations_to_target",
    "FIDELITY_MODES",
    "LOWFI_MEMORY_TARGET",
    "FidelityTrace",
    "evaluate_memory_lowfi",
    "lowfi_twin",
    "promotion_indices",
    "run_ladder",
    "Objective",
    "dominates",
    "dominance_ranks",
    "pareto_front",
    "update_front",
    "hypervolume_proxy",
    "objective_bounds",
    "CampaignReport",
    "ParetoSample",
    "WorkerUtilization",
    "build_report",
    "MemoryCampaignResult",
    "SystemCampaignResult",
    "explore_memory",
    "explore_system",
    "run_memory_campaign",
    "run_system_campaign",
    "evaluate_memory_point",
    "evaluate_system_point",
    "memory_point_spec",
    "system_point_spec",
]
