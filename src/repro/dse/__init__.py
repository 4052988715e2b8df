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
  (:class:`~repro.dse.net.NetworkExecutor`); ``worker --processes N``
  keeps a fixed local fleet of them, respawning signal-killed ones;
* :mod:`repro.dse.journal` — append-only JSONL event log with torn-line
  recovery and snapshot compaction (O(1) journal I/O per point);
* :mod:`repro.dse.retry` — :class:`RetryPolicy`: budgeted per-point
  retries with content-derived reseeding and flaky-point quarantine;
* :mod:`repro.dse.checkpoint` — :class:`CampaignState` journals behind
  resumable campaigns (:func:`run` with a directory);
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
* :mod:`repro.dse.campaign` — the two campaign descriptions,
  :class:`MemoryCampaign` (VAET-STT) and :class:`SystemCampaign`
  (MAGPIE), and the one :func:`run` that runs either, journal-free or
  resumably in a directory, over one campaign dispatch.

``DesignSpaceExplorer.sweep_subarrays`` is a thin wrapper over this
engine; ``MagpieFlow.run`` runs its kernel x scenario grid through the
same dispatch as a :class:`SystemCampaign`, with the flow's cached memory
records and a serial runner by default.  ``python -m repro.dse`` drives
describe/run/resume/status/analyze campaigns from the command line
(``run --executor network`` serves one to network workers).
"""

from repro._lazy import lazy_exports

#: Each exported name and the submodule that defines it, imported on
#: first access (PEP 562).
_EXPORTS = {
    "Axis": ".space",
    "ParameterSpace": ".space",
    "Job": ".jobs",
    "JobResult": ".jobs",
    "canonical_json": ".jobs",
    "content_key": ".jobs",
    "ResultCache": ".cache",
    "CampaignRunner": ".runner",
    "Executor": ".executors",
    "EXECUTOR_NAMES": ".executors",
    "SerialExecutor": ".executors",
    "ProcessPoolExecutor": ".executors",
    "make_executor": ".executors",
    "CampaignServer": ".net",
    "NetworkExecutor": ".net",
    "WorkerStalled": ".net",
    "parse_connect": ".net",
    "run_network_worker": ".net",
    "SELFTEST_TARGET": ".executors",
    "CHAOS_TARGET": ".executors",
    "Progress": ".runner",
    "default_workers": ".runner",
    "WORKERS_ENV": ".runner",
    "MEMORY_TARGET": ".runner",
    "SYSTEM_TARGET": ".runner",
    "TIMEOUT_ERROR": ".runner",
    "timeout_error": ".runner",
    "is_timeout_error": ".runner",
    "register_target": ".runner",
    "get_target": ".runner",
    "ChaosCrash": ".chaos",
    "ChaosDrop": ".chaos",
    "Fault": ".chaos",
    "FaultPlane": ".chaos",
    "InvariantChecker": ".chaos",
    "Schedule": ".chaos",
    "seeded_schedule": ".chaos",
    "CampaignState": ".checkpoint",
    "campaign_key": ".checkpoint",
    "journal_path": ".checkpoint",
    "run_checkpointed": ".checkpoint",
    "JOURNAL_NAME": ".checkpoint",
    "JOURNAL_VERSION": ".journal",
    "JsonlJournal": ".journal",
    "read_events": ".journal",
    "RetryPolicy": ".retry",
    "AdaptiveRound": ".surrogate",
    "AdaptiveTrace": ".surrogate",
    "score_records": ".surrogate",
    "SurrogateSampler": ".surrogate",
    "evaluations_to_target": ".surrogate",
    "FIDELITY_MODES": ".fidelity",
    "LOWFI_MEMORY_TARGET": ".fidelity",
    "FidelityTrace": ".fidelity",
    "evaluate_memory_lowfi": ".fidelity",
    "lowfi_twin": ".fidelity",
    "promotion_indices": ".fidelity",
    "run_ladder": ".fidelity",
    "Objective": ".pareto",
    "dominates": ".pareto",
    "dominance_ranks": ".pareto",
    "pareto_front": ".pareto",
    "update_front": ".pareto",
    "hypervolume_proxy": ".pareto",
    "objective_bounds": ".pareto",
    "CampaignReport": ".analytics",
    "ParetoSample": ".analytics",
    "WorkerUtilization": ".analytics",
    "build_report": ".analytics",
    "MemoryCampaignResult": ".campaign",
    "SystemCampaignResult": ".campaign",
    "MemoryCampaign": ".campaign",
    "SystemCampaign": ".campaign",
    "run": ".campaign",
    "evaluate_memory_point": ".campaign",
    "evaluate_system_point": ".campaign",
    "memory_point_spec": ".campaign",
    "system_point_spec": ".campaign",
}

__all__ = list(_EXPORTS)

__getattr__ = lazy_exports(__name__, _EXPORTS)
