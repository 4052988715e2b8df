"""High-level campaigns: wire VAET-STT, NVSim and MAGPIE into the engine.

Two built-in evaluators register with the runner:

* ``"vaet-memory"`` — one memory-level design point: rebuild the PDK and
  :class:`~repro.nvsim.config.MemoryConfig` from the spec, run the
  variation-aware ECC/margin/disturb optimisation of
  :class:`~repro.vaet.explorer.DesignSpaceExplorer`, return the winning
  :class:`~repro.vaet.explorer.DesignPoint` as a dict.
* ``"magpie-system"`` — one (workload, scenario) cell of the MAGPIE
  grid: rebuild the SoC from serialised memory records, simulate, return
  the gem5-stats-style report text (the Fig. 10 file-parser artefact).

Everything an evaluator needs travels in the spec as plain JSON, so jobs
pickle cheaply, hash stably, and replay identically from cache.

Entry points :func:`explore_memory` and :func:`explore_system` build the
job lists from a :class:`~repro.dse.space.ParameterSpace` / grid, run
them through a (cached, parallel) :class:`CampaignRunner`, and wrap the
outcomes with Pareto helpers.  Both accept ``sampler="surrogate"`` to
spend the evaluation budget where a TPE-style density model says the
objective-promising designs live instead of covering the whole grid.
Memory campaigns additionally accept ``fidelity="ladder"`` to screen
the space with the cheap analytic NVSim estimate and re-evaluate only
the frontier band at full Monte-Carlo fidelity (see
:mod:`repro.dse.fidelity`).

:func:`run_memory_campaign` and :func:`run_system_campaign` are the
*resumable* entry points: they pin a campaign to a directory holding the
result cache plus a :class:`~repro.dse.checkpoint.CampaignState`
journal, so a campaign killed after N of M points continues with
``resume=True`` exactly where it stopped — zero re-evaluation of the N
finished points.

Every campaign — both memory entry points, both system entry points and
``MagpieFlow.run`` — goes through one dispatch, :func:`_drive`
(surrogate loop, fidelity ladder, or static job list over a
:class:`~repro.dse.space.ParameterSpace`; a MAGPIE grid is the
``workload`` x ``scenario`` space).  They differ only in how a batch of
jobs is executed — straight through the runner, or journaled by
:func:`_run_journaled` — and in how an outcome becomes a record.
"""

import os
import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.dse.cache import ResultCache
from repro.dse.checkpoint import (
    CampaignState,
    campaign_key,
    journal_path,
    run_checkpointed,
)
from repro.dse.executors import CACHE_DIR_NAME, make_executor
from repro.dse.fidelity import (
    FIDELITY_MODES,
    FidelityTrace,
    lowfi_twin,
    run_ladder,
)
from repro.dse.jobs import Job, JobResult
from repro.dse.pareto import ObjectiveSpec, pareto_front
from repro.dse.retry import RetryPolicy
from repro.dse.runner import (
    MEMORY_TARGET,
    SYSTEM_TARGET,
    CampaignRunner,
    ProgressCallback,
    register_target,
)
from repro.dse.space import ParameterSpace, plain_value
from repro.dse.surrogate import AdaptiveTrace, SurrogateSampler, score_records

#: Samplers the campaign entry points understand.
SAMPLERS = ("grid", "lhs", "surrogate")

#: The model-driven samplers (propose/evaluate loops over rounds, as
#: opposed to the static grid/LHS point lists).
MODEL_SAMPLERS = ("surrogate",)

#: MemoryConfig field names an axis may override.
_CONFIG_FIELDS = (
    "rows", "cols", "word_bits", "banks",
    "subarray_rows", "subarray_cols", "memory_type", "cell",
)
#: DesignConstraints field names an axis may override.
_CONSTRAINT_FIELDS = ("wer_target", "rer_target", "disturb_budget", "max_ecc_bits")
#: Spec-level knobs an axis may override.
_SPEC_FIELDS = ("node_nm", "num_words", "error_population", "seed")
#: Every name a memory axis may carry.
_AXIS_FIELDS = _CONFIG_FIELDS + _CONSTRAINT_FIELDS + _SPEC_FIELDS


def _check_axis(name: str) -> None:
    """Reject a memory axis that maps to no config/constraint/spec field."""
    if name not in _AXIS_FIELDS:
        raise ValueError(
            "axis %r maps to no MemoryConfig/DesignConstraints/spec field; "
            "known: %s" % (name, sorted(_AXIS_FIELDS))
        )


# -- evaluators (run inside workers) ------------------------------------


def evaluate_memory_point(spec: Mapping, seed: int) -> Dict:
    """Evaluate one memory-level design point from its spec.

    Args:
        spec: See :func:`memory_point_spec`.
        seed: Runner-derived content seed, used when the spec's own
            ``seed`` is None (campaign mode); an explicit spec seed wins
            (legacy sweeps pin 2018 for bit-identical tables).

    Returns:
        ``{"feasible": bool, "point": DesignPoint dict | None}``.
    """
    from repro.nvsim.config import MemoryConfig
    from repro.pdk.kit import ProcessDesignKit
    from repro.utils.heap import keep_heap_resident
    from repro.vaet.explorer import DesignConstraints, DesignSpaceExplorer

    # Once per process: stop glibc returning the evaluation's freed
    # arrays to the kernel, which the next point would fault back in.
    keep_heap_resident()
    config = MemoryConfig.from_dict(spec["config"])
    constraints = DesignConstraints.from_dict(spec["constraints"])
    explorer = DesignSpaceExplorer(
        ProcessDesignKit.for_node(int(spec["node_nm"])),
        config,
        constraints,
        num_words=int(spec.get("num_words", 1500)),
        error_population=int(spec.get("error_population", 200_000)),
    )
    chosen_seed = spec.get("seed")
    point = explorer.evaluate(
        config, seed=seed if chosen_seed is None else int(chosen_seed)
    )
    if point is None:
        return {"feasible": False, "point": None}
    return {"feasible": True, "point": point.to_dict()}


def evaluate_system_point(spec: Mapping, seed: int) -> Dict:
    """Evaluate one (workload, scenario) MAGPIE cell from its spec.

    The memory-level records arrive pre-computed in the spec (they are
    shared by every cell of a campaign), so workers only pay for the
    system simulation.

    Returns:
        ``{"report": str}`` — the gem5-stats-style activity report.
    """
    from repro.archsim.memtech import MemoryTechnology
    from repro.archsim.simulator import simulate
    from repro.archsim.soc import SoCConfig
    from repro.archsim.workloads import WorkloadDescriptor
    from repro.magpie.scenarios import Scenario, build_scenario

    base = SoCConfig.from_dict(spec["soc"])
    sram = MemoryTechnology.from_dict(spec["sram"])
    stt = MemoryTechnology.from_dict(spec["stt"])
    scenario = Scenario(spec["scenario"])
    workload = WorkloadDescriptor.from_dict(spec["workload"])
    soc = build_scenario(scenario, sram, stt, base)
    report = simulate(soc, workload)
    return {"report": report.render()}


register_target(MEMORY_TARGET, evaluate_memory_point)
register_target(SYSTEM_TARGET, evaluate_system_point)


# -- spec builders ------------------------------------------------------


def memory_point_spec(explorer, config, seed: Optional[int] = 2018) -> Dict:
    """Spec for one config under a ``DesignSpaceExplorer``'s settings.

    Args:
        explorer: The :class:`~repro.vaet.explorer.DesignSpaceExplorer`
            whose PDK/constraints/sampling settings apply.
        config: The :class:`~repro.nvsim.config.MemoryConfig` to score.
        seed: Monte Carlo seed; the default pins the historic tool seed
            so legacy sweeps reproduce; None defers to the content seed.
    """
    return {
        "node_nm": explorer.pdk.tech.node_nm,
        "config": config.to_dict(),
        "constraints": explorer.constraints.to_dict(),
        "num_words": explorer.num_words,
        "error_population": explorer.error_population,
        "seed": seed,
    }


def system_point_spec(flow, workload, scenario) -> Dict:
    """Spec for one (workload, scenario) cell of a ``MagpieFlow`` grid."""
    sram, stt = flow.memory_records()
    return {
        "node_nm": flow.node_nm,
        "wer_target": flow.wer_target,
        "soc": flow.base.to_dict(),
        "sram": sram.to_dict(),
        "stt": stt.to_dict(),
        "scenario": scenario.value,
        "workload": workload.to_dict(),
    }


def sweep_points(jobs: Sequence[Job], runner: Optional[CampaignRunner] = None):
    """Run memory jobs and return the feasible ``DesignPoint`` list.

    The compatibility path under
    :meth:`~repro.vaet.explorer.DesignSpaceExplorer.sweep_subarrays`:
    serial by default, infeasible points dropped, evaluator failures
    re-raised (the historic sweep propagated exceptions).
    """
    from repro.vaet.explorer import DesignPoint

    engine = runner if runner is not None else CampaignRunner(workers=1)
    points = []
    for outcome in engine.run(jobs):
        if not outcome.ok:
            raise RuntimeError("sweep job failed: %s" % outcome.error)
        if outcome.result["feasible"]:
            points.append(DesignPoint.from_dict(outcome.result["point"]))
    return points


# -- campaign entry points ----------------------------------------------


def _memory_record(job: Job, outcome: JobResult) -> Optional[Dict]:
    """Flat record (spec axes + metrics + EDP) of one feasible outcome."""
    if not (outcome.ok and outcome.result.get("feasible")):
        return None
    point = dict(outcome.result["point"])
    row = dict(point.pop("config"))
    row["node_nm"] = job.spec["node_nm"]
    row["wer_target"] = job.spec["constraints"]["wer_target"]
    row.update(point)
    row["edp_proxy"] = row["write_latency"] * row["write_energy"]
    row["key"] = job.key
    return row


def _memory_jobs(
    points: Iterable[Mapping],
    base_config,
    constraints,
    node_nm: int,
    num_words: int,
    error_population: int,
    seed: Optional[int],
) -> List[Job]:
    """Memory-level jobs for design points (axis-name -> value dicts)."""
    jobs = []
    for point in points:
        config_dict = base_config.to_dict()
        constraint_dict = constraints.to_dict()
        spec = {
            "node_nm": node_nm,
            "num_words": num_words,
            "error_population": error_population,
            "seed": seed,
        }
        for name, value in point.items():
            _check_axis(name)
            value = plain_value(value)
            if name in _CONFIG_FIELDS:
                config_dict[name] = value
            elif name in _CONSTRAINT_FIELDS:
                constraint_dict[name] = value
            else:
                spec[name] = value
        spec["config"] = config_dict
        spec["constraints"] = constraint_dict
        jobs.append(Job(MEMORY_TARGET, spec))
    return jobs


def _space_signature(space: ParameterSpace) -> List:
    """JSON-ready axis summary for campaign signatures / journals."""
    return [
        [axis.name, [plain_value(value) for value in axis.values]]
        for axis in space.axes
    ]


def check_sampler(sampler: str, known: Sequence[str] = SAMPLERS) -> None:
    """Reject an unknown sampler name, and name the removed one's successor."""
    if sampler == "adaptive":
        raise ValueError('sampler "adaptive" was removed; use "surrogate"')
    if sampler not in known:
        raise ValueError("unknown sampler %r; known: %s" % (sampler, tuple(known)))


@dataclass
class MemoryCampaignResult:
    """Outcome of :func:`explore_memory` / :func:`run_memory_campaign`.

    Attributes:
        jobs: Submitted jobs, in point order.
        outcomes: Per-job results (aligned with ``jobs``).
        elapsed: Campaign wall-clock [s].
        cache_stats: Cache session counters (None when uncached).
        adaptive: Sampler trace when the campaign ran the model-driven
            ``"surrogate"`` sampler.
        quarantined: Job keys whose retry budget is exhausted (flaky
            points) — excluded from :meth:`records` and therefore from
            Pareto ranking.
        fidelity: Screening trace when the campaign ran
            ``fidelity="ladder"`` (see :mod:`repro.dse.fidelity`);
            ``jobs``/``outcomes`` then hold only the promoted
            high-fidelity evaluations.
    """

    jobs: List[Job]
    outcomes: List[JobResult]
    elapsed: float
    cache_stats: Optional[Dict] = None
    adaptive: Optional[AdaptiveTrace] = None
    quarantined: List[str] = field(default_factory=list)
    fidelity: Optional[FidelityTrace] = None

    def records(self) -> List[Dict]:
        """Feasible points as flat dicts: spec axes + metrics + EDP.

        Quarantined (flaky) points are excluded even if an earlier
        attempt left a result behind — a point the campaign cannot
        evaluate reliably must not anchor a Pareto frontier.
        """
        blocked = set(self.quarantined)
        rows = []
        for job, outcome in zip(self.jobs, self.outcomes):
            if job.key in blocked:
                continue
            row = _memory_record(job, outcome)
            if row is not None:
                rows.append(row)
        return rows

    def screening_records(self) -> List[Dict]:
        """Low-fidelity screening rows of a ``fidelity="ladder"`` run.

        Empty for single-fidelity campaigns.  The calibration harness
        joins these against :meth:`records` to measure the analytic
        model's error distribution.
        """
        if self.fidelity is None:
            return []
        return self.fidelity.records(_memory_record)

    def errors(self) -> List[JobResult]:
        """Failed outcomes (failure isolation keeps them out of records)."""
        return [outcome for outcome in self.outcomes if not outcome.ok]

    def infeasible(self) -> int:
        """Count of points that met no constraint-satisfying design."""
        return sum(
            1 for o in self.outcomes if o.ok and not o.result.get("feasible")
        )

    @property
    def cache_hits(self) -> int:
        return sum(1 for o in self.outcomes if o.from_cache)

    def pareto(
        self,
        objectives: Sequence[ObjectiveSpec] = (
            "write_latency", "write_energy", "area",
        ),
    ) -> List[Dict]:
        """Non-dominated records under the given objectives."""
        return pareto_front(self.records(), objectives)


def _memory_settings(base_config, constraints):
    """Default the memory campaign's config/constraint objects."""
    from repro.nvsim.config import PAPER_ARRAY
    from repro.vaet.explorer import DesignConstraints

    if base_config is None:
        base_config = PAPER_ARRAY
    if constraints is None:
        constraints = DesignConstraints()
    return base_config, constraints


def _validate_memory(sampler: str, fidelity: str, samples: Optional[int]) -> None:
    """Reject unknown samplers/fidelity modes, bare LHS, model-sampler ladders."""
    check_sampler(sampler)
    if sampler == "lhs" and samples is None:
        raise ValueError('sampler="lhs" requires samples')
    if fidelity not in FIDELITY_MODES:
        raise ValueError(
            "unknown fidelity %r; known: %s" % (fidelity, FIDELITY_MODES)
        )
    if fidelity != "high" and sampler in MODEL_SAMPLERS:
        raise ValueError(
            'fidelity=%r requires a static sampler ("grid"/"lhs"); '
            "model-driven samplers budget their own evaluations" % (fidelity,)
        )


def _drive(
    space: ParameterSpace,
    build_jobs,
    execute,
    record,
    sampler: str = "grid",
    samples: Optional[int] = None,
    sample_seed: int = 0,
    sampler_options: Optional[Dict] = None,
    objectives: Sequence[ObjectiveSpec] = (),
    fidelity: str = "high",
    promote_ranks: int = 1,
):
    """Every campaign's one dispatch, over the caller's ``execute``.

    Runs the surrogate loop, the fidelity ladder, or the static (grid /
    LHS, high or low fidelity) job list; every batch goes through
    ``execute(jobs) -> outcomes``, and ``record(job, outcome)`` turns an
    outcome into the flat row the surrogate and the ladder score
    (:func:`_memory_record`, or a system row, which raises on a failed
    cell).  Arguments are as in :func:`explore_memory`, already
    validated.

    Returns:
        ``(jobs, outcomes, sampler trace, fidelity trace)``; a trace is
        None when the campaign ran no such stage.
    """
    if sampler in MODEL_SAMPLERS:
        # Jobs/outcomes accumulate across rounds in first-seen order.
        jobs: List[Job] = []
        outcomes: List[JobResult] = []
        seen = set()

        def evaluate(points):
            batch = build_jobs(points)
            results = execute(batch)
            for job, outcome in zip(batch, results):
                if job.key not in seen:
                    seen.add(job.key)
                    jobs.append(job)
                    outcomes.append(outcome)
            rows = [record(j, o) for j, o in zip(batch, results)]
            return score_records(rows, objectives)

        model = SurrogateSampler(space, **dict(sampler_options or {}))
        return jobs, outcomes, model.run(evaluate), None
    if samples is not None:
        points = space.sample(samples, seed=sample_seed)
    else:
        points = list(space.grid())
    jobs = build_jobs(points)
    if fidelity == "ladder":
        jobs, outcomes, ftrace = run_ladder(
            jobs, execute, record, objectives, promote_ranks=promote_ranks,
        )
        return jobs, outcomes, None, ftrace
    if fidelity == "low":
        jobs = [lowfi_twin(job) for job in jobs]
    return jobs, execute(jobs), None, None


def _explore_runner(runner, cache_dir, workers, deadline) -> CampaignRunner:
    """The ``explore_*`` engine: the caller's runner, or a fresh one."""
    if runner is not None:
        return runner
    cache = ResultCache(cache_dir) if cache_dir is not None else None
    return CampaignRunner(workers=workers, cache=cache, deadline=deadline)


def _run_journaled(
    campaign_dir: str,
    signature: Dict,
    drive,
    resume: bool,
    retry_failed: bool,
    retry: Optional[RetryPolicy],
    progress: Optional[ProgressCallback],
    executor,
    executor_options: Optional[Dict],
    workers: Optional[int],
    deadline: Optional[float],
):
    """Run ``drive(execute)`` against ``campaign_dir``'s cache and journal.

    The resumable entry points' one set-up.  The result cache lives under
    ``campaign_dir``; a named ``executor`` is built here and owned (and
    closed) by this campaign, an instance stays the caller's to manage.
    The journal opens on the first batch, and its total grows as later
    batches (surrogate rounds, ladder confirms) are planned.  The
    executor and the journal close on every exit.

    Returns:
        ``(drive's return value, cache stats, quarantined job keys)``.
    """
    journal = journal_path(campaign_dir)  # refuses a version-1 directory
    cache = ResultCache(os.path.join(campaign_dir, CACHE_DIR_NAME))
    engine = executor
    if executor is not None:
        engine = make_executor(
            executor, campaign_dir=campaign_dir, workers=workers,
            **dict(executor_options or {}),
        )
    runner = CampaignRunner(
        workers=workers, cache=cache, executor=engine, deadline=deadline
    )
    state = None
    planned = 0

    def execute(batch):
        nonlocal state, planned
        planned += len(batch)
        if state is None:
            state = CampaignState.open(
                journal, campaign_key(signature), total=planned,
                resume=resume, meta=signature,
            )
        state.total = max(state.total, planned)
        return run_checkpointed(
            batch, runner, state, retry_failed=retry_failed,
            retry=retry, progress=progress,
        )

    try:
        value = drive(execute)
        if state is None:  # a surrogate over an axis-less space plans nothing
            execute([])
    finally:
        if engine is not executor:  # built from a name here
            engine.close()
        if state is not None:
            state.close()
    return value, cache.stats(), sorted(state.quarantined)


def explore_memory(
    space: ParameterSpace,
    base_config=None,
    constraints=None,
    node_nm: int = 45,
    num_words: int = 1500,
    error_population: int = 200_000,
    seed: Optional[int] = 2018,
    samples: Optional[int] = None,
    sample_seed: int = 0,
    cache_dir: Optional[str] = None,
    workers: Optional[int] = None,
    runner: Optional[CampaignRunner] = None,
    sampler: str = "grid",
    sampler_options: Optional[Dict] = None,
    objectives: Sequence[ObjectiveSpec] = ("edp_proxy",),
    retry: Optional[RetryPolicy] = None,
    progress: Optional[ProgressCallback] = None,
    deadline: Optional[float] = None,
    fidelity: str = "high",
    promote_ranks: int = 1,
) -> MemoryCampaignResult:
    """Run a memory-level (VAET-STT) campaign over a parameter space.

    Axis names map onto :class:`MemoryConfig` fields, ``DesignConstraints``
    fields, or the spec-level knobs ``node_nm`` / ``num_words`` /
    ``error_population`` / ``seed``.  Invalid combinations (e.g. a
    subarray taller than the array) become per-point error records, not
    campaign aborts.

    Args:
        space: The axes to sweep.
        base_config: Starting organisation (default: the paper array).
        constraints: Baseline reliability constraints.
        node_nm: Default PDK node when no ``node_nm`` axis is given.
        num_words / error_population: Monte Carlo sampling effort.
        seed: Spec seed for every point (None = per-point content seed).
        samples: If set, latin-hypercube sample this many points instead
            of the full grid.
        sample_seed: LHS permutation seed.
        cache_dir: Enable the on-disk result cache at this path.
        workers: Pool size (None = ``REPRO_DSE_WORKERS`` or CPU count).
        runner: Pre-built runner (overrides cache_dir/workers).
        sampler: ``"grid"`` (default), ``"lhs"`` (requires ``samples``),
            or ``"surrogate"`` — TPE-style density-ratio model over the
            full space, spending its budget where the designs best
            under ``objectives`` live (see :mod:`repro.dse.surrogate`).
        sampler_options: ``SurrogateSampler`` overrides (batch, rounds,
            gamma, candidates, smoothing, init_rounds, seed).
        objectives: Surrogate scoring objectives over the feasible
            records (Pareto dominance ranks when more than one); also
            rank the ladder's low-fidelity screen.
        retry: Optional :class:`~repro.dse.retry.RetryPolicy` — failed
            points re-run with reseeded RNG streams before their
            failure is final (journal-free here; use
            :func:`run_memory_campaign` for quarantine bookkeeping).
        progress: Per-point streaming callback (one
            :class:`~repro.dse.runner.Progress` snapshot per completed
            point; surrogate campaigns restart the count each round).
        deadline: Per-evaluation wall-clock budget [s] — a point still
            running past it is reaped and recorded as a timeout
            failure (see :attr:`~repro.dse.jobs.Job.deadline`).  A
            scheduling knob outside the content key; ignored when a
            pre-built ``runner`` is passed.
        fidelity: ``"high"`` (default) — every point pays the full
            Monte-Carlo evaluation; ``"low"`` — every point uses the
            analytic NVSim-class estimate only (quick sweeps,
            calibration); ``"ladder"`` — screen every point at low
            fidelity, then re-evaluate only the frontier band at high
            fidelity (see :mod:`repro.dse.fidelity`).  Static samplers
            only.
        promote_ranks: Ladder promotion depth — low-fidelity Pareto
            ranks up to this value (under ``objectives``) advance to
            the Monte-Carlo stage.
    """
    _validate_memory(sampler, fidelity, samples)
    base_config, constraints = _memory_settings(base_config, constraints)
    runner = _explore_runner(runner, cache_dir, workers, deadline)

    def build_jobs(points):
        return _memory_jobs(
            points, base_config, constraints,
            node_nm, num_words, error_population, seed,
        )

    start = time.perf_counter()
    jobs, outcomes, trace, ftrace = _drive(
        space, build_jobs,
        lambda batch: runner.run(batch, progress=progress, retry=retry),
        _memory_record, sampler, samples, sample_seed, sampler_options,
        objectives, fidelity, promote_ranks,
    )
    elapsed = time.perf_counter() - start
    stats = runner.cache.stats() if runner.cache is not None else None
    return MemoryCampaignResult(
        jobs=jobs, outcomes=outcomes, elapsed=elapsed,
        cache_stats=stats, adaptive=trace, fidelity=ftrace,
    )


def run_memory_campaign(
    space: ParameterSpace,
    campaign_dir: str,
    resume: bool = False,
    retry_failed: bool = False,
    base_config=None,
    constraints=None,
    node_nm: int = 45,
    num_words: int = 1500,
    error_population: int = 200_000,
    seed: Optional[int] = 2018,
    samples: Optional[int] = None,
    sample_seed: int = 0,
    workers: Optional[int] = None,
    sampler: str = "grid",
    sampler_options: Optional[Dict] = None,
    objectives: Sequence[ObjectiveSpec] = ("edp_proxy",),
    retry: Optional[RetryPolicy] = None,
    progress: Optional[ProgressCallback] = None,
    executor=None,
    executor_options: Optional[Dict] = None,
    deadline: Optional[float] = None,
    fidelity: str = "high",
    promote_ranks: int = 1,
) -> MemoryCampaignResult:
    """Resumable :func:`explore_memory`: cache + journal in a directory.

    ``campaign_dir`` holds the result cache (``cache/``) and the
    append-only JSONL journal (``journal.jsonl``), both written as
    results arrive.  A campaign killed after N of M
    points continues with ``resume=True``: the N finished points come
    back as cache/journal hits (zero re-evaluation) and the results are
    identical to an uninterrupted run.

    Args:
        campaign_dir: Campaign home; created on first write.
        resume: Continue an existing journal instead of starting fresh.
            Refuses a journal whose signature (axes + settings +
            sampler) differs from this call's.
        retry_failed: Re-run points the journal marks failed instead of
            replaying their recorded errors (quarantined points are
            released first).
        retry: Optional :class:`~repro.dse.retry.RetryPolicy` — failed
            points re-run with reseeded RNG streams, each retry is
            journaled (the budget spans resumes), and budget-exhausted
            points are quarantined.
        executor: Execution backend: ``"serial"``, ``"pool"``,
            ``"network"`` (an embedded campaign server leases points
            over TCP to ``worker --connect`` processes on any host —
            see :mod:`repro.dse.net`), or an
            :class:`~repro.dse.executors.Executor` instance.  The
            executor changes *where* points evaluate, never the journal
            format, the campaign signature, or the results.
        executor_options: Extra keyword arguments for a named executor
            (``spawn_workers``, ``lease_ttl``, ``timeout``, ...).
        deadline: Per-evaluation wall-clock budget [s]; evaluations
            still running past it are reaped and journaled as timeout
            failures (retryable / quarantinable under ``retry``,
            counted by ``status``).  A scheduling knob outside the
            content key and the campaign signature, so a resumed
            campaign may freely change it.
        fidelity / promote_ranks: Multi-fidelity mode, as in
            :func:`explore_memory`.  Fidelity is part of every job's
            content key *and* (for non-default modes) the campaign
            signature, so screens and confirms journal and resume
            independently and a ladder campaign never mixes with a
            plain one in the same directory.
        (Remaining arguments are as in :func:`explore_memory`.)
    """
    _validate_memory(sampler, fidelity, samples)
    base_config, constraints = _memory_settings(base_config, constraints)
    signature = {
        "kind": "memory",
        "axes": _space_signature(space),
        "base_config": base_config.to_dict(),
        "constraints": constraints.to_dict(),
        "node_nm": node_nm,
        "num_words": num_words,
        "error_population": error_population,
        "seed": seed,
        "samples": samples,
        "sample_seed": sample_seed,
        "sampler": sampler,
        "sampler_options": dict(sampler_options or {}),
        "objectives": [list(o) if isinstance(o, tuple) else o for o in objectives],
    }
    if fidelity != "high":
        # Only non-default modes stamp the signature, so campaign keys
        # (and therefore resumability) of existing journals are stable.
        signature["fidelity"] = fidelity
        signature["promote_ranks"] = promote_ranks

    def build_jobs(points):
        return _memory_jobs(
            points, base_config, constraints,
            node_nm, num_words, error_population, seed,
        )

    start = time.perf_counter()
    (jobs, outcomes, trace, ftrace), stats, quarantined = _run_journaled(
        campaign_dir, signature,
        lambda execute: _drive(
            space, build_jobs, execute, _memory_record, sampler, samples,
            sample_seed, sampler_options, objectives, fidelity, promote_ranks,
        ),
        resume, retry_failed, retry, progress,
        executor, executor_options, workers, deadline,
    )
    return MemoryCampaignResult(
        jobs=jobs, outcomes=outcomes, elapsed=time.perf_counter() - start,
        cache_stats=stats, adaptive=trace, fidelity=ftrace,
        quarantined=quarantined,
    )


def _system_space(workloads, scenarios) -> ParameterSpace:
    """The validated ``workload`` x ``scenario`` space of a MAGPIE grid.

    Its grid order is the historic cell order: every scenario of the
    first kernel, then the next kernel.

    Raises:
        KeyError: On unknown kernel names or scenario values.
    """
    from repro.magpie.flow import MagpieFlow

    names, chosen = MagpieFlow.validate_grid(workloads, scenarios)
    return ParameterSpace(
        [("workload", names), ("scenario", [s.value for s in chosen])]
    )


def _system_cell(flow, job: Job, outcome: JobResult) -> Tuple:
    """``((kernel, Scenario), ScenarioResult)`` of one cell's outcome.

    Raises:
        RuntimeError: On a failed cell (system campaigns keep the
            historic fail-fast contract of ``MagpieFlow.run``).
    """
    from repro.archsim.stats import ActivityReport
    from repro.magpie.flow import ScenarioResult
    from repro.magpie.scenarios import Scenario
    from repro.mcpat.components import estimate_energy

    name = job.spec["workload"]["name"]
    scenario = Scenario(job.spec["scenario"])
    if not outcome.ok:
        raise RuntimeError(
            "MAGPIE job (%s, %s) failed: %s"
            % (name, scenario.value, outcome.error)
        )
    report = ActivityReport.parse(outcome.result["report"])
    energy = estimate_energy(flow.build_soc(scenario), report)
    return (name, scenario), ScenarioResult(
        scenario=scenario, report=report, energy=energy
    )


def _system_row(cell: Tuple, result) -> Dict:
    """Flat record of one (kernel, Scenario) cell's ``ScenarioResult``."""
    kernel, scenario = cell
    energy = result.energy.total_energy
    return {
        "workload": kernel,
        "scenario": scenario.value,
        "exec_time": result.energy.exec_time,
        "energy": energy,
        "edp": energy * result.energy.exec_time,
    }


def _run_system(
    flow,
    space: ParameterSpace,
    execute,
    sampler: str = "grid",
    sampler_options: Optional[Dict] = None,
    objectives: Sequence[ObjectiveSpec] = ("edp",),
):
    """Every system campaign's core: ``flow``'s cells of ``space``.

    Each cell is a content-hashed job carrying the flow's memory-level
    records, run by :func:`_drive` over the caller's ``execute``.

    Returns:
        ``(grid, sampler trace)`` — the (kernel, Scenario) ->
        ``ScenarioResult`` grid of the evaluated cells, in evaluation
        order.
    """
    from repro.archsim.workloads import PARSEC_KERNELS
    from repro.magpie.scenarios import Scenario

    def build_jobs(points):
        return [
            Job(SYSTEM_TARGET, system_point_spec(
                flow, PARSEC_KERNELS[point["workload"]],
                Scenario(point["scenario"]),
            ))
            for point in points
        ]

    def record(job, outcome):
        return _system_row(*_system_cell(flow, job, outcome))

    jobs, outcomes, trace, _ = _drive(
        space, build_jobs, execute, record, sampler,
        sampler_options=sampler_options, objectives=objectives,
    )
    grid = dict(
        _system_cell(flow, job, outcome)
        for job, outcome in zip(jobs, outcomes)
    )
    return grid, trace


@dataclass
class SystemCampaignResult:
    """Outcome of :func:`explore_system` / :func:`run_system_campaign`.

    Attributes:
        results: (kernel, Scenario) -> ``ScenarioResult`` grid (the
            evaluated subset, for surrogate campaigns).
        elapsed: Campaign wall-clock [s].
        cache_stats: Cache session counters (None when uncached).
        adaptive: Sampler trace when the campaign ran
            ``sampler="surrogate"``.
    """

    results: Dict
    elapsed: float
    cache_stats: Optional[Dict] = None
    adaptive: Optional[AdaptiveTrace] = None

    def records(self) -> List[Dict]:
        """Grid cells as flat dicts with exec time, energy and EDP."""
        return [_system_row(cell, result) for cell, result in self.results.items()]

    def pareto(
        self, objectives: Sequence[ObjectiveSpec] = ("exec_time", "energy")
    ) -> List[Dict]:
        """Non-dominated grid cells under the given objectives."""
        return pareto_front(self.records(), objectives)


def explore_system(
    workloads: Optional[Iterable[str]] = None,
    scenarios: Optional[Iterable] = None,
    node_nm: int = 45,
    base=None,
    wer_target: float = 1e-9,
    cache_dir: Optional[str] = None,
    workers: Optional[int] = None,
    runner: Optional[CampaignRunner] = None,
    sampler: str = "grid",
    sampler_options: Optional[Dict] = None,
    objectives: Sequence[ObjectiveSpec] = ("edp",),
    progress: Optional[ProgressCallback] = None,
    deadline: Optional[float] = None,
) -> SystemCampaignResult:
    """Run a system-level (MAGPIE) campaign over a kernel x scenario grid.

    Args:
        workloads / scenarios: Grid axes (defaults: all kernels, all
            four paper scenarios).
        node_nm / base / wer_target: ``MagpieFlow`` settings; the memory
            level runs once and its records are shared by every cell.
        cache_dir / workers / runner: Engine settings, as in
            :func:`explore_memory`.
        sampler: ``"grid"`` (default, the full cross product) or
            ``"surrogate"`` — model the cells best under ``objectives``
            with the TPE-style density-ratio sampler instead of
            evaluating every cell.
        sampler_options / objectives / progress: As in
            :func:`explore_memory` (default objective: EDP).
    """
    check_sampler(sampler, ("grid",) + MODEL_SAMPLERS)
    from repro.magpie.flow import MagpieFlow

    flow = MagpieFlow(node_nm=node_nm, base=base, wer_target=wer_target)
    space = _system_space(workloads, scenarios)
    runner = _explore_runner(runner, cache_dir, workers, deadline)
    start = time.perf_counter()
    results, trace = _run_system(
        flow, space, lambda batch: runner.run(batch, progress=progress),
        sampler, sampler_options, objectives,
    )
    elapsed = time.perf_counter() - start
    stats = runner.cache.stats() if runner.cache is not None else None
    return SystemCampaignResult(
        results=results, elapsed=elapsed, cache_stats=stats, adaptive=trace
    )


def run_system_campaign(
    campaign_dir: str,
    workloads: Optional[Iterable[str]] = None,
    scenarios: Optional[Iterable] = None,
    node_nm: int = 45,
    base=None,
    wer_target: float = 1e-9,
    resume: bool = False,
    retry_failed: bool = False,
    retry: Optional[RetryPolicy] = None,
    workers: Optional[int] = None,
    progress: Optional[ProgressCallback] = None,
    executor=None,
    executor_options: Optional[Dict] = None,
    deadline: Optional[float] = None,
) -> SystemCampaignResult:
    """Resumable :func:`explore_system`: cache + journal in a directory.

    The full kernel x scenario grid with every completed cell journaled
    as it lands; ``resume=True`` finishes a killed campaign without
    re-simulating completed cells (they replay from the cache).  A
    ``retry`` policy re-runs failed cells (journaled, budget spans
    resumes) before the grid's fail-fast contract raises.  See
    :func:`run_memory_campaign` for the directory layout, the
    ``executor`` / ``executor_options`` plumbing,
    and the resume semantics.
    """
    from repro.magpie.flow import MagpieFlow

    flow = MagpieFlow(node_nm=node_nm, base=base, wer_target=wer_target)
    space = _system_space(workloads, scenarios)
    workload_axis, scenario_axis = space.axes
    signature = {
        "kind": "system",
        "workloads": list(workload_axis.values),
        "scenarios": list(scenario_axis.values),
        "node_nm": node_nm,
        "wer_target": wer_target,
        "base": flow.base.to_dict(),
    }
    start = time.perf_counter()
    (results, _), stats, _ = _run_journaled(
        campaign_dir, signature,
        lambda execute: _run_system(flow, space, execute),
        resume, retry_failed, retry, progress,
        executor, executor_options, workers, deadline,
    )
    return SystemCampaignResult(
        results=results, elapsed=time.perf_counter() - start,
        cache_stats=stats,
    )
