"""Multi-fidelity evaluation: analytic NVSim screen, Monte-Carlo promote.

The expensive memory evaluator (``"vaet-memory"``) pays for a full
variation-aware Monte-Carlo analysis per point — margin solving over an
error population, LLG switching statistics, ECC/WER optimisation.  The
variation-*unaware* :class:`~repro.nvsim.estimator.NVSimEstimator`
produces the same latency/energy/area quantities analytically, three
orders of magnitude faster, and (measured by
``benchmarks/calibrate_fidelity.py``) rank-correlates with the full
model across organisation knobs.  That gap is the classic
multi-fidelity ladder:

1. **screen** — evaluate *every* candidate point with the cheap
   analytic estimate (``"nvsim-memory-lowfi"`` jobs);
2. **promote** — keep the points whose low-fidelity Pareto rank under
   the campaign objectives is within ``promote_ranks`` of the frontier
   (widened so a point the cheap model slightly mis-ranks is not fenced
   out — ties, e.g. axes the analytic model cannot see, promote
   together);
3. **confirm** — re-evaluate only the promoted points with the full
   vaet/LLG Monte-Carlo path; the campaign's records and Pareto front
   come from these high-fidelity results alone.

Fidelity is part of every job's identity: low-fidelity jobs carry a
distinct target name *and* a ``"fidelity": "low"`` spec field, both of
which feed :func:`~repro.dse.jobs.content_key`.  Cache addresses and
journal events therefore never collide across fidelities, and the
resume/zero-re-evaluation guarantees of the campaign machinery hold
unchanged on all four executors — a killed ladder campaign resumes
through the identical screen/promote path with every finished point a
cache hit.
"""

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence

from repro.dse.jobs import Job, JobResult
from repro.dse.pareto import Objective, ObjectiveSpec, dominance_ranks
from repro.dse.runner import register_target

#: Registered name of the analytic (variation-unaware) memory evaluator.
LOWFI_MEMORY_TARGET = "nvsim-memory-lowfi"

#: Spec marker values for the two fidelities.
FIDELITY_LOW = "low"
FIDELITY_HIGH = "high"

#: Fidelity modes a memory campaign understands:
#: ``"high"`` — every point pays the full Monte-Carlo path (default);
#: ``"low"`` — every point uses the analytic screen only (quick sweeps,
#: calibration harnesses); ``"ladder"`` — screen low, confirm high.
FIDELITY_MODES = ("high", "low", "ladder")


def evaluate_memory_lowfi(spec: Mapping, seed: int) -> Dict:
    """Analytic screening twin of ``evaluate_memory_point``.

    Rebuilds the PDK and :class:`~repro.nvsim.config.MemoryConfig` from
    the spec and runs the variation-unaware NVSim-class estimate — no
    Monte Carlo, no margin solving, no ECC sweep.  The result mirrors
    the high-fidelity shape (a ``DesignPoint``-style dict) so record
    flattening and Pareto ranking are fidelity-agnostic; fields the
    analytic model cannot see are pinned to their nominal meaning
    (``ecc_bits=0``, disturb unchecked).

    The ``seed`` is accepted for evaluator-protocol uniformity and
    unused: the estimate is deterministic.
    """
    from repro.nvsim.config import MemoryConfig
    from repro.nvsim.estimator import NVSimEstimator
    from repro.pdk.kit import ProcessDesignKit

    config = MemoryConfig.from_dict(spec["config"])
    pdk = ProcessDesignKit.for_node(int(spec["node_nm"]))
    estimate = NVSimEstimator(pdk, config).estimate()
    point = {
        "config": config.to_dict(),
        "ecc_bits": 0,
        "write_latency": float(estimate.write_latency),
        "read_latency": float(estimate.read_latency),
        "write_energy": float(estimate.write_energy),
        "read_energy": float(estimate.read_energy),
        "area": float(estimate.area),
        "read_disturb_ok": True,
    }
    return {"feasible": True, "fidelity": FIDELITY_LOW, "point": point}


register_target(LOWFI_MEMORY_TARGET, evaluate_memory_lowfi)


def lowfi_twin(job: Job) -> Job:
    """The analytic screening job of a high-fidelity memory job.

    Same spec plus the ``"fidelity": "low"`` marker, different target —
    both changes feed the content key, so the screen and the confirm of
    one design point occupy distinct cache and journal identities.
    """
    spec = dict(job.spec)
    spec["fidelity"] = FIDELITY_LOW
    return Job(LOWFI_MEMORY_TARGET, spec, reseed=job.reseed)


@dataclass
class FidelityTrace:
    """History of one ladder campaign's screening stage.

    Attributes:
        low_jobs: The analytic screening jobs, in point order.
        low_outcomes: Screening results (aligned with ``low_jobs``).
        promoted_keys: High-fidelity job keys that survived screening.
        promote_ranks: The frontier widening the promotion used.
        objectives: Objectives the low-fidelity ranking scored.
    """

    low_jobs: List[Job] = field(default_factory=list)
    low_outcomes: List[JobResult] = field(default_factory=list)
    promoted_keys: List[str] = field(default_factory=list)
    promote_ranks: int = 1
    objectives: List = field(default_factory=list)

    @property
    def screened(self) -> int:
        """Points evaluated by the cheap analytic screen."""
        return len(self.low_jobs)

    @property
    def promoted(self) -> int:
        """Points promoted to the expensive Monte-Carlo path."""
        return len(self.promoted_keys)

    def records(self, record: Callable) -> List[Dict]:
        """Flat screening records through a campaign record builder."""
        rows = []
        for job, outcome in zip(self.low_jobs, self.low_outcomes):
            row = record(job, outcome)
            if row is not None:
                rows.append(row)
        return rows


def promotion_indices(
    rows: Sequence[Optional[Mapping]],
    objectives: Sequence[ObjectiveSpec],
    promote_ranks: int = 1,
) -> List[int]:
    """Indices whose low-fidelity Pareto rank is within the frontier band.

    Rows that are ``None`` (failed / infeasible screens) or carry a
    non-finite objective value are unrankable and never promoted.

    Raises:
        ValueError: No objectives, or ``promote_ranks`` negative.
    """
    if not objectives:
        raise ValueError("at least one objective is required")
    if promote_ranks < 0:
        raise ValueError("promote_ranks must be >= 0")
    parsed = [Objective.parse(o) for o in objectives]
    live = []
    for i, row in enumerate(rows):
        if row is None:
            continue
        values = [float(row[objective.key]) for objective in parsed]
        if all(math.isfinite(value) for value in values):
            live.append(i)
    if not live:
        return []
    ranks = dominance_ranks([rows[i] for i in live], objectives)
    return [i for i, rank in zip(live, ranks) if rank <= promote_ranks]


def run_ladder(
    jobs: Sequence[Job],
    execute: Callable[[List[Job]], List[JobResult]],
    record: Callable[[Job, JobResult], Optional[Dict]],
    objectives: Sequence[ObjectiveSpec],
    promote_ranks: int = 1,
):
    """Screen every job at low fidelity, confirm the frontier at high.

    Args:
        jobs: High-fidelity jobs of the full candidate set.
        execute: jobs -> outcomes (runner or checkpointed runner; both
            stages flow through it, so caching/journaling/executors
            apply to screens and confirms alike).
        record: (job, outcome) -> flat scoreable dict or None.
        objectives: Pareto objectives ranking the screen.
        promote_ranks: Deepest low-fidelity front promoted (0 = exact
            frontier only; the default 1 keeps one band of slack for
            cheap-model mis-ranking).

    Returns:
        ``(high_jobs, high_outcomes, trace)`` — the promoted subset in
        original point order, their Monte-Carlo results, and the
        :class:`FidelityTrace` of the screening stage.
    """
    jobs = list(jobs)
    low_jobs = [lowfi_twin(job) for job in jobs]
    low_outcomes = execute(low_jobs)
    rows = [
        record(job, outcome)
        for job, outcome in zip(low_jobs, low_outcomes)
    ]
    chosen = promotion_indices(rows, objectives, promote_ranks)
    high_jobs = [jobs[i] for i in chosen]
    high_outcomes = execute(high_jobs) if high_jobs else []
    trace = FidelityTrace(
        low_jobs=low_jobs,
        low_outcomes=low_outcomes,
        promoted_keys=[job.key for job in high_jobs],
        promote_ranks=promote_ranks,
        objectives=[
            list(o) if isinstance(o, tuple) else o for o in objectives
        ],
    )
    return high_jobs, high_outcomes, trace
