"""Read-side campaign analytics: replay the journals into a report.

Every campaign already writes three durable event streams — the
append-only campaign journal (``journal.jsonl``), one lease log per
campaign-server life (``work/leases/*.jsonl``, network campaigns only),
and the content-addressed result cache — but the write-side stack
reads them back only to resume.  This module is the read-side twin:
:func:`build_report` folds all three into a
:class:`CampaignReport` answering the questions a campaign owner
actually asks —

* **where does wall-clock go?** — per-point evaluation-latency
  percentiles (p50/p90/p99 over evaluated completions; cache hits are
  excluded, they cost nothing at replay time), overall throughput, and
  cache-hit / retry / timeout rates;
* **are the workers busy?** — a per-worker utilization summary folded
  from the lease logs' ``claim``/``heartbeat``/``done`` intervals
  (a worker that died mid-task is credited up to its last heartbeat);
* **is the search converging?** — the Pareto front's evolution over
  campaign time: front size and a hypervolume proxy sampled along the
  completion sequence, joined from journal order and cached results.

Everything here is a pure read: no journal is appended, no cache entry
written, no lease touched — ``analyze`` is always safe against a live
campaign.  Torn final lines and mid-crash journals produce a partial
report, never an exception; only a journal that is corrupt *interior*
(which the write side can never produce) raises.

One caveat inherited from compaction: :meth:`CampaignState.save` folds
the event history into a snapshot, so per-event analytics (latency
samples, Pareto evolution) cover the journaled tail only.  The summary
counters (status buckets, rates) always cover the whole campaign
because they fold snapshot + tail.
"""

import math
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.dse.cache import ResultCache
from repro.dse.checkpoint import CampaignState, journal_path
from repro.dse.executors import CACHE_DIR_NAME
from repro.dse.journal import read_events
from repro.dse.net.server import lease_log_paths, read_lease_events
from repro.dse.pareto import (
    ObjectiveSpec,
    hypervolume_proxy,
    objective_bounds,
    update_front,
)

#: Pareto-evolution samples in a report (evenly spaced along the
#: completion sequence, the final state always included).
DEFAULT_PARETO_SAMPLES = 16

#: Latency percentiles every report carries.
LATENCY_PERCENTILES = (50, 90, 99)


def percentile(values: Sequence[float], q: float) -> float:
    """``numpy.percentile(values, q)`` to the last bit, in pure python.

    numpy's linear method and rounding (from the nearer order statistic,
    as :func:`repro.utils.mathx.percentile`), without an array.

    Raises:
        ValueError: On an empty sample.
    """
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0 <= q <= 100:
        raise ValueError("percentile q must be in [0, 100], got %r" % q)
    ordered = sorted(float(v) for v in values)
    rank = (len(ordered) - 1) * (q / 100.0)
    lo = int(math.floor(rank))
    if lo == rank:
        return ordered[lo]
    low, high, frac = ordered[lo], ordered[lo + 1], rank - lo
    if frac >= 0.5:
        return high - (high - low) * (1.0 - frac)
    return low + (high - low) * frac


@dataclass
class WorkerUtilization:
    """One worker's lease-log fold.

    Attributes:
        worker: Worker id (the ``worker`` field of its lease events).
        tasks: Claims folded (a task reclaimed after expiry counts per
            claim — it occupied the worker each time).
        completed: Results the worker delivered (``done`` events).
        heartbeats: Heartbeat events (liveness traffic).
        busy_s: Seconds under an open claim.  A claim with no terminal
            event (worker died mid-task) is credited up to its last
            heartbeat — the lease lawfully expired after that.
        span_s: First-to-last stamp of this worker's events.
        utilization: ``busy_s / span_s`` (0 when the span is empty).
        first_t: Stamp of the worker's first event.
        last_t: Stamp of the worker's last event.
    """

    worker: str
    tasks: int = 0
    completed: int = 0
    heartbeats: int = 0
    busy_s: float = 0.0
    span_s: float = 0.0
    utilization: float = 0.0
    first_t: float = 0.0
    last_t: float = 0.0

    def to_dict(self) -> Dict:
        return {
            "worker": self.worker,
            "tasks": self.tasks,
            "completed": self.completed,
            "heartbeats": self.heartbeats,
            "busy_s": self.busy_s,
            "span_s": self.span_s,
            "utilization": self.utilization,
            "first_t": self.first_t,
            "last_t": self.last_t,
        }


@dataclass
class ParetoSample:
    """Front state after ``completed`` ok points had landed.

    Attributes:
        completed: Ok completions folded so far (journal order).
        t: Journal stamp of the ``completed``-th ok completion.
        front_size: Non-dominated archive size at that instant.
        hypervolume: :func:`~repro.dse.pareto.hypervolume_proxy` of the
            archive, normalised over the whole campaign's value ranges
            (samples share one scale, so the series is comparable).
    """

    completed: int
    t: float
    front_size: int
    hypervolume: float

    def to_dict(self) -> Dict:
        return {
            "completed": self.completed,
            "t": self.t,
            "front_size": self.front_size,
            "hypervolume": self.hypervolume,
        }


@dataclass
class CampaignReport:
    """Everything :func:`build_report` reads out of a campaign directory.

    ``to_dict()`` is the stable ``analyze --json`` payload; the field
    reference lives in the README ("Reading a campaign back").
    """

    campaign_dir: str
    status: Dict
    #: True iff ``done + remaining + quarantined == total`` — the
    #: accounting identity status() guarantees; False means the journal
    #: itself is inconsistent (e.g. more completions than the plan).
    accounting_consistent: bool
    events: int = 0
    torn_bytes: int = 0
    start_t: float = 0.0
    end_t: float = 0.0
    duration_s: float = 0.0
    #: Evaluated completions (done + failed events) in the journal tail.
    completions: int = 0
    throughput: float = 0.0
    #: count/mean/min/max/p50/p90/p99 over evaluated completions [s];
    #: None when the tail holds no evaluated completion.
    latency: Optional[Dict] = None
    #: cache_hit / retry / timeout fractions of accounted points.
    rates: Dict = field(default_factory=dict)
    workers: List[WorkerUtilization] = field(default_factory=list)
    objectives: List = field(default_factory=list)
    pareto: List[ParetoSample] = field(default_factory=list)

    def to_dict(self) -> Dict:
        """JSON-ready payload (no filesystem paths: byte-stable given
        an identical campaign directory content, wherever it lives)."""
        return {
            "status": self.status,
            "accounting_consistent": self.accounting_consistent,
            "journal": {
                "events": self.events,
                "torn_bytes": self.torn_bytes,
                "start_t": self.start_t,
                "end_t": self.end_t,
                "duration_s": self.duration_s,
            },
            "throughput": {
                "completions": self.completions,
                "points_per_s": self.throughput,
            },
            "latency": self.latency,
            "rates": self.rates,
            "workers": [worker.to_dict() for worker in self.workers],
            "pareto": {
                "objectives": [
                    list(o) if isinstance(o, tuple) else o
                    for o in self.objectives
                ],
                "samples": [sample.to_dict() for sample in self.pareto],
            },
        }


def _meta_objectives(meta: Dict) -> List[ObjectiveSpec]:
    """The campaign's journaled objectives, or the kind's default."""
    raw = meta.get("objectives") if isinstance(meta, dict) else None
    if raw:
        return [tuple(o) if isinstance(o, list) else o for o in raw]
    if isinstance(meta, dict) and meta.get("kind") == "system":
        return ["edp"]
    return ["edp_proxy"]


def _flatten_result(meta: Dict, spec, result) -> Optional[Dict]:
    """A cached evaluation result as a flat objective-keyed row.

    Memory-campaign results nest their metrics under
    ``point``/``config`` (see ``_memory_record`` in campaign.py); the
    same flattening is applied here so the journaled objectives (e.g.
    ``edp_proxy``) resolve.  Anything else is taken as already-flat
    metrics.  Returns None for infeasible or non-dict results.
    """
    if not isinstance(result, dict):
        return None
    kind = meta.get("kind") if isinstance(meta, dict) else None
    if kind != "memory" or "point" not in result:
        return dict(result)
    if not result.get("feasible"):
        return None
    point = dict(result.get("point") or {})
    row = dict(point.pop("config", None) or {})
    row.update(point)
    if isinstance(spec, dict):
        if "node_nm" in spec:
            row["node_nm"] = spec["node_nm"]
        constraints = spec.get("constraints")
        if isinstance(constraints, dict) and "wer_target" in constraints:
            row["wer_target"] = constraints["wer_target"]
    try:
        row.setdefault(
            "edp_proxy", row["write_latency"] * row["write_energy"]
        )
    except (KeyError, TypeError):
        pass
    return row


def _latency_summary(samples: Sequence[float]) -> Optional[Dict]:
    if not samples:
        return None
    summary = {
        "count": len(samples),
        "mean": sum(samples) / len(samples),
        "min": min(samples),
        "max": max(samples),
    }
    for q in LATENCY_PERCENTILES:
        summary["p%d" % q] = percentile(samples, q)
    return summary


def _fold_latency(events: Sequence[Dict]) -> Tuple[List[float], Dict[str, str]]:
    """(latency samples, key -> final completion kind) from the tail.

    Latency samples come from evaluated completions only (``done`` /
    ``failed``), last-writer-wins per key so a retried point
    contributes its final attempt's wall-clock once.  ``cached``
    completions join the kind map (they are completions) but never the
    latency sample — a hit costs nothing at replay time.
    """
    final_kind: Dict[str, str] = {}
    final_elapsed: Dict[str, Optional[float]] = {}
    for event in events:
        kind = event.get("event")
        key = event.get("key")
        if key is None or kind not in ("done", "failed", "cached"):
            continue
        final_kind[key] = kind
        if kind == "cached":
            final_elapsed[key] = None
        else:
            elapsed = event.get("elapsed")
            final_elapsed[key] = (
                float(elapsed)
                if isinstance(elapsed, (int, float)) and elapsed >= 0
                else None
            )
    samples = [v for v in final_elapsed.values() if v is not None]
    return samples, final_kind


def _fold_workers(paths: Sequence[str]) -> List[WorkerUtilization]:
    """Per-worker busy/span fold over every lease log."""
    folds: Dict[str, WorkerUtilization] = {}
    open_claims: Dict[Tuple[str, str], Tuple[float, float]] = {}
    for path in paths:
        for event in read_lease_events(path):
            worker = event.get("worker")
            task = event.get("task")
            if worker is None or task is None:
                continue
            kind = event.get("event")
            t = float(event.get("t", 0.0))
            fold = folds.get(worker)
            if fold is None:
                fold = folds[worker] = WorkerUtilization(
                    worker=worker, first_t=t, last_t=t
                )
            fold.first_t = min(fold.first_t, t)
            fold.last_t = max(fold.last_t, t)
            claim = (worker, task)
            if kind == "claim":
                if claim not in open_claims:
                    fold.tasks += 1
                    open_claims[claim] = (t, t)
            elif kind == "heartbeat":
                fold.heartbeats += 1
                if claim in open_claims:
                    open_claims[claim] = (open_claims[claim][0], t)
            elif kind in ("done", "release"):
                if kind == "done":
                    fold.completed += 1
                started = open_claims.pop(claim, None)
                if started is not None:
                    fold.busy_s += max(0.0, t - started[0])
    # A claim never closed: the worker died mid-task.  Credit busy time
    # up to its last heartbeat — the lease lawfully expired after that.
    for (worker, _task), (claimed, last_alive) in open_claims.items():
        folds[worker].busy_s += max(0.0, last_alive - claimed)
    for fold in folds.values():
        fold.span_s = max(0.0, fold.last_t - fold.first_t)
        fold.utilization = (
            fold.busy_s / fold.span_s if fold.span_s > 0 else 0.0
        )
    return sorted(folds.values(), key=lambda fold: fold.worker)


def _fold_pareto(
    events: Sequence[Dict],
    cache: Optional[ResultCache],
    meta: Dict,
    objectives: Sequence[ObjectiveSpec],
    samples: int,
) -> List[ParetoSample]:
    """Front evolution along the journal's ok-completion sequence.

    One pass collects each point's row at its *first* ok completion
    (``done`` or ok ``cached``), joined from the result cache and
    flattened; a second pass folds rows into an incremental
    non-dominated archive (:func:`~repro.dse.pareto.update_front` — no
    per-prefix O(n^2) re-sort) and snapshots ``front_size`` + the
    hypervolume proxy at up to ``samples`` evenly spaced completions.
    Points whose rows lack an objective key advance the completion
    counter without joining the archive.
    """
    sequence: List[Tuple[float, Optional[Dict]]] = []
    seen = set()
    for event in events:
        kind = event.get("event")
        key = event.get("key")
        if key is None or key in seen:
            continue
        if kind == "done" or (kind == "cached" and event.get("ok", True)):
            seen.add(key)
            row = None
            record = cache.get(key) if cache is not None else None
            if record is not None:
                row = _flatten_result(
                    meta, record.get("spec"), record.get("result")
                )
            sequence.append((float(event.get("t", 0.0)), row))
    rows = [row for _, row in sequence if row is not None]
    bounds = objective_bounds(rows, objectives)
    keys = {o[0] if isinstance(o, (tuple, list)) else o for o in objectives}
    if not bounds or not keys <= set(bounds):
        return []
    total = len(sequence)
    take = max(1, int(samples))
    positions = {max(1, ((i + 1) * total) // take) for i in range(take)}
    positions.add(total)
    front: List[Dict] = []
    out: List[ParetoSample] = []
    for index, (t, row) in enumerate(sequence, start=1):
        if row is not None:
            try:
                front = update_front(front, row, objectives)
            except (KeyError, TypeError, ValueError):
                pass  # row lacks an objective key: completion only
        if index in positions:
            out.append(
                ParetoSample(
                    completed=index,
                    t=t,
                    front_size=len(front),
                    hypervolume=hypervolume_proxy(front, objectives, bounds),
                )
            )
    return out


def build_report(
    campaign_dir: str,
    objectives: Optional[Sequence[ObjectiveSpec]] = None,
    pareto_samples: int = DEFAULT_PARETO_SAMPLES,
) -> CampaignReport:
    """Replay one campaign directory into a :class:`CampaignReport`.

    Args:
        campaign_dir: The campaign home (holds ``journal.jsonl``, and
            optionally ``cache/`` and ``work/leases/``).
        objectives: Pareto objectives overriding the journaled ones
            (default: the campaign's own, falling back to the kind's
            default objective).
        pareto_samples: Evolution samples along the completion sequence.

    Raises:
        FileNotFoundError: No campaign journal in ``campaign_dir``.
        ValueError: The journal is corrupt beyond the lawful torn final
            line (interior damage the write side cannot produce), or
            the directory holds only a version-1 ``checkpoint.json``.
    """
    campaign_dir = str(campaign_dir)
    path = journal_path(campaign_dir)
    state = CampaignState.load(path)
    events, torn = read_events(path)
    tail = events[1:]

    status = state.status()
    consistent = (
        status["done"] + status["remaining"] + status["quarantined"]
        == status["total"]
    )

    stamps = [
        float(event["t"])
        for event in tail
        if isinstance(event.get("t"), (int, float))
    ]
    start_t = min(stamps) if stamps else float(state.created)
    end_t = max(stamps) if stamps else float(state.updated)
    duration = max(0.0, end_t - start_t)

    samples, final_kind = _fold_latency(tail)
    kinds = list(final_kind.values())
    evaluated = sum(1 for kind in kinds if kind != "cached")
    cached = len(kinds) - evaluated
    accounted = max(1, len(kinds))

    cache_dir = os.path.join(campaign_dir, CACHE_DIR_NAME)
    cache = ResultCache(cache_dir) if os.path.isdir(cache_dir) else None

    return CampaignReport(
        campaign_dir=campaign_dir,
        status=status,
        accounting_consistent=consistent,
        events=len(events),
        torn_bytes=torn,
        start_t=start_t,
        end_t=end_t,
        duration_s=duration,
        completions=evaluated,
        throughput=evaluated / duration if duration > 0 else 0.0,
        latency=_latency_summary(samples),
        rates={
            "cache_hit": cached / accounted,
            "retry": status["retried"] / accounted,
            "timeout": status["timeouts"] / accounted,
        },
        workers=_fold_workers(lease_log_paths(campaign_dir)),
        objectives=list(
            objectives if objectives else _meta_objectives(state.meta)
        ),
        pareto=_fold_pareto(
            tail,
            cache,
            state.meta,
            list(objectives if objectives else _meta_objectives(state.meta)),
            pareto_samples,
        ),
    )
