"""Model-based sampling: a TPE-style surrogate over a ParameterSpace.

Grid and LHS campaigns spend the same effort on every region of the
design space; a surrogate campaign spends it where the objective says
the good designs live.  :class:`SurrogateSampler` keeps every
evaluation and fits a cheap model over the full space each round — the
tree-structured-Parzen-estimator recipe (Bergstra et al.):

1. **split** — sort the scored history and call the best ``gamma``
   fraction *good*, the rest *bad*;
2. **model** — per axis, estimate two categorical densities ``l(v)``
   (over good points) and ``g(v)`` (over bad points) with Laplace
   smoothing, so every value keeps non-zero mass and exploration never
   collapses;
3. **propose** — draw a candidate pool from the good density (or
   enumerate the grid when it is small), rank candidates by the
   acquisition ``sum_axis log l(v) - log g(v)``, and evaluate the top
   ``batch`` not yet seen.

Axes are discrete (every knob in this repository is), so the densities
are plain smoothed histograms — pure numpy, no GP algebra, no scipy.

The caller scores each batch against the campaign objective(s):
:func:`score_records` turns result records into scores, and
multi-objective scoring uses Pareto dominance ranks, so the "good"
region is the one feeding the frontier.

Determinism and replay-stability: proposals depend only on
``(seed, round index, scored history)``, the history is rebuilt from
the evaluator's answers, and evaluation goes through the normal
job/cache machinery — so re-running (or resuming after a kill) replays
every round from cache and walks the identical proposal path, on every
executor.  Ties in the acquisition break on the canonical JSON key of
the point, never on dict order.
"""

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Set, Tuple

import numpy as np

from repro.dse.jobs import canonical_json
from repro.dse.pareto import Objective, ObjectiveSpec, dominance_ranks
from repro.dse.space import Axis, ParameterSpace, plain_value

#: Evaluate one batch of points, returning one score per point (lower
#: is better; None marks the point unscorable: infeasible or failed).
BatchEvaluator = Callable[[List[Dict]], Sequence[Optional[float]]]


def score_records(
    records: Sequence[Optional[Mapping]],
    objectives: Sequence[ObjectiveSpec],
) -> List[Optional[float]]:
    """Scalar scores (lower = better) for a batch of result records.

    ``None`` records (infeasible / failed points) score ``None``, and
    so does any record whose objective value is non-finite — a NaN or
    inf that reached ``min``/``sorted`` would poison the ordering (NaN
    compares false everywhere), silently crowning a broken point or
    scrambling the good/bad split.  A single objective scores by its
    (sign-normalised) value; multiple objectives score by Pareto
    dominance rank over the finite records, so rank-0 points — the
    batch frontier — are the ones the model calls good.

    Raises:
        ValueError: No objectives given.
        KeyError: A record lacks an objective key.
    """
    if not objectives:
        raise ValueError("at least one objective is required")
    parsed = [Objective.parse(o) for o in objectives]
    scores: List[Optional[float]] = [None] * len(records)
    live = []
    for i, record in enumerate(records):
        if record is None:
            continue
        values = [float(record[objective.key]) for objective in parsed]
        if all(math.isfinite(value) for value in values):
            live.append((i, record))
    if not live:
        return scores
    if len(parsed) == 1:
        objective = parsed[0]
        for i, record in live:
            value = float(record[objective.key])
            scores[i] = -value if objective.maximize else value
        return scores
    ranks = dominance_ranks([record for _, record in live], objectives)
    for (i, _), rank in zip(live, ranks):
        scores[i] = float(rank)
    return scores


@dataclass
class AdaptiveRound:
    """One propose/evaluate round of a model-driven campaign.

    Attributes:
        index: Round number, 0-based.
        space_size: Grid cardinality of the space this round sampled.
        points: Points evaluated this round (duplicates of earlier
            rounds excluded).
        scores: Scores aligned with ``points`` (None = unscorable).
        best_point / best_score: Round winner, if any point scored.
    """

    index: int
    space_size: int
    points: List[Dict]
    scores: List[Optional[float]]
    best_point: Optional[Dict] = None
    best_score: Optional[float] = None


@dataclass
class AdaptiveTrace:
    """Full history of a model-driven run.

    Attributes:
        rounds: Per-round records, in order.
        best_point / best_score: Overall winner across rounds.
        evaluations: Total points submitted for evaluation.
    """

    rounds: List[AdaptiveRound] = field(default_factory=list)
    best_point: Optional[Dict] = None
    best_score: Optional[float] = None
    evaluations: int = 0


def point_key(point: Mapping) -> str:
    """Canonical dedup key of a point (enum values by serialised form)."""
    return canonical_json(
        {name: plain_value(value) for name, value in point.items()}
    )


class SurrogateSampler:
    """TPE-style good/bad density-ratio driver over a ParameterSpace.

    Args:
        space: The full design space to explore.
        batch: Points proposed per round.
        rounds: Maximum model/propose iterations.
        gamma: Fraction of the scored history treated as "good"
            (at least one point always is).
        candidates: Candidate-pool size ranked per model round; when the
            grid itself is no larger, the pool is the whole grid and the
            proposal step is exhaustive.
        smoothing: Laplace count added to every axis value in both
            densities (> 0 keeps unseen values proposable).
        init_rounds: Leading rounds drawn by seeded LHS before the
            model takes over (the model also waits until the history
            holds both a good and a bad point).
        seed: Base RNG seed; round ``r`` derives its streams from
            ``(seed, r)`` so batches differ between rounds but replay
            identically.
    """

    def __init__(
        self,
        space: ParameterSpace,
        batch: int = 8,
        rounds: int = 6,
        gamma: float = 0.25,
        candidates: int = 64,
        smoothing: float = 1.0,
        init_rounds: int = 1,
        seed: int = 0,
    ):
        if batch < 1:
            raise ValueError("batch must be >= 1")
        if rounds < 1:
            raise ValueError("rounds must be >= 1")
        if not 0.0 < gamma < 1.0:
            raise ValueError("gamma must be in (0, 1), got %r" % gamma)
        if candidates < 1:
            raise ValueError("candidates must be >= 1")
        if smoothing <= 0.0:
            raise ValueError("smoothing must be > 0, got %r" % smoothing)
        if init_rounds < 1:
            raise ValueError("init_rounds must be >= 1")
        self.space = space
        self.batch = batch
        self.rounds = rounds
        self.gamma = gamma
        self.candidates = candidates
        self.smoothing = smoothing
        self.init_rounds = init_rounds
        self.seed = seed

    def run(self, evaluate: BatchEvaluator) -> AdaptiveTrace:
        """Drive the model/propose loop; ``evaluate`` scores each batch."""
        trace = AdaptiveTrace()
        seen: Set[str] = set()
        history: List[Tuple[Dict, float]] = []
        for index in range(self.rounds):
            points = self.propose(index, history, seen)
            if not points:  # space fully explored
                break
            scores = list(evaluate(points))
            if len(scores) != len(points):
                raise ValueError(
                    "evaluator returned %d scores for %d points"
                    % (len(scores), len(points))
                )
            trace.evaluations += len(points)
            round_record = AdaptiveRound(
                index=index,
                space_size=self.space.size,
                points=points,
                scores=scores,
            )
            scored = [
                (point, score)
                for point, score in zip(points, scores)
                if score is not None and math.isfinite(score)
            ]
            if scored:
                best_point, best_score = min(scored, key=lambda pair: pair[1])
                round_record.best_point = best_point
                round_record.best_score = best_score
                if trace.best_score is None or best_score < trace.best_score:
                    trace.best_point = best_point
                    trace.best_score = best_score
                history.extend(scored)
            trace.rounds.append(round_record)
        return trace

    # -- proposal -------------------------------------------------------

    def propose(
        self,
        index: int,
        history: Sequence[Tuple[Dict, float]],
        seen: Set[str],
    ) -> List[Dict]:
        """The round's batch of fresh points (marks them ``seen``).

        Pure in its inputs: the same (index, history, seen) always
        yields the same batch — the property the kill/resume tests pin.
        """
        if index < self.init_rounds or len(history) < 2:
            return self._draw_lhs(index, seen)
        good, bad = self._split(history)
        if not bad:
            return self._draw_lhs(index, seen)
        log_ratio, good_density = self._fit(good, bad)
        pool = self._candidate_pool(index, good_density)
        index_maps = [self._index_map(axis) for axis in self.space.axes]
        ranked = []
        pooled = set()
        for point in pool:
            key = point_key(point)
            if key in seen or key in pooled:
                continue
            pooled.add(key)
            acquisition = self._acquisition(point, log_ratio, index_maps)
            ranked.append((-acquisition, key, point))
        ranked.sort(key=lambda item: (item[0], item[1]))
        chosen = [point for _, _, point in ranked[: self.batch]]
        if not chosen:
            # Model pool exhausted (tiny or nearly-explored space):
            # fall back to stratified draws so the budget still spends.
            return self._draw_lhs(index, seen)
        for point in chosen:
            seen.add(point_key(point))
        return chosen

    def _draw_lhs(self, index: int, seen: Set[str]) -> List[Dict]:
        """Seeding rounds: LHS (or the whole grid), minus repeats."""
        space = self.space
        if space.size <= self.batch:
            candidates = list(space.grid())
        else:
            candidates = space.sample(self.batch, seed=self.seed + index)
        fresh = []
        for point in candidates:
            key = point_key(point)
            if key in seen:
                continue
            seen.add(key)
            fresh.append(point)
        return fresh

    def _split(
        self, history: Sequence[Tuple[Dict, float]]
    ) -> Tuple[List[Dict], List[Dict]]:
        """Good/bad partition of the scored history (good = best gamma)."""
        ranked = sorted(history, key=lambda pair: pair[1])
        count = max(1, math.ceil(len(ranked) * self.gamma))
        count = min(count, len(ranked) - 1)  # keep "bad" non-empty
        good = [point for point, _ in ranked[:count]]
        bad = [point for point, _ in ranked[count:]]
        return good, bad

    def _fit(
        self, good: Sequence[Dict], bad: Sequence[Dict]
    ) -> Tuple[List[np.ndarray], List[np.ndarray]]:
        """Per-axis smoothed densities -> (log l/g ratios, l densities)."""
        log_ratios = []
        densities = []
        for axis in self.space.axes:
            good_counts = self._counts(axis, good)
            bad_counts = self._counts(axis, bad)
            l_density = (good_counts + self.smoothing) / (
                good_counts.sum() + self.smoothing * len(axis)
            )
            g_density = (bad_counts + self.smoothing) / (
                bad_counts.sum() + self.smoothing * len(axis)
            )
            log_ratios.append(np.log(l_density) - np.log(g_density))
            densities.append(l_density)
        return log_ratios, densities

    @staticmethod
    def _index_map(axis: Axis) -> Dict:
        """Plain value -> axis position (first occurrence wins)."""
        index_of: Dict = {}
        for i, value in enumerate(axis.values):
            index_of.setdefault(plain_value(value), i)
        return index_of

    def _counts(self, axis: Axis, points: Sequence[Dict]) -> np.ndarray:
        """Occurrence histogram of an axis's values over points."""
        index_of = self._index_map(axis)
        counts = np.zeros(len(axis), dtype=float)
        for point in points:
            if axis.name not in point:
                continue
            position = index_of.get(plain_value(point[axis.name]))
            if position is not None:
                counts[position] += 1.0
        return counts

    def _candidate_pool(
        self, index: int, good_density: Sequence[np.ndarray]
    ) -> List[Dict]:
        """Candidates to rank: the grid when small, else draws from l."""
        space = self.space
        if space.size <= self.candidates:
            return list(space.grid())
        rng = np.random.default_rng((self.seed, index))
        columns = []
        for axis, density in zip(space.axes, good_density):
            indices = rng.choice(len(axis), size=self.candidates, p=density)
            columns.append([axis.values[i] for i in indices])
        names = [axis.name for axis in space.axes]
        return [dict(zip(names, row)) for row in zip(*columns)]

    def _acquisition(
        self,
        point: Dict,
        log_ratio: Sequence[np.ndarray],
        index_maps: Sequence[Dict],
    ) -> float:
        """sum_axis log l(v)/g(v) of one candidate (higher = better)."""
        total = 0.0
        for axis, ratios, index_of in zip(
            self.space.axes, log_ratio, index_maps
        ):
            position = index_of.get(plain_value(point[axis.name]))
            if position is not None:
                total += float(ratios[position])
        return total


def evaluations_to_target(
    trace: AdaptiveTrace, target: float
) -> Optional[int]:
    """Evaluations spent when the running best first reached ``target``.

    Walks the trace in evaluation order and returns the 1-based count
    of the first point whose score is <= ``target`` (None if the run
    never got there) — the budget-efficiency metric the sampler bench
    and the beats-LHS test compare across samplers.
    """
    spent = 0
    for round_record in trace.rounds:
        for point, score in zip(round_record.points, round_record.scores):
            spent += 1
            if score is not None and math.isfinite(score) and score <= target:
                return spent
    return None
