"""Multi-objective frontier extraction with dominance ranking.

Design-space exploration rarely has a single winner: the paper's own
sweeps trade write latency against ECC storage, area against energy,
system speedup against macro reliability.  This module extracts the
non-dominated set (rank 0) and iteratively peels deeper fronts, over
plain result dicts keyed by objective name.

Dominance is the standard Pareto relation: ``a`` dominates ``b`` when it
is no worse on every objective and strictly better on at least one.
Ties on every objective dominate in neither direction, so duplicated
points share a front.
"""

from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

#: An objective: a key (minimised by default) or a (key, sense) pair
#: with sense "min" or "max".
ObjectiveSpec = Union[str, Tuple[str, str]]


@dataclass(frozen=True)
class Objective:
    """One optimisation direction.

    Attributes:
        key: Field name in the record dict.
        maximize: True to prefer larger values.
    """

    key: str
    maximize: bool = False

    @classmethod
    def parse(cls, spec: ObjectiveSpec) -> "Objective":
        """Normalise ``"latency"`` / ``("area", "min")`` / Objective."""
        if isinstance(spec, Objective):
            return spec
        if isinstance(spec, str):
            return cls(spec)
        key, sense = spec
        if sense not in ("min", "max"):
            raise ValueError("objective sense must be 'min' or 'max', got %r" % sense)
        return cls(key, maximize=(sense == "max"))


def _values(record: Mapping, objectives: Sequence[Objective]) -> List[float]:
    """Objective vector of one record, sign-normalised to minimisation.

    Raises:
        KeyError: If the record lacks an objective key.
    """
    out = []
    for objective in objectives:
        value = float(record[objective.key])
        out.append(-value if objective.maximize else value)
    return out


def _vector_dominates(va: Sequence[float], vb: Sequence[float]) -> bool:
    """Dominance on sign-normalised (minimisation) objective vectors."""
    return all(x <= y for x, y in zip(va, vb)) and any(
        x < y for x, y in zip(va, vb)
    )


def dominates(
    a: Mapping, b: Mapping, objectives: Sequence[ObjectiveSpec]
) -> bool:
    """True if ``a`` Pareto-dominates ``b``."""
    parsed = [Objective.parse(o) for o in objectives]
    return _vector_dominates(_values(a, parsed), _values(b, parsed))


def dominance_ranks(
    records: Sequence[Mapping], objectives: Sequence[ObjectiveSpec]
) -> List[int]:
    """Front index of every record (0 = Pareto-optimal).

    Iterative non-dominated sorting over a precomputed pairwise
    dominance matrix: one vectorised O(n^2 * m) comparison pass, then
    each front peels with a masked any-reduction instead of re-scanning
    ``remaining`` per candidate (the former pure-python loop was
    O(n^2) *per front*, O(n^3) on deep fronts — surrogate campaigns
    rank every round, so deep single-objective batches paid it often).
    """
    parsed = [Objective.parse(o) for o in objectives]
    n = len(records)
    if n == 0:
        return []
    vectors = np.array([_values(record, parsed) for record in records], float)
    # dominates[j, i]: record j dominates record i.  NaN compares false
    # in numpy exactly as in python, so non-finite vectors neither
    # dominate nor are dominated — identical to the scalar reference.
    less_eq = (vectors[:, None, :] <= vectors[None, :, :]).all(axis=2)
    strictly = (vectors[:, None, :] < vectors[None, :, :]).any(axis=2)
    dominated_by = less_eq & strictly
    ranks = np.full(n, -1, dtype=int)
    remaining = np.ones(n, dtype=bool)
    rank = 0
    while remaining.any():
        blocked = (dominated_by & remaining[:, None]).any(axis=0)
        front = remaining & ~blocked
        if not front.any():  # unreachable for a strict partial order
            front = remaining
        ranks[front] = rank
        remaining &= ~front
        rank += 1
    return ranks.tolist()


def _dominance_ranks_reference(
    records: Sequence[Mapping], objectives: Sequence[ObjectiveSpec]
) -> List[int]:
    """Scalar reference for :func:`dominance_ranks` (tests pin equality).

    The original peel loop: re-scan ``remaining`` for every candidate,
    O(n^2) per front.  Kept as the semantic baseline the vectorised
    implementation must reproduce rank-for-rank.
    """
    parsed = [Objective.parse(o) for o in objectives]
    vectors = [_values(record, parsed) for record in records]
    ranks = [-1] * len(records)
    remaining = list(range(len(records)))
    rank = 0
    while remaining:
        front = []
        for i in remaining:
            dominated = any(
                j != i and _vector_dominates(vectors[j], vectors[i])
                for j in remaining
            )
            if not dominated:
                front.append(i)
        for i in front:
            ranks[i] = rank
        front_set = set(front)
        remaining = [i for i in remaining if i not in front_set]
        rank += 1
    return ranks


def update_front(
    front: Sequence[Mapping],
    record: Mapping,
    objectives: Sequence[ObjectiveSpec],
) -> List[Mapping]:
    """Fold one record into a non-dominated archive.

    Returns the new front: ``record`` is dropped if any member
    dominates it, otherwise it joins and evicts the members it
    dominates.  Folding a stream of N records costs O(N * front * m)
    instead of the O(N^2 * m) a per-prefix :func:`pareto_front` would
    pay — the read-side analytics replay samples the front evolution
    of campaigns with 10^4+ completions this way.

    Raises:
        KeyError: If ``record`` lacks an objective key (callers filter
            incomparable records before folding).
    """
    parsed = [Objective.parse(o) for o in objectives]
    vector = _values(record, parsed)
    kept: List[Mapping] = []
    for member in front:
        existing = _values(member, parsed)
        if _vector_dominates(existing, vector):
            return list(front)  # dominated: the archive is unchanged
        if not _vector_dominates(vector, existing):
            kept.append(member)
    kept.append(record)
    return kept


def hypervolume_proxy(
    front: Sequence[Mapping],
    objectives: Sequence[ObjectiveSpec],
    bounds: Mapping[str, Tuple[float, float]],
) -> float:
    """Cheap, deterministic stand-in for dominated hypervolume in [0, 1].

    The largest normalised box any single front member dominates: each
    objective is mapped onto [0, 1] via ``bounds`` (sign-normalised
    ``key -> (best, worst)`` over the whole campaign, so samples taken
    at different times share one scale) and the proxy is
    ``max over front of prod_j (worst_j - v_j) / (worst_j - best_j)``.
    A lower bound on the true hypervolume against the ``worst`` corner
    — monotone non-decreasing as the front improves under fixed
    bounds, which is the property trajectory plots need.  Degenerate
    axes (``best == worst``) contribute a full edge rather than
    poisoning the product with 0/0.
    """
    parsed = [Objective.parse(o) for o in objectives]
    best = 0.0
    for member in front:
        vector = _values(member, parsed)
        volume = 1.0
        for objective, value in zip(parsed, vector):
            lo, hi = bounds[objective.key]
            if hi <= lo:
                continue  # degenerate axis: every point spans it
            edge = (hi - value) / (hi - lo)
            volume *= min(1.0, max(0.0, edge))
        best = max(best, volume)
    return best


def objective_bounds(
    records: Sequence[Mapping], objectives: Sequence[ObjectiveSpec]
) -> Dict[str, Tuple[float, float]]:
    """Sign-normalised ``key -> (best, worst)`` over finite records.

    The fixed normalisation frame for :func:`hypervolume_proxy`:
    computed once over a whole campaign so that front samples taken at
    different completion counts are comparable.  Records lacking an
    objective key (or carrying non-finite values) are skipped.
    """
    parsed = [Objective.parse(o) for o in objectives]
    lows: Dict[str, float] = {}
    highs: Dict[str, float] = {}
    for record in records:
        try:
            vector = _values(record, parsed)
        except (KeyError, TypeError, ValueError):
            continue
        if not all(np.isfinite(vector)):
            continue
        for objective, value in zip(parsed, vector):
            key = objective.key
            lows[key] = min(lows.get(key, value), value)
            highs[key] = max(highs.get(key, value), value)
    return {key: (lows[key], highs[key]) for key in lows}


def pareto_front(
    records: Sequence[Mapping],
    objectives: Sequence[ObjectiveSpec],
    key: Optional[Callable[[Mapping], Mapping]] = None,
) -> List[Mapping]:
    """The non-dominated subset, in input order.

    Args:
        records: Result dicts (or objects indexable by objective key).
        objectives: Objective specs; see :data:`ObjectiveSpec`.
        key: Optional accessor mapping a record to the dict holding the
            objective fields (e.g. ``lambda r: r["point"]``).
    """
    if not records:
        return []
    accessor = key if key is not None else (lambda record: record)
    ranks = dominance_ranks([accessor(r) for r in records], objectives)
    return [record for record, rank in zip(records, ranks) if rank == 0]
