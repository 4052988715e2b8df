"""Declarative design spaces: named axes, grid and LHS sampling.

The paper's pitch is *pre-fabrication* design-space exploration: sweep
STT-MRAM organisations (VAET-STT, Sec. III) and hybrid-memory system
scenarios (MAGPIE, Sec. IV) before committing silicon.  A
:class:`ParameterSpace` names the axes of such a sweep — PDK node,
:class:`~repro.nvsim.config.MemoryConfig` knobs, reliability targets,
archsim scenarios, workloads — and enumerates points either exhaustively
(:meth:`ParameterSpace.grid`) or by latin-hypercube sampling
(:meth:`ParameterSpace.sample`) when the full grid is too large.

Axes hold *discrete* value lists (every knob in this repository is
discrete: power-of-two shapes, shipped PDK nodes, enum scenarios, target
ladders), so LHS here stratifies the index range of each axis.
"""

import enum
import itertools
from dataclasses import dataclass
from typing import Dict, Iterator, List, Sequence, Tuple

import numpy as np


def plain_value(value):
    """JSON-able form of an axis value (enums by value).

    The single normalisation every consumer shares: grid/LHS points
    carry raw axis values (possibly enums), while points read back from
    a journal, a cache record, or ``canonical_json`` carry the
    serialised plain form.  Comparing through ``plain_value`` makes the
    two interchangeable.
    """
    if isinstance(value, enum.Enum):
        return value.value
    return value


@dataclass(frozen=True)
class Axis:
    """One named dimension of a design space.

    Attributes:
        name: Axis name; campaign builders map it onto a config field
            (e.g. ``subarray_rows``, ``wer_target``, ``node_nm``).
        values: The discrete values the axis can take, in sweep order.
    """

    name: str
    values: Tuple

    def __init__(self, name: str, values: Sequence):
        if not name:
            raise ValueError("axis name must be non-empty")
        values = tuple(values)
        if not values:
            raise ValueError("axis %r has no values" % name)
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        return len(self.values)


class ParameterSpace:
    """An ordered collection of axes.

    Args:
        axes: Axis objects, or ``(name, values)`` pairs.

    Example::

        space = ParameterSpace()
        space.add("subarray_rows", [128, 256, 512])
        space.add("wer_target", [1e-9, 1e-12, 1e-15])
        for point in space.grid():
            ...  # {"subarray_rows": 128, "wer_target": 1e-9}, ...
    """

    def __init__(self, axes: Sequence = ()):
        self.axes: List[Axis] = []
        self._names = set()
        for axis in axes:
            if not isinstance(axis, Axis):
                axis = Axis(*axis)
            self._append(axis)

    def _append(self, axis: Axis) -> None:
        if axis.name in self._names:
            raise ValueError("duplicate axis %r" % axis.name)
        self._names.add(axis.name)
        self.axes.append(axis)

    def add(self, name: str, values: Sequence) -> "ParameterSpace":
        """Append one axis; returns self for chaining."""
        self._append(Axis(name, values))
        return self

    @property
    def size(self) -> int:
        """Cardinality of the full grid."""
        product = 1
        for axis in self.axes:
            product *= len(axis)
        return product

    def grid(self) -> Iterator[Dict[str, object]]:
        """Enumerate the full cartesian grid in axis order."""
        if not self.axes:
            return iter(())
        names = [axis.name for axis in self.axes]
        return (
            dict(zip(names, combo))
            for combo in itertools.product(*(axis.values for axis in self.axes))
        )

    def sample(self, count: int, seed: int = 0) -> List[Dict[str, object]]:
        """Latin-hypercube sample ``count`` points.

        Each axis's index range is cut into ``count`` strata; every
        stratum is visited exactly once per axis, and the per-axis
        visit orders are independently permuted.  Deterministic in
        ``seed``, so sampled campaigns are cache- and re-run-stable.

        Args:
            count: Number of points (may exceed the grid size; strata
                then revisit values).
            seed: RNG seed for the stratum permutations.
        """
        if count <= 0:
            raise ValueError("sample count must be positive")
        if not self.axes:
            return []
        rng = np.random.default_rng(seed)
        columns = []
        for axis in self.axes:
            # Stratified positions in [0, 1): one per sample, shuffled.
            positions = (rng.permutation(count) + rng.random(count)) / count
            indices = np.minimum(
                (positions * len(axis)).astype(int), len(axis) - 1
            )
            columns.append([axis.values[i] for i in indices])
        names = [axis.name for axis in self.axes]
        return [
            dict(zip(names, row)) for row in zip(*columns)
        ]
