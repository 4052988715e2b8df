"""Small math helpers shared across the library."""

import math

import numpy as np

from repro.utils.normal import ndtri


def clamp(value: float, low: float, high: float) -> float:
    """Clamp ``value`` to the closed interval [low, high]."""
    if low > high:
        raise ValueError("clamp bounds inverted: low=%r high=%r" % (low, high))
    return max(low, min(high, value))


def lerp(a: float, b: float, t: float) -> float:
    """Linear interpolation between ``a`` and ``b`` with weight ``t``."""
    return a + (b - a) * t


def log_interp(x: float, x0: float, x1: float, y0: float, y1: float) -> float:
    """Interpolate ``y(x)`` assuming y is exponential in x (log-linear).

    Useful for interpolating error rates, which span many decades.
    """
    if y0 <= 0.0 or y1 <= 0.0:
        raise ValueError("log_interp requires positive ordinates")
    if x1 == x0:
        return y0
    t = (x - x0) / (x1 - x0)
    return math.exp(math.log(y0) + t * (math.log(y1) - math.log(y0)))


def median(values: np.ndarray) -> float:
    """``np.median`` of a 1-D array without NaNs, to the last bit.

    The same two order statistics by one ``np.partition``: the middle
    element of an odd size, and of an even size the middle pair's mean
    as ``np.mean`` takes it.  numpy 2's ``np.median`` imports
    ``numpy.ma`` on its first call, ~12 ms of a fresh worker's first
    point; this does not.
    """
    middle = len(values) // 2
    part = np.partition(values, [middle - 1, middle])
    if len(values) % 2:
        return float(part[middle])
    return float(np.mean(part[middle - 1:middle + 1]))


def percentile(values: np.ndarray, q: float) -> float:
    """``np.percentile(values, q)`` of a 1-D array without NaNs, to the
    last bit.

    numpy's default linear method: the two order statistics around rank
    ``(n - 1) q / 100``, taken by one ``np.partition``, interpolated
    with numpy's rounding (from the nearer one).  Like ``np.median``,
    numpy 2's ``np.percentile`` imports ``numpy.ma`` on its first call.
    """
    last = len(values) - 1
    rank = last * (q / 100.0)
    if rank >= last:
        return float(np.max(values))
    below = math.floor(rank)
    low, high = (
        float(v) for v in np.partition(values, [below, below + 1])[below:below + 2]
    )
    gap = high - low
    weight = rank - below
    if weight >= 0.5:
        return high - gap * (1.0 - weight)
    return low + gap * weight


def q_function(x: float) -> float:
    """Gaussian tail probability Q(x) = P[N(0,1) > x]."""
    return 0.5 * math.erfc(x / math.sqrt(2.0))


def q_function_inverse(p: float) -> float:
    """Inverse of :func:`q_function`: the sigma multiplier for tail ``p``.

    ``q_function_inverse(1e-15)`` answers "how many sigmas of margin are
    required for a one-in-1e15 failure probability" — the core question
    behind the RER/WER timing-margin analysis of the paper (Fig. 7).
    """
    if not 0.0 < p < 1.0:
        raise ValueError("tail probability must be in (0, 1), got %r" % p)
    return -ndtri(p)


def smooth_step(edge0: float, edge1: float, x: float) -> float:
    """Hermite smooth step between ``edge0`` and ``edge1``.

    Used by behavioural circuit elements to avoid discontinuous
    conductance jumps that would stall the Newton solver.
    """
    if edge0 == edge1:
        return 0.0 if x < edge0 else 1.0
    t = clamp((x - edge0) / (edge1 - edge0), 0.0, 1.0)
    return t * t * (3.0 - 2.0 * t)
