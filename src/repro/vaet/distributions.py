"""Distribution summaries and tail extrapolation.

Monte Carlo gives the body of the latency/energy distributions (the
mu and sigma of Table 1); the error-rate analyses (Figs. 7-8) need
probabilities down to 1e-18, far beyond any feasible sample count.
The standard VAET-STT trick applies: the analytic per-cell WER
envelope is *exponential* in pulse width, so log-tail extrapolation is
exact in form and only the prefactor comes from sampling.
"""

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.utils.mathx import percentile


@dataclass(frozen=True)
class DistributionSummary:
    """First/second-moment summary of a sampled distribution.

    Attributes:
        mean: Sample mean.
        std: Sample standard deviation (ddof=1).
        p50: Median.
        p99: 99th percentile.
        minimum: Smallest sample.
        maximum: Largest sample.
        count: Sample count.
    """

    mean: float
    std: float
    p50: float
    p99: float
    minimum: float
    maximum: float
    count: int


def summarize(samples: Sequence[float]) -> DistributionSummary:
    """Summarise a finite sample set.

    Raises:
        ValueError: On empty input or non-finite samples.
    """
    data = np.asarray(samples, dtype=float)
    if data.size == 0:
        raise ValueError("cannot summarise an empty sample set")
    if not np.all(np.isfinite(data)):
        raise ValueError("samples must be finite (filter non-switching events first)")
    return DistributionSummary(
        mean=float(np.mean(data)),
        std=float(np.std(data, ddof=1)) if data.size > 1 else 0.0,
        p50=percentile(data, 50.0),
        p99=percentile(data, 99.0),
        minimum=float(np.min(data)),
        maximum=float(np.max(data)),
        count=int(data.size),
    )


def exceedance_quantile(samples: np.ndarray, probability: float) -> float:
    """Value t with P(X > t) = probability, extrapolating the tail.

    Within the empirical range the quantile is read directly; beyond it
    the upper tail is fit as log P(X > t) = a - b t (exponential tail,
    the correct form for switching-time maxima) and extrapolated.

    Raises:
        ValueError: If probability is outside (0, 1) or samples empty.
    """
    if not 0.0 < probability < 1.0:
        raise ValueError("probability must be in (0, 1)")
    data = np.sort(np.asarray(samples, dtype=float))
    n = data.size
    if n == 0:
        raise ValueError("no samples")
    if probability >= 1.0 / n:
        return float(np.quantile(data, 1.0 - probability))
    # Fit the top decade of the empirical survival function.
    k = max(10, n // 100)
    tail = data[-k:]
    survival = (np.arange(k, 0, -1)) / n
    slope, intercept = np.polyfit(tail, np.log(survival), 1)
    if slope >= 0.0:
        # Degenerate tail (all ties); fall back to the max plus margin.
        return float(data[-1])
    return float((math.log(probability) - intercept) / slope)
