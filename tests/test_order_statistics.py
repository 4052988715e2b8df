"""``repro.utils.mathx.median`` and ``percentile`` against numpy's, bit
for bit.

The evaluation path takes its order statistics from these partition
helpers: the nominal sense signal of the Monte Carlo reads and of the
error population, and the p50/p99 of every distribution summary.  So a
fresh worker never loads ``numpy.ma``, which numpy 2's ``np.median``
and ``np.percentile`` import on first call.  The pins hold on whatever
numpy is installed: the ``vector-equivalence`` CI job runs them on the
oldest and the latest.
"""

import numpy as np
import pytest

from repro.utils.mathx import median, percentile

SIZES = [1, 2, 3, 4, 7, 10, 1500, 4097, 10_001, 200_000]


def _samples(size):
    rng = np.random.default_rng(size)
    spread = np.exp(rng.uniform(-300.0, 300.0, size))
    return (
        rng.standard_normal(size),
        rng.integers(0, 3, size).astype(float),  # ties
        spread,
        -spread,
    )


@pytest.mark.parametrize("size", SIZES)
def test_median_equals_np_median(size):
    for values in _samples(size):
        assert median(values) == float(np.median(values))


@pytest.mark.parametrize("size", SIZES)
def test_percentile_equals_np_percentile(size):
    for values in _samples(size):
        for q in (0.0, 1.0, 25.0, 50.0, 75.0, 99.0, 99.9, 100.0):
            assert percentile(values, q) == float(np.percentile(values, q)), q


def test_median_takes_the_even_pair_mean_as_np_mean_does():
    values = np.array([5.0, 0.2, -1.0, 0.1])
    assert median(values) == float(np.mean([0.1, 0.2])) == float(np.median(values))
    assert median(values) != 0.15


def test_percentile_rounds_from_the_nearer_statistic():
    # numpy interpolates from the upper statistic past the midpoint.
    values = np.array([0.1, 0.7])
    for q in (10.0, 50.0, 60.0, 90.0):
        assert percentile(values, q) == float(np.percentile(values, q)), q


def test_neither_reorders_its_input():
    values = np.random.default_rng(7).standard_normal(501)
    before = values.copy()
    median(values)
    percentile(values, 99.0)
    assert np.array_equal(values, before)
