"""The scipy-free special functions match scipy's.

:mod:`repro.utils.normal` replaces ``scipy.special.ndtr``, ``ndtri``
and ``bdtrc`` on the evaluation path.  Each is pinned here against the
scipy function it replaces, and the read kernel's sorted, blocked form
of Phi against the plain elementwise pass it replaces.

Run by the ``vector-equivalence`` CI job on the oldest and the latest
supported numpy/scipy, since numpy's ``exp`` differs across versions.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from scipy import special

from repro.nvsim import MemoryConfig
from repro.nvsim.subarray import SENSE_MARGIN
from repro.pdk import ProcessDesignKit
from repro.utils import normal
from repro.utils.mathx import median
from repro.vaet import VAETSTT
from repro.vaet import ecc
from repro.vaet.ecc import bch_parity_bits, per_bit_budget
from repro.vaet.error_rates import READ_BLOCK, ErrorRateAnalysis

#: Subnormal results carry fewer than 53 bits, so below the smallest
#: normal double only an absolute bound means anything.
TINY = np.finfo(float).tiny

#: Branch points of Cephes ndtr on ``x = a / sqrt(2)``: erf below
#: 1/sqrt(2), 1 - erf below 1, P/Q below 8, R/S up to underflow.
BRANCH_POINTS = (math.sqrt(0.5), 1.0, 8.0, normal._UNDERFLOW)


def _neighbours(a, count=4):
    """``a`` and ``count`` doubles on either side of it."""
    below, above, out = a, a, [a]
    for _ in range(count):
        below = math.nextafter(below, -math.inf)
        above = math.nextafter(above, math.inf)
        out += [below, above]
    return out


class TestNdtr:
    def test_matches_scipy_over_the_range(self):
        a = np.linspace(-40.0, 40.0, 400_001)
        np.testing.assert_allclose(
            normal.ndtr(a), special.ndtr(a), rtol=1e-13, atol=TINY
        )

    @pytest.mark.parametrize("point", BRANCH_POINTS)
    @pytest.mark.parametrize("sign", [-1.0, 1.0])
    def test_matches_scipy_on_both_sides_of_each_branch(self, point, sign):
        a = np.array(_neighbours(sign * point / normal.SQRT1_2, 8))
        x = np.abs(a * normal.SQRT1_2)
        assert (x < point).any() and (x >= point).any()
        np.testing.assert_allclose(
            normal.ndtr(a), special.ndtr(a), rtol=1e-13, atol=TINY
        )

    def test_edges(self):
        assert math.isnan(normal.ndtr(math.nan))
        assert normal.ndtr(math.inf) == 1.0 and normal.ndtr(-math.inf) == 0.0
        assert normal.ndtr(0.0) == 0.5
        assert normal.ndtr(-38.5) == special.ndtr(-38.5) == 0.0

    def test_keeps_the_shape(self):
        a = np.linspace(-9.0, 9.0, 12).reshape(3, 4)
        assert normal.ndtr(a).shape == (3, 4)
        assert np.ndim(normal.ndtr(1.5)) == 0


class TestNdtri:
    def test_matches_scipy(self):
        for p in np.append(np.logspace(-300, math.log10(0.5), 3000), 0.5):
            assert normal.ndtri(float(p)) == pytest.approx(
                special.ndtri(p), rel=1e-13, abs=0.0
            ), p

    def test_median(self):
        assert normal.ndtri(0.5) == 0.0


#: The codewords of 64/128/256-bit words at t = 0..3 (64 to 283 bits).
CODEWORDS = sorted(
    data + bch_parity_bits(data, t) for data in (64, 128, 256) for t in range(4)
)
BLOCK_TARGETS = [10.0 ** -k for k in range(3, 19)]


class TestBinomSf:
    def test_matches_bdtrc(self):
        # bdtrc's incomplete beta is itself off by up to ~4e-13 against
        # exact rationals on this grid (binom_sf by <1e-15).
        probabilities = np.logspace(-30, -0.01, 61)
        for n in range(64, 284):
            for k in range(5):
                want = special.bdtrc(k, n, probabilities)
                got = [normal.binom_sf(k, n, float(p)) for p in probabilities]
                np.testing.assert_allclose(got, want, rtol=2e-12, atol=0.0,
                                           err_msg="n=%d k=%d" % (n, k))

    @pytest.mark.parametrize("k, n, p", [
        (0, 64, 1e-30), (4, 237, 4.0069513576594035e-30), (2, 150, 3e-4),
        (1, 283, 2e-3), (3, 100, 0.05), (4, 283, 0.5), (0, 128, 0.9),
    ])
    def test_matches_exact_rationals(self, k, n, p):
        q = Fraction(p)
        lower = sum(math.comb(n, j) * q ** j * (1 - q) ** (n - j)
                    for j in range(k + 1))
        assert normal.binom_sf(k, n, p) == pytest.approx(
            float(1 - lower), rel=1e-15, abs=0.0
        )

    def test_edges_match_bdtrc(self):
        for k, n, p in [(0, 64, 0.0), (1, 64, 1.0), (64, 64, 0.3),
                        (64, 64, 1.0), (0, 8, 0.5), (-1, 8, 0.5), (-1, 8, 0.0)]:
            assert normal.binom_sf(k, n, p) == special.bdtrc(k, n, p)
        # bdtrc refuses k > n with NaN; no more than n bits can fail.
        assert normal.binom_sf(70, 64, 0.5) == 0.0

    def test_per_bit_budget_matches_the_bdtrc_path(self, monkeypatch):
        cases = [(n, t, target) for n in CODEWORDS for t in range(5)
                 for target in BLOCK_TARGETS]
        assert len(cases) == 960

        def budgets():
            out = []
            for case in cases:
                try:
                    out.append(per_bit_budget(*case))
                except ValueError:
                    out.append(None)  # unreachable at 1e-30
            return out

        ours = budgets()
        monkeypatch.setattr(ecc, "bdtrc", special.bdtrc)
        theirs = budgets()
        assert [b is None for b in ours] == [b is None for b in theirs]
        for case, got, want in zip(cases, ours, theirs):
            if want is not None:
                assert got == pytest.approx(want, rel=1e-9, abs=0.0), case


def _unsorted_pass(analysis, log_time):
    """The read pass over the cells in draw order, Phi by plain ndtr."""
    sense_time = math.exp(log_time)
    signals = analysis.engine.variation.read_signal_currents(analysis.cells)
    gain = signals / analysis._capacitance_equiv / (SENSE_MARGIN / 3.0)
    scaled = gain * -sense_time
    total = float(normal.ndtr(scaled).sum())
    if total <= 0.0:
        return -math.inf, math.nan
    density = np.exp(-0.5 * scaled * scaled)
    slope = float(np.dot(gain, density)) * sense_time / math.sqrt(2.0 * math.pi)
    return math.log(total / len(gain)), -slope / total


class TestSortedReadPass:
    @pytest.fixture(scope="class", params=[45, 65], ids=["45nm", "65nm"])
    def analysis(self, request):
        tool = VAETSTT(
            ProcessDesignKit.for_node(request.param), MemoryConfig(word_bits=128)
        )
        return ErrorRateAnalysis(tool.engine, population=100_000, seed=11)

    def test_spans_several_blocks(self, analysis):
        gain = analysis.read_kernel.gain
        assert len(gain) > 3 * READ_BLOCK
        assert (np.diff(gain) >= 0.0).all()

    @pytest.mark.parametrize("target", [1e-2, 1e-3, 1e-6, 1e-9, 1e-12, 1e-15, 1e-18])
    def test_matches_the_unsorted_pass(self, analysis, target):
        log_time = math.log(analysis.read_margin(target).sense_time)
        for shift in (-3.0, -1.0, -0.1, 0.0, 0.1, 1.0):
            log_f, slope = analysis.read_kernel.read_pass(log_time + shift)
            want_log_f, want_slope = _unsorted_pass(analysis, log_time + shift)
            assert log_f == pytest.approx(want_log_f, rel=1e-13, abs=0.0)
            assert slope == pytest.approx(want_slope, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("population", [100_000, 100_001])
    def test_one_sort_keeps_median_and_gains(self, population):
        """The median and gains from one sort of the signals equal the
        partition median and the gains sorted after their divisions."""
        tool = VAETSTT(ProcessDesignKit.for_node(45), MemoryConfig(word_bits=128))
        analysis = ErrorRateAnalysis(tool.engine, population=population, seed=11)
        signals = tool.variation.read_signal_currents(analysis.cells)
        nominal = median(signals)
        capacitance = (
            tool.engine.leaf.sense.develop_time * nominal / SENSE_MARGIN
        )
        developed = signals / capacitance
        gain = np.sort(developed / (SENSE_MARGIN / 3.0))
        assert analysis._nominal_signal == nominal
        assert analysis._capacitance_equiv == capacitance
        assert np.array_equal(analysis.read_kernel.gain, gain)

    def test_every_cell_past_underflow(self, analysis):
        log_f, slope = analysis.read_kernel.read_pass(math.log(1e-6))
        assert log_f == -math.inf and math.isnan(slope)
        assert _unsorted_pass(analysis, math.log(1e-6))[0] == -math.inf

