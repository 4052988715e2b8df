"""Scalar-reference vs vectorised VAET-STT kernels (``REPRO_VAET_SCALAR``).

The tentpole guarantee of the batch fast path: the vectorised kernels
in ``variation_model`` / ``montecarlo`` / ``error_rates`` are pinned
against cell-at-a-time reference implementations selected by the
``REPRO_VAET_SCALAR`` environment flag.

Equivalence comes in two strengths, matching what numpy can promise:

* **bit-identical RNG streams** — the scalar reference consumes the
  ``Generator`` stream in exactly the same order and quantity as one
  vectorised draw, so the generator state after sampling is equal and
  the raw draws are the same numbers;
* **last-ulp numerics** — array ufunc loops (SIMD) may round a rare
  element differently than their scalar counterparts, so derived
  columns agree to tight relative tolerance (~1e-13), and word-level
  aggregates (numpy pairwise sums vs ``math.fsum``) to ~1e-12.

The root solves are pinned the same way: Newton on the vectorised
path against the brentq reference on the scalar one, within the 2e-4
relative latency tolerance of the stored campaign reference.  The
block-failure probability (``scipy.special.bdtrc``) is pinned against
``scipy.stats.binom.sf``, which the evaluator used before.

Run by the ``vector-equivalence`` CI job across python/numpy corners.
"""

import math

import numpy as np
import pytest
from scipy import stats

from repro.nvsim import MemoryConfig
from repro.pdk import ProcessDesignKit
from repro.vaet import VAETSTT
from repro.vaet import ecc as ecc_module
from repro.vaet.ecc import ECCAnalysis, bch_parity_bits, block_failure_probability
from repro.vaet.error_rates import ErrorRateAnalysis, UnreachableTargetError
from repro.vaet.explorer import DesignConstraints, DesignSpaceExplorer
from repro.vaet.variation_model import (
    SCALAR_REFERENCE_ENV,
    scalar_reference_enabled,
)

#: Last-ulp tolerance for per-cell derived columns (array-vs-scalar
#: ufunc rounding) and word aggregates (pairwise sum vs fsum).
COLUMN_RTOL = 1e-13
AGGREGATE_RTOL = 1e-12

CELLS = 400
WORDS = 25


@pytest.fixture(scope="module")
def tool():
    # Narrow words keep the scalar (python-loop) reference fast while
    # still exercising word reductions over multiple bits.
    return VAETSTT(ProcessDesignKit.for_node(45), MemoryConfig(word_bits=16))


@pytest.fixture(scope="module")
def analysis(tool):
    return ErrorRateAnalysis(tool.engine, population=CELLS, seed=7)


@pytest.fixture
def scalar_mode(monkeypatch):
    monkeypatch.setenv(SCALAR_REFERENCE_ENV, "1")


def _columns(cells):
    return {
        "diameter": cells.diameter,
        "delta": cells.delta,
        "critical_current": cells.critical_current,
        "resistance_p": cells.resistance_p,
        "resistance_ap_write": cells.resistance_ap_write,
        "drive_strength": cells.drive_strength,
        "rate_prefactor": cells.rate_prefactor,
    }


class TestFlag:
    def test_disabled_by_default(self, monkeypatch):
        monkeypatch.delenv(SCALAR_REFERENCE_ENV, raising=False)
        assert not scalar_reference_enabled()

    def test_zero_and_empty_disable(self, monkeypatch):
        for value in ("", "0"):
            monkeypatch.setenv(SCALAR_REFERENCE_ENV, value)
            assert not scalar_reference_enabled()

    def test_one_enables(self, scalar_mode):
        assert scalar_reference_enabled()


class TestCellSampling:
    def test_rng_streams_bit_identical(self, tool, monkeypatch):
        """Both paths consume exactly the same generator stream."""
        monkeypatch.delenv(SCALAR_REFERENCE_ENV, raising=False)
        rng_vec = np.random.default_rng(11)
        tool.variation.sample_cells(rng_vec, CELLS)
        monkeypatch.setenv(SCALAR_REFERENCE_ENV, "1")
        rng_ref = np.random.default_rng(11)
        tool.variation.sample_cells(rng_ref, CELLS)
        assert rng_vec.bit_generator.state == rng_ref.bit_generator.state
        # And the *next* draws coincide, so downstream sampling stays
        # aligned across the two paths.
        assert rng_vec.standard_normal() == rng_ref.standard_normal()

    def test_cell_columns_agree_to_last_ulp(self, tool, monkeypatch):
        monkeypatch.delenv(SCALAR_REFERENCE_ENV, raising=False)
        vector = tool.variation.sample_cells(np.random.default_rng(12), CELLS)
        monkeypatch.setenv(SCALAR_REFERENCE_ENV, "1")
        reference = tool.variation.sample_cells(np.random.default_rng(12), CELLS)
        for name, column in _columns(vector).items():
            np.testing.assert_allclose(
                column, _columns(reference)[name], rtol=COLUMN_RTOL,
                err_msg="column %s diverged" % name,
            )

    def test_switching_times_agree(self, tool, monkeypatch):
        monkeypatch.delenv(SCALAR_REFERENCE_ENV, raising=False)
        rng = np.random.default_rng(13)
        cells = tool.variation.sample_cells(rng, CELLS)
        vector = tool.variation.sample_switching_times(cells, rng)
        monkeypatch.setenv(SCALAR_REFERENCE_ENV, "1")
        rng = np.random.default_rng(13)
        cells = tool.variation.sample_cells(rng, CELLS)
        reference = tool.variation.sample_switching_times(cells, rng)
        finite = np.isfinite(vector)
        assert np.array_equal(finite, np.isfinite(reference))
        np.testing.assert_allclose(
            vector[finite], reference[finite], rtol=AGGREGATE_RTOL
        )


class TestMonteCarloEngine:
    def _samples(self, tool, monkeypatch, method):
        monkeypatch.delenv(SCALAR_REFERENCE_ENV, raising=False)
        vector = getattr(tool.engine, method)(np.random.default_rng(21), WORDS)
        monkeypatch.setenv(SCALAR_REFERENCE_ENV, "1")
        reference = getattr(tool.engine, method)(np.random.default_rng(21), WORDS)
        return vector, reference

    def test_sample_writes_equivalent(self, tool, monkeypatch):
        vector, reference = self._samples(tool, monkeypatch, "sample_writes")
        np.testing.assert_allclose(
            vector.latency, reference.latency, rtol=AGGREGATE_RTOL
        )
        np.testing.assert_allclose(
            vector.energy, reference.energy, rtol=AGGREGATE_RTOL
        )
        finite = np.isfinite(vector.cell_times)
        assert np.array_equal(finite, np.isfinite(reference.cell_times))
        np.testing.assert_allclose(
            vector.cell_times[finite],
            reference.cell_times[finite],
            rtol=AGGREGATE_RTOL,
        )

    def test_sample_reads_equivalent(self, tool, monkeypatch):
        vector, reference = self._samples(tool, monkeypatch, "sample_reads")
        np.testing.assert_allclose(
            vector.latency, reference.latency, rtol=AGGREGATE_RTOL
        )
        np.testing.assert_allclose(
            vector.energy, reference.energy, rtol=AGGREGATE_RTOL
        )
        np.testing.assert_allclose(
            vector.signal_currents,
            reference.signal_currents,
            rtol=COLUMN_RTOL,
        )


class TestErrorRates:
    PULSES = (2e-9, 5e-9, 12e-9, 40e-9)
    SENSE_TIMES = (0.2e-9, 0.5e-9, 1.5e-9, 4e-9)

    def test_mean_cell_wer_matches_reference(self, analysis, monkeypatch):
        monkeypatch.delenv(SCALAR_REFERENCE_ENV, raising=False)
        fast = [analysis.mean_cell_wer(pulse) for pulse in self.PULSES]
        monkeypatch.setenv(SCALAR_REFERENCE_ENV, "1")
        reference = [analysis.mean_cell_wer(pulse) for pulse in self.PULSES]
        np.testing.assert_allclose(fast, reference, rtol=AGGREGATE_RTOL)
        assert analysis.mean_cell_wer(0.0) == 1.0

    def test_word_wer_matches_reference(self, analysis, monkeypatch):
        monkeypatch.delenv(SCALAR_REFERENCE_ENV, raising=False)
        fast = [analysis.word_wer(pulse) for pulse in self.PULSES]
        monkeypatch.setenv(SCALAR_REFERENCE_ENV, "1")
        reference = [analysis.word_wer(pulse) for pulse in self.PULSES]
        np.testing.assert_allclose(fast, reference, rtol=AGGREGATE_RTOL)

    def test_word_rer_matches_reference(self, analysis, monkeypatch):
        monkeypatch.delenv(SCALAR_REFERENCE_ENV, raising=False)
        fast = [analysis.word_rer(t) for t in self.SENSE_TIMES]
        monkeypatch.setenv(SCALAR_REFERENCE_ENV, "1")
        reference = [analysis.word_rer(t) for t in self.SENSE_TIMES]
        np.testing.assert_allclose(fast, reference, rtol=AGGREGATE_RTOL)

    def test_margin_solves_agree(self, analysis, monkeypatch):
        """The margin solves land on the same pulse both ways."""
        monkeypatch.delenv(SCALAR_REFERENCE_ENV, raising=False)
        fast = analysis.write_margin(1e-6)
        monkeypatch.setenv(SCALAR_REFERENCE_ENV, "1")
        reference = analysis.write_margin(1e-6)
        # brentq xtol 1e-4 in log space bounds the solver spread.
        assert fast.pulse_width == pytest.approx(
            reference.pulse_width, rel=1e-3
        )
        assert math.isfinite(fast.total_latency)


#: Newton lands ~1e-12 from the root, brentq within xtol=1e-4 on the
#: log axis: the stored campaign reference allows 2e-4 on latencies.
SOLVER_RTOL = 2e-4
TARGETS = (1e-6, 1e-9, 1e-12, 1e-15, 1e-18)


def _solve(fn):
    try:
        return fn()
    except UnreachableTargetError as error:
        return error


class TestSolverAgreement:
    """Newton (vectorised) vs brentq (``REPRO_VAET_SCALAR``) root solves."""

    @pytest.fixture(scope="class", params=[45, 65], ids=["45nm", "65nm"])
    def node_analysis(self, request):
        tool = VAETSTT(
            ProcessDesignKit.for_node(request.param), MemoryConfig(word_bits=16)
        )
        return ErrorRateAnalysis(tool.engine, population=CELLS, seed=7)

    def _both(self, monkeypatch, solve):
        monkeypatch.delenv(SCALAR_REFERENCE_ENV, raising=False)
        newton = _solve(solve)
        monkeypatch.setenv(SCALAR_REFERENCE_ENV, "1")
        brentq = _solve(solve)
        if isinstance(brentq, Exception) or isinstance(newton, Exception):
            assert str(newton) == str(brentq)
            return None, None
        return newton, brentq

    @pytest.mark.parametrize("target", TARGETS)
    def test_write_margin(self, node_analysis, monkeypatch, target):
        newton, brentq = self._both(
            monkeypatch, lambda: node_analysis.write_margin(target)
        )
        assert newton is not None
        assert newton.pulse_width == pytest.approx(brentq.pulse_width, rel=SOLVER_RTOL)
        assert math.isfinite(newton.total_latency)

    @pytest.mark.parametrize("target", TARGETS)
    def test_read_margin(self, node_analysis, monkeypatch, target):
        newton, brentq = self._both(
            monkeypatch, lambda: node_analysis.read_margin(target)
        )
        assert newton is not None
        assert newton.sense_time == pytest.approx(brentq.sense_time, rel=SOLVER_RTOL)

    @pytest.mark.parametrize("target", TARGETS)
    def test_ecc_points(self, node_analysis, monkeypatch, target):
        ecc = ECCAnalysis(node_analysis)
        for t in range(4):
            newton, brentq = self._both(monkeypatch, lambda: ecc.point(t, target))
            assert newton is not None
            assert newton.pulse_width == pytest.approx(
                brentq.pulse_width, rel=SOLVER_RTOL
            )
            assert newton.total_latency == pytest.approx(
                brentq.total_latency, rel=SOLVER_RTOL
            )

    def test_ecc_results_do_not_depend_on_call_order(self, node_analysis, monkeypatch):
        monkeypatch.delenv(SCALAR_REFERENCE_ENV, raising=False)
        ascending = ECCAnalysis(node_analysis).sweep(3, 1e-15)
        descending = ECCAnalysis(node_analysis)
        for t in (3, 2, 1, 0):
            assert descending.point(t, 1e-15).pulse_width == pytest.approx(
                ascending[t].pulse_width, rel=1e-9
            )

    @pytest.mark.parametrize("node", [45, 65])
    def test_explorer_picks_same_ecc_bits(self, monkeypatch, node):
        config = MemoryConfig(word_bits=16)
        explorer = DesignSpaceExplorer(
            ProcessDesignKit.for_node(node), config, DesignConstraints(),
            num_words=WORDS, error_population=CELLS,
        )
        newton, brentq = self._both(
            monkeypatch, lambda: explorer.evaluate(config, seed=3)
        )
        assert newton.ecc_bits == brentq.ecc_bits
        assert newton.write_latency == pytest.approx(
            brentq.write_latency, rel=SOLVER_RTOL
        )
        assert newton.read_latency == pytest.approx(
            brentq.read_latency, rel=SOLVER_RTOL
        )


#: Data widths whose codewords (data + BCH parity, t = 0..3) cover the
#: campaign grids (128/256-bit words), these tests (16) and 64/512.
DATA_BITS = (16, 64, 128, 256, 512)
CORRECT_BITS = (0, 1, 2, 3)


class TestBinomialTail:
    """``bdtrc`` in place of ``scipy.stats.binom.sf`` changes nothing."""

    @pytest.mark.parametrize("data_bits", DATA_BITS)
    def test_block_failure_matches_binom_sf(self, data_bits):
        for t in CORRECT_BITS:
            for correct in CORRECT_BITS:
                n = data_bits + bch_parity_bits(data_bits, t)
                for p in np.logspace(-20, -1, 96):
                    want = stats.binom.sf(correct, n, p)
                    got = block_failure_probability(n, float(p), correct)
                    assert got == pytest.approx(want, rel=1e-12, abs=0.0), (n, p, correct)

    def test_edges_match_binom_sf(self):
        for n, p, correct in [(64, 0.0, 1), (64, 1.0, 1), (64, 0.3, 64),
                              (64, 1.0, 70), (8, 0.5, 0)]:
            assert block_failure_probability(n, p, correct) == pytest.approx(
                stats.binom.sf(correct, n, p), rel=1e-12, abs=0.0
            )

    @pytest.mark.parametrize("node", [45, 65])
    def test_explorer_picks_same_ecc_bits(self, monkeypatch, node):
        config = MemoryConfig(word_bits=128)
        explorer = DesignSpaceExplorer(
            ProcessDesignKit.for_node(node), config, DesignConstraints(),
            num_words=WORDS, error_population=CELLS,
        )
        monkeypatch.delenv(SCALAR_REFERENCE_ENV, raising=False)
        fast = explorer.evaluate(config, seed=3)
        monkeypatch.setattr(ecc_module, "bdtrc", stats.binom.sf)
        before = explorer.evaluate(config, seed=3)
        assert fast.ecc_bits == before.ecc_bits
        assert fast.write_latency == pytest.approx(before.write_latency, rel=1e-9)
