"""Edge branches of the error-rate and Monte-Carlo kernels.

Unit tests for paths the campaign-level suites do not reach: stuck
(non-switching) cells through both the vectorised and scalar-reference
WER kernels, margin-solver input validation, the read-margin solve,
unreachable targets on both solver paths, the Newton safeguards, and
the stuck-bit cap inside the scalar write reduction.
"""

import math

import numpy as np
import pytest

from repro.nvsim import MemoryConfig
from repro.pdk import ProcessDesignKit
from repro.vaet import VAETSTT
from repro.vaet.error_rates import (
    ErrorRateAnalysis,
    UnreachableTargetError,
    newton_log_root,
)
from repro.vaet.explorer import DesignConstraints, DesignSpaceExplorer
from repro.vaet.variation_model import SCALAR_REFERENCE_ENV, VariationModel

POPULATION = 200


@pytest.fixture(scope="module")
def tool():
    return VAETSTT(ProcessDesignKit.for_node(45), MemoryConfig(word_bits=16))


@pytest.fixture(scope="module")
def analysis(tool):
    return ErrorRateAnalysis(tool.engine, population=POPULATION, seed=11)


class TestStuckCells:
    STUCK = 3

    @pytest.fixture
    def stuck(self, tool, monkeypatch):
        # Force a handful of non-switching cells: the sampled 45 nm
        # population is healthy, but the stuck branch must still count
        # each such cell at WER 1 in both kernels.
        original = VariationModel.switching_rates

        def switching_rates(model, cells):
            rates = original(model, cells).copy()
            rates[: self.STUCK] = 0.0
            return rates

        monkeypatch.setattr(VariationModel, "switching_rates", switching_rates)
        analysis = ErrorRateAnalysis(tool.engine, population=POPULATION, seed=11)
        assert analysis.kernel.stuck_count == self.STUCK
        return analysis

    def test_scalar_matches_vector_with_stuck_cells(self, stuck, monkeypatch):
        monkeypatch.delenv(SCALAR_REFERENCE_ENV, raising=False)
        fast = stuck.mean_cell_wer(20e-9)
        monkeypatch.setenv(SCALAR_REFERENCE_ENV, "1")
        reference = stuck.mean_cell_wer(20e-9)
        assert fast == pytest.approx(reference, rel=1e-12)
        assert fast >= self.STUCK / POPULATION

    def test_long_pulse_floors_at_stuck_fraction(self, stuck):
        # Healthy cells decay to ~0 WER at a millisecond pulse; only
        # the stuck cells remain, each contributing exactly 1.
        assert stuck.mean_cell_wer(1e-3) == pytest.approx(
            self.STUCK / POPULATION, rel=1e-6
        )


class TestMarginValidation:
    @pytest.mark.parametrize("target", [0.0, 1.0, -0.5, 2.0])
    def test_write_margin_rejects_bad_target(self, analysis, target):
        with pytest.raises(ValueError, match="WER target"):
            analysis.write_margin(target)

    @pytest.mark.parametrize("target", [0.0, 1.0, -0.5, 2.0])
    def test_read_margin_rejects_bad_target(self, analysis, target):
        with pytest.raises(ValueError, match="RER target"):
            analysis.read_margin(target)


class TestReadMargin:
    def test_solves_the_rer_target(self, analysis):
        result = analysis.read_margin(1e-6)
        assert result.rer_target == 1e-6
        assert 1e-12 <= result.sense_time <= 1e-6
        # brentq runs at xtol 1e-4 in log space; the solved sense time
        # must land the word RER on the target well within that.
        assert analysis.word_rer(result.sense_time) == pytest.approx(
            1e-6, rel=1e-2
        )
        assert result.total_latency > result.sense_time

    def test_word_rer_nonpositive_time_is_certain_error(self, analysis):
        assert analysis.word_rer(0.0) == 1.0
        assert analysis.word_rer(-1e-9) == 1.0


SOLVER_PATHS = pytest.mark.parametrize("scalar", [False, True], ids=["newton", "brentq"])


def _set_path(monkeypatch, scalar):
    if scalar:
        monkeypatch.setenv(SCALAR_REFERENCE_ENV, "1")
    else:
        monkeypatch.delenv(SCALAR_REFERENCE_ENV, raising=False)


def _slow_first_cell(monkeypatch, rate):
    """Give the first sampled cell of every population the switching
    ``rate``: a near-critical cell the stuck-cell floor does not see."""
    original = VariationModel.switching_rates

    def switching_rates(self, cells):
        rates = original(self, cells).copy()
        rates[0] = rate
        return rates

    monkeypatch.setattr(VariationModel, "switching_rates", switching_rates)


def _weak_first_signal(monkeypatch):
    """Starve the first cell's sense signal: no sense time in the bracket
    brings its read error below ~1/2."""
    original = VariationModel.read_signal_currents

    def read_signal_currents(self, cells):
        signals = original(self, cells).copy()
        signals[0] *= 1e-9
        return signals

    monkeypatch.setattr(VariationModel, "read_signal_currents", read_signal_currents)


def _window_rate(analysis, per_bit):
    """A first-cell rate whose WER straddles ``per_bit`` between the
    0.9 s bracket limit and the 1 s floor pulse (other cells ~0 there)."""
    envelope = (math.pi ** 2) * analysis.cells.delta[0] / 4.0
    amplitude = envelope / len(analysis.cells)
    return math.log(amplitude / per_bit) / (2.0 * 0.95)


class TestUnreachableTargets:
    """A target outside the bracket raises one named error on both paths."""

    @SOLVER_PATHS
    def test_write_margin(self, tool, monkeypatch, scalar):
        _slow_first_cell(monkeypatch, 1e3)
        analysis = ErrorRateAnalysis(tool.engine, population=POPULATION, seed=11)
        assert analysis.kernel.stuck_fraction == 0.0
        _set_path(monkeypatch, scalar)
        with pytest.raises(
            UnreachableTargetError,
            match=r"WER target 1\.0e-06 unreachable: outside \[1\.0e-11, 1\.0e-06\] s",
        ):
            analysis.write_margin(1e-6)

    @SOLVER_PATHS
    def test_read_margin(self, tool, monkeypatch, scalar):
        _weak_first_signal(monkeypatch)
        analysis = ErrorRateAnalysis(tool.engine, population=POPULATION, seed=11)
        _set_path(monkeypatch, scalar)
        with pytest.raises(
            UnreachableTargetError,
            match=r"RER target 1\.0e-06 unreachable: outside \[1\.0e-12, 1\.0e-06\] s",
        ):
            analysis.read_margin(1e-6)

    @SOLVER_PATHS
    def test_ecc_inversion(self, tool, monkeypatch, scalar):
        per_bit = 1e-9
        probe = ErrorRateAnalysis(tool.engine, population=POPULATION, seed=11)
        _slow_first_cell(monkeypatch, _window_rate(probe, per_bit))
        analysis = ErrorRateAnalysis(tool.engine, population=POPULATION, seed=11)
        assert analysis.mean_cell_wer(0.9) > per_bit > analysis.mean_cell_wer(1.0)
        _set_path(monkeypatch, scalar)
        from repro.vaet.ecc import ECCAnalysis

        with pytest.raises(
            UnreachableTargetError,
            match=r"per-bit WER 1\.0e-09 unreachable: outside \[5\.0e-12, 9\.0e-01\] s",
        ):
            ECCAnalysis(analysis)._pulse_for_per_bit_wer(per_bit)

    @SOLVER_PATHS
    def test_stuck_floor_is_the_same_error(self, analysis, monkeypatch, scalar):
        _set_path(monkeypatch, scalar)
        monkeypatch.setattr(analysis.kernel, "stuck_fraction", 0.01)
        with pytest.raises(UnreachableTargetError, match="stuck-cell floor"):
            analysis.write_margin(1e-6)


class TestExplorerSkipsUnreachable:
    """``evaluate`` drops an unreachable t, or the point, on both paths."""

    CONFIG = MemoryConfig(word_bits=16)

    def _explorer(self, wer_target=1e-9):
        return DesignSpaceExplorer(
            ProcessDesignKit.for_node(45), self.CONFIG,
            DesignConstraints(wer_target=wer_target, rer_target=1e-6),
            num_words=10, error_population=POPULATION,
        )

    @SOLVER_PATHS
    def test_unreachable_read_target_returns_none(self, monkeypatch, scalar):
        _weak_first_signal(monkeypatch)
        _set_path(monkeypatch, scalar)
        assert self._explorer().evaluate(self.CONFIG, seed=5) is None

    @SOLVER_PATHS
    def test_unreachable_t_is_skipped(self, monkeypatch, scalar):
        from repro.vaet.ecc import bch_parity_bits, per_bit_budget

        # Put the t = 0 per-bit budget in the bracket-edge window: the
        # floor check passes, the inversion cannot, so t = 0 is skipped
        # and a stronger code is chosen.
        bits = self.CONFIG.word_bits
        per_bit = per_bit_budget(bits + bch_parity_bits(bits, 0), 0, 1e-9)
        tool = VAETSTT(
            ProcessDesignKit.for_node(45), self.CONFIG, seed=5,
            error_population=POPULATION,
        )
        _slow_first_cell(monkeypatch, _window_rate(tool.error_rates(), per_bit))
        _set_path(monkeypatch, scalar)
        point = self._explorer().evaluate(self.CONFIG, seed=5)
        assert point is not None and point.ecc_bits > 0


class TestNewtonSafeguards:
    """Branches of :func:`newton_log_root` the physics rarely reaches."""

    @staticmethod
    def _kernel(slope_factor=1.0):
        # log f(x) = -x^3 - x: falls with x, root at log_target = -2 is x = 1.
        def kernel(x):
            return -x ** 3 - x, slope_factor * (-3.0 * x * x - 1.0)

        return kernel

    def test_converges_from_either_side(self):
        for start in (-1.5, 0.0, 3.0):
            root, last = newton_log_root(self._kernel(), -2.0, -2.0, 4.0, start, "f")
            assert root == pytest.approx(1.0, abs=1e-12)
            assert last[0] == pytest.approx(1.0, abs=1e-5)

    def test_wrong_slope_falls_back_to_bisection(self):
        # A slope of the wrong sign is useless: the solve evaluates the
        # missing limit and bisects, and still ends on the root.
        root, _ = newton_log_root(self._kernel(-1.0), -2.0, -2.0, 4.0, 0.0, "f")
        assert root == pytest.approx(1.0, abs=1e-6)

    def test_warm_start_triple_costs_no_pass(self):
        calls = []

        def kernel(x):
            calls.append(x)
            return self._kernel()(x)

        _, last = newton_log_root(kernel, -2.0, -2.0, 4.0, 1.5, "f")
        first = len(calls)
        root, _ = newton_log_root(kernel, -2.5, -2.0, 4.0, last, "f")
        assert root ** 3 + root == pytest.approx(2.5, rel=1e-12)
        assert len(calls) - first <= 3

    def test_limits_raise(self):
        with pytest.raises(UnreachableTargetError, match="f unreachable"):
            newton_log_root(self._kernel(), -100.0, -2.0, 4.0, 0.0, "f")
        with pytest.raises(UnreachableTargetError, match="f unreachable"):
            newton_log_root(self._kernel(), 50.0, -2.0, 4.0, 0.0, "f")

    def test_exact_hit_returns_the_point(self):
        root, _ = newton_log_root(self._kernel(), -2.0, -2.0, 4.0, 1.0, "f")
        assert root == 1.0


class TestScalarWriteReduction:
    def test_stuck_bit_caps_word_latency(self, tool):
        engine = tool.engine
        bits = engine.word_bits
        times = np.full(2 * bits, 5e-9)
        times[3] = np.inf  # word 0 contains a stuck bit
        currents = np.full(2 * bits, 50e-6)
        samples = engine._sample_writes_scalar(
            times, currents, 2, margin_sigmas=0.0
        )
        assert samples.latency[0] == pytest.approx(
            engine._overhead + 2.0 * 100e-9
        )
        assert samples.latency[1] == pytest.approx(
            engine._overhead + 2.0 * 5e-9
        )
        assert np.all(np.isfinite(samples.energy))
        np.testing.assert_array_equal(samples.cell_times, times)

    def test_matches_vector_reduction_on_stuck_words(self, tool, monkeypatch):
        # The vectorised sample_writes caps stuck words at the same
        # 100 ns window; drive both reductions from identical per-cell
        # samples by pinning the RNG seed.
        monkeypatch.delenv(SCALAR_REFERENCE_ENV, raising=False)
        vector = tool.engine.sample_writes(np.random.default_rng(3), 40)
        monkeypatch.setenv(SCALAR_REFERENCE_ENV, "1")
        reference = tool.engine.sample_writes(np.random.default_rng(3), 40)
        np.testing.assert_allclose(
            vector.latency, reference.latency, rtol=1e-12
        )
