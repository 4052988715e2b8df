"""The in-repo Brent solver returns scipy's roots, bit for bit.

:func:`repro.utils.roots.brentq` is a port of scipy's ``brentq.c``, so
that the evaluation path never imports ``scipy.optimize``.  Every case
runs the port where the program calls it, on the program's own function
and bracket, and compares it with ``scipy.optimize.brentq`` by ``==``:
no tolerance.  The error cases must raise the same exception types.

Run by the ``vector-equivalence`` CI job on the oldest and the latest
supported scipy.
"""

import math

import pytest
from scipy import optimize

from repro.core import (
    MSS_FREE_LAYER,
    CrosstalkAnalysis,
    PillarGeometry,
    design_bias_magnets,
    design_sensor_mss,
    diameter_for_retention,
)
from repro.core import bias, crosstalk, thermal
from repro.nvsim import MemoryConfig
from repro.pdk import ProcessDesignKit
from repro.utils import roots
from repro.vaet import VAETSTT, RetentionFaultModel
from repro.vaet import ecc, error_rates, retention_faults
from repro.vaet.ecc import ECCAnalysis, bch_parity_bits, per_bit_budget
from repro.vaet.error_rates import ErrorRateAnalysis, UnreachableTargetError
from repro.vaet.variation_model import SCALAR_REFERENCE_ENV

#: Codewords of 64/128/256-bit words at t = 0..3 (64 to 283 bits).
CODEWORDS = sorted(
    data + bch_parity_bits(data, t) for data in (64, 128, 256) for t in range(4)
)
BLOCK_TARGETS = [10.0 ** -k for k in range(3, 19)]
MARGIN_TARGETS = (1e-6, 1e-9, 1e-12, 1e-15, 1e-18)


def _outcome(solve, f, a, b, kwargs):
    try:
        return solve(f, a, b, **kwargs)
    except (ValueError, RuntimeError) as exc:
        return type(exc)


@pytest.fixture
def pinned(monkeypatch):
    """Route the named modules' ``brentq`` through the port *and* scipy.

    Returns ``pin(*modules)``; each solve asserts that the two agree and
    appends scipy's outcome to the returned list.
    """
    calls = []

    def both(f, a, b, **kwargs):
        expected = _outcome(optimize.brentq, f, a, b, kwargs)
        calls.append(expected)
        try:
            root = roots.brentq(f, a, b, **kwargs)
        except (ValueError, RuntimeError) as exc:
            assert type(exc) is expected
            raise
        assert root == expected
        return root

    def pin(*modules):
        for module in modules:
            monkeypatch.setattr(module, "brentq", both)
        return calls

    return pin


class TestCallSites:
    def test_per_bit_budget_grid(self, pinned):
        calls = pinned(ecc)
        for codeword in CODEWORDS:
            for t in range(5):
                for target in BLOCK_TARGETS:
                    try:
                        per_bit_budget(codeword, t, target)
                    except ValueError:
                        pass  # unreachable at 1e-30, before any solve
        assert len(calls) >= 0.9 * len(CODEWORDS) * 5 * len(BLOCK_TARGETS)
        assert all(isinstance(root, float) for root in calls)

    def test_diameter_for_retention(self, pinned):
        calls = pinned(thermal)
        for years in (0.001, 0.1, 1.0, 10.0, 100.0):
            diameter_for_retention(MSS_FREE_LAYER, years * 3.15576e7)
        for years, probability in ((0.001, 1e-6), (0.01, 1e-6), (10.0, 1e-3)):
            diameter_for_retention(MSS_FREE_LAYER, years * 3.15576e7, probability)
        assert len(calls) == 8

    def test_bias_magnet_gap(self, pinned):
        calls = pinned(bias)
        for field in (2e4, 5e4, 1e5, 2e5):
            design_bias_magnets(field)
        assert len(calls) == 4

    def test_crosstalk_keep_out_distance(self, pinned):
        calls = pinned(crosstalk)
        analysis = CrosstalkAnalysis(
            design_sensor_mss().bias_magnets, MSS_FREE_LAYER,
            PillarGeometry(diameter=45e-9),
        )
        for fraction in (0.5, 0.9, 0.95, 0.99):
            analysis.keep_out_distance(fraction)
        assert len(calls) == 4

    def test_scrub_interval_for_fit(self, pinned):
        calls = pinned(retention_faults)
        config = MemoryConfig(
            rows=1024, cols=1024, word_bits=1024,
            subarray_rows=256, subarray_cols=256,
        )
        tool = VAETSTT(ProcessDesignKit.for_node(45, pillar_diameter=48e-9), config)
        model = RetentionFaultModel(
            tool.error_rates(), ecc_correct_bits=1, screen_quantile=0.001
        )
        for fit in (1.0, 10.0, 100.0):
            model.scrub_interval_for_fit(fit)
        assert calls


class TestScalarReferenceSolves:
    """The ``REPRO_VAET_SCALAR`` margin and ECC solves (brentq_log_root)."""

    @pytest.fixture(scope="class", params=[45, 65], ids=["45nm", "65nm"])
    def analysis(self, request):
        tool = VAETSTT(
            ProcessDesignKit.for_node(request.param), MemoryConfig(word_bits=16)
        )
        return ErrorRateAnalysis(tool.engine, population=2000, seed=7)

    @pytest.fixture
    def calls(self, pinned, monkeypatch):
        monkeypatch.setenv(SCALAR_REFERENCE_ENV, "1")
        return pinned(error_rates)

    @pytest.mark.parametrize("target", MARGIN_TARGETS)
    def test_write_margin(self, analysis, calls, target):
        try:
            analysis.write_margin(target)
        except UnreachableTargetError:
            pass
        assert calls

    @pytest.mark.parametrize("target", MARGIN_TARGETS)
    def test_read_margin(self, analysis, calls, target):
        try:
            analysis.read_margin(target)
        except UnreachableTargetError:
            pass
        assert calls

    def test_ecc_points(self, analysis, calls):
        ECCAnalysis(analysis).sweep(3, 1e-12)
        assert len(calls) >= 4


def _cubic(x):
    return x ** 3 - 2.0 * x - 5.0


class TestErrors:
    def test_same_sign_bracket(self):
        for solve in (roots.brentq, optimize.brentq):
            with pytest.raises(ValueError, match="different signs"):
                solve(_cubic, 3.0, 4.0)

    def test_non_converging_budget(self, monkeypatch):
        monkeypatch.setattr(roots, "MAXITER", 3)
        for solve, kwargs in ((roots.brentq, {}), (optimize.brentq, {"maxiter": 3})):
            with pytest.raises(RuntimeError, match="Failed to converge after 3"):
                solve(_cubic, 2.0, 3.0, **kwargs)
        # One more iteration than needed converges on both.
        budget = 1
        while _outcome(optimize.brentq, _cubic, 2.0, 3.0,
                       {"maxiter": budget}) is RuntimeError:
            budget += 1
        monkeypatch.setattr(roots, "MAXITER", budget)
        assert roots.brentq(_cubic, 2.0, 3.0) == optimize.brentq(
            _cubic, 2.0, 3.0, maxiter=budget
        )
        monkeypatch.setattr(roots, "MAXITER", budget - 1)
        with pytest.raises(RuntimeError):
            roots.brentq(_cubic, 2.0, 3.0)

    def test_exact_zero_at_an_endpoint(self):
        for a, b in ((-1.0, 0.0), (0.0, 2.0), (0.0, -3.0)):
            assert roots.brentq(math.sin, a, b) == optimize.brentq(math.sin, a, b)
        assert roots.brentq(math.sin, 0.0, 2.0) == 0.0
        assert roots.brentq(math.sin, -1.0, 0.0) == 0.0

    def test_nan_is_refused(self):
        # As scipy >= 1.11 does; older scipy iterates on the NaN.
        def hole(x):
            return math.nan if x > 1.0 else x - 1.5

        with pytest.raises(ValueError, match="NaN"):
            roots.brentq(hole, 0.0, 3.0)

    def test_xtol_is_checked(self):
        for solve in (roots.brentq, optimize.brentq):
            with pytest.raises(ValueError, match="too small"):
                solve(_cubic, 2.0, 3.0, xtol=0.0)

    def test_per_bit_budget_unreachable_target(self):
        with pytest.raises(ValueError, match="unreachable"):
            per_bit_budget(64, 0, 1e-40)
