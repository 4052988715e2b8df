"""Corner-aware VAET runs and stuck-cell failure injection."""

import dataclasses

import pytest

from repro.nvsim import MemoryConfig
from repro.pdk import CornerName, MagneticCornerName, ProcessDesignKit
from repro.pdk.variation import CMOSVariation, MTJVariation, ProcessVariation
from repro.vaet import VAETSTT


@pytest.fixture(scope="module")
def array():
    return MemoryConfig(
        rows=1024, cols=1024, word_bits=1024, subarray_rows=256, subarray_cols=256
    )


class TestCornersThroughVAET:
    def test_slow_corner_slower_writes(self, array):
        tt = VAETSTT(ProcessDesignKit.for_node(45, cmos_corner=CornerName.TT), array)
        ss = VAETSTT(ProcessDesignKit.for_node(45, cmos_corner=CornerName.SS), array)
        assert (
            ss.nvsim.estimate().write_latency > tt.nvsim.estimate().write_latency
        )

    def test_fast_corner_faster_writes(self, array):
        tt = VAETSTT(ProcessDesignKit.for_node(45, cmos_corner=CornerName.TT), array)
        ff = VAETSTT(ProcessDesignKit.for_node(45, cmos_corner=CornerName.FF), array)
        assert (
            ff.nvsim.estimate().write_latency < tt.nvsim.estimate().write_latency
        )

    def test_high_ra_corner_lowers_write_current(self, array):
        nominal = VAETSTT(ProcessDesignKit.for_node(45), array)
        high_ra = VAETSTT(
            ProcessDesignKit.for_node(
                45, magnetic_corner=MagneticCornerName.HIGH_RA
            ),
            array,
        )
        assert (
            high_ra.nvsim.subarray.write_current()
            < nominal.nvsim.subarray.write_current()
        )

    def test_weak_pma_corner_lowers_delta(self, array):
        nominal = VAETSTT(ProcessDesignKit.for_node(45), array)
        weak = VAETSTT(
            ProcessDesignKit.for_node(
                45, magnetic_corner=MagneticCornerName.WEAK_PMA
            ),
            array,
        )
        d_nominal = nominal.nvsim.subarray._switching.stability.delta
        d_weak = weak.nvsim.subarray._switching.stability.delta
        assert d_weak < d_nominal


class TestStuckCellInjection:
    def _tool_with_mgo_sigma(self, array, mgo_sigma):
        """Stuck cells come from the RA tail: MgO thickness is
        *exponential* in resistance, so a thick-barrier outlier starves
        the write path below I_c0 — CD spread alone cannot do this
        (smaller pillars lose I_c0 as fast as they lose current)."""
        pdk = ProcessDesignKit.for_node(45)
        variation = ProcessVariation(
            cmos=CMOSVariation(k_prime_sigma_rel=0.17),
            mtj=MTJVariation(mgo_thickness_sigma_rel=mgo_sigma),
        )
        return VAETSTT(dataclasses.replace(pdk, variation=variation), array)

    def test_thick_barrier_tail_creates_stuck_floor(self, array):
        """Failure injection: a pathological MgO spread produces cells
        whose delivered current never exceeds I_c0; the WER solve must
        refuse targets below that floor instead of lying."""
        tool = self._tool_with_mgo_sigma(array, 0.06)
        analysis = tool.error_rates()
        stuck_fraction = analysis.kernel.stuck_fraction
        assert stuck_fraction > 0.0
        with pytest.raises(ValueError, match="stuck-cell floor|error correction"):
            analysis.write_margin(stuck_fraction / 100.0)

    def test_healthy_population_has_no_floor(self, array):
        tool = self._tool_with_mgo_sigma(array, 0.005)
        analysis = tool.error_rates()
        assert analysis.kernel.stuck_fraction == 0.0
        margin = analysis.write_margin(1e-12)
        assert margin.pulse_width > 0.0

    def test_word_wer_saturates_at_stuck_floor(self, array):
        tool = self._tool_with_mgo_sigma(array, 0.06)
        analysis = tool.error_rates()
        stuck_fraction = analysis.kernel.stuck_fraction
        # Even an absurdly long pulse cannot beat the stuck population.
        floor = analysis.word_wer(1e-3)
        assert floor >= stuck_fraction
