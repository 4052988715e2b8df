"""Fast seed-threading tests for VAETSTT (kept out of the slow tier).

The heavyweight Table-1 suites carry the ``slow`` marker, so these
small-population checks keep the new seed semantics covered in the
``-m "not slow"`` loop.
"""

import numpy as np
import pytest

from repro.nvsim import MemoryConfig
from repro.pdk import ProcessDesignKit
from repro.vaet import VAETSTT, ErrorRateAnalysis


@pytest.fixture(scope="module")
def tool():
    config = MemoryConfig(
        rows=512, cols=512, word_bits=64, subarray_rows=128, subarray_cols=128
    )
    return VAETSTT(
        ProcessDesignKit.for_node(45), config, error_population=10_000
    )


class TestEstimateSeed:
    def test_default_matches_tool_seed(self, tool):
        a = tool.estimate(num_words=200)
        b = tool.estimate(num_words=200, seed=tool.seed)
        assert a.write_latency.mean == b.write_latency.mean
        assert a.read_energy.mean == b.read_energy.mean

    def test_explicit_seed_reproducible(self, tool):
        a = tool.estimate(num_words=200, seed=7)
        b = tool.estimate(num_words=200, seed=7)
        assert a.write_latency.mean == b.write_latency.mean

    def test_different_seed_different_samples(self, tool):
        a = tool.estimate(num_words=200, seed=7)
        b = tool.estimate(num_words=200, seed=8)
        assert a.write_latency.mean != b.write_latency.mean


class TestErrorRatesSeed:
    def test_default_cached(self, tool):
        assert tool.error_rates() is tool.error_rates()

    def test_cached_per_seed(self, tool):
        """One population per tool: a tool of another seed holds its own."""
        other = VAETSTT(tool.pdk, tool.config, seed=7, error_population=10_000)
        population = other.error_rates()
        assert population is not tool.error_rates()
        assert other.error_rates() is population
        assert other.ecc().analysis is population
        assert other.read_disturb().analysis is population

    def test_tool_seed_aliases_default(self, tool):
        """The tool's population is the one its seed draws."""
        fresh = ErrorRateAnalysis(tool.engine, population=10_000, seed=tool.seed)
        assert np.array_equal(
            fresh.kernel.rates, tool.error_rates().kernel.rates
        )


class TestErrorPopulation:
    def test_population_knob_respected(self, tool):
        assert len(tool.error_rates().cells) == 10_000


class TestEstimateEnergiesPinned:
    """Mean energies are pinned to the last bit: the stored campaign
    reference compares energies exactly, so a sampler rewrite may not
    move them by one ulp."""

    PINNED = {
        (45, 1): (3.036677005911305e-11, 7.360693304805441e-13),
        (45, 2): (3.000426583092575e-11, 7.358545850989231e-13),
        (65, 1): (3.140833699731256e-11, 1.2620192438663967e-12),
        (65, 2): (3.1128405133587094e-11, 1.261844422396533e-12),
    }

    @pytest.mark.parametrize("node,seed", sorted(PINNED))
    def test_energy_means(self, node, seed):
        tool = VAETSTT(ProcessDesignKit.for_node(node), MemoryConfig())
        estimate = tool.estimate(num_words=200, seed=seed)
        write, read = self.PINNED[(node, seed)]
        assert estimate.write_energy.mean == write
        assert estimate.read_energy.mean == read
