"""Binned population kernels against their per-cell passes.

A :class:`~repro.vaet.error_rates.WriteKernel` or
:class:`~repro.vaet.error_rates.ReadKernel` of a large population
sums its cells' Taylor series per bin and falls back to the per-cell
pass wherever the series' remainder bound is too loose.  These tests
pin the binned passes to the per-cell ones around every ECC and read
root of the ``mem-default`` grid, check where the fallback must take
over, and check that whole grid points come out the same either way.
"""

import math
from dataclasses import replace

import pytest

import repro.vaet.explorer as explorer_module
from repro.nvsim import MemoryConfig
from repro.pdk.kit import ProcessDesignKit
from repro.vaet.ecc import ECCAnalysis
from repro.vaet.error_rates import (
    MomentBins,
    ReadKernel,
    WriteKernel,
)
from repro.vaet.estimator import VAETSTT
from repro.vaet.explorer import (
    DesignConstraints,
    DesignSpaceExplorer,
    clear_physics_memo,
)

SEED = 2018
#: The ``mem-default`` grid (``perfbench/workloads.py``).
ROWS = (128, 256, 512)
WORD_BITS = (128, 256)
WER_TARGETS = (1e-9, 1e-12)
RER_TARGET = DesignConstraints().rer_target
MAX_ECC_BITS = DesignConstraints().max_ecc_bits
SHIFTS = (-3.0, -1.0, -0.3, -0.05, 0.0, 0.05, 0.3, 1.0)
RTOL = 1e-13


def _tool(node, rows, population, word_bits=128):
    config = replace(MemoryConfig(), subarray_rows=rows, word_bits=word_bits)
    return VAETSTT(ProcessDesignKit.for_node(node), config, seed=SEED,
                   error_population=population)


def _roots(node, rows, population):
    """The analysis and every ECC pulse and read sense time the grid
    solves on this population, as log times."""
    analysis = _tool(node, rows, population).error_rates()
    pulses, sense_times = [], []
    for word_bits in WORD_BITS:
        engine = _tool(node, rows, population, word_bits).engine
        for wer in WER_TARGETS:
            ecc = ECCAnalysis(analysis, engine)
            for point in ecc.sweep(MAX_ECC_BITS, wer):
                pulses.append(math.log(point.pulse_width))
        read = analysis.read_margin(RER_TARGET, engine)
        sense_times.append(math.log(read.sense_time))
    return analysis, pulses, sense_times


@pytest.fixture(scope="module", params=[
    (node, rows, population)
    for node in (45, 65) for rows in ROWS for population in (200_000, 100_000)
], ids=lambda p: "%dnm-%drows-%dk" % (p[0], p[1], p[2] // 1000))
def population(request):
    return _roots(*request.param)


def _pin(binned, cell, log_times):
    """Every binned pass equals the per-cell one; returns how many of
    ``log_times`` the bound let through."""
    used = 0
    for log_time in log_times:
        result = binned(math.exp(log_time))
        if result is None:
            continue
        used += 1
        log_f, slope = result
        want_log_f, want_slope = cell(log_time)
        assert log_f == pytest.approx(want_log_f, rel=RTOL, abs=0.0)
        assert slope == pytest.approx(want_slope, rel=RTOL, abs=0.0)
    return used


class TestBinnedPasses:
    def test_write_pass_matches_the_cells(self, population):
        analysis, pulses, _ = population
        kernel = analysis.kernel
        assert kernel.bins is not None
        probes = [root + shift for root in pulses for shift in SHIFTS]
        _pin(kernel._binned_pass, kernel.cell_pass, probes)
        # At every root the bins serve the pass.
        assert _pin(kernel._binned_pass, kernel.cell_pass, pulses) == len(pulses)

    def test_read_pass_matches_the_cells(self, population):
        analysis, _, sense_times = population
        kernel = analysis.read_kernel
        assert kernel.bins is not None
        probes = [root + shift for root in sense_times for shift in SHIFTS]
        _pin(kernel._binned_pass, kernel.cell_pass, probes)
        assert _pin(
            kernel._binned_pass, kernel.cell_pass, sense_times
        ) == len(sense_times)


class _Spy:
    """Counts the per-cell passes of both kernels."""

    def __init__(self, monkeypatch):
        self.calls = []
        for owner in (WriteKernel, ReadKernel):
            original = owner.cell_pass

            def spy(kernel, log_time, original=original, owner=owner):
                self.calls.append((owner.__name__, log_time))
                return original(kernel, log_time)

            monkeypatch.setattr(owner, "cell_pass", spy)


class TestFallback:
    @pytest.fixture(scope="class")
    def analysis(self):
        return _tool(45, 128, 200_000).error_rates()

    @pytest.mark.parametrize("log_pulse", [
        math.log(10e-12),  # write-margin bracket: short end, cells capped
        math.log(1e-6),  # write-margin bracket: long end, all underflow
        math.log(0.9),  # ECC bracket: long end
    ], ids=["write-lo", "write-hi", "ecc-hi"])
    def test_write_bracket_ends_take_the_cells(self, analysis, monkeypatch,
                                               log_pulse):
        kernel = analysis.kernel
        spy = _Spy(monkeypatch)
        kernel.write_pass(log_pulse)
        assert spy.calls == [("WriteKernel", log_pulse)]

    def test_cap_region_takes_the_cells(self, analysis, monkeypatch):
        kernel = analysis.kernel
        # Just short of the pulse at which no cell can reach WER 1.
        log_pulse = math.log(kernel._cap_rate * (1.0 - 1e-9))
        assert kernel._binned_pass(math.exp(log_pulse)) is None
        spy = _Spy(monkeypatch)
        kernel.write_pass(log_pulse)
        assert spy.calls == [("WriteKernel", log_pulse)]

    def test_read_long_end_takes_the_cells(self, analysis, monkeypatch):
        kernel = analysis.read_kernel
        spy = _Spy(monkeypatch)
        log_f, slope = kernel.read_pass(math.log(1e-6))
        assert log_f == -math.inf and math.isnan(slope)
        assert spy.calls == [("ReadKernel", math.log(1e-6))]

    def test_the_solves_near_the_roots_stay_binned(self, analysis,
                                                    monkeypatch):
        spy = _Spy(monkeypatch)
        ecc = ECCAnalysis(analysis)
        ecc.sweep(MAX_ECC_BITS, 1e-12)
        analysis.read_margin(RER_TARGET)
        assert spy.calls == []


class TestSmallPopulations:
    @pytest.mark.parametrize("node", [45, 65])
    def test_a_10k_kernel_holds_no_bins(self, node):
        analysis = _tool(node, 128, 10_000).error_rates()
        assert analysis.kernel.bins is None
        assert analysis.read_kernel.bins is None


def _grid(explorer_of):
    """Every point of the grid: the chosen point and each t's pulse."""
    clear_physics_memo()
    out = {}
    for node in (45, 65):
        for rows in ROWS:
            for word_bits in WORD_BITS:
                for wer in WER_TARGETS:
                    explorer = explorer_of(node, wer)
                    config = replace(explorer.base_config, subarray_rows=rows,
                                     word_bits=word_bits)
                    point = explorer.evaluate(config, seed=SEED)
                    physics = next(reversed(
                        explorer_module._physics_memo.values()
                    ))
                    ecc = ECCAnalysis(physics.population, physics.engine)
                    pulses = [p.pulse_width for p in ecc.sweep(MAX_ECC_BITS, wer)]
                    out[(node, rows, word_bits, wer)] = (point, pulses)
    clear_physics_memo()
    return out


def test_grid_points_equal_the_per_cell_solves(monkeypatch):
    """The reduced-effort ``mem-default`` grid (200 MC words, the default
    200k-cell population) chooses the same ECC strength, with the same
    pulses and latencies to 1e-12, with and without bins."""
    def explorer_of(node, wer):
        return DesignSpaceExplorer(
            ProcessDesignKit.for_node(node), MemoryConfig(),
            DesignConstraints(wer_target=wer), num_words=200,
            error_population=200_000,
        )

    binned = _grid(explorer_of)
    with monkeypatch.context() as patch:
        patch.setattr(MomentBins, "build",
                      classmethod(lambda cls, *args, **kwargs: None))
        cells = _grid(explorer_of)
    assert binned.keys() == cells.keys()
    for key, (point, pulses) in binned.items():
        want, want_pulses = cells[key]
        assert point is not None and want is not None, key
        assert point.ecc_bits == want.ecc_bits, key
        assert point.write_latency == pytest.approx(want.write_latency, rel=1e-12)
        assert point.read_latency == pytest.approx(want.read_latency, rel=1e-12)
        assert replace(point, write_latency=0.0, read_latency=0.0) == replace(
            want, write_latency=0.0, read_latency=0.0
        )
        assert pulses == pytest.approx(want_pulses, rel=1e-12)
