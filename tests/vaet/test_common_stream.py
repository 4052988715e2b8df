"""The process-level stream of standard normals (common random numbers).

Every vectorised cell population reads its variation draws from
``standard_normals(seed, count)``: the first ``count`` standard normals
of ``default_rng(seed)``, drawn once per process.  These tests pin what
makes that exact — numpy's ``normal`` is ``scale * standard_normal`` on
the same stream, and split draws concatenate (and the switching times'
``exponential(scale)`` is ``scale * standard_exponential``) — and the
stream's own
contract: prefixes in any request order, the positioned generator,
read-only views, threads, eviction, clearing, and the scalar reference
never touching it.  The Monte Carlo reads' blocks, held per word-cell
count after the writes' exponentials, are pinned the same way.

Run by the ``vector-equivalence`` CI job on the oldest and latest
numpy, since the identities are numpy's, not ours.
"""

import itertools
import math
import sys
import threading

import numpy as np
import pytest

from repro.nvsim import MemoryConfig
from repro.pdk import ProcessDesignKit
from repro.vaet import VAETSTT
from repro.vaet import error_rates as error_rates_module
from repro.vaet import estimator as estimator_module
from repro.vaet import variation_model
from repro.vaet.distributions import summarize
from repro.vaet.error_rates import ErrorRateAnalysis
from repro.vaet.explorer import (
    DesignConstraints,
    DesignSpaceExplorer,
    clear_physics_memo,
)
from repro.vaet.montecarlo import WRITE_CHUNK
from repro.vaet.variation_model import (
    READ_COUNTS_HELD,
    SCALAR_REFERENCE_ENV,
    VariationModel,
    clear_standard_normals,
    read_blocks,
    standard_normals,
)

SEED = 2018
#: The request sizes of a default-effort campaign: the 200k-cell error
#: population, the 128-bit and the 256-bit Monte Carlo writes.
POPULATION = 4 * 200_000
WRITES_128 = 4 * 1500 * 128
WRITES_256 = 4 * 1500 * 256


@pytest.fixture(autouse=True)
def _fresh_stream(monkeypatch):
    monkeypatch.delenv(SCALAR_REFERENCE_ENV, raising=False)
    clear_standard_normals()
    yield
    clear_standard_normals()


def _reference(seed, count):
    generator = np.random.default_rng(seed)
    return generator.standard_normal(count), generator


@pytest.fixture(scope="module")
def tool():
    return VAETSTT(ProcessDesignKit.for_node(45), MemoryConfig(word_bits=16))


#: The columns the error population keeps past its write-rate pass.
KEPT_COLUMNS = ("delta", "critical_current", "resistance_p", "drive_strength")


def _population(tool, monkeypatch):
    """An error-rate analysis, and the whole population it built before
    dropping the columns no reader takes."""
    built = []
    original = VariationModel.cells_from_normals

    def spy(self, blocks):
        built.append(original(self, blocks))
        return built[-1]

    monkeypatch.setattr(VariationModel, "cells_from_normals", spy)
    analysis = ErrorRateAnalysis(tool.engine, population=3000, seed=SEED)
    monkeypatch.setattr(VariationModel, "cells_from_normals", original)
    (population,) = built
    for name in vars(population):
        kept = getattr(analysis.cells, name)
        if name in KEPT_COLUMNS:
            assert kept is getattr(population, name), name
        else:
            assert kept is None, name
    assert len(analysis.cells) == 3000
    return analysis, population


class TestNumpyIdentities:
    """What the stream's exactness rests on, on the installed numpy."""

    @pytest.mark.parametrize("sigma", [0.156, 0.03, 1.0])
    def test_normal_is_scaled_standard_normal(self, sigma):
        drawn = np.random.default_rng(SEED)
        scaled = np.random.default_rng(SEED)
        assert np.array_equal(
            drawn.normal(0.0, sigma, 5000), sigma * scaled.standard_normal(5000)
        )
        assert drawn.bit_generator.state == scaled.bit_generator.state

    def test_split_draws_concatenate(self):
        split = np.random.default_rng(SEED)
        first, second = split.standard_normal(3000), split.standard_normal(7000)
        whole, generator = _reference(SEED, 10_000)
        assert np.array_equal(np.concatenate((first, second)), whole)
        assert split.bit_generator.state == generator.bit_generator.state

    def test_out_fills_as_a_fresh_draw(self):
        filled = np.empty(4000)
        np.random.default_rng(SEED).standard_normal(out=filled)
        assert np.array_equal(filled, _reference(SEED, 4000)[0])

    @pytest.mark.parametrize("sizes", [
        (WRITE_CHUNK - 1,), (WRITE_CHUNK,), (WRITE_CHUNK + 1,),
        # The chunks of a 1500-word, 128-bit Monte Carlo write.
        (WRITE_CHUNK, WRITE_CHUNK, 1500 * 128 - 2 * WRITE_CHUNK),
    ])
    def test_switching_times_draw_scaled_standard_exponentials(self, tool,
                                                               sizes):
        """``_times_at`` scales ``standard_exponential`` draws in place;
        ``exponential(scale)`` draws the same values from the same
        stream elements, chunk after chunk."""
        ours = np.random.default_rng(SEED)
        theirs = np.random.default_rng(SEED)
        cells = np.random.default_rng(len(sizes))
        for size in sizes:
            delta = cells.uniform(0.5, 90.0, size)
            rates = cells.uniform(-1e8, 1e9, size)
            times = tool.variation._times_at(delta, rates, ours)
            theta = np.sqrt(np.maximum(
                theirs.exponential(1.0 / np.maximum(delta, 1.0)), 1e-12
            ))
            want = np.log(np.maximum(math.pi / 2.0 / theta, 1.0 + 1e-9))
            want = want / np.maximum(rates, 1e-30)
            want[~(rates > 0.0)] = np.inf
            assert np.array_equal(times, want)
        assert ours.bit_generator.state == theirs.bit_generator.state


class TestStream:
    def test_prefixes_in_any_request_order(self):
        for count in (POPULATION, WRITES_128, WRITES_256, WRITES_128):
            normals, _ = standard_normals(SEED, count)
            assert np.array_equal(normals, _reference(SEED, count)[0])
        # Held once, at the longest request.
        assert len(variation_model._STREAM.prefix) == WRITES_256

    @pytest.mark.parametrize("count", [0, 1000, 5000, 2000])
    def test_generator_continues_the_stream(self, count):
        standard_normals(SEED, 4000)  # 1000 and 2000 fall inside it
        _, generator = standard_normals(SEED, count)
        _, fresh = _reference(SEED, count)
        assert generator.bit_generator.state == fresh.bit_generator.state
        assert np.array_equal(generator.standard_normal(50), fresh.standard_normal(50))
        assert np.array_equal(generator.exponential(2.0, 50), fresh.exponential(2.0, 50))

    def test_views_are_read_only(self):
        normals, _ = standard_normals(SEED, 1000)
        assert not normals.flags.writeable
        with pytest.raises(ValueError):
            normals[0] = 0.0
        with pytest.raises(ValueError):
            normals.reshape(4, -1)[1] *= 2.0

    def test_threads_get_correct_prefixes(self):
        counts = (WRITES_128, POPULATION, 30_000, WRITES_128)
        start = threading.Barrier(len(counts))
        results = {}

        def ask(slot, count):
            start.wait()
            normals, generator = standard_normals(SEED, count)
            results[slot] = (normals.copy(), generator.standard_normal(5))

        threads = [
            threading.Thread(target=ask, args=(slot, count))
            for slot, count in enumerate(counts)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for slot, count in enumerate(counts):
            normals, generator = _reference(SEED, count)
            assert np.array_equal(results[slot][0], normals)
            assert np.array_equal(results[slot][1], generator.standard_normal(5))

    def test_a_second_seed_evicts_the_first(self):
        standard_normals(SEED, 50_000)
        normals, _ = standard_normals(SEED + 1, 2000)
        assert np.array_equal(normals, _reference(SEED + 1, 2000)[0])
        assert variation_model._STREAM.seed == SEED + 1
        assert len(variation_model._STREAM.prefix) == 2000
        again, _ = standard_normals(SEED, 3000)
        assert np.array_equal(again, _reference(SEED, 3000)[0])

    def test_clear_physics_memo_empties_the_stream(self):
        standard_normals(SEED, 2000)
        clear_physics_memo()
        assert variation_model._STREAM.seed is None
        assert len(variation_model._STREAM.prefix) == 0


class TestConsumers:
    def test_draws_equal_one_normal_call_per_source(self, tool):
        """The cells' draws, against one ``rng.normal(0, sigma, n)`` per
        source in stream order."""
        variation, n = tool.variation, 3000
        mtj = variation.pdk.variation.mtj
        rng = np.random.default_rng(SEED)
        diameter = variation._d0 * np.maximum(
            0.3, 1.0 + rng.normal(0.0, mtj.diameter_sigma_rel, n)
        )
        area = math.pi * (diameter / 2.0) ** 2
        ra_sigma = mtj.ra_thickness_sensitivity * mtj.mgo_thickness_sigma_rel
        r_p = variation._ra * np.exp(rng.normal(0.0, ra_sigma, n)) / area
        tmr = variation._tmr_nominal * np.maximum(
            0.2, 1.0 + rng.normal(0.0, mtj.tmr_sigma_rel, n)
        )
        strength = np.maximum(
            0.3, 1.0 + rng.normal(0.0, variation._strength_sigma, n)
        )
        normals, _ = standard_normals(SEED, 4 * n)
        drawn = variation._draw_cells(normals.reshape(4, -1))
        for new, old in zip(drawn, (diameter, r_p, tmr, strength)):
            assert np.array_equal(new, old)

    def test_population_equals_the_generator_draw(self, tool, monkeypatch):
        _, stream = _population(tool, monkeypatch)
        drawn = tool.variation.sample_cells(np.random.default_rng(SEED), 3000)
        for name in vars(drawn):
            assert np.array_equal(getattr(stream, name), getattr(drawn, name)), name

    def test_a_population_inside_the_prefix_draws_nothing(
        self, tool, monkeypatch
    ):
        """The population discards the generator, so a count inside the
        held prefix (the 256-bit writes come first) is a view: no second
        draw to learn the state there."""
        standard_normals(SEED, 4 * 6000)
        generators = []
        default_rng = np.random.default_rng

        def spy(*args, **kwargs):
            generators.append(args)
            return default_rng(*args, **kwargs)

        monkeypatch.setattr(np.random, "default_rng", spy)
        _, stream = _population(tool, monkeypatch)
        assert generators == []
        assert 4 * 3000 not in variation_model._STREAM.states
        drawn = tool.variation.sample_cells(default_rng(SEED), 3000)
        for name in vars(drawn):
            assert np.array_equal(getattr(stream, name), getattr(drawn, name)), name

    def test_estimate_equals_the_generator_draw(self, tool):
        estimate = tool.estimate(num_words=60, seed=SEED)
        rng = np.random.default_rng(SEED)
        writes = tool.engine.sample_writes(rng, 60)
        reads = tool.engine.sample_reads(rng, 60)
        assert estimate.write_latency == summarize(writes.latency)
        assert estimate.write_energy == summarize(writes.energy)
        assert estimate.read_latency == summarize(reads.latency)
        assert estimate.read_energy == summarize(reads.energy)

    def test_scalar_reference_never_touches_the_stream(self, tool, monkeypatch):
        calls = []

        def spy(seed, count):
            calls.append(count)
            return standard_normals(seed, count)

        monkeypatch.setattr(estimator_module, "standard_normals", spy)
        monkeypatch.setattr(
            error_rates_module, "normals_prefix", lambda *a: spy(*a)[0]
        )
        monkeypatch.setattr(
            estimator_module, "read_blocks", lambda *a: calls.append(a)
        )
        monkeypatch.setenv(SCALAR_REFERENCE_ENV, "1")
        tool.estimate(num_words=5, seed=SEED)
        ErrorRateAnalysis(tool.engine, population=200, seed=SEED)
        assert calls == []
        assert variation_model._STREAM.seed is None
        assert not variation_model._STREAM.reads

    def test_a_grid_draws_the_population_once(self, monkeypatch):
        """One seed over 45/65 nm x 2 subarray heights: every point's
        writes and population are views of one shared draw."""
        served = []

        def spy(seed, count):
            normals, generator = standard_normals(seed, count)
            served.append((count, normals))
            return normals, generator

        monkeypatch.setattr(estimator_module, "standard_normals", spy)
        monkeypatch.setattr(
            error_rates_module, "normals_prefix", lambda *a: spy(*a)[0]
        )
        population = 2000
        grid = [
            (node, MemoryConfig(word_bits=16, subarray_rows=rows))
            for node in (45, 65) for rows in (128, 256)
        ]

        def points(clear):
            results = []
            for node, config in grid:
                if clear:
                    clear_physics_memo()
                explorer = DesignSpaceExplorer(
                    ProcessDesignKit.for_node(node), config,
                    DesignConstraints(wer_target=1e-9, rer_target=1e-9),
                    num_words=20, error_population=population,
                )
                point = explorer.evaluate(config, seed=SEED)
                results.append(None if point is None else point.to_dict())
            return results

        clear_physics_memo()
        shared = points(clear=False)
        populations = [n for count, n in served if count == 4 * population]
        assert len(populations) == len(grid)
        assert all(np.shares_memory(n, populations[0]) for n in populations)
        assert len(variation_model._STREAM.prefix) == 4 * population
        # Sharing the draw changes no output.
        assert shared == points(clear=True)
        assert any(point is not None for point in shared)


def _estimate_tool(node, word_bits):
    return VAETSTT(
        ProcessDesignKit.for_node(node), MemoryConfig(word_bits=word_bits)
    )


class TestReadBlocks:
    """The Monte Carlo reads' blocks, held per word-cell count."""

    WORDS = 12

    @pytest.mark.parametrize("node", [45, 65])
    def test_estimate_equals_the_generator_draw(self, node):
        """Word widths interleaved 128 -> 256 -> 128 -> 512: a hit, then
        a third count that evicts the least recent."""
        draws = []
        for word_bits in (128, 256, 128, 512):
            tool = _estimate_tool(node, word_bits)
            held = dict(variation_model._STREAM.reads)
            estimate = tool.estimate(num_words=self.WORDS, seed=SEED)
            size = self.WORDS * word_bits
            draws.append(size not in held)
            if size in held:
                assert variation_model._STREAM.reads[size] is held[size]
            rng = np.random.default_rng(SEED)
            writes = tool.engine.sample_writes(rng, self.WORDS)
            reads = tool.engine.sample_reads(rng, self.WORDS)
            assert estimate.write_latency == summarize(writes.latency)
            assert estimate.write_energy == summarize(writes.energy)
            assert estimate.read_latency == summarize(reads.latency)
            assert estimate.read_energy == summarize(reads.energy)
        assert draws == [True, True, False, True]
        assert READ_COUNTS_HELD == 2
        assert list(variation_model._STREAM.reads) == [
            self.WORDS * 128, self.WORDS * 512,
        ]

    def test_blocks_equal_the_positioned_draw(self, tool):
        size = self.WORDS * 16
        tool.estimate(num_words=self.WORDS, seed=SEED)
        rng = np.random.default_rng(SEED)
        rng.standard_normal(4 * size)
        rng.standard_exponential(size)
        diameter, ra, _, strength = (rng.standard_normal(size) for _ in range(4))
        held = variation_model._STREAM.reads[size]
        assert np.array_equal(held, np.stack((diameter, ra, strength)))
        _, positioned = standard_normals(SEED, 4 * size)
        assert read_blocks(SEED, size, positioned) is held

    def test_blocks_are_read_only(self, tool):
        tool.estimate(num_words=self.WORDS, seed=SEED)
        (blocks,) = variation_model._STREAM.reads.values()
        assert not blocks.flags.writeable
        for row in blocks:
            with pytest.raises(ValueError):
                row[0] = 0.0
        with pytest.raises(ValueError):
            blocks *= 2.0

    def test_a_second_seed_evicts_them(self, tool):
        tool.estimate(num_words=self.WORDS, seed=SEED)
        assert variation_model._STREAM.reads
        standard_normals(SEED + 1, 100)
        assert not variation_model._STREAM.reads
        tool.estimate(num_words=self.WORDS, seed=SEED)
        held = variation_model._STREAM.reads[self.WORDS * 16]
        other = tool.estimate(num_words=self.WORDS, seed=SEED + 1)
        assert list(variation_model._STREAM.reads) == [self.WORDS * 16]
        assert variation_model._STREAM.reads[self.WORDS * 16] is not held
        rng = np.random.default_rng(SEED + 1)
        tool.engine.sample_writes(rng, self.WORDS)
        reads = tool.engine.sample_reads(rng, self.WORDS)
        assert other.read_latency == summarize(reads.latency)

    def test_clear_physics_memo_empties_them(self, tool):
        tool.estimate(num_words=self.WORDS, seed=SEED)
        clear_physics_memo()
        assert not variation_model._STREAM.reads

    def test_a_grid_draws_the_read_blocks_twice(self, monkeypatch):
        """A mem-default-shaped grid of one seed: 3 subarray heights x 2
        word widths x 2 WER targets x 2 nodes.  Its 24 points ask for
        two word-cell counts, so the reads are drawn twice."""
        drawn = []
        original = variation_model.draw_read_blocks

        def spy(rng, size):
            drawn.append(size)
            return original(rng, size)

        monkeypatch.setattr(variation_model, "draw_read_blocks", spy)
        grid = list(itertools.product(
            (128, 256, 512), (128, 256), (1e-9, 1e-12), (45, 65)
        ))
        assert len(grid) == 24
        words = 10

        def points(clear):
            results = []
            for rows, word_bits, wer_target, node in grid:
                if clear:
                    clear_physics_memo()
                config = MemoryConfig(word_bits=word_bits, subarray_rows=rows)
                explorer = DesignSpaceExplorer(
                    ProcessDesignKit.for_node(node), config,
                    DesignConstraints(wer_target=wer_target, rer_target=1e-9),
                    num_words=words, error_population=2000,
                )
                point = explorer.evaluate(config, seed=SEED)
                results.append(None if point is None else point.to_dict())
            return results

        clear_physics_memo()
        shared = points(clear=False)
        assert drawn == [words * 128, words * 256]
        # Holding the reads changes no output.
        assert shared == points(clear=True)
        assert any(point is not None for point in shared)
