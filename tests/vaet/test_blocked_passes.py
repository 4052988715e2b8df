"""Blocked population passes (``repro.utils.blocks``).

The Monte Carlo writes and reads and the error population's cell build
run in blocks of ``WRITE_CHUNK`` cells, on helper threads when there is
more than one block and more than one usable CPU.  These tests pin that
no value depends on the blocking or the threads: each pass at several
blocks, on threads and on one CPU, equals the same pass as one block;
the reads' weakest-signal develop time equals the per-cell maximum;
one-block passes start no thread; and no thread outlives its pass.
"""

import sys
import threading
import time

import numpy as np
import pytest

from repro.nvsim import MemoryConfig
from repro.pdk import ProcessDesignKit
from repro.utils import blocks
from repro.vaet import VAETSTT, montecarlo
from repro.vaet.error_rates import KEPT_COLUMNS, ErrorRateAnalysis
from repro.vaet.variation_model import (
    SCALAR_REFERENCE_ENV,
    clear_standard_normals,
    draw_read_blocks,
    standard_normals,
)

SEED = 2018


@pytest.fixture(autouse=True)
def _vectorised(monkeypatch):
    monkeypatch.delenv(SCALAR_REFERENCE_ENV, raising=False)
    clear_standard_normals()
    yield
    clear_standard_normals()


@pytest.fixture(scope="module")
def tool():
    return VAETSTT(ProcessDesignKit.for_node(45), MemoryConfig(word_bits=64))


class _ThreadSpy:
    """Counts the helper threads the passes start."""

    def __init__(self, monkeypatch):
        self.started = 0
        spy = self

        class Thread(threading.Thread):
            def start(self):
                spy.started += 1
                super().start()

        monkeypatch.setattr(blocks.threading, "Thread", Thread)


def _mode(monkeypatch, mode):
    """One block (the whole pass), or 1024-cell blocks on two CPUs
    (threads) or one (inline)."""
    if mode == "whole":
        monkeypatch.setattr(montecarlo, "WRITE_CHUNK", 1 << 30)
        return
    monkeypatch.setattr(montecarlo, "WRITE_CHUNK", 1024)
    cpus = 2 if mode == "threads" else 1
    monkeypatch.setattr(blocks, "usable_cpus", lambda: cpus)


def _writes(tool, words):
    normals, rng = standard_normals(SEED, 4 * words * tool.engine.word_bits)
    samples = tool.engine.writes_from_normals(normals.reshape(4, -1), rng, words)
    return (samples.latency, samples.energy, samples.cell_times,
            rng.bit_generator.state)


def _reads(tool, words):
    rng = np.random.default_rng(SEED)
    samples = tool.engine.reads_from_normals(
        draw_read_blocks(rng, words * tool.engine.word_bits), words
    )
    return samples.latency, samples.energy, samples.signal_currents


def _population(tool, size):
    analysis = ErrorRateAnalysis(tool.engine, population=size, seed=SEED)
    arrays = [analysis.kernel.rates, analysis.kernel.envelope,
              analysis.read_kernel.gain]
    arrays += [getattr(analysis.cells, name) for name in KEPT_COLUMNS]
    scalars = (analysis.mean_inverse_tau, analysis.wer_floor,
               analysis._nominal_signal)
    return arrays, scalars


def _equal(a, b):
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b)
    return a == b


class TestBlockedEqualsWhole:
    @pytest.mark.parametrize("mode", ["threads", "inline"])
    @pytest.mark.parametrize("name, run, size, bits", [
        ("writes", _writes, 70, 64),  # 4480 cells: 5 blocks, the last short
        ("reads", _reads, 70, 64),
        ("population", lambda tool, size: _population(tool, size)[0], 5000, 1),
    ])
    def test_pass_equals_one_block(self, tool, monkeypatch, mode, name, run,
                                   size, bits):
        _mode(monkeypatch, "whole")
        whole = run(tool, size)
        spy = _ThreadSpy(monkeypatch)
        _mode(monkeypatch, mode)
        assert len(montecarlo.word_blocks(size, bits)) >= 2
        blocked = run(tool, size)
        assert (spy.started > 0) == (mode == "threads")
        for ours, theirs in zip(blocked, whole):
            assert _equal(ours, theirs), name

    def test_population_scalars_equal_one_block(self, tool, monkeypatch):
        _mode(monkeypatch, "whole")
        whole = _population(tool, 5001)[1]
        _mode(monkeypatch, "threads")
        assert _population(tool, 5001)[1] == whole

    def test_default_population_on_threads_equals_inline(self, tool,
                                                         monkeypatch):
        """The 200k-cell default population is four blocks."""
        monkeypatch.setattr(blocks, "usable_cpus", lambda: 2)
        assert len(montecarlo.word_blocks(200_000, 1)) == 4
        threaded = _population(tool, 200_000)
        monkeypatch.setattr(blocks, "usable_cpus", lambda: 1)
        inline = _population(tool, 200_000)
        assert threaded[1] == inline[1]
        for ours, theirs in zip(threaded[0], inline[0]):
            assert np.array_equal(ours, theirs)

    def test_one_block_population_starts_no_thread(self, tool, monkeypatch):
        """Reduced effort (10k cells) is one block.  Its kept columns are
        the cells' own arrays: ``test_common_stream.py`` pins them by
        identity."""
        spy = _ThreadSpy(monkeypatch)
        monkeypatch.setattr(blocks, "usable_cpus", lambda: 2)
        assert len(montecarlo.word_blocks(10_000, 1)) == 1
        ErrorRateAnalysis(tool.engine, population=10_000, seed=SEED)
        assert spy.started == 0


class TestWeakestSignal:
    def _per_cell(self, engine, signals):
        develop = engine._develop_times(signals)
        return np.max(develop.reshape(-1, engine.word_bits), axis=1)

    def _weakest(self, engine, signals):
        return np.min(signals.reshape(-1, engine.word_bits), axis=1)

    def test_equals_the_per_cell_maximum(self, tool):
        engine = tool.engine
        rng = np.random.default_rng(SEED)
        signals = np.exp(rng.normal(np.log(2e-6), 0.4, 200 * engine.word_bits))
        # A clamped cell (signal under 1e-9) and ties within a word.
        signals[5] = 1e-12
        signals[70] = -3e-7
        signals[130:140] = signals[129]
        word_develop = engine._word_develop_times(
            signals, self._weakest(engine, signals)
        )
        assert engine._sense_charge(signals) > 0.0
        assert np.array_equal(word_develop, self._per_cell(engine, signals))
        assert word_develop[0] == engine._sense_charge(signals) / 1e-9

    @pytest.mark.parametrize("median_sign", [-1.0, 0.0])
    def test_non_positive_charge_takes_the_per_cell_maximum(self, tool,
                                                            median_sign):
        """With C dV <= 0 the weakest signal is not the slowest cell."""
        engine = tool.engine
        rng = np.random.default_rng(SEED)
        signals = rng.uniform(1e-7, 1e-5, 50 * engine.word_bits)
        signals *= np.where(rng.random(len(signals)) < 0.8, median_sign, 1.0)
        assert not engine._sense_charge(signals) > 0.0
        word_develop = engine._word_develop_times(
            signals, self._weakest(engine, signals)
        )
        assert np.array_equal(word_develop, self._per_cell(engine, signals))


class _SwitchingBlocks:
    """Blocks ``0 .. size - 1`` whose iterator yields the thread inside
    each step, before it advances its position."""

    def __init__(self, size):
        self.size = size

    def __len__(self):
        return self.size

    def __getitem__(self, index):
        if index >= self.size:
            raise IndexError(index)
        time.sleep(0)
        return index


class TestMapBlocks:
    def test_one_block_or_one_cpu_runs_inline(self, monkeypatch):
        spy = _ThreadSpy(monkeypatch)
        seen = []
        blocks.map_blocks(seen.append, [1])
        monkeypatch.setattr(blocks, "usable_cpus", lambda: 1)
        blocks.map_blocks(seen.append, [2, 3])
        assert seen == [1, 2, 3]
        assert spy.started == 0

    def test_blocks_run_on_the_caller_and_a_helper(self, monkeypatch):
        """Two blocks that wait for each other finish only on two
        threads: the caller's and a helper."""
        monkeypatch.setattr(blocks, "usable_cpus", lambda: 2)
        meet = threading.Barrier(2, timeout=30)
        names = []

        def task(_):
            meet.wait()
            names.append(threading.current_thread().name)

        blocks.map_blocks(task, range(2))
        helpers = [n for n in names if n != threading.current_thread().name]
        assert len(names) == 2 and len(helpers) == 1
        assert helpers[0] == "repro-blocks"

    def test_a_failing_block_raises_after_every_block(self, monkeypatch):
        monkeypatch.setattr(blocks, "usable_cpus", lambda: 2)
        done = []

        def task(block):
            if block == 1:
                raise ValueError("block 1")
            done.append(block)

        with pytest.raises(ValueError, match="block 1"):
            blocks.map_blocks(task, range(5))
        assert sorted(done) == [0, 2, 3, 4]

    def test_no_thread_outlives_a_pass(self, monkeypatch):
        """Helpers are joined before a pass returns, failed or not, so a
        fork after it (a deadline child, a fork-started process pool)
        comes from a single-threaded process."""
        monkeypatch.setattr(blocks, "usable_cpus", lambda: 4)
        before = threading.active_count()
        blocks.map_blocks(lambda _: time.sleep(0.01), range(8))
        assert threading.active_count() == before

        def task(block):
            if block == 0:
                raise ValueError("block 0")
            time.sleep(0.01)

        with pytest.raises(ValueError, match="block 0"):
            blocks.map_blocks(task, range(8))
        assert threading.active_count() == before

    def test_an_interrupted_caller_joins_its_helper(self, monkeypatch):
        """An interrupt on the calling thread outside any task (here,
        while it takes a block) still waits for the helper, which
        finishes the pass."""
        monkeypatch.setattr(blocks, "usable_cpus", lambda: 2)
        caller = threading.current_thread()

        class Interrupt(BaseException):
            pass

        class Blocks:
            def __len__(self):
                return 50

            def __getitem__(self, index):
                if index >= 50:
                    raise IndexError(index)
                if index >= 10 and threading.current_thread() is caller:
                    raise Interrupt
                return index

        def task(block):
            time.sleep(0.001)
            seen.append(block)

        seen = []
        before = threading.active_count()
        with pytest.raises(Interrupt):
            blocks.map_blocks(task, Blocks())
        assert threading.active_count() == before
        assert sorted(seen) == list(range(50))

    def test_every_block_runs_once_under_contention(self, monkeypatch):
        """More threads than cores and a short switch interval: the
        shared block iterator still hands out each block exactly once,
        even when taking a block runs Python code between reading and
        advancing the iterator's position."""
        monkeypatch.setattr(blocks, "usable_cpus", lambda: 8)
        seen = []

        def passes():
            for _ in range(20):
                blocks.map_blocks(seen.append, _SwitchingBlocks(200))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            caller = threading.Thread(target=passes)
            caller.start()
            caller.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not caller.is_alive()
        assert sorted(seen) == sorted(list(range(200)) * 20)
