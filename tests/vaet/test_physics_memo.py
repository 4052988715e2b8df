"""The explorer's WER-independent physics memo.

``DesignSpaceExplorer.evaluate`` keeps the last two WER-independent
records (MC energies, read margin, disturb, stuck-cell floor, write
kernel) and serves them to sibling points that differ only in
``wer_target``/``max_ecc_bits``.  These tests pin its contract: a
point's result is a pure function of its spec whatever the evaluation
order, a hit recomputes no physics, every key field forces a miss, the
scalar reference path bypasses the memo, and the memo stays small and
read-only.
"""

import itertools
import sys
import threading

import pytest

from repro.nvsim import MemoryConfig
from repro.pdk import ProcessDesignKit
from repro.vaet import explorer as explorer_module
from repro.vaet.error_rates import ErrorRateAnalysis
from repro.vaet.estimator import VAETSTT
from repro.vaet.explorer import (
    PHYSICS_MEMO_ENTRIES,
    DesignConstraints,
    DesignSpaceExplorer,
    clear_physics_memo,
)
from repro.vaet.variation_model import SCALAR_REFERENCE_ENV, VariationModel

CONFIGS = (MemoryConfig(word_bits=16), MemoryConfig(word_bits=16, subarray_rows=128))
WER_TARGETS = (1e-6, 1e-9, 1e-12)
MAX_ECC_BITS = (1, 3)
SEED = 7
EFFORT = dict(num_words=20, error_population=2_000)


def evaluate(config, wer_target=1e-9, max_ecc_bits=3, node=45, seed=SEED,
             rer_target=1e-9, disturb_budget=1e-4, **effort):
    """One point from its spec, through a fresh explorer."""
    constraints = DesignConstraints(
        wer_target=wer_target, rer_target=rer_target,
        disturb_budget=disturb_budget, max_ecc_bits=max_ecc_bits,
    )
    explorer = DesignSpaceExplorer(
        ProcessDesignKit.for_node(node), config, constraints,
        **dict(EFFORT, **effort),
    )
    point = explorer.evaluate(config, seed=seed)
    return None if point is None else point.to_dict()


@pytest.fixture
def counts(monkeypatch):
    """Calls of the two physics entry points a hit must skip."""
    calls = {"population": 0, "estimate": 0}

    def counting(owner, attr, name):
        original = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, attr, wrapper)

    counting(ErrorRateAnalysis, "__init__", "population")
    counting(VAETSTT, "estimate", "estimate")
    return calls


GRID = [
    dict(config=config, wer_target=wer, max_ecc_bits=bits)
    for config, wer, bits in itertools.product(CONFIGS, WER_TARGETS, MAX_ECC_BITS)
]


class TestOrderIndependence:
    @pytest.fixture(scope="class")
    def reference(self):
        points = []
        for spec in GRID:
            clear_physics_memo()
            points.append(evaluate(**spec))
        assert any(point is not None for point in points)
        # The ECC axes must matter, or the grid proves nothing.
        assert len({point["ecc_bits"] for point in points if point}) > 1
        return points

    @pytest.mark.parametrize("order", ["forward", "reverse", "interleaved"])
    def test_every_order_gives_the_cleared_memo_points(self, reference, order,
                                                       counts):
        indices = list(range(len(GRID)))
        if order == "reverse":
            indices.reverse()
        elif order == "interleaved":
            half = len(GRID) // 2
            indices = [k for pair in zip(indices[:half], indices[half:]) for k in pair]
        results = {k: evaluate(**GRID[k]) for k in indices}
        assert [results[k] for k in range(len(GRID))] == reference
        # Two configs, so at most two misses when siblings are adjacent
        # or interleaved two ways.
        assert counts["population"] == len(CONFIGS)


class TestHits:
    def test_a_hit_skips_the_physics(self, counts):
        first = evaluate(CONFIGS[0], wer_target=1e-6)
        assert counts == {"population": 1, "estimate": 1}
        second = evaluate(CONFIGS[0], wer_target=1e-12, max_ecc_bits=1)
        assert counts == {"population": 1, "estimate": 1}
        assert first is not None and second is not None
        assert first["write_energy"] == second["write_energy"]
        assert first["read_latency"] == second["read_latency"]

    def test_an_unreachable_read_target_is_a_hit_too(self, counts, monkeypatch):
        # Starve one cell's sense signal: no sense time in the bracket
        # meets the RER target, so the point is infeasible.
        original = VariationModel.read_signal_currents

        def read_signal_currents(self, cells):
            signals = original(self, cells).copy()
            signals[0] *= 1e-9
            return signals

        monkeypatch.setattr(VariationModel, "read_signal_currents", read_signal_currents)
        assert evaluate(CONFIGS[0]) is None
        assert evaluate(CONFIGS[0], wer_target=1e-6) is None
        assert counts["population"] == 1

    @pytest.mark.parametrize("field, value", [
        ("seed", SEED + 1),
        ("num_words", EFFORT["num_words"] + 1),
        ("error_population", EFFORT["error_population"] + 1),
        ("rer_target", 1e-8),
        ("disturb_budget", 1e-3),
        ("config", CONFIGS[1]),
        ("node", 65),
    ])
    def test_every_key_field_forces_a_miss(self, counts, field, value):
        base = dict(config=CONFIGS[0])
        evaluate(**base)
        evaluate(**dict(base, wer_target=1e-6))
        assert counts["population"] == 1
        evaluate(**dict(base, **{field: value}))
        assert counts == {"population": 2, "estimate": 2}


class TestScalarBypass:
    def test_scalar_path_recomputes_a_memoised_spec(self, monkeypatch):
        monkeypatch.delenv(SCALAR_REFERENCE_ENV, raising=False)
        evaluate(CONFIGS[0])
        memo = dict(explorer_module._physics_memo)
        assert len(memo) == 1
        calls = []
        original = ErrorRateAnalysis._mean_cell_wer_scalar

        def counting(self, pulse_width):
            calls.append(pulse_width)
            return original(self, pulse_width)

        monkeypatch.setattr(ErrorRateAnalysis, "_mean_cell_wer_scalar", counting)
        monkeypatch.setenv(SCALAR_REFERENCE_ENV, "1")
        assert evaluate(CONFIGS[0]) is not None
        assert calls
        assert dict(explorer_module._physics_memo) == memo


class TestBounds:
    def test_memo_is_bounded_and_read_only(self):
        for seed in range(PHYSICS_MEMO_ENTRIES + 2):
            evaluate(CONFIGS[0], seed=seed)
            assert len(explorer_module._physics_memo) <= PHYSICS_MEMO_ENTRIES
        assert len(explorer_module._physics_memo) == PHYSICS_MEMO_ENTRIES
        for physics in explorer_module._physics_memo.values():
            kernel = physics.kernel
            for array in (kernel.rates, kernel.envelope):
                assert not array.flags.writeable
                with pytest.raises(ValueError):
                    array[0] = 0.0
            # One block holds both arrays.
            assert kernel.rates.base is kernel.envelope.base


class TestThreads:
    def test_concurrent_evaluations_agree_with_a_serial_run(self):
        # Four physics keys through a two-entry memo, from more threads
        # than cores: hits, misses and evictions interleave.  A lookup
        # racing an eviction must neither raise nor serve a wrong record.
        specs = [
            dict(config=config, seed=seed, wer_target=wer)
            for config in CONFIGS for seed in (SEED, SEED + 1)
            for wer in WER_TARGETS
        ]
        expected = []
        for spec in specs:
            clear_physics_memo()
            expected.append(evaluate(**spec))
        outcomes, errors = {}, []

        def work(offset):
            mine = [None] * len(specs)
            try:
                for k in range(len(specs)):
                    index = (k + offset) % len(specs)
                    mine[index] = evaluate(**specs[index])
            except Exception as exc:  # reported below
                errors.append(exc)
            outcomes[offset] = mine

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=work, args=(offset,))
                for offset in range(0, 4 * len(WER_TARGETS), len(WER_TARGETS))
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(outcomes) == len(threads)
        assert all(mine == expected for mine in outcomes.values())
        assert len(explorer_module._physics_memo) <= PHYSICS_MEMO_ENTRIES
