"""The explorer's WER-independent physics memo and population memo.

``DesignSpaceExplorer.evaluate`` keeps the last two WER-independent
records (MC energies, read margin, disturb, error population) and
serves them to sibling points that differ only in
``wer_target``/``max_ecc_bits``.  A miss takes its error population
(an ``ErrorRateAnalysis`` whose cells are released: write and read
kernels, stuck-cell floor, disturb mean 1/tau) from the last two it
built, keyed only by what the population reads, so word-width, column,
``num_words`` and target siblings share one and build their solvers
over it with their own array.  These tests pin the contract of both: a
point's result is a pure function of its spec whatever the evaluation
order, a hit recomputes no physics, every key field forces a miss and
exactly the population fields force a build, solvers over a sibling's
population equal the point's own, the scalar reference route keeps no
records, and both memos stay small and read-only.
"""

import itertools
import sys
import threading
from dataclasses import replace

import numpy as np
import pytest

from repro.nvsim import MemoryConfig
from repro.pdk import ProcessDesignKit
from repro.vaet import explorer as explorer_module
from repro.vaet.ecc import ECCAnalysis
from repro.vaet.error_rates import ErrorRateAnalysis
from repro.vaet.estimator import VAETSTT
from repro.vaet.explorer import (
    PHYSICS_MEMO_ENTRIES,
    DesignConstraints,
    DesignSpaceExplorer,
    clear_physics_memo,
)
from repro.vaet.read_disturb import ReadDisturbAnalysis
from repro.vaet.variation_model import SCALAR_REFERENCE_ENV, VariationModel

CONFIGS = (MemoryConfig(word_bits=16), MemoryConfig(word_bits=16, subarray_rows=128))
WER_TARGETS = (1e-6, 1e-9, 1e-12)
MAX_ECC_BITS = (1, 3)
SEED = 7
EFFORT = dict(num_words=20, error_population=2_000)


def evaluate(config, wer_target=1e-9, max_ecc_bits=3, node=45, seed=SEED,
             rer_target=1e-9, disturb_budget=1e-4, **effort):
    """One point from its spec, through a fresh explorer.

    Config fields may be given on their own (``word_bits=32``); they
    replace those of ``config``.
    """
    fields = {
        name: effort.pop(name) for name in list(effort)
        if name in MemoryConfig.__dataclass_fields__
    }
    config = replace(config, **fields)
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


#: The ``mem-default`` benchmark grid, in its axis order, at reduced
#: effort: 12 physics keys over 6 populations (node x subarray height).
MEM_DEFAULT_GRID = [
    dict(config=MemoryConfig(word_bits=bits, subarray_rows=rows),
         wer_target=wer, node=node)
    for rows, bits, wer, node in itertools.product(
        (128, 256, 512), (128, 256), (1e-9, 1e-12), (45, 65)
    )
]


class TestMemDefaultGrid:
    @pytest.fixture(scope="class")
    def reference(self):
        points = []
        for spec in MEM_DEFAULT_GRID:
            clear_physics_memo()
            points.append(evaluate(**spec))
        assert all(point is not None for point in points)
        return points

    @pytest.mark.parametrize("order", ["forward", "reverse", "interleaved"])
    def test_every_order_gives_the_cleared_memo_points(self, reference, order):
        indices = list(range(len(MEM_DEFAULT_GRID)))
        if order == "reverse":
            indices.reverse()
        elif order == "interleaved":
            half = len(indices) // 2
            indices = [k for pair in zip(indices[:half], indices[half:]) for k in pair]
        results = {k: evaluate(**MEM_DEFAULT_GRID[k]) for k in indices}
        assert [results[k] for k in range(len(MEM_DEFAULT_GRID))] == reference

    def test_a_cold_pass_builds_each_population_once(self, counts):
        for spec in MEM_DEFAULT_GRID:
            evaluate(**spec)
        assert counts == {"population": 6, "estimate": 12}


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

    #: Each physics key field, and the population builds its change
    #: costs: only the fields the population reads force a second one.
    KEY_FIELDS = [
        ("seed", SEED + 1, 2),
        ("num_words", EFFORT["num_words"] + 1, 1),
        ("error_population", EFFORT["error_population"] + 1, 2),
        ("rer_target", 1e-8, 1),
        ("disturb_budget", 1e-3, 1),
        ("config", CONFIGS[1], 2),
        ("node", 65, 2),
    ]

    @pytest.mark.parametrize(
        "field, value", [(field, value) for field, value, _ in KEY_FIELDS]
    )
    def test_every_key_field_forces_a_miss(self, counts, field, value):
        """A physics miss: the point's MC estimate runs again."""
        base = dict(config=CONFIGS[0])
        evaluate(**base)
        evaluate(**dict(base, wer_target=1e-6))
        assert counts["population"] == 1
        evaluate(**dict(base, **{field: value}))
        assert counts["estimate"] == 2

    @pytest.mark.parametrize("field, value, builds", KEY_FIELDS)
    def test_population_fields_force_a_population_build(self, counts, field,
                                                       value, builds):
        base = dict(config=CONFIGS[0])
        evaluate(**base)
        evaluate(**dict(base, wer_target=1e-6))
        assert counts["population"] == 1
        evaluate(**dict(base, **{field: value}))
        assert counts == {"population": builds, "estimate": 2}


def _physics_of(config, node=45, seed=SEED, **effort):
    """The memoised WER-independent record of one spec."""
    constraints = DesignConstraints(wer_target=1e-9, rer_target=1e-9)
    effort = dict(EFFORT, **effort)
    key = (
        ProcessDesignKit.for_node(node), config, seed, effort["num_words"],
        effort["error_population"], constraints.rer_target,
        constraints.disturb_budget,
    )
    return explorer_module._physics_memo[key]


class TestPopulationRecords:
    @pytest.mark.parametrize("field, value, shared", [
        ("word_bits", 32, True),
        ("subarray_cols", 128, True),
        ("num_words", EFFORT["num_words"] + 1, True),
        ("rer_target", 1e-8, True),
        ("disturb_budget", 1e-3, True),
        ("subarray_rows", 128, False),
        ("node", 65, False),
        ("seed", SEED + 1, False),
        ("error_population", EFFORT["error_population"] + 1, False),
    ])
    def test_siblings_share_a_record(self, counts, field, value, shared):
        base = CONFIGS[0]
        first = evaluate(base)
        population = _physics_of(base).population
        second = evaluate(base, **{field: value})
        assert first is not None and second is not None
        assert counts == {"population": 1 if shared else 2, "estimate": 2}
        assert len(explorer_module._population_memo) == (1 if shared else 2)
        records = list(explorer_module._population_memo.values())
        assert (records[-1] is population) == shared
        # Sharing a record changes no output.
        clear_physics_memo()
        assert evaluate(base, **{field: value}) == second

    @pytest.mark.parametrize("field, value", [
        ("word_bits", 32), ("subarray_cols", 128),
    ])
    def test_a_sibling_builds_the_same_population(self, field, value):
        """What the record holds reads nothing of the shared fields."""
        def population(config):
            tool = VAETSTT(ProcessDesignKit.for_node(45), config, seed=SEED,
                           error_population=EFFORT["error_population"])
            analysis = tool.error_rates()
            return analysis, tool.read_disturb()

        (ours, our_disturb), (theirs, their_disturb) = (
            population(CONFIGS[0]),
            population(replace(CONFIGS[0], **{field: value})),
        )
        assert np.array_equal(ours.read_kernel.gain, theirs.read_kernel.gain)
        assert np.array_equal(ours.kernel.rates, theirs.kernel.rates)
        assert np.array_equal(ours.kernel.envelope, theirs.kernel.envelope)
        assert ours.mean_cell_wer(1.0) == theirs.mean_cell_wer(1.0)
        assert our_disturb.mean_inverse_tau == their_disturb.mean_inverse_tau

    def test_sibling_solvers_match_their_own(self):
        """A word-width sibling's solvers, built over the shared
        population with the sibling's array, equal those over its own."""
        def tool(config):
            return VAETSTT(ProcessDesignKit.for_node(45), config, seed=SEED,
                           error_population=EFFORT["error_population"])

        shared = tool(CONFIGS[0]).error_rates()
        sibling = tool(replace(CONFIGS[0], word_bits=32))
        own, engine = sibling.error_rates(), sibling.engine
        for target in (1e-3, 1e-9, 1e-15):
            assert shared.read_margin(target, engine) == own.read_margin(target)
        for budget in (1e-6, 1e-4):
            assert ReadDisturbAnalysis(shared, engine).max_read_period(
                budget
            ) == sibling.read_disturb().max_read_period(budget)
        for target in WER_TARGETS:
            assert ECCAnalysis(shared, engine).sweep(3, target) == ECCAnalysis(
                own
            ).sweep(3, target)


class TestScalarBypass:
    def test_scalar_path_recomputes_a_memoised_spec(self, monkeypatch):
        monkeypatch.delenv(SCALAR_REFERENCE_ENV, raising=False)
        evaluate(CONFIGS[0])
        memo = dict(explorer_module._physics_memo)
        populations = dict(explorer_module._population_memo)
        assert len(memo) == len(populations) == 1
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
        # A word-width sibling builds its population afresh too.
        calls.clear()
        assert evaluate(CONFIGS[0], word_bits=32) is not None
        assert calls
        assert dict(explorer_module._population_memo) == populations


class TestBounds:
    def test_memo_is_bounded_and_read_only(self):
        for seed in range(PHYSICS_MEMO_ENTRIES + 2):
            evaluate(CONFIGS[0], seed=seed)
            assert len(explorer_module._physics_memo) <= PHYSICS_MEMO_ENTRIES
            assert len(explorer_module._population_memo) <= PHYSICS_MEMO_ENTRIES
        assert len(explorer_module._physics_memo) == PHYSICS_MEMO_ENTRIES
        assert len(explorer_module._population_memo) == PHYSICS_MEMO_ENTRIES
        records = list(explorer_module._population_memo.values())
        for physics in explorer_module._physics_memo.values():
            # The physics records point at the memoised populations.
            assert any(physics.population is record for record in records)
        for record in records:
            # A population record holds no cells, and beyond its
            # kernels no per-cell column.
            assert record.cells is None
            assert not [
                name for name, value in vars(record).items()
                if isinstance(value, np.ndarray)
            ]
            kernel = record.kernel
            for array in (kernel.rates, kernel.envelope,
                          record.read_kernel.gain):
                assert not array.flags.writeable
                with pytest.raises(ValueError):
                    array[0] = 0.0
            # One block holds both write-kernel arrays.
            assert kernel.rates.base is kernel.envelope.base

    def test_clear_empties_the_records(self):
        evaluate(CONFIGS[0])
        assert explorer_module._population_memo
        clear_physics_memo()
        assert not explorer_module._population_memo
        assert not explorer_module._physics_memo


class TestThreads:
    def test_concurrent_evaluations_agree_with_a_serial_run(self):
        # Six physics keys over four populations through two-entry
        # memos, from more threads than cores: hits, misses and
        # evictions of both interleave, and word-width siblings share
        # records.  A lookup racing an eviction must neither raise nor
        # serve a wrong record.
        configs = CONFIGS + (replace(CONFIGS[0], word_bits=32),)
        specs = [
            dict(config=config, seed=seed, wer_target=wer)
            for config in configs for seed in (SEED, SEED + 1)
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
        assert len(explorer_module._population_memo) <= PHYSICS_MEMO_ENTRIES
