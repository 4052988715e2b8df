"""Tests for repro.utils, plus shared fault-injection test helpers.

The helpers at the bottom (:class:`CrashingRunner`, :func:`torn_write`,
:exc:`CampaignKilled`, :func:`run_closed`, and the multi-writer hammers
:func:`hammer_cache` / :func:`spawn_hammers`) simulate the ways a
campaign dies or races in the wild — the process is killed between
points, a write is torn mid-append, and many processes write one cache
concurrently — and are imported by the suites under ``tests/dse``
(``tests/conftest.py`` puts this directory on ``sys.path``).
"""


import pytest
from hypothesis import given, strategies as st

from repro.utils import (
    BOLTZMANN,
    ELEMENTARY_CHARGE,
    GILBERT_GYROMAGNETIC,
    GYROMAGNETIC_RATIO,
    HBAR,
    MU_0,
    ROOM_TEMPERATURE,
    Table,
    clamp,
    db,
    undb,
    from_oersted,
    to_oersted,
    celsius_to_kelvin,
    kelvin_to_celsius,
    lerp,
    log_interp,
    q_function,
    q_function_inverse,
    smooth_step,
)


class TestConstants:
    def test_boltzmann_magnitude(self):
        assert 1.3e-23 < BOLTZMANN < 1.4e-23

    def test_charge_magnitude(self):
        assert 1.6e-19 < ELEMENTARY_CHARGE < 1.61e-19

    def test_hbar_magnitude(self):
        assert 1.05e-34 < HBAR < 1.06e-34

    def test_gilbert_gamma_is_mu0_gamma(self):
        assert GILBERT_GYROMAGNETIC == pytest.approx(MU_0 * GYROMAGNETIC_RATIO)

    def test_room_temperature(self):
        assert ROOM_TEMPERATURE == 300.0

    def test_thermal_energy_at_room_temperature(self):
        # kT at 300 K is the famous 25.85 meV.
        kt_ev = BOLTZMANN * ROOM_TEMPERATURE / ELEMENTARY_CHARGE
        assert kt_ev == pytest.approx(0.02585, rel=1e-3)


class TestUnits:
    def test_one_kilo_oersted(self):
        # 1 kOe = 1000/(4 pi) kA/m ~ 79.6 kA/m.
        assert from_oersted(1000.0) == pytest.approx(79577.47, rel=1e-4)

    def test_oersted_roundtrip(self):
        assert to_oersted(from_oersted(123.4)) == pytest.approx(123.4)

    def test_celsius_kelvin_roundtrip(self):
        assert kelvin_to_celsius(celsius_to_kelvin(85.0)) == pytest.approx(85.0)

    def test_db_of_ten_is_ten(self):
        assert db(10.0) == pytest.approx(10.0)

    def test_undb_roundtrip(self):
        assert undb(db(42.0)) == pytest.approx(42.0)

    def test_db_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            db(0.0)


class TestMathHelpers:
    def test_clamp_inside(self):
        assert clamp(0.5, 0.0, 1.0) == 0.5

    def test_clamp_below_and_above(self):
        assert clamp(-1.0, 0.0, 1.0) == 0.0
        assert clamp(2.0, 0.0, 1.0) == 1.0

    def test_clamp_rejects_inverted_bounds(self):
        with pytest.raises(ValueError):
            clamp(0.5, 1.0, 0.0)

    def test_lerp_endpoints(self):
        assert lerp(2.0, 6.0, 0.0) == 2.0
        assert lerp(2.0, 6.0, 1.0) == 6.0

    def test_log_interp_midpoint_is_geometric_mean(self):
        mid = log_interp(0.5, 0.0, 1.0, 1e-10, 1e-2)
        assert mid == pytest.approx(1e-6, rel=1e-9)

    def test_log_interp_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            log_interp(0.5, 0.0, 1.0, 0.0, 1.0)

    def test_q_function_at_zero(self):
        assert q_function(0.0) == pytest.approx(0.5)

    def test_q_function_three_sigma(self):
        assert q_function(3.0) == pytest.approx(1.3499e-3, rel=1e-3)

    @given(st.floats(min_value=1e-12, max_value=0.4))
    def test_q_function_inverse_roundtrip(self, p):
        assert q_function(q_function_inverse(p)) == pytest.approx(p, rel=1e-6)

    def test_q_function_inverse_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            q_function_inverse(0.0)
        with pytest.raises(ValueError):
            q_function_inverse(1.0)

    def test_smooth_step_edges(self):
        assert smooth_step(0.0, 1.0, -1.0) == 0.0
        assert smooth_step(0.0, 1.0, 2.0) == 1.0
        assert smooth_step(0.0, 1.0, 0.5) == pytest.approx(0.5)

    @given(st.floats(min_value=-10, max_value=10))
    def test_smooth_step_bounded(self, x):
        assert 0.0 <= smooth_step(0.0, 1.0, x) <= 1.0

    def test_smooth_step_degenerate_edges(self):
        assert smooth_step(1.0, 1.0, 0.5) == 0.0
        assert smooth_step(1.0, 1.0, 1.5) == 1.0


class TestTable:
    def test_render_alignment(self):
        table = Table(["a", "bb"])
        table.add_row([1, 2.5])
        text = table.render()
        assert "a" in text and "bb" in text and "2.5" in text

    def test_row_length_mismatch(self):
        table = Table(["a"])
        with pytest.raises(ValueError):
            table.add_row([1, 2])

    def test_title_rendered(self):
        table = Table(["x"], title="hello")
        table.add_row([1])
        assert table.render().splitlines()[0] == "hello"

    def test_float_formatting_compact(self):
        table = Table(["x"])
        table.add_row([1.23456789e-7])
        assert "1.23e-07" in table.render()

    def test_zero_formatting(self):
        table = Table(["x"])
        table.add_row([0.0])
        assert table.rows[0][0] == "0"


# -- fault-injection helpers (shared by tests/dse) ----------------------


class CampaignKilled(Exception):
    """Raised by :class:`CrashingRunner`: stands in for SIGKILL."""


class CrashingRunner:
    """A :class:`~repro.dse.runner.CampaignRunner` that dies mid-stream.

    Wraps a real runner and raises :exc:`CampaignKilled` after
    ``crash_after`` results have been yielded — *after* the consumer
    (checkpoint layer, progress display) has processed them, exactly
    like a kill landing between two journal appends.  Pair with
    :func:`torn_write` to also tear the journal's final line.

    Args:
        runner: The real runner to wrap.
        crash_after: Results to deliver before dying.
    """

    def __init__(self, runner, crash_after=1):
        self.runner = runner
        self.crash_after = int(crash_after)

    def __getattr__(self, name):
        return getattr(self.runner, name)

    def run_iter(self, jobs, progress=None, **kwargs):
        delivered = 0
        for outcome in self.runner.run_iter(jobs, progress=progress, **kwargs):
            yield outcome
            delivered += 1
            if delivered >= self.crash_after:
                raise CampaignKilled(
                    "killed after %d delivered point(s)" % delivered
                )

    def run(self, jobs, progress=None, **kwargs):
        return list(self.run_iter(jobs, progress=progress, **kwargs))


def run_closed(jobs, runner, state, **kwargs):
    """``run_checkpointed`` that closes ``state``'s journal handle on
    every exit, as the campaign entry points do."""
    from repro.dse import run_checkpointed

    try:
        return run_checkpointed(jobs, runner, state, **kwargs)
    finally:
        state.close()


def torn_write(path, offset):
    """Truncate a file at an arbitrary byte ``offset``.

    Simulates a crash (or power loss) mid-append: everything past the
    offset vanishes, typically leaving a torn final line.  Returns the
    number of bytes removed.
    """
    import os

    size = os.path.getsize(path)
    if not 0 <= offset <= size:
        raise ValueError(
            "offset %d outside file of %d bytes" % (offset, size)
        )
    with open(path, "r+b") as handle:
        handle.truncate(offset)
    return size - offset


def hammer_cache(root, keys, rounds):
    """One stress process: write/read overlapping keys, assert sanity.

    Runs in a child process (module-level so it pickles).  Every round
    puts a fresh record for every key and immediately reads it back —
    read-your-writes must hold even while 7 sibling processes replace
    the same files.  Any violation raises, which
    :func:`spawn_hammers`'s caller sees as a nonzero exit code.

    Args:
        root: Cache directory shared by all hammer processes.
        keys: Content-hash keys (overlapping across processes).
        rounds: put+get sweeps to run.
    """
    import os

    from repro.dse.cache import ResultCache

    cache = ResultCache(root)

    stamp = os.getpid()
    for round_number in range(rounds):
        for key in keys:
            cache.put(key, {"key": key, "round": round_number, "pid": stamp})
            record = cache.get(key)
            # Another process may have replaced the record (atomic
            # rename), but a reader must never see a torn/absent one.
            assert record is not None, "read-your-writes violated for %s" % key
            assert record["key"] == key, "foreign record under %s" % key
    return cache.writes


def spawn_hammers(root, keys, processes=8, rounds=10):
    """Run :func:`hammer_cache` in N concurrent processes; return exitcodes."""
    import multiprocessing

    context = multiprocessing.get_context()
    workers = [
        context.Process(
            target=hammer_cache, args=(root, list(keys), rounds)
        )
        for _ in range(processes)
    ]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join(timeout=120)
    return [worker.exitcode for worker in workers]
