"""repro.dse.chaos: deterministic fault injection + campaign invariants.

The engine's crash-safety claims (PRs 3-5) were earned with ad-hoc test
fixtures — a runner that raises mid-campaign, a hand-torn journal line.
This module promotes fault injection into a first-class subsystem:

* a seeded :class:`FaultPlane` injects faults at the engine's existing
  seams — the hook sites below are ``fire()`` calls already wired into
  :mod:`~repro.dse.journal`, :mod:`~repro.dse.cache`,
  :mod:`~repro.dse.runner` and :mod:`~repro.dse.net.server` — so a
  *schedule* of hangs, crashes, torn tails, ENOSPC and connection drops
  replays bit-identically from one integer seed;
* an :class:`InvariantChecker` replays a campaign directory after a
  schedule and asserts the conservation laws the engine promises (no
  lost results, no corrupt journals, totals conserved, leases monotone);
* :func:`seeded_schedule` derives a complete chaos scenario (faults,
  evaluation fault modes, executor mode, deadline) from a seed, so a
  failing CI run is reproducible from the printed seed alone.

Hook sites wired today::

    journal.append     before a campaign-journal line is written
    journal.appended   after it is flushed (torn faults tear it here)
    journal.atomic     before an atomic snapshot write
    cache.put          before a result-cache record is stored
    lease.append       before a server lease-log event is written
    lease.appended     after it is written
    queue.result       when the server records a worker's result
    evaluate           on entry to every evaluation
    server.message     on every message the campaign server receives

Design constraints: this file is a *leaf* module (no ``repro.dse``
imports at module scope — every hooked module imports it), and the
disabled path is one global read plus a ``None`` check, benchmarked in
``bench_dse.py`` to stay under 2% of even the cheapest evaluator call.
"""

import errno
import os
import random
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

__all__ = [
    "ChaosCrash",
    "ChaosDrop",
    "FAULT_KINDS",
    "Fault",
    "FaultPlane",
    "InvariantChecker",
    "active",
    "fire",
    "install",
    "seeded_schedule",
    "uninstall",
]


class ChaosCrash(RuntimeError):
    """Injected process death.

    Raised after the fault's side effect (a torn tail is torn *first*),
    so the harness observing it sees exactly the on-disk state a SIGKILL
    at that instant would have left.
    """


class ChaosDrop(RuntimeError):
    """Injected connection drop: the server aborts the transport."""


#: Fault kinds understood by :class:`Fault`:
#:
#: * ``enospc`` — raise ``OSError(ENOSPC)`` (disk full);
#: * ``fsync``  — raise ``OSError(EIO)`` (flush/fsync failure);
#: * ``torn``   — truncate a few flushed bytes off the file named by
#:   the hook context, then raise :class:`ChaosCrash` (a power cut
#:   mid-append);
#: * ``crash``  — raise :class:`ChaosCrash`;
#: * ``drop``   — raise :class:`ChaosDrop` (network: connection drop);
#: * ``delay``  — sleep ``delay_s`` (slow disk / delayed reply /
#:   server pause), then continue normally.
FAULT_KINDS = ("enospc", "fsync", "torn", "crash", "drop", "delay")


@dataclass
class Fault:
    """One armed fault: where it fires, what it does, how often.

    Attributes:
        site: Hook site this fault arms (exact match, or a prefix when
            it ends with ``"."`` — ``"journal."`` arms both journal
            sites).
        kind: One of :data:`FAULT_KINDS`.
        count: Fire at most this many times (0 = unlimited).
        skip: Let this many eligible fires pass before arming — the
            deterministic way to hit "the third append", not the first.
        probability: Chance an eligible fire actually injects, drawn
            from the plane's seeded RNG (deterministic per schedule).
        delay_s: Sleep length for ``delay`` faults.
        torn_bytes: How many flushed bytes a ``torn`` fault tears off
            (clamped to the file size).
        match: If set, the fault only fires when this substring appears
            in the hook context's ``path``/``task``/``target``.
    """

    site: str
    kind: str
    count: int = 1
    skip: int = 0
    probability: float = 1.0
    delay_s: float = 0.02
    torn_bytes: int = 7
    match: Optional[str] = None

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                "unknown fault kind %r; known: %s" % (self.kind, FAULT_KINDS)
            )

    def applies(self, site: str, ctx: Dict) -> bool:
        if self.site.endswith("."):
            if not site.startswith(self.site):
                return False
        elif site != self.site:
            return False
        if self.match is not None:
            haystack = "|".join(
                str(ctx.get(key, "")) for key in ("path", "task", "target")
            )
            if self.match not in haystack:
                return False
        return True


class FaultPlane:
    """A seeded, deterministic set of armed faults.

    Thread-safe (workers heartbeat and evaluate from threads in tests):
    eligibility decisions happen under a lock and consume the plane's
    RNG in call order, side effects (sleeps, raises) happen outside it.
    Use as a context manager to install/uninstall the process-global
    plane that :func:`fire` consults::

        with FaultPlane(seed=7, faults=[Fault("cache.put", "enospc")]):
            run(MemoryCampaign(space), campaign_dir)

    Attributes:
        fired: One record per injected fault (site, kind, context
            summary) — the schedule's audit trail.
    """

    def __init__(self, seed: int = 0, faults: Sequence[Fault] = ()):
        self.seed = int(seed)
        self.faults: List[Fault] = list(faults)
        self.fired: List[Dict] = []
        self._rng = random.Random(self.seed)
        self._lock = threading.Lock()
        self._spent: Dict[int, int] = {}
        self._skipped: Dict[int, int] = {}

    def add(self, fault: Fault) -> "FaultPlane":
        self.faults.append(fault)
        return self

    def __enter__(self) -> "FaultPlane":
        install(self)
        return self

    def __exit__(self, *exc_info) -> None:
        uninstall()

    def fire(self, site: str, ctx: Dict) -> None:
        """Evaluate every armed fault against one hook invocation.

        At most one fault injects per invocation (the first eligible
        one, in arming order) — composing several behaviours at one
        instant would model a fault no real machine produces.
        """
        chosen: Optional[Fault] = None
        with self._lock:
            for index, fault in enumerate(self.faults):
                if not fault.applies(site, ctx):
                    continue
                if fault.count and self._spent.get(index, 0) >= fault.count:
                    continue
                if self._skipped.get(index, 0) < fault.skip:
                    self._skipped[index] = self._skipped.get(index, 0) + 1
                    continue
                if fault.probability < 1.0 and (
                    self._rng.random() >= fault.probability
                ):
                    continue
                self._spent[index] = self._spent.get(index, 0) + 1
                self.fired.append({
                    "site": site,
                    "kind": fault.kind,
                    "path": str(ctx.get("path", "")),
                    "task": str(ctx.get("task", "")),
                })
                chosen = fault
                break
        if chosen is not None:
            self._inject(chosen, site, ctx)

    def _inject(self, fault: Fault, site: str, ctx: Dict) -> None:
        if fault.kind == "enospc":
            raise OSError(
                errno.ENOSPC, "chaos: no space left on device (%s)" % site
            )
        if fault.kind == "fsync":
            raise OSError(errno.EIO, "chaos: fsync failed (%s)" % site)
        if fault.kind == "torn":
            self._tear(str(ctx.get("path", "")), fault.torn_bytes)
            raise ChaosCrash("chaos: crash after torn append (%s)" % site)
        if fault.kind == "crash":
            raise ChaosCrash("chaos: injected crash (%s)" % site)
        if fault.kind == "drop":
            raise ChaosDrop("chaos: connection dropped (%s)" % site)
        if fault.kind == "delay":
            time.sleep(fault.delay_s)

    @staticmethod
    def _tear(path: str, torn_bytes: int) -> None:
        """Truncate flushed bytes off a file's tail (a torn final line).

        Never tears past the previous line's newline: the engine's
        guarantee is that only the *final* (in-flight) record may be
        lost, and the fault must model exactly that.
        """
        if not path:
            return
        try:
            size = os.path.getsize(path)
            with open(path, "rb") as handle:
                data = handle.read()
        except OSError:
            return
        body = data[:-1] if data.endswith(b"\n") else data
        floor = body.rfind(b"\n") + 1  # keep everything through here
        target = max(floor, size - max(1, int(torn_bytes)))
        if target >= size:
            target = max(floor, size - 1)
        try:
            with open(path, "rb+") as handle:
                handle.truncate(target)
        except OSError:
            pass


#: The installed plane (None = chaos disabled, the production state).
_PLANE: Optional[FaultPlane] = None


def install(plane: FaultPlane) -> None:
    """Install the process-global fault plane :func:`fire` consults."""
    global _PLANE
    _PLANE = plane


def uninstall() -> None:
    global _PLANE
    _PLANE = None


def active() -> Optional[FaultPlane]:
    """The installed plane, or None when chaos is disabled."""
    return _PLANE


def fire(site: str, **ctx) -> None:
    """Hook entry the engine calls at every seam.

    The disabled path — one module-global read and a ``None`` check —
    is the only cost production code pays; ``bench_dse.py`` gates it at
    <2% of an evaluator call.
    """
    plane = _PLANE
    if plane is None:
        return
    plane.fire(site, ctx)


# -- invariants ----------------------------------------------------------


class InvariantChecker:
    """Replay a campaign directory and assert its conservation laws.

    The checks are exactly the engine's standing promises, verified
    from on-disk state alone (journal + cache + lease logs), so any
    fault schedule — or production incident — can be audited the same
    way:

    1. the campaign journal parses with no *interior* corruption (a
       torn final line is lawful; a torn middle one never is), and its
       event stamps ``t`` are monotone non-decreasing;
    2. status totals are conserved: the disjoint progress buckets
       satisfy ``done + remaining + quarantined == total`` exactly,
       ``done <= total``, and (for a campaign that ran to completion)
       ``done + quarantined == total``;
    3. no lost results: every point the journal records as completed-ok
       has a parseable record in the result cache;
    4. no double-apply: no point is both completed-ok and quarantined;
    5. lease logs are monotone: per server-life log, ``seq`` strictly
       increases and ``t`` never decreases.
    """

    def __init__(self, campaign_dir: str):
        self.campaign_dir = str(campaign_dir)

    def check(self, expect_complete: bool = True) -> List[str]:
        """Return every violated invariant (empty = all laws hold)."""
        violations: List[str] = []
        state = self._check_journal(violations)
        if state is not None:
            self._check_totals(state, violations, expect_complete)
            self._check_cache(state, violations)
            self._check_quarantine(state, violations)
            self._check_leases(violations)
        return violations

    def _check_journal(self, violations: List[str]):
        from repro.dse.checkpoint import CampaignState, journal_path

        path = journal_path(self.campaign_dir)
        if not os.path.exists(path):
            violations.append("no campaign journal at %s" % path)
            return None
        try:
            state = CampaignState.load(path)
        except Exception as exc:
            violations.append("campaign journal corrupt: %s" % exc)
            return None
        self._check_journal_clock(path, violations)
        return state

    def _check_journal_clock(self, path: str, violations: List[str]) -> None:
        """Campaign-journal stamps must be monotone non-decreasing.

        Appends clamp ``t`` to the journal's high-water mark, so a
        decreasing stamp means hand-edited history or an append path
        that bypassed the clamp — either way analytics durations would
        silently go negative.
        """
        from repro.dse.journal import read_events

        try:
            events, _ = read_events(path)
        except (OSError, ValueError):
            return  # parse problems are _check_journal's report
        last_t = None
        for event in events:
            stamp = event.get("t")
            if not isinstance(stamp, (int, float)):
                continue
            if last_t is not None and stamp < last_t:
                violations.append(
                    "campaign journal: t decreased (%r after %r)"
                    % (stamp, last_t)
                )
                break
            last_t = float(stamp)

    def _check_totals(
        self, state, violations: List[str], expect_complete: bool
    ) -> None:
        status = state.status()
        total = int(status.get("total", 0))
        done = int(status.get("done", 0))
        failed = int(status.get("failed", 0))
        remaining = int(status.get("remaining", 0))
        quarantined = int(status.get("quarantined", 0))
        if done > total or failed > done + quarantined:
            violations.append(
                "totals not conserved: done=%d failed=%d quarantined=%d "
                "total=%d" % (done, failed, quarantined, total)
            )
        # The accounting identity: the disjoint progress buckets must
        # tile the plan exactly (quarantined points are not runnable,
        # so they may not hide inside ``remaining``).
        if done + remaining + quarantined != total:
            violations.append(
                "totals not conserved: done=%d + remaining=%d + "
                "quarantined=%d != total=%d"
                % (done, remaining, quarantined, total)
            )
        if expect_complete and done + quarantined != total:
            violations.append(
                "campaign incomplete: done=%d + quarantined=%d != total=%d"
                % (done, quarantined, total)
            )

    def _check_cache(self, state, violations: List[str]) -> None:
        from repro.dse.cache import ResultCache
        from repro.dse.executors import CACHE_DIR_NAME

        cache_dir = os.path.join(self.campaign_dir, CACHE_DIR_NAME)
        if not os.path.isdir(cache_dir):
            return
        cache = ResultCache(cache_dir)
        for key, entry in state.completed.items():
            if not entry.get("ok"):
                continue
            record = cache.get(key)
            if record is None or "result" not in record:
                violations.append(
                    "lost result: %s completed ok but has no cache record"
                    % key
                )

    def _check_quarantine(self, state, violations: List[str]) -> None:
        for key in getattr(state, "quarantined", ()):  # set of keys
            entry = state.completed.get(key)
            if entry is not None and entry.get("ok"):
                violations.append(
                    "double-apply: %s is both completed-ok and quarantined"
                    % key
                )

    def _check_leases(self, violations: List[str]) -> None:
        from repro.dse.net.server import lease_log_paths, read_lease_events

        for path in lease_log_paths(self.campaign_dir):
            name = os.path.basename(path)
            last_seq, last_t = 0, 0.0
            for event in read_lease_events(path):
                seq = int(event.get("seq", 0))
                t = float(event.get("t", 0.0))
                if seq <= last_seq:
                    violations.append(
                        "lease log %s: seq not strictly increasing "
                        "(%d after %d)" % (name, seq, last_seq)
                    )
                    break
                if t < last_t:
                    violations.append(
                        "lease log %s: t decreased (%r after %r)"
                        % (name, t, last_t)
                    )
                    break
                last_seq, last_t = seq, t


# -- seeded schedules ----------------------------------------------------


@dataclass
class Schedule:
    """A complete chaos scenario derived from one integer seed.

    ``pytest -m chaos`` materialises one of these per seed and drives a
    resume-until-complete campaign under its plane; everything here is
    a pure function of ``seed``, so a failing run replays exactly from
    the seed printed in the assertion message.
    """

    seed: int
    mode: str  # "serial" or "network"
    points: int
    deadline: float
    faults: List[Fault] = field(default_factory=list)
    #: point index -> chaos mode for the dse-chaos evaluator spec.
    evaluation_faults: Dict[int, str] = field(default_factory=dict)

    def plane(self) -> FaultPlane:
        return FaultPlane(seed=self.seed, faults=list(self.faults))


#: The fault menu seeded schedules draw from, per execution mode.
_DISK_MENU = [
    ("journal.append", "enospc"),
    ("journal.append", "crash"),
    ("journal.appended", "torn"),
    ("journal.appended", "fsync"),
    ("cache.put", "enospc"),
    ("cache.put", "crash"),
]
_NET_MENU = [
    ("lease.appended", "torn"),
    ("lease.append", "crash"),
    ("queue.result", "crash"),
    ("server.message", "drop"),
    ("server.message", "delay"),
]
_EVAL_MENU = ["hang_first", "crash_first", "slow"]


def seeded_schedule(seed: int) -> Schedule:
    """Derive a reproducible chaos scenario from one integer seed.

    Roughly one in three schedules runs the full network stack (server
    + reconnecting worker) and draws network faults; the rest run the
    in-process serial path and draw disk faults.  Every schedule mixes
    in one or two evaluation faults (hang/crash/slow) on top.
    """
    rng = random.Random(int(seed))
    mode = "network" if rng.random() < 0.34 else "serial"
    points = rng.randint(4, 7)
    # Short enough that a reaped hang costs a test seed well under a
    # second; long enough that a healthy self-test point never times
    # out even on a loaded CI box.
    deadline = 0.8 if mode == "serial" else 1.5
    menu = list(_DISK_MENU)
    if mode == "network":
        menu += _NET_MENU
    faults = []
    for _ in range(rng.randint(1, 3)):
        site, kind = menu[rng.randrange(len(menu))]
        faults.append(
            Fault(
                site=site,
                kind=kind,
                count=1,
                skip=rng.randint(0, 2),
                delay_s=0.02,
                torn_bytes=rng.randint(3, 12),
            )
        )
    evaluation_faults: Dict[int, str] = {}
    for _ in range(rng.randint(1, 2)):
        evaluation_faults[rng.randrange(points)] = (
            _EVAL_MENU[rng.randrange(len(_EVAL_MENU))]
        )
    return Schedule(
        seed=int(seed),
        mode=mode,
        points=points,
        deadline=deadline,
        faults=faults,
        evaluation_faults=evaluation_faults,
    )
