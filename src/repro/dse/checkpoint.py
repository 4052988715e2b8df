"""Campaign journals: resume a killed campaign where it stopped.

A :class:`CampaignState` is an append-only JSONL journal (see
:mod:`repro.dse.journal` for the on-disk format) living alongside the
:class:`~repro.dse.cache.ResultCache` that records, per job key, whether
the point completed and how.  Events are appended as results *arrive*
(the runner streams them), so a campaign killed after N of M points
leaves a journal with those N points and :func:`run_checkpointed` can
finish the remaining M-N without re-evaluating anything:

* successful points replay from the result cache (the journal never
  duplicates result payloads — the cache is the store of record);
* failed points replay their journaled error instead of re-raising the
  evaluator (pass ``retry_failed=True`` to re-run them);
* with a :class:`~repro.dse.retry.RetryPolicy`, failed points re-run
  with reseeded RNG streams until their budget is spent — the budget
  is journaled, so it spans resumes — and budget-exhausted (flaky)
  points land in a **quarantine** that ``status`` reports, Pareto
  ranking excludes, and ``python -m repro.dse retry`` re-releases;
* a journal written by a *different* campaign (other axes, other
  settings — detected via the campaign signature hash) refuses to
  resume rather than silently mixing results.

Appending one event per point keeps journal I/O O(1) per point (the
version-1 atomic-JSON format rewrote the whole file per point — O(n^2)
over a campaign) and a kill at *any* byte offset costs at most the torn
final line: every fully-written event survives.  Once the log grows
past a threshold it is compacted into a snapshot + one-line tail, so
resume latency stays flat.

Version-1 journals (``checkpoint.json``) are no longer read:
:func:`journal_path` refuses a campaign directory that holds only one,
and names the last commit that migrates it.

The journal and the cache may disagree by at most the in-flight point
when a campaign dies (the cache write lands just before the journal
record); resumption handles both orders, because a journaled-ok point
whose cache entry vanished simply re-evaluates.
"""

import os
import time
from collections import deque
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set

from repro.dse.jobs import Job, JobResult, content_key
from repro.dse.journal import JOURNAL_VERSION, JsonlJournal, read_events
from repro.dse.retry import RetryPolicy
from repro.dse.runner import CampaignRunner, Progress, is_timeout_error

#: Default journal file name inside a campaign directory.
JOURNAL_NAME = "journal.jsonl"


def campaign_key(signature: Dict) -> str:
    """Stable hash identifying a campaign by its full configuration.

    Args:
        signature: JSON-ready dict of everything that determines the
            job list (axes, settings, sampler).  Two campaigns share a
            journal only if their signatures hash identically.  Retry
            policies are deliberately *not* part of the signature —
            they change how failures are handled, not which points the
            campaign evaluates.
    """
    return content_key("campaign", signature)


def journal_path(campaign_dir: str) -> str:
    """The journal file of a campaign directory.

    Raises:
        ValueError: The directory holds a version-1 ``checkpoint.json``
            and no JSONL journal — resuming it here would silently
            start a fresh campaign beside the old one.
    """
    path = os.path.join(campaign_dir, JOURNAL_NAME)
    if not os.path.exists(path) and os.path.exists(
        os.path.join(campaign_dir, "checkpoint.json")
    ):
        raise ValueError(
            "%s holds a version-1 checkpoint.json journal, which this build "
            "no longer reads; resume it once with repro at commit 6e5669f "
            "to migrate it to %s" % (campaign_dir, JOURNAL_NAME)
        )
    return path


class CampaignState:
    """Append-only on-disk journal of a campaign's completed points.

    Args:
        path: Journal file path (conventionally
            ``<campaign_dir>/journal.jsonl``).
        key: Campaign signature hash (see :func:`campaign_key`).
        total: Planned point count (advisory; surrogate and ladder
            campaigns grow it batch by batch).
        meta: Optional JSON-ready context stored for ``status`` display.
        fsync_every: Batch ``fsync`` once per this many journal
            appends (appends are always flushed to the OS).
        compact_threshold: Compact to snapshot + tail once the log
            holds this many lines (0 disables auto-compaction).
    """

    def __init__(
        self,
        path: str,
        key: str,
        total: int = 0,
        meta: Optional[Dict] = None,
        fsync_every: int = 32,
        compact_threshold: int = 4096,
    ):
        self.path = str(path)
        self.key = key
        self._total = int(total)
        self.meta = dict(meta) if meta else {}
        #: job key -> {"ok": bool, "error": str|None, "elapsed": float}
        self.completed: Dict[str, Dict] = {}
        #: job key -> evaluator invocations journaled so far.
        self.attempts: Dict[str, int] = {}
        #: job keys whose retry budget is exhausted (flaky points).
        self.quarantined: Set[str] = set()
        #: job keys journaled as submitted (crash forensics).
        self.started: Set[str] = set()
        self.created = time.time()
        self.updated = self.created
        # High-water mark of journaled event stamps: appends clamp to
        # it so ``t`` is monotone non-decreasing per journal even when
        # the wall clock steps backwards (NTP) mid-campaign.
        self._last_t = 0.0
        #: Bytes of torn final line dropped by the last load (0 = clean).
        self.recovered_torn_bytes = 0
        self._journal = JsonlJournal(
            self.path,
            fsync_every=fsync_every,
            compact_threshold=compact_threshold,
        )
        self._ready = False  # True once a begin line is on disk

    # -- totals ---------------------------------------------------------

    @property
    def total(self) -> int:
        return self._total

    @total.setter
    def total(self, value: int) -> None:
        """Growing the plan journals a ``total`` event (later batches)."""
        value = int(value)
        if value == self._total:
            return
        self._total = value
        if self._ready:
            self._append({"event": "total", "total": value})

    # -- persistence ----------------------------------------------------

    @classmethod
    def load(cls, path: str) -> "CampaignState":
        """Replay snapshot + events; tolerate a torn final line.

        Raises:
            FileNotFoundError: No journal at ``path``.
            ValueError: Corrupt journal, or one of another version.
        """
        path = str(path)
        events, torn = read_events(path)
        if not events:
            raise ValueError("corrupt campaign journal: %s" % path)
        begin = events[0]
        if begin.get("version") != JOURNAL_VERSION:
            raise ValueError(
                "journal %s has version %r, this build reads %d"
                % (path, begin.get("version"), JOURNAL_VERSION)
            )
        if "campaign_key" not in begin:
            raise ValueError("not a campaign journal: %s" % path)
        state = cls(
            path,
            begin["campaign_key"],
            total=begin.get("total", 0),
            meta=begin.get("meta"),
        )
        state.created = begin.get("created", state.created)
        state.updated = begin.get("updated", state.created)
        snapshot = state._journal.load_snapshot()
        if snapshot is not None and snapshot.get("campaign_key") == state.key:
            state.completed = dict(snapshot.get("completed", {}))
            state.attempts = {
                k: int(v) for k, v in snapshot.get("attempts", {}).items()
            }
            state.quarantined = set(snapshot.get("quarantined", []))
            state._total = max(state._total, int(snapshot.get("total", 0)))
            state.created = snapshot.get("created", state.created)
            state.updated = max(state.updated, snapshot.get("updated", 0.0))
        for event in events[1:]:
            state._apply(event)
        # Snapshot-folded history carried stamps up to ``updated``; new
        # appends must stay past them even though the events are gone.
        state._last_t = max(state._last_t, float(state.updated or 0.0))
        state._journal.lines = len(events)
        state._journal.tail_bytes = os.path.getsize(path)
        state.recovered_torn_bytes = torn
        state._ready = True
        return state

    @classmethod
    def open(
        cls,
        path: str,
        key: str,
        total: int,
        resume: bool = False,
        meta: Optional[Dict] = None,
        fsync_every: int = 32,
        compact_threshold: int = 4096,
    ) -> "CampaignState":
        """Create a fresh journal, or on ``resume`` reopen an existing one.

        A fresh open overwrites any stale journal (and snapshot) at
        ``path``; a resume validates that the journal belongs to this
        campaign.

        Raises:
            ValueError: Resuming a journal written by a different
                campaign (signature hash mismatch), or a corrupt one.
        """
        if resume and os.path.exists(path):
            state = cls.load(path)
            if state.key != key:
                raise ValueError(
                    "journal %s belongs to a different campaign "
                    "(key %s..., expected %s...); refusing to resume"
                    % (path, state.key[:12], key[:12])
                )
            # load() builds the journal with defaults; honour the
            # caller's durability/compaction settings on resume too.
            if fsync_every < 1:
                raise ValueError("fsync_every must be >= 1")
            state._journal.fsync_every = int(fsync_every)
            state._journal.compact_threshold = int(compact_threshold)
            if total > state.total:
                state.total = total
            return state
        state = cls(
            path, key, total=total, meta=meta,
            fsync_every=fsync_every, compact_threshold=compact_threshold,
        )
        state._reset()
        return state

    def _begin_event(self) -> Dict:
        return {
            "event": "begin",
            "version": JOURNAL_VERSION,
            "campaign_key": self.key,
            "total": self._total,
            "meta": self.meta,
            "created": self.created,
            "updated": self.updated,
        }

    def _reset(self) -> None:
        """Start the journal fresh: begin line only, no snapshot."""
        self._journal.reset(self._begin_event())
        self._ready = True

    def _append(self, event: Dict) -> None:
        """Append one event (stamped with wall-clock) and maybe compact.

        The stamp never regresses below the previous event's ``t``:
        read-side analytics and the chaos :class:`InvariantChecker`
        rely on every journal being monotone non-decreasing in ``t``,
        which a backwards wall-clock step (NTP) would otherwise break.
        """
        if not self._ready:
            self._reset()
        stamp = float(event.setdefault("t", time.time()))
        if stamp < self._last_t:
            stamp = self._last_t
            event["t"] = stamp
        self._last_t = stamp
        self.updated = max(self.updated, stamp)
        self._journal.append(event)
        if self._journal.wants_compaction:
            self.save()

    def save(self) -> None:
        """Compact now: fold the journal into snapshot + one-line tail.

        Also the explicit durability point — everything journaled so
        far is fsynced.  Serialisation failures (say, an unserialisable
        ``meta``) raise *before* any file is replaced and leave no
        temporary files behind; the existing journal stays intact.
        """
        if not self._ready:
            self._reset()
        self.updated = time.time()
        self._journal.compact(self._begin_event(), self._snapshot_payload())

    def sync(self) -> None:
        """Force journaled events to stable storage (fsync)."""
        self._journal.sync()

    def close(self) -> None:
        """Sync and release the journal file handle."""
        self._journal.close()

    def _snapshot_payload(self) -> Dict:
        return {
            "version": JOURNAL_VERSION,
            "campaign_key": self.key,
            "total": self._total,
            "meta": self.meta,
            "created": self.created,
            "updated": self.updated,
            "completed": self.completed,
            "attempts": self.attempts,
            "quarantined": sorted(self.quarantined),
        }

    # -- event replay ---------------------------------------------------

    def _apply(self, event: Dict) -> None:
        """Fold one journal event into the in-memory state: on replay,
        and as :meth:`record_retry`, :meth:`quarantine` and
        :meth:`release` record theirs.

        Every event is last-writer-wins on its key, so replaying a
        journal over a snapshot that already contains a prefix of it
        (the crash window between snapshot and tail rewrite) converges
        to the same state as a clean replay.
        """
        kind = event.get("event")
        stamp = event.get("t")
        if isinstance(stamp, (int, float)):
            self.updated = max(self.updated, stamp)
            self._last_t = max(self._last_t, float(stamp))
        key = event.get("key")
        if kind in ("done", "failed"):
            self.completed[key] = {
                "ok": kind == "done",
                "error": event.get("error"),
                "elapsed": event.get("elapsed", 0.0),
            }
            self._bump_attempts(key, event.get("attempts", 1))
            if kind == "done":
                self.quarantined.discard(key)
        elif kind == "cached":
            self.completed[key] = {
                "ok": event.get("ok", True),
                "error": event.get("error"),
                "elapsed": event.get("elapsed", 0.0),
            }
        elif kind == "started":
            self.started.add(key)
        elif kind == "retry":
            self._bump_attempts(key, event.get("attempt", 1))
        elif kind == "quarantine":
            self.quarantined.add(key)
            self._bump_attempts(key, event.get("attempts", 1))
        elif kind == "release":
            self.quarantined.discard(key)
            self.attempts.pop(key, None)
            entry = self.completed.get(key)
            if entry is not None and not entry.get("ok"):
                self.completed.pop(key)
        elif kind == "total":
            self._total = int(event.get("total", self._total))
        # Unknown kinds are skipped: forward compatibility within v2.

    def _bump_attempts(self, key: str, count: int) -> None:
        if count > self.attempts.get(key, 0):
            self.attempts[key] = int(count)

    # -- recording ------------------------------------------------------

    def record(self, outcome: JobResult) -> None:
        """Journal one completed point (one appended line).

        Cache-served completions whose journaled status already matches
        are skipped — a resume that replays N finished points performs
        zero journal writes for them, keeping total journal I/O
        proportional to fresh evaluations.
        """
        key = outcome.job.key
        existing = self.completed.get(key)
        if outcome.from_cache and existing is not None:
            if existing.get("ok") == outcome.ok:
                return
        entry = {
            "ok": outcome.ok,
            "error": outcome.error,
            "elapsed": outcome.elapsed,
        }
        if existing == entry:
            return
        self.completed[key] = entry
        self._bump_attempts(key, outcome.attempts)
        if outcome.ok:
            self.quarantined.discard(key)
        if outcome.from_cache:
            event = {"event": "cached", "key": key, "ok": outcome.ok}
            if outcome.elapsed:
                # The original evaluation's wall-clock, carried through
                # the cache record: analytics can separate "free" cache
                # hits from the latency the point once cost, and never
                # mistakes a hit for a zero-latency evaluation.
                event["elapsed"] = float(outcome.elapsed)
            if outcome.error is not None:
                event["error"] = outcome.error
        else:
            event = {
                "event": "done" if outcome.ok else "failed",
                "key": key,
                "elapsed": outcome.elapsed,
            }
            if not outcome.ok:
                event["error"] = outcome.error
                if is_timeout_error(outcome.error):
                    # Redundant with the error prefix, but greppable:
                    # reaped points stand out in the raw journal.
                    event["timeout"] = True
            if outcome.attempts > 1:
                event["attempts"] = outcome.attempts
        self._append(event)

    def record_started(self, keys: Iterable[str]) -> None:
        """Journal that points were submitted for evaluation."""
        for key in keys:
            if key not in self.started:
                self.started.add(key)
                self._append({"event": "started", "key": key})

    def record_retry(
        self, key: str, attempt: int, error: Optional[str], backoff: float
    ) -> None:
        """Journal one failed invocation that will be retried."""
        event = {"event": "retry", "key": key, "attempt": int(attempt),
                 "backoff": float(backoff)}
        if error is not None:
            # One line per event: keep the first line of the traceback.
            event["error"] = str(error).splitlines()[0] if error else error
        self._apply(event)
        self._append(event)

    def quarantine(self, key: str, attempts: int) -> None:
        """Mark a point flaky: budget exhausted, excluded until released."""
        if key in self.quarantined:
            return
        event = {"event": "quarantine", "key": key, "attempts": int(attempts)}
        self._apply(event)
        self._append(event)

    def release(self, keys: Optional[Iterable[str]] = None) -> List[str]:
        """Re-release quarantined points (default: all of them).

        Released points lose their failed entry and attempt count, so
        the next resume re-runs them with a fresh retry budget.

        Returns:
            The keys actually released (unknown keys are ignored).
        """
        chosen = sorted(self.quarantined) if keys is None else list(keys)
        released = []
        for key in chosen:
            if key not in self.quarantined:
                continue
            event = {"event": "release", "key": key}
            self._apply(event)
            self._append(event)
            released.append(key)
        return released

    def entry(self, key: str) -> Optional[Dict]:
        """The journaled record for a job key, or None."""
        return self.completed.get(key)

    # -- reporting ------------------------------------------------------

    @property
    def done(self) -> int:
        return len(self.completed)

    @property
    def failed(self) -> int:
        return sum(1 for entry in self.completed.values() if not entry["ok"])

    @property
    def timeouts(self) -> int:
        """Failed points whose final attempt was reaped at its deadline.

        Derived from the journaled error string, so journals written
        before deadlines existed (and snapshots without the redundant
        ``timeout`` event flag) count correctly.
        """
        return sum(
            1
            for entry in self.completed.values()
            if not entry["ok"] and is_timeout_error(entry.get("error"))
        )

    @property
    def retried(self) -> int:
        """Points that needed at least one retry."""
        return sum(1 for count in self.attempts.values() if count > 1)

    @property
    def retries(self) -> int:
        """Total extra evaluator invocations spent on retries."""
        return sum(count - 1 for count in self.attempts.values() if count > 1)

    def status(self) -> Dict:
        """JSON-ready progress summary (the CLI ``status`` payload).

        The progress buckets are disjoint — ``done`` counts completed
        points that are *not* quarantined, ``quarantined`` the flaky
        points parked by the retry policy, ``remaining`` what is still
        runnable — so ``done + remaining + quarantined == total``
        always holds (the accounting invariant analytics and the chaos
        checker assert).  The historic ``remaining = total - done``
        silently counted quarantined points as still-runnable: a
        campaign that had given up on a point forever reported it as
        pending work.  ``failed``/``timeouts`` stay raw diagnostic
        counts over every journaled completion (a quarantined point's
        final failure is journaled before its quarantine line, so a
        quarantined timeout still shows up as a timeout).
        """
        done = sum(
            1 for key in self.completed if key not in self.quarantined
        )
        return {
            "campaign_key": self.key,
            "total": self.total,
            "done": done,
            "failed": self.failed,
            "timeouts": self.timeouts,
            "remaining": max(0, self.total - done - len(self.quarantined)),
            "retried": self.retried,
            "retries": self.retries,
            "quarantined": len(self.quarantined),
            "quarantine": sorted(self.quarantined),
            "created": self.created,
            "updated": self.updated,
            "meta": self.meta,
        }


def run_checkpointed(
    jobs: Sequence[Job],
    runner: CampaignRunner,
    state: CampaignState,
    retry_failed: bool = False,
    retry: Optional[RetryPolicy] = None,
    progress: Optional[Callable[[Progress], None]] = None,
) -> List[JobResult]:
    """Run jobs with every completion journaled as it arrives.

    Points the journal marks failed replay their recorded error without
    touching an evaluator (unless ``retry_failed``, or a ``retry``
    policy with remaining budget for that point); points it marks ok
    are submitted normally and served by the runner's result cache — so
    resuming a killed campaign re-evaluates nothing that finished.

    With a :class:`~repro.dse.retry.RetryPolicy`:

    * each retry is journaled (``retry`` event with attempt number and
      backoff), so the per-point budget survives kills and resumes;
    * a point that exhausts its budget is quarantined — journaled,
      replayed as a failure on later resumes, and left alone until
      ``retry_failed=True`` or an explicit release
      (``python -m repro.dse retry``) clears it.

    Results align with the input order, exactly like
    :meth:`CampaignRunner.run`.  If the consumer (or a progress
    callback) raises mid-run, everything journaled so far survives for
    the next resume.
    """
    jobs = list(jobs)
    results: List[Optional[JobResult]] = [None] * len(jobs)

    submitted: List[Job] = []
    slots: Dict[str, deque] = {}
    offsets: Dict[str, int] = {}
    for index, job in enumerate(jobs):
        entry = state.entry(job.key)
        in_quarantine = job.key in state.quarantined
        if entry is not None and not entry["ok"]:
            spent = max(1, state.attempts.get(job.key, 1))
            budget_left = retry is not None and retry.should_retry(spent)
            if retry_failed:
                if in_quarantine:
                    state.release([job.key])
            elif budget_left and not in_quarantine:
                offsets[job.key] = spent  # journal-aware budget
            else:
                if retry is not None and not in_quarantine:
                    # Budget exhausted but the quarantine event was
                    # lost to a crash: restore the invariant.
                    state.quarantine(job.key, spent)
                results[index] = JobResult(
                    job=job,
                    ok=False,
                    error=entry["error"],
                    elapsed=entry.get("elapsed", 0.0),
                    from_cache=True,
                    attempts=spent,
                )
                continue
        elif entry is None and state.attempts.get(job.key):
            # Crash mid-retries: continue the budget, don't restart it.
            offsets[job.key] = state.attempts[job.key]
        slots.setdefault(job.key, deque()).append(index)
        submitted.append(job)

    fresh = {
        job.key for job in submitted
        if state.entry(job.key) is None or not state.entry(job.key)["ok"]
    }
    state.record_started(fresh)

    on_retry = None
    if retry is not None:
        def on_retry(job, attempt, error, backoff):
            state.record_retry(job.key, attempt, error, backoff)

    for outcome in runner.run_iter(
        submitted,
        progress=progress,
        retry=retry,
        retry_offsets=offsets,
        on_retry=on_retry,
    ):
        state.record(outcome)
        if (
            retry is not None
            and not outcome.ok
            and not outcome.from_cache
            and not retry.should_retry(outcome.attempts)
        ):
            state.quarantine(outcome.job.key, outcome.attempts)
        results[slots[outcome.job.key].popleft()] = outcome
    return results  # type: ignore[return-value]
