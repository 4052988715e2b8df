"""Pluggable campaign executors: one campaign, many cooperating processes.

The :class:`~repro.dse.runner.CampaignRunner` needs exactly one thing
from its execution backend: *given a batch of unique jobs, yield
``(job, outcome)`` pairs in completion order*.  That seam is the
:class:`Executor` protocol, with three implementations:

* :class:`SerialExecutor` — evaluate lazily in-process, one job per
  pull (the historic ``workers=1`` path: no pool, no pickling);
* :class:`ProcessPoolExecutor` — fan out over a ``multiprocessing``
  pool with ``imap_unordered`` (the historic parallel path, refactored
  out of ``CampaignRunner._imap``);
* :class:`WorkerPullExecutor` — publish jobs as task files in the
  campaign directory and let N *independent* worker processes
  (``python -m repro.dse worker <campaign-dir>``) pull, lease, evaluate
  and report them.  Workers on any host that mounts the directory
  cooperate on one campaign; the coordinating ``run``/``resume``
  process only aggregates.

Worker-pull protocol (everything lives under ``<campaign-dir>/work/``)::

    work/
    ├── tasks/<key>-<reseed>.json     # one pending task per file
    ├── results/<key>-<reseed>.json   # one outcome per file (atomic rename)
    ├── leases/<worker-id>.jsonl      # per-worker claim journals
    └── stop                          # sentinel: workers exit

* **claim events, not locks** — each worker appends ``claim`` /
  ``heartbeat`` / ``done`` / ``release`` events to its *own* JSONL
  journal (single writer per file, so no locking is ever needed) and
  derives the global lease state by folding *all* journals through the
  deterministic :class:`LeaseTable`;
* **lease + heartbeat + expiry** — a claim holds a task for
  ``lease_ttl`` seconds; a background heartbeat extends it while the
  evaluation runs; a worker that dies stops heartbeating, its lease
  expires, and any surviving worker reclaims the task — a killed
  worker never loses a point;
* **benign races** — two workers that claim simultaneously both
  re-read the journals and agree on the winner (the fold is
  deterministic).  In the tiny window where both believe they won, the
  point is evaluated twice: results are content-hash keyed and
  last-writer-wins identical, so the collision is harmless by design.

Evaluated results land in the shared campaign
:class:`~repro.dse.cache.ResultCache` *and* in a per-task outcome file,
so a coordinator killed mid-campaign loses nothing the workers
finished while it was gone.
"""

import hashlib
import json
import logging
import os
import socket
import subprocess
import sys
import threading
import time
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.dse import chaos
from repro.dse.cache import ResultCache
from repro.dse.jobs import Job
from repro.dse.journal import atomic_write_json
from repro.dse.runner import (
    _execute,
    _execute_indexed,
    default_workers,
    execute_task,
    register_target,
)

logger = logging.getLogger(__name__)

#: One evaluation outcome: (ok, result, error, elapsed).
Outcome = Tuple[bool, Optional[Dict], Optional[str], float]

#: Executor names understood by :func:`make_executor` and the CLI.
EXECUTOR_NAMES = ("serial", "pool", "worker-pull", "network")

#: Conventional cache directory inside a campaign directory.
CACHE_DIR_NAME = "cache"

#: Conventional worker-pull queue directory inside a campaign directory.
WORK_DIR_NAME = "work"

#: Registered name of the synthetic self-test evaluator below.
SELFTEST_TARGET = "dse-selftest"


class Executor:
    """Protocol: turn a batch of unique jobs into completion-ordered outcomes.

    The runner calls :meth:`imap` once per execution round (initial
    submission plus one call per retry round) and :meth:`close` once
    the campaign is over.  Implementations must yield every job exactly
    once, in whatever order evaluations complete.
    """

    def imap(self, jobs: Sequence[Job]) -> Iterator[Tuple[Job, Outcome]]:
        raise NotImplementedError

    def close(self) -> None:
        """Release executor resources (idempotent)."""

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class SerialExecutor(Executor):
    """Evaluate in-process, lazily, one job per pull (no pool, no pickling)."""

    def imap(self, jobs: Sequence[Job]) -> Iterator[Tuple[Job, Outcome]]:
        for job in jobs:
            yield job, _execute(
                (job.target, dict(job.spec), job.seed, job.deadline)
            )


class ProcessPoolExecutor(Executor):
    """Fan out over a ``multiprocessing`` pool (``imap_unordered``).

    Args:
        workers: Pool size; ``None`` uses ``REPRO_DSE_WORKERS`` when
            set, else the CPU count.
        chunksize: Pool chunk size; default balances ~4 chunks per
            worker to amortise dispatch without starving the pool.
    """

    def __init__(self, workers: Optional[int] = None, chunksize: Optional[int] = None):
        if workers is not None and workers < 1:
            raise ValueError("workers must be >= 1")
        self.workers = workers if workers is not None else default_workers()
        self.chunksize = chunksize

    def imap(self, jobs: Sequence[Job]) -> Iterator[Tuple[Job, Outcome]]:
        jobs = list(jobs)
        if not jobs:
            return
        import multiprocessing

        payloads = [
            (position, job.target, dict(job.spec), job.seed, job.deadline)
            for position, job in enumerate(jobs)
        ]
        chunksize = self.chunksize or max(1, len(payloads) // (self.workers * 4))
        # Abandoning the generator mid-flight (consumer exception) tears
        # the pool down via its context manager, so no workers leak.
        with multiprocessing.Pool(self.workers) as pool:
            for position, outcome in pool.imap_unordered(
                _execute_indexed, payloads, chunksize=chunksize
            ):
                yield jobs[position], outcome


# -- lease bookkeeping ---------------------------------------------------


class LeaseTable:
    """Deterministic fold of claim events into current task ownership.

    The worker-pull protocol has no lock server: every worker appends
    claim events to its own journal and *derives* who owns what by
    folding the merged event stream through this table.  The fold is a
    pure function of the event set (events are sorted by
    ``(t, worker, seq)`` before replay), so every process that sees the
    same journals agrees on the same owners.

    Rules (all times come from the events, queries pass ``now``):

    * ``claim`` succeeds if the task is unowned, its current lease has
      expired, or the claimant already owns it; it is ignored for
      completed tasks;
    * ``heartbeat`` extends the holder's lease; a non-holder's
      heartbeat is ignored (its lease was reclaimed in between);
    * ``release`` frees the task if the releasing worker holds it;
    * ``done`` marks the task completed (and frees the lease) — it is
      never claimable again unless a ``reopen`` follows;
    * ``reopen`` un-completes a task (any participant may append it:
      the coordinator does, after quarantining a torn result file).
    """

    def __init__(self):
        #: task -> (worker, lease expiry time)
        self.leases: Dict[str, Tuple[str, float]] = {}
        #: tasks completed by some worker (not claimable until reopened).
        self.completed = set()
        #: task -> timestamp of the latest folded ``done`` event.  A
        #: ``reopen`` is causal (its author *observed* the done), so it
        #: must be stamped after this time even when the observing
        #: host's clock lags — see :meth:`WorkerPullExecutor._reopen`.
        self.completed_at: Dict[str, float] = {}
        #: task -> timestamp of the latest folded ``reopen`` event —
        #: claims bump past it the same way (a claim on a reopened
        #: task observed the reopen, so sorting after it is causal
        #: even when the claimant's clock lags the reopener's).
        self.reopened_at: Dict[str, float] = {}

    def owner(self, task: str, now: float) -> Optional[str]:
        """The worker holding an unexpired lease on ``task``, or None."""
        lease = self.leases.get(task)
        if lease is None or now >= lease[1]:
            return None
        return lease[0]

    def expires(self, task: str) -> Optional[float]:
        """When the current lease (if any) expires."""
        lease = self.leases.get(task)
        return None if lease is None else lease[1]

    def claim(self, task: str, worker: str, t: float, ttl: float) -> bool:
        if task in self.completed:
            return False
        holder = self.owner(task, t)
        if holder is not None and holder != worker:
            return False
        self.leases[task] = (worker, t + ttl)
        return True

    def heartbeat(self, task: str, worker: str, t: float, ttl: float) -> bool:
        lease = self.leases.get(task)
        if task in self.completed or lease is None or lease[0] != worker:
            return False
        self.leases[task] = (worker, t + ttl)
        return True

    def release(self, task: str, worker: str) -> bool:
        lease = self.leases.get(task)
        if lease is None or lease[0] != worker:
            return False
        del self.leases[task]
        return True

    def done(self, task: str, worker: str, t: float = 0.0) -> None:
        self.completed.add(task)
        self.completed_at[task] = max(self.completed_at.get(task, 0.0), t)
        self.leases.pop(task, None)

    def reopen(self, task: str, t: float = 0.0) -> None:
        self.completed.discard(task)
        self.reopened_at[task] = max(self.reopened_at.get(task, 0.0), t)
        self.leases.pop(task, None)

    def apply(self, event: Dict) -> None:
        """Fold one journal event (unknown kinds are skipped)."""
        kind = event.get("event")
        task = event.get("task")
        worker = event.get("worker")
        t = float(event.get("t", 0.0))
        ttl = float(event.get("ttl", 0.0))
        if task is None or worker is None:
            return
        if kind == "claim":
            self.claim(task, worker, t, ttl)
        elif kind == "heartbeat":
            self.heartbeat(task, worker, t, ttl)
        elif kind == "release":
            self.release(task, worker)
        elif kind == "done":
            self.done(task, worker, t)
        elif kind == "reopen":
            self.reopen(task, t)

    @classmethod
    def replay(cls, events: Sequence[Dict]) -> "LeaseTable":
        """Fold an unordered event set deterministically."""
        table = cls()
        ordered = sorted(
            events,
            key=lambda e: (
                float(e.get("t", 0.0)),
                str(e.get("worker", "")),
                int(e.get("seq", 0)),
            ),
        )
        for event in ordered:
            table.apply(event)
        return table


class LeaseJournal:
    """One worker's append-only claim journal (single writer, no locks).

    Appends are flushed per event; a torn final line (worker killed
    mid-append) is simply skipped by readers — losing a heartbeat can
    only *shorten* a lease, never corrupt the protocol.
    """

    def __init__(self, path: str, worker: str):
        self.path = str(path)
        self.worker = str(worker)
        self._seq = 0
        self._last_t = 0.0
        self._lock = threading.Lock()
        self._repaired = False

    def _repair_tail(self) -> None:
        """Terminate a torn final line before the first new append.

        Only reachable when a worker restarts under an explicit
        ``--id`` and its previous life died mid-write; without the
        newline the next event would fuse with the fragment and both
        lines would be skipped by readers.
        """
        try:
            with open(self.path, "rb") as handle:
                handle.seek(-1, os.SEEK_END)
                terminated = handle.read(1) == b"\n"
        except (OSError, ValueError):
            return  # absent or empty: nothing to repair
        if not terminated:
            with open(self.path, "ab") as handle:
                handle.write(b"\n")

    def append(self, event: Dict) -> None:
        with self._lock:
            if not self._repaired:
                self._repair_tail()
                self._repaired = True
            self._seq += 1
            event = dict(event, worker=self.worker, seq=self._seq)
            event.setdefault("t", time.time())
            # Timestamps within one journal must be monotone: a claim
            # stamped into the future (causally bumped past a skewed
            # ``done``) would otherwise be followed by heartbeats that
            # sort *before* it and get discarded in the fold.
            event["t"] = max(event["t"], self._last_t + 1e-6)
            self._last_t = event["t"]
            line = json.dumps(event, separators=(",", ":")) + "\n"
            directory = os.path.dirname(self.path) or "."
            os.makedirs(directory, exist_ok=True)
            chaos.fire("lease.append", path=self.path, worker=self.worker)
            with open(self.path, "a", encoding="utf-8") as handle:
                handle.write(line)
                handle.flush()
            chaos.fire("lease.appended", path=self.path, worker=self.worker)

    def claim(self, task: str, ttl: float) -> None:
        self.append({"event": "claim", "task": task, "ttl": float(ttl)})

    def heartbeat(self, task: str, ttl: float) -> None:
        self.append({"event": "heartbeat", "task": task, "ttl": float(ttl)})

    def release(self, task: str) -> None:
        self.append({"event": "release", "task": task})

    def done(self, task: str) -> None:
        self.append({"event": "done", "task": task})

    def reopen(self, task: str) -> None:
        self.append({"event": "reopen", "task": task})


def read_lease_events(path: str) -> List[Dict]:
    """Parse one lease journal, skipping torn/unparseable lines."""
    events: List[Dict] = []
    try:
        with open(path, "rb") as handle:
            raw = handle.read()
    except OSError:
        return events
    for line in raw.split(b"\n"):
        if not line.strip():
            continue
        try:
            event = json.loads(line.decode("utf-8", errors="replace"))
        except ValueError:
            continue  # torn append: at worst a lost heartbeat
        if isinstance(event, dict):
            events.append(event)
    return events


def read_lease_tail(path: str, offset: int = 0) -> Tuple[List[Dict], int]:
    """Parse the complete events after ``offset``; return the new offset.

    The incremental half of the applied-watermark fold: only fully
    newline-terminated lines are consumed, so the returned offset is
    always a line boundary.  A torn final line (its writer died
    mid-append, or the append is racing this read) stays unconsumed —
    the next tail read picks it up once the newline lands, or never
    does for a dead worker (at worst a lost heartbeat).  Unparseable
    *terminated* lines are skipped but consumed, exactly as
    :func:`read_lease_events` skips them.
    """
    events: List[Dict] = []
    try:
        with open(path, "rb") as handle:
            handle.seek(offset)
            raw = handle.read()
    except (OSError, ValueError):
        return events, offset
    end = raw.rfind(b"\n")
    if end < 0:
        return events, offset
    for line in raw[:end].split(b"\n"):
        if not line.strip():
            continue
        try:
            event = json.loads(line.decode("utf-8", errors="replace"))
        except ValueError:
            continue
        if isinstance(event, dict):
            events.append(event)
    return events, offset + end + 1


def _event_sort_key(event: Dict) -> Tuple[float, str, int]:
    """The canonical fold order: ``(t, worker, seq)`` (see replay())."""
    return (
        float(event.get("t", 0.0)),
        str(event.get("worker", "")),
        int(event.get("seq", 0)),
    )


class _Heartbeat:
    """Background thread extending a lease while an evaluation runs.

    A positive ``deadline`` caps how long the beats continue: once the
    evaluation has overrun its wall-clock budget the thread stops
    renewing, the lease lawfully expires ``ttl`` later, and surviving
    workers reclaim the task — the backstop for platforms where the
    in-process reaper cannot kill the stuck evaluation itself.
    """

    def __init__(
        self, journal: LeaseJournal, task: str, ttl: float,
        deadline: float = 0.0,
    ):
        self._journal = journal
        self._task = task
        self._ttl = float(ttl)
        self._deadline = float(deadline or 0.0)
        self._started = time.monotonic()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def _run(self) -> None:
        # Beat at a third of the TTL so one missed beat never expires
        # a healthy worker's lease.
        while not self._stop.wait(self._ttl / 3.0):
            if (
                self._deadline
                and time.monotonic() - self._started > self._deadline
            ):
                return  # overran the deadline: let the lease expire
            self._journal.heartbeat(self._task, self._ttl)

    def stop(self) -> None:
        self._stop.set()
        self._thread.join(timeout=5.0)
        if self._thread.is_alive():
            logger.warning(
                "heartbeat thread %r (worker %s, task %s) did not stop "
                "within 5s; leaking it daemonised",
                self._thread.name,
                self._journal.worker,
                self._task,
            )


# -- the work queue (shared by coordinator and workers) ------------------


#: Sentinel returned by :meth:`WorkQueue.read_result` for a quarantined
#: torn result file (distinct from "no result yet").
TORN_RESULT = object()



def task_id(job: Job) -> str:
    """The queue identity of one submission: content key + retry generation.

    Retries reuse the job's content key (same cache address) but carry a
    bumped ``reseed``, so each retry round is a distinct queue entry.
    """
    return "%s-%d" % (job.key, job.reseed)


class WorkQueue:
    """Filesystem layout and primitives of the worker-pull protocol.

    Both sides speak through this class: the coordinator publishes task
    files and consumes result files; workers scan tasks, fold lease
    journals, and publish results.  Every write is an atomic rename, so
    any number of processes (on any host mounting the directory) can
    participate without locks.
    """

    def __init__(self, campaign_dir: str):
        self.campaign_dir = str(campaign_dir)
        self.root = os.path.join(self.campaign_dir, WORK_DIR_NAME)
        self.tasks_dir = os.path.join(self.root, "tasks")
        self.results_dir = os.path.join(self.root, "results")
        self.leases_dir = os.path.join(self.root, "leases")
        self.stop_path = os.path.join(self.root, "stop")
        self.cache_dir = os.path.join(self.campaign_dir, CACHE_DIR_NAME)
        #: Applied watermarks: path -> [byte offset, events folded].
        #: Lease journals are append-only, so a journal that grew only
        #: needs its tail (bytes past the offset) parsed and folded —
        #: per-event fold cost stays flat as the history grows.
        self._watermarks: Dict[str, List[int]] = {}
        #: The incrementally folded table the watermarks describe.
        self._table: Optional[LeaseTable] = None
        #: Sort key of the last event folded into ``_table``.  A fresh
        #: tail event sorting *before* it (cross-journal clock skew
        #: surfacing between scans) voids the incremental fold — see
        #: :meth:`lease_table`.
        self._applied_key: Tuple[float, str, int] = (-1.0, "", -1)
        #: Fold telemetry: benches and tests assert ``full_refolds``
        #: stays 0 on the in-order fast path.
        self.fold_stats = {"folds": 0, "events_folded": 0, "full_refolds": 0}

    def ensure(self) -> None:
        for directory in (self.tasks_dir, self.results_dir, self.leases_dir):
            os.makedirs(directory, exist_ok=True)

    # -- stop sentinel --------------------------------------------------

    def request_stop(self) -> None:
        """Tell every worker polling this queue to exit."""
        self.ensure()
        with open(self.stop_path, "w") as handle:
            handle.write("%f\n" % time.time())

    def clear_stop(self) -> None:
        try:
            os.unlink(self.stop_path)
        except OSError:
            pass

    def stop_requested(self) -> bool:
        return os.path.exists(self.stop_path)

    def stop_stamp(self) -> Optional[float]:
        """The stop sentinel's mtime, or None if absent.

        Workers snapshot this at startup and stop when it *changes*
        (appears, or is rewritten by a later ``request_stop``).
        Comparing stamps for identity instead of against a clock makes
        the protocol immune to cross-host clock and mtime-server skew:
        a sentinel already present at startup is a previous campaign's
        leftover and is ignored until someone writes a fresh one.
        """
        try:
            return os.path.getmtime(self.stop_path)
        except OSError:
            return None

    # -- tasks ----------------------------------------------------------

    def task_path(self, tid: str) -> str:
        return os.path.join(self.tasks_dir, tid + ".json")

    def result_path(self, tid: str) -> str:
        return os.path.join(self.results_dir, tid + ".json")

    def lease_path(self, worker: str) -> str:
        return os.path.join(self.leases_dir, worker + ".jsonl")

    def publish(self, job: Job) -> str:
        """Write one pending task file (idempotent); return its id.

        A job's ``deadline`` rides along as the task's ``"deadline"``
        key: workers enforce it on the evaluation and stop heartbeating
        past it, so a stuck point can never pin a lease forever.
        """
        tid = task_id(job)
        path = self.task_path(tid)
        if not os.path.exists(path):
            record = {
                "task": tid,
                "key": job.key,
                "reseed": job.reseed,
                "target": job.target,
                "spec": dict(job.spec),
                "seed": job.seed,
            }
            if job.deadline:
                record["deadline"] = float(job.deadline)
            atomic_write_json(path, record)
        return tid

    def pending_tasks(self) -> List[str]:
        """Ids of published tasks that have no result yet.

        Two directory listings total — never a per-task stat, which at
        10^4+ published tasks (and over NFS) would swamp every worker's
        poll loop with metadata round-trips.
        """
        try:
            names = os.listdir(self.tasks_dir)
        except OSError:
            return []
        finished = self.available_results()
        return [
            name[: -len(".json")]
            for name in sorted(names)
            if name.endswith(".json") and name[: -len(".json")] not in finished
        ]

    def read_task(self, tid: str) -> Optional[Dict]:
        try:
            with open(self.task_path(tid)) as handle:
                return json.load(handle)
        except (OSError, ValueError):
            return None

    # -- results --------------------------------------------------------

    def publish_result(self, tid: str, outcome: Outcome, worker: str) -> None:
        ok, result, error, elapsed = outcome
        chaos.fire("queue.result", task=tid, worker=worker)
        atomic_write_json(
            self.result_path(tid),
            {
                "ok": ok,
                "result": result,
                "error": error,
                "elapsed": elapsed,
                "worker": worker,
            },
        )

    def read_result(self, tid: str):
        """Parse one outcome file.

        Returns the :data:`Outcome` tuple, ``None`` if no result has
        landed yet, or :data:`TORN_RESULT` after quarantining an
        unparseable file (renamed to ``*.corrupt``) — the caller must
        then ``reopen`` the task so a worker re-evaluates it.
        """
        path = self.result_path(tid)
        try:
            with open(path) as handle:
                record = json.load(handle)
        except OSError:
            return None
        except ValueError:
            # A torn result must not wedge the queue: move it aside so
            # the task becomes claimable (and evaluable) again.
            try:
                os.replace(path, path + ".corrupt")
            except OSError:
                pass
            return TORN_RESULT
        return (
            bool(record.get("ok")),
            record.get("result"),
            record.get("error"),
            float(record.get("elapsed", 0.0)),
        )

    def available_results(self) -> set:
        """Ids of every landed result, from one directory listing."""
        try:
            names = os.listdir(self.results_dir)
        except OSError:
            return set()
        return {
            name[: -len(".json")] for name in names if name.endswith(".json")
        }

    def consume(self, tid: str) -> None:
        """Drop a task/result pair the coordinator has aggregated."""
        for path in (self.task_path(tid), self.result_path(tid)):
            try:
                os.unlink(path)
            except OSError:
                pass

    # -- leases ---------------------------------------------------------

    def lease_journal_paths(self) -> List[str]:
        """Sorted per-worker claim-journal paths (empty when none exist).

        Shared by the coordinator's folds, the chaos
        :class:`~repro.dse.chaos.InvariantChecker`, and the read-side
        analytics replay, so every consumer agrees on what counts as a
        lease journal.
        """
        try:
            names = sorted(os.listdir(self.leases_dir))
        except OSError:
            return []
        return [
            os.path.join(self.leases_dir, name)
            for name in names
            if name.endswith(".jsonl")
        ]

    def lease_events(self) -> List[Dict]:
        """Every claim event across every worker journal (full re-read).

        Diagnostic/verification surface: folds should go through
        :meth:`lease_table`, which only parses journal *tails* past its
        applied watermarks.
        """
        events: List[Dict] = []
        for path in self.lease_journal_paths():
            events.extend(read_lease_events(path))
        return events

    def watermarks(self) -> Dict[str, Tuple[int, int]]:
        """Applied watermark per journal: path -> (byte offset, events)."""
        return {
            path: (mark[0], mark[1]) for path, mark in self._watermarks.items()
        }

    def lease_table(self) -> LeaseTable:
        """Fold every journal into the current lease state.

        Incremental via applied watermarks: each scan stats every
        journal and parses only the bytes past that journal's
        watermark, applying the new events in canonical
        ``(t, worker, seq)`` order on top of the previous fold.  A scan
        while nothing grew (the common idle poll) is pure stats; a scan
        after appends costs only the appended tail — flat per event no
        matter how long the history gets.

        The incremental result is kept provably identical to the
        canonical full fold (:meth:`LeaseTable.replay` over the whole
        sorted event set): if any fresh event sorts *before* the last
        applied one — out-of-order arrival across journals, e.g. a
        claim causally stamped into the future by one worker landing
        before a slower worker's past-stamped events are scanned — the
        incremental fold is void and the table is rebuilt from offset
        zero (counted in ``fold_stats["full_refolds"]``).  A journal
        that shrank (manual truncation) triggers the same rebuild.

        Callers must treat the returned table as read-only; it is the
        same mutable object across calls, updated in place.
        """
        self.fold_stats["folds"] += 1
        if self._table is None:
            self._table = LeaseTable()
        fresh: List[Dict] = []
        for path in self.lease_journal_paths():
            mark = self._watermarks.get(path)
            if mark is None:
                mark = self._watermarks[path] = [0, 0]
            try:
                size = os.path.getsize(path)
            except OSError:
                continue
            if size < mark[0]:
                return self._full_refold()
            if size == mark[0]:
                continue
            events, offset = read_lease_tail(path, mark[0])
            mark[0] = offset
            mark[1] += len(events)
            fresh.extend(events)
        if not fresh:
            return self._table
        fresh.sort(key=_event_sort_key)
        if _event_sort_key(fresh[0]) < self._applied_key:
            return self._full_refold()
        for event in fresh:
            self._table.apply(event)
        self._applied_key = _event_sort_key(fresh[-1])
        self.fold_stats["events_folded"] += len(fresh)
        return self._table

    def _full_refold(self) -> LeaseTable:
        """Rebuild the fold from offset zero (the canonical sorted replay)."""
        self.fold_stats["full_refolds"] += 1
        self._watermarks = {}
        events: List[Dict] = []
        for path in self.lease_journal_paths():
            parsed, offset = read_lease_tail(path, 0)
            self._watermarks[path] = [offset, len(parsed)]
            events.extend(parsed)
        events.sort(key=_event_sort_key)
        self._table = table = LeaseTable()
        for event in events:
            table.apply(event)
        self._applied_key = (
            _event_sort_key(events[-1]) if events else (-1.0, "", -1)
        )
        self.fold_stats["events_folded"] += len(events)
        return table


# -- the worker side -----------------------------------------------------


def default_worker_id() -> str:
    """Host- and process-unique worker identity."""
    return "%s-%d" % (socket.gethostname(), os.getpid())


def _claim_order(tids: Sequence[str], worker: str) -> List[str]:
    """Per-worker deterministic shuffle so workers prefer different tasks."""
    return sorted(
        tids,
        key=lambda tid: hashlib.sha256(("%s|%s" % (tid, worker)).encode()).hexdigest(),
    )


def run_worker(
    campaign_dir: str,
    worker_id: Optional[str] = None,
    lease_ttl: float = 30.0,
    poll: float = 0.2,
    idle_timeout: Optional[float] = None,
    once: bool = False,
    max_tasks: Optional[int] = None,
    cache: Optional[ResultCache] = None,
) -> int:
    """One worker-pull worker: claim, evaluate, report, repeat.

    Runs until the queue's ``stop`` sentinel appears, ``idle_timeout``
    seconds pass without claimable work, ``once`` drains the current
    queue, or ``max_tasks`` evaluations complete.

    Args:
        campaign_dir: Campaign directory (the coordinator's ``--dir``).
        worker_id: Stable identity for lease journals; default is
            ``<hostname>-<pid>``.
        lease_ttl: Seconds a claim lives without a heartbeat.
        poll: Seconds between queue scans when idle.
        idle_timeout: Exit after this long with nothing claimable
            (None = wait for the stop sentinel).
        once: Exit as soon as a scan finds nothing claimable.
        max_tasks: Exit after evaluating this many tasks.
        cache: Result store override (default: the campaign's
            ``cache/``) — successful evaluations are written here *and*
            to the per-task result file.

    Returns:
        Number of tasks this worker evaluated.
    """
    if lease_ttl <= 0:
        raise ValueError("lease_ttl must be > 0")
    queue = WorkQueue(campaign_dir)
    queue.ensure()
    worker = worker_id if worker_id is not None else default_worker_id()
    journal = LeaseJournal(queue.lease_path(worker), worker)
    store = cache if cache is not None else ResultCache(queue.cache_dir)
    evaluated = 0
    idle_since = time.monotonic()
    # Only obey stop sentinels that *change* after startup: a stale
    # sentinel left by a finished campaign must not kill workers
    # pre-started for the next one (the coordinator clears it at its
    # first batch, but workers may legitimately start earlier).  A
    # worker on an already-stopped queue winds down via idle_timeout.
    initial_stop = queue.stop_stamp()
    while True:
        current_stop = queue.stop_stamp()
        if current_stop is not None and current_stop != initial_stop:
            break
        if max_tasks is not None and evaluated >= max_tasks:
            break
        task = _claim_one(queue, journal, worker, lease_ttl)
        if task is None:
            if once:
                break
            if (
                idle_timeout is not None
                and time.monotonic() - idle_since > idle_timeout
            ):
                break
            time.sleep(poll)
            continue
        idle_since = time.monotonic()
        _evaluate_claimed(queue, journal, store, worker, lease_ttl, task)
        evaluated += 1
    return evaluated


def _evaluate_claimed(
    queue: WorkQueue,
    journal: LeaseJournal,
    store: ResultCache,
    worker: str,
    lease_ttl: float,
    task: Dict,
) -> None:
    """Evaluate one claimed task and report it.

    A cache hit is served without evaluation; otherwise the task goes
    through :func:`~repro.dse.runner.execute_task` under a heartbeat
    that stops past the task's deadline.  A success is written to the
    shared cache *before* its result file is published: a worker killed
    in between loses only unpublished work, which surviving workers
    reclaim at lease expiry.
    """
    tid = task["task"]
    cached = store.get(task["key"])
    if cached is not None and "result" in cached:
        # Another worker already evaluated this point durably (it was
        # SIGKILLed between its cache write and its result file, or a
        # duplicate claim raced) — a real evaluation is minutes of
        # Monte Carlo; serving the record is a file read.
        outcome = (
            True, cached["result"], None, float(cached.get("elapsed", 0.0))
        )
    else:
        heartbeat = _Heartbeat(
            journal, tid, lease_ttl,
            deadline=float(task.get("deadline") or 0.0),
        )
        try:
            outcome = execute_task(task)
        finally:
            heartbeat.stop()
        ok, result, error, elapsed = outcome
        if ok:
            # The shared cache is the durable store of record: even if
            # the coordinator died, this evaluation is never lost.
            store.put(
                task["key"],
                {
                    "target": task["target"],
                    "spec": task["spec"],
                    "result": result,
                    "elapsed": elapsed,
                },
            )
    queue.publish_result(tid, outcome, worker)
    journal.done(tid)


def _claim_one(
    queue: WorkQueue,
    journal: LeaseJournal,
    worker: str,
    ttl: float,
) -> Optional[Dict]:
    """Lease one claimable task, or None if nothing is available.

    Claim protocol: fold the journals, pick an unleased (or expired)
    task, append our claim, then fold *again* to confirm we won.  Two
    workers racing on the same task agree on the winner because the
    fold is deterministic over the same event set; in the narrow window
    where neither saw the other's claim, both evaluate — harmless,
    because results are content-keyed and identical.
    """
    pending = _claim_order(queue.pending_tasks(), worker)
    if not pending:
        return None
    table = queue.lease_table()
    for tid in pending:
        now = time.time()
        if tid in table.completed:
            # Result published, coordinator not yet caught up (it will
            # reopen the task if the result turns out torn).
            continue
        holder = table.owner(tid, now)
        if holder is not None and holder != worker:
            continue
        # A reopened task carries earlier ``done``/``reopen`` events in
        # the fold; a claim stamped by a lagging clock would sort
        # before them and be cancelled.  We observed both, so stamping
        # past whichever is latest is causally honest — see
        # WorkerPullExecutor._reopen.
        t = max(
            now,
            table.completed_at.get(tid, 0.0) + 2e-6,
            table.reopened_at.get(tid, 0.0) + 1e-6,
        )
        journal.append({"event": "claim", "task": tid, "ttl": float(ttl), "t": t})
        confirm = queue.lease_table()
        if confirm.owner(tid, time.time()) != worker:
            continue  # lost the race; try the next task
        task = queue.read_task(tid)
        if task is None:
            journal.release(tid)
            continue  # consumed (or torn) between scan and claim
        return task
    return None


# -- the coordinator side ------------------------------------------------


class WorkerStalled(RuntimeError):
    """The worker-pull queue made no progress within the timeout."""


class WorkerPullExecutor(Executor):
    """Aggregate results produced by independent worker processes.

    ``imap`` publishes each job as a task file under
    ``<campaign-dir>/work/`` and yields outcomes as result files
    appear — it never evaluates anything itself.  Workers are started
    separately (``python -m repro.dse worker <campaign-dir>``, on any
    host sharing the directory) or spawned locally with
    ``spawn_workers=N``.

    Args:
        campaign_dir: Directory shared with the workers.
        spawn_workers: Launch this many local worker subprocesses on
            first use (0 = workers are managed externally).  Workers
            that exited (idle timeout, crash) are relaunched at the
            next batch.
        lease_ttl: Lease TTL handed to spawned workers.
        poll: Seconds between result scans.
        timeout: Raise :class:`WorkerStalled` after this many seconds
            without a single new result (None = wait forever).
        spawn_idle_timeout: ``--idle-timeout`` handed to spawned
            workers, so a coordinator that dies without ``close()``
            (SIGKILL, OOM) leaves no orphans polling forever.  Must
            exceed any legitimate idle gap inside one campaign (retry
            backoffs, adaptive scoring between rounds); exited workers
            respawn on the next batch anyway.
    """

    def __init__(
        self,
        campaign_dir: str,
        spawn_workers: int = 0,
        lease_ttl: float = 30.0,
        poll: float = 0.05,
        timeout: Optional[float] = None,
        spawn_idle_timeout: float = 300.0,
    ):
        if spawn_workers < 0:
            raise ValueError("spawn_workers must be >= 0")
        self.queue = WorkQueue(campaign_dir)
        self.spawn_workers = int(spawn_workers)
        self.lease_ttl = float(lease_ttl)
        self.poll = float(poll)
        self.timeout = timeout
        self.spawn_idle_timeout = spawn_idle_timeout
        self.procs: List[subprocess.Popen] = []
        self._closed = False
        self._last_spawn = None
        self._journal = LeaseJournal(
            self.queue.lease_path("coordinator-" + default_worker_id()),
            "coordinator-" + default_worker_id(),
        )

    def _reopen(self, tid: str, table: Optional[LeaseTable] = None) -> None:
        """Append a reopen stamped causally *after* the done it undoes.

        The fold orders events by timestamp, and this coordinator's
        clock may lag the worker that appended the ``done`` (NTP skew
        across hosts).  A reopen stamped earlier than the done would
        sort before it and be cancelled by it — leaving the task
        completed, unclaimable, and the queue wedged.  We observed the
        done, so stamping just past its recorded time is causally
        honest and immune to skew.
        """
        if table is None:
            table = self.queue.lease_table()
        t = time.time()
        done_t = table.completed_at.get(tid)
        if done_t is not None:
            t = max(t, done_t + 1e-6)
        self._journal.append({"event": "reopen", "task": tid, "t": t})

    @property
    def persist_root(self) -> str:
        """Cache root workers already write successful results to.

        A runner whose cache lives at this root can skip its own
        write-back: the record landed (durably, before the result file)
        on the worker side.
        """
        return self.queue.cache_dir

    def _spawn_command(self) -> List[str]:
        """The worker command line spawned locally (also the cheat
        sheet for starting one by hand on another host)."""
        cmd = [
            sys.executable, "-m", "repro.dse", "worker",
            self.queue.campaign_dir,
            "--ttl", str(self.lease_ttl),
            "--poll", str(max(self.poll, 0.01)),
        ]
        if self.spawn_idle_timeout is not None:
            # Orphan insurance: if this coordinator dies without
            # close(), the workers wind down on their own.
            cmd += ["--idle-timeout", str(self.spawn_idle_timeout)]
        return cmd

    def _spawn(self) -> None:
        """Top the local worker fleet back up to ``spawn_workers``.

        Rate-limited to one relaunch round per second so a worker that
        exits immediately cannot be respawned at poll frequency.
        """
        if not self.spawn_workers:
            return
        self.procs = [proc for proc in self.procs if proc.poll() is None]
        missing = self.spawn_workers - len(self.procs)
        if missing <= 0:
            return
        now = time.monotonic()
        if self._last_spawn is not None and now - self._last_spawn < 1.0:
            return
        self._last_spawn = now
        import repro

        # Workers must import this very checkout, wherever the
        # coordinator found it.
        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        env = dict(os.environ)
        existing = env.get("PYTHONPATH", "")
        env["PYTHONPATH"] = src + (os.pathsep + existing if existing else "")
        cmd = self._spawn_command()
        for _ in range(missing):
            self.procs.append(
                subprocess.Popen(cmd, env=env, stdout=subprocess.DEVNULL)
            )

    def imap(self, jobs: Sequence[Job]) -> Iterator[Tuple[Job, Outcome]]:
        jobs = list(jobs)
        if not jobs:
            return
        if self._closed:
            raise RuntimeError("executor is closed")
        self.queue.ensure()
        self.queue.clear_stop()  # a previous run's sentinel must not apply
        by_tid = {}
        for job in jobs:
            by_tid[self.queue.publish(job)] = job
        # Lease journals outlive runs: a resubmitted task (a failed
        # point re-run on resume, or a result consumed just before a
        # coordinator crash) may still carry a ``done`` event from a
        # previous life, which would block every claim forever.  A
        # published task with no result on disk is work by definition —
        # reopen it.
        table = self.queue.lease_table()
        for tid in by_tid:
            if tid in table.completed and not os.path.exists(
                self.queue.result_path(tid)
            ):
                self._reopen(tid, table)
        self._spawn()
        pending = set(by_tid)
        last_progress = time.monotonic()
        while pending:
            progressed = False
            # One directory listing per tick instead of one failed
            # open() per pending task: at 10^4+ points (and over NFS)
            # per-file ENOENT probes would swamp the coordinator.
            for tid in sorted(pending & self.queue.available_results()):
                outcome = self.queue.read_result(tid)
                if outcome is None:
                    continue
                if outcome is TORN_RESULT:
                    # Quarantined: reopen so a worker re-evaluates it.
                    self._reopen(tid)
                    continue
                pending.discard(tid)
                self.queue.consume(tid)
                progressed = True
                yield by_tid[tid], outcome
            if not pending:
                break
            now = time.monotonic()
            if progressed:
                last_progress = now
            elif self.timeout is not None and now - last_progress > self.timeout:
                raise WorkerStalled(
                    "no result for %.1f s; %d task(s) still pending "
                    "(are any workers running against %s?)"
                    % (self.timeout, len(pending), self.queue.root)
                )
            if self.spawn_workers and not any(
                p.poll() is None for p in self.procs
            ):
                # No spawned worker left alive.  A nonzero exit is a
                # worker failure: fail fast instead of crash-looping.
                # Clean exits are idle timeouts (e.g. every remaining
                # lease is held by externally-started workers on other
                # hosts) — relaunch, rate-limited, rather than abort a
                # campaign that may still be progressing elsewhere.
                if any(p.returncode != 0 for p in self.procs):
                    raise WorkerStalled(
                        "spawned worker(s) failed (exit codes %s) with "
                        "%d task(s) pending"
                        % ([p.returncode for p in self.procs], len(pending))
                    )
                self._spawn()
            time.sleep(self.poll)

    def close(self) -> None:
        """Stop the workers (sentinel first, then reap spawned ones)."""
        if self._closed:
            return
        self._closed = True
        self.queue.request_stop()
        for proc in self.procs:
            try:
                proc.wait(timeout=10.0)
            except subprocess.TimeoutExpired:
                proc.terminate()
                try:
                    proc.wait(timeout=5.0)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait()
        del self.procs[:]


#: Extra keyword options each named executor accepts (workers and
#: chunksize are dedicated parameters, not options).
_EXECUTOR_OPTIONS = {
    "serial": (),
    "pool": (),
    "worker-pull": (
        "spawn_workers", "lease_ttl", "poll", "timeout", "spawn_idle_timeout",
    ),
    "network": (
        "spawn_workers", "lease_ttl", "poll", "timeout", "spawn_idle_timeout",
        "host", "port",
    ),
}


def make_executor(
    name,
    campaign_dir: Optional[str] = None,
    workers: Optional[int] = None,
    chunksize: Optional[int] = None,
    **options,
):
    """Build an executor from its CLI/spec name (instances pass through).

    Args:
        name: ``"serial"``, ``"pool"``, ``"worker-pull"``, ``"network"``,
            or an :class:`Executor` instance (returned unchanged).
        campaign_dir: Required for ``"worker-pull"`` and ``"network"``
            (the queue lives under it).
        workers / chunksize: Pool sizing for ``"pool"``.
        **options: Extra keyword arguments for the executor class
            (``spawn_workers``, ``lease_ttl``, ``timeout``, ...).

    Raises:
        ValueError: Unknown name, an option the named executor does not
            accept, or ``"worker-pull"`` without a campaign directory.
    """
    if isinstance(name, Executor) or hasattr(name, "imap"):
        if options:
            # Silently dropping these would leave the caller believing
            # (say) a tuned lease_ttl applies when it does not.
            raise ValueError(
                "executor option(s) %s cannot be applied to an executor "
                "instance; construct it with them instead"
                % ", ".join(sorted(options))
            )
        return name
    if name not in _EXECUTOR_OPTIONS:
        raise ValueError(
            "unknown executor %r; known: %s" % (name, list(EXECUTOR_NAMES))
        )
    unsupported = sorted(set(options) - set(_EXECUTOR_OPTIONS[name]))
    if unsupported:
        raise ValueError(
            "executor %r does not accept option(s) %s"
            % (name, ", ".join(unsupported))
        )
    if name == "serial":
        return SerialExecutor()
    if name == "pool":
        return ProcessPoolExecutor(workers=workers, chunksize=chunksize)
    if campaign_dir is None:
        raise ValueError(
            "executor %r needs a campaign directory" % (name,)
        )
    if name == "network":
        from repro.dse.net import NetworkExecutor

        return NetworkExecutor(campaign_dir, **options)
    return WorkerPullExecutor(campaign_dir, **options)


# -- synthetic self-test evaluator ---------------------------------------


def _selftest_invocation(x) -> int:
    """Bump and return this point's cross-process invocation count.

    One marker file per point in the directory named by
    ``REPRO_DSE_SELFTEST_DIR``; each invocation appends one byte
    (``O_APPEND``), so the file size *is* the invocation count — across
    threads, processes and hosts sharing the directory.
    """
    scratch = os.environ.get("REPRO_DSE_SELFTEST_DIR")
    if not scratch:
        raise RuntimeError(
            "selftest: invocation counting needs REPRO_DSE_SELFTEST_DIR"
        )
    os.makedirs(scratch, exist_ok=True)
    marker = os.path.join(scratch, "count-%s" % (x,))
    with open(marker, "ab") as handle:
        handle.write(b"x")
        handle.flush()
    return os.path.getsize(marker)


def evaluate_selftest(spec, seed: int) -> Dict:
    """Cheap deterministic evaluator for conformance tests and benches.

    Spec knobs (all optional): ``x`` (the point; result value is
    ``2*x``), ``sleep_s`` (simulated evaluation cost), ``count``
    (record each invocation in the ``REPRO_DSE_SELFTEST_DIR``
    directory, so tests can prove zero re-evaluation across kills and
    executors), ``fail`` = ``"always"`` (deterministic failure),
    ``fail_first`` = N (flaky: the first N invocations fail; the
    count is the same cross-process marker ``count`` uses).
    """
    x = spec.get("x", 0)
    if spec.get("sleep_s"):
        time.sleep(float(spec["sleep_s"]))
    if spec.get("fail") == "always":
        raise RuntimeError("selftest: point %r always fails" % (x,))
    fail_first = int(spec.get("fail_first", 0))
    if fail_first or spec.get("count"):
        invocation = _selftest_invocation(x)
        if invocation <= fail_first:
            raise RuntimeError("selftest: point %r flaky failure" % (x,))
    return {"value": 2 * x, "cost": 100 - x, "seed": seed}


register_target(SELFTEST_TARGET, evaluate_selftest)


#: Registered name of the chaos twin of the self-test evaluator.
CHAOS_TARGET = "dse-chaos"


def evaluate_chaos(spec, seed: int) -> Dict:
    """Chaos twin of the self-test evaluator: injects evaluation faults.

    Driven by the spec's ``"chaos"`` knob — every other key behaves
    exactly as in :func:`evaluate_selftest`:

    * ``"hang"`` — sleep far past any plausible deadline (``chaos_s``,
      default 3600 s); only meaningful under a deadline, which reaps it;
    * ``"slow"`` — sleep ``chaos_s`` seconds (default 0.5), then
      evaluate normally;
    * ``"crash"`` — raise deterministically;
    * ``"exit"`` — kill the evaluating process with exit code
      ``chaos_code`` (default 17), simulating a wrong-exit evaluator;
    * ``"hang_first"`` / ``"crash_first"`` / ``"exit_first"`` — fault
      only the first ``chaos_n`` invocations (default 1), counted by
      the same cross-process marker files the self-test uses, so a
      reaped/retried point eventually succeeds on every executor.
    """
    mode = str(spec.get("chaos") or "")
    if mode:
        faulty = True
        if mode.endswith("_first"):
            first = int(spec.get("chaos_n", 1))
            invocation = _selftest_invocation("chaos-%s" % (spec.get("x", 0),))
            faulty = invocation <= first
            mode = mode[: -len("_first")]
        if faulty:
            if mode == "hang":
                time.sleep(float(spec.get("chaos_s", 3600.0)))
            elif mode == "slow":
                time.sleep(float(spec.get("chaos_s", 0.5)))
            elif mode == "crash":
                raise RuntimeError(
                    "chaos: injected crash at point %r" % (spec.get("x", 0),)
                )
            elif mode == "exit":
                os._exit(int(spec.get("chaos_code", 17)))
            else:
                raise ValueError("chaos: unknown fault mode %r" % (mode,))
    return evaluate_selftest(spec, seed)


register_target(CHAOS_TARGET, evaluate_chaos)
