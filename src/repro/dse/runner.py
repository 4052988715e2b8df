"""Campaign execution: worker pool, chunking, seeding, failure isolation.

The runner turns a list of :class:`~repro.dse.jobs.Job` into
:class:`~repro.dse.jobs.JobResult` records:

* **cache first** — keys already in the :class:`ResultCache` are served
  without touching a worker;
* **deduplication** — identical jobs submitted twice in one campaign
  evaluate once;
* **parallelism** — misses fan out through a pluggable
  :class:`~repro.dse.executors.Executor` (default: a ``multiprocessing``
  pool in chunks; workers=1 degenerates to an in-process serial loop,
  which the legacy sweep wrappers use to reproduce historic outputs
  exactly; ``executor="network"`` hands the points to worker
  processes that may live on other hosts);
* **streaming** — :meth:`CampaignRunner.run_iter` yields results as
  they complete (``imap_unordered`` under the hood), so checkpoints and
  progress displays see every point the moment it lands instead of
  after the whole batch;
* **determinism** — every job carries a seed derived from its content
  hash, so worker assignment and execution order cannot change results;
* **failure isolation** — an evaluator exception becomes an error
  record on that one point; the campaign completes;
* **budgeted retries** — with a :class:`~repro.dse.retry.RetryPolicy`,
  failed points re-run with reseeded RNG streams (in backoff-batched
  rounds) before their failure is final.

Evaluator functions are registered by name (the job's ``target``) so the
payload shipped to workers is plain picklable data.
"""

import importlib
import json
import os
import select
import signal
import time
import traceback
from collections import deque
from dataclasses import dataclass, replace
from typing import (
    Callable,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.dse import chaos
from repro.dse.cache import ResultCache
from repro.dse.jobs import Job, JobResult
from repro.dse.retry import RetryPolicy

#: Called once per scheduled retry: (job, failed_attempt, error, backoff).
RetryCallback = Callable[[Job, int, Optional[str], float], None]

#: One evaluation outcome: (ok, result, error, elapsed).
Outcome = Tuple[bool, Optional[Dict], Optional[str], float]

#: Environment variable bounding the default pool size (CI runners and
#: laptops want deterministic small pools without touching call sites).
WORKERS_ENV = "REPRO_DSE_WORKERS"

#: Built-in target names (evaluators live in ``repro.dse.campaign``).
MEMORY_TARGET = "vaet-memory"
SYSTEM_TARGET = "magpie-system"

#: name -> fn(spec, seed) -> result dict.
_TARGETS: Dict[str, Callable[[Mapping, int], Dict]] = {}

#: Error-string prefix identifying a reaped (timed-out) evaluation.
TIMEOUT_ERROR = "EvaluationTimeout"

#: The refusal of a positive deadline where ``os.fork`` is missing.
NO_FORK_ERROR = "a deadline needs os.fork, which this platform lacks"


def timeout_error(deadline: float) -> str:
    """The canonical error string for a reaped evaluation."""
    return "%s: evaluation exceeded its %.6gs deadline" % (
        TIMEOUT_ERROR, deadline
    )


def is_timeout_error(error: Optional[str]) -> bool:
    """True if a failure record's error marks a deadline timeout."""
    return bool(error) and error.startswith(TIMEOUT_ERROR)


def register_target(name: str, fn: Callable[[Mapping, int], Dict]) -> None:
    """Register an evaluator under a target name (idempotent overwrite).

    Registrations live in the registering process only.  Under the
    ``fork`` start method workers inherit them; on ``spawn`` platforms
    (macOS/Windows defaults) use a module-qualified target name of the
    form ``"pkg.module:function"`` instead — workers import it
    themselves, no registration needed.
    """
    _TARGETS[name] = fn


def get_target(name: str) -> Callable[[Mapping, int], Dict]:
    """Resolve a target, importing the built-in evaluators on demand.

    ``"pkg.module:function"`` names are imported dynamically (and
    memoised), so they resolve in any worker regardless of the
    multiprocessing start method.

    Raises:
        KeyError: If the name is not registered and not importable.
    """
    if name not in _TARGETS:
        # Built-ins register at campaign/executors import; spawned
        # workers start with an empty registry, so resolve lazily here.
        import repro.dse.campaign  # noqa: F401
        import repro.dse.executors  # noqa: F401

    if name not in _TARGETS and ":" in name:
        module_name, _, attr = name.partition(":")
        try:
            _TARGETS[name] = getattr(importlib.import_module(module_name), attr)
        except (ImportError, AttributeError) as exc:
            raise KeyError("cannot import target %r: %s" % (name, exc))
    if name not in _TARGETS:
        raise KeyError(
            "unknown target %r; registered: %s" % (name, sorted(_TARGETS))
        )
    return _TARGETS[name]


def _failure(exc: BaseException, start: float) -> Outcome:
    """The failure outcome of an evaluation that raised ``exc``."""
    # The original exception cannot cross the process boundary
    # reliably; keep its type, message and frames as text.
    error = "%s: %s\n%s" % (type(exc).__name__, exc, traceback.format_exc())
    return (False, None, error, time.perf_counter() - start)


def _evaluate(target: str, spec: Dict, seed: int, hook: bool = True) -> Outcome:
    """Run one evaluation in this process, never raise.

    ``hook=False`` skips the chaos ``evaluate`` hook: an evaluation
    child's owner has already fired it.
    """
    start = time.perf_counter()
    try:
        if hook:
            chaos.fire("evaluate", target=target, seed=seed)
        result = get_target(target)(spec, seed)
        return (True, result, None, time.perf_counter() - start)
    except Exception as exc:  # isolation: one bad point != dead campaign
        return _failure(exc, start)


def _serve_child(requests: int, replies: int) -> None:
    """The child's loop: one outcome line per request line, until EOF.

    Keeps stdio and its pipe ends only, so it holds no socket of its owner.
    """
    try:
        low, high = sorted((requests, replies))
        os.closerange(3, low)
        os.closerange(low + 1, high)
        os.closerange(high + 1, os.sysconf("SC_OPEN_MAX"))
        with os.fdopen(requests, "rb") as lines, os.fdopen(replies, "wb") as out:
            for line in lines:
                outcome = _evaluate(*json.loads(line), hook=False)
                out.write(json.dumps(outcome).encode("utf-8") + b"\n")
                out.flush()
    finally:
        os._exit(0)  # the owner reads no status: no outcome is a crash


class EvaluationChild:
    """The deadline enforcer: one forked child, reused point after point.

    :meth:`run` forks the child on first use and sends it one point at
    a time over a pipe.  A child still busy at the deadline is
    SIGKILLed and reaped (:func:`timeout_error`); one that exits
    without an outcome fails the point as ``EvaluationCrashed``.  The
    next point forks a fresh child.  Each executor slot opens one per
    batch, as a context manager, so the child sees the environment,
    targets and fault plane its batch started with, and keeps its
    physics memo across the batch.  :meth:`close` kills the idle child;
    if its owner dies instead, the child exits at EOF on its pipe.
    """

    def __init__(self):
        self.pid = 0

    def __enter__(self) -> "EvaluationChild":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def run(self, target: str, spec: Dict, seed: int, deadline: float) -> Outcome:
        """Evaluate one point in the child within ``deadline`` seconds."""
        start = time.perf_counter()
        try:
            # Fired here, in the process that owns the fault plane, so a
            # fault's count and skip are spent as without a deadline.
            chaos.fire("evaluate", target=target, seed=seed)
        except Exception as exc:
            return _failure(exc, start)
        if not self.pid:
            if not hasattr(os, "fork"):
                raise ValueError(NO_FORK_ERROR)
            # A raw fork: daemonic pool workers may not start
            # multiprocessing children.
            request_read, send = os.pipe()
            self._recv, reply_write = os.pipe()
            self.pid = os.fork()
            if self.pid == 0:
                _serve_child(request_read, reply_write)
            os.close(request_read)
            os.close(reply_write)
            self._requests = os.fdopen(send, "wb")
        line = b""
        error = "EvaluationCrashed: deadline child exited without an outcome"
        try:
            self._requests.write(json.dumps([target, spec, seed]).encode("utf-8") + b"\n")
            self._requests.flush()
            while not line.endswith(b"\n"):
                remaining = start + deadline - time.perf_counter()
                if remaining <= 0 or not select.select([self._recv], [], [], remaining)[0]:
                    error = timeout_error(deadline)
                    break
                chunk = os.read(self._recv, 65536)
                if not chunk:
                    break
                line += chunk
        except OSError:  # the idle child is gone: the pipe broke
            pass
        if not line.endswith(b"\n"):
            self.close()
            return (False, None, error, time.perf_counter() - start)
        ok, result, error, elapsed = json.loads(line)
        return (bool(ok), result, error, float(elapsed))

    def close(self) -> None:
        """Kill and reap the child, if one is running (idempotent)."""
        if not self.pid:
            return
        try:
            self._requests.close()
        except OSError:  # a broken pipe's unflushed request
            pass
        os.close(self._recv)
        try:
            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
        except OSError:  # already reaped
            pass
        self.pid = 0


def _execute(payload: Tuple, child: Optional[EvaluationChild] = None) -> Outcome:
    """Run one evaluation; a failure becomes the outcome, never a raise.

    ``payload`` is ``(target, spec, seed, deadline)``.  A point without
    a deadline (0 or None) runs in this process.  A positive deadline
    runs it in ``child``, the caller's batch child, or else in a one-off
    child reaped before returning; without ``os.fork`` that raises
    ``ValueError(NO_FORK_ERROR)``.
    """
    target, spec, seed, deadline = payload
    if not deadline:
        return _evaluate(target, spec, seed)
    if child is None:
        with EvaluationChild() as once:
            return once.run(target, spec, seed, float(deadline))
    return child.run(target, spec, seed, float(deadline))


#: A pool worker's batch child, opened by :func:`_open_pool_child`.
_POOL_CHILD: Optional[EvaluationChild] = None


def _open_pool_child() -> None:
    """Pool initializer: give this worker one child for its batch."""
    global _POOL_CHILD
    _POOL_CHILD = EvaluationChild()


def _execute_indexed(payload: Tuple) -> Tuple[int, Outcome]:
    """Pool worker entry: echo the submission index back."""
    return payload[0], _execute(payload[1:], _POOL_CHILD)


def execute_task(task: Dict, child: Optional[EvaluationChild] = None) -> Outcome:
    """Evaluate one leased network task, as :func:`_execute` does.

    ``task`` is the lease payload built by :meth:`CampaignServer.lease
    <repro.dse.net.CampaignServer.lease>`: ``target``/``spec``/``seed``
    and an optional ``deadline``, which runs it in the worker's ``child``.
    """
    return _execute(
        (task["target"], task["spec"], int(task["seed"]), task.get("deadline")),
        child,
    )


def default_workers() -> int:
    """Default pool size: ``REPRO_DSE_WORKERS`` if set, else CPU count.

    Raises:
        ValueError: If the environment override is not a positive int.
    """
    raw = os.environ.get(WORKERS_ENV, "").strip()
    if not raw:
        return os.cpu_count() or 1
    try:
        workers = int(raw)
    except ValueError:
        raise ValueError(
            "%s must be a positive integer, got %r" % (WORKERS_ENV, raw)
        )
    if workers < 1:
        raise ValueError(
            "%s must be a positive integer, got %r" % (WORKERS_ENV, raw)
        )
    return workers


#: Throughput window for :attr:`Progress.rate`: the dispatch-start seed
#: sample plus the most recent evaluated completions.  Wide enough to
#: smooth per-point jitter, narrow enough that ETA tracks drift (slow
#: tail points, workers joining or dying) instead of the run-start mean.
ETA_WINDOW = 33


@dataclass
class Progress:
    """Snapshot of a streaming run, passed to the progress callback.

    The callback receives a fresh snapshot after every completed point
    (cache hits included), so a display or checkpoint layer never waits
    on the batch.

    Attributes:
        total: Points submitted to this run.
        done: Points completed so far (cached + evaluated).
        cached: Completions served from the result cache.
        failed: Completions whose evaluator raised.
        elapsed: Wall-clock since the run started [s].
        rate: Evaluated completions per second over the most recent
            :data:`ETA_WINDOW` window (0.0 until measurable).  Measured
            at the runner, so it already reflects parallelism — with 4
            workers it is ~4x a single worker's rate.
    """

    total: int
    done: int = 0
    cached: int = 0
    failed: int = 0
    elapsed: float = 0.0
    rate: float = 0.0

    @property
    def evaluated(self) -> int:
        """Points that actually ran an evaluator."""
        return self.done - self.cached

    @property
    def remaining(self) -> int:
        return self.total - self.done

    @property
    def eta(self) -> Optional[float]:
        """Estimated seconds to completion: ``remaining / rate``.

        None until the window has a measurable completion rate.  The
        windowed rate fixes the failure modes of the historic
        ``elapsed / evaluated * remaining`` extrapolation: wall time
        spent before dispatch — scanning the cache and streaming hits
        to the progress consumer — sat in ``elapsed`` and inflated the
        estimate (a mostly-warm resume could report an ETA many times
        the true remaining time), and throughput drift mid-run (network
        workers joining or dying) was averaged away by the run-start
        mean instead of being tracked.
        """
        if self.remaining == 0:
            return 0.0
        if self.rate > 0:
            return self.remaining / self.rate
        return None


#: Signature of the progress hook: called with a Progress snapshot.
ProgressCallback = Callable[[Progress], None]


class CampaignRunner:
    """Cached, chunked, parallel job executor.

    Args:
        workers: Pool size; ``None`` uses ``REPRO_DSE_WORKERS`` when
            set, else the CPU count; ``1`` runs serially in-process
            (no pool, no pickling).
        cache: Optional :class:`ResultCache`; hits skip evaluation,
            successful results are written back.
        chunksize: Pool chunk size; default balances ~4 chunks per
            worker to amortise dispatch without starving the pool.
        executor: Optional :class:`~repro.dse.executors.Executor`
            instance overriding the built-in choice (serial loop for
            ``workers=1`` or single-job batches, process pool
            otherwise).  The runner's cache/retry/progress semantics
            are identical under every executor.
        deadline: Per-evaluation wall-clock budget [s] (``None``/``0``
            = unbounded), stamped onto every submitted job.  Enforced
            on every executor by an :class:`EvaluationChild` per slot
            (the serial loop, each pool worker, each network worker),
            which kills a point still running at its deadline.  A
            reaped point fails with an :data:`TIMEOUT_ERROR` error and
            is retried/quarantined by the
            :class:`~repro.dse.retry.RetryPolicy` like any other
            failure.  Needs ``os.fork``; a positive deadline is refused
            where it is missing.
    """

    def __init__(
        self,
        workers: Optional[int] = None,
        cache: Optional[ResultCache] = None,
        chunksize: Optional[int] = None,
        executor=None,
        deadline: Optional[float] = None,
    ):
        if workers is not None and workers < 1:
            raise ValueError("workers must be >= 1")
        if deadline is not None and deadline < 0:
            raise ValueError("deadline must be >= 0")
        if deadline and not hasattr(os, "fork"):
            raise ValueError(NO_FORK_ERROR)
        self.workers = workers if workers is not None else default_workers()
        self.cache = cache
        self.chunksize = chunksize
        self.executor = executor
        self.deadline = float(deadline or 0.0)

    def run(
        self,
        jobs: Sequence[Job],
        progress: Optional[ProgressCallback] = None,
        retry: Optional[RetryPolicy] = None,
        retry_offsets: Optional[Mapping[str, int]] = None,
        on_retry: Optional[RetryCallback] = None,
    ) -> List[JobResult]:
        """Execute jobs, returning results aligned with the input order."""
        jobs = list(jobs)
        results: List[Optional[JobResult]] = [None] * len(jobs)
        for index, outcome in self._iter_indexed(
            jobs, progress, retry, retry_offsets, on_retry
        ):
            results[index] = outcome
        return results  # type: ignore[return-value]

    def run_iter(
        self,
        jobs: Sequence[Job],
        progress: Optional[ProgressCallback] = None,
        retry: Optional[RetryPolicy] = None,
        retry_offsets: Optional[Mapping[str, int]] = None,
        on_retry: Optional[RetryCallback] = None,
    ) -> Iterator[JobResult]:
        """Yield one :class:`JobResult` per job, in completion order.

        Cache hits stream out first; evaluated points follow as workers
        finish them (``imap_unordered``), not when the batch does.
        Successful results are written to the cache *before* they are
        yielded, so a consumer killed mid-iteration loses at most the
        in-flight points — everything already yielded is durable.

        Duplicate jobs yield one result each (evaluated once).

        Args:
            retry: Optional :class:`~repro.dse.retry.RetryPolicy` — a
                failed point re-runs with a reseeded RNG until it
                succeeds or its invocation budget is spent; only the
                final outcome is yielded (with ``attempts`` set).
            retry_offsets: Job key -> invocations already spent (from a
                journal), charged against the budget.
            on_retry: Callback fired once per scheduled retry with
                ``(job, failed_attempt, error, backoff_seconds)`` —
                the checkpoint layer journals these.
        """
        for _, outcome in self._iter_indexed(
            list(jobs), progress, retry, retry_offsets, on_retry
        ):
            yield outcome

    def _iter_indexed(
        self,
        jobs: List[Job],
        progress: Optional[ProgressCallback] = None,
        retry: Optional[RetryPolicy] = None,
        retry_offsets: Optional[Mapping[str, int]] = None,
        on_retry: Optional[RetryCallback] = None,
    ) -> Iterator[Tuple[int, JobResult]]:
        """Yield ``(input index, result)`` pairs in completion order.

        Retries run in rounds: every failure eligible for another
        attempt is held back, the round's longest backoff is slept
        once, and the reseeded jobs go through the pool together —
        so a mostly-healthy campaign never serialises on one flaky
        point's delays.
        """
        start = time.perf_counter()
        state = Progress(total=len(jobs))
        # Throughput samples for Progress.rate: (evaluated, elapsed)
        # pairs.  Only evaluated completions append, and the seed sample
        # lands when dispatch begins — so neither the cache scan nor a
        # slow progress consumer on cached ticks dilutes the rate.
        window = deque(maxlen=ETA_WINDOW)

        def tick(outcome: JobResult) -> None:
            state.done += 1
            state.cached += 1 if outcome.from_cache else 0
            state.failed += 0 if outcome.ok else 1
            state.elapsed = time.perf_counter() - start
            if not outcome.from_cache:
                window.append((state.evaluated, state.elapsed))
            if len(window) >= 2:
                span = window[-1][1] - window[0][1]
                if span > 0:
                    state.rate = (window[-1][0] - window[0][0]) / span
            if progress is not None:
                progress(replace(state))

        # Cache lookups + same-campaign deduplication.  Hits carry the
        # original evaluation's wall-clock (persisted alongside the
        # result), so read-side analytics can tell a genuinely instant
        # point from a replayed one.
        pending: Dict[str, List[int]] = {}
        for index, job in enumerate(jobs):
            record = self.cache.get(job.key) if self.cache is not None else None
            if record is not None:
                outcome = JobResult(
                    job=job, ok=True, result=record["result"],
                    from_cache=True,
                    elapsed=float(record.get("elapsed") or 0.0),
                )
                tick(outcome)
                yield index, outcome
            else:
                pending.setdefault(job.key, []).append(index)

        offsets = dict(retry_offsets or {})
        attempts: Dict[str, int] = {}
        write_back = self.cache is not None and not self._executor_persists()
        to_run = [jobs[indices[0]] for indices in pending.values()]
        # Stamp the runner's deadline onto the jobs actually submitted
        # (outside the content key, so cache addresses do not move).
        to_run = [
            job if job.deadline == self.deadline
            else replace(job, deadline=self.deadline)
            for job in to_run
        ]
        if to_run:
            # Rate-window baseline: evaluation starts *now*; everything
            # before this instant was cache traffic.
            window.append((state.evaluated, time.perf_counter() - start))
        while to_run:
            retries: List[Tuple[Job, float]] = []
            for job, (ok, result, error, elapsed) in self._imap(to_run):
                used = attempts.get(job.key, offsets.get(job.key, 0)) + 1
                attempts[job.key] = used
                if not ok and retry is not None and retry.should_retry(used):
                    backoff = retry.backoff_for(used)
                    if on_retry is not None:
                        on_retry(job, used, error, backoff)
                    retries.append((job, backoff))
                    continue
                if ok and write_back:
                    self.cache.put(
                        job.key,
                        {
                            "target": job.target,
                            "spec": dict(job.spec),
                            "result": result,
                            "elapsed": elapsed,
                        },
                    )
                for index in pending[job.key]:
                    outcome = JobResult(
                        job=jobs[index], ok=ok, result=result,
                        error=error, elapsed=elapsed, attempts=used,
                    )
                    tick(outcome)
                    yield index, outcome
            if not retries:
                break
            delay = max(backoff for _, backoff in retries)
            if delay > 0:
                time.sleep(delay)
            to_run = [
                retry.reseed(job, attempts[job.key]) for job, _ in retries
            ]

    def _executor_persists(self) -> bool:
        """True if the executor already writes results into our cache.

        A :class:`~repro.dse.net.NetworkExecutor` advertises the cache
        root its server stores to (``persist_root``); when it is this
        runner's own plain-layout cache, the write-back in
        :meth:`_iter_indexed` would duplicate every record — skip it.
        """
        root = getattr(self.executor, "persist_root", None)
        return (
            root is not None
            and type(self.cache) is ResultCache  # the layout the server uses
            and os.path.abspath(root) == os.path.abspath(self.cache.root)
        )

    def _imap(self, unique: List[Job]) -> Iterator[Tuple[Job, Outcome]]:
        """Yield ``(job, outcome)`` pairs in completion order.

        Delegates to the configured executor; without one, the historic
        behaviour is chosen per batch — a lazy in-process serial loop
        for ``workers=1`` or single-job batches, else a process pool
        streaming ``imap_unordered``.  Abandoning the generator
        mid-flight (consumer exception) tears the executor's resources
        down via its own cleanup, so no pool workers leak.
        """
        if not unique:
            return
        executor = self.executor
        if executor is None:
            # Imported lazily: executors imports this module.
            from repro.dse.executors import ProcessPoolExecutor, SerialExecutor

            if self.workers == 1 or len(unique) == 1:
                executor = SerialExecutor()
            else:
                executor = ProcessPoolExecutor(self.workers, self.chunksize)
        for job, outcome in executor.imap(unique):
            yield job, outcome
