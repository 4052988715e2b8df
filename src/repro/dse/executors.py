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
* :class:`~repro.dse.net.NetworkExecutor` — the one distributed
  executor: an embedded campaign server owns the lease state in memory
  and leases points over TCP to ``python -m repro.dse worker --connect
  host:port`` processes on any host (see :mod:`repro.dse.net`).
"""

import os
import time
from typing import Dict, Iterator, Optional, Sequence, Tuple

from repro.dse.jobs import Job
from repro.dse.runner import (
    EvaluationChild,
    Outcome,
    _execute,
    _execute_indexed,
    _open_pool_child,
    default_workers,
    register_target,
)

#: Executor names understood by :func:`make_executor` and the CLI.
EXECUTOR_NAMES = ("serial", "pool", "network")

#: Conventional cache directory inside a campaign directory.
CACHE_DIR_NAME = "cache"

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
    """Evaluate in-process, lazily, one job per pull (no pool, no pickling).

    Deadline points share one evaluation child per :meth:`imap` call.
    """

    def imap(self, jobs: Sequence[Job]) -> Iterator[Tuple[Job, Outcome]]:
        with EvaluationChild() as child:
            for job in jobs:
                yield job, _execute(
                    (job.target, dict(job.spec), job.seed, job.deadline),
                    child,
                )


class ProcessPoolExecutor(Executor):
    """Fan out over a ``multiprocessing`` pool (``imap_unordered``).

    The pool lives for one :meth:`imap` call; each worker runs its
    deadline points in one evaluation child, which exits with it.

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
        with multiprocessing.Pool(self.workers, _open_pool_child) as pool:
            for position, outcome in pool.imap_unordered(
                _execute_indexed, payloads, chunksize=chunksize
            ):
                yield jobs[position], outcome


#: Keyword options the ``"network"`` executor accepts (pool sizing has
#: dedicated parameters; serial and pool take no options).
_NETWORK_OPTIONS = (
    "spawn_workers", "lease_ttl", "poll", "timeout", "spawn_idle_timeout",
    "host", "port",
)


def make_executor(
    name,
    campaign_dir: Optional[str] = None,
    workers: Optional[int] = None,
    chunksize: Optional[int] = None,
    **options,
):
    """Build an executor from its CLI/spec name (instances pass through).

    Args:
        name: ``"serial"``, ``"pool"``, ``"network"``, or an
            :class:`Executor` instance (returned unchanged).
        campaign_dir: Required for ``"network"`` (the server's cache
            and lease log live under it).
        workers / chunksize: Pool sizing for ``"pool"``.
        **options: Extra keyword arguments for the executor class
            (``spawn_workers``, ``lease_ttl``, ``timeout``, ...).

    Raises:
        ValueError: Unknown name, an option the named executor does not
            accept, or ``"network"`` without a campaign directory.
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
    if name not in EXECUTOR_NAMES:
        raise ValueError(
            "unknown executor %r; known: %s" % (name, list(EXECUTOR_NAMES))
        )
    accepted = _NETWORK_OPTIONS if name == "network" else ()
    unsupported = sorted(set(options) - set(accepted))
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
    from repro.dse.net import NetworkExecutor

    return NetworkExecutor(campaign_dir, **options)


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
