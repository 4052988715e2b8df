"""Budgeted per-point retries with content-derived reseeding.

Long campaigns over Monte-Carlo evaluators meet two kinds of failure:
deterministic ones (an invalid configuration raises every time) and
flaky ones (resource exhaustion, rare numerical corner cases under one
RNG stream).  A :class:`RetryPolicy` gives every point a small
invocation budget:

* each retry re-runs the point with a **reseeded** RNG — the seed is
  derived from the job's content hash *and* the attempt number (see
  :attr:`~repro.dse.jobs.Job.reseed`), so retries are deterministic yet
  decorrelated from the failing stream;
* retries back off exponentially (``backoff * factor**(attempt-1)``,
  capped), and every retry is journaled with its backoff so the
  accounting survives a crash;
* a point that fails its whole budget is **quarantined**: journaled as
  flaky, reported by ``status``, excluded from Pareto ranking, and not
  re-run on resume until ``python -m repro.dse retry`` re-releases it.

Deterministic failures therefore cost ``max_attempts`` invocations once
and then replay from the journal forever; flaky points either recover
on a reseeded attempt or land in quarantine instead of silently
poisoning the campaign.

**Timeouts are a failure class like any other**: an evaluation reaped
at its deadline (see :attr:`~repro.dse.jobs.Job.deadline`) surfaces as
a failed outcome whose error carries the
:data:`~repro.dse.runner.TIMEOUT_ERROR` prefix — it spends the same
budget, retries with the same reseeded streams (a hang under one RNG
stream may converge under another), and quarantines the same way when
the budget runs out.  ``status`` counts these separately as
``timeouts``.
"""

from dataclasses import dataclass, replace
from typing import Dict, Optional

from repro.dse.jobs import Job


@dataclass(frozen=True)
class RetryPolicy:
    """Retry budget and backoff schedule for failed points.

    Args:
        max_attempts: Total evaluator invocations allowed per point
            (1 = never retry).  The budget spans resumes: attempts
            already journaled count against it.
        backoff: Base delay before the first retry [s]; 0 (the
            default) retries immediately but still journals a zero
            backoff, keeping the accounting uniform.
        backoff_factor: Multiplier per further attempt.
        max_backoff: Upper bound on any single delay [s].
    """

    max_attempts: int = 3
    backoff: float = 0.0
    backoff_factor: float = 2.0
    max_backoff: float = 60.0

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.backoff < 0 or self.max_backoff < 0:
            raise ValueError("backoff delays must be >= 0")
        if self.backoff_factor < 1:
            raise ValueError("backoff_factor must be >= 1")

    @classmethod
    def from_dict(cls, data: Optional[Dict]) -> Optional["RetryPolicy"]:
        """Build a policy from a spec/settings dict (None passes through).

        Accepts the keyword names of the constructor::

            {"max_attempts": 3, "backoff": 0.5, "backoff_factor": 2.0}
        """
        if data is None:
            return None
        if isinstance(data, RetryPolicy):
            return data
        known = ("max_attempts", "backoff", "backoff_factor", "max_backoff")
        unknown = sorted(set(data) - set(known))
        if unknown:
            raise ValueError(
                "unknown retry option(s) %s; known: %s" % (unknown, list(known))
            )
        return cls(**data)

    def should_retry(self, attempts: int) -> bool:
        """True if a point that has run ``attempts`` times may run again."""
        return attempts < self.max_attempts

    def backoff_for(self, attempt: int) -> float:
        """Delay before re-running a point whose ``attempt``-th try failed."""
        if attempt < 1:
            raise ValueError("attempt numbers start at 1")
        delay = self.backoff * (self.backoff_factor ** (attempt - 1))
        return min(delay, self.max_backoff)

    def reseed(self, job: Job, attempts: int) -> Job:
        """The job to submit for the invocation after ``attempts`` tries.

        Same target/spec (and therefore the same content key and cache
        address) but a distinct, deterministic RNG stream.  The
        ``deadline`` rides along unchanged — a timed-out point retries
        under the same deadline.
        """
        return replace(job, reseed=attempts)
