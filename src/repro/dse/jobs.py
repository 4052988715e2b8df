"""Jobs: one evaluation point, keyed by a stable content hash.

A :class:`Job` pairs a *target* (the registered evaluator name, e.g.
``"vaet-memory"``) with a *spec* — a JSON-ready dict that fully
determines the evaluation (configs via their ``to_dict()`` forms, seeds,
sample counts).  The job key is the SHA-256 of the canonical JSON of
both, so identical design points hash identically across processes and
runs: the key is the cache address and the source of per-job RNG seeds.
"""

import hashlib
import json
from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional


def canonical_json(value: Any) -> str:
    """Serialise to the canonical JSON form used for hashing.

    Keys are sorted and separators fixed; floats rely on ``repr``
    round-tripping (exact for IEEE doubles).  Non-JSON types raise —
    specs must be built from ``to_dict()`` output, not live objects.
    """
    return json.dumps(
        value, sort_keys=True, separators=(",", ":"), allow_nan=False
    )


def content_key(target: str, spec: Mapping) -> str:
    """SHA-256 hex digest identifying one (target, spec) evaluation."""
    payload = "%s\n%s" % (target, canonical_json(spec))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class Job:
    """One schedulable evaluation.

    Attributes:
        target: Registered evaluator name (see ``repro.dse.runner``).
        spec: JSON-ready evaluation spec.
        reseed: Retry generation (0 = first attempt).  Deliberately
            excluded from the content key — a retried point keeps its
            cache address and journal identity — but folded into the
            derived RNG seed so each retry samples a fresh stream.
        deadline: Per-evaluation wall-clock budget [s] (``0`` =
            unbounded), stamped by the runner.  An evaluation that
            exceeds it is killed and recorded as an ``EvaluationTimeout``
            failure (retryable and quarantinable like any other).
            Excluded from the content key and the seed: a deadline
            bounds *how long* a point may run, never what it computes.
    """

    target: str
    spec: Mapping
    reseed: int = 0
    deadline: float = 0.0

    def __post_init__(self) -> None:
        # Freeze the key eagerly: it validates the spec is hashable
        # JSON *now*, at submission, not inside a worker.
        object.__setattr__(self, "_key", content_key(self.target, self.spec))

    @property
    def key(self) -> str:
        """Stable content hash of (target, spec)."""
        return self._key

    @property
    def fidelity(self) -> str:
        """Evaluation fidelity this job was addressed at.

        Multi-fidelity campaigns (:mod:`repro.dse.fidelity`) stamp
        ``"fidelity"`` into the spec, so it participates in the content
        key — a screening estimate and a full Monte-Carlo evaluation of
        the same design point can never collide in the cache or the
        journal.  Plain campaigns default to ``"high"``.
        """
        return str(self.spec.get("fidelity", "high"))

    @property
    def seed(self) -> int:
        """Deterministic per-job RNG seed derived from the key.

        A pure function of the job content (plus the retry generation),
        so serial, parallel and cached executions of the same point are
        bit-identical, while retries draw decorrelated streams.
        """
        if self.reseed:
            salted = "%s#retry%d" % (self.key, self.reseed)
            digest = hashlib.sha256(salted.encode("utf-8")).hexdigest()
            return int(digest[:16], 16)
        return int(self.key[:16], 16)


@dataclass
class JobResult:
    """Outcome of one job.

    Attributes:
        job: The evaluated job.
        ok: False if the evaluator raised (failure isolation — the
            campaign continues; see ``error``).
        result: Evaluator output dict (None on failure).
        error: Stringified exception on failure.
        elapsed: Evaluation wall-clock [s] (0 for cache hits).
        from_cache: True if served from the result cache.
        attempts: Evaluator invocations behind this outcome, including
            journaled attempts from earlier runs (1 for cache hits and
            untried points).
    """

    job: Job
    ok: bool
    result: Optional[Dict] = None
    error: Optional[str] = None
    elapsed: float = 0.0
    from_cache: bool = False
    attempts: int = 1
