"""High-level campaigns: wire VAET-STT, NVSim and MAGPIE into the engine.

Two built-in evaluators register with the runner:

* ``"vaet-memory"`` — one memory-level design point: rebuild the PDK and
  :class:`~repro.nvsim.config.MemoryConfig` from the spec, run the
  variation-aware ECC/margin/disturb optimisation of
  :class:`~repro.vaet.explorer.DesignSpaceExplorer`, return the winning
  :class:`~repro.vaet.explorer.DesignPoint` as a dict.
* ``"magpie-system"`` — one (workload, scenario) cell of the MAGPIE
  grid: rebuild the SoC from serialised memory records, simulate, return
  the gem5-stats-style report text (the Fig. 10 file-parser artefact).

Everything an evaluator needs travels in the spec as plain JSON, so jobs
pickle cheaply, hash stably, and replay identically from cache.

A campaign is described by a frozen :class:`MemoryCampaign` (a
:class:`~repro.dse.space.ParameterSpace` of memory points) or
:class:`SystemCampaign` (a kernel x scenario grid).  Each validates
itself on construction, builds its own jobs, and turns into its journal
signature with ``to_dict()``; ``from_dict()`` reads the
``python -m repro.dse`` spec format.  Both accept ``sampler="surrogate"``
to spend the evaluation budget where a TPE-style density model says the
objective-promising designs live instead of covering the whole grid.
Memory campaigns additionally accept ``fidelity="ladder"`` to screen
the space with the cheap analytic NVSim estimate and re-evaluate only
the frontier band at full Monte-Carlo fidelity (see
:mod:`repro.dse.fidelity`).

:func:`run` runs either kind, through a (cached, parallel)
:class:`CampaignRunner`, and wraps the outcomes with Pareto helpers.
Given a directory it is *resumable*: the directory holds the result
cache plus a :class:`~repro.dse.checkpoint.CampaignState` journal, so a
campaign killed after N of M points continues with ``resume=True``
exactly where it stopped — zero re-evaluation of the N finished points.
Every campaign, ``MagpieFlow.run`` included, goes through one dispatch,
:func:`_drive` (surrogate loop, fidelity ladder, or static job list; a
MAGPIE grid is the ``workload`` x ``scenario`` space).
"""

import os
import time
from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.dse.cache import ResultCache
from repro.dse.checkpoint import (
    CampaignState,
    campaign_key,
    journal_path,
    run_checkpointed,
)
from repro.dse.executors import CACHE_DIR_NAME, make_executor
from repro.dse.fidelity import (
    FIDELITY_MODES,
    FidelityTrace,
    lowfi_twin,
    run_ladder,
)
from repro.dse.jobs import Job, JobResult
from repro.dse.pareto import ObjectiveSpec, pareto_front
from repro.dse.retry import RetryPolicy
from repro.dse.runner import (
    MEMORY_TARGET,
    SYSTEM_TARGET,
    CampaignRunner,
    ProgressCallback,
    register_target,
)
from repro.dse.space import ParameterSpace, plain_value
from repro.dse.surrogate import AdaptiveTrace, SurrogateSampler, score_records

if TYPE_CHECKING:  # campaign defaults resolve on construction, not import
    from repro.archsim.soc import SoCConfig
    from repro.nvsim.config import MemoryConfig
    from repro.vaet.explorer import DesignConstraints

#: Samplers a memory campaign understands.
SAMPLERS = ("grid", "lhs", "surrogate")

#: The model-driven samplers (propose/evaluate loops over rounds, as
#: opposed to the static grid/LHS point lists).
MODEL_SAMPLERS = ("surrogate",)

#: MemoryConfig field names an axis may override.
_CONFIG_FIELDS = (
    "rows", "cols", "word_bits", "banks",
    "subarray_rows", "subarray_cols", "memory_type", "cell",
)
#: DesignConstraints field names an axis may override.
_CONSTRAINT_FIELDS = ("wer_target", "rer_target", "disturb_budget", "max_ecc_bits")
#: Spec-level knobs an axis may override.
_SPEC_FIELDS = ("node_nm", "num_words", "error_population", "seed")
#: Every name a memory axis may carry.
_AXIS_FIELDS = _CONFIG_FIELDS + _CONSTRAINT_FIELDS + _SPEC_FIELDS


# -- evaluators (run inside workers) ------------------------------------


def evaluate_memory_point(spec: Mapping, seed: int) -> Dict:
    """Evaluate one memory-level design point from its spec.

    Args:
        spec: See :func:`memory_point_spec`.
        seed: Runner-derived content seed, used when the spec's own
            ``seed`` is None (campaign mode); an explicit spec seed wins
            (legacy sweeps pin 2018 for bit-identical tables).

    Returns:
        ``{"feasible": bool, "point": DesignPoint dict | None}``.
    """
    from repro.nvsim.config import MemoryConfig
    from repro.pdk.kit import ProcessDesignKit
    from repro.utils.heap import keep_heap_resident
    from repro.vaet.explorer import DesignConstraints, DesignSpaceExplorer

    # Once per process: stop glibc returning the evaluation's freed
    # arrays to the kernel, which the next point would fault back in.
    keep_heap_resident()
    config = MemoryConfig.from_dict(spec["config"])
    constraints = DesignConstraints.from_dict(spec["constraints"])
    explorer = DesignSpaceExplorer(
        ProcessDesignKit.for_node(int(spec["node_nm"])),
        config,
        constraints,
        num_words=int(spec.get("num_words", 1500)),
        error_population=int(spec.get("error_population", 200_000)),
    )
    chosen_seed = spec.get("seed")
    point = explorer.evaluate(
        config, seed=seed if chosen_seed is None else int(chosen_seed)
    )
    if point is None:
        return {"feasible": False, "point": None}
    return {"feasible": True, "point": point.to_dict()}


def evaluate_system_point(spec: Mapping, seed: int) -> Dict:
    """Evaluate one (workload, scenario) MAGPIE cell from its spec.

    The memory-level records arrive pre-computed in the spec (they are
    shared by every cell of a campaign), so workers only pay for the
    system simulation.

    Returns:
        ``{"report": str}`` — the gem5-stats-style activity report.
    """
    from repro.archsim.memtech import MemoryTechnology
    from repro.archsim.simulator import simulate
    from repro.archsim.soc import SoCConfig
    from repro.archsim.workloads import WorkloadDescriptor
    from repro.magpie.scenarios import Scenario, build_scenario

    base = SoCConfig.from_dict(spec["soc"])
    sram = MemoryTechnology.from_dict(spec["sram"])
    stt = MemoryTechnology.from_dict(spec["stt"])
    scenario = Scenario(spec["scenario"])
    workload = WorkloadDescriptor.from_dict(spec["workload"])
    soc = build_scenario(scenario, sram, stt, base)
    report = simulate(soc, workload)
    return {"report": report.render()}


register_target(MEMORY_TARGET, evaluate_memory_point)
register_target(SYSTEM_TARGET, evaluate_system_point)


# -- spec builders ------------------------------------------------------


def memory_point_spec(explorer, config, seed: Optional[int] = 2018) -> Dict:
    """Spec for one config under a ``DesignSpaceExplorer``'s settings.

    Args:
        explorer: The :class:`~repro.vaet.explorer.DesignSpaceExplorer`
            whose PDK/constraints/sampling settings apply.
        config: The :class:`~repro.nvsim.config.MemoryConfig` to score.
        seed: Monte Carlo seed; the default pins the historic tool seed
            so legacy sweeps reproduce; None defers to the content seed.
    """
    return {
        "node_nm": explorer.pdk.tech.node_nm,
        "config": config.to_dict(),
        "constraints": explorer.constraints.to_dict(),
        "num_words": explorer.num_words,
        "error_population": explorer.error_population,
        "seed": seed,
    }


def system_point_spec(flow, workload, scenario) -> Dict:
    """Spec for one (workload, scenario) cell of a ``MagpieFlow`` grid."""
    sram, stt = flow.memory_records()
    return {
        "node_nm": flow.node_nm,
        "wer_target": flow.wer_target,
        "soc": flow.base.to_dict(),
        "sram": sram.to_dict(),
        "stt": stt.to_dict(),
        "scenario": scenario.value,
        "workload": workload.to_dict(),
    }


def sweep_points(jobs: Sequence[Job], runner: Optional[CampaignRunner] = None):
    """Run memory jobs and return the feasible ``DesignPoint`` list.

    The compatibility path under
    :meth:`~repro.vaet.explorer.DesignSpaceExplorer.sweep_subarrays`:
    serial by default, infeasible points dropped, evaluator failures
    re-raised (the historic sweep propagated exceptions).
    """
    from repro.vaet.explorer import DesignPoint

    engine = runner if runner is not None else CampaignRunner(workers=1)
    points = []
    for outcome in engine.run(jobs):
        if not outcome.ok:
            raise RuntimeError("sweep job failed: %s" % outcome.error)
        if outcome.result["feasible"]:
            points.append(DesignPoint.from_dict(outcome.result["point"]))
    return points


# -- campaign descriptions ----------------------------------------------


def _memory_record(job: Job, outcome: JobResult) -> Optional[Dict]:
    """Flat record (spec axes + metrics + EDP) of one feasible outcome."""
    if not (outcome.ok and outcome.result.get("feasible")):
        return None
    point = dict(outcome.result["point"])
    row = dict(point.pop("config"))
    row["node_nm"] = job.spec["node_nm"]
    row["wer_target"] = job.spec["constraints"]["wer_target"]
    row.update(point)
    row["edp_proxy"] = row["write_latency"] * row["write_energy"]
    row["key"] = job.key
    return row


def check_sampler(sampler: str, known: Sequence[str] = SAMPLERS) -> None:
    """Reject an unknown sampler name, and name the removed one's successor."""
    if sampler == "adaptive":
        raise ValueError('sampler "adaptive" was removed; use "surrogate"')
    if sampler not in known:
        raise ValueError("unknown sampler %r; known: %s" % (sampler, tuple(known)))


def _check_sampler_options(space: ParameterSpace, options: Optional[Dict]) -> None:
    """Reject surrogate options before a run, not in its first round."""
    try:
        SurrogateSampler(space, **dict(options or {}))
    except (TypeError, ValueError) as exc:
        raise ValueError('bad "sampler_options": %s' % exc)


def _objectives_signature(objectives: Sequence[ObjectiveSpec]) -> List:
    return [list(o) if isinstance(o, tuple) else o for o in objectives]


#: ``run()`` options a CLI spec's ``settings`` object may also carry.
RUN_SETTINGS = ("workers", "deadline")


def _spec_values(cls, data: Mapping) -> Dict:
    """The campaign fields a CLI spec sets.

    ``cls.SPEC_KEYS`` sit at the spec's top level, the other fields in
    its ``settings`` object.  ``settings`` may also carry the
    :data:`RUN_SETTINGS`, which are left for the caller; any other name
    is refused.
    """
    names = [f.name for f in fields(cls) if f.name not in cls.SPEC_KEYS]
    known = sorted(names + list(RUN_SETTINGS))
    settings = data.get("settings") or {}
    for name in settings:
        if name not in known:
            raise ValueError(
                "unknown setting %r; known: %s" % (name, ", ".join(known))
            )
    values = {name: data[name] for name in cls.SPEC_KEYS if name in data}
    values.update((name, settings[name]) for name in names if name in settings)
    if "objectives" in values:
        values["objectives"] = tuple(values["objectives"])
    return values


@dataclass(frozen=True)
class MemoryCampaign:
    """A memory-level (VAET-STT) campaign over a parameter space.

    Axis names map onto :class:`MemoryConfig` fields, ``DesignConstraints``
    fields, or the spec-level knobs ``node_nm`` / ``num_words`` /
    ``error_population`` / ``seed``.  Invalid combinations (e.g. a
    subarray taller than the array) become per-point error records, not
    campaign aborts.  Run it with :func:`run`.

    Attributes:
        space: The axes to sweep.
        base_config: Starting organisation (default: the paper array).
        constraints: Baseline reliability constraints (default:
            ``DesignConstraints()``).
        node_nm: Default PDK node when no ``node_nm`` axis is given.
        num_words / error_population: Monte Carlo sampling effort.
        seed: Spec seed for every point (None = per-point content seed).
        samples: If set, latin-hypercube sample this many points instead
            of the full grid.
        sample_seed: LHS permutation seed.
        sampler: ``"grid"`` (default), ``"lhs"`` (requires ``samples``),
            or ``"surrogate"`` — TPE-style density-ratio model over the
            full space, spending its budget where the designs best
            under ``objectives`` live (see :mod:`repro.dse.surrogate`).
        sampler_options: ``SurrogateSampler`` overrides (batch, rounds,
            gamma, candidates, smoothing, init_rounds, seed).
        objectives: Surrogate scoring objectives over the feasible
            records (Pareto dominance ranks when more than one); also
            rank the ladder's low-fidelity screen.
        fidelity: ``"high"`` (default) — every point pays the full
            Monte-Carlo evaluation; ``"low"`` — every point uses the
            analytic NVSim-class estimate only (quick sweeps,
            calibration); ``"ladder"`` — screen every point at low
            fidelity, then re-evaluate only the frontier band at high
            fidelity (see :mod:`repro.dse.fidelity`).  Static samplers
            only.  Part of every job's content key and, when not
            ``"high"``, of the campaign signature.
        promote_ranks: Ladder promotion depth — low-fidelity Pareto
            ranks up to this value (under ``objectives``) advance to
            the Monte-Carlo stage.

    Raises:
        ValueError: On construction, for an axis that maps to no field,
            an unknown sampler or fidelity mode, ``sampler_options`` the
            surrogate refuses, ``"lhs"`` without ``samples``, a
            model-driven sampler with a non-``"high"`` fidelity, or a
            negative ``promote_ranks``.
    """

    space: ParameterSpace
    base_config: Optional["MemoryConfig"] = None
    constraints: Optional["DesignConstraints"] = None
    node_nm: int = 45
    num_words: int = 1500
    error_population: int = 200_000
    seed: Optional[int] = 2018
    samples: Optional[int] = None
    sample_seed: int = 0
    sampler: str = "grid"
    sampler_options: Optional[Dict] = None
    objectives: Sequence[ObjectiveSpec] = ("edp_proxy",)
    fidelity: str = "high"
    promote_ranks: int = 1

    #: Fields a CLI spec sets at its top level (``space`` as its
    #: ``axes`` object); the others go in its ``settings`` object.
    SPEC_KEYS = ("space", "sampler", "samples", "sampler_options",
                 "objectives", "fidelity", "promote_ranks")

    def __post_init__(self):
        from repro.nvsim.config import PAPER_ARRAY
        from repro.vaet.explorer import DesignConstraints

        for axis in self.space.axes:
            if axis.name not in _AXIS_FIELDS:
                raise ValueError(
                    "axis %r maps to no MemoryConfig/DesignConstraints/spec "
                    "field; known: %s" % (axis.name, sorted(_AXIS_FIELDS))
                )
        check_sampler(self.sampler)
        if self.sampler in MODEL_SAMPLERS:
            _check_sampler_options(self.space, self.sampler_options)
        if self.sampler == "lhs" and self.samples is None:
            raise ValueError('sampler="lhs" requires samples')
        if self.fidelity not in FIDELITY_MODES:
            raise ValueError(
                "unknown fidelity %r; known: %s" % (self.fidelity, FIDELITY_MODES)
            )
        if self.fidelity != "high" and self.sampler in MODEL_SAMPLERS:
            raise ValueError(
                'fidelity=%r requires a static sampler ("grid"/"lhs"); '
                "model-driven samplers budget their own evaluations"
                % (self.fidelity,)
            )
        ranks = self.promote_ranks
        if not isinstance(ranks, int) or isinstance(ranks, bool) or ranks < 0:
            raise ValueError(
                '"promote_ranks" must be a non-negative integer, got %r' % (ranks,)
            )
        if self.base_config is None:
            object.__setattr__(self, "base_config", PAPER_ARRAY)
        if self.constraints is None:
            object.__setattr__(self, "constraints", DesignConstraints())

    def jobs(self, points: Iterable[Mapping]) -> List[Job]:
        """Memory-level jobs for design points (axis-name -> value dicts)."""
        jobs = []
        for point in points:
            config_dict = self.base_config.to_dict()
            constraint_dict = self.constraints.to_dict()
            spec = {
                "node_nm": self.node_nm,
                "num_words": self.num_words,
                "error_population": self.error_population,
                "seed": self.seed,
            }
            for name, value in point.items():
                value = plain_value(value)
                if name in _CONFIG_FIELDS:
                    config_dict[name] = value
                elif name in _CONSTRAINT_FIELDS:
                    constraint_dict[name] = value
                else:
                    spec[name] = value
            spec["config"] = config_dict
            spec["constraints"] = constraint_dict
            jobs.append(Job(MEMORY_TARGET, spec))
        return jobs

    def to_dict(self) -> Dict:
        """The campaign signature its journal is keyed by."""
        signature = {
            "kind": "memory",
            "axes": [
                [axis.name, [plain_value(value) for value in axis.values]]
                for axis in self.space.axes
            ],
            "base_config": self.base_config.to_dict(),
            "constraints": self.constraints.to_dict(),
            "node_nm": self.node_nm,
            "num_words": self.num_words,
            "error_population": self.error_population,
            "seed": self.seed,
            "samples": self.samples,
            "sample_seed": self.sample_seed,
            "sampler": self.sampler,
            "sampler_options": dict(self.sampler_options or {}),
            "objectives": _objectives_signature(self.objectives),
        }
        if self.fidelity != "high":
            # Only non-default modes stamp the signature, so campaign keys
            # (and therefore resumability) of existing journals are stable.
            signature["fidelity"] = self.fidelity
            signature["promote_ranks"] = self.promote_ranks
        return signature

    @classmethod
    def from_dict(cls, data: Mapping) -> "MemoryCampaign":
        """The campaign of a ``"kind": "memory"`` CLI spec.

        The spec holds its axes as an ``axes`` object, the
        :attr:`SPEC_KEYS` at its top level and the other fields in a
        ``settings`` object, where ``base_config`` and ``constraints``
        are :meth:`MemoryConfig.to_dict` / ``DesignConstraints.to_dict``
        objects.

        Raises:
            ValueError: On an unknown setting or config field, an empty
                axis, or any check of the constructor.
        """
        from repro.nvsim.config import MemoryConfig
        from repro.vaet.explorer import DesignConstraints

        values = _spec_values(cls, data)
        if "base_config" in values:
            values["base_config"] = MemoryConfig.from_dict(values["base_config"])
        if "constraints" in values:
            values["constraints"] = DesignConstraints.from_dict(values["constraints"])
        values["space"] = ParameterSpace(list(data["axes"].items()))
        return cls(**values)

    def _drive(self, execute):
        return _drive(
            self.space, self.jobs, execute, _memory_record, self.sampler,
            self.samples, self.sample_seed, self.sampler_options,
            self.objectives, self.fidelity, self.promote_ranks,
        )

    def _result(self, value, elapsed, cache_stats, quarantined):
        jobs, outcomes, trace, ftrace = value
        return MemoryCampaignResult(
            jobs=jobs, outcomes=outcomes, elapsed=elapsed,
            cache_stats=cache_stats, adaptive=trace,
            quarantined=quarantined, fidelity=ftrace,
        )


@dataclass(frozen=True)
class SystemCampaign:
    """A system-level (MAGPIE) campaign over a kernel x scenario grid.

    The memory level runs once per run and its records are shared by
    every cell.  Run it with :func:`run`.

    Attributes:
        workloads / scenarios: Grid axes (defaults: all kernels, all
            four paper scenarios); validated and filled in on
            construction, scenarios as :class:`Scenario` members.
        node_nm / base / wer_target: ``MagpieFlow`` settings (``base``
            defaults to ``SoCConfig.full_sram()``).
        sampler: ``"grid"`` (default, the full cross product) or
            ``"surrogate"`` — model the cells best under ``objectives``
            with the TPE-style density-ratio sampler instead of
            evaluating every cell.
        sampler_options / objectives: As in :class:`MemoryCampaign`
            (default objective: EDP).

    Raises:
        KeyError: On construction, for an unknown kernel or scenario.
        ValueError: On construction, for an unknown sampler or
            ``sampler_options`` the surrogate refuses.
    """

    workloads: Optional[Sequence[str]] = None
    scenarios: Optional[Sequence] = None
    node_nm: int = 45
    base: Optional["SoCConfig"] = None
    wer_target: float = 1e-9
    sampler: str = "grid"
    sampler_options: Optional[Dict] = None
    objectives: Sequence[ObjectiveSpec] = ("edp",)

    #: Fields a CLI spec sets at its top level; the others go in its
    #: ``settings`` object.
    SPEC_KEYS = ("workloads", "scenarios", "sampler", "sampler_options",
                 "objectives")

    def __post_init__(self):
        from repro.archsim.soc import SoCConfig
        from repro.magpie.flow import MagpieFlow

        check_sampler(self.sampler, ("grid",) + MODEL_SAMPLERS)
        names, chosen = MagpieFlow.validate_grid(self.workloads, self.scenarios)
        object.__setattr__(self, "workloads", tuple(names))
        object.__setattr__(self, "scenarios", tuple(chosen))
        if self.sampler in MODEL_SAMPLERS:
            _check_sampler_options(self.space, self.sampler_options)
        if self.base is None:
            object.__setattr__(self, "base", SoCConfig.full_sram())

    @property
    def space(self) -> ParameterSpace:
        """The ``workload`` x ``scenario`` space.

        Its grid order is the historic cell order: every scenario of the
        first kernel, then the next kernel.
        """
        return ParameterSpace([
            ("workload", self.workloads),
            ("scenario", [s.value for s in self.scenarios]),
        ])

    def jobs(self, points: Iterable[Mapping], flow) -> List[Job]:
        """One job per (workload, scenario) point, carrying ``flow``'s
        memory-level records."""
        from repro.archsim.workloads import PARSEC_KERNELS
        from repro.magpie.scenarios import Scenario

        return [
            Job(SYSTEM_TARGET, system_point_spec(
                flow, PARSEC_KERNELS[point["workload"]],
                Scenario(point["scenario"]),
            ))
            for point in points
        ]

    def to_dict(self) -> Dict:
        """The campaign signature its journal is keyed by."""
        signature = {
            "kind": "system",
            "workloads": list(self.workloads),
            "scenarios": [s.value for s in self.scenarios],
            "node_nm": self.node_nm,
            "wer_target": self.wer_target,
            "base": self.base.to_dict(),
        }
        if self.sampler != "grid":
            # As with a memory campaign's fidelity: only a non-default
            # sampler stamps the signature, so grid keys stay pinned.
            signature["sampler"] = self.sampler
            signature["sampler_options"] = dict(self.sampler_options or {})
            signature["objectives"] = _objectives_signature(self.objectives)
        return signature

    @classmethod
    def from_dict(cls, data: Mapping) -> "SystemCampaign":
        """The campaign of a ``"kind": "system"`` CLI spec.

        The :attr:`SPEC_KEYS` sit at the spec's top level, the other
        fields in its ``settings`` object, where ``base`` is a
        ``SoCConfig.to_dict`` object.

        Raises:
            KeyError / ValueError: On an unknown setting, config field,
                kernel or scenario, a ``fidelity`` other than
                ``"high"``, or an unknown sampler.
        """
        from repro.archsim.soc import SoCConfig

        if data.get("fidelity", "high") != "high":
            raise ValueError('"fidelity" applies to memory campaigns only')
        values = _spec_values(cls, data)
        if "base" in values:
            values["base"] = SoCConfig.from_dict(values["base"])
        return cls(**values)

    def _drive(self, execute, flow=None):
        """This campaign's cells, run by :func:`_drive` over ``execute``.

        ``flow`` supplies the memory-level records (default: a new
        ``MagpieFlow`` of this campaign's settings).

        Returns:
            ``(grid, sampler trace)`` — the (kernel, Scenario) ->
            ``ScenarioResult`` grid of the evaluated cells, in evaluation
            order.
        """
        from repro.magpie.flow import MagpieFlow

        if flow is None:
            flow = MagpieFlow(
                node_nm=self.node_nm, base=self.base, wer_target=self.wer_target
            )

        def record(job, outcome):
            return _system_row(*_system_cell(flow, job, outcome))

        jobs, outcomes, trace, _ = _drive(
            self.space, lambda points: self.jobs(points, flow), execute,
            record, self.sampler, sampler_options=self.sampler_options,
            objectives=self.objectives,
        )
        grid = dict(
            _system_cell(flow, job, outcome)
            for job, outcome in zip(jobs, outcomes)
        )
        return grid, trace

    def _result(self, value, elapsed, cache_stats, quarantined):
        results, trace = value
        return SystemCampaignResult(
            results=results, elapsed=elapsed, cache_stats=cache_stats,
            adaptive=trace,
        )


# -- results ------------------------------------------------------------


@dataclass
class MemoryCampaignResult:
    """Outcome of :func:`run` for a :class:`MemoryCampaign`.

    Attributes:
        jobs: Submitted jobs, in point order.
        outcomes: Per-job results (aligned with ``jobs``).
        elapsed: Campaign wall-clock [s].
        cache_stats: Cache session counters (None when uncached).
        adaptive: Sampler trace when the campaign ran the model-driven
            ``"surrogate"`` sampler.
        quarantined: Job keys whose retry budget is exhausted (flaky
            points) — excluded from :meth:`records` and therefore from
            Pareto ranking.
        fidelity: Screening trace when the campaign ran
            ``fidelity="ladder"`` (see :mod:`repro.dse.fidelity`);
            ``jobs``/``outcomes`` then hold only the promoted
            high-fidelity evaluations.
    """

    jobs: List[Job]
    outcomes: List[JobResult]
    elapsed: float
    cache_stats: Optional[Dict] = None
    adaptive: Optional[AdaptiveTrace] = None
    quarantined: List[str] = field(default_factory=list)
    fidelity: Optional[FidelityTrace] = None

    def records(self) -> List[Dict]:
        """Feasible points as flat dicts: spec axes + metrics + EDP.

        Quarantined (flaky) points are excluded even if an earlier
        attempt left a result behind — a point the campaign cannot
        evaluate reliably must not anchor a Pareto frontier.
        """
        blocked = set(self.quarantined)
        rows = []
        for job, outcome in zip(self.jobs, self.outcomes):
            if job.key in blocked:
                continue
            row = _memory_record(job, outcome)
            if row is not None:
                rows.append(row)
        return rows

    def screening_records(self) -> List[Dict]:
        """Low-fidelity screening rows of a ``fidelity="ladder"`` run.

        Empty for single-fidelity campaigns.  The calibration harness
        joins these against :meth:`records` to measure the analytic
        model's error distribution.
        """
        if self.fidelity is None:
            return []
        return self.fidelity.records(_memory_record)

    def errors(self) -> List[JobResult]:
        """Failed outcomes (failure isolation keeps them out of records)."""
        return [outcome for outcome in self.outcomes if not outcome.ok]

    def infeasible(self) -> int:
        """Count of points that met no constraint-satisfying design."""
        return sum(
            1 for o in self.outcomes if o.ok and not o.result.get("feasible")
        )

    @property
    def cache_hits(self) -> int:
        return sum(1 for o in self.outcomes if o.from_cache)

    def pareto(
        self,
        objectives: Sequence[ObjectiveSpec] = (
            "write_latency", "write_energy", "area",
        ),
    ) -> List[Dict]:
        """Non-dominated records under the given objectives."""
        return pareto_front(self.records(), objectives)


def _system_cell(flow, job: Job, outcome: JobResult) -> Tuple:
    """``((kernel, Scenario), ScenarioResult)`` of one cell's outcome.

    Raises:
        RuntimeError: On a failed cell (system campaigns keep the
            historic fail-fast contract of ``MagpieFlow.run``).
    """
    from repro.archsim.stats import ActivityReport
    from repro.magpie.flow import ScenarioResult
    from repro.magpie.scenarios import Scenario
    from repro.mcpat.components import estimate_energy

    name = job.spec["workload"]["name"]
    scenario = Scenario(job.spec["scenario"])
    if not outcome.ok:
        raise RuntimeError(
            "MAGPIE job (%s, %s) failed: %s"
            % (name, scenario.value, outcome.error)
        )
    report = ActivityReport.parse(outcome.result["report"])
    energy = estimate_energy(flow.build_soc(scenario), report)
    return (name, scenario), ScenarioResult(
        scenario=scenario, report=report, energy=energy
    )


def _system_row(cell: Tuple, result) -> Dict:
    """Flat record of one (kernel, Scenario) cell's ``ScenarioResult``."""
    kernel, scenario = cell
    energy = result.energy.total_energy
    return {
        "workload": kernel,
        "scenario": scenario.value,
        "exec_time": result.energy.exec_time,
        "energy": energy,
        "edp": energy * result.energy.exec_time,
    }


@dataclass
class SystemCampaignResult:
    """Outcome of :func:`run` for a :class:`SystemCampaign`.

    Attributes:
        results: (kernel, Scenario) -> ``ScenarioResult`` grid (the
            evaluated subset, for surrogate campaigns).
        elapsed: Campaign wall-clock [s].
        cache_stats: Cache session counters (None when uncached).
        adaptive: Sampler trace when the campaign ran
            ``sampler="surrogate"``.
    """

    results: Dict
    elapsed: float
    cache_stats: Optional[Dict] = None
    adaptive: Optional[AdaptiveTrace] = None

    def records(self) -> List[Dict]:
        """Grid cells as flat dicts with exec time, energy and EDP."""
        return [_system_row(cell, result) for cell, result in self.results.items()]

    def pareto(
        self, objectives: Sequence[ObjectiveSpec] = ("exec_time", "energy")
    ) -> List[Dict]:
        """Non-dominated grid cells under the given objectives."""
        return pareto_front(self.records(), objectives)


# -- running ------------------------------------------------------------


def _drive(
    space: ParameterSpace,
    build_jobs,
    execute,
    record,
    sampler: str = "grid",
    samples: Optional[int] = None,
    sample_seed: int = 0,
    sampler_options: Optional[Dict] = None,
    objectives: Sequence[ObjectiveSpec] = (),
    fidelity: str = "high",
    promote_ranks: int = 1,
):
    """Every campaign's one dispatch, over the caller's ``execute``.

    Runs the surrogate loop, the fidelity ladder, or the static (grid /
    LHS, high or low fidelity) job list; every batch goes through
    ``execute(jobs) -> outcomes``, and ``record(job, outcome)`` turns an
    outcome into the flat row the surrogate and the ladder score
    (:func:`_memory_record`, or a system row, which raises on a failed
    cell).  Arguments are a campaign's fields, already validated.

    Returns:
        ``(jobs, outcomes, sampler trace, fidelity trace)``; a trace is
        None when the campaign ran no such stage.
    """
    if sampler in MODEL_SAMPLERS:
        # Jobs/outcomes accumulate across rounds in first-seen order.
        jobs: List[Job] = []
        outcomes: List[JobResult] = []
        seen = set()

        def evaluate(points):
            batch = build_jobs(points)
            results = execute(batch)
            for job, outcome in zip(batch, results):
                if job.key not in seen:
                    seen.add(job.key)
                    jobs.append(job)
                    outcomes.append(outcome)
            rows = [record(j, o) for j, o in zip(batch, results)]
            return score_records(rows, objectives)

        model = SurrogateSampler(space, **dict(sampler_options or {}))
        return jobs, outcomes, model.run(evaluate), None
    if samples is not None:
        points = space.sample(samples, seed=sample_seed)
    else:
        points = list(space.grid())
    jobs = build_jobs(points)
    if fidelity == "ladder":
        jobs, outcomes, ftrace = run_ladder(
            jobs, execute, record, objectives, promote_ranks=promote_ranks,
        )
        return jobs, outcomes, None, ftrace
    if fidelity == "low":
        jobs = [lowfi_twin(job) for job in jobs]
    return jobs, execute(jobs), None, None


def _run_journaled(
    journal: str,
    campaign,
    runner: CampaignRunner,
    resume: bool,
    retry_failed: bool,
    retry: Optional[RetryPolicy],
    progress: Optional[ProgressCallback],
):
    """Run ``campaign`` with every batch journaled at ``journal``.

    The journal opens on the first batch, keyed by the campaign's
    signature, and its total grows as later batches (surrogate rounds,
    ladder confirms) are planned.  It closes on every exit.

    Returns:
        ``(the campaign's drive value, quarantined job keys)``.
    """
    signature = campaign.to_dict()
    state = None
    planned = 0

    def execute(batch):
        nonlocal state, planned
        planned += len(batch)
        if state is None:
            state = CampaignState.open(
                journal, campaign_key(signature), total=planned,
                resume=resume, meta=signature,
            )
        state.total = max(state.total, planned)
        return run_checkpointed(
            batch, runner, state, retry_failed=retry_failed,
            retry=retry, progress=progress,
        )

    try:
        value = campaign._drive(execute)
        if state is None:  # a surrogate over an axis-less space plans nothing
            execute([])
    finally:
        if state is not None:
            state.close()
    return value, sorted(state.quarantined)


def run(
    campaign,
    directory: Optional[str] = None,
    *,
    runner: Optional[CampaignRunner] = None,
    workers: Optional[int] = None,
    executor=None,
    executor_options: Optional[Dict] = None,
    deadline: Optional[float] = None,
    resume: bool = False,
    retry_failed: bool = False,
    retry: Optional[RetryPolicy] = None,
    progress: Optional[ProgressCallback] = None,
):
    """Run a :class:`MemoryCampaign` or :class:`SystemCampaign`.

    Without a ``directory`` the campaign runs through ``runner`` (default:
    a fresh, uncached one), journal-free.  With one it is *resumable*:
    ``directory`` holds the result cache (``cache/``) and the
    append-only JSONL journal (``journal.jsonl``), both written as
    results arrive, so a campaign killed after N of M points continues
    with ``resume=True`` — the N finished points come back as
    cache/journal hits (zero re-evaluation) and the results are
    identical to an uninterrupted run.

    Args:
        campaign: What to run.
        directory: Campaign home; created on first write.
        runner: A pre-built :class:`CampaignRunner` (its cache, pool,
            executor and deadline) for a journal-free run.
        workers: Pool size (None = ``REPRO_DSE_WORKERS`` or CPU count).
        executor: Execution backend: ``"serial"``, ``"pool"``,
            ``"network"`` (an embedded campaign server leases points
            over TCP to ``worker --connect`` processes on any host —
            see :mod:`repro.dse.net`; needs a ``directory``), or an
            :class:`~repro.dse.executors.Executor` instance, which stays
            the caller's to close.  The executor changes *where* points
            evaluate, never the journal format, the campaign signature,
            or the results.
        executor_options: Extra keyword arguments for a named executor
            (``spawn_workers``, ``lease_ttl``, ``timeout``, ...).
        deadline: Per-evaluation wall-clock budget [s]; a point still
            running past it is reaped and recorded as a timeout failure
            (retryable / quarantinable under ``retry``, counted by
            ``status``).  A scheduling knob outside the content key and
            the campaign signature, so a resumed campaign may change it.
        resume: Continue the directory's journal instead of starting
            fresh.  Refuses a journal whose signature
            (:meth:`MemoryCampaign.to_dict`) differs from the campaign's.
        retry_failed: Re-run points the journal marks failed instead of
            replaying their recorded errors (quarantined points are
            released first).
        retry: Optional :class:`~repro.dse.retry.RetryPolicy` — failed
            points re-run with reseeded RNG streams before their failure
            is final.  Journaled runs journal each retry (the budget
            spans resumes) and quarantine budget-exhausted points.
        progress: Per-point streaming callback (one
            :class:`~repro.dse.runner.Progress` snapshot per completed
            point; surrogate campaigns restart the count each round).

    Returns:
        A :class:`MemoryCampaignResult` or :class:`SystemCampaignResult`.
        A system campaign raises ``RuntimeError`` on a failed cell.

    Raises:
        ValueError: On an option that would do nothing: ``runner`` with
            ``directory``, ``workers``, ``executor``,
            ``executor_options`` or ``deadline``; ``executor_options``
            without an ``executor``; ``resume`` or ``retry_failed``
            without a ``directory``.  Also on a version-1 campaign
            directory.
    """
    if runner is not None:
        engine_options = (
            ("directory", directory), ("workers", workers),
            ("executor", executor), ("executor_options", executor_options),
            ("deadline", deadline),
        )
        given = [name for name, value in engine_options if value is not None]
        if given:
            raise ValueError(
                "a runner brings its own cache, pool, executor and deadline; "
                "%s cannot apply to it" % ", ".join(given)
            )
    if executor_options and executor is None:
        raise ValueError("executor_options need a named executor")
    if directory is None and (resume or retry_failed):
        raise ValueError("resume and retry_failed need a campaign directory")
    start = time.perf_counter()
    journal = None
    built = None  # an executor built here from its name, closed here
    if runner is None:
        cache = None
        if directory is not None:
            journal = journal_path(directory)  # refuses a version-1 directory
            cache = ResultCache(os.path.join(directory, CACHE_DIR_NAME))
        engine = executor
        if executor is not None:
            engine = make_executor(
                executor, campaign_dir=directory, workers=workers,
                **dict(executor_options or {}),
            )
            if engine is not executor:
                built = engine
        runner = CampaignRunner(
            workers=workers, cache=cache, executor=engine, deadline=deadline
        )
    try:
        if journal is None:
            value = campaign._drive(
                lambda batch: runner.run(batch, progress=progress, retry=retry)
            )
            quarantined = []
        else:
            value, quarantined = _run_journaled(
                journal, campaign, runner, resume, retry_failed, retry, progress
            )
    finally:
        if built is not None:
            built.close()
    stats = runner.cache.stats() if runner.cache is not None else None
    return campaign._result(
        value, time.perf_counter() - start, stats, quarantined
    )


def _split_options(space: ParameterSpace, options: Dict):
    """``(MemoryCampaign, run options)`` of the legacy keyword form."""
    names = {f.name for f in fields(MemoryCampaign)}
    campaign = MemoryCampaign(
        space, **{k: v for k, v in options.items() if k in names}
    )
    return campaign, {k: v for k, v in options.items() if k not in names}


def explore_memory(space: ParameterSpace, **options) -> MemoryCampaignResult:
    """``run(MemoryCampaign(space, **fields), **rest)`` in one call.

    Exists only because the benchmark harness (``perfbench/``) calls it;
    new code calls :func:`run`.  ``options`` are split by the fields of
    :class:`MemoryCampaign`.
    """
    campaign, rest = _split_options(space, options)
    return run(campaign, **rest)


def run_memory_campaign(
    space: ParameterSpace, campaign_dir: str, **options
) -> MemoryCampaignResult:
    """``run(MemoryCampaign(space, **fields), campaign_dir, **rest)``.

    Exists only because the benchmark harness (``perfbench/``) calls it;
    new code calls :func:`run`.  ``options`` are split by the fields of
    :class:`MemoryCampaign`.
    """
    campaign, rest = _split_options(space, options)
    return run(campaign, campaign_dir, **rest)
