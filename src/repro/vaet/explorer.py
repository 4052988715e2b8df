"""Variation-aware design-space exploration.

Sec. III: VAET-STT is "an early stage design exploration tool for
STT-MRAM, which considers process variation, stochastic switching and
reliability requirements in its analysis and memory configuration
optimization"; Sec. IV-B adds "optimization settings (e.g. buffer
design optimization) and various design constraints to facilitate a
variation-aware design space exploration before the fabrication of the
actual memory chip."

The explorer sweeps organisation knobs (subarray shape, ECC strength)
under reliability constraints (target WER/RER, read-disturb budget)
and reports the latency/energy/area frontier.
"""

import threading
from collections import OrderedDict
from dataclasses import dataclass, replace
from typing import Iterable, List, Optional, Sequence

from repro.nvsim.config import MemoryConfig
from repro.pdk.kit import ProcessDesignKit
from repro.utils.serde import check_known_fields
from repro.utils.table import Table
from repro.vaet.ecc import ECCAnalysis
from repro.vaet.error_rates import ErrorRateAnalysis, ReadMarginResult
from repro.vaet.estimator import DEFAULT_SEED, VAETSTT
from repro.vaet.montecarlo import MonteCarloEngine
from repro.vaet.read_disturb import ReadDisturbAnalysis
from repro.vaet.variation_model import (
    clear_standard_normals,
    scalar_reference_enabled,
)


@dataclass(frozen=True)
class DesignConstraints:
    """Reliability constraints of the exploration.

    Attributes:
        wer_target: Per-word write error target after ECC.
        rer_target: Per-word read error target.
        disturb_budget: Per-word read-disturb budget per access.  The
            disturb tail is dominated by weak (low-Delta) cells, so the
            practical budget sits orders of magnitude above the WER/RER
            targets; scrubbing plus the write-path ECC absorbs it.
        max_ecc_bits: Largest correction capability considered.
    """

    wer_target: float = 1e-15
    rer_target: float = 1e-15
    disturb_budget: float = 1e-4
    max_ecc_bits: int = 3

    def to_dict(self) -> dict:
        """Stable JSON-ready representation (cache-key safe)."""
        return {
            "wer_target": self.wer_target,
            "rer_target": self.rer_target,
            "disturb_budget": self.disturb_budget,
            "max_ecc_bits": self.max_ecc_bits,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "DesignConstraints":
        """Inverse of :meth:`to_dict`.

        Raises:
            ValueError: On unknown keys.
        """
        check_known_fields(cls, data)
        return cls(**data)


@dataclass(frozen=True)
class DesignPoint:
    """One evaluated configuration.

    Attributes:
        config: The memory organisation.
        ecc_bits: Chosen ECC correction capability.
        write_latency: Margined write latency meeting the WER target [s].
        read_latency: Margined read latency meeting the RER target [s].
        write_energy: Mean variation-aware write energy [J].
        read_energy: Mean variation-aware read energy [J].
        area: Macro area including ECC storage overhead [m^2].
        read_disturb_ok: Whether the margined read period respects the
            disturb budget.
    """

    config: MemoryConfig
    ecc_bits: int
    write_latency: float
    read_latency: float
    write_energy: float
    read_energy: float
    area: float
    read_disturb_ok: bool

    @property
    def edp_proxy(self) -> float:
        """Latency x energy figure of merit (write-dominated)."""
        return self.write_latency * self.write_energy

    def to_dict(self) -> dict:
        """Stable JSON-ready representation (crosses process/cache
        boundaries in ``repro.dse`` campaigns)."""
        return {
            "config": self.config.to_dict(),
            "ecc_bits": self.ecc_bits,
            "write_latency": float(self.write_latency),
            "read_latency": float(self.read_latency),
            "write_energy": float(self.write_energy),
            "read_energy": float(self.read_energy),
            "area": float(self.area),
            "read_disturb_ok": bool(self.read_disturb_ok),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "DesignPoint":
        """Inverse of :meth:`to_dict`.

        Raises:
            ValueError: On unknown keys.
        """
        check_known_fields(cls, data)
        values = dict(data)
        values["config"] = MemoryConfig.from_dict(values["config"])
        return cls(**values)


@dataclass(frozen=True)
class _Physics:
    """The WER-independent stage of one point: everything but the ECC
    choice, which alone reads ``wer_target`` and ``max_ecc_bits``.

    Attributes:
        area: Nominal macro area, before ECC storage [m^2].
        write_energy: Mean variation-aware write energy [J].
        read_energy: Mean variation-aware read energy [J].
        read: The read-margin solve at the RER target.
        disturb_ok: Whether its sense time respects the disturb budget.
        engine: The array's Monte Carlo engine (word width, overheads).
        population: The error population the ECC sweep solves on.
    """

    area: float
    write_energy: float
    read_energy: float
    read: ReadMarginResult
    disturb_ok: bool
    engine: MonteCarloEngine
    population: ErrorRateAnalysis


#: WER-independent records, and error populations, kept for sibling
#: points.  In every grid of the repo a point's siblings sit 1-4
#: positions apart, with at most two keys of either kind interleaved.
PHYSICS_MEMO_ENTRIES = 2

_physics_memo: "OrderedDict[tuple, Optional[_Physics]]" = OrderedDict()
_population_memo: "OrderedDict[tuple, ErrorRateAnalysis]" = OrderedDict()
_physics_lock = threading.Lock()


_MISS = object()


def _recall(memo: OrderedDict, key: tuple):
    """The record under ``key``, made the newest, or ``_MISS``; always
    ``_MISS`` under ``REPRO_VAET_SCALAR``, which keeps no records.

    A miss drops the records the caller's new one will evict now, so
    their arrays are freed before the new one's are allocated.
    """
    if scalar_reference_enabled():
        return _MISS
    with _physics_lock:
        record = memo.get(key, _MISS)
        if record is _MISS:
            while len(memo) >= PHYSICS_MEMO_ENTRIES:
                memo.popitem(last=False)
        else:
            memo.move_to_end(key)
        return record


def _remember(memo: OrderedDict, key: tuple, record) -> None:
    if scalar_reference_enabled():
        return
    with _physics_lock:
        memo[key] = record
        while len(memo) > PHYSICS_MEMO_ENTRIES:
            memo.popitem(last=False)


def clear_physics_memo() -> None:
    """Forget every memoised WER-independent record and error
    population, and the cached standard normals and read blocks they
    were drawn from, so the next point pays for all of its physics."""
    with _physics_lock:
        _physics_memo.clear()
        _population_memo.clear()
    clear_standard_normals()


class DesignSpaceExplorer:
    """Sweep subarray shapes and ECC strengths under constraints.

    Args:
        pdk: Hybrid PDK.
        base_config: Organisation to perturb.
        constraints: Reliability constraints.
        num_words: Monte Carlo word count per evaluation.
        error_population: Margin-solver cell population per evaluation.
    """

    def __init__(
        self,
        pdk: ProcessDesignKit,
        base_config: MemoryConfig,
        constraints: DesignConstraints = DesignConstraints(),
        num_words: int = 1500,
        error_population: int = 200_000,
    ):
        self.pdk = pdk
        self.base_config = base_config
        self.constraints = constraints
        self.num_words = num_words
        self.error_population = error_population

    def evaluate(
        self, config: MemoryConfig, seed: Optional[int] = None
    ) -> Optional[DesignPoint]:
        """Evaluate one configuration; None if it cannot meet targets.

        Two stages.  The WER-independent one draws the point's
        populations and solves everything that neither ``wer_target``
        nor ``max_ecc_bits`` touches: nominal area, MC energy means,
        read margin and read disturb.  The ECC choice then solves the
        pulse for t = 0..``max_ecc_bits`` on a fresh sweep over the
        point's error population.

        Both stages have one route.  The last ``PHYSICS_MEMO_ENTRIES``
        WER-independent records stay in a process-level memo keyed by
        ``(pdk, config, seed, num_words, error_population, rer_target,
        disturb_budget)``, so a sibling point that differs only in the
        ECC axes pays only for its ECC sweep.  A miss builds its error
        population (:class:`~repro.vaet.error_rates.ErrorRateAnalysis`)
        only if no recent point of the same population did: the last
        ``PHYSICS_MEMO_ENTRIES`` populations, their cells released so
        that only their kernels, bins, stuck-cell floor and disturb
        mean 1/tau remain, are keyed by what the population reads,
        ``(pdk, temperature, seed, error_population, fixed path
        resistance, develop time)``.  Siblings that differ in word
        width, columns, ``num_words`` or the targets thus share one,
        and each solves its read margin, disturb bound and ECC sweep
        on it for its own array.  The result stays a pure function of
        the arguments.  A miss draws neither its MC writes' normals,
        nor its MC reads' (unless it is the first of its seed and
        word-cell count), nor its population's: all are held by the
        seed's process-level stream
        (:func:`~repro.vaet.variation_model.standard_normals`,
        :func:`~repro.vaet.variation_model.read_blocks`), which every
        point of that seed shares, with the values it would have drawn
        itself.  :func:`clear_physics_memo` empties both memos and the
        stream.  Under ``REPRO_VAET_SCALAR`` the same route runs the
        scalar reference kernels and neither memo serves or keeps a
        record, so every point recomputes everything.  Under
        ``--deadline`` the points run in one reused evaluation child
        per executor slot, whose memos serve them the same way.

        Args:
            config: The organisation to evaluate.
            seed: Explicit Monte Carlo seed (defaults to the VAET-STT
                tool seed, preserving historic sweep outputs).
        """
        seed = DEFAULT_SEED if seed is None else seed
        physics = self._physics(config, seed)
        if physics is None:
            return None
        ecc = ECCAnalysis(physics.population, physics.engine)
        best: Optional[DesignPoint] = None
        for t in range(self.constraints.max_ecc_bits + 1):
            try:
                point = ecc.point(t, self.constraints.wer_target)
            except ValueError:
                continue
            candidate = DesignPoint(
                config=config,
                ecc_bits=t,
                write_latency=point.total_latency,
                read_latency=physics.read.total_latency,
                write_energy=physics.write_energy,
                read_energy=physics.read_energy,
                area=physics.area * (1.0 + point.storage_overhead),
                read_disturb_ok=physics.disturb_ok,
            )
            if best is None or candidate.write_latency < best.write_latency:
                best = candidate
        return best

    def _physics(self, config: MemoryConfig, seed: int) -> Optional[_Physics]:
        """The WER-independent stage through its memo; None if the read
        target is unreachable."""
        constraints = self.constraints
        key = (
            self.pdk, config, seed, self.num_words, self.error_population,
            constraints.rer_target, constraints.disturb_budget,
        )
        physics = _recall(_physics_memo, key)
        if physics is not _MISS:
            return physics
        tool = VAETSTT(
            self.pdk, config, seed=seed, error_population=self.error_population
        )
        estimate = tool.estimate(num_words=self.num_words)
        population = self._population(tool)
        engine = tool.engine
        try:
            read = population.read_margin(constraints.rer_target, engine)
        except ValueError:
            physics = None
        else:
            period_cap = ReadDisturbAnalysis(population, engine).max_read_period(
                constraints.disturb_budget
            )
            physics = _Physics(
                area=estimate.nominal.area,
                write_energy=estimate.write_energy.mean,
                read_energy=estimate.read_energy.mean,
                read=read,
                disturb_ok=read.sense_time <= period_cap,
                engine=engine,
                population=population,
            )
        _remember(_physics_memo, key, physics)
        return physics

    def _population(self, tool: VAETSTT) -> ErrorRateAnalysis:
        """The error population of ``tool``'s point, through its memo."""
        variation = tool.variation
        key = (
            self.pdk, variation.temperature, tool.seed, self.error_population,
            variation._fixed_path_r, tool.engine.leaf.sense.develop_time,
        )
        population = _recall(_population_memo, key)
        if population is _MISS:
            population = ErrorRateAnalysis(
                tool.engine, population=self.error_population, seed=tool.seed
            )
            # No solver reads the cells: the memo keeps the kernels only.
            population.cells = None
            _remember(_population_memo, key, population)
        return population

    def sweep_subarrays(
        self,
        subarray_rows_options: Sequence[int] = (128, 256, 512),
        runner=None,
    ) -> List[DesignPoint]:
        """Evaluate the base config at several subarray heights.

        The sweep is a thin wrapper over the :mod:`repro.dse` engine:
        each height becomes a content-hashed job, so a caching/parallel
        :class:`repro.dse.runner.CampaignRunner` can be passed in to
        reuse prior evaluations.  The default serial runner reproduces
        the historic sequential sweep exactly.

        Args:
            subarray_rows_options: Subarray heights to evaluate.
            runner: Optional ``CampaignRunner`` (serial, uncached by
                default).
        """
        from repro.dse.campaign import memory_point_spec, sweep_points
        from repro.dse.jobs import Job
        from repro.dse.runner import MEMORY_TARGET

        jobs = []
        for rows in subarray_rows_options:
            if rows > self.base_config.rows:
                continue
            config = replace(self.base_config, subarray_rows=rows)
            jobs.append(Job(MEMORY_TARGET, memory_point_spec(self, config)))
        return sweep_points(jobs, runner=runner)

    @staticmethod
    def render(points: Iterable[DesignPoint]) -> str:
        """Tabulate a sweep result."""
        table = Table(
            [
                "subarray",
                "ecc_t",
                "write_lat (ns)",
                "read_lat (ns)",
                "write_E (pJ)",
                "area (mm^2)",
                "disturb_ok",
            ],
            title="VAET-STT design space exploration",
        )
        for point in points:
            table.add_row(
                [
                    "%dx%d" % (point.config.subarray_rows, point.config.subarray_cols),
                    point.ecc_bits,
                    point.write_latency * 1e9,
                    point.read_latency * 1e9,
                    point.write_energy * 1e12,
                    point.area * 1e6,
                    point.read_disturb_ok,
                ]
            )
        return table.render()
