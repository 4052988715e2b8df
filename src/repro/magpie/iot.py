"""IoT node duty-cycle study: the paper's motivating use case, modelled.

"The main components of IoT devices are autonomous battery-operated
smart embedded systems ... decrease their power consumption (by
reducing the power consumptions of memory and sensor interfaces blocks
by 5x or 10x)" (Sec. I).

This module evaluates a duty-cycled single-core sensor node (MiBench-
class kernels on one LITTLE core) with its working memory either in
SRAM (must be retained in sleep) or in MSS STT-MRAM (power-gated to
zero).  It reports the daily energy ledger and the duty-cycle
crossover below which non-volatility wins — the quantitative version
of the paper's 5-10x claim.
"""

from dataclasses import dataclass
from typing import List, Sequence

from repro.archsim.cpu import LITTLE_CORE_45NM
from repro.archsim.memtech import MemoryTechnology
from repro.archsim.soc import ClusterConfig, SoCConfig
from repro.archsim.simulator import simulate_cluster
from repro.archsim.workloads import MIBENCH_KERNELS, WorkloadDescriptor
from repro.magpie.flow import MagpieFlow
from repro.utils.roots import brentq

#: Sleep-mode retention factor of a drowsy SRAM (fraction of active leakage).
SRAM_RETENTION_FACTOR = 0.35

#: NVFF checkpoint cost per wake cycle [J] (32 registers, store+restore).
CHECKPOINT_ENERGY = 32 * 2.5e-13


@dataclass(frozen=True)
class DutyCyclePoint:
    """One duty-cycle evaluation.

    Attributes:
        wakeups_per_day: Number of active episodes per day.
        active_time: Busy time per episode [s].
        sram_daily_energy: Daily energy with retained SRAM [J].
        stt_daily_energy: Daily energy with power-gated STT-MRAM [J].
        savings: 1 - stt/sram.
    """

    wakeups_per_day: float
    active_time: float
    sram_daily_energy: float
    stt_daily_energy: float

    @property
    def savings(self) -> float:
        """Fractional energy saving of the STT node."""
        return 1.0 - self.stt_daily_energy / self.sram_daily_energy


class IoTNodeStudy:
    """Duty-cycled sensor-node energy model on MAGPIE memory records.

    Args:
        flow: A MAGPIE flow (supplies the SRAM/STT memory records so
            the study stays wired to the device level).
        kernel: MiBench-class workload run on each wake-up.
        memory_kb: Working memory (scratchpad) capacity [KiB].
    """

    def __init__(
        self,
        flow: MagpieFlow,
        kernel: WorkloadDescriptor = None,
        memory_kb: float = 128.0,
    ):
        self.flow = flow
        self.kernel = kernel or MIBENCH_KERNELS["qsort"]
        self.memory_kb = memory_kb
        self.sram_record, self.stt_record = flow.memory_records()
        self.core = LITTLE_CORE_45NM

    def _episode(self, memory: MemoryTechnology):
        """Simulate one wake-up episode on the given memory tech."""
        cluster = ClusterConfig(
            name="little",
            core=self.core,
            num_cores=1,
            l1_kb=16.0,
            l2_mb=self.memory_kb / 1024.0,
            l2_tech=memory,
        )
        soc = SoCConfig.full_sram()
        run = simulate_cluster(cluster, self.kernel, self.kernel.instructions, soc.dram)
        activity = run.activity
        # Active energy: core + memory accesses.
        energy = (
            self.core.energy_per_instruction * activity.instructions
            + (activity.l2_reads * memory.read_energy)
            + (activity.l2_writes * memory.write_energy)
            + self.core.leakage_power * run.thread_time
            + memory.leakage_per_mb * (self.memory_kb / 1024.0) * run.thread_time
        )
        return run.thread_time, energy

    def evaluate(self, wakeups_per_day: float) -> DutyCyclePoint:
        """Daily ledger at a given wake-up rate."""
        if wakeups_per_day <= 0.0:
            raise ValueError("need at least one wake-up per day")
        sram_time, sram_active = self._episode(self.sram_record)
        stt_time, stt_active = self._episode(self.stt_record)
        active_total_sram = wakeups_per_day * sram_active
        active_total_stt = wakeups_per_day * (stt_active + CHECKPOINT_ENERGY)

        day = 86400.0
        sleep_sram = (
            (day - wakeups_per_day * sram_time)
            * self.sram_record.leakage_per_mb
            * (self.memory_kb / 1024.0)
            * SRAM_RETENTION_FACTOR
        )
        sleep_stt = 0.0  # power-gated: non-volatile memory needs nothing.
        return DutyCyclePoint(
            wakeups_per_day=wakeups_per_day,
            active_time=stt_time,
            sram_daily_energy=active_total_sram + sleep_sram,
            stt_daily_energy=active_total_stt + sleep_stt,
        )

    def sweep(self, wakeups: Sequence[float]) -> List[DutyCyclePoint]:
        """Evaluate a ladder of duty cycles."""
        return [self.evaluate(w) for w in wakeups]

    def crossover_wakeups_per_day(self) -> float:
        """Wake-up rate above which SRAM becomes competitive.

        STT pays per-episode (write energy + checkpoint), SRAM pays a
        constant standby floor: the crossover is where the two daily
        ledgers meet.  Returns ``inf`` if STT wins at any realistic
        rate (<= 10 wake-ups per second).
        """
        low, high = 1.0, 86400.0 * 10.0

        def gap(rate: float) -> float:
            point = self.evaluate(rate)
            return point.stt_daily_energy - point.sram_daily_energy

        if gap(high) < 0.0:
            return float("inf")
        return brentq(gap, low, high)
