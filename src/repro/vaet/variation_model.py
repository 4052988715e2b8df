"""Vectorised per-cell variation sampling for VAET-STT.

Sec. III: "the impact of process variation on the magnetic devices
exacerbates the stochastic switching behavior of the MTJ".  Four
process draws set each cell, all vectorised with numpy so a 10^6-cell
Monte Carlo runs in milliseconds:

* **magnetic CD** — pillar diameter spread shifts area, H_k,eff, Delta
  and hence I_c0 per cell;
* **MgO thickness** — lognormal RA factor shifts both resistance states
  (correlated), changing the delivered write current and read signal;
* **TMR** — zero-bias magnetoresistance spread of the barrier;
* **CMOS mismatch** — driver/access strength factor from Pelgrom V_th
  spread, changing the delivered current;

plus the *stochastic* (not process) initial-angle draw per write event,
which is what gives even one fixed cell a switching-time distribution.

A population of n cells is a pure function of 4n standard normals, one
block of n per source in the order above
(:meth:`VariationModel.cells_from_normals`).  Every campaign point of
one seed scores its array under the same variation draws, so the
vectorised path reads them from one process-level stream
(:func:`standard_normals`): the first normals of ``default_rng(seed)``,
drawn once per process and shared by the Monte Carlo writes of every
word width and node and by the error population.  The Monte Carlo
reads come next in the stream, after the writes' exponentials, so they
too depend only on the seed and the word-cell count: the stream holds
their diameter, RA and drive-strength blocks for the last two counts
(:func:`read_blocks`).  The values are the ones
``default_rng(seed).normal(0, sigma, n)`` drew per source and point,
so every output is unchanged.
"""

import math
import os
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.nvsim.subarray import SubarrayModel
from repro.pdk.kit import ProcessDesignKit
from repro.utils.constants import (
    BOLTZMANN,
    ELEMENTARY_CHARGE,
    GILBERT_GYROMAGNETIC,
    HBAR,
    MU_0,
    ROOM_TEMPERATURE,
)


#: Environment flag selecting the cell-at-a-time reference kernels.
#: The reference draws each variation source in the same order as the
#: vectorised path (one ``Generator`` stream element per cell), so the
#: random streams are bit-identical and the fast path can be pinned
#: against it to the last ulp — see tests/vaet/test_vector_equivalence.py.
SCALAR_REFERENCE_ENV = "REPRO_VAET_SCALAR"


def scalar_reference_enabled() -> bool:
    """True when the scalar (loop-based) reference kernels are forced."""
    return os.environ.get(SCALAR_REFERENCE_ENV, "") not in ("", "0")


#: Word-cell counts whose Monte Carlo read blocks the stream holds.  As
#: for the physics memo's two entries: in every grid of the repo at most
#: two word widths interleave.
READ_COUNTS_HELD = 2


class _NormalStream:
    """The standard normals of one seed's ``default_rng``, drawn once.

    Holds the longest prefix asked for and the bit-generator state at
    every count a generator was asked for, so a generator positioned
    after any of them is rebuilt without drawing; and the Monte Carlo
    read blocks of the last ``READ_COUNTS_HELD`` word-cell counts.  A
    new seed evicts the old one.
    """

    def __init__(self):
        self.lock = threading.Lock()
        self.clear()

    def clear(self) -> None:
        self.seed: Optional[int] = None
        self.prefix = np.empty(0)
        self.states: Dict[int, dict] = {}
        self.reads: "OrderedDict[int, np.ndarray]" = OrderedDict()

    def _select(self, seed: int) -> None:
        # Under the lock: make ``seed`` the stream's, evicting another.
        if self.seed is None or self.seed != seed:
            self.clear()
            self.seed = seed
            self.states[0] = np.random.default_rng(seed).bit_generator.state

    def take(
        self, seed: int, count: int, positioned: bool
    ) -> Tuple[np.ndarray, Optional[dict]]:
        """The first ``count`` normals, and the state right after them
        when ``positioned`` (else None)."""
        with self.lock:
            self._select(seed)
            have = len(self.prefix)
            if count > have:
                generator = _positioned(seed, self.states[have])
                prefix = np.empty(count)
                prefix[:have] = self.prefix
                generator.standard_normal(out=prefix[have:])
                prefix.flags.writeable = False
                self.prefix = prefix
                self.states[count] = generator.bit_generator.state
            elif positioned and count not in self.states:
                # Inside the prefix at a count never positioned at: draw
                # once to learn the state there.
                generator = np.random.default_rng(seed)
                generator.standard_normal(count)
                self.states[count] = generator.bit_generator.state
            return self.prefix[:count], self.states[count] if positioned else None

    def reads_of(
        self, seed: int, size: int, rng: np.random.Generator
    ) -> np.ndarray:
        """The held read blocks of ``size`` cells, drawn from ``rng`` on
        a miss."""
        with self.lock:
            self._select(seed)
            blocks = self.reads.get(size)
            if blocks is None:
                blocks = draw_read_blocks(rng, size)
                blocks.flags.writeable = False
                self.reads[size] = blocks
                while len(self.reads) > READ_COUNTS_HELD:
                    self.reads.popitem(last=False)
            else:
                self.reads.move_to_end(size)
            return blocks


def _positioned(seed: int, state: dict) -> np.random.Generator:
    generator = np.random.default_rng(seed)
    generator.bit_generator.state = state
    return generator


_STREAM = _NormalStream()


def standard_normals(
    seed: int, count: int
) -> Tuple[np.ndarray, np.random.Generator]:
    """The first ``count`` standard normals of ``default_rng(seed)``.

    Returns a read-only view of them and a fresh generator positioned
    right after them, exactly as if it had drawn them itself.  The
    process keeps one seed's longest prefix (4 floats per cell of the
    largest population asked for), so every caller of that seed shares
    one draw; thread-safe.  :func:`clear_standard_normals` (and
    :func:`repro.vaet.explorer.clear_physics_memo`) drops it.
    """
    normals, state = _STREAM.take(seed, count, positioned=True)
    return normals, _positioned(seed, state)


def normals_prefix(seed: int, count: int) -> np.ndarray:
    """:func:`standard_normals` without the generator, for callers that
    draw nothing after the prefix: a count inside the held prefix is a
    view, never a second draw to learn the generator's state there."""
    return _STREAM.take(seed, count, positioned=False)[0]


def read_blocks(seed: int, size: int, rng: np.random.Generator) -> np.ndarray:
    """The read blocks of a ``size``-cell Monte Carlo of ``seed``.

    What :func:`draw_read_blocks` draws from ``rng``, which stands where
    every such Monte Carlo's reads start: after the seed's first
    ``4 * size`` normals and the writes' ``size`` exponentials.  Only
    the seed and ``size`` set that position, so the stream draws them
    once and holds them read-only for the last ``READ_COUNTS_HELD``
    sizes (3 floats per cell); a hit leaves ``rng`` unused.  A new seed
    and :func:`clear_standard_normals` drop them; thread-safe.
    """
    return _STREAM.reads_of(seed, size, rng)


def clear_standard_normals() -> None:
    """Forget the cached stream and read blocks."""
    with _STREAM.lock:
        _STREAM.clear()


def normal_blocks(rng: np.random.Generator, size: int):
    """The next ``4 * size`` standard normals of ``rng`` as four blocks
    of ``size``, each drawn only when it is taken."""
    return (rng.standard_normal(size) for _ in range(4))


def draw_read_blocks(rng: np.random.Generator, size: int) -> np.ndarray:
    """The next ``4 * size`` standard normals of ``rng`` as the reads'
    ``(3, size)`` blocks: diameter, RA and drive strength.

    The reads never use the TMR block; it is drawn into the strength
    row only to advance the stream, and overwritten.
    """
    blocks = np.empty((3, size))
    for row in (0, 1, 2, 2):
        rng.standard_normal(out=blocks[row])
    return blocks


def _varied(block: np.ndarray, sigma: float, floor: float) -> np.ndarray:
    """max(floor, 1 + N(0, sigma)) from a block of standard normals, as
    a fresh array."""
    factor = np.multiply(block, sigma)
    factor += 1.0
    return np.maximum(factor, floor, out=factor)


def oblate_demag_factor_vec(aspect: np.ndarray) -> np.ndarray:
    """Vectorised axial demag factor of an oblate spheroid (m > 1)."""
    m = np.asarray(aspect, dtype=float)
    q = m * m - 1.0
    return (m * m / q) * (1.0 - np.arcsin(np.sqrt(q) / m) / np.sqrt(q))


@dataclass
class CellSamples:
    """Arrays of per-cell physical parameters (all same length).

    Attributes:
        diameter: Pillar diameters [m].
        delta: Thermal stability factors [-].
        critical_current: I_c0 per cell [A].
        resistance_p: Parallel resistance at low bias [ohm].
        resistance_ap_write: AP resistance at the write bias [ohm].
        drive_strength: CMOS path strength factor (1 = nominal).
        rate_prefactor: alpha*gamma0*Hk/(1+alpha^2) per cell [1/s]
            (multiply by (I/Ic0 - 1) for the precessional rate).

    A population kept past its write-rate pass (the error population of
    :class:`repro.vaet.error_rates.ErrorRateAnalysis`) may hold None for
    ``diameter``, ``resistance_ap_write`` and ``rate_prefactor``.
    """

    diameter: Optional[np.ndarray]
    delta: np.ndarray
    critical_current: np.ndarray
    resistance_p: np.ndarray
    resistance_ap_write: Optional[np.ndarray]
    drive_strength: np.ndarray
    rate_prefactor: Optional[np.ndarray]

    def __len__(self) -> int:
        return len(self.delta)


class VariationModel:
    """Joint sampler of process + stochastic variation for one PDK.

    Args:
        pdk: Hybrid PDK (carries the node-scaled sigma values).
        subarray: Array context (path resistances, write bias).
        temperature: Operating temperature [K].
    """

    def __init__(
        self,
        pdk: ProcessDesignKit,
        subarray: SubarrayModel,
        temperature: float = ROOM_TEMPERATURE,
    ):
        self.pdk = pdk
        self.subarray = subarray
        self.temperature = temperature
        material = pdk.free_layer
        self._material = material
        self._thickness = pdk.memory_pillar.free_layer_thickness
        self._d0 = pdk.memory_pillar.diameter
        # Fixed (CMOS + wire) series resistance of the write path.
        transport = pdk.mtj_transport()
        bias = 0.5 * pdk.tech.vdd
        self._fixed_path_r = (
            subarray._mtj_path_resistance(True, bias)
            - transport.state_resistance(True, bias)
        )
        self._write_bias = bias
        self._tmr_nominal = pdk.barrier.tmr_zero_bias
        self._vh = pdk.barrier.tmr_half_voltage
        self._ra = pdk.barrier.resistance_area_product
        # Combined CMOS current-strength sigma: Pelgrom Vth on the two
        # series devices -> relative drive shift via the alpha-power law.
        cmos = pdk.variation.cmos
        tech = pdk.tech
        vth_sigma = cmos.vth_sigma(4.0 * tech.min_width_um, tech.node_nm * 1e-3)
        overdrive = tech.vdd - tech.vth_n
        alpha = tech.velocity_saturation_alpha
        self._strength_sigma = math.hypot(
            alpha * vth_sigma / overdrive, cmos.k_prime_sigma_rel
        )

    # -- per-cell physics, vectorised ----------------------------------

    def _hk_eff(self, diameter: np.ndarray) -> np.ndarray:
        material = self._material
        t = self._thickness
        interface = 2.0 * material.interfacial_anisotropy / (MU_0 * material.ms * t)
        nz = oblate_demag_factor_vec(diameter / t)
        nx = (1.0 - nz) / 2.0
        return interface - (nz - nx) * material.ms

    def _delta(self, diameter: np.ndarray, hk: np.ndarray) -> np.ndarray:
        # Each intermediate is released once spent: at the Monte Carlo's
        # 384k cells a live one is 3 MB.
        material = self._material
        k_eff = 0.5 * MU_0 * material.ms * np.maximum(hk, 1.0)
        wall = math.pi * np.sqrt(material.exchange_stiffness / k_eff)
        del k_eff
        d_eff = np.minimum(diameter, wall)
        del wall
        volume = math.pi * (d_eff / 2.0) ** 2 * self._thickness
        del d_eff
        barrier = 0.5 * MU_0 * material.ms * np.maximum(hk, 0.0) * volume
        del volume
        return barrier / (BOLTZMANN * self.temperature)

    def sample_cells(self, rng: np.random.Generator, size: int) -> CellSamples:
        """Draw ``size`` independent cell instances from ``rng``."""
        if scalar_reference_enabled():
            return self._sample_cells_scalar(rng, size)
        return self.cells_from_normals(normal_blocks(rng, size))

    def cells_from_normals(self, blocks) -> CellSamples:
        """The cells whose variation draws are ``blocks``.

        ``blocks`` yields four arrays of n standard normals, one per
        source in the order of :meth:`_draw_cells`: the rows of a
        ``(4, n)`` array, or :func:`normal_blocks`.  Columns are worked
        in place once their inputs are spent; each in-place step is the
        same floating-point operation on the same operands as the plain
        expression, so no value depends on it.
        """
        material = self._material
        diameter, r_p, tmr, strength = self._draw_cells(blocks)
        # r_ap_write = r_p * (1 + tmr / (1 + (V_w / V_h)^2)), in tmr.
        tmr /= 1.0 + (self._write_bias / self._vh) ** 2
        tmr += 1.0
        tmr *= r_p
        hk = self._hk_eff(diameter)
        delta = self._delta(diameter, hk)
        ic0 = delta * (4.0 * ELEMENTARY_CHARGE * material.damping)
        ic0 *= BOLTZMANN
        ic0 *= self.temperature
        ic0 /= HBAR * material.polarization
        # alpha gamma0 max(H_k, 0) / (1 + alpha^2), in hk.
        np.maximum(hk, 0.0, out=hk)
        hk *= material.damping * GILBERT_GYROMAGNETIC
        hk /= 1.0 + material.damping ** 2
        return CellSamples(
            diameter=diameter,
            delta=delta,
            critical_current=ic0,
            resistance_p=r_p,
            resistance_ap_write=tmr,
            drive_strength=strength,
            rate_prefactor=hk,
        )

    def _draw_cells(self, blocks):
        """Diameter, R_P, zero-bias TMR and drive strength per cell.

        ``blocks`` yields the cells' four blocks of standard normals in
        that order (see :meth:`cells_from_normals`), each taken only
        once the one before is spent.  Scaling a block by its sigma
        gives, element for element, what ``rng.normal(0, sigma, n)``
        draws from the same stream position.
        """
        mtj_var = self.pdk.variation.mtj
        blocks = iter(blocks)
        diameter = self._diameters(next(blocks))
        r_p = self._resistance_p(next(blocks), diameter)
        tmr = _varied(next(blocks), mtj_var.tmr_sigma_rel, 0.2)
        tmr *= self._tmr_nominal
        return diameter, r_p, tmr, self._strengths(next(blocks))

    def read_cells(self, blocks):
        """R_P and drive strength per cell, for the read path.

        ``blocks`` are the cells' diameter, RA and drive-strength blocks
        (:func:`draw_read_blocks`); each column is built as in
        :meth:`_draw_cells`, and the reads have no TMR column.
        """
        diameter, ra, strength = blocks
        return (
            self._resistance_p(ra, self._diameters(diameter)),
            self._strengths(strength),
        )

    def _diameters(self, block: np.ndarray) -> np.ndarray:
        diameter = _varied(block, self.pdk.variation.mtj.diameter_sigma_rel, 0.3)
        diameter *= self._d0
        return diameter

    def _resistance_p(self, block: np.ndarray, diameter: np.ndarray) -> np.ndarray:
        # RA * exp(N(0, sigma)) / area, the area from the diameters.
        mtj_var = self.pdk.variation.mtj
        area = np.divide(diameter, 2.0)
        area **= 2
        area *= math.pi
        ra_sigma = mtj_var.ra_thickness_sensitivity * mtj_var.mgo_thickness_sigma_rel
        ra = np.multiply(block, ra_sigma)
        np.exp(ra, out=ra)
        ra *= self._ra
        ra /= area
        return ra

    def _strengths(self, block: np.ndarray) -> np.ndarray:
        return _varied(block, self._strength_sigma, 0.3)

    def _sample_cells_scalar(self, rng: np.random.Generator, size: int) -> CellSamples:
        """Cell-at-a-time reference sampler (``REPRO_VAET_SCALAR``).

        Draw order matches :meth:`sample_cells` — every variation
        source is consumed as ``size`` sequential scalar draws, which a
        ``Generator`` produces from exactly the same stream elements as
        one vectorised draw of ``size`` — and the per-cell physics uses
        the same ufuncs one element at a time.  The populations agree
        to the last ulp (numpy's array ufunc loops may round a rare
        element differently than their scalar counterparts; the
        underlying random draws are bit-identical).
        """
        mtj_var = self.pdk.variation.mtj
        material = self._material
        ra_sigma = mtj_var.ra_thickness_sensitivity * mtj_var.mgo_thickness_sigma_rel
        d_draws = [rng.normal(0.0, mtj_var.diameter_sigma_rel) for _ in range(size)]
        ra_draws = [rng.normal(0.0, ra_sigma) for _ in range(size)]
        tmr_draws = [rng.normal(0.0, mtj_var.tmr_sigma_rel) for _ in range(size)]
        strength_draws = [
            rng.normal(0.0, self._strength_sigma) for _ in range(size)
        ]
        columns = {
            name: np.empty(size)
            for name in (
                "diameter", "delta", "critical_current", "resistance_p",
                "resistance_ap_write", "drive_strength", "rate_prefactor",
            )
        }
        for i in range(size):
            diameter = self._d0 * np.maximum(0.3, 1.0 + d_draws[i])
            hk = self._hk_eff(diameter)
            delta = self._delta(diameter, hk)
            area = math.pi * (diameter / 2.0) ** 2
            r_p = self._ra * np.exp(ra_draws[i]) / area
            tmr = self._tmr_nominal * np.maximum(0.2, 1.0 + tmr_draws[i])
            tmr_write = tmr / (1.0 + (self._write_bias / self._vh) ** 2)
            columns["diameter"][i] = diameter
            columns["delta"][i] = delta
            columns["critical_current"][i] = (
                4.0
                * ELEMENTARY_CHARGE
                * material.damping
                * delta
                * BOLTZMANN
                * self.temperature
                / (HBAR * material.polarization)
            )
            columns["resistance_p"][i] = r_p
            columns["resistance_ap_write"][i] = r_p * (1.0 + tmr_write)
            columns["drive_strength"][i] = np.maximum(
                0.3, 1.0 + strength_draws[i]
            )
            columns["rate_prefactor"][i] = (
                material.damping
                * GILBERT_GYROMAGNETIC
                * np.maximum(hk, 0.0)
                / (1.0 + material.damping ** 2)
            )
        return CellSamples(**columns)

    # -- write events ---------------------------------------------------

    def delivered_write_current(self, cells: CellSamples) -> np.ndarray:
        """Write current delivered to each cell [A]."""
        path = self._fixed_path_r / cells.drive_strength
        path += cells.resistance_ap_write
        return np.divide(self.pdk.tech.vdd, path, out=path)

    def switching_rates(self, cells: CellSamples) -> np.ndarray:
        """Precessional amplification rate per cell [1/s].

        Cells whose delivered current falls below I_c0 get rate 0 (they
        will not switch in any bounded window — the deep WER tail).
        """
        return self._rates_at(cells, self.delivered_write_current(cells))

    @staticmethod
    def _rates_at(cells: CellSamples, current: np.ndarray) -> np.ndarray:
        # prefactor * max(I / I_c0 - 1, 0), in one array.
        rates = np.divide(current, cells.critical_current)
        rates -= 1.0
        np.maximum(rates, 0.0, out=rates)
        rates *= cells.rate_prefactor
        return rates

    def sample_switching_times(
        self, cells: CellSamples, rng: np.random.Generator
    ) -> np.ndarray:
        """One stochastic switching time per cell [s].

        t = ln(pi / (2 theta_0)) / rate with theta_0^2 ~ Exp(1/Delta)
        (the thermal initial-angle distribution).  Non-switching cells
        (rate 0) return +inf.
        """
        return self._times_at(cells.delta, self.switching_rates(cells), rng)

    @staticmethod
    def _times_at(
        delta: np.ndarray, rates: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """Switching times from each cell's Delta and rate, drawing one
        initial angle per cell from ``rng``.

        numpy draws ``exponential(scale)`` as ``scale *
        standard_exponential()``, so the vectorised path draws the
        standard exponentials and scales them in place
        (:meth:`_times_from`): the same stream elements and the same
        products, without the broadcast draw.
        """
        if not scalar_reference_enabled():
            return VariationModel._times_from(
                delta, rates, rng.standard_exponential(len(delta))
            )
        scale = np.maximum(delta, 1.0)
        np.divide(1.0, scale, out=scale)
        times = np.array([rng.exponential(s) for s in scale])
        return VariationModel._angles_to_times(times, rates)

    @staticmethod
    def _times_from(
        delta: np.ndarray, rates: np.ndarray, times: np.ndarray
    ) -> np.ndarray:
        """Switching times, in place in ``times``, which holds one
        standard exponential draw per cell; every temporary is worked in
        place.  Returns ``times``."""
        scale = np.maximum(delta, 1.0)
        np.divide(1.0, scale, out=scale)
        times *= scale
        del scale
        return VariationModel._angles_to_times(times, rates)

    @staticmethod
    def _angles_to_times(times: np.ndarray, rates: np.ndarray) -> np.ndarray:
        # theta0^2 ~ Exp(1 / Delta) in ``times`` becomes, in place,
        # theta0, then ln(pi / 2 / theta0), then that over the rate.
        np.maximum(times, 1e-12, out=times)
        np.sqrt(times, out=times)
        np.divide(math.pi / 2.0, times, out=times)
        np.maximum(times, 1.0 + 1e-9, out=times)
        np.log(times, out=times)
        times /= np.maximum(rates, 1e-30)
        times[~(rates > 0.0)] = np.inf
        return times

    # -- read events ------------------------------------------------------

    def read_signal_currents(self, cells: CellSamples) -> np.ndarray:
        """Differential sense current (cell vs midpoint reference) [A].

        The read path sees roughly half the log-mismatch of the write
        path: the write drivers are two minimum-ish devices in series,
        while the read column shares a larger biased access path whose
        mismatch partially averages out.
        """
        return self.read_path_currents(cells.resistance_p, cells.drive_strength)[1]

    def read_path_currents(self, resistance_p: np.ndarray,
                           drive_strength: np.ndarray):
        """Parallel-state read current and differential sense current [A]."""
        from repro.nvsim.subarray import READ_BIAS

        tmr_read = self._tmr_nominal / (1.0 + (READ_BIAS / self._vh) ** 2)
        fixed = np.sqrt(drive_strength)
        np.divide(self._fixed_path_r, fixed, out=fixed)
        i_p = np.add(resistance_p, fixed)
        np.divide(READ_BIAS, i_p, out=i_p)
        i_ap = np.multiply(resistance_p, 1.0 + tmr_read)
        i_ap += fixed
        del fixed
        np.divide(READ_BIAS, i_ap, out=i_ap)
        signal = np.subtract(i_p, i_ap, out=i_ap)
        signal *= 0.5
        return i_p, signal
