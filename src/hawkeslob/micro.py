"""The microscopic, event-by-event limit order book model.

Eight event types drive the book.  Active events (market orders and spread
placements) move the best prices by exactly one tick; passive events (limit
placements outside the spread and cancellations) change the per-tick volume
densities at a sampled distance from the same-side best price.  Arrival
intensities are Hawkes-modulated: an exogenous density rescaled by the tick
and order sizes plus kernel-weighted sums over past events of every type.

Prices are held as integer tick indices so one-tick moves and the
non-crossing invariant are exact; volume densities are held in absolute
tick coordinates so price moves never shift the profile arrays.

The first simulation of a ``MicroParams`` compiles it into index tables
cached on that instance, shared by all replicates of a level.  Its kernel
entries go into a ``families.KernelBank``, which keeps the running kernel
sums, the same bank ``hawkes.simulate_thinning`` drives.

``simulate_book`` runs one stream.  ``simulate_books`` runs the replicates
of a level in lockstep, one column per stream, and returns for each stream
the run ``simulate_book`` returns, bit for bit; it pays off from a few
streams on, while a single stream runs faster through ``simulate_book``.
"""

from __future__ import annotations

import copy
import functools
import math
import operator
from dataclasses import dataclass, field as dc_field
from typing import Callable, Optional, Sequence

import numpy as np

from . import limit as limit_mod
from .families import (
    KernelBank,
    KernelSums,
    SpatialProfile,
    TimeProfile,
    ZeroProfile,
    combine_amplitudes,
    sum_profiles,
)
from .hawkes import EventStream, MajorantViolationError
from .rng import as_rng

ACTIVE_TYPES = ("a_mo", "a_sp", "b_mo", "b_sp")
PASSIVE_TYPES = ("a_lo", "a_cx", "b_lo", "b_cx")
EVENT_LABELS = ("A1", "A2", "A3", "A4", "P1", "P2", "P3", "P4")
#: price distance the initial volume ledgers reach beyond the distance
#: interval, on each side of the start prices
WINDOW_PAD = 4.0
#: history truncation level of the kernel bank, relative to the active
#: exogenous mass (at least 1)
EPS_TRUNC_FACTOR = 1e-12
#: accepted events after which ``simulate_book`` gives up as unstable
MAX_EVENTS = 5_000_000
#: tick move per active type, applied to (ask, bid)
_PRICE_MOVES = {"a_mo": (1, 0), "a_sp": (-1, 0), "b_mo": (0, -1), "b_sp": (0, 1)}


class NonCrossingError(RuntimeError):
    """An active event would push the best ask below the best bid."""


# ---------------------------------------------------------------------------
# book state
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TickGrid:
    """Price lattice of spacing delta_x with exact integer indexing."""

    delta_x: float

    def __post_init__(self):
        if self.delta_x <= 0:
            raise ValueError("tick size must be positive")

    def tick_of(self, x: float) -> int:
        """Index j of the tick interval [j*dx, (j+1)*dx) containing x."""
        return int(math.floor(x / self.delta_x + 1e-9))

    def price_of(self, tick: int) -> float:
        return tick * self.delta_x

    def to_tick_exact(self, price: float) -> int:
        tick = round(price / self.delta_x)
        if abs(price - tick * self.delta_x) > 1e-9 * max(1.0, abs(price)):
            raise ValueError(f"price {price} is not on the {self.delta_x} grid")
        return int(tick)


class VolumeLedger:
    """Per-tick volume densities over a growable absolute tick window.

    Ticks outside the materialized window still hold their initial values;
    they are filled in lazily from the initial density the first time the
    window has to cover them.
    """

    def __init__(self, init_density: Callable[[np.ndarray], np.ndarray],
                 lo_tick: int, hi_tick: int, delta_x: float):
        self.delta_x = delta_x
        self.init_density = init_density
        self.base = lo_tick
        self.values = np.asarray(
            init_density(self._mids(lo_tick, hi_tick)), dtype=float
        ).copy()
        if np.any(self.values < 0):
            raise ValueError("initial volume densities must be >= 0")

    def _mids(self, lo: int, hi: int) -> np.ndarray:
        return (np.arange(lo, hi) + 0.5) * self.delta_x

    def _ensure(self, tick: int) -> None:
        if tick < self.base:
            pad = self.base - tick + 16
            new = self.init_density(self._mids(self.base - pad, self.base))
            self.values = np.concatenate([np.asarray(new, dtype=float), self.values])
            self.base -= pad
        elif tick >= self.base + self.values.size:
            hi = self.base + self.values.size
            pad = tick - hi + 17
            new = self.init_density(self._mids(hi, hi + pad))
            self.values = np.concatenate([self.values, np.asarray(new, dtype=float)])

    def get(self, tick: int) -> float:
        self._ensure(tick)
        return float(self.values[tick - self.base])

    def add(self, tick: int, amount: float) -> None:
        self._ensure(tick)
        self.values[tick - self.base] += amount
        if self.values[tick - self.base] < 0:
            raise ValueError("volume density went negative")

    def scale(self, tick: int, factor: float) -> None:
        if factor < 0:
            raise ValueError("volume multiplier must be >= 0")
        self._ensure(tick)
        self.values[tick - self.base] *= factor

    def inner(self, f: Callable[[np.ndarray], np.ndarray]) -> float:
        """Inner product with f by the tick midpoint rule."""
        mids = self._mids(self.base, self.base + self.values.size)
        return float(np.sum(self.values * np.asarray(f(mids))) * self.delta_x)

    def window(self, lo_tick: int, hi_tick: int) -> np.ndarray:
        self._ensure(lo_tick)
        self._ensure(hi_tick - 1)
        return self.values[lo_tick - self.base : hi_tick - self.base].copy()

    def copy(self) -> "VolumeLedger":
        out = copy.copy(self)
        out.values = self.values.copy()
        return out


@dataclass
class BookState:
    """Best prices on the tick grid plus the two volume density ledgers."""

    grid: TickGrid
    ask_tick: int
    bid_tick: int
    ask_vol: VolumeLedger
    bid_vol: VolumeLedger

    def __post_init__(self):
        if self.ask_tick < self.bid_tick:
            raise NonCrossingError("initial ask below initial bid")

    @property
    def p_a(self) -> float:
        return self.grid.price_of(self.ask_tick)

    @property
    def p_b(self) -> float:
        return self.grid.price_of(self.bid_tick)

    @property
    def spread_ticks(self) -> int:
        return self.ask_tick - self.bid_tick

    def copy(self) -> "BookState":
        return BookState(
            self.grid, self.ask_tick, self.bid_tick,
            self.ask_vol.copy(), self.bid_vol.copy(),
        )

    def passive_tick(self, side: str, distance: float) -> int:
        """Absolute tick hit by a passive event at the given distance."""
        j = self.grid.tick_of(distance)
        if side == "a":
            return self.ask_tick + j
        return self.bid_tick - j - 1


def apply_active(state: BookState, active_type: str) -> BookState:
    """One-tick price move of the given active type, in place.

    Volume ledgers are untouched: in absolute coordinates a price move only
    relabels which part of the density is the standing book and which part
    is the pre-placed spread volume.
    """
    da, db = _PRICE_MOVES[active_type]
    ask, bid = state.ask_tick + da, state.bid_tick + db
    if ask < bid:
        raise NonCrossingError(
            f"{active_type} would cross the book at spread "
            f"{state.spread_ticks} ticks; the state-rate factors violate the "
            "no-crossing condition"
        )
    state.ask_tick, state.bid_tick = ask, bid
    return state


def apply_passive(
    state: BookState, passive_type: str, distance: float, size: float,
    delta_v: float,
) -> BookState:
    """Placement or proportional cancellation at a distance from best, in place."""
    if size < 0:
        raise ValueError("size marks must be >= 0")
    side, kind = passive_type.split("_")
    ledger = state.ask_vol if side == "a" else state.bid_vol
    tick = state.passive_tick(side, distance)
    ratio = delta_v / state.grid.delta_x
    if kind == "lo":
        ledger.add(tick, ratio * (math.exp(size) - 1.0))
    else:
        ledger.scale(tick, 1.0 + ratio * (math.exp(-size) - 1.0))
    return state


# ---------------------------------------------------------------------------
# size marks
# ---------------------------------------------------------------------------


class SizeMeasure:
    """Distribution of the exponential size marks of passive events.

    Exposes the mean relative placement gain nu(e^z - 1), the mean relative
    cancellation gain nu(e^-z - 1) in (-1, 0], and the fourth moment
    nu(|e^z - 1|^4), which must be finite.
    """

    def __init__(self, family: str, **params):
        self.family = family
        self.params = dict(params)
        if family == "dirac":
            z = float(params["z"])
            if z < 0:
                raise ValueError("size marks live on [0, inf)")
            try:
                self._moments = (
                    math.exp(z) - 1.0,
                    math.exp(-z) - 1.0,
                    abs(math.exp(z) - 1.0) ** 4,
                )
            except OverflowError:
                self._moments = (math.inf, -1.0, math.inf)
        elif family == "exponential":
            rate = float(params["rate"])
            if rate <= 4.0:
                raise ValueError(
                    "exponential sizes need rate > 4 for a finite fourth moment"
                )
            ee = lambda a: rate / (rate - a)
            fourth = sum(
                math.comb(4, i) * (-1.0) ** (4 - i) * ee(i) for i in range(5)
            )
            self._moments = (ee(1) - 1.0, ee(-1) - 1.0, fourth)
        elif family == "lognormal":
            # an untruncated lognormal mark has nu(e^{4z}) = inf, so a
            # truncation bound is mandatory to honor the moment condition
            if "z_max" not in params:
                raise ValueError("lognormal sizes require a truncation bound z_max")
            m, s, z_max = float(params["m"]), float(params["s"]), float(params["z_max"])
            if s <= 0 or z_max <= 0:
                raise ValueError("need s > 0 and z_max > 0")
            zs = np.linspace(1e-12, z_max, 20001)
            pdf = np.exp(-((np.log(zs) - m) ** 2) / (2 * s * s)) / (
                zs * s * math.sqrt(2 * math.pi)
            )
            pdf /= np.trapezoid(pdf, zs)
            self._lognormal_grid = (zs, np.cumsum(pdf) * (zs[1] - zs[0]))
            with np.errstate(over="ignore"):
                self._moments = (
                    float(np.trapezoid(pdf * (np.exp(zs) - 1), zs)),
                    float(np.trapezoid(pdf * (np.exp(-zs) - 1), zs)),
                    float(np.trapezoid(pdf * np.abs(np.exp(zs) - 1) ** 4, zs)),
                )
        else:
            raise ValueError(f"unknown size family {family!r}")
        if not (math.isfinite(self._moments[0]) and math.isfinite(self._moments[2])):
            raise ValueError("size marks need a finite placement gain and fourth moment")
        if not (-1.0 < self._moments[1] <= 0.0):
            raise ValueError("mean cancellation gain must lie in (-1, 0]")

    @property
    def place_gain(self) -> float:
        return self._moments[0]

    @property
    def cancel_gain(self) -> float:
        return self._moments[1]

    @property
    def fourth_moment(self) -> float:
        return self._moments[2]

    def sample(self, rng: np.random.Generator) -> float:
        if self.family == "dirac":
            return float(self.params["z"])
        if self.family == "exponential":
            return float(rng.exponential(1.0 / float(self.params["rate"])))
        zs, cdf = self._lognormal_grid
        u = rng.random() * cdf[-1]
        return float(np.interp(u, cdf, zs))

    def samples(self, rngs: list) -> np.ndarray:
        """One ``sample`` from each generator of ``rngs``."""
        if self.family == "dirac":
            return np.full(len(rngs), float(self.params["z"]))
        return np.array([self.sample(rng) for rng in rngs])


# ---------------------------------------------------------------------------
# exogenous densities and state-rate factors
# ---------------------------------------------------------------------------


class ExoConst:
    """Constant exogenous density; its own sup over time and states."""

    def __init__(self, value: float):
        if value < 0:
            raise ValueError("exogenous densities are >= 0")
        self.value = float(value)

    def __call__(self, t, state) -> float:
        return self.value

    def sup_t(self, state) -> float:
        return self.value


class SpreadLinearFactor:
    """State factor scale * (spread - offset_ticks * dx)^+.

    With offset 0 this is the market-order factor; with offset 1 the
    spread-placement factor, which vanishes for spreads below one tick and
    so satisfies the no-crossing condition structurally.  Like every state
    factor it reads only the best prices, so passive events leave it
    unchanged.
    """

    def __init__(self, scale: float, offset_ticks: int = 0):
        if scale < 0:
            raise ValueError("factor scale must be >= 0")
        self.scale = float(scale)
        self.offset_ticks = int(offset_ticks)

    def __call__(self, state: BookState) -> float:
        ticks = state.spread_ticks - self.offset_ticks
        return self.scale * max(ticks, 0) * state.grid.delta_x

    def spreads(self, ticks: np.ndarray, delta_x: float) -> np.ndarray:
        """The factor at each spread of ``ticks`` (in ticks), elementwise
        as ``__call__``."""
        return self.scale * np.maximum(ticks - self.offset_ticks, 0) * delta_x


class GatedConstantFactor:
    """Constant factor, zeroed when the spread is below one tick.

    Like every state factor it reads only the best prices, so passive
    events leave it unchanged.
    """

    def __init__(self, value: float, gated: bool):
        if value < 0:
            raise ValueError("factor must be >= 0")
        self.value = float(value)
        self.gated = gated

    def __call__(self, state: BookState) -> float:
        if self.gated and state.spread_ticks < 1:
            return 0.0
        return self.value

    def spreads(self, ticks: np.ndarray, delta_x: float) -> np.ndarray:
        """The factor at each spread of ``ticks`` (in ticks)."""
        if self.gated:
            return np.where(ticks < 1, 0.0, self.value)
        return np.full(ticks.shape, self.value)


# ---------------------------------------------------------------------------
# parameters
# ---------------------------------------------------------------------------


@dataclass
class MicroParams:
    """Everything the n-th order book model needs.

    State factors are callables of the book state that read only the best
    prices: the simulators evaluate them again after active events only.
    Kernel dictionaries are keyed by (target type, source type); missing
    entries vanish.  Active-to-active entries are plain time profiles;
    entries with passive sources carry an in-profile weighting the source
    distance, entries with passive targets an out-profile shaping where the
    excited flow lands.
    """

    delta_x: float
    delta_v: float
    half_width: float
    ask_price0: float
    bid_price0: float
    ask_volume0: Callable
    bid_volume0: Callable
    state_factor: dict
    base_active: dict
    base_passive: dict  # passive type -> (exogenous factor, spatial profile)
    sizes: dict
    act_from_act: dict = dc_field(default_factory=dict)
    act_from_pas: dict = dc_field(default_factory=dict)  # (at, ps) -> (in_prof, time)
    pas_from_act: dict = dc_field(default_factory=dict)  # (pt, as) -> (out_prof, time)
    pas_from_pas: dict = dc_field(default_factory=dict)  # (pt, ps) -> (out, in, time)
    #: compiled by the first simulation and shared by every later one, so the
    #: fields must not change after it
    _compiled: Optional["_CompiledBook"] = dc_field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        if self.delta_v > self.delta_x:
            raise ValueError(
                "delta_v must not exceed delta_x: the proportional cancellation "
                "factor 1 + (delta_v/delta_x)(e^-z - 1) must stay nonnegative"
            )
        for t in ACTIVE_TYPES:
            if t not in self.state_factor or t not in self.base_active:
                raise ValueError(f"missing active configuration for {t}")
        for t in PASSIVE_TYPES:
            if t not in self.base_passive or t not in self.sizes:
                raise ValueError(f"missing passive configuration for {t}")

    def initial_state(self) -> BookState:
        grid = TickGrid(self.delta_x)
        ask = grid.to_tick_exact(self.ask_price0)
        bid = grid.to_tick_exact(self.bid_price0)
        pad = int(math.ceil((self.half_width + WINDOW_PAD) / self.delta_x))
        lo, hi = min(bid, ask) - pad, max(bid, ask) + pad
        return BookState(
            grid, ask, bid,
            VolumeLedger(self.ask_volume0, lo, hi, self.delta_x),
            VolumeLedger(self.bid_volume0, lo, hi, self.delta_x),
        )


# ---------------------------------------------------------------------------
# diagnostics
# ---------------------------------------------------------------------------


@dataclass
class MicroDiagnostics:
    """Per-run diagnostics: the event-load process, drift intensities, and
    norms of the rescaled intensity field at checkpoint times."""

    event_times: np.ndarray
    load: np.ndarray  # 1 + sum dx^2 per active + dv per passive, at events
    beta: np.ndarray  # (n_events + 1, 2): dx * (mu_mo - mu_sp) per side
    checkpoint_times: np.ndarray
    d11: np.ndarray
    d22: np.ndarray
    active_scalars: np.ndarray  # (n_cp, 4): dx^2 * active intensities

    @property
    def load_terminal(self) -> float:
        return float(self.load[-1]) if self.load.size else 1.0

    def sup_d11(self) -> float:
        return float(np.max(self.d11)) if self.d11.size else 0.0


@dataclass
class MicroRun:
    """Output of one book simulation."""

    horizon: float
    events: EventStream
    event_times: np.ndarray
    ask_ticks: np.ndarray  # state after each event; index 0 is the initial state
    bid_ticks: np.ndarray
    final_state: BookState
    diagnostics: MicroDiagnostics
    candidates: int
    accepted: int

    def price_path_csv(self, path) -> None:
        import csv

        delta_x = self.final_state.grid.delta_x
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t", "p_a", "p_b"])
            for t, a, b in zip(self.event_times, self.ask_ticks, self.bid_ticks):
                writer.writerow([
                    repr(float(t)), repr(float(a * delta_x)), repr(float(b * delta_x)),
                ])


# ---------------------------------------------------------------------------
# the compiled engine
# ---------------------------------------------------------------------------


class _PassiveRow:
    """Mass terms of one passive type: the exogenous term, then one per
    passive-target kernel entry ``(state, amplitude, mass factor, grid
    factor)``, with the profile, sampler and checkpoint values of each.
    ``term`` is the level constant ``exo * mass / delta_v`` of a constant
    exogenous density, None for any other."""

    __slots__ = ("exo", "mass", "term", "entries", "profiles", "samplers", "cp_shapes")

    def __init__(self, exo, profile: SpatialProfile, delta_x: float, delta_v: float,
                 half_width: float):
        self.exo = exo
        self.mass = profile.mass(half_width)
        self.term = exo.value * self.mass / delta_v if type(exo) is ExoConst else None
        self.entries: list = []
        self.profiles = [profile]
        self.samplers = [profile.sampler(delta_x, half_width) if self.mass > 0 else None]


class _CompiledBook:
    """One ``MicroParams`` compiled into kernel index tables and level constants.

    Its kernel entries are registered in one ``KernelBank``.  Each active
    row holds its exogenous density, the level constant ``exo / dx^2`` when
    that density is an ``ExoConst`` (None otherwise), and the ``(state,
    amplitude)`` of its active then its passive sources, in the order the
    intensity sums run.  Active types with equal rows (the same constant or
    the same density object, and the same source lists) share one row, and
    ``active_of`` maps each active type to its row.  A run stores the kernel
    sums and the varying exogenous densities at each checkpoint;
    ``diagnostics`` turns them into d11, d22 and the active scalars once,
    after the run.
    """

    def __init__(self, p: MicroParams):
        dx, dv, L = p.delta_x, p.delta_v, p.half_width
        self.p = p
        self.dx2 = dx**2
        self.state0 = p.initial_state()
        eps = EPS_TRUNC_FACTOR * max(
            sum(exo.sup_t(self.state0) for exo in p.base_active.values()), 1.0
        )
        self.bank = bank = KernelBank(eps)
        entry = bank.entry

        self.factors = [p.state_factor[at] for at in ACTIVE_TYPES]
        self.active_rows = []
        self.active_of = []
        rows: dict = {}
        for at in ACTIVE_TYPES:
            exo = p.base_active[at]
            const = type(exo) is ExoConst
            from_act = [(s, None, p.act_from_act.get((at, src))) for s, src in enumerate(ACTIVE_TYPES)]
            from_pas = [(4 + s, *p.act_from_pas.get((at, src), (None, None)))
                        for s, src in enumerate(PASSIVE_TYPES)]
            from_act = [entry(*e) for e in from_act if e[2] is not None]
            from_pas = [entry(*e) for e in from_pas if e[2] is not None]
            key = (const, exo.value if const else id(exo), tuple(from_act), tuple(from_pas))
            if key not in rows:
                rows[key] = len(self.active_rows)
                self.active_rows.append(
                    (exo, exo.value / self.dx2 if const else None, from_act, from_pas))
            self.active_of.append(rows[key])
        self.pas_pref = dv / self.dx2

        self.cp_x = np.linspace(-L, L, 65)
        self.cp_w = np.full(self.cp_x.size, self.cp_x[1] - self.cp_x[0])
        self.cp_w[[0, -1]] *= 0.5  # trapezoid weights
        self.passive_rows = []
        pref = self.dx2 / dv
        for pt in PASSIVE_TYPES:
            exo, profile = p.base_passive[pt]
            row = _PassiveRow(exo, profile, dx, dv, L)
            sourced = [(s, None, *p.pas_from_act.get((pt, src), (None, None)), pref, self.dx2)
                       for s, src in enumerate(ACTIVE_TYPES)]
            for s, src in enumerate(PASSIVE_TYPES):
                out_prof, in_prof, prof = p.pas_from_pas.get((pt, src), (None, None, None))
                sourced.append((4 + s, in_prof, out_prof, prof, 1.0, dv))
            for label, in_prof, out_prof, prof, k_mass, k_grid in sourced:
                if prof is not None:
                    out_mass = out_prof.mass(L)
                    row.entries.append((*entry(label, in_prof, prof), k_mass * out_mass, k_grid))
                    row.profiles.append(out_prof)
                    row.samplers.append(out_prof.sampler(dx, L) if out_mass > 0 else None)
            row.cp_shapes = [q.value(self.cp_x) for q in row.profiles]
            self.passive_rows.append(row)

        #: the exogenous densities of the active then the passive types, and
        #: the indices of those that are not level constants
        self.exos = [p.base_active[at] for at in ACTIVE_TYPES] + [row.exo for row in self.passive_rows]
        self.varying = [k for k, exo in enumerate(self.exos) if type(exo) is not ExoConst]
        self.exo_consts = np.array(
            [math.nan if k in self.varying else exo.value for k, exo in enumerate(self.exos)]
        )
        # with no live passive-target kernel the passive field is the
        # exogenous one, so its checkpoint norms are a level constant (NaN
        # when a passive density varies; every checkpoint then recomputes)
        self.cp_norms = self.passive_norms(self.exo_consts[4:].tolist(), [0.0] * len(bank.states))
        # every bound then equals the value at the same time and book state
        self.bound_is_value = not bank.gammas and not bank.scans and not self.varying

    def passive_grid(self, j: int, exo: float, u: list, shapes: list) -> np.ndarray:
        """delta_v * passive intensity of one type, given its exogenous
        density and its base and out profiles evaluated on the same
        distance nodes."""
        out = exo * shapes[0]
        for (i, amp, _k, k_grid), shape in zip(self.passive_rows[j].entries, shapes[1:]):
            out = out + k_grid * (amp * u[i]) * shape
        return out

    def passive_norms(self, exo: list, u: list):
        """L1 and squared-L2 parts of d11/d22 of the passive field at cp_x,
        given the exogenous densities of the passive types."""
        grids = np.stack([
            self.passive_grid(j, exo[j], u, row.cp_shapes) for j, row in enumerate(self.passive_rows)
        ])
        return np.sum(np.abs(grids) @ self.cp_w), np.sum((grids**2) @ self.cp_w)

    def diagnostics(self, u_rows: np.ndarray, e_varying: np.ndarray):
        """d11, d22 and the active scalars dx^2 mu at a set of checkpoints.

        ``u_rows`` holds the per-state kernel sums (one row per state) and
        ``e_varying`` the varying exogenous densities (one row per density),
        one column per checkpoint.  The columns repeat, element for element,
        the float operations of ``_book_rates`` and of one checkpoint's
        norms, so the values equal a per-checkpoint evaluation bit for bit.
        """
        n = u_rows.shape[1]
        e_rows = np.empty((len(self.exos), n))
        e_rows[:] = self.exo_consts[:, None]
        e_rows[self.varying] = e_varying
        dx2, pref = self.dx2, self.pas_pref
        rows = []
        for r, (_exo, _term, from_act, from_pas) in enumerate(self.active_rows):
            val = e_rows[self.active_of.index(r)] / dx2
            for i, amp in from_act:
                val = val + amp * u_rows[i]
            for i, amp in from_pas:
                val = val + pref * (amp * u_rows[i])
            rows.append(dx2 * val)
        act = [rows[r] for r in self.active_of]
        # checkpoints off the level constant: a live passive-target kernel
        # sum, or a varying passive density
        general = np.full(n, any(k >= 4 for k in self.varying))
        for row in self.passive_rows:
            for i, amp, _k, _g in row.entries:
                general |= amp * u_rows[i] != 0.0
        l1, l2 = np.full(n, self.cp_norms[0]), np.full(n, self.cp_norms[1])
        for c in np.flatnonzero(general):
            l1[c], l2[c] = self.passive_norms(e_rows[4:, c].tolist(), u_rows[:, c].tolist())
        a0, a1, a2, a3 = act
        d11 = np.abs(a0) + np.abs(a1) + np.abs(a2) + np.abs(a3) + l1
        d22 = np.sqrt(a0 * a0 + a1 * a1 + a2 * a2 + a3 * a3 + l2)
        return d11, d22, np.array(act).T.copy()


class _Engine:
    """Book state and running kernel state of one run over a compiled book."""

    def __init__(self, params: MicroParams):
        if params._compiled is None:
            params._compiled = _CompiledBook(params)
        self.book = book = params._compiled
        self.state = book.state0.copy()
        self.sums = KernelSums(book.bank)
        self.factors = [f(self.state) for f in book.factors]

    def advance(self, t: float) -> None:
        sums = self.sums
        if t >= sums.t:
            sums.advance(t, t - sums.t)

    def fire(self, label: int, distance: float, size: float) -> None:
        """Apply an event to the book and feed it into every kernel state it
        sources."""
        _apply_event(self.state, label, distance, size, self.book.p.delta_v)
        self.sums.fire(label, distance)
        if label < 4:  # state factors read only the best prices
            self.factors = [f(self.state) for f in self.book.factors]

    def exo(self, density, bound: bool) -> float:
        """An exogenous density, or its bound, at the current time and book state."""
        return density.sup_t(self.state) if bound else density(self.sums.t, self.state)

    def rates(self, bound: bool):
        """``_book_rates`` of this run."""
        return _book_rates(self.book, self.sums.units(bound), self.factors, self.exo, bound)


def _book_rates(book: _CompiledBook, u, factors, exo, bound: bool, n: Optional[int] = None):
    """Per-type event rates, the term masses of every passive type and the
    active intensities mu behind the active rates (before the state factors).

    ``u`` holds the kernel sums of every state and ``factors`` the four
    state factors; ``exo(density, bound)`` evaluates a density that is not
    a level constant.  The values are floats of one run, or, with ``n``
    given, columns of ``n`` replicates, in the same float operations.  The
    terms of a passive type are added left to right (builtin ``sum`` of
    floats is compensated from Python 3.12 on).
    """
    dx2, pref, dv = book.dx2, book.pas_pref, book.p.delta_v
    rows = []
    for density, term, from_act, from_pas in book.active_rows:
        if term is None:
            val = exo(density, bound) / dx2
        else:
            val = term if n is None else np.full(n, term)
        for i, amp in from_act:
            val = val + amp * u[i]
        for i, amp in from_pas:
            val = val + pref * (amp * u[i])
        rows.append(val)
    mu = [rows[r] for r in book.active_of]
    f = factors
    act = [f[0] * mu[0], f[1] * mu[1], f[2] * mu[2], f[3] * mu[3]]
    terms = []
    for row in book.passive_rows:
        if row.term is None:
            m = [exo(row.exo, bound) * row.mass / dv]
        else:
            m = [row.term if n is None else np.full(n, row.term)]
        for i, amp, k_mass, _k in row.entries:
            m.append(k_mass * (amp * u[i]))
        terms.append(m)
    return act, [functools.reduce(operator.add, m) for m in terms], terms, mu


def _rate_total(act, pas):
    """Sum of the eight per-type rates (floats or replicate columns), left to
    right within the active and within the passive types, as numpy sums
    four-element arrays."""
    return (act[0] + act[1] + act[2] + act[3]) + (pas[0] + pas[1] + pas[2] + pas[3])


def simulate_book(
    params: MicroParams,
    horizon: float,
    rng_seed,
    n_checkpoints: int = 33,
) -> MicroRun:
    """Thinning simulation of the book over [0, horizon].

    The dominating rate is rebuilt at every candidate from the frozen book
    state (state factors and exogenous densities only change at events) and
    the kernel bounds, so acceptance is exact; a realized rate above the
    dominating rate aborts the run as an envelope declaration bug.

    At each of the ``n_checkpoints`` equally spaced checkpoints the run
    decays its kernel state to the checkpoint time and stores the kernel
    sums there; d11, d22 and the active scalars are computed from them once,
    after the run (``_CompiledBook.diagnostics``).  That decay step splits
    the exponential decay chain, so the event stream depends on
    ``n_checkpoints`` in the last bit: event times can move by an ulp
    between two checkpoint counts.
    """
    p = params
    rng = as_rng(rng_seed, "micro")
    eng = _Engine(p)
    book, state = eng.book, eng.state
    dx, dv, dx2 = p.delta_x, p.delta_v, book.dx2

    ask_path = [state.ask_tick]
    bid_path = [state.bid_tick]
    accepted: list[tuple] = []  # (time, label, distance, size)
    load = [1.0]
    rates = eng.rates(bound=False)
    mu = rates[3]
    beta = [(dx * (mu[0] - mu[1]), dx * (mu[2] - mu[3]))]

    cps = np.linspace(0.0, horizon, n_checkpoints)
    cp_times = cps.tolist()
    cp_next = 0
    cp_units: list[float] = []  # per-state kernel sums, checkpoint after checkpoint
    cp_exo: list[float] = []  # the varying exogenous densities there
    exos, varying = book.exos, book.varying

    def record_checkpoints(upto: float) -> None:
        nonlocal cp_next
        while cp_next < len(cp_times) and cp_times[cp_next] <= upto + 1e-15:
            eng.advance(cp_times[cp_next])
            cp_units.extend(eng.sums.units(False))
            cp_exo.extend([exos[k](eng.sums.t, state) for k in varying])
            cp_next += 1

    t = 0.0
    candidates = 0
    while True:
        if len(accepted) >= MAX_EVENTS:
            raise RuntimeError("event budget exceeded; check kernel stability")
        # the last realised rates were taken at this time and book state
        majorant = _rate_total(*(rates if book.bound_is_value else eng.rates(bound=True))[:2])
        if majorant <= 0.0:
            break
        t_next = t + rng.exponential(1.0 / majorant)
        if t_next > horizon:
            break
        candidates += 1
        record_checkpoints(t_next)
        eng.advance(t_next)
        t = t_next
        rates = act_r, pas_r, terms, _mu = eng.rates(bound=False)
        total = _rate_total(act_r, pas_r)
        if total > majorant * (1.0 + 1e-9):
            raise MajorantViolationError(
                f"book rate {total} exceeded majorant {majorant} at t={t}"
            )
        if rng.random() * majorant > total:
            continue  # thinned candidate

        u = rng.random() * total
        cum = 0.0
        label = 7
        for i, rate in enumerate(act_r + pas_r):
            cum += rate
            if u <= cum:
                label = i
                break

        if label < 4:
            distance, size = math.nan, math.nan
            load.append(load[-1] + dx2)
        else:
            distance, size = _passive_marks(book, label - 4, terms[label - 4], rng)
            load.append(load[-1] + dv)

        eng.fire(label, distance, size)
        accepted.append((t, label, distance, size))
        ask_path.append(state.ask_tick)
        bid_path.append(state.bid_tick)
        rates = eng.rates(bound=False)
        mu = rates[3]
        beta.append((dx * (mu[0] - mu[1]), dx * (mu[2] - mu[3])))

    record_checkpoints(horizon)

    ev_times, labels, xs, zs = np.ascontiguousarray(np.reshape(accepted, (-1, 4)).T)
    times = np.concatenate([[0.0], ev_times])
    d11, d22, act = book.diagnostics(
        np.array(cp_units, dtype=float).reshape(cp_next, len(book.bank.states)).T,
        np.array(cp_exo, dtype=float).reshape(cp_next, len(varying)).T,
    )
    diag = MicroDiagnostics(
        event_times=times, load=np.asarray(load), beta=np.asarray(beta),
        checkpoint_times=cps, d11=d11, d22=d22, active_scalars=act,
    )
    return MicroRun(
        horizon=horizon,
        events=EventStream(ev_times, labels, xs, zs, horizon, EVENT_LABELS),
        event_times=times,
        ask_ticks=np.asarray(ask_path, dtype=np.int64),
        bid_ticks=np.asarray(bid_path, dtype=np.int64),
        final_state=state,
        diagnostics=diag,
        candidates=candidates,
        accepted=len(accepted),
    )


#: (ask, bid) tick move of each event label; row 8 stands for no event
_LABEL_MOVES = np.array([_PRICE_MOVES[at] for at in ACTIVE_TYPES] + [(0, 0)] * 5, dtype=np.int64)


class _Lockstep:
    """Replicates of one ``simulate_books`` call over a compiled book, one
    column each: book ticks, state factors, running kernel sums (``g`` and
    ``b`` of ``KernelSums``, one row per state) and counters.

    Every column update repeats, element for element, the float operations
    of ``_Engine`` and ``KernelSums``, so each column follows its stream as
    ``simulate_book`` does.  What has no bit-identical vectorised form stays
    per replicate: generator calls, the ``math.exp`` decay factors,
    exogenous density calls, in-profile weights, the histories of scanned
    kernels (one ``KernelSums`` per replicate, used for its ``scan``) and the
    volume ledgers.  ``split`` moves the columns of finished replicates to a
    batch of their own; ``join`` puts such batches back together.
    """

    #: per-column arrays, column axis last, and per-column lists
    _ARRAYS = ("ids", "t", "t_sums", "ask", "bid", "factors", "g", "b", "load",
               "candidates", "accepted", "cp_next", "total")
    _LISTS = ("rngs", "states", "sums")

    def __init__(self, book: _CompiledBook, rngs: list, cp_times: np.ndarray):
        bank, n, n_s = book.bank, len(rngs), len(book.bank.states)
        self.book = book
        self.cp_times = cp_times  # the checkpoint times, then inf
        self.ids = np.arange(n)
        self.rngs = rngs
        self.states = [book.state0.copy() for _ in range(n)]
        self.sums = [KernelSums(bank) if bank.scans else None for _ in range(n)]
        self.t, self.t_sums = np.zeros(n), np.zeros(n)
        self.ask = np.full(n, book.state0.ask_tick, dtype=np.int64)
        self.bid = np.full(n, book.state0.bid_tick, dtype=np.int64)
        self.factors = self.state_factors()
        self.g, self.b = np.zeros((n_s, n)), np.zeros((n_s, n))
        self.load = np.ones(n)
        self.candidates = np.zeros(n, dtype=np.int64)
        self.accepted = np.zeros(n, dtype=np.int64)
        self.cp_next = np.zeros(n, dtype=np.int64)
        self.total = np.zeros(n)
        # kernel sums and varying exogenous densities at the checkpoints,
        # by replicate
        self.cp_units = np.empty((n_s, n, cp_times.size - 1))
        self.cp_exo = np.empty((len(book.varying), n, cp_times.size - 1))
        # per source label: the unit increments of the states it feeds
        # without a weight (row 8: no event), and the entries that need
        # per-replicate work, in-profile weights or histories
        self.unit = np.zeros((9, n_s))
        self.slow: list = [[] for _ in range(8)]
        for source, by_prof in bank.excite.items():
            for in_prof, (stateful, hists) in by_prof.items():
                if in_prof is None:
                    self.unit[source, stateful] = 1.0
                    stateful = []
                if stateful or hists:
                    self.slow[source].append((in_prof, stateful, hists))

    def split(self, mask: np.ndarray) -> "_Lockstep":
        """Keep the columns where ``mask`` holds; return the others."""
        out = copy.copy(self)
        for name in self._ARRAYS:
            col = getattr(self, name)
            setattr(out, name, col[..., ~mask])
            setattr(self, name, col[..., mask])
        flags = mask.tolist()
        for name in self._LISTS:
            col = getattr(self, name)
            setattr(out, name, [x for x, k in zip(col, flags) if not k])
            setattr(self, name, [x for x, k in zip(col, flags) if k])
        return out

    @staticmethod
    def join(parts: list) -> "_Lockstep":
        out = copy.copy(parts[0])
        for name in _Lockstep._ARRAYS:
            setattr(out, name, np.concatenate([getattr(p, name) for p in parts], axis=-1))
        for name in _Lockstep._LISTS:
            setattr(out, name, [x for p in parts for x in getattr(p, name)])
        return out

    def state_factors(self) -> np.ndarray:
        spread = self.ask - self.bid
        return np.array([f.spreads(spread, self.book.p.delta_x) for f in self.book.factors])

    def sync(self, cols) -> list:
        """The book states of columns ``cols``, with their current ticks."""
        states = [self.states[c] for c in cols]
        for state, a, b in zip(states, self.ask[cols].tolist(), self.bid[cols].tolist()):
            state.ask_tick, state.bid_tick = a, b
        return states

    def exo(self, density, bound: bool) -> np.ndarray:
        """An exogenous density, or its bound, at every column."""
        states = self.sync(np.arange(self.ids.size))
        if bound:
            return np.array([density.sup_t(state) for state in states], dtype=float)
        ts = self.t_sums.tolist()
        return np.array([density(t, state) for t, state in zip(ts, states)], dtype=float)

    def advance(self, t: np.ndarray) -> None:
        """``_Engine.advance`` of every column to its time in ``t``: a column
        already past its time stays where it is."""
        move = t >= self.t_sums
        dt = np.where(move, t - self.t_sums, 0.0)  # a zero step changes no sum
        g, b = self.g, self.b
        for kappa, (exps, gams) in self.book.bank.decay.items():
            decay = np.array([math.exp(x) for x in (-kappa * dt).tolist()])
            for i in exps:
                g[i] *= decay
            for i in gams:
                b[i] = (b[i] + g[i] * dt) * decay
                g[i] *= decay
        self.t_sums = np.where(move, t, self.t_sums)

    def units(self, bound: bool) -> np.ndarray:
        """``KernelSums.units`` of every column."""
        u = self.g.copy()
        for i, ke in self.book.bank.gammas:
            u[i] = self.b[i] + u[i] / ke if bound else self.b[i]
        if self.book.bank.scans:
            for c, (sums, t) in enumerate(zip(self.sums, self.t_sums.tolist())):
                sums.t = t
                sums.scan(u[:, c], bound)
        return u

    def rates(self, bound: bool):
        """``_book_rates`` of every column."""
        return _book_rates(self.book, self.units(bound), self.factors, self.exo, bound, self.ids.size)

    def record_checkpoints(self, upto: np.ndarray) -> None:
        """Decay each column through its checkpoints up to ``upto`` and store
        the kernel sums and the varying exogenous densities there.

        The decay steps of a column follow one another as in
        ``simulate_book``, but every column and step is taken at once: an
        exponential sum through its steps is the running product of its
        decay factors (``np.multiply.accumulate`` multiplies in sequence),
        padded with ones where a column has fewer steps.
        """
        book, bank, cps = self.book, self.book.bank, self.cp_times
        last = np.searchsorted(cps, upto + 1e-15, side="right")
        cols = np.flatnonzero(last > self.cp_next)
        if not cols.size:
            return
        first, last = self.cp_next[cols], last[cols]
        steps = first[:, None] + np.arange((last - first).max())
        valid = steps < last[:, None]
        # padded steps repeat the last checkpoint time: a zero step
        t_step = cps[np.minimum(steps, last[:, None] - 1)]
        t0 = self.t_sums[cols][:, None]
        prev = np.maximum(t0, np.concatenate([t0, t_step[:, :-1]], axis=1))
        move = t_step >= prev
        dt = np.where(move, t_step - prev, 0.0)
        t_sums = np.maximum(t0, t_step)  # the sums' time after each step

        u = np.repeat(self.g[:, cols][:, :, None], steps.shape[1], axis=2)
        for kappa, (exps, gams) in bank.decay.items():
            decay = np.array([math.exp(x) for x in (-kappa * dt).ravel().tolist()]).reshape(dt.shape)
            if exps:
                chain = np.concatenate([u[exps, :, :1], np.broadcast_to(decay, u[exps].shape)], axis=2)
                chain = np.multiply.accumulate(chain, axis=2)
                u[exps] = chain[:, :, 1:]
                self.g[np.ix_(exps, cols)] = chain[:, :, -1]
            for i in gams:
                g, b = self.g[i, cols], self.b[i, cols]
                for s in range(steps.shape[1]):
                    b = (b + g * dt[:, s]) * decay[:, s]
                    g = g * decay[:, s]
                    u[i, :, s] = b
                self.g[i, cols], self.b[i, cols] = g, b
        if bank.scans:
            for col, c in enumerate(cols.tolist()):
                sums = self.sums[c]
                for s in range(last[col] - first[col]):
                    sums.t = float(t_sums[col, s])
                    sums.scan(u[:, col, s], False)

        ids = np.broadcast_to(self.ids[cols][:, None], steps.shape)[valid]
        self.cp_units[:, ids, steps[valid]] = u[:, valid]
        if book.varying:
            states = self.sync(cols)
            at = [states[col] for col in np.nonzero(valid)[0].tolist()]
            ts = t_sums[valid].tolist()
            self.cp_exo[:, ids, steps[valid]] = [
                [book.exos[k](t, state) for t, state in zip(ts, at)] for k in book.varying]
        self.t_sums[cols] = t_sums[:, -1]
        self.cp_next[cols] = last

    def passive(self, cols: np.ndarray, types: np.ndarray, terms: list):
        """Draw the marks of passive events of ``PASSIVE_TYPES[types]`` at
        columns ``cols`` and apply them to the volume ledgers, as
        ``_passive_marks`` and ``apply_passive`` do; returns the distances
        and the sizes."""
        book, p = self.book, self.book.p
        rngs = [self.rngs[c] for c in cols.tolist()]
        # the term pick and the two uniforms of the distance sampler
        draws = np.array([(rng.random(), rng.random(), rng.random()) for rng in rngs])
        xs, zs = np.empty(cols.size), np.empty(cols.size)
        for j in np.flatnonzero(np.bincount(types, minlength=4)).tolist():
            sel = np.flatnonzero(types == j)
            samplers = book.passive_rows[j].samplers
            if len(samplers) == 1:
                xs[sel] = samplers[0].samples(draws[sel, 1], draws[sel, 2])
            else:
                idx = np.array([_term_pick([m[c] for m in terms[j]], draws[q, 0])
                                for q, c in zip(sel.tolist(), cols[sel].tolist())])
                for s in set(idx.tolist()):
                    at = sel[idx == s]
                    xs[at] = samplers[s].samples(draws[at, 1], draws[at, 2])
            zs[sel] = p.sizes[PASSIVE_TYPES[j]].samples([rngs[q] for q in sel.tolist()])
        if np.any(zs < 0):
            raise ValueError("size marks must be >= 0")
        # apply_passive: ticks at the distances, then the placement gains and
        # the cancellation factors
        cells = np.floor(xs / p.delta_x + 1e-9).astype(np.int64)
        ticks = np.where(types < 2, self.ask[cols] + cells, self.bid[cols] - cells - 1)
        ratio = p.delta_v / p.delta_x
        place = types % 2 == 0
        gain = np.array([math.exp(z) for z in np.where(place, zs, -zs).tolist()]) - 1.0
        vals = np.where(place, ratio * gain, 1.0 + ratio * gain)
        for c, j, tick, val in zip(cols.tolist(), types.tolist(), ticks.tolist(), vals.tolist()):
            state = self.states[c]
            ledger = state.ask_vol if j < 2 else state.bid_vol
            if j % 2 == 0:
                ledger.add(tick, val)
            else:
                ledger.scale(tick, val)
        return xs, zs

    def fire(self, fired: np.ndarray, labels: np.ndarray, xs: np.ndarray) -> None:
        """Feed the events of columns ``fired`` into the kernel sums, as
        ``KernelSums.fire``."""
        lab = np.full(self.ids.size, 8)
        lab[fired] = labels
        self.g += self.unit[lab].T
        for c, label, x in zip(fired.tolist(), labels.tolist(), xs.tolist()):
            for in_prof, stateful, hists in self.slow[label]:
                w = 1.0 if in_prof is None else float(in_prof.value(x))
                for i in stateful:
                    self.g[i, c] += w
                for h in hists:
                    self.sums[c].hist[h].append(float(self.t_sums[c]), w)


def simulate_books(
    params: MicroParams,
    horizon: float,
    rngs: Sequence,
    n_checkpoints: int = 33,
) -> list[MicroRun]:
    """``simulate_book`` on every stream of ``rngs``, the replicates run in
    lockstep.

    Each iteration draws one candidate for every live replicate; replicates
    drop out as they finish.  Each returned run equals, bit for bit, what
    ``simulate_book`` returns on the same stream: every replicate makes the
    same scalar generator calls in the same order, and every vectorised
    update repeats the scalar float operations element for element.  The
    gain is the per-candidate Python work the replicates share, so a single
    stream runs faster through ``simulate_book``.

    The state factors must be ``SpreadLinearFactor`` or
    ``GatedConstantFactor``, which have a vectorised form; any other raises
    ``TypeError``.  A ``MajorantViolationError`` or ``NonCrossingError``
    names the replicate by its index in ``rngs``.
    """
    p = params
    if p._compiled is None:
        p._compiled = _CompiledBook(p)
    book = p._compiled
    for at, f in zip(ACTIVE_TYPES, book.factors):
        if type(f) not in (SpreadLinearFactor, GatedConstantFactor):
            raise TypeError(
                f"simulate_books needs SpreadLinearFactor or GatedConstantFactor state "
                f"factors; {at} has {type(f).__name__} (simulate_book takes any)"
            )
    dx, dv, dx2 = p.delta_x, p.delta_v, book.dx2
    n = len(rngs)
    if not n:
        return []
    cps = np.linspace(0.0, horizon, n_checkpoints)
    run = _Lockstep(book, [as_rng(g, "micro") for g in rngs], np.append(cps, math.inf))
    states = run.states
    finished = []

    act, pas, _terms, mu = run.rates(False)
    run.total = _rate_total(act, pas)
    # event records, one array per field and iteration: replicate, time,
    # label, distance, size, ticks, load and beta; the first holds the
    # initial state of every replicate
    nan = np.full(n, math.nan)
    records = [(run.ids, np.zeros(n), np.zeros(n, dtype=np.int64), nan, nan, run.ask.copy(),
                run.bid.copy(), run.load.copy(), dx * (mu[0] - mu[1]), dx * (mu[2] - mu[3]))]

    while run.ids.size:
        if run.accepted.max() >= MAX_EVENTS:
            raise RuntimeError("event budget exceeded; check kernel stability")
        # the last realised rates were taken at this time and book state
        majorant = run.total if book.bound_is_value else _rate_total(*run.rates(True)[:2])
        stop = majorant <= 0.0
        t_next = run.t + np.array([
            0.0 if s else rng.exponential(1.0 / m)
            for rng, m, s in zip(run.rngs, majorant.tolist(), stop.tolist())
        ])
        done = stop | (t_next > horizon)
        if done.any():
            # their last checkpoints are recorded together, after the loop
            finished.append(run.split(~done))
            t_next, majorant = t_next[~done], majorant[~done]
            if not run.ids.size:
                break
        run.candidates += 1
        run.record_checkpoints(t_next)
        run.advance(t_next)
        run.t = t_next
        act, pas, terms, _mu = run.rates(False)
        total = run.total = _rate_total(act, pas)
        over = total > majorant * (1.0 + 1e-9)
        if over.any():
            c = int(np.argmax(over))
            raise MajorantViolationError(
                f"replicate {run.ids[c]}: book rate {float(total[c])} exceeded majorant "
                f"{float(majorant[c])} at t={float(t_next[c])}"
            )
        thinned = np.array([rng.random() for rng in run.rngs]) * majorant > total
        fired = np.flatnonzero(~thinned)
        if not fired.size:
            continue

        u = np.array([run.rngs[c].random() for c in fired.tolist()]) * total[fired]
        hit = u <= np.cumsum(np.array(act + pas)[:, fired], axis=0)
        labels = np.where(hit.any(axis=0), hit.argmax(axis=0), 7)
        active = labels < 4
        xs, zs = np.full(fired.size, math.nan), np.full(fired.size, math.nan)
        if not active.all():
            q = np.flatnonzero(~active)
            xs[q], zs[q] = run.passive(fired[q], labels[q] - 4, terms)

        moves = _LABEL_MOVES[labels]
        ask, bid = run.ask[fired] + moves[:, 0], run.bid[fired] + moves[:, 1]
        if np.any(ask < bid):
            q = int(np.argmax(ask < bid))
            try:
                apply_active(run.sync([fired[q]])[0], ACTIVE_TYPES[labels[q]])
            except NonCrossingError as exc:
                raise NonCrossingError(f"replicate {run.ids[fired[q]]}: {exc}") from None
        run.ask[fired], run.bid[fired] = ask, bid
        run.fire(fired, labels, xs)
        run.load[fired] += np.where(active, dx2, dv)
        run.accepted[fired] += 1
        if active.any():
            run.factors = run.state_factors()
        act, pas, _terms, mu = run.rates(False)
        run.total = _rate_total(act, pas)
        records.append((run.ids[fired], t_next[fired], labels, xs, zs, ask, bid,
                        run.load[fired], dx * (mu[0][fired] - mu[1][fired]),
                        dx * (mu[2][fired] - mu[3][fired])))

    done = _Lockstep.join(finished)
    done.record_checkpoints(np.full(n, horizon))
    done.sync(np.arange(n))
    candidates, accepted = np.empty(n, dtype=np.int64), np.empty(n, dtype=np.int64)
    candidates[done.ids], accepted[done.ids] = done.candidates, done.accepted

    # one array per field, replicate after replicate, each from its initial state
    fields = [np.concatenate(f) for f in zip(*records)]
    order = np.argsort(fields[0], kind="stable")
    times, labels, xs, zs, asks, bids, loads, beta_a, beta_b = [f[order] for f in fields[1:]]
    beta = np.stack([beta_a, beta_b], axis=1)
    ends = np.cumsum(np.bincount(fields[0], minlength=n)).tolist()
    n_cp, n_s = cps.size, len(book.bank.states)
    d11, d22, act = book.diagnostics(
        run.cp_units.reshape(n_s, n * n_cp), run.cp_exo.reshape(len(book.varying), n * n_cp))
    d11, d22, act = d11.reshape(n, n_cp), d22.reshape(n, n_cp), act.reshape(n, n_cp, 4)

    runs = []
    start = 0
    for r, end in enumerate(ends):
        ev = slice(start + 1, end)
        diag = MicroDiagnostics(
            event_times=times[start:end], load=loads[start:end], beta=beta[start:end],
            checkpoint_times=cps.copy(), d11=d11[r], d22=d22[r], active_scalars=act[r],
        )
        runs.append(MicroRun(
            horizon=horizon,
            events=EventStream(times[ev], labels[ev], xs[ev], zs[ev], horizon, EVENT_LABELS),
            event_times=diag.event_times,
            ask_ticks=asks[start:end],
            bid_ticks=bids[start:end],
            final_state=states[r],
            diagnostics=diag,
            candidates=int(candidates[r]),
            accepted=int(accepted[r]),
        ))
        start = end
    return runs


def _term_pick(masses: list, pick: float) -> int:
    """Index of the passive term a uniform ``pick`` selects by mass."""
    if len(masses) == 1:
        return 0
    masses = np.array(masses)
    pick *= masses.sum()
    return min(int(np.searchsorted(np.cumsum(masses), pick, side="left")), len(masses) - 1)


def _passive_marks(book: _CompiledBook, j: int, masses: list, rng) -> tuple[float, float]:
    """Distance and size marks of a passive event of type ``PASSIVE_TYPES[j]``.

    ``masses`` are the masses of the type's terms (exogenous, then one per
    kernel entry); the term that fired is drawn by mass, the distance from
    its profile, then the size.
    """
    idx = _term_pick(masses, rng.random())
    distance = book.passive_rows[j].samplers[idx].sample(rng)
    return distance, book.p.sizes[PASSIVE_TYPES[j]].sample(rng)


def active_intensity(params: MicroParams, history: EventStream, t: float, active_type: str) -> float:
    """Rescaled active intensity given an explicit history (reference path).

    The state factor is not applied; the event rate used by the simulator is
    ``state_factor(S(t-)) * active_intensity(...)``.
    """
    eng = _replayed_engine(params, history, t)
    return eng.rates(False)[3][ACTIVE_TYPES.index(active_type)]


def passive_intensity(params: MicroParams, history: EventStream, t: float,
                      passive_type: str, distance: float) -> float:
    """Passive intensity density at one distance given an explicit history."""
    eng = _replayed_engine(params, history, t)
    j = PASSIVE_TYPES.index(passive_type)
    row = eng.book.passive_rows[j]
    x = np.asarray([distance])
    shapes = [q.value(x) for q in row.profiles]
    exo = row.exo(eng.sums.t, eng.state)
    return float(eng.book.passive_grid(j, exo, eng.sums.units(False), shapes)[0]) / params.delta_v


def _replayed_engine(params: MicroParams, history: EventStream, t: float) -> _Engine:
    if history.times.size and history.times[-1] >= t:
        raise ValueError("history must lie strictly before t")
    eng = _Engine(params)
    for ts, lab, x, z in zip(history.times, history.labels, history.xs, history.zs):
        eng.advance(float(ts))
        eng.fire(int(lab), float(x), float(z))
    eng.advance(t)
    return eng


def _apply_event(state: BookState, label: int, distance: float, size: float,
                 delta_v: float) -> None:
    if label < 4:
        apply_active(state, ACTIVE_TYPES[label])
    else:
        apply_passive(state, PASSIVE_TYPES[label - 4], distance, size, delta_v)


def replay_book(params: MicroParams, events: EventStream,
                snapshot_times: Sequence[float] = (), snapshot=None):
    """Fold the recorded events through the pure update functions.

    Returns (ask tick path, bid tick path, final state); the paths must
    reproduce the simulator's recorded paths bit-exactly.  For each of the
    ascending ``snapshot_times``, ``snapshot(t, state)`` sees the live book
    once every event at or before ``t`` has been applied.
    """
    state = params.initial_state()
    asks = [state.ask_tick]
    bids = [state.bid_tick]
    pending = list(snapshot_times)[::-1]
    for t, lab, x, z in zip(events.times, events.labels, events.xs, events.zs):
        while pending and t > pending[-1]:
            snapshot(pending.pop(), state)
        _apply_event(state, int(lab), float(x), float(z), params.delta_v)
        asks.append(state.ask_tick)
        bids.append(state.bid_tick)
    while pending:
        snapshot(pending.pop(), state)
    return np.asarray(asks, dtype=np.int64), np.asarray(bids, dtype=np.int64), state


# ---------------------------------------------------------------------------
# refinement sequence toward the scaling limit
# ---------------------------------------------------------------------------


class ActiveRateFamily:
    """Joint declaration of the market/spread state factors and their limit.

    ``spread_linear``: factors scale*(spread)^+ and scale*(spread - dx)^+,
    whose rescaled difference is the constant ``scale`` away from zero
    spread; the canonical choice satisfying both the no-crossing condition
    and the near-zero-spread uniqueness condition with equality.

    ``constant``: a constant market factor and a gated constant spread
    factor; the rescaled difference vanishes in the limit.
    """

    def __init__(self, family: str, scale: float):
        if family not in ("spread_linear", "constant"):
            raise ValueError(f"unknown active rate family {family!r}")
        self.family = family
        self.scale = float(scale)

    def micro_factor(self, kind: str, delta_x: float):
        if self.family == "spread_linear":
            return SpreadLinearFactor(self.scale, 0 if kind == "mo" else 1)
        return GatedConstantFactor(self.scale, gated=(kind == "sp"))

    def limit_rate(self):
        if self.family == "spread_linear":
            return limit_mod.SpreadPlusRate(self.scale)
        return limit_mod.ConstantRate(self.scale)

    def limit_slope(self):
        if self.family == "spread_linear":
            return limit_mod.ConstantRate(self.scale)
        return limit_mod.ConstantRate(0.0)


@dataclass
class ScalingFamily:
    """A whole refinement sequence of book models sharing one limit.

    Level k halves the tick size and quarters the order size.  Pre-limit
    kernels and exogenous densities are rebuilt around the declared limit
    objects with the rescaled market-minus-spread differences held exactly
    fixed, so the limit identification is the declared data itself.

    Active kernels are keyed (target side, source active type); their
    drift differences likewise.  Passive-target kernels and the passive
    exogenous densities do not rescale.
    """

    delta_x: float
    delta_v: float
    half_width: float
    ask_price0: float
    bid_price0: float
    ask_volume0: Callable
    bid_volume0: Callable
    rates: dict  # side -> ActiveRateFamily
    base_active: dict  # side -> float (limit exogenous density)
    base_drift: dict  # side -> float (limit rescaled difference density)
    base_passive: dict  # passive type -> (float factor, SpatialProfile)
    sizes: dict  # passive type -> SizeMeasure
    act_from_act: dict = dc_field(default_factory=dict)  # (side, atype) -> time
    drift_from_act: dict = dc_field(default_factory=dict)
    act_from_pas: dict = dc_field(default_factory=dict)  # (side, ptype) -> (in, time)
    drift_from_pas: dict = dc_field(default_factory=dict)
    pas_from_act: dict = dc_field(default_factory=dict)  # (ptype, atype) -> (out, time)
    pas_from_pas: dict = dc_field(default_factory=dict)

    def level_scales(self, k: int) -> tuple[float, float]:
        if k < 0:
            raise ValueError("refinement level must be >= 0")
        dx = self.delta_x * 2.0**-k
        dv = self.delta_v * 4.0**-k
        if dv > dx:
            raise ValueError("order size exceeded the tick size at this level")
        return dx, dv

    def micro_params(self, k: int) -> MicroParams:
        dx, dv = self.level_scales(k)
        state_factor = {}
        base_active = {}
        for side in "ab":
            fam = self.rates[side]
            mu = self.base_active[side]
            beta = self.base_drift.get(side, 0.0)
            for kind, sign in (("mo", +1.0), ("sp", -1.0)):
                at = f"{side}_{kind}"
                state_factor[at] = fam.micro_factor(kind, dx)
                val = mu + sign * 0.5 * dx * beta
                if val < 0:
                    raise ValueError("drift density too large for this level")
                base_active[at] = ExoConst(val)

        act_from_act = {}
        for side in "ab":
            for src in ACTIVE_TYPES:
                base = self.act_from_act.get((side, src))
                diff = self.drift_from_act.get((side, src))
                if base is None and diff is None:
                    continue
                base = base if base is not None else ZeroProfile()
                for kind, sign in (("mo", +1.0), ("sp", -1.0)):
                    prof = combine_amplitudes(base, diff, sign * 0.5 * dx)
                    if not isinstance(prof, ZeroProfile):
                        act_from_act[(f"{side}_{kind}", src)] = prof

        act_from_pas = {}
        for side in "ab":
            for src in PASSIVE_TYPES:
                base = self.act_from_pas.get((side, src))
                diff = self.drift_from_pas.get((side, src))
                if base is None and diff is None:
                    continue
                in_prof = base[0] if base is not None else diff[0]
                base_t = base[1] if base is not None else ZeroProfile()
                diff_t = diff[1] if diff is not None else None
                if diff is not None and base is not None and diff[0] is not base[0]:
                    raise ValueError(
                        "limit and difference kernels must share the in profile"
                    )
                for kind, sign in (("mo", +1.0), ("sp", -1.0)):
                    prof = combine_amplitudes(base_t, diff_t, sign * 0.5 * dx)
                    if not isinstance(prof, ZeroProfile):
                        act_from_pas[(f"{side}_{kind}", src)] = (in_prof, prof)

        return MicroParams(
            delta_x=dx,
            delta_v=dv,
            half_width=self.half_width,
            ask_price0=self.ask_price0,
            bid_price0=self.bid_price0,
            ask_volume0=self.ask_volume0,
            bid_volume0=self.bid_volume0,
            state_factor=state_factor,
            base_active=base_active,
            base_passive={
                pt: (ExoConst(fac), prof) for pt, (fac, prof) in self.base_passive.items()
            },
            sizes=dict(self.sizes),
            act_from_act=act_from_act,
            act_from_pas=act_from_pas,
            pas_from_act=dict(self.pas_from_act),
            pas_from_pas=dict(self.pas_from_pas),
        )

    def limit_params(self, n_x: int = 113) -> "limit_mod.LimitParams":
        """The declared limit system of this refinement sequence."""
        grid = limit_mod.SpatialGrid(self.half_width, n_x)

        def summed(table: dict, targets) -> dict:
            """Total impact kernels: source market and spread kinds summed."""
            out = {}
            for tgt in targets:
                for src in "ab":
                    mo, sp = table.get((tgt, f"{src}_mo")), table.get((tgt, f"{src}_sp"))
                    if mo is None or sp is None:
                        total = mo if sp is None else sp
                    elif isinstance(mo, TimeProfile):
                        total = sum_profiles(mo, sp)
                    elif mo[0] is not sp[0]:
                        raise ValueError("summed kernels must share the out profile")
                    else:
                        total = (mo[0], sum_profiles(mo[1], sp[1]))
                    if total is not None:
                        out[(tgt, src)] = total
            return out

        return limit_mod.LimitParams(
            grid=grid,
            rho={s: self.rates[s].limit_rate() for s in "ab"},
            rate_slope={s: self.rates[s].limit_slope() for s in "ab"},
            base_rate={s: limit_mod.ConstantExo(self.base_active[s]) for s in "ab"},
            base_drift={
                s: limit_mod.ConstantExo(self.base_drift.get(s, 0.0)) for s in "ab"
            },
            base_passive={
                pt: (limit_mod.ConstantExo(fac), prof)
                for pt, (fac, prof) in self.base_passive.items()
            },
            place_gain={s: self.sizes[f"{s}_lo"].place_gain for s in "ab"},
            cancel_gain={s: self.sizes[f"{s}_cx"].cancel_gain for s in "ab"},
            act_from_act=summed(self.act_from_act, "ab"),
            act_from_pas=dict(self.act_from_pas),
            pas_from_act=summed(self.pas_from_act, PASSIVE_TYPES),
            pas_from_pas=dict(self.pas_from_pas),
            drift_from_act=summed(self.drift_from_act, "ab"),
            drift_from_pas=dict(self.drift_from_pas),
        )
