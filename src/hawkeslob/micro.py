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

The first ``simulate_book`` call on a ``MicroParams`` compiles it into
index tables cached on that instance, shared by all replicates of a level.
Its kernel entries go into a ``families.KernelBank``, which keeps the
running kernel sums, the same bank ``hawkes.simulate_thinning`` drives.
"""

from __future__ import annotations

import copy
import math
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
            self._moments = (
                math.exp(z) - 1.0,
                math.exp(-z) - 1.0,
                abs(math.exp(z) - 1.0) ** 4,
            )
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
            self._moments = (
                float(np.trapezoid(pdf * (np.exp(zs) - 1), zs)),
                float(np.trapezoid(pdf * (np.exp(-zs) - 1), zs)),
                float(np.trapezoid(pdf * np.abs(np.exp(zs) - 1) ** 4, zs)),
            )
        else:
            raise ValueError(f"unknown size family {family!r}")
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
    so satisfies the no-crossing condition structurally.
    """

    def __init__(self, scale: float, offset_ticks: int = 0):
        if scale < 0:
            raise ValueError("factor scale must be >= 0")
        self.scale = float(scale)
        self.offset_ticks = int(offset_ticks)

    def __call__(self, state: BookState) -> float:
        ticks = state.spread_ticks - self.offset_ticks
        return self.scale * max(ticks, 0) * state.grid.delta_x


class GatedConstantFactor:
    """Constant factor, zeroed when the spread is below one tick."""

    def __init__(self, value: float, gated: bool):
        if value < 0:
            raise ValueError("factor must be >= 0")
        self.value = float(value)
        self.gated = gated

    def __call__(self, state: BookState) -> float:
        if self.gated and state.spread_ticks < 1:
            return 0.0
        return self.value


# ---------------------------------------------------------------------------
# parameters
# ---------------------------------------------------------------------------


@dataclass
class MicroParams:
    """Everything the n-th order book model needs.

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
    intensity sums run.  A run stores the kernel sums and the varying
    exogenous densities at each checkpoint; ``diagnostics`` turns them into
    d11, d22 and the active scalars once, after the run.
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
        for at in ACTIVE_TYPES:
            exo = p.base_active[at]
            from_act = [(s, None, p.act_from_act.get((at, src))) for s, src in enumerate(ACTIVE_TYPES)]
            from_pas = [(4 + s, *p.act_from_pas.get((at, src), (None, None)))
                        for s, src in enumerate(PASSIVE_TYPES)]
            self.active_rows.append((
                exo,
                exo.value / self.dx2 if type(exo) is ExoConst else None,
                [entry(*e) for e in from_act if e[2] is not None],
                [entry(*e) for e in from_pas if e[2] is not None],
            ))
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
        self.exos = [row[0] for row in self.active_rows] + [row.exo for row in self.passive_rows]
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

    def diagnostics(self, n: int, units: list, exo: list):
        """d11, d22 and the active scalars dx^2 mu at ``n`` checkpoints.

        ``units`` holds the per-state kernel sums and ``exo`` the varying
        exogenous densities, checkpoint after checkpoint.  The columns
        repeat, element for element, the float operations of
        ``_Engine.active`` and of one checkpoint's norms, so the values
        equal a per-checkpoint evaluation bit for bit.
        """
        u_rows = np.array(units, dtype=float).reshape(n, len(self.bank.states)).T
        e_rows = np.empty((len(self.exos), n))
        e_rows[:] = self.exo_consts[:, None]
        e_rows[self.varying] = np.array(exo, dtype=float).reshape(n, len(self.varying)).T
        dx2, pref = self.dx2, self.pas_pref
        act = []
        for r, (_exo, _term, from_act, from_pas) in enumerate(self.active_rows):
            val = e_rows[r] / dx2
            for i, amp in from_act:
                val = val + amp * u_rows[i]
            for i, amp in from_pas:
                val = val + pref * (amp * u_rows[i])
            act.append(dx2 * val)
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
        self.factors = [f(self.state) for f in self.book.factors]

    def active(self, u: list, bound: bool) -> list:
        """Rescaled intensities mu of the active types (factors excluded)."""
        state, t, dx2, pref = self.state, self.sums.t, self.book.dx2, self.book.pas_pref
        out = []
        for exo, term, from_act, from_pas in self.book.active_rows:
            val = term if term is not None else (
                exo.sup_t(state) if bound else exo(t, state)) / dx2
            for i, amp in from_act:
                val += amp * u[i]
            for i, amp in from_pas:
                val += pref * (amp * u[i])
            out.append(val)
        return out

    def rates(self, bound: bool):
        """Per-type event rates, the term masses of every passive type and
        the active intensities mu behind the active rates."""
        u = self.sums.units(bound)
        state, t, dv = self.state, self.sums.t, self.book.p.delta_v
        mu = self.active(u, bound)
        f = self.factors
        act = [f[0] * mu[0], f[1] * mu[1], f[2] * mu[2], f[3] * mu[3]]
        terms = []
        for row in self.book.passive_rows:
            m = [row.term if row.term is not None else (
                row.exo.sup_t(state) if bound else row.exo(t, state)) * row.mass / dv]
            for i, amp, k_mass, _k in row.entries:
                m.append(k_mass * (amp * u[i]))
            terms.append(m)
        return act, [sum(m) for m in terms], terms, mu


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
        act_b, pas_b, *_ = rates if book.bound_is_value else eng.rates(bound=True)
        # left to right, as numpy sums four-element arrays
        majorant = (act_b[0] + act_b[1] + act_b[2] + act_b[3]) + (
            pas_b[0] + pas_b[1] + pas_b[2] + pas_b[3])
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
        total = (act_r[0] + act_r[1] + act_r[2] + act_r[3]) + (
            pas_r[0] + pas_r[1] + pas_r[2] + pas_r[3])
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
            masses = terms[label - 4]
            pick = rng.random()
            idx = 0
            if len(masses) > 1:
                masses = np.array(masses)
                pick *= masses.sum()
                idx = min(int(np.searchsorted(np.cumsum(masses), pick, side="left")),
                          len(masses) - 1)
            distance = book.passive_rows[label - 4].samplers[idx].sample(rng)
            size = p.sizes[PASSIVE_TYPES[label - 4]].sample(rng)
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
    d11, d22, act = book.diagnostics(cp_next, cp_units, cp_exo)
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


def active_intensity(params: MicroParams, history: EventStream, t: float, active_type: str) -> float:
    """Rescaled active intensity given an explicit history (reference path).

    The state factor is not applied; the event rate used by the simulator is
    ``state_factor(S(t-)) * active_intensity(...)``.
    """
    eng = _replayed_engine(params, history, t)
    return eng.active(eng.sums.units(False), False)[ACTIVE_TYPES.index(active_type)]


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


# ---------------------------------------------------------------------------
# scaling-condition checks (warnings, by numerical sampling)
# ---------------------------------------------------------------------------


@dataclass
class ConditionReport:
    warnings: list

    @property
    def clean(self) -> bool:
        return not self.warnings


def check_scaling_conditions(
    family: ScalingFamily,
    levels: Sequence[int] = (0, 1, 2, 3),
    probe_spreads: Sequence[float] = (0.0, 0.05, 0.1, 0.5, 1.0),
    horizon: float = 1.0,
) -> ConditionReport:
    """Sample the refinement sequence for scaling-condition violations.

    Conditions quantify over infinite sets, so only a probe set is checked
    and violations are reported as warnings, not errors.  Checked here:
    bounded state factors and rescaled differences across levels; uniform
    convergence of the rescaled kernels (exact by construction, so the
    check is that amplitudes stay finite); finite passive-profile masses;
    finite size-mark fourth moments.
    """
    import warnings as _warnings

    notes = []
    for k in levels:
        params = family.micro_params(k)
        state = params.initial_state()
        dx = params.delta_x
        for s in probe_spreads:
            ticks = int(round(s / dx))
            state.ask_tick = state.bid_tick + max(ticks, 0)
            for side in "ab":
                mo = params.state_factor[f"{side}_mo"](state)
                sp = params.state_factor[f"{side}_sp"](state)
                if mo < 0 or sp < 0:
                    notes.append(f"level {k}: negative state factor at spread {s}")
                if sp > 0 and state.spread_ticks < 1:
                    notes.append(
                        f"level {k}: spread factor positive below one tick (no-crossing)"
                    )
                slope = (mo - sp) / dx
                if abs(slope) > 1e3 * max(1.0, family.rates[side].scale):
                    notes.append(
                        f"level {k}: rescaled factor difference {slope:.3g} looks unbounded "
                        f"at spread {s}"
                    )
    for pt, (fac, prof) in family.base_passive.items():
        for p in (1, 2, 4):
            xs = np.linspace(-family.half_width, family.half_width, 2001)
            lp = float(np.trapezoid(prof.value(xs) ** p, xs)) ** (1.0 / p)
            if not math.isfinite(lp):
                notes.append(f"{pt}: exogenous profile has infinite L{p} norm")
    for pt, size in family.sizes.items():
        if not math.isfinite(size.fourth_moment):
            notes.append(f"{pt}: size fourth moment is infinite")
    for note in notes:
        _warnings.warn(note, stacklevel=2)
    return ConditionReport(notes)
