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

Each thinning candidate reads one row of uniforms from its stream, drawn
in blocks (``_draw_block``): the waiting time and the size mark come by
inversion of the exponential law, the label, the passive term and the
distance by inversion of discrete or tick-cell CDFs.  A run draws a
passive distance only where it reads it (``_CompiledBook.marked``) and
records the mark columns of every other candidate row.  Nothing in a run
reads a volume (state factors read only the best ticks, and exogenous
densities are constants), so both engines finish through one after-run step
(``_assemble_runs``): it draws the other distances and every size, folds
the passive events into the volume ledgers (``_fold_ledgers``), reads the
checkpoint diagnostics from the kernel sums kept after each event and
sums the loads.

``simulate_book`` runs one stream.  ``simulate_books`` runs the replicates
of a level in lockstep, one column per stream, and returns for each stream
the run ``simulate_book`` returns, bit for bit; it pays off from a few
streams on, while a single stream runs faster through ``simulate_book``.
"""

from __future__ import annotations

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
    TableProfile,
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
#: ticks a ledger's window grows to beyond a passive tick that falls outside it
_WINDOW_GROWTH = 16
#: history truncation level of the kernel bank, relative to the active
#: exogenous mass (at least 1)
EPS_TRUNC_FACTOR = 1e-12
#: accepted events after which ``simulate_book`` gives up as unstable
MAX_EVENTS = 5_000_000
#: candidate rows a stream draws at a time (``_draw_block``)
BLOCK_ROWS = 64
#: the columns of a candidate row: the waiting time, the thinning, label
#: and term-pick uniforms, the tick cell and the offset within it of a
#: passive distance, and the size mark; ``_EXP_COLS`` hold standard
#: exponential variates, the others uniforms
_WAIT, _THIN, _LABEL, _TERM, _CELL, _OFFSET, _SIZE = range(7)
_ROW_WIDTH = 7
_EXP_COLS = [_WAIT, _SIZE]
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

    def tick_of(self, x):
        """Index j of the tick interval [j*dx, (j+1)*dx) containing x, elementwise."""
        return np.floor(np.asarray(x) / self.delta_x + 1e-9).astype(np.int64)

    def price_of(self, tick: int) -> float:
        return tick * self.delta_x

    def to_tick_exact(self, price: float) -> int:
        tick = round(price / self.delta_x)
        if abs(price - tick * self.delta_x) > 1e-9 * max(1.0, abs(price)):
            raise ValueError(f"price {price} is not on the {self.delta_x} grid")
        return int(tick)


@dataclass(eq=False)
class VolumeLedger:
    """Per-tick volume densities over a materialised absolute tick window.

    ``values`` holds the densities at ticks ``base`` to ``base +
    values.size - 1``; every tick outside it holds its initial density.  A
    run's final ledgers are built after it from its passive events
    (``_fold_ledgers``).
    """

    init_density: Callable[[np.ndarray], np.ndarray]
    base: int
    values: np.ndarray
    delta_x: float

    @classmethod
    def initial(cls, init_density, lo_tick: int, hi_tick: int, delta_x: float) -> "VolumeLedger":
        """The initial densities, materialised on ticks ``lo_tick`` to ``hi_tick - 1``."""
        led = cls(init_density, lo_tick, np.empty(0), delta_x)
        led.values = led._initial(lo_tick, hi_tick)
        if np.any(led.values < 0):
            raise ValueError("initial volume densities must be >= 0")
        return led

    def _mids(self, lo: int, hi: int) -> np.ndarray:
        return (np.arange(lo, hi) + 0.5) * self.delta_x

    def _initial(self, lo: int, hi: int) -> np.ndarray:
        return np.array(self.init_density(self._mids(lo, hi)), dtype=float)

    def window(self, lo_tick: int, hi_tick: int) -> np.ndarray:
        """A copy of the densities at ticks ``lo_tick`` to ``hi_tick - 1``."""
        out = self._initial(lo_tick, hi_tick)
        lo = max(lo_tick, self.base)
        hi = max(min(hi_tick, self.base + self.values.size), lo)
        out[lo - lo_tick : hi - lo_tick] = self.values[lo - self.base : hi - self.base]
        return out


def ledger_inners(ledgers: Sequence[VolumeLedger], f: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """Inner product of every ledger of ``ledgers`` (of one tick size) with
    ``f`` by the tick midpoint rule, ``f`` evaluated once on the midpoints
    spanning every window.  Ledgers of one window are summed as rows of one
    stack, which adds each row in the order a one-ledger ``np.sum`` does."""
    dx = ledgers[0].delta_x
    if any(led.delta_x != dx for led in ledgers):
        raise ValueError("ledger_inners needs ledgers of one tick size")
    lo = min(led.base for led in ledgers)
    hi = max(led.base + led.values.size for led in ledgers)
    mids = ledgers[0]._mids(lo, hi)
    vals = np.broadcast_to(np.asarray(f(mids)), mids.shape)
    groups: dict = {}
    for k, led in enumerate(ledgers):
        groups.setdefault((led.base, led.values.size), []).append(k)
    out = np.empty(len(ledgers))
    for (base, size), ks in groups.items():
        stack = np.stack([ledgers[k].values for k in ks])
        out[ks] = np.sum(stack * vals[base - lo : base - lo + size], axis=1) * dx
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


def apply_active(state: BookState, active_type: str) -> BookState:
    """One-tick price move of the given active type, in place.

    Volume ledgers are untouched: in absolute coordinates a price move only
    relabels which part of the density is the standing book and which part
    is the pre-placed spread volume.
    """
    state.ask_tick, state.bid_tick = _moved(state.ask_tick, state.bid_tick, active_type)
    return state


def _moved(ask: int, bid: int, active_type: str) -> tuple[int, int]:
    """The best ticks after a one-tick move of the given active type; a move
    that would cross the book raises ``NonCrossingError``."""
    da, db = _PRICE_MOVES[active_type]
    if ask + da < bid + db:
        raise NonCrossingError(f"{active_type} would cross the book at spread {ask - bid} ticks; "
                               "the state-rate factors violate the no-crossing condition")
    return ask + da, bid + db


def _fold_ledgers(p: "MicroParams", ledgers: Sequence, n_runs: int, runs: np.ndarray,
                  labels: np.ndarray, xs: np.ndarray, zs: np.ndarray, asks: np.ndarray,
                  bids: np.ndarray) -> list:
    """The ledgers of ``n_runs`` runs after the passive events among their
    records, run r's ask and bid ledgers at ``2r`` and ``2r + 1``.  Every
    run starts from the ask and bid ledgers of ``ledgers``; per record come
    its run, label, distance, size and best ticks, each run's records in
    event order.

    A passive event hits the tick at its distance from the same-side best
    price; a placement adds ``(delta_v / delta_x)(e^z - 1)`` there, a
    cancellation multiplies by ``1 + (delta_v / delta_x)(e^-z - 1)``.  A
    tick outside its window first grows the window to ``_WINDOW_GROWTH``
    ticks beyond it, so windows depend on the order of the ticks; each
    growth round places the first tick outside every window.  Each fold
    round applies the events of one rank on their ticks, so every density
    sees its additions and multiplications in event order.
    """
    pas = labels >= 4
    labels, runs, zs = labels[pas], runs[pas], zs[pas]
    if np.any(zs < 0):
        raise ValueError("size marks must be >= 0")
    bid_side = labels >= 6
    cells = TickGrid(p.delta_x).tick_of(xs[pas])
    ticks = np.where(bid_side, bids[pas] - cells - 1, asks[pas] + cells)
    led = 2 * runs + bid_side
    place = labels % 2 == 0
    ratio = p.delta_v / p.delta_x
    # math.exp once per distinct exponent (a dirac size has one per kind)
    signed = np.where(place, zs, -zs)
    exponents = np.unique(signed)
    gain = np.array([math.exp(z) for z in exponents.tolist()])[
        np.searchsorted(exponents, signed)] - 1.0
    vals = np.where(place, ratio * gain, 1.0 + ratio * gain)

    base0 = np.tile(np.array([ledger.base for ledger in ledgers], dtype=np.int64), n_runs)
    end0 = base0 + np.tile([ledger.values.size for ledger in ledgers], n_runs)
    base, end = base0.copy(), end0.copy()
    for edge, outside, reach in ((base, np.less, -_WINDOW_GROWTH),
                                 (end, np.greater_equal, _WINDOW_GROWTH + 1)):
        while (hit := np.flatnonzero(outside(ticks, edge[led]))).size:
            at, first = np.unique(led[hit], return_index=True)
            edge[at] = ticks[hit[first]] + reach
    ledgers = list(ledgers) * n_runs
    parts = [ledger.values for ledger in ledgers]
    for k in np.flatnonzero((base != base0) | (end != end0)).tolist():
        parts[k] = np.concatenate((ledgers[k]._initial(base[k], base0[k]), parts[k],
                                   ledgers[k]._initial(end0[k], end[k])))
    flat = np.concatenate(parts)
    offsets = np.concatenate(([0], np.cumsum(end - base)))

    pos = offsets[led] + ticks - base[led]
    # event order on each tick, then the events by rank, each in event
    # order: a sort on a key unique to each event gives the permutation of
    # a stable sort, in a fraction of its time
    m = pos.size
    order = np.argsort(pos * m + np.arange(m))
    pos, place, vals = pos[order], place[order], vals[order]
    starts = np.flatnonzero(np.r_[True, pos[1:] != pos[:-1]])
    rank = np.arange(m) - np.repeat(starts, np.diff(np.r_[starts, m]))
    by_rank = np.argsort(rank * m + np.arange(m))
    pos, place, vals = pos[by_rank], place[by_rank], vals[by_rank]
    edges = np.cumsum(np.bincount(rank)).tolist()
    for lo, hi in zip([0] + edges, edges):
        at = pos[lo:hi]
        v = flat[at]
        flat[at] = np.where(place[lo:hi], v + vals[lo:hi], v * vals[lo:hi])
    offsets = offsets.tolist()
    return [VolumeLedger(ledger.init_density, b, flat[lo:hi], ledger.delta_x)
            for ledger, b, lo, hi in zip(ledgers, base.tolist(), offsets, offsets[1:])]


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
            cdf = np.cumsum(pdf)
            # the grid in standard exponential quantiles, so a mark is drawn
            # by interpolating at the row's exponential variate
            with np.errstate(divide="ignore"):
                self._lognormal_grid = (-np.log1p(-cdf / cdf[-1]), zs)
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

    def samples(self, e: np.ndarray) -> np.ndarray:
        """The size marks at the standard exponential variates ``e``, by
        inversion, elementwise."""
        if self.family == "dirac":
            return np.full(e.shape, float(self.params["z"]))
        if self.family == "exponential":
            return e / float(self.params["rate"])
        return np.interp(e, *self._lognormal_grid)


# ---------------------------------------------------------------------------
# exogenous densities and state-rate factors
# ---------------------------------------------------------------------------


class ExoConst:
    """Constant exogenous density, compiled into a level constant."""

    def __init__(self, value: float):
        if not 0 <= value < math.inf:
            raise ValueError(f"exogenous densities are finite and >= 0, got {value}")
        self.value = float(value)


class SpreadLinearFactor:
    """State factor scale * (spread - offset_ticks * dx)^+.

    With offset 0 this is the market-order factor; with offset 1 the
    spread-placement factor, which vanishes for spreads below one tick and
    so satisfies the no-crossing condition structurally.  Like every state
    factor it reads only the best prices, so passive events leave it
    unchanged.
    """

    def __init__(self, scale: float, offset_ticks: int = 0):
        if not 0 <= scale < math.inf:
            raise ValueError(f"factor scale must be finite and >= 0, got {scale}")
        self.scale = float(scale)
        self.offset_ticks = int(offset_ticks)

    def spreads(self, ticks: np.ndarray, delta_x: float) -> np.ndarray:
        """The factor at each spread of ``ticks`` (in ticks)."""
        return self.scale * np.maximum(ticks - self.offset_ticks, 0) * delta_x


class GatedConstantFactor:
    """Constant factor, zeroed when the spread is below one tick.

    Like every state factor it reads only the best prices, so passive
    events leave it unchanged.
    """

    def __init__(self, value: float, gated: bool):
        if not 0 <= value < math.inf:
            raise ValueError(f"factor must be finite and >= 0, got {value}")
        self.value = float(value)
        self.gated = gated

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

    State factors are ``SpreadLinearFactor`` or ``GatedConstantFactor``,
    evaluated through ``spreads`` on the spread in ticks, which only active
    events move.  Exogenous densities are ``ExoConst``.  Any other factor or
    density raises ``TypeError`` when the book compiles.
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
        for name in ("delta_x", "delta_v", "half_width"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be positive and finite, got {value}")
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
            VolumeLedger.initial(self.ask_volume0, lo, hi, self.delta_x),
            VolumeLedger.initial(self.bid_volume0, lo, hi, self.delta_x),
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


# ---------------------------------------------------------------------------
# the compiled engine
# ---------------------------------------------------------------------------


class _PassiveRow:
    """Mass terms of one passive type: the exogenous term, then one per
    passive-target kernel entry ``(state, amplitude, mass factor, grid
    factor)``, with the profile, sampler and checkpoint values of each.
    ``term`` is the level constant ``exo * mass / delta_v``, ``mass`` that
    of the base profile."""

    __slots__ = ("exo", "term", "entries", "profiles", "samplers", "cp_shapes")

    def __init__(self, exo, profile: SpatialProfile, delta_x: float, delta_v: float,
                 half_width: float):
        mass = profile.mass(half_width)
        self.exo = exo
        self.term = exo.value * mass / delta_v
        self.entries: list = []
        self.profiles = [profile]
        self.samplers = [profile.sampler(delta_x, half_width) if mass > 0 else None]


class _CompiledBook:
    """One ``MicroParams`` compiled into kernel index tables and level constants.

    Its kernel entries are registered in one ``KernelBank``.  Each active
    row holds the level constant ``exo / dx^2`` and the ``(state,
    amplitude)`` of its active then its passive sources, in the order the
    intensity sums run.  Active types with equal rows (the same constant and
    the same source lists) share one row, and ``active_of`` maps each
    active type to its row.  ``diagnostics`` turns the kernel sums at a set
    of checkpoints into d11, d22 and the active scalars, once, after the
    runs.
    """

    def __init__(self, p: MicroParams):
        dx, dv, L = p.delta_x, p.delta_v, p.half_width
        for name, exo in [*p.base_active.items(), *((k, e) for k, (e, _) in p.base_passive.items())]:
            if type(exo) is not ExoConst:
                raise TypeError(f"the exogenous density of {name} must be an ExoConst; "
                                f"got {type(exo).__name__}")
        self.factors = [p.state_factor[at] for at in ACTIVE_TYPES]
        for at, f in zip(ACTIVE_TYPES, self.factors):
            if type(f) not in (SpreadLinearFactor, GatedConstantFactor):
                raise TypeError(f"the state factor of {at} must be a SpreadLinearFactor or "
                                f"GatedConstantFactor; got {type(f).__name__}")
        # per active type: the first type whose factor has its type and fields
        keys = [(type(f), tuple(vars(f).items())) for f in self.factors]
        self.factor_of = [keys.index(k) for k in keys]
        self.p = p
        self.dx2 = dx**2
        self.state0 = p.initial_state()
        #: the state factors per spread in ticks from 0, one row per active
        #: type, and the same as a list of floats per spread for ``_Engine``
        self.factor_table, self.factor_lists = np.empty((4, 0)), []
        self.cover(self.state0.ask_tick - self.state0.bid_tick)
        eps = EPS_TRUNC_FACTOR * max(sum(exo.value for exo in p.base_active.values()), 1.0)
        self.bank = bank = KernelBank(eps)
        entry = bank.entry

        self.active_rows = []
        self.active_of = []
        rows: dict = {}
        for at in ACTIVE_TYPES:
            exo = p.base_active[at].value
            from_act = [(s, None, p.act_from_act.get((at, src))) for s, src in enumerate(ACTIVE_TYPES)]
            from_pas = [(4 + s, *p.act_from_pas.get((at, src), (None, None)))
                        for s, src in enumerate(PASSIVE_TYPES)]
            from_act = [entry(*e) for e in from_act if e[2] is not None]
            from_pas = [entry(*e) for e in from_pas if e[2] is not None]
            key = (exo, tuple(from_act), tuple(from_pas))
            if key not in rows:
                rows[key] = len(self.active_rows)
                self.active_rows.append((exo / self.dx2, from_act, from_pas))
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

        # with no live passive-target kernel the passive field is the
        # exogenous one, so its checkpoint norms are a level constant
        self.cp_norms = self.passive_norms([0.0] * len(bank.states))
        #: whether every bound equals the value at the same time and book
        #: state: no gamma kernel, and every scanned kernel an exact
        #: ``TableProfile`` whose envelope array is its values, so its bound
        #: interpolates the same array; the majorant is then the last
        #: realised total rate, with no bound pass
        self.bound_is_value = not bank.gammas and all(
            type(prof) is TableProfile and prof.env.tobytes() == prof.vals.tobytes()
            for _i, _h, prof, _memory in bank.scans)
        #: the states with a lag-weighted sum ``b``, which event records keep
        self.gamma_states = [i for i, _ke in bank.gammas]
        #: per label: whether a run draws its distance, for the term masses
        #: of a passive type with more than one term or for an in-profile
        #: weight; every other distance is drawn after the run
        self.marked = np.array([label >= 4 and (
            len(self.passive_rows[label - 4].samplers) > 1
            or any(in_prof is not None for in_prof in bank.excite.get(label, {})))
            for label in range(8)])

    def cover(self, spread: int) -> None:
        """Extend the factor tables, which lack the spread ``spread`` (in
        ticks), to twice that spread, evaluating only the spreads they lack
        and equal factors once (``factor_of``).  The factors are elementwise
        in the spread, so a spread reads the same bits at any table size."""
        spreads = np.arange(len(self.factor_lists), 2 * spread + 1)
        vals = {k: self.factors[k].spreads(spreads, self.p.delta_x) for k in set(self.factor_of)}
        new = np.array([vals[k] for k in self.factor_of])
        self.factor_table = np.concatenate((self.factor_table, new), axis=1)
        self.factor_lists += new.T.tolist()

    def state_factors(self, spreads: np.ndarray) -> np.ndarray:
        """The four state factors at each of ``spreads`` (in ticks, never
        negative), one row per active type, read from the table."""
        try:
            return self.factor_table[:, spreads]
        except IndexError:
            self.cover(int(spreads.max()))
            return self.factor_table[:, spreads]

    def passive_grid(self, j: int, u: list, shapes: list) -> np.ndarray:
        """delta_v * passive intensity of one type, given its base and out
        profiles evaluated on the same distance nodes."""
        row = self.passive_rows[j]
        out = row.exo.value * shapes[0]
        for (i, amp, _k, k_grid), shape in zip(row.entries, shapes[1:]):
            out = out + k_grid * (amp * u[i]) * shape
        return out

    def passive_norms(self, u: list):
        """L1 and squared-L2 parts of d11/d22 of the passive field at cp_x."""
        grids = np.stack([self.passive_grid(j, u, row.cp_shapes)
                          for j, row in enumerate(self.passive_rows)])
        return np.sum(np.abs(grids) @ self.cp_w), np.sum((grids**2) @ self.cp_w)

    def diagnostics(self, u_rows: np.ndarray):
        """d11, d22 and the active scalars dx^2 mu at a set of checkpoints.

        ``u_rows`` holds the per-state kernel sums, one row per state and
        one column per checkpoint.  The columns repeat, element for element,
        the float operations of ``_book_rates`` and of one checkpoint's
        norms, so the values equal a per-checkpoint evaluation bit for bit.
        """
        n = u_rows.shape[1]
        dx2, pref = self.dx2, self.pas_pref
        rows = []
        for term, from_act, from_pas in self.active_rows:
            val = np.full(n, term)
            for i, amp in from_act:
                val = val + amp * u_rows[i]
            for i, amp in from_pas:
                val = val + pref * (amp * u_rows[i])
            rows.append(dx2 * val)
        act = [rows[r] for r in self.active_of]
        # checkpoints off the level constant: a live passive-target kernel sum
        general = np.zeros(n, dtype=bool)
        for row in self.passive_rows:
            for i, amp, _k, _g in row.entries:
                general |= amp * u_rows[i] != 0.0
        l1, l2 = np.full(n, self.cp_norms[0]), np.full(n, self.cp_norms[1])
        for c in np.flatnonzero(general):
            l1[c], l2[c] = self.passive_norms(u_rows[:, c].tolist())
        a0, a1, a2, a3 = act
        d11 = np.abs(a0) + np.abs(a1) + np.abs(a2) + np.abs(a3) + l1
        d22 = np.sqrt(a0 * a0 + a1 * a1 + a2 * a2 + a3 * a3 + l2)
        return d11, d22, np.array(act).T.copy()


class _Engine:
    """Best ticks and running kernel state of one run over a compiled book;
    the state factors per spread are read from the book's table."""

    def __init__(self, params: MicroParams):
        if params._compiled is None:
            params._compiled = _CompiledBook(params)
        self.book = book = params._compiled
        self.ask, self.bid = book.state0.ask_tick, book.state0.bid_tick
        self.sums = KernelSums(book.bank)
        self.set_factors()

    def set_factors(self) -> None:
        book, spread = self.book, self.ask - self.bid
        if spread >= len(book.factor_lists):
            book.cover(spread)
        self.factors = book.factor_lists[spread]

    def advance(self, t: float) -> None:
        sums = self.sums
        if t >= sums.t:
            sums.advance(t, t - sums.t)

    def fire(self, label: int, distance: float) -> None:
        """Feed an event into every kernel state it sources; an active event
        also moves the best ticks."""
        self.sums.fire(label, distance)
        if label < 4:  # state factors read only the spread
            self.ask, self.bid = _moved(self.ask, self.bid, ACTIVE_TYPES[label])
            self.set_factors()

    def rates(self, bound: bool):
        """``_book_rates`` of this run."""
        return _book_rates(self.book, self.sums.units(bound), self.factors)


def _book_rates(book: _CompiledBook, u, factors, n: Optional[int] = None):
    """Per-type event rates, the term masses of every passive type and the
    active intensities mu behind the active rates (before the state factors).

    ``u`` holds the kernel sums of every state and ``factors`` the four
    state factors.  The values are floats of one run, or, with ``n`` given,
    columns of ``n`` replicates, in the same float operations.  A level
    constant stays a float where columns are added to it, and a passive
    type's exogenous term always does: a float broadcasts to the same sums.
    So a passive rate or term of columns may be a float; mu and the active
    rates are always columns.  The terms of a passive type are added left
    to right (builtin ``sum`` of floats is compensated from Python 3.12 on).
    """
    pref = book.pas_pref
    rows = []
    for term, from_act, from_pas in book.active_rows:
        val = term if n is None or from_act or from_pas else np.full(n, term)
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
        m = [row.term]
        for i, amp, k_mass, _k in row.entries:
            m.append(k_mass * (amp * u[i]))
        terms.append(m)
    return act, [functools.reduce(operator.add, m) for m in terms], terms, mu


def _rate_total(act, pas):
    """Sum of the eight per-type rates (floats or replicate columns), left to
    right within the active and within the passive types, as numpy sums
    four-element arrays."""
    return (act[0] + act[1] + act[2] + act[3]) + (pas[0] + pas[1] + pas[2] + pas[3])


def _draw_block(rngs: list) -> np.ndarray:
    """The next ``BLOCK_ROWS`` candidate rows of each stream of ``rngs``, one
    column per stream: ``(BLOCK_ROWS, _ROW_WIDTH, len(rngs))``.

    Each stream draws its ``_ROW_WIDTH`` uniforms a row; the waiting-time and
    size columns of all streams are then turned into standard exponential
    variates by inversion, in one elementwise pass.  Generator uniforms do
    not depend on how they are chunked, so a stream's rows do not depend on
    ``BLOCK_ROWS`` or on the streams drawn beside it.
    """
    block = np.stack([rng.random((BLOCK_ROWS, _ROW_WIDTH)) for rng in rngs], axis=-1)
    block[:, _EXP_COLS] = -np.log1p(-block[:, _EXP_COLS])
    return block


def simulate_book(
    params: MicroParams,
    horizon: float,
    rng_seed,
    n_checkpoints: int = 33,
) -> MicroRun:
    """Thinning simulation of the book over [0, horizon].

    The dominating rate is rebuilt at every candidate from the frozen book
    state (state factors only change at events) and the kernel bounds, so
    acceptance is exact; a realized rate above the dominating rate aborts
    the run as an envelope declaration bug.

    Candidate k reads row k of the stream's candidate rows (``_draw_block``)
    whether it is thinned, active or passive: its wait is the row's
    exponential variate over the majorant, then come the thinning and label
    uniforms and, for a passive event, the term pick, the tick cell, the
    offset within the cell and the size.  So the draws depend on neither
    the accept path nor the number of streams run together.

    The run keeps what a ``simulate_books`` pass keeps of each event and
    draws a passive distance only where it reads it
    (``_CompiledBook.marked``).  Every other distance, every size, the
    volume ledgers, the loads and d11, d22 and the active scalars at the
    ``n_checkpoints`` equally spaced checkpoints are built after the run
    (``_assemble_runs``), so the event stream does not depend on
    ``n_checkpoints``.
    """
    if not (math.isfinite(horizon) and horizon > 0):
        raise ValueError(f"horizon must be positive and finite, got {horizon}")
    rng = as_rng(rng_seed, "micro")
    eng = _Engine(params)
    book, sums = eng.book, eng.sums
    dx = params.delta_x
    marked = book.marked.tolist()

    rates = eng.rates(bound=False)
    mu = rates[3]
    # the records of ``_assemble_runs``, the first one the initial state;
    # the kernel sums after each record apart
    records = [(0.0, 0, math.nan, math.nan, math.nan, eng.ask, eng.bid,
                dx * (mu[0] - mu[1]), dx * (mu[2] - mu[3]))]
    after = [sums.g + sums.b]

    t = 0.0
    candidates = 0
    rows, k = [], 0
    while True:
        if len(records) > MAX_EVENTS:
            raise RuntimeError("event budget exceeded; check kernel stability")
        # the last realised rates were taken at this time and book state
        majorant = _rate_total(*(rates if book.bound_is_value else eng.rates(bound=True))[:2])
        if majorant <= 0.0:
            break
        if k == len(rows):
            rows, k = _draw_block([rng])[..., 0].tolist(), 0
        row = rows[k]
        k += 1
        t_next = t + row[_WAIT] / majorant
        if t_next > horizon:
            break
        candidates += 1
        eng.advance(t_next)
        t = t_next
        rates = act_r, pas_r, terms, _mu = eng.rates(bound=False)
        total = _rate_total(act_r, pas_r)
        if total > majorant * (1.0 + 1e-9):
            raise MajorantViolationError(
                f"book rate {total} exceeded majorant {majorant} at t={t}"
            )
        if row[_THIN] * majorant > total:
            continue  # thinned candidate

        u = row[_LABEL] * total
        cum = 0.0
        label = 7
        for i, rate in enumerate(act_r + pas_r):
            cum += rate
            if u <= cum:
                label = i
                break

        x = row[_CELL]
        if marked[label]:
            j = label - 4
            sampler = book.passive_rows[j].samplers[_term_pick(terms[j], row[_TERM])]
            x = sampler.sample(x, row[_OFFSET])
        eng.fire(label, x)
        rates = eng.rates(bound=False)
        mu = rates[3]
        records.append((t, label, x, row[_OFFSET], row[_SIZE], eng.ask, eng.bid,
                        dx * (mu[0] - mu[1]), dx * (mu[2] - mu[3])))
        after.append(sums.g + sums.b)

    fields = list(np.array(records).T.copy())
    for f in (1, 5, 6):  # the label and the ticks
        fields[f] = fields[f].astype(np.int64)
    kept = list(range(len(sums.g))) + [len(sums.g) + i for i in book.gamma_states]
    fields.append(np.array(after).T[kept])
    return _assemble_runs(book, horizon, n_checkpoints, [len(records)], fields, [sums],
                          [candidates])[0]


def _assemble_runs(book: _CompiledBook, horizon: float, n_checkpoints: int, sizes: list,
                   fields: list, sums: list, candidates: list) -> list[MicroRun]:
    """The ``MicroRun`` of each of a set of runs, built from its records.

    ``fields`` holds one array per record field, the runs one after the
    other, each run's ``sizes`` records from its initial state: the time,
    the label, the distance where the run drew it (``_CompiledBook.marked``)
    and the tick-cell uniform elsewhere, the offset and size columns of the
    candidate row, the best ticks, beta of each side and, one column per
    record, the kernel sums after it (``_checkpoint_diagnostics``).
    ``sums`` holds each run's ``KernelSums`` (read for scanned kernels) and
    ``candidates`` its candidate count.

    From the records come every distance the runs did not draw and every
    size, one pass over the passive types with an event: a type is marked
    for all of its events or for none, and an unmarked type has a single
    term, whose sampler draws its distances.  Then come the events, the final
    volume ledgers (``_fold_ledgers``), the checkpoint diagnostics and the
    loads: 1 at the start of a run, then dx^2 per active and delta_v per
    passive event, one row-wise running sum over a zero-padded array of
    runs.  A run's final ticks are those of its last record, and each
    record after the first is an accepted event.

    Each step runs once for the whole set of runs: the event streams are
    checked in one pass (``EventStream.spans``), and every run's ledgers
    fold from the book's initial pair.  A run's arrays are views of the
    set's: its slices of the record fields and of the loads, and its rows of
    the checkpoint arrays.
    """
    p = book.p
    times, labels, xs, offsets, zs, asks, bids, beta_a, beta_b, after = fields
    beta = np.stack([beta_a, beta_b], axis=1)
    n, sizes = len(sizes), np.asarray(sizes)
    ends = np.cumsum(sizes).tolist()
    starts = [0] + ends[:-1]
    active = labels < 4
    for j in np.flatnonzero(np.bincount(labels, minlength=8)[4:]).tolist():
        at = np.flatnonzero(labels == 4 + j)
        if not book.marked[4 + j]:
            xs[at] = book.passive_rows[j].samplers[0].samples(xs[at], offsets[at])
        zs[at] = p.sizes[PASSIVE_TYPES[j]].samples(zs[at])
    xs[active] = zs[active] = math.nan
    run_of = np.repeat(np.arange(n), sizes)
    ledgers = _fold_ledgers(p, (book.state0.ask_vol, book.state0.bid_vol), n,
                            run_of, labels, xs, zs, asks, bids)
    cps = np.linspace(0.0, horizon, n_checkpoints)
    d11, d22, act = _checkpoint_diagnostics(book, cps, times, ends, after, sums)
    loads = np.zeros((n, sizes.max()))
    loads[run_of, np.arange(labels.size) - np.repeat(starts, sizes)] = np.where(
        active, book.dx2, p.delta_v)
    loads[:, 0] = 1.0
    loads = np.cumsum(loads, axis=1)
    last = np.subtract(ends, 1)
    final_ask, final_bid = asks[last].tolist(), bids[last].tolist()
    cp_rows = np.tile(cps, (n, 1))
    streams = EventStream.spans(times, labels, xs, zs, np.add(starts, 1), ends, horizon,
                                EVENT_LABELS)

    # the fields of each object in the order they are declared
    runs, grid = [], book.state0.grid
    for r, (start, end) in enumerate(zip(starts, ends)):
        event_times = times[start:end]
        diag = MicroDiagnostics(event_times, loads[r, :end - start], beta[start:end], cp_rows[r],
                                d11[r], d22[r], act[r])
        state = BookState(grid, final_ask[r], final_bid[r], ledgers[2 * r], ledgers[2 * r + 1])
        runs.append(MicroRun(horizon, streams[r], event_times, asks[start:end], bids[start:end],
                             state, diag, candidates[r], end - start - 1))
    return runs


def _checkpoint_diagnostics(book: _CompiledBook, cps: np.ndarray, times: np.ndarray,
                            ends: list, after: np.ndarray, sums: list):
    """d11, d22 and the active scalars of a set of runs at the checkpoints
    ``cps``, one row per run.

    ``times`` holds the record times of the runs one after the other, each
    run's from its initial state at time 0, and ``ends`` where each run's
    records end; ``after`` holds the kernel sums after each record, one
    column per record: ``g`` of every state, then ``b`` of the gamma states
    (``gamma_states``).  A checkpoint reads the sums after the last record
    at or before it, decayed to it in one step in the float operations of
    ``KernelSums.advance`` and ``units``; a scanned kernel reads its history
    up to each checkpoint from the run's ``sums``, in one
    ``KernelSums.scan_past`` call per run.
    """
    bank, n_runs = book.bank, len(ends)
    n_s = len(bank.states)
    idx = _checkpoint_records(cps, times, ends)
    cp_times = np.tile(cps, n_runs)
    dt = cp_times - times[idx]
    g = after[:n_s, idx]
    b = dict(zip(book.gamma_states, after[n_s:, idx]))
    u = g.copy()
    for kappa, (exps, gams) in bank.decay.items():
        decay = np.fromiter(map(math.exp, (-kappa * dt).tolist()), float, dt.size)
        u[exps] = g[exps] * decay
        for i in gams:
            u[i] = (b[i] + g[i] * dt) * decay
    if bank.scans:
        for r, run_sums in enumerate(sums):
            run_sums.scan_past(u[:, r * cps.size:(r + 1) * cps.size], cps)
    d11, d22, act = book.diagnostics(u)
    return (d11.reshape(n_runs, cps.size), d22.reshape(n_runs, cps.size),
            act.reshape(n_runs, cps.size, 4))


def _checkpoint_records(cps: np.ndarray, times: np.ndarray, ends) -> np.ndarray:
    """The index into ``times`` of each run's last record at or before each
    checkpoint of the ascending ``cps``, run after run.

    ``times`` and ``ends`` are laid out as for ``_checkpoint_diagnostics``,
    each run's times ascending.  A record counts for every checkpoint from
    the first one at or after it, so one search places every record, a
    count over (run, first checkpoint) and a running sum give how many of a
    run's records lie at or before each checkpoint, and the run's start
    offset turns that count into an index.
    """
    n_runs, n_cp = len(ends), cps.size
    sizes = np.diff(ends, prepend=0)
    runs = np.repeat(np.arange(n_runs), sizes)
    first = np.searchsorted(cps, times, side="left")
    counts = np.bincount(runs * (n_cp + 1) + first, minlength=n_runs * (n_cp + 1))
    at_or_before = np.cumsum(counts.reshape(n_runs, n_cp + 1)[:, :n_cp], axis=1)
    return ((np.asarray(ends) - sizes)[:, None] + at_or_before - 1).ravel()


#: (ask, bid) tick move of each event label, one column per label; column 8
#: stands for no event
_LABEL_MOVES = np.array([_PRICE_MOVES[at] for at in ACTIVE_TYPES] + [(0, 0)] * 5,
                        dtype=np.int64).T
#: the column index of a pass in which every live column fires: a slice,
#: which indexes without copying
_EVERY = slice(None)


class _Lockstep:
    """Replicates of one ``simulate_books`` call over a compiled book, one
    column each: best ticks (``ticks``, the ask row then the bid row), state
    factors, running kernel sums (``g`` and ``b`` of ``KernelSums``, one row
    per state) and counters.  ``ids`` names each
    live column's replicate, and ``col`` its column in the current block of
    candidate rows (``BLOCK_ROWS`` by ``_ROW_WIDTH`` by the columns live
    when it was drawn).

    Every column update repeats, element for element, the float operations
    of ``_Engine`` and ``KernelSums``, so each column follows its stream as
    ``simulate_book`` does.  What has no bit-identical vectorised form stays
    per replicate: the stream draws (one call per stream and block), the
    ``math.exp`` decay factors, the term picks of passive types with more
    than one term, in-profile weights and the histories of scanned kernels
    (one ``KernelSums`` per replicate, used for its ``scan``; the rates
    after a pass's events rescan only the columns whose event fed a
    history).  The pass draws the distance of a passive event only where it
    reads it (``_CompiledBook.marked``), and no size mark.  The
    per-replicate objects, ``rngs`` and ``sums``, are lists over the whole
    level, indexed through ``ids``, and so is ``candidates``, each
    replicate's candidate count, which ``retire`` writes as it drops
    finished columns.  It keeps the block at the width it was drawn at:
    ``col`` selects each pass's row from it.

    The columns that fire in a pass are an index array, or ``_EVERY`` when
    every live column fires.  ``advance`` and ``fire`` change ``g`` and
    ``b`` in place, so ``kept_sums`` copies them even then.
    """

    #: per-column arrays, column axis last
    _ARRAYS = ("ids", "t", "ticks", "factors", "g", "b", "accepted", "total", "col")

    def __init__(self, book: _CompiledBook, rngs: list):
        bank, n, n_s = book.bank, len(rngs), len(book.bank.states)
        self.book = book
        self.ids = np.arange(n)
        self.rngs = rngs
        self.sums = [KernelSums(bank) if bank.scans else None for _ in range(n)]
        self.t = np.zeros(n)
        self.ticks = np.repeat(np.array([[book.state0.ask_tick], [book.state0.bid_tick]],
                                        dtype=np.int64), n, axis=1)
        self.factors = book.state_factors(self.ticks[0] - self.ticks[1])
        self.g, self.b = np.zeros((n_s, n)), np.zeros((n_s, n))
        self.candidates = np.empty(n, dtype=np.int64)
        self.accepted = np.zeros(n, dtype=np.int64)
        self.total = np.zeros(n)
        self.block = np.empty((0, _ROW_WIDTH, n))
        self.col = np.arange(n)
        #: per decay rate: its exponential states, a slice when they are
        #: every state, so one multiply decays them all; and its gamma states
        self.decays = [(kappa, _EVERY if exps == list(range(n_s)) else exps, gams)
                       for kappa, (exps, gams) in bank.decay.items()]
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

    def retire(self, done: np.ndarray, candidates: int) -> np.ndarray:
        """Write ``candidates`` as the candidate count of the replicates of
        the columns where ``done`` holds, drop those columns and return the
        indices of the columns kept."""
        self.candidates[self.ids[done]] = candidates
        keep = np.flatnonzero(~done)
        for name in self._ARRAYS:
            setattr(self, name, getattr(self, name)[..., keep])
        return keep

    def advance(self, t: np.ndarray) -> None:
        """``_Engine.advance`` of every column to its time in ``t``."""
        dt = t - self.t
        g, b = self.g, self.b
        for kappa, exps, gams in self.decays:
            decay = np.fromiter(map(math.exp, (-kappa * dt).tolist()), float, dt.size)
            if exps:
                g[exps] *= decay
            for i in gams:
                b[i] = (b[i] + g[i] * dt) * decay
                g[i] *= decay
        self.t = t

    def units(self, bound: bool) -> np.ndarray:
        """``KernelSums.units`` of every column; ``g`` itself when they
        equal it, as ``_book_rates`` only reads them."""
        bank = self.book.bank
        if not (bank.gammas or bank.scans):
            return self.g
        u = self.g.copy()
        for i, ke in bank.gammas:
            u[i] = self.b[i] + u[i] / ke if bound else self.b[i]
        if bank.scans:
            for c, (i, t) in enumerate(zip(self.ids.tolist(), self.t.tolist())):
                sums = self.sums[i]
                sums.t = t
                sums.scan(u[:, c], bound)
        return u

    def kept_sums(self, fired) -> np.ndarray:
        """A copy of the kernel sums a record keeps of the columns ``fired``
        (``_checkpoint_diagnostics``)."""
        g = self.g[:, fired]
        if self.book.gamma_states:
            return np.concatenate((g, self.b[self.book.gamma_states][:, fired]))
        return g.copy() if fired is _EVERY else g

    def rates(self, bound: bool):
        """``_book_rates`` of every column."""
        return _book_rates(self.book, self.units(bound), self.factors, self.ids.size)

    def distances(self, cols: np.ndarray, types: np.ndarray, terms: list, rows: np.ndarray):
        """The distances of passive events of ``PASSIVE_TYPES[types]`` at
        columns ``cols`` from their candidate ``rows`` (one column each),
        each type's term picked by its masses ``terms`` at this pass (a
        float term is every column's), as ``simulate_book`` draws them."""
        picks = np.array([
            _term_pick([m[c] if isinstance(m, np.ndarray) else m for m in terms[j]], pick)
            for j, c, pick in zip(types.tolist(), cols.tolist(), rows[_TERM].tolist())
        ], dtype=np.int64)
        return _distances(self.book, types, picks, rows[_CELL], rows[_OFFSET])

    def fire(self, fired, labels: np.ndarray, xs: np.ndarray) -> None:
        """Feed the events of the columns ``fired`` into the kernel sums, as
        ``KernelSums.fire``."""
        lab = labels
        if fired is not _EVERY:
            lab = np.full(self.ids.size, 8)
            lab[fired] = labels
        self.g += self.unit[lab].T
        if not any(self.slow):
            return
        cols = np.arange(self.ids.size)[fired]
        for c, r, label, x in zip(cols.tolist(), self.ids[cols].tolist(), labels.tolist(),
                                  xs.tolist()):
            for in_prof, stateful, hists in self.slow[label]:
                w = 1.0 if in_prof is None else float(in_prof.value(x))
                for i in stateful:
                    self.g[i, c] += w
                for h in hists:
                    self.sums[r].hist[h].append(float(self.t[c]), w)


def simulate_books(
    params: MicroParams,
    horizon: float,
    rngs: Sequence,
    n_checkpoints: int = 33,
) -> list[MicroRun]:
    """``simulate_book`` on every stream of ``rngs``, the replicates run in
    lockstep.

    Each pass draws one candidate for every live replicate; replicates drop
    out as they finish.  Every live replicate is at the same pass, so a pass
    reads one row of every replicate's block of candidate rows, and every
    ``BLOCK_ROWS`` passes each stream draws its next block.  Each returned
    run equals, bit for bit, what ``simulate_book`` returns on the same
    stream: both read the same rows, and every vectorised update repeats the
    scalar float operations element for element.  The gain is the
    per-candidate Python work the replicates share, so a single stream runs
    faster through ``simulate_book``.

    A pass in which every live column fires, as nearly every pass of a book
    whose majorant is its last realised rate does (``bound_is_value``),
    indexes its columns by a slice (``_EVERY``), so the label draw, the tick
    moves, the kernel update and the records read its arrays in place.  A
    record may alias an array that nothing changes in place afterwards (the
    replicate ids, the candidate times); it copies the kernel sums, which
    change in place, and the mark columns of the candidate row, so that it
    keeps neither the row nor the block alive.

    Set-up, the exponential inversion of each block and retiring finished
    replicates run once per level or per pass, and so does the after-run
    step both engines share (``_assemble_runs``), over the records of every
    replicate at once.
    Per replicate remain: building its generator and run objects, one
    ``random`` call per block, the ``math.exp`` decay factors, the term
    picks of passive types with more than one term, in-profile weights and
    scanned-kernel histories (``_Lockstep``).

    The state factors, ``SpreadLinearFactor`` or ``GatedConstantFactor``,
    are read per spread in ticks from the book's table
    (``_CompiledBook.state_factors``), and every exogenous density is an
    ``ExoConst``; any other factor or density raises ``TypeError`` when the
    book compiles.  A ``MajorantViolationError`` or ``NonCrossingError``
    names the replicate by its index in ``rngs``.
    """
    if not (math.isfinite(horizon) and horizon > 0):
        raise ValueError(f"horizon must be positive and finite, got {horizon}")
    p = params
    if p._compiled is None:
        p._compiled = _CompiledBook(p)
    book = p._compiled
    dx = p.delta_x
    n = len(rngs)
    if not n:
        return []
    run = _Lockstep(book, [as_rng(g, "micro") for g in rngs])

    act, pas, _terms, mu = run.rates(False)
    run.total = _rate_total(act, pas)
    # event records, one list per field with one array per pass: the
    # replicate, then the fields of ``_assemble_runs``, the best ticks as
    # one field of two rows; the first pass holds the initial state of
    # every replicate
    nan = np.full(n, math.nan)
    records: list = [[f] for f in (
        run.ids, np.zeros(n), np.zeros(n, dtype=np.int64), nan, nan, nan, run.ticks.copy(),
        dx * (mu[0] - mu[1]), dx * (mu[2] - mu[3]), run.kept_sums(_EVERY))]

    passes = 0
    while run.ids.size:
        # a column accepts at most one event a pass
        if passes >= MAX_EVENTS and run.accepted.max() >= MAX_EVENTS:
            raise RuntimeError("event budget exceeded; check kernel stability")
        # the last realised rates were taken at this time and book state
        majorant = run.total if book.bound_is_value else _rate_total(*run.rates(True)[:2])
        k = passes % BLOCK_ROWS
        if k == 0:
            run.block = _draw_block([run.rngs[i] for i in run.ids.tolist()])
            run.col = np.arange(run.ids.size)
        # until a column retires, the pass reads its row of the block in place
        row = run.block[k] if run.col.size == run.block.shape[2] else run.block[k][:, run.col]
        passes += 1
        stop = majorant <= 0.0
        t_next = run.t + row[_WAIT] / np.where(stop, 1.0, majorant)
        done = stop | (t_next > horizon)
        if done.any():
            # every earlier pass drew a candidate inside the horizon
            keep = run.retire(done, passes - 1)
            t_next, majorant, row = t_next[keep], majorant[keep], row[:, keep]
            if not run.ids.size:
                break
        run.advance(t_next)
        act, pas, terms, _mu = run.rates(False)
        total = run.total = _rate_total(act, pas)
        over = total > majorant * (1.0 + 1e-9)
        if over.any():
            c = int(np.argmax(over))
            raise MajorantViolationError(
                f"replicate {run.ids[c]}: book rate {float(total[c])} exceeded majorant "
                f"{float(majorant[c])} at t={float(t_next[c])}"
            )
        fired = ~(row[_THIN] * majorant > total)
        if fired.all():
            fired, marks = _EVERY, row[_CELL:].copy()
        else:
            fired = np.flatnonzero(fired)
            if not fired.size:
                continue
            marks = row[_CELL:, fired]

        # the running sums of the eight rates, added left to right
        cum = np.empty((8, run.ids.size))
        cum[0] = act[0]
        for j, rate in enumerate(act[1:] + pas, 1):
            np.add(cum[j - 1], rate, out=cum[j])
        hit = row[_LABEL, fired] * total[fired] <= cum[:, fired]
        labels = np.where(hit.any(axis=0), hit.argmax(axis=0), 7)
        q = np.flatnonzero(book.marked[labels])
        if q.size:
            cols = np.arange(run.ids.size)[fired][q]
            marks[0, q] = run.distances(cols, labels[q] - 4, terms, row[:, cols])

        ticks = run.ticks[:, fired] + _LABEL_MOVES[:, labels]
        crossed = ticks[0] < ticks[1]
        if crossed.any():
            q = int(np.argmax(crossed))
            c = np.arange(run.ids.size)[fired][q]
            try:  # the same move of the replicate's ticks raises the crossing error
                _moved(*run.ticks[:, c].tolist(), ACTIVE_TYPES[labels[q]])
            except NonCrossingError as exc:
                raise NonCrossingError(f"replicate {run.ids[c]}: {exc}") from None
        run.ticks[:, fired] = ticks
        run.fire(fired, labels, marks[0])
        run.accepted[fired] += 1
        if labels.min() < 4:
            run.factors = book.state_factors(run.ticks[0] - run.ticks[1])
        act, pas, _terms, mu = run.rates(False)
        run.total = _rate_total(act, pas)
        for rec, f in zip(records, (
                run.ids[fired], t_next[fired], labels, *marks, ticks,
                dx * (mu[0][fired] - mu[1][fired]), dx * (mu[2][fired] - mu[3][fired]),
                run.kept_sums(fired))):
            rec.append(f)

    candidates = run.candidates.tolist()
    run.block = None  # every column has retired; the rows are not read again

    # one array per field, replicate after replicate, each from its initial
    # state; a field's records go as soon as it is assembled
    ids = np.concatenate(records[0])
    order = np.argsort(ids, kind="stable")

    def assembled(rec: list) -> np.ndarray:
        field = np.concatenate(rec, axis=-1)[..., order]
        rec.clear()
        return field

    fields = list(map(assembled, records[1:]))
    fields[5:6] = fields[5]  # the ask and bid rows
    return _assemble_runs(book, horizon, n_checkpoints, np.bincount(ids, minlength=n), fields,
                          run.sums, candidates)


def _term_pick(masses: list, pick: float) -> int:
    """Index of the passive term a uniform ``pick`` selects by mass."""
    if len(masses) == 1:
        return 0
    masses = np.array(masses)
    pick *= masses.sum()
    return min(int(np.searchsorted(np.cumsum(masses), pick, side="left")), len(masses) - 1)


def _distances(book: _CompiledBook, types: np.ndarray, picks: np.ndarray, cells: np.ndarray,
               offsets: np.ndarray) -> np.ndarray:
    """Distance marks of passive events of ``PASSIVE_TYPES[types]``, each
    from the profile of term ``picks`` of its type at its tick-cell and
    offset uniforms, elementwise as ``TickSampler.sample``: one sampler call
    per (type, term)."""
    xs = np.empty(types.size)
    keys = 4 * picks + types
    for key in np.flatnonzero(np.bincount(keys)).tolist():
        at = np.flatnonzero(keys == key)
        xs[at] = book.passive_rows[key % 4].samplers[key // 4].samples(cells[at], offsets[at])
    return xs


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
    x = np.asarray([distance])
    shapes = [q.value(x) for q in eng.book.passive_rows[j].profiles]
    return float(eng.book.passive_grid(j, eng.sums.units(False), shapes)[0]) / params.delta_v


def _replayed_engine(params: MicroParams, history: EventStream, t: float) -> _Engine:
    if history.times.size and history.times[-1] >= t:
        raise ValueError("history must lie strictly before t")
    eng = _Engine(params)
    for ts, lab, x in zip(history.times, history.labels, history.xs):
        eng.advance(float(ts))
        eng.fire(int(lab), float(x))
    eng.advance(t)
    return eng


def replay_book(params: MicroParams, events: EventStream,
                snapshot_times: Sequence[float] = (), snapshot=None):
    """Fold the recorded events through the pure update functions.

    Returns (ask tick path, bid tick path, final state); the paths and the
    final volume ledgers must reproduce the simulator's bit-exactly.  The
    ticks follow ``apply_active`` event by event, and the ledgers fold the
    passive events (``_fold_ledgers``).  For each of the ascending
    ``snapshot_times``, ``snapshot(t, state)`` sees the book once every
    event at or before ``t`` has been applied.
    """
    state = params.initial_state()
    asks = [state.ask_tick]
    bids = [state.bid_tick]
    for lab in events.labels.tolist():
        if lab < 4:
            apply_active(state, ACTIVE_TYPES[lab])
        asks.append(state.ask_tick)
        bids.append(state.bid_tick)
    asks, bids = np.asarray(asks, dtype=np.int64), np.asarray(bids, dtype=np.int64)
    ledgers = [state.ask_vol, state.bid_vol]
    for t in [*snapshot_times, math.inf]:
        n = int(np.searchsorted(events.times, t, side="right"))
        state = BookState(state.grid, int(asks[n]), int(bids[n]), *_fold_ledgers(
            params, ledgers, 1, np.zeros(n, dtype=np.int64), events.labels[:n], events.xs[:n],
            events.zs[:n], asks[1:n + 1], bids[1:n + 1]))
        if t < math.inf:
            snapshot(t, state)
    return asks, bids, state


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
            base_rate={s: limit_mod.ConstantRate(self.base_active[s]) for s in "ab"},
            base_drift={
                s: limit_mod.ConstantRate(self.base_drift.get(s, 0.0)) for s in "ab"
            },
            base_passive={
                pt: (limit_mod.ConstantRate(fac), prof)
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
