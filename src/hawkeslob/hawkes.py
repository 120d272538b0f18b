"""Hawkes random measures on [0, T] x U, simulated by thinning.

The mark space U is a finite label set, optionally crossed with a bounded
distance interval.  The intensity of the point measure is an exogenous
density plus a kernel-weighted sum over its own past points; simulation
accepts candidates of a dominating Poisson sheet below the running
intensity, with the dominating rate rebuilt from user-declared kernel
envelopes at every candidate.  Kernels of the recursive families keep their
running sums in a ``families.KernelBank``; others are summed over the
windowed event history.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .families import (
    RECURSIVE_FAMILIES,
    EventHistory,
    KernelBank,
    KernelSums,
    TimeProfile,
    ZeroProfile,
)
from .rng import as_rng

#: history truncation level of ``simulate_thinning``, relative to max(c0, 1)
EPS_TRUNC_FACTOR = 1e-12
#: accepted events after which ``simulate_thinning`` gives up as unstable
MAX_EVENTS = 10_000_000
#: compensator quadrature of ``compensated_integral``: trapezoid panels per
#: inter-event segment, and nodes across a spatial mark space's interval
N_SUB = 8
N_SPATIAL = 33


class MajorantViolationError(RuntimeError):
    """The realized intensity exceeded the declared dominating rate.

    This signals an invalid envelope declaration, not a sampling fluke, so
    the run is aborted rather than patched up.
    """


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MarkSpace:
    """Finite event labels, optionally with a truncated distance coordinate.

    The base measure puts ``weights[i]`` on label i and Lebesgue measure on
    the distance interval [-half_width, half_width] when present.
    """

    labels: tuple[str, ...]
    weights: tuple[float, ...] = ()
    spatial_half_width: Optional[float] = None

    def __post_init__(self):
        if not self.labels:
            raise ValueError("mark space needs at least one label")
        if not self.weights:
            object.__setattr__(self, "weights", tuple(1.0 for _ in self.labels))
        if len(self.weights) != len(self.labels):
            raise ValueError("one base-measure weight per label")
        if any(w <= 0 for w in self.weights):
            raise ValueError("base-measure weights must be positive")
        if self.spatial_half_width is not None and self.spatial_half_width <= 0:
            raise ValueError("spatial half-width must be positive")

    @property
    def n_labels(self) -> int:
        return len(self.labels)

    @property
    def spatial(self) -> bool:
        return self.spatial_half_width is not None

    def total_mass(self) -> float:
        m = sum(self.weights)
        if self.spatial:
            m *= 2.0 * self.spatial_half_width
        return m

    def label_index(self, label: str) -> int:
        return self.labels.index(label)


class Exogenous:
    """Exogenous intensity density mu(t, u) with a declared uniform sup."""

    def __init__(self, fn: Callable, sup: float):
        if sup < 0:
            raise ValueError("declared sup must be >= 0")
        self.fn = fn
        self.sup = float(sup)

    def __call__(self, t: float, label: int, x: Optional[float]) -> float:
        return self.fn(t, label, x)

    @classmethod
    def constant(cls, rate) -> "Exogenous":
        """Constant rate, either a scalar or one value per label."""
        if np.isscalar(rate):
            r = float(rate)
            return cls(lambda t, i, x: r, r)
        rates = np.asarray(rate, dtype=float)
        return cls(lambda t, i, x: float(rates[i]), float(rates.max(initial=0.0)))


class HawkesKernel:
    """Excitation kernel phi(dt, u, v) of a past event at mark v on mark u."""

    def eval_events(self, dts: np.ndarray, v_labels: np.ndarray, v_xs, u) -> np.ndarray:
        """Vectorized over past events for a fixed target mark u."""
        raise NotImplementedError

    def envelope(self, dt):
        """Non-increasing pointwise majorant over all mark pairs."""
        raise NotImplementedError

    def spatial_mass_bound(self, space: MarkSpace) -> float:
        """Bound on sup_v int_U phi(t, u, v) m(du), uniform in the lag."""
        raise NotImplementedError

    def truncation_lag(self, eps: float) -> float:
        raise NotImplementedError


class MatrixKernel(HawkesKernel):
    """Per-label-pair time profiles: phi(dt, u, v) = profiles[u][v](dt)."""

    def __init__(self, profiles: Sequence[Sequence[Optional[TimeProfile]]]):
        zero = ZeroProfile()
        self.profiles = [[p if p is not None else zero for p in row] for row in profiles]
        d = len(self.profiles)
        if any(len(row) != d for row in self.profiles):
            raise ValueError("kernel profile matrix must be square")
        self.d = d
        # each profile object once, in first-seen order: the envelope and the
        # truncation lag are maxima over entries, so repeats add nothing
        self.distinct = list({id(p): p for row in self.profiles for p in row}.values())
        # the one profile of each target row whose entries are all one object
        self.row_shared = [row[0] if all(p is row[0] for p in row) else None
                           for row in self.profiles]

    def eval_events(self, dts, v_labels, v_xs, u):
        shared = self.row_shared[u[0]]
        if shared is not None:
            # profiles act element by element: one call gives the per-label fill
            return shared.value(dts)
        row = self.profiles[u[0]]
        out = np.zeros_like(dts)
        for j in range(self.d):
            sel = v_labels == j
            if np.any(sel):
                out[sel] = row[j].value(dts[sel])
        return out

    def envelope(self, dt):
        dt = np.asarray(dt, dtype=float)
        env = np.zeros_like(dt)
        for p in self.distinct:
            env = np.maximum(env, p.envelope(dt))
        return env

    def spatial_mass_bound(self, space):
        best = 0.0
        for j in range(self.d):
            col = sum(
                space.weights[i] * self.profiles[i][j].sup() for i in range(self.d)
            )
            best = max(best, col)
        return best

    def truncation_lag(self, eps):
        lag = 0.0
        for p in self.distinct:
            lag = max(lag, p.envelope_inverse(eps))
        return lag


@dataclass
class HawkesSpec:
    """A Hawkes random measure: mark space, exogenous density and kernel.

    ``c0`` is the declared constant bounding the exogenous mass plus the
    kernel spatial mass, checked at construction.
    """

    mark_space: MarkSpace
    exogenous: Exogenous
    kernel: HawkesKernel
    c0: Optional[float] = None

    def __post_init__(self):
        exo_mass = self.exogenous.sup * self.mark_space.total_mass()
        kern_mass = self.kernel.spatial_mass_bound(self.mark_space)
        implied = exo_mass + kern_mass
        if self.c0 is None:
            self.c0 = implied
        elif implied > self.c0 * (1.0 + 1e-9):
            raise ValueError(
                f"declared intensity bound {self.c0} is below the implied bound {implied}"
            )


@dataclass
class EventStream:
    """Time-ordered accepted events with label, distance and size marks."""

    times: np.ndarray
    labels: np.ndarray
    xs: np.ndarray
    zs: np.ndarray
    horizon: float
    label_names: tuple[str, ...] = ()

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        self.xs = np.asarray(self.xs, dtype=float)
        self.zs = np.asarray(self.zs, dtype=float)
        t = self.times
        if t.size and (t[1:] <= t[:-1]).any():
            raise ValueError("event times must be strictly increasing")
        if t.size and (t[0] < 0 or t[-1] > self.horizon):
            raise ValueError("event times must lie in [0, horizon]")

    def __len__(self) -> int:
        return int(self.times.size)

    @classmethod
    def empty(cls, horizon: float, label_names=()) -> "EventStream":
        return cls(
            np.empty(0), np.empty(0, dtype=np.int64), np.empty(0), np.empty(0),
            horizon, tuple(label_names),
        )

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t", "label", "x", "z"])
            for t, lab, x, z in zip(self.times, self.labels, self.xs, self.zs):
                name = self.label_names[lab] if self.label_names else str(int(lab))
                writer.writerow([repr(float(t)), name, repr(float(x)), repr(float(z))])

    @classmethod
    def from_csv(cls, path, horizon: float, label_names: Sequence[str]) -> "EventStream":
        names = tuple(label_names)
        times, labels, xs, zs = [], [], [], []
        with open(path, newline="") as fh:
            for row in csv.DictReader(fh):
                times.append(float(row["t"]))
                labels.append(names.index(row["label"]))
                xs.append(float(row["x"]))
                zs.append(float(row["z"]))
        return cls(np.array(times), np.array(labels), np.array(xs), np.array(zs),
                   horizon, names)


# ---------------------------------------------------------------------------
# intensity evaluation
# ---------------------------------------------------------------------------


def _norm_mark(spec: HawkesSpec, u):
    if isinstance(u, tuple):
        label, x = u
    else:
        label, x = u, None
    if isinstance(label, str):
        label = spec.mark_space.label_index(label)
    if spec.mark_space.spatial and x is None:
        raise ValueError("this mark space carries a distance coordinate")
    return (int(label), x)


def intensity_at(spec: HawkesSpec, history: EventStream, t: float, u) -> float:
    """Conditional intensity at time t and mark u given the strict past."""
    if history.times.size and history.times[-1] >= t:
        raise ValueError("history must contain only events strictly before t")
    u = _norm_mark(spec, u)
    lam = spec.exogenous(t, u[0], u[1])
    if history.times.size:
        dts = t - history.times
        lam += float(np.sum(spec.kernel.eval_events(dts, history.labels, history.xs, u)))
    return lam


# ---------------------------------------------------------------------------
# thinning simulation
# ---------------------------------------------------------------------------


def simulate_thinning(
    spec: HawkesSpec,
    horizon: float,
    rng_seed,
) -> EventStream:
    """Simulate the measure on [0, horizon] by Ogata-style thinning.

    Candidates arrive at rate ``majorant * m(U)`` where the majorant is the
    declared exogenous sup plus the summed kernel envelopes, rebuilt at the
    left endpoint of every segment; each candidate carries a uniform height
    and survives when the height falls below the realized intensity.

    A ``MatrixKernel`` whose profiles all belong to the recursive families,
    both matched by exact type, keeps its sums in a ``families.KernelBank``,
    one running state per source label and decay shape; other kernels scan
    the event history, dropping contributions older than the lag where the
    envelope falls below ``EPS_TRUNC_FACTOR * max(c0, 1)``.
    """
    if not (math.isfinite(horizon) and horizon > 0):
        raise ValueError(f"horizon must be positive and finite, got {horizon}")
    rng = as_rng(rng_seed, "hawkes")
    space = spec.mark_space
    kernel = spec.kernel
    eps_trunc = EPS_TRUNC_FACTOR * max(spec.c0, 1.0)
    sums = None
    # exact class only: subclasses may override eval or envelope, and those
    # declarations must keep flowing through the generic path
    if type(kernel) is MatrixKernel and all(
        type(p) in RECURSIVE_FAMILIES for row in kernel.profiles for p in row
    ):
        bank = KernelBank(eps_trunc)
        rows = [[bank.entry(v, None, p) for v, p in enumerate(row)] for row in kernel.profiles]
        sums = KernelSums(bank)
    t_mem = kernel.truncation_lag(eps_trunc) if sums is None else math.inf

    weights = np.asarray(space.weights, dtype=float)
    label_cdf = (np.cumsum(weights) / weights.sum()).tolist()
    base_mass = space.total_mass()
    exo_sup = spec.exogenous.sup
    half_width = space.spatial_half_width

    hist = EventHistory(float, np.int64, float)  # times, labels, distances
    t = 0.0
    start = 0  # first event still inside the truncation window
    while True:
        n = hist.n
        if n >= MAX_EVENTS:
            raise RuntimeError("event budget exceeded; check kernel stability")
        times, labels, xs = hist.cols
        if sums is not None:
            u = sums.units(True)
            majorant = exo_sup + max(sum(amp * u[i] for i, amp in row) for row in rows)
        elif start < n:
            majorant = exo_sup + float(np.sum(kernel.envelope(t - times[start:n])))
        else:
            majorant = exo_sup
        if majorant <= 0.0:
            break
        dt = rng.exponential(1.0 / (majorant * base_mass))
        if t + dt > horizon:
            break
        t = t + dt
        if sums is not None:
            sums.advance(t, dt)
        else:
            while start < n and t - times[start] > t_mem:
                start += 1
        u01 = rng.random()
        label = 0
        while label_cdf[label] < u01 and label < space.n_labels - 1:
            label += 1
        x = None
        if half_width is not None:
            x = float(rng.uniform(-half_width, half_width))
        z = rng.random() * majorant
        lam = spec.exogenous(t, label, x)
        if sums is not None:
            u = sums.units(False)
            lam += sum(amp * u[i] for i, amp in rows[label])
        elif start < n:
            lam += float(np.sum(kernel.eval_events(
                t - times[start:n], labels[start:n], xs[start:n], (label, x))))
        if lam > majorant * (1.0 + 1e-9):
            raise MajorantViolationError(
                f"intensity {lam} exceeded majorant {majorant} at t={t}; "
                "the declared kernel envelope is invalid"
            )
        if z <= lam:
            hist.append(t, label, x if x is not None else math.nan)
            if sums is not None:
                sums.fire(label)

    n = hist.n
    times, labels, xs = (col[:n].copy() for col in hist.cols)
    return EventStream(times, labels, xs, np.full(n, math.nan), horizon, space.labels)


# ---------------------------------------------------------------------------
# compensated integrals
# ---------------------------------------------------------------------------


def compensated_integral(
    spec: HawkesSpec,
    stream: EventStream,
    f: Callable,
) -> float:
    """int f dN minus int f(s,u) lambda(s,u) ds m(du) over [0, horizon].

    ``f(t, label_index, x)`` must be bounded.  The compensator integral uses
    a composite trapezoid with ``N_SUB`` panels per inter-event segment (the
    intensity is smooth between events) and, for spatial mark spaces, a
    trapezoid with ``N_SPATIAL`` nodes across the distance interval.
    """
    space = spec.mark_space
    horizon = stream.horizon

    jump_term = 0.0
    for t, lab, x in zip(stream.times, stream.labels, stream.xs):
        jump_term += f(t, int(lab), None if math.isnan(x) else x)

    if space.spatial:
        L = space.spatial_half_width
        xg = np.linspace(-L, L, N_SPATIAL)
        wx = np.full(N_SPATIAL, 2 * L / (N_SPATIAL - 1))
        wx[0] *= 0.5
        wx[-1] *= 0.5
    else:
        xg, wx = None, None

    def mass_at(s: float, k_hist: int) -> float:
        hist = EventStream(
            stream.times[:k_hist], stream.labels[:k_hist], stream.xs[:k_hist],
            stream.zs[:k_hist], horizon, stream.label_names,
        )
        total = 0.0
        for i, w in enumerate(space.weights):
            if space.spatial:
                vals = [
                    f(s, i, x) * intensity_at(spec, hist, s, (i, x)) for x in xg
                ]
                total += w * float(np.dot(wx, vals))
            else:
                total += w * f(s, i, None) * intensity_at(spec, hist, s, (i, None))
        return total

    knots = np.concatenate([[0.0], stream.times, [horizon]])
    comp = 0.0
    for k in range(len(knots) - 1):
        a, b = knots[k], knots[k + 1]
        if b <= a:
            continue
        ss = np.linspace(a, b, N_SUB + 1)
        # keep evaluation inside the open segment so the history is the strict past
        ss[0] = a + 1e-12 * max(1.0, b - a)
        vals = np.array([mass_at(s, k) for s in ss])
        comp += float(np.trapezoid(vals, ss))
    return jump_term - comp


# ---------------------------------------------------------------------------
# classical special cases
# ---------------------------------------------------------------------------


def make_multivariate(d: int, mu, phi) -> HawkesSpec:
    """Multivariate Hawkes process on labels {0..d-1} with unit base weights.

    ``mu`` is a scalar or length-d rate vector; ``phi`` a d x d matrix of
    time profiles (None entries vanish).
    """
    if d < 1:
        raise ValueError("need at least one component")
    mu_arr = np.broadcast_to(np.asarray(mu, dtype=float), (d,)).copy()
    if np.any(mu_arr < 0):
        raise ValueError("exogenous rates must be >= 0")
    phi = list(phi)
    if len(phi) != d or any(len(row) != d for row in phi):
        raise ValueError(f"kernel matrix must be {d} x {d}")
    space = MarkSpace(labels=tuple(str(i) for i in range(d)))
    return HawkesSpec(space, Exogenous.constant(mu_arr), MatrixKernel(phi))
