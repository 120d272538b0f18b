"""Kernel building blocks shared by the simulators and solvers.

Time profiles describe how excitation decays with the lag since a past
event; spatial profiles describe where passive order flow lands relative to
the best price.  Each family carries the bounds the thinning simulator
needs: a non-increasing envelope dominating all future values for time
profiles, and finite masses plus an exact tick-level sampler for spatial
profiles.  ``KernelBank`` keeps the running kernel sums over past events
that both event simulators, ``hawkes`` and ``micro``, drive.
"""

from __future__ import annotations

import bisect
import math
from typing import Optional

import numpy as np
from scipy.special import erf


# ---------------------------------------------------------------------------
# time profiles
# ---------------------------------------------------------------------------


class TimeProfile:
    """Scalar lag kernel h(t) on t >= 0."""

    def value(self, t):
        raise NotImplementedError

    def envelope(self, t):
        """Non-increasing majorant: envelope(t) >= sup_{s >= t} value(s)."""
        raise NotImplementedError

    def sup(self) -> float:
        return float(self.envelope(0.0))

    def envelope_inverse(self, eps: float, t_max: float = 1e9) -> float:
        """Smallest lag beyond which the envelope stays below eps.

        Returns ``inf`` when the envelope never decays below eps (constant
        profiles), in which case history truncation is disabled.
        """
        if self.envelope(t_max) > eps:
            return math.inf
        lo, hi = 0.0, t_max
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if self.envelope(mid) > eps:
                lo = mid
            else:
                hi = mid
        return hi

    def params(self) -> dict:
        raise NotImplementedError


class ZeroProfile(TimeProfile):
    def value(self, t):
        return np.zeros_like(np.asarray(t, dtype=float))

    def envelope(self, t):
        return np.zeros_like(np.asarray(t, dtype=float))

    def params(self):
        return {"family": "zero"}

    def __repr__(self):
        return "ZeroProfile()"


class ConstantProfile(TimeProfile):
    """h(t) = c.  Bounded spatial mass per lag, infinite L1 in time."""

    def __init__(self, c: float):
        if c < 0:
            raise ValueError("constant profile amplitude must be >= 0")
        self.c = float(c)

    def value(self, t):
        return np.full_like(np.asarray(t, dtype=float), self.c)

    def envelope(self, t):
        return np.full_like(np.asarray(t, dtype=float), self.c)

    def params(self):
        return {"family": "constant", "c": self.c}

    def __repr__(self):
        return f"ConstantProfile(c={self.c})"


class ExponentialProfile(TimeProfile):
    """h(t) = c * exp(-kappa * t)."""

    def __init__(self, c: float, kappa: float):
        if c < 0 or kappa <= 0:
            raise ValueError("need amplitude >= 0 and decay rate > 0")
        self.c = float(c)
        self.kappa = float(kappa)

    def value(self, t):
        return self.c * np.exp(-self.kappa * np.asarray(t, dtype=float))

    def envelope(self, t):
        return self.value(t)

    def envelope_inverse(self, eps, t_max=1e9):
        if eps <= 0 or self.c == 0.0:
            return 0.0 if self.c == 0.0 else math.inf
        return max(0.0, math.log(self.c / eps) / self.kappa)

    def params(self):
        return {"family": "exponential", "c": self.c, "kappa": self.kappa}

    def __repr__(self):
        return f"ExponentialProfile(c={self.c}, kappa={self.kappa})"


class GammaProfile(TimeProfile):
    """h(t) = c * t * exp(-kappa * t); rises to c/(kappa e) at t = 1/kappa."""

    def __init__(self, c: float, kappa: float):
        if c < 0 or kappa <= 0:
            raise ValueError("need amplitude >= 0 and decay rate > 0")
        self.c = float(c)
        self.kappa = float(kappa)

    def value(self, t):
        t = np.asarray(t, dtype=float)
        return self.c * t * np.exp(-self.kappa * t)

    def envelope(self, t):
        t = np.asarray(t, dtype=float)
        peak = self.c / (self.kappa * math.e)
        return np.where(t <= 1.0 / self.kappa, peak, self.value(t))

    def params(self):
        return {"family": "gamma", "c": self.c, "kappa": self.kappa}

    def __repr__(self):
        return f"GammaProfile(c={self.c}, kappa={self.kappa})"


class TableProfile(TimeProfile):
    """Piecewise-linear profile from sampled values; envelope is mandatory."""

    def __init__(self, ts, values, envelope_values):
        self.ts = np.asarray(ts, dtype=float)
        self.vals = np.asarray(values, dtype=float)
        self.env = np.asarray(envelope_values, dtype=float)
        if self.ts.ndim != 1 or self.ts.size < 2 or np.any(np.diff(self.ts) <= 0):
            raise ValueError("table profile needs strictly increasing sample times")
        if self.vals.shape != self.ts.shape or self.env.shape != self.ts.shape:
            raise ValueError("table profile arrays must share a shape")
        if np.any(self.vals < 0) or np.any(self.env < 0):
            raise ValueError("table profile values must be >= 0")
        if np.any(np.diff(self.env) > 1e-12):
            raise ValueError("table profile envelope must be non-increasing")
        if np.any(self.env + 1e-12 < self.vals):
            raise ValueError("table profile envelope must dominate the values")

    def value(self, t):
        return np.interp(np.asarray(t, dtype=float), self.ts, self.vals, right=self.vals[-1])

    def envelope(self, t):
        return np.interp(np.asarray(t, dtype=float), self.ts, self.env, right=self.env[-1])

    def params(self):
        return {
            "family": "table",
            "ts": self.ts.tolist(),
            "values": self.vals.tolist(),
            "envelope": self.env.tolist(),
        }


_TIME_FAMILIES = {
    "zero": lambda p: ZeroProfile(),
    "constant": lambda p: ConstantProfile(p["c"]),
    "exponential": lambda p: ExponentialProfile(p["c"], p["kappa"]),
    "gamma": lambda p: GammaProfile(p["c"], p["kappa"]),
    "table": lambda p: TableProfile(p["ts"], p["values"], p["envelope"]),
}


def time_profile_from_params(params: dict) -> TimeProfile:
    fam = params.get("family")
    if fam not in _TIME_FAMILIES:
        raise ValueError(f"unknown time kernel family {fam!r}")
    if fam == "table" and "envelope" not in params:
        raise ValueError("table kernels must declare an envelope")
    return _TIME_FAMILIES[fam](params)


def combine_amplitudes(base: TimeProfile, diff: Optional[TimeProfile], shift: float) -> TimeProfile:
    """Profile with amplitude c_base + shift * c_diff, same shape parameters.

    Used to build pre-limit kernel pairs around a declared limit kernel while
    holding the rescaled difference fixed across refinement levels.  Both
    profiles must belong to the same family with equal decay rates.
    """
    if diff is None or isinstance(diff, ZeroProfile):
        return base
    if isinstance(base, TableProfile) or isinstance(diff, TableProfile):
        raise ValueError(
            "table kernels have no amplitude to shift; declare drift differences "
            "with a parametric family"
        )
    if isinstance(base, ZeroProfile):
        base = type(diff)(0.0, *([diff.kappa] if hasattr(diff, "kappa") else []))
    if type(base) is not type(diff):
        raise ValueError("limit and difference kernels must share a family")
    if hasattr(base, "kappa") and not math.isclose(base.kappa, diff.kappa):
        raise ValueError("limit and difference kernels must share the decay rate")
    c = base.c + shift * diff.c
    if c < 0:
        raise ValueError("kernel amplitude became negative under rescaling")
    if isinstance(base, ConstantProfile):
        return ConstantProfile(c)
    return type(base)(c, base.kappa)


def sum_profiles(a: TimeProfile, b: TimeProfile) -> TimeProfile:
    """Pointwise sum of two kernels of one family.

    Tables are summed on the union of their sample times: values and
    envelopes are piecewise linear and held constant beyond the samples, so
    the summed table is exact.
    """
    if isinstance(a, TableProfile) != isinstance(b, TableProfile):
        raise ValueError("a table kernel sums only with another table kernel")
    if isinstance(a, TableProfile):
        ts = np.union1d(a.ts, b.ts)
        return TableProfile(ts, a.value(ts) + b.value(ts), a.envelope(ts) + b.envelope(ts))
    return combine_amplitudes(a, b, 1.0)


# ---------------------------------------------------------------------------
# spatial profiles
# ---------------------------------------------------------------------------


class SpatialProfile:
    """Nonnegative density factor g(x) on the truncated distance interval."""

    def value(self, x):
        raise NotImplementedError

    def mass(self, half_width: float) -> float:
        """Integral of g over [-half_width, half_width]."""
        raise NotImplementedError

    def sup(self) -> float:
        raise NotImplementedError

    def tick_masses(self, delta_x: float, half_width: float) -> np.ndarray:
        """Exact integrals of g over each tick cell of [-L, L]."""
        n_side = int(round(half_width / delta_x))
        edges = delta_x * np.arange(-n_side, n_side + 1)
        return self._cdf(edges[1:]) - self._cdf(edges[:-1])

    def _cdf(self, x):
        """Antiderivative of g (up to a constant), vectorized."""
        raise NotImplementedError

    def sampler(self, delta_x: float, half_width: float) -> "TickSampler":
        return TickSampler(self, delta_x, half_width)

    def params(self) -> dict:
        raise NotImplementedError


class TickSampler:
    """Draws distances by inverse CDF over tick cells, uniform within a cell."""

    def __init__(self, profile: SpatialProfile, delta_x: float, half_width: float):
        masses = profile.tick_masses(delta_x, half_width)
        total = masses.sum()
        if total <= 0:
            raise ValueError("cannot sample from a profile with zero mass")
        self.delta_x = delta_x
        self.n_side = int(round(half_width / delta_x))
        self.cum_array = np.cumsum(masses) / total
        self.cum = self.cum_array.tolist()

    def sample(self, rng: np.random.Generator) -> float:
        u = rng.random()
        j = min(bisect.bisect_right(self.cum, u), 2 * self.n_side - 1)
        left = (j - self.n_side) * self.delta_x
        return left + self.delta_x * rng.random()

    def samples(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """``sample`` for arrays of its two uniform draws, elementwise."""
        j = np.minimum(np.searchsorted(self.cum_array, u, side="right"), 2 * self.n_side - 1)
        return (j - self.n_side) * self.delta_x + self.delta_x * v


class GaussianProfile(SpatialProfile):
    """g(x) = amplitude * exp(-((x - center) / width)^2)."""

    def __init__(self, amplitude: float, center: float = 0.0, width: float = 1.0):
        if not (0 <= amplitude < math.inf and 0 < width < math.inf and math.isfinite(center)):
            raise ValueError("need finite amplitude >= 0, width > 0 and center")
        self.amplitude = float(amplitude)
        self.center = float(center)
        self.width = float(width)

    def value(self, x):
        z = (np.asarray(x, dtype=float) - self.center) / self.width
        return self.amplitude * np.exp(-z * z)

    def _cdf(self, x):
        z = (np.asarray(x, dtype=float) - self.center) / self.width
        return self.amplitude * self.width * 0.5 * math.sqrt(math.pi) * erf(z)

    def mass(self, half_width):
        return float(self._cdf(half_width) - self._cdf(-half_width))

    def sup(self):
        return self.amplitude

    def params(self):
        return {
            "family": "gaussian",
            "amplitude": self.amplitude,
            "center": self.center,
            "width": self.width,
        }

    def __repr__(self):
        return f"GaussianProfile(a={self.amplitude}, center={self.center}, width={self.width})"


class UniformProfile(SpatialProfile):
    """g(x) = amplitude on the whole truncated interval."""

    def __init__(self, amplitude: float):
        if not 0 <= amplitude < math.inf:
            raise ValueError("need finite amplitude >= 0")
        self.amplitude = float(amplitude)

    def value(self, x):
        return np.full_like(np.asarray(x, dtype=float), self.amplitude)

    def _cdf(self, x):
        return self.amplitude * np.asarray(x, dtype=float)

    def mass(self, half_width):
        return 2.0 * self.amplitude * half_width

    def sup(self):
        return self.amplitude

    def params(self):
        return {"family": "uniform", "amplitude": self.amplitude}

    def __repr__(self):
        return f"UniformProfile(a={self.amplitude})"


class ZeroSpatialProfile(SpatialProfile):
    def value(self, x):
        return np.zeros_like(np.asarray(x, dtype=float))

    def _cdf(self, x):
        return np.zeros_like(np.asarray(x, dtype=float))

    def mass(self, half_width):
        return 0.0

    def sup(self):
        return 0.0

    def params(self):
        return {"family": "zero"}


_SPATIAL_FAMILIES = {
    "zero": lambda p: ZeroSpatialProfile(),
    "gaussian": lambda p: GaussianProfile(
        p["amplitude"], p.get("center", 0.0), p.get("width", 1.0)
    ),
    "uniform": lambda p: UniformProfile(p["amplitude"]),
}


def spatial_profile_from_params(params: dict) -> SpatialProfile:
    fam = params.get("family")
    if fam not in _SPATIAL_FAMILIES:
        raise ValueError(f"unknown spatial profile family {fam!r}")
    return _SPATIAL_FAMILIES[fam](params)


# ---------------------------------------------------------------------------
# running kernel sums
# ---------------------------------------------------------------------------

#: initial length of the event-history arrays of scanned kernels
_HISTORY_CAPACITY = 64

#: families whose kernel sums follow an exact recursion, matched by exact
#: type: a subclass may override ``value`` and is scanned through it
RECURSIVE_FAMILIES = (ZeroProfile, ConstantProfile, ExponentialProfile, GammaProfile)


def _shape(profile: TimeProfile):
    """Shape key and amplitude of one time profile.

    Entries of one source whose profiles share a shape key share a running
    state: the amplitude is applied per entry.  Profiles without a recursive
    form are summed over their windowed history, keyed by table content.
    """
    kind = type(profile)
    if kind is ExponentialProfile:
        return ("exp", profile.kappa), profile.c
    if kind is GammaProfile:
        return ("gamma", profile.kappa), profile.c
    if kind is ConstantProfile:
        return ("const",), profile.c
    if kind is ZeroProfile:
        return ("const",), 0.0
    if kind is TableProfile:
        return ("scan", profile.ts.tobytes(), profile.vals.tobytes(), profile.env.tobytes()), 1.0
    return ("scan", profile), 1.0


class EventHistory:
    """Columns of past events, held in arrays that double in size when full,
    so a scan slices them without copying."""

    __slots__ = ("cols", "n")

    def __init__(self, *dtypes):
        self.cols = [np.zeros(_HISTORY_CAPACITY, dtype=d) for d in dtypes]
        self.n = 0

    def append(self, *values) -> None:
        n = self.n
        if n == self.cols[0].size:
            self.cols = [np.concatenate([c, np.zeros(n, dtype=c.dtype)]) for c in self.cols]
        for c, v in zip(self.cols, values):
            c[n] = v
        self.n = n + 1


class KernelBank:
    """Kernel entries compiled into shared running sums over past events,
    S(t) = sum_e w_e h(t - s_e), for the thinning and book simulators.

    Running state is keyed by source, in-profile and decay shape, not by
    (target, source) entry: one state per source and decay rate, advanced
    with one ``math.exp`` per rate, with the entry's amplitude applied to the
    unit-amplitude sum.  Table kernels keep one windowed history scan per
    source and table, dropping events older than the lag where the envelope
    falls below ``eps``.  Floating-point operations keep the order of the
    per-entry sums, so results are byte-identical to them; the state stays
    scalar because vectorised ``np.exp`` rounds differently from
    ``math.exp`` on some inputs.

    ``entry`` registers one kernel entry; ``KernelSums`` holds the state of
    one run over the bank.
    """

    def __init__(self, eps: float):
        self.eps = eps
        self.states: dict = {}  # (source, in-profile, shape key) -> state
        self.histories: dict = {}  # (source, in-profile) -> history
        self.decay: dict = {}  # kappa -> ([exponential states], [gamma states])
        self.gammas: list = []  # (state, kappa * e)
        self.scans: list = []  # (state, history, profile, memory)
        self.excite: dict = {}  # source -> in-profile -> ([states], [histories])
        self._memories: dict = {}  # table shape key -> truncation lag

    def entry(self, source: int, in_prof, prof: TimeProfile) -> tuple[int, float]:
        """State and amplitude of kernel ``prof`` on the events of ``source``,
        weighted by ``in_prof`` at their distance when one is given."""
        key, amp = _shape(prof)
        i = self.states.get((source, in_prof, key))
        if i is not None:
            return i, amp
        i = self.states[(source, in_prof, key)] = len(self.states)
        stateful, hists = self.excite.setdefault(source, {}).setdefault(in_prof, ([], []))
        if key[0] == "scan":
            h = self.histories.setdefault((source, in_prof), len(self.histories))
            if h not in hists:
                hists.append(h)
            if key not in self._memories:
                self._memories[key] = prof.envelope_inverse(self.eps)
            self.scans.append((i, h, prof, self._memories[key]))
        else:
            stateful.append(i)
            if key[0] != "const":
                exps, gams = self.decay.setdefault(prof.kappa, ([], []))
                (exps if key[0] == "exp" else gams).append(i)
            if key[0] == "gamma":
                self.gammas.append((i, prof.kappa * math.e))
        return i, amp


class KernelSums:
    """The running sums of one run over a ``KernelBank``, at time ``t``."""

    __slots__ = ("bank", "t", "g", "b", "hist", "start")

    def __init__(self, bank: KernelBank):
        self.bank = bank
        self.t = 0.0
        self.g = [0.0] * len(bank.states)  # exponential sum, gamma mass, constant total
        self.b = [0.0] * len(bank.states)  # gamma lag-weighted sum
        self.hist = [EventHistory(float, float) for _ in bank.histories]  # times, weights
        self.start = [0] * len(bank.scans)  # first event inside each scan's window

    def advance(self, t: float, dt: float) -> None:
        """Decay every state to time ``t``, ``dt`` after the current time.

        The caller passes ``dt`` because ``(s + dt) - s`` differs from ``dt``
        in the last bit for most floats: thinning decays by the gap it drew.
        """
        g, b = self.g, self.b
        for kappa, (exps, gams) in self.bank.decay.items():
            decay = math.exp(-kappa * dt)
            for i in exps:
                g[i] *= decay
            for i in gams:
                b[i] = (b[i] + g[i] * dt) * decay
                g[i] *= decay
        self.t = t

    def fire(self, source: int, distance: float = math.nan) -> None:
        """Feed an event of ``source`` at distance ``distance``, happening now,
        into every state it sources."""
        g = self.g
        for in_prof, (stateful, hists) in self.bank.excite.get(source, {}).items():
            w = 1.0 if in_prof is None else float(in_prof.value(distance))
            for i in stateful:
                g[i] += w
            for h in hists:
                self.hist[h].append(self.t, w)

    def units(self, bound: bool) -> list:
        """Per-state kernel sums at unit amplitude: values, or bounds on
        every future value while no event arrives."""
        u = self.g.copy()
        for i, ke in self.bank.gammas:
            # b(t + d) = (b + g d) e^{-k d} <= b + g / (k e)
            u[i] = self.b[i] + u[i] / ke if bound else self.b[i]
        self.scan(u, bound)
        return u

    def scan(self, u, bound: bool) -> None:
        """Write the sums of the scanned states at time ``t`` into ``u``."""
        t = self.t
        for j, (i, h, prof, memory) in enumerate(self.bank.scans):
            hist = self.hist[h]
            (times, weights), n, start = hist.cols, hist.n, self.start[j]
            while start < n and t - times[start] > memory:
                start += 1
            self.start[j] = start
            lags = t - times[start:n]
            shape = prof.envelope(lags) if bound else prof.value(lags)
            u[i] = float(weights[start:n] @ shape) if lags.size else 0.0
