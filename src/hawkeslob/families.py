"""Kernel building blocks shared by the simulators and solvers.

Time profiles describe how excitation decays with the lag since a past
event; spatial profiles describe where passive order flow lands relative to
the best price.  Each family carries the bounds the thinning simulator
needs: a non-increasing envelope dominating all future values for time
profiles, and finite masses plus an exact tick-level sampler for spatial
profiles.
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

    #: set by families that support O(1) decay-state accumulation
    has_state = False

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

    def new_state(self) -> "DecayState":
        raise NotImplementedError(f"{type(self).__name__} has no O(1) state")

    def params(self) -> dict:
        raise NotImplementedError


class DecayState:
    """Running sum  S(t) = sum_e w_e h(t - s_e)  updated in O(1) per event."""

    def advance(self, dt: float) -> None:
        raise NotImplementedError

    def add(self, weight: float) -> None:
        """Register an event happening now with the given mark weight."""
        raise NotImplementedError

    def value(self) -> float:
        raise NotImplementedError

    def bound(self) -> float:
        """Upper bound on value() at any future time with no new events."""
        raise NotImplementedError


class ZeroProfile(TimeProfile):
    has_state = True

    def value(self, t):
        return np.zeros_like(np.asarray(t, dtype=float))

    def envelope(self, t):
        return np.zeros_like(np.asarray(t, dtype=float))

    def new_state(self):
        return _ZeroState()

    def params(self):
        return {"family": "zero"}

    def __repr__(self):
        return "ZeroProfile()"


class _ZeroState(DecayState):
    def advance(self, dt):
        pass

    def add(self, weight):
        pass

    def value(self):
        return 0.0

    def bound(self):
        return 0.0


class ConstantProfile(TimeProfile):
    """h(t) = c.  Bounded spatial mass per lag, infinite L1 in time."""

    has_state = True

    def __init__(self, c: float):
        if c < 0:
            raise ValueError("constant profile amplitude must be >= 0")
        self.c = float(c)

    def value(self, t):
        return np.full_like(np.asarray(t, dtype=float), self.c)

    def envelope(self, t):
        return np.full_like(np.asarray(t, dtype=float), self.c)

    def new_state(self):
        return _ConstantState(self.c)

    def params(self):
        return {"family": "constant", "c": self.c}

    def __repr__(self):
        return f"ConstantProfile(c={self.c})"


class _ConstantState(DecayState):
    def __init__(self, c):
        self.c = c
        self.total = 0.0

    def advance(self, dt):
        pass

    def add(self, weight):
        self.total += weight

    def value(self):
        return self.c * self.total

    def bound(self):
        return self.c * self.total


class ExponentialProfile(TimeProfile):
    """h(t) = c * exp(-kappa * t)."""

    has_state = True

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

    def new_state(self):
        return _ExponentialState(self.c, self.kappa)

    def params(self):
        return {"family": "exponential", "c": self.c, "kappa": self.kappa}

    def __repr__(self):
        return f"ExponentialProfile(c={self.c}, kappa={self.kappa})"


class _ExponentialState(DecayState):
    def __init__(self, c, kappa):
        self.c = c
        self.kappa = kappa
        self.g = 0.0

    def advance(self, dt):
        self.g *= math.exp(-self.kappa * dt)

    def add(self, weight):
        self.g += weight

    def value(self):
        return self.c * self.g

    def bound(self):
        return self.c * self.g


class GammaProfile(TimeProfile):
    """h(t) = c * t * exp(-kappa * t); rises to c/(kappa e) at t = 1/kappa."""

    has_state = True

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

    def new_state(self):
        return _GammaState(self.c, self.kappa)

    def params(self):
        return {"family": "gamma", "c": self.c, "kappa": self.kappa}

    def __repr__(self):
        return f"GammaProfile(c={self.c}, kappa={self.kappa})"


class _GammaState(DecayState):
    # a = sum w e^{-k dt}, b = sum w (t - s) e^{-k (t-s)}
    def __init__(self, c, kappa):
        self.c = c
        self.kappa = kappa
        self.a = 0.0
        self.b = 0.0

    def advance(self, dt):
        decay = math.exp(-self.kappa * dt)
        self.b = (self.b + self.a * dt) * decay
        self.a *= decay

    def add(self, weight):
        self.a += weight

    def value(self):
        return self.c * self.b

    def bound(self):
        # b(t+d) = (b + a d) e^{-k d} <= b + a/(k e)
        return self.c * (self.b + self.a / (self.kappa * math.e))


class TableProfile(TimeProfile):
    """Piecewise-linear profile from sampled values; envelope is mandatory."""

    has_state = False

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
        self.cum = (np.cumsum(masses) / total).tolist()

    def sample(self, rng: np.random.Generator) -> float:
        u = rng.random()
        j = min(bisect.bisect_right(self.cum, u), 2 * self.n_side - 1)
        left = (j - self.n_side) * self.delta_x
        return left + self.delta_x * rng.random()


class GaussianProfile(SpatialProfile):
    """g(x) = amplitude * exp(-((x - center) / width)^2)."""

    def __init__(self, amplitude: float, center: float = 0.0, width: float = 1.0):
        if amplitude < 0 or width <= 0:
            raise ValueError("need amplitude >= 0 and width > 0")
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
        if amplitude < 0:
            raise ValueError("need amplitude >= 0")
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
