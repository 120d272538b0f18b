"""Time stepping for the limiting price-volume-intensity system.

The limit couples a two-dimensional price diffusion, a family of volume
ODEs on a spatial grid, and the linear Volterra-Fredholm equations for the
active and passive intensities.  Each step advances the intensities first
(using the state at the step start), then the prices by Euler-Maruyama,
then the volumes by explicit Euler; all paths of an ensemble advance
together in vectorized arrays.

Separable kernels reduce every time convolution to scalar histories, so an
ensemble of thousands of paths stays cheap; the generic grid-based solver
in :mod:`hawkeslob.volterra` serves as the reference the fast path is
checked against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from typing import Callable, Optional, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .families import (
    ConstantProfile,
    ExponentialProfile,
    GammaProfile,
    SpatialProfile,
    TimeProfile,
    ZeroProfile,
)
from .rng import as_rng, stream_rng
from .volterra import (
    BlockKernelOp,
    ExogenousField,
    NumericalFailureError,
    SpatialGrid,
    grid_to_grid,
    grid_to_scalar,
    limit_layout,
    scalar_to_grid,
    scalar_to_scalar,
)

SIDES = ("a", "b")
PASSIVE_TYPES = ("a_lo", "a_cx", "b_lo", "b_cx")
#: share of path-steps whose diffusion radicand may be clamped before a
#: solve fails with ``NumericalFailureError``
CLAMP_BUDGET = 1e-3


# ---------------------------------------------------------------------------
# rate and exogenous families (vectorized over paths)
# ---------------------------------------------------------------------------


class ConstantRate:
    def __init__(self, value: float):
        self.value = float(value)

    def __call__(self, p_a, p_b):
        return np.full_like(np.asarray(p_a, dtype=float), self.value)


class SpreadPlusRate:
    """scale * (p_a - p_b)^+, the canonical uniqueness-friendly factor."""

    def __init__(self, scale: float = 1.0):
        self.scale = float(scale)

    def __call__(self, p_a, p_b):
        return self.scale * np.clip(np.asarray(p_a) - np.asarray(p_b), 0.0, None)


class PriceSquareRate:
    """scale * p_side^2, used by the one-sided reference models."""

    def __init__(self, scale: float = 1.0, side: str = "a"):
        self.scale = float(scale)
        self.side = side

    def __call__(self, p_a, p_b):
        p = np.asarray(p_a if self.side == "a" else p_b, dtype=float)
        return self.scale * p * p


class ConstantExo:
    def __init__(self, value: float):
        self.value = float(value)

    def __call__(self, t, p_a, p_b):
        return np.full_like(np.asarray(p_a, dtype=float), self.value)


class PriceSquareExo:
    def __init__(self, scale: float = 1.0, side: str = "a"):
        self.scale = float(scale)
        self.side = side

    def __call__(self, t, p_a, p_b):
        p = np.asarray(p_a if self.side == "a" else p_b, dtype=float)
        return self.scale * p * p


# ---------------------------------------------------------------------------
# parameters and state
# ---------------------------------------------------------------------------


@dataclass
class LimitParams:
    """Coefficients of the limiting system.

    Kernel dictionaries are keyed like the microscopic ones but with active
    sources and targets collapsed to sides; the active kernels are the
    summed market-plus-spread totals, the drift kernels the rescaled
    market-minus-spread differences.
    """

    grid: SpatialGrid
    rho: dict  # side -> rate factor
    rate_slope: dict  # side -> rescaled factor difference
    base_rate: dict  # side -> exogenous active density
    base_drift: dict  # side -> exogenous drift density
    base_passive: dict  # passive type -> (factor fn, spatial profile)
    place_gain: dict  # side -> mean relative placement gain
    cancel_gain: dict  # side -> mean relative cancellation gain (<= 0)
    act_from_act: dict = dc_field(default_factory=dict)  # (side, side) -> time
    act_from_pas: dict = dc_field(default_factory=dict)  # (side, pt) -> (in, time)
    pas_from_act: dict = dc_field(default_factory=dict)  # (pt, side) -> (out, time)
    pas_from_pas: dict = dc_field(default_factory=dict)  # (pt, pt) -> (out, in, time)
    drift_from_act: dict = dc_field(default_factory=dict)  # (side, side) -> time
    drift_from_pas: dict = dc_field(default_factory=dict)  # (side, pt) -> (in, time)

    def __post_init__(self):
        for side in SIDES:
            for name, d in (("rho", self.rho), ("rate_slope", self.rate_slope),
                            ("base_rate", self.base_rate), ("base_drift", self.base_drift)):
                if side not in d:
                    raise ValueError(f"missing {name}[{side!r}]")
        for pt in PASSIVE_TYPES:
            if pt not in self.base_passive:
                raise ValueError(f"missing base_passive[{pt!r}]")


@dataclass
class LimitState:
    """One time slice of the limit system (possibly an ensemble slice)."""

    p_a: np.ndarray
    p_b: np.ndarray
    v_x: np.ndarray  # absolute volume grid nodes, spaced like the distance grid
    v_a: np.ndarray  # (R, volume nodes)
    v_b: np.ndarray


@dataclass
class SpatialTestFn:
    """A spatial test function tracked along the run for generator checks."""

    name: str
    fn: Callable[[np.ndarray], np.ndarray]


# ---------------------------------------------------------------------------
# run output
# ---------------------------------------------------------------------------


@dataclass
class LimitRun:
    t: np.ndarray
    p_a: np.ndarray  # (M+1, R)
    p_b: np.ndarray
    mu: np.ndarray  # (M+1, 2, R)
    beta: np.ndarray  # (M+1, 2, R)
    v_x: np.ndarray
    v_a: np.ndarray  # terminal (R, volume nodes)
    v_b: np.ndarray
    params: LimitParams
    seed: Optional[int]
    clamp_count: int
    v_f: dict  # name -> (M+1, 2, R) tracked volume functionals (a, b)
    eta_f: dict  # name -> (M+1, 2, R) tracked volume drift functionals
    lam_checkpoints: list  # (t, (4, n_x, R)) passive intensity snapshots

    @property
    def n_paths(self) -> int:
        return self.p_a.shape[1]

    @property
    def dt(self) -> float:
        return float(self.t[1] - self.t[0]) if self.t.size > 1 else 0.0

    def v_inner(self, fn: Callable, side: str = "a") -> np.ndarray:
        """Terminal volume inner products <V_I(T), f> per path."""
        w = _trapz_weights(self.v_x)
        vals = self.v_a if side == "a" else self.v_b
        return vals @ (np.asarray(fn(self.v_x)) * w)


def _trapz_weights(x: np.ndarray) -> np.ndarray:
    w = np.full(x.size, x[1] - x[0])
    w[0] *= 0.5
    w[-1] *= 0.5
    return w


# ---------------------------------------------------------------------------
# the ensemble engine
# ---------------------------------------------------------------------------


class _Entry:
    """One separable kernel block reduced to a scalar-history convolution."""

    __slots__ = ("time", "src_key", "kind", "target")

    def __init__(self, time: TimeProfile, src_key, kind: str, target):
        self.time = time
        self.src_key = src_key  # key into the scalar source histories
        self.kind = kind  # "mu" | "lam" | "beta"
        self.target = target  # side or passive type


class _TrapezoidConv:
    """Running trapezoid history sum H_m = dt * sum_j w_j h(t_m - t_j) q_j.

    For the exact exponential, constant, zero and gamma profile families the
    sum obeys an exact one-step recursion, so the per-step cost is O(paths)
    instead of O(steps * paths); other profiles, subclasses included, fall
    back to the full dot product through their ``value``.
    It is not a ``families.KernelBank``: it is a trapezoid quadrature over
    a path ensemble on a time grid, with a half-weighted first node, not a
    sum over events.
    """

    def __init__(self, profile: TimeProfile, dt: float, n_paths: int):
        self.profile = profile
        self.dt = dt
        self._first = True
        kind = type(profile)
        if kind in (ConstantProfile, ZeroProfile):
            self.mode = "exp"
            self.decay = 1.0
            self.c = profile.c if kind is ConstantProfile else 0.0
            self.h = np.zeros(n_paths)
        elif kind is ExponentialProfile:
            self.mode = "exp"
            self.decay = math.exp(-profile.kappa * dt)
            self.c = profile.c
            self.h = np.zeros(n_paths)
        elif kind is GammaProfile:
            self.mode = "gamma"
            self.decay = math.exp(-profile.kappa * dt)
            self.c = profile.c
            self.a = np.zeros(n_paths)
            self.b = np.zeros(n_paths)
        else:
            self.mode = "generic"

    def fold_and_value(self, q_hist: np.ndarray, lags: np.ndarray,
                       w: np.ndarray) -> np.ndarray:
        """History part of the convolution at the new time.

        ``q_hist`` holds the finalized sources q_0..q_m; stateful modes fold
        the newest value into the running sum, the generic mode recomputes
        the weighted dot against the provided lags and weights.
        """
        if self.mode == "generic":
            prof_vals = self.profile.value(lags)
            return self.dt * ((prof_vals * w) @ q_hist)
        q_new = q_hist[-1] * (0.5 if self._first else 1.0)
        self._first = False
        if self.mode == "exp":
            self.h = self.decay * (self.h + q_new)
            return self.dt * self.c * self.h
        self.b = self.decay * (self.b + self.dt * (self.a + q_new))
        self.a = self.decay * (self.a + q_new)
        return self.dt * self.c * self.b


class LimitEngine:
    """Vectorized stepper for an ensemble of limit paths.

    State factors feeding the intensity convolutions are evaluated at the
    left limit (the state one step back), matching the event-time
    convention of the microscopic model; coefficients of the price and
    volume updates are taken at the step start.
    """

    def __init__(
        self,
        params: LimitParams,
        init: LimitState,
        horizon: float,
        dt: float,
        track: Sequence[SpatialTestFn] = (),
        lam_checkpoint_times: Sequence[float] = (),
    ):
        self.p = params
        self.n_steps = int(round(horizon / dt))
        if abs(self.n_steps * dt - horizon) > 1e-9 * max(1.0, horizon):
            raise ValueError("horizon must be a multiple of dt")
        self.dt = dt
        self.t = np.linspace(0.0, horizon, self.n_steps + 1)
        self.R = init.p_a.size
        self.track = list(track)
        self.clamp_count = 0

        g = params.grid
        self.xg = g.x
        self.wg = g.quad_weights
        self.x_v = init.v_x
        # the volume-node gather shifts whole rows of the distance grid, so
        # the volume grid must share its spacing, up to the rounding of its
        # node values
        if self.x_v.size < 2 or not np.allclose(
            np.diff(self.x_v), g.h, rtol=1e-12,
            atol=4 * np.finfo(float).eps * np.abs(self.x_v).max(),
        ):
            raise ValueError(
                f"the volume grid needs at least 2 nodes spaced {g.h} apart, "
                "like the distance grid; build it with make_initial_state"
            )
        self.h_v = float(self.x_v[1] - self.x_v[0])
        self._wv = _trapz_weights(self.x_v)

        # scalar source histories: q_<side> = rho_side * mu_side, and one
        # in-product series per (passive source, in-profile) pair
        self.inprods: list[tuple[str, SpatialProfile]] = []
        self._ip_index: dict = {}

        def ip_key(pt: str, prof: SpatialProfile):
            key = (pt, id(prof))
            if key not in self._ip_index:
                self._ip_index[key] = len(self.inprods)
                self.inprods.append((pt, prof))
            return ("ip", self._ip_index[key])

        self.entries: list[_Entry] = []
        self._entry_out: list[Optional[np.ndarray]] = []

        def add_entry(entry: _Entry, out_prof: Optional[SpatialProfile]) -> None:
            self.entries.append(entry)
            self._entry_out.append(None if out_prof is None else out_prof.value(self.xg))

        for (tgt, src), prof in params.act_from_act.items():
            add_entry(_Entry(prof, ("q", src), "mu", tgt), None)
        for (tgt, src_pt), (inp, prof) in params.act_from_pas.items():
            add_entry(_Entry(prof, ip_key(src_pt, inp), "mu", tgt), None)
        for (tgt_pt, src), (outp, prof) in params.pas_from_act.items():
            add_entry(_Entry(prof, ("q", src), "lam", tgt_pt), outp)
        for (tgt_pt, src_pt), (outp, inp, prof) in params.pas_from_pas.items():
            add_entry(_Entry(prof, ip_key(src_pt, inp), "lam", tgt_pt), outp)
        for (tgt, src), prof in params.drift_from_act.items():
            add_entry(_Entry(prof, ("q", src), "beta", tgt), None)
        for (tgt, src_pt), (inp, prof) in params.drift_from_pas.items():
            add_entry(_Entry(prof, ip_key(src_pt, inp), "beta", tgt), None)

        self._hat_vals = {
            pt: prof.value(self.xg) for pt, (_f, prof) in params.base_passive.items()
        }

        # entry index by kind for assembly
        self._mu_entries = {s: [] for s in SIDES}
        self._beta_entries = {s: [] for s in SIDES}
        self._lam_entries = {pt: [] for pt in PASSIVE_TYPES}
        for k, e in enumerate(self.entries):
            if e.kind == "mu":
                self._mu_entries[e.target].append(k)
            elif e.kind == "beta":
                self._beta_entries[e.target].append(k)
            else:
                self._lam_entries[e.target].append(k)

        # in-products of every in-profile against each entry's out profile
        # and against the exogenous passive shapes, for the ell recursion
        self._ip_out = np.zeros((len(self.inprods), len(self.entries)))
        self._ip_hat = np.zeros(len(self.inprods))
        for r, (pt_r, inp) in enumerate(self.inprods):
            in_w = inp.value(self.xg) * self.wg
            self._ip_hat[r] = float(in_w @ self._hat_vals[pt_r])
            for k, out_vals in enumerate(self._entry_out):
                if out_vals is not None and self.entries[k].target == pt_r:
                    self._ip_out[r, k] = float(in_w @ out_vals)

        self._convs = [_TrapezoidConv(e.time, dt, self.R) for e in self.entries]
        self._any_generic = any(c.mode == "generic" for c in self._convs)

        M, R = self.n_steps, self.R
        self.q = np.zeros((M + 1, 2, R))
        self.ell = np.zeros((M + 1, len(self.inprods), R))
        self.mu = np.zeros((M + 1, 2, R))
        self.beta_arr = np.zeros((M + 1, 2, R))
        self.P_a = np.zeros((M + 1, R))
        self.P_b = np.zeros((M + 1, R))
        self.P_a[0] = init.p_a
        self.P_b[0] = init.p_b
        self.V_a = np.array(init.v_a, dtype=float)
        self.V_b = np.array(init.v_b, dtype=float)

        self.v_f = {f.name: np.zeros((M + 1, 2, R)) for f in self.track}
        self.eta_f = {f.name: np.zeros((M + 1, 2, R)) for f in self.track}
        # quadrature-weighted test-function values, one dot per tracked functional
        self._fw = {f.name: np.asarray(f.fn(self.x_v), dtype=float) * self._wv
                    for f in self.track}
        self.lam_checkpoint_times = sorted(lam_checkpoint_times)
        self.lam_checkpoints: list = []

        self._build_gather_windows()
        # work buffers of the volume update, viewed as (R, band width) per step
        size = self.R * self.x_v.size
        self._gather, self._scratch = np.empty(size), np.empty(size)
        self._place, self._cancel = np.empty(size), np.empty(size)

        self.m = 0
        self._init_time_zero()

    def _build_gather_windows(self) -> None:
        """Padded sliding windows over every distinct profile vector, and
        each side's terms grouped by the window they read.

        Segment ``k`` of a vector ``vec`` is interpolated at fraction ``f`` as
        ``base[k] + f * diff[k]``, ``base = vec[:-1]``, ``diff = np.diff(vec)``.
        Both are padded with ``n_cols + 1`` zeros on each side and viewed as
        width-``n_cols`` sliding windows: row ``k + pad`` starts at segment
        ``k``, and the first and last rows, where rows past the padding are
        clipped to, are zero.  The bid side's windows hold both reversed, so
        its row ``n - 2 - k + pad`` walks down from segment ``k`` in that
        side's ``V`` column order.

        ``_side_terms[side]`` lists ``(window, (place rows, cancel rows))``,
        rows of the coefficient stack: the entries' convolution values, then
        the hat factors in ``PASSIVE_TYPES`` order.
        """
        n_cols = self.x_v.size
        self._pad = n_cols + 1
        self._windows: list[dict] = []
        index: dict = {}

        def padded(arr: np.ndarray) -> np.ndarray:
            buf = np.zeros(arr.size + 2 * self._pad)
            buf[self._pad:-self._pad] = arr
            return sliding_window_view(buf, n_cols)

        def window_of(vec: np.ndarray) -> int:
            key = vec.tobytes()
            if key not in index:
                index[key] = len(self._windows)
                base, diff = vec[:-1], np.diff(vec)
                self._windows.append({"a": (padded(base), padded(diff)),
                                      "b": (padded(base[::-1]), padded(diff[::-1]))})
            return index[key]

        self._side_terms: dict = {}
        for side in SIDES:
            groups: dict = {}
            for i, kind in enumerate(("lo", "cx")):
                pt = f"{side}_{kind}"
                terms = [(self._hat_vals[pt], len(self.entries) + PASSIVE_TYPES.index(pt))]
                terms += [(self._entry_out[k], k) for k in self._lam_entries[pt]]
                for vec, row in terms:
                    groups.setdefault(window_of(vec), ([], []))[i].append(row)
            self._side_terms[side] = list(groups.items())
        self._last_row = self._windows[0]["a"][0].shape[0] - 1

    # -- assembly helpers ---------------------------------------------------

    def _hat_factors(self, t: float, pa: np.ndarray, pb: np.ndarray) -> dict:
        return {pt: self.p.base_passive[pt][0](t, pa, pb) for pt in PASSIVE_TYPES}

    def _ell_from(self, conv: np.ndarray, hat_fac: dict) -> np.ndarray:
        """In-product series values from convolution values, (n_ip, R)."""
        out = np.zeros((len(self.inprods), self.R))
        for r, (pt, _inp) in enumerate(self.inprods):
            acc = hat_fac[pt] * self._ip_hat[r]
            for k in self._lam_entries[pt]:
                acc = acc + conv[k] * self._ip_out[r, k]
            out[r] = acc
        return out

    def lam_grids(self) -> np.ndarray:
        """Passive intensities on the distance grid at the current step, (4, n_x, R)."""
        out = np.zeros((4, self.xg.size, self.R))
        for i, pt in enumerate(PASSIVE_TYPES):
            acc = self._hat_fac[pt][None, :] * self._hat_vals[pt][:, None]
            for k in self._lam_entries[pt]:
                acc = acc + self._entry_out[k][:, None] * self._conv[k][None, :]
            out[i] = acc
        return out

    # -- stepping -----------------------------------------------------------

    def _init_time_zero(self):
        pa, pb = self.P_a[0], self.P_b[0]
        hat_fac = self._hat_factors(0.0, pa, pb)
        conv = np.zeros((len(self.entries), self.R))
        for s_idx, side in enumerate(SIDES):
            self.mu[0, s_idx] = self.p.base_rate[side](0.0, pa, pb)
            self.beta_arr[0, s_idx] = self.p.base_drift[side](0.0, pa, pb)
            self.q[0, s_idx] = self.p.rho[side](pa, pb) * self.mu[0, s_idx]
        self.ell[0] = self._ell_from(conv, hat_fac)
        # convolution values and hat factors of the current step, read by the
        # volume update and the checkpoints of that step only
        self._conv, self._hat_fac = conv, hat_fac
        self._maybe_checkpoint(0)

    def _src_hist(self, e: _Entry, m: int) -> np.ndarray:
        if e.src_key[0] == "q":
            s_idx = SIDES.index(e.src_key[1])
            return self.q[:m, s_idx, :]
        return self.ell[:m, e.src_key[1], :]

    def _src_now(self, e: _Entry, q_now: np.ndarray, ell_now: np.ndarray) -> np.ndarray:
        if e.src_key[0] == "q":
            return q_now[SIDES.index(e.src_key[1])]
        return ell_now[e.src_key[1]]

    def step(self, noise: np.ndarray) -> None:
        """Advance one step; ``noise`` is (2, R) standard normal."""
        m = self.m
        if m >= self.n_steps:
            raise RuntimeError("the run is already complete")
        t_new = self.t[m + 1]
        dt = self.dt
        pa_prev, pb_prev = self.P_a[m], self.P_b[m]

        # 1. intensities at t_{m+1}, driven by the state at the step start
        hist = np.zeros((len(self.entries), self.R))
        lags = w = None
        if self._any_generic:
            lags = t_new - self.t[: m + 1]
            w = np.ones(m + 1)
            w[0] = 0.5
        for k, e in enumerate(self.entries):
            hist[k] = self._convs[k].fold_and_value(self._src_hist(e, m + 1), lags, w)

        hat_fac = self._hat_factors(t_new, pa_prev, pb_prev)
        base_rate = np.stack([self.p.base_rate[s](t_new, pa_prev, pb_prev) for s in SIDES])
        rho_prev = np.stack([self.p.rho[s](pa_prev, pb_prev) for s in SIDES])
        q_now = self.q[m].copy()
        ell_now = self.ell[m].copy()
        conv = hist.copy()
        mu_now = self.mu[m].copy()
        for _ in range(3):
            for k, e in enumerate(self.entries):
                conv[k] = hist[k] + 0.5 * dt * float(e.time.value(0.0)) * self._src_now(
                    e, q_now, ell_now
                )
            mu_now = base_rate.copy()
            for s_idx, side in enumerate(SIDES):
                for k in self._mu_entries[side]:
                    mu_now[s_idx] = mu_now[s_idx] + conv[k]
            q_now = rho_prev * mu_now
            ell_now = self._ell_from(conv, hat_fac)
        beta_now = np.stack([self.p.base_drift[s](t_new, pa_prev, pb_prev) for s in SIDES])
        for s_idx, side in enumerate(SIDES):
            for k in self._beta_entries[side]:
                beta_now[s_idx] = beta_now[s_idx] + conv[k]

        if not (np.all(np.isfinite(mu_now)) and np.all(np.isfinite(conv))):
            raise NumericalFailureError(f"non-finite intensities at step {m + 1}")

        self.mu[m + 1] = mu_now
        self.beta_arr[m + 1] = beta_now

        # 2. prices by Euler-Maruyama, coefficients at the step start
        drift_a, drift_b, diff_a, diff_b = self.drift_diffusion(m)
        self.P_a[m + 1] = pa_prev + drift_a * dt + diff_a * math.sqrt(dt) * noise[0]
        self.P_b[m + 1] = pb_prev - drift_b * dt + diff_b * math.sqrt(dt) * noise[1]
        if not (np.all(np.isfinite(self.P_a[m + 1])) and np.all(np.isfinite(self.P_b[m + 1]))):
            raise NumericalFailureError(f"non-finite prices at step {m + 1}")

        # 3. volumes by explicit Euler with intensities at the step start
        self._advance_volumes(m)

        # finalize source histories at t_{m+1} with the realized state
        pa_new, pb_new = self.P_a[m + 1], self.P_b[m + 1]
        rho_new = np.stack([self.p.rho[s](pa_new, pb_new) for s in SIDES])
        self.q[m + 1] = rho_new * mu_now
        hat_new = self._hat_factors(t_new, pa_new, pb_new)
        self.ell[m + 1] = self._ell_from(conv, hat_new)
        self._conv, self._hat_fac = conv, hat_new

        self.m = m + 1
        self._maybe_checkpoint(self.m)

    def drift_diffusion(self, m: int):
        """Price drift and diffusion coefficients at step m.

        drift_side = rho * beta + rate_slope * mu; diffusion = sqrt(2 rho mu),
        with a clamped radicand counted against the failure budget.  The ask
        drift enters with plus sign, the bid drift with minus.
        """
        pa, pb = self.P_a[m], self.P_b[m]
        out = []
        for s_idx, side in enumerate(SIDES):
            rho = self.p.rho[side](pa, pb)
            rate_slope = self.p.rate_slope[side](pa, pb)
            drift = rho * self.beta_arr[m, s_idx] + rate_slope * self.mu[m, s_idx]
            rad = 2.0 * rho * self.mu[m, s_idx]
            neg = rad < 0
            if np.any(neg):
                self.clamp_count += int(neg.sum())
                rad = np.clip(rad, 0.0, None)
            out.append((drift, np.sqrt(rad)))
        (drift_a, diff_a), (drift_b, diff_b) = out
        return drift_a, drift_b, diff_a, diff_b

    def _lam_at_volume_nodes(self, m: int, side: str):
        """Gain-weighted placement and cancellation intensities at x_v
        relative to the best price, at step ``m`` with the current
        convolution values and hat factors.

        Returns ``(place, cancel, cols)``: ``place_gain * lam_lo`` and
        ``cancel_gain * lam_cx`` on the volume columns ``cols`` (a slice, in
        ``V`` column order), which hold every nonzero value.

        The intensities are sums of fixed profile vectors with per-path
        coefficients.  The volume grid has the distance grid's spacing, so a
        path's shift is one start index ``idx0`` and fraction, and
        interpolating a vector reads one window row per path.  The
        coefficients of the terms sharing a window are summed per path, gain
        included, so each distinct vector is gathered once.  Column ``j`` of
        the relative coordinate reaches the profile only when ``idx0 + j``
        lies in ``[0, n - 2]``, so the gather covers just the band
        ``[max(0, -max idx0), min(n_cols, n - 1 - min idx0))``, possibly
        empty; on the bid side the band maps to the mirrored ``V`` columns.
        The returned arrays are views of work buffers, valid until the next
        call.
        """
        coefs = np.concatenate([self._conv, [self._hat_fac[pt] for pt in PASSIVE_TYPES]])
        pa, pb = self.P_a[m], self.P_b[m]
        starts = (self.x_v[0] - pa) if side == "a" else (pb - self.x_v[-1])
        pos0 = (starts - float(self.xg[0])) / self.h_v
        idx0 = np.floor(pos0).astype(np.int64)
        frac = (pos0 - idx0)[:, None]
        n, n_cols = self.xg.size, self.x_v.size
        j0 = max(0, -int(idx0.max()))
        j1 = max(j0, min(n_cols, n - 1 - int(idx0.min())))
        if side == "a":
            rows, cols = idx0 + (j0 + self._pad), slice(j0, j1)
        else:
            rows, cols = (n - 1 - j1 + self._pad) - idx0, slice(n_cols - j1, n_cols - j0)
        # rows are in range, and mode="clip" lets take write to out without
        # an intermediate copy
        np.clip(rows, 0, self._last_row, out=rows)
        width = j1 - j0
        shape, size = (self.R, width), self.R * width
        g, scratch, *out = (
            buf[:size].reshape(shape)
            for buf in (self._gather, self._scratch, self._place, self._cancel)
        )
        gains = (self.p.place_gain[side], self.p.cancel_gain[side])
        filled = [False, False]
        for w, row_sets in self._side_terms[side]:
            base, diff = self._windows[w][side]
            np.take(base[:, :width], rows, axis=0, out=g, mode="clip")
            np.take(diff[:, :width], rows, axis=0, out=scratch, mode="clip")
            scratch *= frac
            g += scratch
            for i, coef_rows in enumerate(row_sets):
                if not coef_rows:
                    continue
                coef = gains[i] * coefs[coef_rows].sum(axis=0)
                np.multiply(g, coef[:, None], out=scratch if filled[i] else out[i])
                if filled[i]:
                    out[i] += scratch
                filled[i] = True
        return out[0], out[1], cols

    def _advance_volumes(self, m: int) -> None:
        """Explicit Euler step of both volume densities, in place.

        ``eta = place + cancel * V`` is built in the place buffer over the
        column band of the gain-weighted intensities, and only that band of
        ``V`` moves: outside it ``eta`` is zero.  Tracked functionals read
        ``V`` before the update and ``eta`` over the band.
        """
        for s_idx, side in enumerate(SIDES):
            eta, cancel, cols = self._lam_at_volume_nodes(m, side)
            V = self.V_a if side == "a" else self.V_b
            band = V[:, cols]
            cancel *= band
            eta += cancel
            for f in self.track:
                fw = self._fw[f.name]
                self.v_f[f.name][m, s_idx] = V @ fw
                self.eta_f[f.name][m, s_idx] = eta @ fw[cols]
            eta *= self.dt
            band += eta
        if self.track and m + 1 == self.n_steps:
            # record the terminal functional values as well
            for f in self.track:
                fw = self._fw[f.name]
                self.v_f[f.name][m + 1, 0] = self.V_a @ fw
                self.v_f[f.name][m + 1, 1] = self.V_b @ fw

    def _maybe_checkpoint(self, m: int) -> None:
        t = self.t[m]
        for tc in self.lam_checkpoint_times:
            if abs(t - tc) < 0.5 * self.dt and all(
                abs(t0 - tc) > 0.5 * self.dt for t0, _ in self.lam_checkpoints
            ):
                self.lam_checkpoints.append((t, self.lam_grids()))

    def finish(self, seed=None) -> LimitRun:
        return LimitRun(
            t=self.t,
            p_a=self.P_a,
            p_b=self.P_b,
            mu=self.mu,
            beta=self.beta_arr,
            v_x=self.x_v,
            v_a=self.V_a,
            v_b=self.V_b,
            params=self.p,
            seed=seed,
            clamp_count=self.clamp_count,
            v_f=self.v_f,
            eta_f=self.eta_f,
            lam_checkpoints=self.lam_checkpoints,
        )


# ---------------------------------------------------------------------------
# public drivers
# ---------------------------------------------------------------------------


def make_initial_state(
    params: LimitParams,
    p_a0: float,
    p_b0: float,
    v0_a: Callable,
    v0_b: Callable,
    n_paths: int = 1,
    v_pad: float = 2.0,
) -> LimitState:
    """Ensemble initial state with an absolute volume grid around the prices.

    The volume grid spans ``[lo, hi]``, the prices padded by the distance
    grid's half-width and ``v_pad``, with the distance grid's spacing ``h``.
    When ``hi - lo`` is not a whole number of steps, ``hi`` moves outward to
    the next node ``lo + h * ceil((hi - lo) / h)``.
    """
    g = params.grid
    lo = min(p_a0, p_b0) - g.half_width - v_pad
    hi = max(p_a0, p_b0) + g.half_width + v_pad
    steps = round((hi - lo) / g.h)
    if not math.isclose(hi - lo, steps * g.h, rel_tol=1e-12):
        steps = math.ceil((hi - lo) / g.h)
        hi = lo + g.h * steps
    n = steps + 1
    x_v = np.linspace(lo, hi, n)
    va = np.broadcast_to(np.asarray(v0_a(x_v), dtype=float), (n_paths, n)).copy()
    vb = np.broadcast_to(np.asarray(v0_b(x_v), dtype=float), (n_paths, n)).copy()
    return LimitState(
        p_a=np.full(n_paths, float(p_a0)),
        p_b=np.full(n_paths, float(p_b0)),
        v_x=x_v,
        v_a=va,
        v_b=vb,
    )


def make_noise(seed: int, n_steps: int, n_paths: int, replicate: int = 0) -> np.ndarray:
    """Materialized Brownian standard-normal increments, (n_steps, 2, R)."""
    rng = stream_rng(seed, replicate, "noise")
    return rng.standard_normal((n_steps, 2, n_paths))


def coarsen_noise(noise: np.ndarray, factor: int) -> np.ndarray:
    """Aggregate fine-grid standard increments onto a grid coarser by ``factor``."""
    n_steps = noise.shape[0]
    if n_steps % factor:
        raise ValueError("step count must be divisible by the coarsening factor")
    blocks = noise.reshape(n_steps // factor, factor, *noise.shape[1:])
    return blocks.sum(axis=1) / math.sqrt(factor)


def solve_paths(
    params: LimitParams,
    init: LimitState,
    horizon: float,
    dt: float,
    seed=None,
    noise: Optional[np.ndarray] = None,
    track: Sequence[SpatialTestFn] = (),
    lam_checkpoint_times: Sequence[float] = (),
) -> LimitRun:
    """Solve an ensemble, deterministic given the seed (or explicit noise).

    Explicit ``noise`` holds the standard normal increments, shaped
    ``(n_steps, 2, n_paths)``.
    """
    eng = LimitEngine(params, init, horizon, dt, track, lam_checkpoint_times)
    if noise is not None and np.shape(noise) != (eng.n_steps, 2, eng.R):
        raise ValueError(
            f"noise must be shaped (n_steps, 2, n_paths) = {(eng.n_steps, 2, eng.R)}, "
            f"got {np.shape(noise)}"
        )
    rng = None
    if noise is None:
        rng = as_rng(seed if seed is not None else 0, "limit")
    for m in range(eng.n_steps):
        dz = noise[m] if noise is not None else rng.standard_normal((2, eng.R))
        eng.step(dz)
    total_steps = eng.n_steps * eng.R
    if total_steps and eng.clamp_count > CLAMP_BUDGET * total_steps:
        raise NumericalFailureError(
            f"clamped diffusion radicand on {eng.clamp_count} of {total_steps} steps"
        )
    return eng.finish(seed)


# ---------------------------------------------------------------------------
# reference system for consistency checks
# ---------------------------------------------------------------------------


def volterra_system(params: LimitParams):
    """The (layout, operator, exogenous builder) of the generic grid solver.

    Used to re-solve the intensity equations from a realized state path and
    compare against the stepper's stored intensities.
    """
    lay = limit_layout(params.grid)

    def rate_adapter(side):
        fn = params.rho[side]
        return lambda S: float(fn(np.asarray([S[0]]), np.asarray([S[1]]))[0])

    entries = []
    for (tgt, src), prof in params.act_from_act.items():
        entries.append(
            scalar_to_scalar(lay.scalar_index(f"mu_{tgt}"), lay.scalar_index(f"mu_{src}"),
                             prof, rate=rate_adapter(src))
        )
    for (tgt, src_pt), (inp, prof) in params.act_from_pas.items():
        entries.append(
            grid_to_scalar(lay.scalar_index(f"mu_{tgt}"), lay.grid_index(src_pt), prof, inp)
        )
    for (tgt_pt, src), (outp, prof) in params.pas_from_act.items():
        entries.append(
            scalar_to_grid(lay.grid_index(tgt_pt), lay.scalar_index(f"mu_{src}"),
                           prof, outp, rate=rate_adapter(src))
        )
    for (tgt_pt, src_pt), (outp, inp, prof) in params.pas_from_pas.items():
        entries.append(
            grid_to_grid(lay.grid_index(tgt_pt), lay.grid_index(src_pt), prof, outp, inp)
        )
    op = BlockKernelOp(lay, entries)

    def exo_scalar(side):
        fn = params.base_rate[side]
        return lambda t, S: float(fn(t, np.asarray([S[0]]), np.asarray([S[1]]))[0])

    def exo_grid(pt):
        fn = params.base_passive[pt][0]
        return lambda t, S: float(fn(t, np.asarray([S[0]]), np.asarray([S[1]]))[0])

    exo = ExogenousField(
        lay,
        [exo_scalar(s) for s in SIDES],
        [[(exo_grid(pt), params.base_passive[pt][1])] for pt in PASSIVE_TYPES],
    )
    return lay, op, exo


def intensity_consistency(run: LimitRun, path: int = 0) -> float:
    """Residual between stored intensities and a re-solve from the state path.

    The re-solve feeds the realized prices back through the generic
    Volterra solver with the same left-limit state convention; agreement is
    limited only by the convention at the implicit diagonal.
    """
    from .volterra import solve_forward

    lay, op, exo = volterra_system(run.params)
    states = list(zip(run.p_a[:, path], run.p_b[:, path]))
    sol = solve_forward(op, exo, states, run.t, exo_at="prev")
    mu_ref = sol.scalars()
    err = float(np.max(np.abs(mu_ref - run.mu[:, :, path])))
    scale = float(np.max(np.abs(run.mu[:, :, path])) + 1e-30)
    return err / scale


# ---------------------------------------------------------------------------
# well-posedness condition
# ---------------------------------------------------------------------------


@dataclass
class UniquenessReport:
    passed: bool
    n_checked: int
    failures: list


def check_uniqueness_condition(
    params: LimitParams,
    eps: float,
    probe_spreads: Optional[np.ndarray] = None,
    mid: float = 0.0,
) -> UniquenessReport:
    """Check 0 < rho_I(S) <= varrho_I(S) * (p_a - p_b) near zero spread.

    Probes states with spreads in (0, eps); report-only, no exception.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    if probe_spreads is None:
        probe_spreads = eps * np.geomspace(1e-6, 1.0, 64, endpoint=False)
    failures = []
    for s in probe_spreads:
        pa = np.asarray([mid + 0.5 * s])
        pb = np.asarray([mid - 0.5 * s])
        for side in SIDES:
            rho = float(params.rho[side](pa, pb)[0])
            rate_slope = float(params.rate_slope[side](pa, pb)[0])
            if not (0.0 < rho <= rate_slope * s * (1.0 + 1e-12)):
                failures.append({"spread": float(s), "side": side,
                                 "rho": rho, "rate_slope": rate_slope})
    return UniquenessReport(not failures, probe_spreads.size * 2, failures)
