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
    FieldLayout,
    NumericalFailureError,
    SpatialGrid,
    grid_to_grid,
    grid_to_scalar,
    scalar_to_grid,
    scalar_to_scalar,
)

SIDES = ("a", "b")
PASSIVE_TYPES = ("a_lo", "a_cx", "b_lo", "b_cx")
#: share of path-steps whose diffusion radicand may be clamped before a
#: solve fails with ``NumericalFailureError``
CLAMP_BUDGET = 1e-3
#: bytes of one column block of the volume step's work buffers: at 2000
#: paths a block is 25 volume nodes, whose band rows and buffers stay in a
#: core's L2 cache between passes
VOLUME_BLOCK_BYTES = 256 * 197 * 8


# ---------------------------------------------------------------------------
# factor families: f(p_a, p_b), elementwise over any price arrays
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
        if side not in SIDES:
            raise ValueError(f"side must be 'a' or 'b', got {side!r}")
        self.scale = float(scale)
        self.side = side

    def __call__(self, p_a, p_b):
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
    market-minus-spread differences.  Every rate and exogenous factor is a
    callable ``f(p_a, p_b)``, elementwise over price arrays of any shape
    (``ConstantRate``, ``SpreadPlusRate``, ``PriceSquareRate``): the
    stepper calls it on one step's paths, the Volterra reference and
    ``harness.martingale_residual`` on a whole state path.
    """

    grid: SpatialGrid
    rho: dict  # side -> rate factor f(p_a, p_b)
    rate_slope: dict  # side -> rescaled factor difference f(p_a, p_b)
    base_rate: dict  # side -> exogenous active density f(p_a, p_b)
    base_drift: dict  # side -> exogenous drift density f(p_a, p_b)
    base_passive: dict  # passive type -> (factor f(p_a, p_b), spatial profile)
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
    v_a: Optional[np.ndarray]  # terminal (R, volume nodes); None when not solved
    v_b: Optional[np.ndarray]
    params: LimitParams
    seed: Optional[int]
    clamp_count: int
    v_f: dict  # name -> (M+1, 2, R) tracked volume functionals (a, b)
    eta_f: dict  # name -> (M+1, 2, R) tracked volume drift functionals; row M stays 0
    lam_checkpoints: list  # (t, (4, n_x, R)) passive intensity snapshots

    @property
    def n_paths(self) -> int:
        return self.p_a.shape[1]

    @property
    def dt(self) -> float:
        return float(self.t[1] - self.t[0]) if self.t.size > 1 else 0.0

    def v_inner(self, fn: Callable, side: str = "a") -> np.ndarray:
        """Terminal volume inner products <V_I(T), f> per path; a side the
        solve left out raises ``ValueError``."""
        if side not in SIDES:
            raise ValueError(f"side must be 'a' or 'b', got {side!r}")
        vals = self.v_a if side == "a" else self.v_b
        if vals is None:
            raise ValueError(f"the {side!r} volumes were not solved; pass volume_sides "
                             f"including {side!r} to solve_paths")
        w = _trapz_weights(self.v_x)
        return vals @ (np.asarray(fn(self.v_x)) * w)


def _volume_sides(sides: Sequence[str]) -> tuple:
    """``sides`` checked as a non-empty subset of ``SIDES``, in ``SIDES`` order."""
    sides = tuple(sides)
    if not sides or len(set(sides)) != len(sides) or not set(sides) <= set(SIDES):
        raise ValueError(f"volume_sides must be a non-empty subset of {SIDES} "
                         f"without repeats, got {sides!r}")
    return tuple(s for s in SIDES if s in sides)


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
        self.src_key = src_key  # ("q", side) or ("ip", in-product index)
        self.kind = kind  # "mu" | "lam" | "beta"
        self.target = target  # side or passive type


class _TrapezoidConv:
    """Running trapezoid history sum H_m = dt * sum_j w_j h(t_m - t_j) q_j.

    For the exact exponential, constant, zero and gamma profile families the
    sum obeys an exact one-step recursion, so the per-step cost is O(paths)
    instead of O(steps * paths) and only the running sums are kept; other
    profiles, subclasses included, fall back to the full dot product through
    their ``value`` (``generic`` mode).  The generic mode alone keeps the
    source's history, q_0..q_{M-1} on the time grid ``t``; the engine hands
    over only the newest row.
    It is not a ``families.KernelBank``: it is a trapezoid quadrature over
    a path ensemble on a time grid, with a half-weighted first node, not a
    sum over events.
    """

    def __init__(self, profile: TimeProfile, t: np.ndarray, dt: float, n_paths: int):
        self.profile = profile
        self.dt = dt
        self.n = 0  # source rows folded so far
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
            self.t = t
            self.q = np.empty((t.size - 1, n_paths))

    def fold_and_value(self, q_new: np.ndarray) -> np.ndarray:
        """History part of the convolution at t_{m+1}.

        ``q_new`` is the newest finalized source row q_m; stateful modes fold
        it into the running sum, the generic mode appends it to its history
        and recomputes the weighted dot over q_0..q_m.
        """
        m = self.n
        self.n = m + 1
        if self.mode == "generic":
            self.q[m] = q_new
            w = np.ones(m + 1)
            w[0] = 0.5
            prof_vals = self.profile.value(self.t[m + 1] - self.t[:m + 1])
            return self.dt * ((prof_vals * w) @ self.q[:m + 1])
        q_new = q_new * (0.5 if m == 0 else 1.0)
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

    A step has three phases: the intensities (trapezoid history sums plus
    three fixed-point sweeps of the implicit diagonal node), the prices by
    Euler-Maruyama, and the volumes by one fused explicit Euler step
    (``_advance_volumes``) that gathers each distinct profile window once
    per side and column block.  Each side's rate factor is evaluated once
    per state and serves the diffusion coefficients of that step and the
    intensities of the next.  The engine keeps the intensity and price
    paths it returns, but of the scalar sources (``q = rho * mu`` per side
    and the in-products ``ell``) only the current row: each convolution
    keeps what it reads (``_TrapezoidConv``).  ``V_a`` and ``V_b`` are
    node-major ``(volume nodes, R)`` arrays, updated in place over the band
    of nodes the intensities reach; ``V_b`` is stored mirrored (its row
    ``j`` is node ``n_cols - 1 - j``), so both sides read the same profile
    windows with the same band formula.  ``finish`` returns ``(R, volume
    nodes)`` views.  Nothing reads a volume, so a side left out of
    ``volume_sides`` is neither copied nor advanced, and its ``V`` is
    ``None``.
    """

    def __init__(
        self,
        params: LimitParams,
        init: LimitState,
        horizon: float,
        dt: float,
        track: Sequence[SpatialTestFn] = (),
        lam_checkpoint_times: Sequence[float] = (),
        volume_sides: Sequence[str] = SIDES,
    ):
        self.p = params
        self.volume_sides = _volume_sides(volume_sides)
        if track and self.volume_sides != SIDES:
            raise ValueError("tracked functionals hold both sides; track needs "
                             f"volume_sides={SIDES}, got {self.volume_sides}")
        for name, value in (("horizon", horizon), ("dt", dt)):
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be positive and finite, got {value}")
        if init.p_a.size == 0:
            raise ValueError("the ensemble needs at least one path (n_paths >= 1)")
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

        # scalar sources: q_<side> = rho_side * mu_side, and one in-product
        # series per (passive source, in-profile) pair
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

        self._convs = [_TrapezoidConv(e.time, self.t, dt, self.R) for e in self.entries]
        # the implicit trapezoid node's weight per entry: 0.5 dt h(0)
        self._diag = [0.5 * dt * float(e.time.value(0.0)) for e in self.entries]

        M, R = self.n_steps, self.R
        self.mu = np.zeros((M + 1, 2, R))
        self.beta_arr = np.zeros((M + 1, 2, R))
        self.P_a = np.zeros((M + 1, R))
        self.P_b = np.zeros((M + 1, R))
        self.P_a[0] = init.p_a
        self.P_b[0] = init.p_b
        # node-major, the bid side mirrored; make_initial_state builds its
        # volumes as transposes, so these are plain row copies
        solved = self.volume_sides
        self.V_a = np.array(init.v_a.T, dtype=float, order="C") if "a" in solved else None
        self.V_b = np.array(init.v_b.T[::-1], dtype=float, order="C") if "b" in solved else None

        self.v_f = {f.name: np.zeros((M + 1, 2, R)) for f in self.track}
        self.eta_f = {f.name: np.zeros((M + 1, 2, R)) for f in self.track}
        # quadrature-weighted test-function values as one (F, volume nodes)
        # matrix per side, in that side's node order
        fw = np.array([np.asarray(f.fn(self.x_v), dtype=float) * self._wv
                       for f in self.track]).reshape(len(self.track), self.x_v.size)
        self._fw = {side: fw if side == "a" else np.ascontiguousarray(fw[:, ::-1])
                    for side in solved}
        self.lam_checkpoint_times = sorted(lam_checkpoint_times)
        self.lam_checkpoints: list = []

        self._build_gather_windows()
        # the volume update's three work buffers, viewed as (block nodes, R)
        # per column block
        self._block_nodes = max(1, min(self.x_v.size, VOLUME_BLOCK_BYTES // (8 * self.R)))
        self._buffers = [np.empty(self._block_nodes * self.R) for _ in range(3)]

        pa, pb = self.P_a[0], self.P_b[0]
        for s_idx, side in enumerate(SIDES):
            self.mu[0, s_idx] = self.p.base_rate[side](pa, pb)
            self.beta_arr[0, s_idx] = self.p.base_drift[side](pa, pb)
        self._settle(0, np.zeros((len(self.entries), R)))

    def _build_gather_windows(self) -> None:
        """Zero-padded windows over every distinct profile vector, and each
        side's terms grouped by the window they read.

        Segment ``k`` of a vector ``vec`` is interpolated at fraction ``f`` as
        ``base[k] + f * diff[k]``, ``base = vec[:-1]``, ``diff = np.diff(vec)``.
        Both sit at offset ``_pad = n_cols`` in arrays of zeros, viewed as
        sliding windows of width ``n + n_cols``: row ``_pad + k`` starts at
        segment ``k``, and a row reads zeros wherever it passes either end.
        ``_volume_band`` bounds the rows and the width a step reads.

        ``_side_terms[side]`` lists ``(window, (place rows, cancel rows))``,
        rows of the coefficient stack: the entries' convolution values, then
        the hat factors in ``PASSIVE_TYPES`` order.
        """
        n, n_cols = self.xg.size, self.x_v.size
        self._pad = n_cols
        width = n + n_cols
        self._windows: list[tuple] = []
        index: dict = {}

        def padded(arr: np.ndarray) -> np.ndarray:
            buf = np.zeros(self._pad + 2 * width)
            buf[self._pad:self._pad + arr.size] = arr
            return sliding_window_view(buf, width)

        def window_of(vec: np.ndarray) -> int:
            key = vec.tobytes()
            if key not in index:
                index[key] = len(self._windows)
                self._windows.append((padded(vec[:-1]), padded(np.diff(vec))))
            return index[key]

        self._side_terms: dict = {}
        for side in self.volume_sides:
            groups: dict = {}
            for i, kind in enumerate(("lo", "cx")):
                pt = f"{side}_{kind}"
                terms = [(self._hat_vals[pt], len(self.entries) + PASSIVE_TYPES.index(pt))]
                terms += [(self._entry_out[k], k) for k in self._lam_entries[pt]]
                for vec, row in terms:
                    groups.setdefault(window_of(vec), ([], []))[i].append(row)
            self._side_terms[side] = list(groups.items())

    # -- assembly helpers ---------------------------------------------------

    def _hat_factors(self, pa: np.ndarray, pb: np.ndarray) -> dict:
        return {pt: self.p.base_passive[pt][0](pa, pb) for pt in PASSIVE_TYPES}

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

    def _settle(self, m: int, conv: np.ndarray) -> None:
        """Finalize step ``m`` from its realized prices, its intensities
        ``mu[m]`` and its convolution values ``conv``, and take a checkpoint
        there if one is due."""
        pa, pb = self.P_a[m], self.P_b[m]
        # each side's rate factor at the current state, read by the next
        # step's intensities and by drift_diffusion
        self._rho = np.stack([self.p.rho[s](pa, pb) for s in SIDES])
        # convolution values and hat factors of the current step, read by the
        # volume update and the checkpoints of that step only
        self._conv, self._hat_fac = conv, self._hat_factors(pa, pb)
        # the current source rows, folded into the convolutions by the next step
        self._q = self._rho * self.mu[m]
        self._ell = self._ell_from(conv, self._hat_fac)
        self.m = m
        self._maybe_checkpoint(m)

    def _src_now(self, e: _Entry, q_now: np.ndarray, ell_now: np.ndarray) -> np.ndarray:
        if e.src_key[0] == "q":
            return q_now[SIDES.index(e.src_key[1])]
        return ell_now[e.src_key[1]]

    def step(self, noise: np.ndarray) -> None:
        """Advance one step; ``noise`` is (2, R) standard normal."""
        m = self.m
        if m >= self.n_steps:
            raise RuntimeError("the run is already complete")
        dt = self.dt
        pa_prev, pb_prev = self.P_a[m], self.P_b[m]

        # 1. intensities at t_{m+1}, driven by the state at the step start
        q_now, ell_now = self._q, self._ell
        hist = np.zeros((len(self.entries), self.R))
        for k, e in enumerate(self.entries):
            hist[k] = self._convs[k].fold_and_value(self._src_now(e, q_now, ell_now))

        hat_fac = self._hat_factors(pa_prev, pb_prev)
        base_rate = np.stack([self.p.base_rate[s](pa_prev, pb_prev) for s in SIDES])
        rho_prev = self._rho
        conv = np.empty_like(hist)
        for _ in range(3):
            for k, e in enumerate(self.entries):
                conv[k] = hist[k] + self._diag[k] * self._src_now(e, q_now, ell_now)
            mu_now = base_rate.copy()
            for s_idx, side in enumerate(SIDES):
                for k in self._mu_entries[side]:
                    mu_now[s_idx] = mu_now[s_idx] + conv[k]
            q_now = rho_prev * mu_now
            ell_now = self._ell_from(conv, hat_fac)
        beta_now = np.stack([self.p.base_drift[s](pa_prev, pb_prev) for s in SIDES])
        for s_idx, side in enumerate(SIDES):
            for k in self._beta_entries[side]:
                beta_now[s_idx] = beta_now[s_idx] + conv[k]

        if not (np.all(np.isfinite(mu_now)) and np.all(np.isfinite(conv))):
            raise NumericalFailureError(f"non-finite intensities at step {m + 1}")

        self.mu[m + 1] = mu_now
        self.beta_arr[m + 1] = beta_now

        # 2. prices by Euler-Maruyama, coefficients at the step start
        drift_a, drift_b, diff_a, diff_b = self.drift_diffusion()
        self.P_a[m + 1] = pa_prev + drift_a * dt + diff_a * math.sqrt(dt) * noise[0]
        self.P_b[m + 1] = pb_prev - drift_b * dt + diff_b * math.sqrt(dt) * noise[1]
        if not (np.all(np.isfinite(self.P_a[m + 1])) and np.all(np.isfinite(self.P_b[m + 1]))):
            raise NumericalFailureError(f"non-finite prices at step {m + 1}")

        # 3. volumes by explicit Euler with intensities at the step start
        self._advance_volumes(m)
        self._settle(m + 1, conv)

    def drift_diffusion(self):
        """Price drift and diffusion coefficients at the current step.

        drift_side = rho * beta + rate_slope * mu; diffusion = sqrt(2 rho mu),
        with a clamped radicand counted against the failure budget.  The ask
        drift enters with plus sign, the bid drift with minus.
        """
        m = self.m
        pa, pb = self.P_a[m], self.P_b[m]
        out = []
        for s_idx, side in enumerate(SIDES):
            rho = self._rho[s_idx]
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

    def _volume_band(self, m: int, side: str):
        """Table columns, fractions, band and table rows of one side's gather
        at step ``m``.

        The volume grid has the distance grid's spacing, so a path's shift
        is one start index ``idx0`` and fraction, and node ``j`` of the
        side's node-major ``V`` (the bid's mirrored) reads segment ``idx0 +
        j`` of each profile vector.  It reaches the profile only when ``idx0
        + j`` lies in ``[0, n - 2]``, so the gather covers just the band
        ``[j0, j1) = [max(0, -max idx0), min(n_cols, n - 1 - min idx0))``,
        possibly empty.  Every start index at or below ``-j1``, and every
        one at or above ``n - 1 - j0``, reads zeros over the whole band, so
        ``idx0`` is clipped to that range; the paths then read ``K = max
        idx0 - min idx0 + 1`` consecutive window rows from ``row0 = _pad +
        min idx0 + j0``.  Returns ``(k, frac, j0, j1, row0, K)``: ``k = idx0
        - min idx0`` and ``frac`` are ``(R,)``.
        """
        pa, pb = self.P_a[m], self.P_b[m]
        starts = (self.x_v[0] - pa) if side == "a" else (pb - self.x_v[-1])
        pos0 = (starts - float(self.xg[0])) / self.h_v
        idx0 = np.floor(pos0).astype(np.int64)
        frac = pos0 - idx0
        n, n_cols = self.xg.size, self.x_v.size
        j0 = max(0, -int(idx0.max()))
        j1 = max(j0, min(n_cols, n - 1 - int(idx0.min())))
        np.clip(idx0, -j1, n - 1 - j0, out=idx0)
        lo = int(idx0.min())
        idx0 -= lo
        return idx0, frac, j0, j1, self._pad + lo + j0, int(idx0.max()) + 1

    def _advance_volumes(self, m: int) -> None:
        """Explicit Euler step of the solved sides' volume densities, in place.

        The increment is ``dt * (place_gain * lam_lo + cancel_gain * lam_cx
        * V)``.  Both intensities are sums of fixed profile vectors with
        per-path coefficients, so the terms sharing a window fold into two
        per-path coefficients, ``a = dt * place_gain * sum c_lo`` and ``b =
        dt * cancel_gain * sum c_cx``, and each gathered window ``g`` adds
        ``g * (a + b * V)``.  Only the band of ``_volume_band`` moves:
        outside it the intensities are zero.  Per side, each window's rows
        the paths reach are copied into contiguous ``(band, K)`` base and
        diff tables, and the band advances in blocks of ``_block_nodes``
        nodes: ``np.take`` along the table rows gathers ``(nodes, R)``
        blocks, whose cost does not grow with ``K``, and every pass runs
        along contiguous rows of ``R`` paths with the per-path factors
        broadcast.  Tracked functionals read ``V`` before the update and the
        increment over the band, divided by ``dt``, as one ``(F, nodes)``
        product per side and per block.
        """
        coefs = np.concatenate([self._conv, [self._hat_fac[pt] for pt in PASSIVE_TYPES]])
        for s_idx, side in enumerate(SIDES):
            if side not in self.volume_sides:
                continue
            V = self.V_a if side == "a" else self.V_b
            fw = self._fw[side]
            k, frac, j0, j1, row0, K = self._volume_band(m, side)
            gains = (self.dt * self.p.place_gain[side], self.dt * self.p.cancel_gain[side])
            terms = [
                ([tbl[row0:row0 + j1 - j0, :K].copy() for tbl in self._windows[w]],
                 [gain * coefs[r].sum(axis=0) if r else None
                  for gain, r in zip(gains, row_sets)])
                for w, row_sets in self._side_terms[side]
            ]
            v_f = fw @ V
            eta_f = np.zeros_like(v_f)
            for c0 in range(j0, j1, self._block_nodes):
                c1 = min(j1, c0 + self._block_nodes)
                g, scratch, inc = (buf[:(c1 - c0) * self.R].reshape(c1 - c0, self.R)
                                   for buf in self._buffers)
                band = V[c0:c1]
                for t, ((base, diff), (a, b)) in enumerate(terms):
                    np.take(base[c0 - j0:c1 - j0], k, axis=1, out=g, mode="clip")
                    np.take(diff[c0 - j0:c1 - j0], k, axis=1, out=scratch, mode="clip")
                    scratch *= frac
                    g += scratch
                    acc = scratch if t else inc
                    if b is None:
                        np.multiply(g, a, out=acc)
                    else:
                        np.multiply(band, b, out=acc)
                        if a is not None:
                            acc += a
                        acc *= g
                    if t:
                        inc += acc
                eta_f += fw[:, c0:c1] @ inc
                band += inc
            for i, f in enumerate(self.track):
                self.v_f[f.name][m, s_idx] = v_f[i]
                self.eta_f[f.name][m, s_idx] = eta_f[i] / self.dt
        if self.track and m + 1 == self.n_steps:
            # record the terminal functional values as well
            for s_idx, V in enumerate((self.V_a, self.V_b)):
                v_f = self._fw[SIDES[s_idx]] @ V
                for i, f in enumerate(self.track):
                    self.v_f[f.name][m + 1, s_idx] = v_f[i]

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
            v_a=None if self.V_a is None else self.V_a.T,
            v_b=None if self.V_b is None else self.V_b[::-1].T,
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
    # (n_paths, n) transposes of node-major arrays, the engine's layout
    va = np.broadcast_to(np.asarray(v0_a(x_v), dtype=float)[:, None], (n, n_paths)).copy().T
    vb = np.broadcast_to(np.asarray(v0_b(x_v), dtype=float)[:, None], (n, n_paths)).copy().T
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
    volume_sides: Sequence[str] = SIDES,
) -> LimitRun:
    """Solve an ensemble, deterministic given the seed (or explicit noise).

    Explicit ``noise`` holds the standard normal increments, shaped
    ``(n_steps, 2, n_paths)``.  ``volume_sides``, a non-empty subset of
    ``SIDES``, names the volume sides to solve, without changing a bit of
    the rest; a side left out reads ``None`` as ``v_a``/``v_b``, and
    ``track``, which holds both sides, needs both.  Raises
    ``NumericalFailureError`` on non-finite intensities or prices at any
    step, on non-finite terminal volumes of a solved side, and when the
    diffusion radicand was clamped on more than ``CLAMP_BUDGET`` of the
    path-steps.
    """
    eng = LimitEngine(params, init, horizon, dt, track, lam_checkpoint_times, volume_sides)
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
    # one reduction per side: a NaN or infinity anywhere makes the sum non-finite
    for side, V in (("ask", eng.V_a), ("bid", eng.V_b)):
        if V is not None and not math.isfinite(V.sum()):
            raise NumericalFailureError(f"non-finite {side} volumes at the end of the run")
    return eng.finish(seed)


# ---------------------------------------------------------------------------
# reference system for consistency checks
# ---------------------------------------------------------------------------


def volterra_system(params: LimitParams):
    """The (layout, operator, exogenous field) of the generic grid solver.

    Used to re-solve the intensity equations from a realized state path and
    compare against the stepper's stored intensities.  The operator and the
    field take the factors of ``params`` as they are, so a solve calls each
    distinct factor once, on the price arrays of the whole path.
    """
    lay = FieldLayout(("mu_a", "mu_b"), PASSIVE_TYPES, params.grid)
    entries = []
    for (tgt, src), prof in params.act_from_act.items():
        entries.append(
            scalar_to_scalar(lay.scalar_index(f"mu_{tgt}"), lay.scalar_index(f"mu_{src}"),
                             prof, rate=params.rho[src])
        )
    for (tgt, src_pt), (inp, prof) in params.act_from_pas.items():
        entries.append(
            grid_to_scalar(lay.scalar_index(f"mu_{tgt}"), lay.grid_index(src_pt), prof, inp)
        )
    for (tgt_pt, src), (outp, prof) in params.pas_from_act.items():
        entries.append(
            scalar_to_grid(lay.grid_index(tgt_pt), lay.scalar_index(f"mu_{src}"),
                           prof, outp, rate=params.rho[src])
        )
    for (tgt_pt, src_pt), (outp, inp, prof) in params.pas_from_pas.items():
        entries.append(
            grid_to_grid(lay.grid_index(tgt_pt), lay.grid_index(src_pt), prof, outp, inp)
        )
    op = BlockKernelOp(lay, entries)
    exo = ExogenousField(
        lay,
        [params.base_rate[s] for s in SIDES],
        [[params.base_passive[pt]] for pt in PASSIVE_TYPES],
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
    s = np.asarray(probe_spreads, dtype=float)
    pa, pb = mid + 0.5 * s, mid - 0.5 * s
    factors = {side: (params.rho[side](pa, pb), params.rate_slope[side](pa, pb))
               for side in SIDES}
    ok = {side: (0.0 < rho) & (rho <= rate_slope * s * (1.0 + 1e-12))
          for side, (rho, rate_slope) in factors.items()}
    failures = [{"spread": float(s[i]), "side": side, "rho": float(factors[side][0][i]),
                 "rate_slope": float(factors[side][1][i])}
                for i in range(s.size) for side in SIDES if not ok[side][i]]
    return UniquenessReport(not failures, s.size * 2, failures)
