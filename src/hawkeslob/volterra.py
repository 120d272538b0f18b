"""Solvers for the coupled linear Volterra-Fredholm intensity system.

The unknown is a field of scalar slots (active intensities) and grid slots
(passive intensity functions on a truncated distance interval).  One time
slice of the field is one flat vector: the scalar slots, then the ``n_x``
nodes of each grid slot.  The block kernel operator is compiled once into
two matrices over that vector, ``In`` (how each kernel entry reads its
source slot) and ``Out`` (how it spreads into its target slot), and every
solve tabulates the entries' time profiles once on the lags of its uniform
time grid.

This module provides a forward trapezoid solver, the Neumann series of
Picard terms, and the scalar renewal-equation resolvent used by the
closed-form references.  The quadratures are the product trapezoid rules of
Linz (1985), *Analytical and Numerical Methods for Volterra Equations*,
ch. 7.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .families import (
    ConstantProfile,
    ExponentialProfile,
    GammaProfile,
    SpatialProfile,
    TimeProfile,
)

log = logging.getLogger(__name__)

#: a solve clamps every negative value to zero, and warns when one lies
#: deeper than this multiple of the largest driving-field norm (at least 1)
CLAMP_TOL_FACTOR = 1e-10
#: sweeps of the fixed point that resolves the implicit diagonal term
FP_MAX_ITER = 8


class NumericalFailureError(ArithmeticError):
    """Non-finite values appeared while advancing the solution."""


# ---------------------------------------------------------------------------
# grids, layouts, fields
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SpatialGrid:
    """Uniform node grid on [-half_width, half_width] with a node at 0."""

    half_width: float
    n_x: int

    def __post_init__(self):
        if self.n_x < 3 or self.n_x % 2 == 0:
            raise ValueError("need an odd node count >= 3 so 0 is a node")
        if self.half_width <= 0:
            raise ValueError("half-width must be positive")

    @property
    def h(self) -> float:
        return 2.0 * self.half_width / (self.n_x - 1)

    @property
    def x(self) -> np.ndarray:
        return np.linspace(-self.half_width, self.half_width, self.n_x)

    @property
    def quad_weights(self) -> np.ndarray:
        w = np.full(self.n_x, self.h)
        w[0] *= 0.5
        w[-1] *= 0.5
        return w


@dataclass(frozen=True)
class FieldLayout:
    """Names of the scalar slots and grid slots of an intensity field."""

    scalar_names: tuple[str, ...]
    grid_names: tuple[str, ...] = ()
    grid: Optional[SpatialGrid] = None

    def __post_init__(self):
        if self.grid_names and self.grid is None:
            raise ValueError("grid slots need a spatial grid")

    @property
    def n_scalar(self) -> int:
        return len(self.scalar_names)

    @property
    def n_grid(self) -> int:
        return len(self.grid_names)

    @property
    def n_x(self) -> int:
        return self.grid.n_x if self.grid else 0

    @property
    def size(self) -> int:
        """Length of the flat vector that holds one time slice."""
        return self.n_scalar + self.n_grid * self.n_x

    def slot(self, kind: str, idx: int) -> slice:
        """Where a ``"scalar"`` or ``"grid"`` slot sits in the flat vector."""
        if kind == "scalar":
            return slice(idx, idx + 1)
        start = self.n_scalar + idx * self.n_x
        return slice(start, start + self.n_x)

    def scalar_index(self, name: str) -> int:
        return self.scalar_names.index(name)

    def grid_index(self, name: str) -> int:
        return self.grid_names.index(name)


#: layout of the limiting field: two active slots and four passive slots
def limit_layout(grid: SpatialGrid) -> FieldLayout:
    return FieldLayout(("mu_a", "mu_b"), ("a_lo", "a_cx", "b_lo", "b_cx"), grid)


def _norms(layout: FieldLayout, rows: np.ndarray, p: int = 1, q: int = 1) -> np.ndarray:
    """l^p norm over the slots of flat slices: |scalar|, and L^q of each grid."""
    rows = np.abs(rows)
    total = np.sum(rows[..., : layout.n_scalar] ** p, axis=-1)
    if layout.n_grid:
        grids = rows[..., layout.n_scalar :].reshape(*rows.shape[:-1], layout.n_grid, layout.n_x)
        lq = (grids ** q) @ layout.grid.quad_weights
        total = total + np.sum(lq ** (p / q), axis=-1)
    return total ** (1.0 / p)


class IntensityField:
    """One time slice of the intensity field, viewing a flat vector.

    ``data`` holds the scalar slots, then each grid slot's nodes;
    ``scalars`` and ``grids`` (n_grid, n_x) are views into it, so writing
    through them writes the vector.
    """

    def __init__(self, layout: FieldLayout, data: np.ndarray):
        self.layout = layout
        self.data = data
        self.scalars = data[: layout.n_scalar]
        self.grids = data[layout.n_scalar :].reshape(layout.n_grid, layout.n_x)


def _views(layout: FieldLayout, rows: np.ndarray) -> list[IntensityField]:
    return [IntensityField(layout, row) for row in rows]


# ---------------------------------------------------------------------------
# the block operator
# ---------------------------------------------------------------------------


@dataclass
class OpEntry:
    """One kernel block: source slot -> target slot with a lag profile.

    ``rate`` multiplies scalar sources by a state-dependent factor
    ``rate(p_a, p_b)``, elementwise in the prices and evaluated at the
    source time; grid sources are contracted against ``in_profile`` by the
    grid quadrature; grid targets spread the result along ``out_profile``.
    """

    target_kind: str  # "scalar" | "grid"
    target_idx: int
    source_kind: str
    source_idx: int
    time: TimeProfile
    rate: Optional[Callable] = None
    in_profile: Optional[SpatialProfile] = None
    out_profile: Optional[SpatialProfile] = None


def scalar_to_scalar(ti, si, time, rate=None):
    return OpEntry("scalar", ti, "scalar", si, time, rate=rate)


def grid_to_scalar(ti, si, time, in_profile):
    return OpEntry("scalar", ti, "grid", si, time, in_profile=in_profile)


def scalar_to_grid(ti, si, time, out_profile, rate=None):
    return OpEntry("grid", ti, "scalar", si, time, rate=rate, out_profile=out_profile)


def grid_to_grid(ti, si, time, out_profile, in_profile):
    return OpEntry(
        "grid", ti, "grid", si, time, in_profile=in_profile, out_profile=out_profile
    )


class BlockKernelOp:
    """The block kernel operator, compiled over the flat field vector.

    Row k of ``In`` reads entry k's source: a unit at a scalar slot, or the
    in profile times the grid quadrature weights across a grid slot.  Row k
    of ``Out`` spreads entry k into its target: a unit at a scalar slot, or
    the out profile across a grid slot.  The sources of a slice ``f`` are
    ``rates * (In @ f)``, and entry coefficients ``coef`` act on the field
    as ``coef @ Out``.
    """

    def __init__(self, layout: FieldLayout, entries: Sequence[OpEntry]):
        self.layout = layout
        self.entries = list(entries)
        x = layout.grid.x if layout.grid else None
        self.In = np.zeros((len(self.entries), layout.size))
        self.Out = np.zeros((len(self.entries), layout.size))
        for k, e in enumerate(self.entries):
            src = layout.slot(e.source_kind, e.source_idx)
            if e.source_kind == "scalar":
                self.In[k, src] = 1.0
            elif e.in_profile is None:
                raise ValueError("grid sources need an in profile")
            else:
                self.In[k, src] = e.in_profile.value(x) * layout.grid.quad_weights
            tgt = layout.slot(e.target_kind, e.target_idx)
            if e.target_kind == "scalar":
                self.Out[k, tgt] = 1.0
            elif e.out_profile is None:
                raise ValueError("grid targets need an out profile")
            else:
                self.Out[k, tgt] = e.out_profile.value(x)

    def max_row_mass(self) -> float:
        """Crude uniform bound on the row sums of the kernel blocks."""
        rows: dict[tuple, float] = {}
        for e in self.entries:
            key = (e.target_kind, e.target_idx)
            amp = e.time.sup()
            if e.in_profile is not None:
                amp *= e.in_profile.mass(self.layout.grid.half_width)
            if e.out_profile is not None:
                amp *= e.out_profile.sup()
            rows[key] = rows.get(key, 0.0) + amp
        return max(rows.values(), default=0.0)

    def rates(self, p_a: np.ndarray, p_b: np.ndarray) -> np.ndarray:
        """(entries, states): each entry's rate factor at each state of the
        price arrays, 1 without one.  Each distinct rate callable is called
        once, on the whole arrays."""
        out = np.ones((len(self.entries), len(p_a)))
        done: dict = {}
        for k, e in enumerate(self.entries):
            if e.rate is not None:
                if id(e.rate) not in done:
                    done[id(e.rate)] = e.rate(p_a, p_b)
                out[k] = done[id(e.rate)]
        return out

    def lag_table(self, n: int, dt: float) -> np.ndarray:
        """(entries, n): ``H[k, l] = h_k(l dt)``, each time profile on the grid lags."""
        lags = dt * np.arange(n)
        H = np.empty((len(self.entries), n))
        for k, e in enumerate(self.entries):
            H[k] = e.time.value(lags)
        return H


class ExogenousField:
    """The driving field: scalar terms plus profile-shaped grid terms.

    Every factor is called once per solve as ``f(p_a, p_b)`` on the price
    arrays of the states it is read at, and is elementwise in them; it may
    return a float, which then holds at every state.  ``scalar_fns[i]``
    gives the value of scalar slot i, and ``grid_terms[g]`` is a list of
    ``(factor_fn, profile)`` pairs whose sum ``factor(p_a, p_b) *
    profile(x)`` fills grid slot g.
    """

    def __init__(self, layout: FieldLayout, scalar_fns, grid_terms):
        self.layout = layout
        self.scalar_fns = list(scalar_fns)
        if len(self.scalar_fns) != layout.n_scalar:
            raise ValueError("one scalar function per scalar slot")
        if len(grid_terms) != layout.n_grid:
            raise ValueError("one term list per grid slot")
        x = layout.grid.x if layout.grid else None
        # the profiles tabulated on the grid nodes once
        self._grid_terms = [[(fn, prof.value(x)) for fn, prof in terms] for terms in grid_terms]

    @classmethod
    def constant(cls, layout: FieldLayout, scalars, grid_profiles=()) -> "ExogenousField":
        scalar_fns = [
            (lambda v: (lambda p_a, p_b: v))(float(v)) for v in scalars
        ]
        terms = [
            [((lambda p_a, p_b: 1.0), prof)] if prof is not None else []
            for prof in (grid_profiles or [None] * layout.n_grid)
        ]
        return cls(layout, scalar_fns, terms)

    def rows(self, p_a: np.ndarray, p_b: np.ndarray) -> np.ndarray:
        """(states, layout.size): the driving slice at each state of the
        price arrays, each grid slot's terms added in order."""
        out = np.zeros((len(p_a), self.layout.size))
        for i, fn in enumerate(self.scalar_fns):
            out[:, i] = fn(p_a, p_b)
        for g, terms in enumerate(self._grid_terms):
            cols = self.layout.slot("grid", g)
            for factor_fn, vals in terms:
                out[:, cols] += np.multiply.outer(factor_fn(p_a, p_b), vals)
        return out


def _uniform_grid(t_grid) -> tuple[np.ndarray, float]:
    """The time grid as floats and its step (0 for a single node)."""
    t_grid = np.asarray(t_grid, dtype=float)
    dt = t_grid[1] - t_grid[0] if t_grid.size > 1 else 0.0
    if t_grid.size > 1 and not np.allclose(np.diff(t_grid), dt):
        raise ValueError("need a uniform time grid")
    return t_grid, dt


def _driving(op: BlockKernelOp, exo: ExogenousField, state_path, m_steps: int, exo_at: str):
    """The rate factors of ``op`` at every node, the driving rows, and the
    node whose state each node's driving row and implicit diagonal read.

    ``state_path`` holds one ``(p_a, p_b)`` pair per node.  Without one
    (``None``) the prices are NaN, so a factor that reads them shows as a
    NaN rate or driving value, which raises ``ValueError``.
    """
    if exo_at not in ("node", "prev"):
        raise ValueError("exo_at must be 'node' or 'prev'")
    if state_path is None:
        p_a = p_b = np.full(m_steps, np.nan)
    elif len(state_path) != m_steps:
        raise ValueError(f"the state path has {len(state_path)} states, "
                         f"the time grid {m_steps} nodes")
    else:
        p_a, p_b = np.asarray(state_path, dtype=float).reshape(m_steps, 2).T
    at = np.arange(m_steps) if exo_at == "node" else np.maximum(np.arange(m_steps) - 1, 0)
    rates, rows = op.rates(p_a, p_b), exo.rows(p_a[at], p_b[at])
    if state_path is None and (np.isnan(rates).any() or np.isnan(rows).any()):
        raise ValueError("a rate or exogenous factor reads the prices, but no state path was given")
    return rates, rows, at


def _trapezoid_conv(a: np.ndarray, b: np.ndarray, dt: float) -> np.ndarray:
    """Trapezoid rule for int_0^{t_m} a(t_m - s) b(s) ds at every node t_m.

    The full discrete convolution minus half of its two end terms.
    """
    n = a.size
    return dt * (np.convolve(a, b)[:n] - 0.5 * (a[0] * b + a * b[0]))


# ---------------------------------------------------------------------------
# forward solver
# ---------------------------------------------------------------------------


@dataclass
class VolterraSolution:
    """The field on the time grid; row m of ``values`` is the slice at ``t[m]``."""

    t: np.ndarray
    layout: FieldLayout
    values: np.ndarray  # (steps, layout.size)
    clamp_count: int

    @property
    def fields(self) -> list[IntensityField]:
        return _views(self.layout, self.values)

    def scalars(self) -> np.ndarray:
        return self.values[:, : self.layout.n_scalar]

    def grids(self) -> np.ndarray:
        lay = self.layout
        return self.values[:, lay.n_scalar :].reshape(len(self.values), lay.n_grid, lay.n_x)

    def norms(self, p: int = 1, q: int = 1) -> np.ndarray:
        return _norms(self.layout, self.values, p, q)


def solve_forward(
    op: BlockKernelOp,
    exo: ExogenousField,
    state_path,
    t_grid: np.ndarray,
    exo_at: str = "node",
) -> VolterraSolution:
    """March the field forward with trapezoid quadrature in time and space.

    The diagonal quadrature term makes each step implicit in the current
    field; it is resolved by a short fixed-point loop whose contraction
    factor is of order ``dt * c0``, so two or three sweeps reach round-off.

    ``state_path`` holds one ``(p_a, p_b)`` pair per node of ``t_grid``
    (another length raises ``ValueError``), or is ``None`` when no factor
    reads the prices.  ``exo_at`` selects the state fed to the driving term
    and the diagonal rate factor: ``"node"`` uses the state at the same grid
    time, ``"prev"`` the state one step earlier (the convention of the limit
    stepper, whose prices for the current step are not yet known when
    intensities advance).
    """
    t_grid, dt = _uniform_grid(t_grid)
    m_steps = t_grid.size
    rates, exo_rows, at = _driving(op, exo, state_path, m_steps, exo_at)
    H = op.lag_table(m_steps, dt)
    half_diag = 0.5 * dt * H[:, 0]
    w = np.ones(m_steps)
    w[0] = 0.5

    values = np.empty((m_steps, op.layout.size))
    # history sources always take the state realized at their own node;
    # only the driving term and the implicit diagonal follow exo_at
    src = np.zeros((len(op.entries), m_steps))
    # the clamp warning's scale: the largest driving-row norm up to each node
    exo_sup = np.maximum.accumulate(_norms(op.layout, exo_rows))
    clamp_count = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for m in range(m_steps):
            rhs = exo_rows[m]

            if m > 0:
                hist = dt * ((H[:, m:0:-1] * src[:, :m]) @ w[:m])
                rhs = rhs + hist @ op.Out
                # fixed point for the implicit dt/2 diagonal term
                diag = half_diag * rates[:, at[m]]
                cur = rhs
                for _ in range(FP_MAX_ITER):
                    nxt = rhs + (diag * (op.In @ cur)) @ op.Out
                    delta = float(np.max(np.abs(nxt - cur), initial=0.0))
                    cur = nxt
                    if not math.isfinite(delta):
                        break
                    if delta <= 1e-14 * (1.0 + _norms(op.layout, cur)):
                        break
                rhs = cur

            if not np.all(np.isfinite(rhs)):
                raise NumericalFailureError(f"non-finite field at step {m}")

            # nonnegative inputs keep the scheme nonnegative; clamp and log if
            # floating-point artifacts produce tiny negative values anyway
            neg = rhs < 0.0
            if np.any(neg):
                worst = float(-rhs[neg].min())
                clamp_count += int(neg.sum())
                if worst > CLAMP_TOL_FACTOR * max(exo_sup[m], 1.0):
                    log.warning("clamped negative value %.3e at step %d", worst, m)
                rhs[neg] = 0.0

            values[m] = rhs
            src[:, m] = rates[:, m] * (op.In @ rhs)

    return VolterraSolution(t_grid, op.layout, values, clamp_count)


# ---------------------------------------------------------------------------
# Neumann series of Picard terms
# ---------------------------------------------------------------------------


@dataclass
class NeumannResult:
    """Picard terms of the series resolvent, realized by their action.

    ``terms[n]`` is the path of the n-th iterated-kernel integral applied to
    the driving field; the depth-d solution is the driving path plus the
    first d terms.  The dense operator table would cost O(steps^2 x field^2)
    memory, so the resolvent is kept in this applied form.
    """

    t: np.ndarray
    layout: FieldLayout
    base_values: np.ndarray  # (steps, layout.size)
    term_values: np.ndarray  # (depth, steps, layout.size)
    term_norms: np.ndarray
    converged: bool

    @property
    def base(self) -> list[IntensityField]:
        return _views(self.layout, self.base_values)

    @property
    def terms(self) -> list[list[IntensityField]]:
        return [_views(self.layout, term) for term in self.term_values]

    def ratios(self) -> np.ndarray:
        tn = self.term_norms
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(tn[:-1] > 0, tn[1:] / tn[:-1], 0.0)

    def solution(self, depth: Optional[int] = None) -> list[IntensityField]:
        depth = len(self.term_values) if depth is None else depth
        out = self.base_values.copy()
        for term in self.term_values[:depth]:
            out += term
        return _views(self.layout, out)


def neumann_resolvent(
    op: BlockKernelOp,
    exo: ExogenousField,
    state_path,
    t_grid: np.ndarray,
    depth: int,
    exo_at: str = "node",
) -> NeumannResult:
    """Compute the first ``depth`` Picard terms applied to the driving field.

    ``state_path`` and ``exo_at`` are read as by ``solve_forward``.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    t_grid, dt = _uniform_grid(t_grid)
    m_steps = t_grid.size
    rates, base, _at = _driving(op, exo, state_path, m_steps, exo_at)
    H = op.lag_table(m_steps, dt)

    terms = np.empty((depth, m_steps, op.layout.size))
    prev = base
    for n in range(depth):
        src = rates * (op.In @ prev.T)
        coef = np.array([_trapezoid_conv(h, s, dt) for h, s in zip(H, src)])
        terms[n] = coef.reshape(len(op.entries), m_steps).T @ op.Out
        prev = terms[n]

    term_norms = _norms(op.layout, terms).max(axis=1)
    converged = bool(term_norms[-1] <= term_norms[0]) or term_norms[-1] == 0.0
    if not converged:
        log.warning("Neumann term norms did not decay by depth %d", depth)
    return NeumannResult(t_grid, op.layout, base, terms, term_norms, converged)


# ---------------------------------------------------------------------------
# scalar renewal resolvent
# ---------------------------------------------------------------------------


def renewal_resolvent(profile, t_grid: np.ndarray) -> np.ndarray:
    """Solve K = phi + K * phi on a uniform grid by trapezoid convolution.

    ``profile`` is a time profile or a plain callable of the lag; the
    returned array satisfies the discretized equation exactly up to the
    implicit-diagonal division.
    """
    phi_fn = profile.value if hasattr(profile, "value") else profile
    t_grid, dt = _uniform_grid(t_grid)
    m_steps = t_grid.size
    phi = np.asarray(phi_fn(t_grid), dtype=float)

    K = np.zeros(m_steps)
    K[0] = phi[0]
    denom = 1.0 - 0.5 * dt * phi[0]
    if denom <= 0:
        raise ValueError("time step too large for the implicit diagonal")
    for m in range(1, m_steps):
        # (K * phi)(t_m) with K(t_m) held out of the sum
        conv = 0.5 * K[0] * phi[m] + float(K[1:m] @ phi[m - 1 : 0 : -1])
        K[m] = (phi[m] + dt * conv) / denom
    return K


def renewal_residual(profile, t_grid: np.ndarray, K: np.ndarray) -> float:
    """Sup norm of K - phi - K * phi under the same trapezoid convolution."""
    phi_fn = profile.value if hasattr(profile, "value") else profile
    t_grid, dt = _uniform_grid(t_grid)
    phi = np.asarray(phi_fn(t_grid), dtype=float)
    return float(np.max(np.abs(K - phi - _trapezoid_conv(K, phi, dt))))


def resolvent_report(family: str, params: dict, t_grid: np.ndarray) -> dict:
    """Numeric resolvent ``K``, its residual, and closed-form comparisons.

    The direct forms solve the renewal equation as written.  The alternate
    forms use a doubled kernel normalization (for the gamma family also a
    sign-flipped convolution); they are reported for reference only because
    they do not satisfy the equation the solver targets.
    """
    t = np.asarray(t_grid, dtype=float)
    if family == "constant":
        c = params["c"]
        prof = ConstantProfile(c)
        direct = c * np.exp(c * t)
        alternate = 2 * c * np.exp(2 * c * t)
        alt_desc = "2c*exp(2ct)"
    elif family == "exponential":
        c, kappa = params["c"], params["kappa"]
        prof = ExponentialProfile(c, kappa)
        direct = c * np.exp(-(kappa - c) * t)
        alternate = 2 * c * np.exp(-(kappa - 2 * c) * t)
        alt_desc = "2c*exp(-(kappa-2c)t)"
    elif family == "gamma":
        c, kappa = params["c"], params["kappa"]
        prof = GammaProfile(c, kappa)
        rc = math.sqrt(c)
        direct = rc * np.exp(-kappa * t) * np.sinh(rc * t)
        r2c = math.sqrt(2 * c)
        alternate = r2c * np.exp(-kappa * t) * np.sin(r2c * t)
        alt_desc = "sqrt(2c)*exp(-kappa t)*sin(sqrt(2c) t)"
    else:
        raise ValueError(f"no closed forms for kernel family {family!r}")

    K = renewal_resolvent(prof, t)
    return {
        "family": family,
        "params": dict(params),
        "K": K,
        "residual_sup": renewal_residual(prof, t, K),
        "direct_form_sup_diff": float(np.max(np.abs(K - direct))),
        "alternate_form": alt_desc,
        "alternate_form_sup_diff": float(np.max(np.abs(K - alternate))),
        "note": (
            "the alternate normalization corresponds to a doubled kernel mass "
            "and is emitted for reference, not asserted"
        ),
    }
