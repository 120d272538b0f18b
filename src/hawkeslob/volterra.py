"""Solvers for the coupled linear Volterra-Fredholm intensity system.

The unknown is a field of scalar slots (active intensities) and grid slots
(passive intensity functions on a truncated distance interval).  The field
satisfies a linear integral equation with memory in time and coupling
across space; this module provides a forward trapezoid solver, the Neumann
series of Picard terms, and the scalar renewal-equation resolvent used by
the closed-form references.
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

    def scalar_index(self, name: str) -> int:
        return self.scalar_names.index(name)

    def grid_index(self, name: str) -> int:
        return self.grid_names.index(name)


#: layout of the limiting field: two active slots and four passive slots
def limit_layout(grid: SpatialGrid) -> FieldLayout:
    return FieldLayout(("mu_a", "mu_b"), ("a_lo", "a_cx", "b_lo", "b_cx"), grid)


#: layout of the rescaled pre-limit field: four active, four passive slots
def prelimit_layout(grid: SpatialGrid) -> FieldLayout:
    return FieldLayout(
        ("a_mo", "a_sp", "b_mo", "b_sp"), ("a_lo", "a_cx", "b_lo", "b_cx"), grid
    )


@dataclass
class IntensityField:
    """One time slice of the intensity field."""

    layout: FieldLayout
    scalars: np.ndarray
    grids: np.ndarray  # (n_grid, n_x)

    @classmethod
    def zeros(cls, layout: FieldLayout) -> "IntensityField":
        nx = layout.grid.n_x if layout.grid else 0
        return cls(layout, np.zeros(layout.n_scalar), np.zeros((layout.n_grid, nx)))

    def copy(self) -> "IntensityField":
        return IntensityField(self.layout, self.scalars.copy(), self.grids.copy())

    def norm(self, p: int = 1, q: int = 1) -> float:
        total = float(np.sum(np.abs(self.scalars) ** p))
        if self.layout.n_grid:
            w = self.layout.grid.quad_weights
            lq = (np.abs(self.grids) ** q) @ w
            total += float(np.sum(lq ** (p / q)))
        return total ** (1.0 / p)

    def is_finite(self) -> bool:
        return bool(np.all(np.isfinite(self.scalars)) and np.all(np.isfinite(self.grids)))


def merge_prelimit(field: IntensityField, tol: float = 1e-6) -> IntensityField:
    """Collapse a pre-limit 8-slot field onto the 6-slot limit layout.

    Asserts that the market-order and spread-placement slots of each side
    agree within ``tol`` relative tolerance before identifying them.
    """
    lay = field.layout
    if lay.scalar_names != ("a_mo", "a_sp", "b_mo", "b_sp"):
        raise ValueError("expected the pre-limit slot layout")
    out_lay = limit_layout(lay.grid)
    mu = np.empty(2)
    for i, side in enumerate("ab"):
        mo = field.scalars[lay.scalar_index(f"{side}_mo")]
        sp = field.scalars[lay.scalar_index(f"{side}_sp")]
        scale = max(abs(mo), abs(sp), 1e-30)
        if abs(mo - sp) > tol * scale:
            raise ValueError(
                f"side {side}: market and spread slots differ by more than {tol} relative"
            )
        mu[i] = 0.5 * (mo + sp)
    return IntensityField(out_lay, mu, field.grids.copy())


# ---------------------------------------------------------------------------
# the block operator
# ---------------------------------------------------------------------------


@dataclass
class OpEntry:
    """One kernel block: source slot -> target slot with a lag profile.

    ``rate`` multiplies scalar sources by a state-dependent factor evaluated
    at the source time; grid sources are contracted against ``in_profile``
    by the grid quadrature; grid targets spread the result along
    ``out_profile``.
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
    """The block kernel operator acting on intensity fields.

    Entries are resolved against a layout by slot name through the
    convenience constructors; ``c0`` optionally declares the row-mass bound
    that the assembled operator is checked against.
    """

    def __init__(self, layout: FieldLayout, entries: Sequence[OpEntry], c0: Optional[float] = None):
        self.layout = layout
        self.entries = list(entries)
        grid = layout.grid
        self._in_w = []
        self._out_vals = []
        for e in self.entries:
            if e.source_kind == "grid":
                if e.in_profile is None:
                    raise ValueError("grid sources need an in profile")
                self._in_w.append(e.in_profile.value(grid.x) * grid.quad_weights)
            else:
                self._in_w.append(None)
            if e.target_kind == "grid":
                if e.out_profile is None:
                    raise ValueError("grid targets need an out profile")
                self._out_vals.append(e.out_profile.value(grid.x))
            else:
                self._out_vals.append(None)
        if c0 is not None and self.max_row_mass() > c0 * (1 + 1e-9):
            raise ValueError(
                f"operator row mass {self.max_row_mass():.6g} exceeds the declared bound {c0}"
            )

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

    def source_value(self, k: int, field: IntensityField, state) -> float:
        """Contract one entry's source slot of a field, with its rate factor."""
        e = self.entries[k]
        if e.source_kind == "scalar":
            v = float(field.scalars[e.source_idx])
            if e.rate is not None:
                v *= float(e.rate(state))
            return v
        return float(self._in_w[k] @ field.grids[e.source_idx])

    def add_scaled(self, out: IntensityField, k: int, coeff: float) -> None:
        e = self.entries[k]
        if e.target_kind == "scalar":
            out.scalars[e.target_idx] += coeff
        else:
            out.grids[e.target_idx] += coeff * self._out_vals[k]


class ExogenousField:
    """The driving field: scalar terms plus profile-shaped grid terms.

    ``scalar_fns[i](t, S)`` gives the value of scalar slot i and
    ``grid_terms[g]`` is a list of ``(factor_fn, profile)`` pairs whose sum
    ``factor(t, S) * profile(x)`` fills grid slot g.
    """

    def __init__(self, layout: FieldLayout, scalar_fns, grid_terms):
        self.layout = layout
        self.scalar_fns = list(scalar_fns)
        self.grid_terms = [list(terms) for terms in grid_terms]
        if len(self.scalar_fns) != layout.n_scalar:
            raise ValueError("one scalar function per scalar slot")
        if len(self.grid_terms) != layout.n_grid:
            raise ValueError("one term list per grid slot")

    @classmethod
    def constant(cls, layout: FieldLayout, scalars, grid_profiles=()) -> "ExogenousField":
        scalar_fns = [
            (lambda v: (lambda t, S: v))(float(v)) for v in scalars
        ]
        terms = [
            [((lambda t, S: 1.0), prof)] if prof is not None else []
            for prof in (grid_profiles or [None] * layout.n_grid)
        ]
        return cls(layout, scalar_fns, terms)

    def field(self, t: float, state) -> IntensityField:
        out = IntensityField.zeros(self.layout)
        for i, fn in enumerate(self.scalar_fns):
            out.scalars[i] = fn(t, state)
        x = self.layout.grid.x if self.layout.grid else None
        for g, terms in enumerate(self.grid_terms):
            for factor_fn, prof in terms:
                out.grids[g] += float(factor_fn(t, state)) * prof.value(x)
        return out


# ---------------------------------------------------------------------------
# forward solver
# ---------------------------------------------------------------------------


@dataclass
class VolterraSolution:
    t: np.ndarray
    fields: list[IntensityField]
    clamp_count: int = 0
    clamp_max: float = 0.0

    def scalars(self) -> np.ndarray:
        return np.stack([f.scalars for f in self.fields])

    def grids(self) -> np.ndarray:
        return np.stack([f.grids for f in self.fields])

    def norms(self, p: int = 1, q: int = 1) -> np.ndarray:
        return np.array([f.norm(p, q) for f in self.fields])

    def to_csv(self, path) -> None:
        lay = self.fields[0].layout
        import csv

        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t", "slot", "node_x", "value"])
            for t, f in zip(self.t, self.fields):
                for i, name in enumerate(lay.scalar_names):
                    writer.writerow([repr(float(t)), name, "", repr(float(f.scalars[i]))])
                if lay.grid:
                    for g, name in enumerate(lay.grid_names):
                        for x, v in zip(lay.grid.x, f.grids[g]):
                            writer.writerow(
                                [repr(float(t)), name, repr(float(x)), repr(float(v))]
                            )


def _state_at(state_path, idx: int):
    if state_path is None:
        return None
    return state_path[idx]


def solve_forward(
    op: BlockKernelOp,
    exo: ExogenousField,
    state_path,
    t_grid: np.ndarray,
    exo_at: str = "node",
    clamp_tol_factor: float = 1e-10,
    fp_max_iter: int = 8,
) -> VolterraSolution:
    """March the field forward with trapezoid quadrature in time and space.

    The diagonal quadrature term makes each step implicit in the current
    field; it is resolved by a short fixed-point loop whose contraction
    factor is of order ``dt * c0``, so two or three sweeps reach round-off.

    ``exo_at`` selects the state fed to the driving term and the diagonal
    rate factor: ``"node"`` uses the state at the same grid time, ``"prev"``
    the state one step earlier (the convention of the limit stepper, whose
    prices for the current step are not yet known when intensities advance).
    """
    if exo_at not in ("node", "prev"):
        raise ValueError("exo_at must be 'node' or 'prev'")
    t_grid = np.asarray(t_grid, dtype=float)
    m_steps = t_grid.size
    dt = t_grid[1] - t_grid[0] if m_steps > 1 else 0.0
    if m_steps > 1 and not np.allclose(np.diff(t_grid), dt):
        raise ValueError("need a uniform time grid")

    n_entries = len(op.entries)
    src_hist = np.zeros((n_entries, m_steps))
    fields: list[IntensityField] = []
    exo_sup = 0.0
    clamp_count = 0
    clamp_max = 0.0

    for m in range(m_steps):
        idx_exo = m if exo_at == "node" else max(m - 1, 0)
        state_exo = _state_at(state_path, idx_exo)
        rhs = exo.field(t_grid[m], state_exo)
        exo_sup = max(exo_sup, rhs.norm(1, 1))

        if m > 0:
            lags = t_grid[m] - t_grid[:m]
            w = np.ones(m)
            w[0] = 0.5
            with np.errstate(over="ignore", invalid="ignore"):
                for k in range(n_entries):
                    prof_vals = op.entries[k].time.value(lags)
                    coeff = dt * float(prof_vals @ (w * src_hist[k, :m]))
                    op.add_scaled(rhs, k, coeff)

            # fixed point for the implicit dt/2 diagonal term
            cur = rhs.copy()
            with np.errstate(invalid="ignore", over="ignore"):
                for _ in range(fp_max_iter):
                    nxt = rhs.copy()
                    for k, e in enumerate(op.entries):
                        coeff = 0.5 * dt * float(e.time.value(0.0)) * op.source_value(
                            k, cur, state_exo
                        )
                        op.add_scaled(nxt, k, coeff)
                    delta = max(
                        float(np.max(np.abs(nxt.scalars - cur.scalars), initial=0.0)),
                        float(np.max(np.abs(nxt.grids - cur.grids), initial=0.0)),
                    )
                    cur = nxt
                    if not math.isfinite(delta):
                        break
                    if delta <= 1e-14 * (1.0 + cur.norm(1, 1)):
                        break
            rhs = cur

        if not rhs.is_finite():
            raise NumericalFailureError(f"non-finite field at step {m}")

        # nonnegative inputs keep the scheme nonnegative; clamp and log if
        # floating-point artifacts produce tiny negative values anyway
        tol = clamp_tol_factor * max(exo_sup, 1.0)
        for arr in (rhs.scalars, rhs.grids):
            neg = arr < 0.0
            if np.any(neg):
                worst = float(-arr[neg].min())
                clamp_max = max(clamp_max, worst)
                clamp_count += int(neg.sum())
                if worst > tol:
                    log.warning("clamped negative value %.3e at step %d", worst, m)
                arr[neg] = 0.0

        fields.append(rhs)
        # history sources always take the state realized at their own node;
        # only the driving term and the implicit diagonal follow exo_at
        state_node = _state_at(state_path, m)
        for k in range(n_entries):
            src_hist[k, m] = op.source_value(k, rhs, state_node)

    return VolterraSolution(t_grid, fields, clamp_count, clamp_max)


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
    base: list[IntensityField]
    terms: list[list[IntensityField]]
    term_norms: np.ndarray
    converged: bool

    def ratios(self) -> np.ndarray:
        tn = self.term_norms
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(tn[:-1] > 0, tn[1:] / tn[:-1], 0.0)

    def solution(self, depth: Optional[int] = None) -> list[IntensityField]:
        depth = len(self.terms) if depth is None else depth
        out = [f.copy() for f in self.base]
        for term in self.terms[:depth]:
            for m, f in enumerate(term):
                out[m].scalars += f.scalars
                out[m].grids += f.grids
        return out


def neumann_resolvent(
    op: BlockKernelOp,
    exo: ExogenousField,
    state_path,
    t_grid: np.ndarray,
    depth: int,
    exo_at: str = "node",
) -> NeumannResult:
    """Compute the first ``depth`` Picard terms applied to the driving field."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    t_grid = np.asarray(t_grid, dtype=float)
    m_steps = t_grid.size
    dt = t_grid[1] - t_grid[0] if m_steps > 1 else 0.0

    base = [
        exo.field(t_grid[m], _state_at(state_path, m if exo_at == "node" else max(m - 1, 0)))
        for m in range(m_steps)
    ]
    n_entries = len(op.entries)

    def src_of(path: list[IntensityField]) -> np.ndarray:
        out = np.zeros((n_entries, m_steps))
        for m in range(m_steps):
            st = _state_at(state_path, m)
            for k in range(n_entries):
                out[k, m] = op.source_value(k, path[m], st)
        return out

    prev = base
    terms: list[list[IntensityField]] = []
    norms = []
    for _ in range(depth):
        src = src_of(prev)
        term = [IntensityField.zeros(op.layout) for _ in range(m_steps)]
        for m in range(1, m_steps):
            lags = t_grid[m] - t_grid[: m + 1]
            w = np.ones(m + 1)
            w[0] = 0.5
            w[-1] = 0.5
            for k in range(n_entries):
                prof_vals = op.entries[k].time.value(lags)
                coeff = dt * float(prof_vals @ (w * src[k, : m + 1]))
                op.add_scaled(term[m], k, coeff)
        terms.append(term)
        norms.append(max(f.norm(1, 1) for f in term))
        prev = term

    term_norms = np.asarray(norms)
    converged = bool(term_norms[-1] <= term_norms[0]) or term_norms[-1] == 0.0
    if not converged:
        log.warning("Neumann term norms did not decay by depth %d", depth)
    return NeumannResult(t_grid, base, terms, term_norms, converged)


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
    t_grid = np.asarray(t_grid, dtype=float)
    m_steps = t_grid.size
    dt = t_grid[1] - t_grid[0] if m_steps > 1 else 0.0
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
    t_grid = np.asarray(t_grid, dtype=float)
    m_steps = t_grid.size
    dt = t_grid[1] - t_grid[0] if m_steps > 1 else 0.0
    phi = np.asarray(phi_fn(t_grid), dtype=float)
    res = abs(K[0] - phi[0])
    for m in range(1, m_steps):
        w = np.ones(m + 1)
        w[0] = 0.5
        w[-1] = 0.5
        conv = dt * float((K[: m + 1] * w) @ phi[m::-1])
        res = max(res, abs(K[m] - phi[m] - conv))
    return res


def resolvent_report(family: str, params: dict, t_grid: np.ndarray) -> dict:
    """Numeric resolvent, its residual, and closed-form comparisons.

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
        "residual_sup": renewal_residual(prof, t, K),
        "direct_form_sup_diff": float(np.max(np.abs(K - direct))),
        "alternate_form": alt_desc,
        "alternate_form_sup_diff": float(np.max(np.abs(K - alternate))),
        "note": (
            "the alternate normalization corresponds to a doubled kernel mass "
            "and is emitted for reference, not asserted"
        ),
    }
