"""Closed-form and reduced-model references.

These are the independent checks the solvers are tested against: the
square-root diffusion with its exact transition sampler, the reduction of
the spread to square-root-diffusion form, closed forms for the one-sided
book models, and the Monte Carlo volatility-clustering estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .rng import as_rng
from .volterra import _trapezoid_conv, renewal_resolvent

#: relative slack of the spread-reduction check a >= c
SPREAD_REL_SLACK = 1e-9
#: Euler step of the one-sided clustering simulation
CLUSTERING_DT = 0.005


# ---------------------------------------------------------------------------
# square-root diffusion
# ---------------------------------------------------------------------------


@dataclass
class CIRParams:
    """dx = (a - b x) dt + sqrt(2 c x) dB with time-dependent coefficients.

    Coefficients are floats or callables of time.  Positivity of all paths
    requires a(t) >= c(t) >= 0.
    """

    x0: float
    a: object = 1.0
    b: object = 0.0
    c: object = 1.0

    def __post_init__(self):
        if self.x0 <= 0:
            raise ValueError("need a positive initial value")

    def at(self, t: float) -> tuple[float, float, float]:
        f = lambda v: float(v(t)) if callable(v) else float(v)
        return f(self.a), f(self.b), f(self.c)

    def is_constant(self) -> bool:
        return not any(callable(v) for v in (self.a, self.b, self.c))

    def positivity_holds(self, t_grid) -> bool:
        return all(av >= cv >= 0.0 for av, _bv, cv in (self.at(t) for t in t_grid))


def _cir_exact_step(x, a, b, c, dt, rng):
    """Exact transition of the constant-coefficient square-root diffusion.

    In the usual mean-reversion parametrization (kappa=b, theta=a/b,
    sigma^2=2c) the transition is a scaled noncentral chi-square with
    df = 2a/c; the b -> 0 limit is taken explicitly.
    """
    if c == 0.0:
        # deterministic linear dynamics, solved exactly
        if b == 0.0:
            return x + a * dt
        return x * math.exp(-b * dt) + (a / b) * (1.0 - math.exp(-b * dt))
    if b == 0.0:
        scale = 0.5 * c * dt
    else:
        scale = 0.5 * c * (1.0 - math.exp(-b * dt)) / b
    df = 2.0 * a / c
    nonc = x * math.exp(-b * dt) / scale
    return scale * rng.noncentral_chisquare(df, nonc)


def simulate_cir(
    params: CIRParams,
    horizon: float,
    dt: float,
    seed,
    n_paths: int = 1,
    method: str = "exact",
) -> np.ndarray:
    """Paths of the square-root diffusion, (n_steps + 1, n_paths).

    ``method="exact"`` uses the noncentral chi-square transition and needs
    constant coefficients; ``method="euler"`` is full-truncation Euler
    (drift and diffusion evaluated at max(x, 0)) and accepts time-dependent
    coefficients.  The exact sampler is the one positivity statements are
    tested with, because truncation Euler can touch zero as a pure scheme
    artifact.
    """
    rng = as_rng(seed, "oracle")
    n_steps = int(round(horizon / dt))
    out = np.empty((n_steps + 1, n_paths))
    out[0] = params.x0
    if method == "exact":
        if not params.is_constant():
            raise ValueError("the exact sampler needs constant coefficients")
        a, b, c = params.at(0.0)
        x = np.full(n_paths, float(params.x0))
        for m in range(n_steps):
            x = _cir_exact_step(x, a, b, c, dt, rng)
            out[m + 1] = x
        return out
    if method != "euler":
        raise ValueError("method must be 'exact' or 'euler'")
    x = np.full(n_paths, float(params.x0))
    for m in range(n_steps):
        a, b, c = params.at(m * dt)
        xp = np.clip(x, 0.0, None)
        x = x + (a - b * xp) * dt + np.sqrt(2.0 * c * xp * dt) * rng.standard_normal(n_paths)
        out[m + 1] = x
    return out


# ---------------------------------------------------------------------------
# spread reduction
# ---------------------------------------------------------------------------


@dataclass
class SpreadReduction:
    """Square-root-diffusion coefficients extracted from a realized limit path."""

    t: np.ndarray
    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    defined: np.ndarray  # boolean: spread > 0 at this time
    frac_a_ge_c: float

    @property
    def all_defined(self) -> bool:
        return bool(np.all(self.defined))


def spread_reduction(run, path: int = 0) -> SpreadReduction:
    """Rewrite a realized spread path in square-root-diffusion form.

    Emits coefficients (a, b, c) such that the spread's drift is
    a + b-term and its diffusion is sqrt(2 c spread): a sums the rescaled
    factor differences times intensities, c the spread-normalized factors
    times intensities.  The well-posedness condition makes a >= c; the
    report carries the fraction of times where that holds.
    """
    params = run.params
    pa = run.p_a[:, path]
    pb = run.p_b[:, path]
    spread = pa - pb
    defined = spread > 0
    n = pa.size
    a = np.zeros(n)
    b = np.zeros(n)
    c = np.zeros(n)
    for s_idx, side in enumerate(("a", "b")):
        rho = params.rho[side](pa, pb)
        rate_slope = params.rate_slope[side](pa, pb)
        mu = run.mu[:, s_idx, path]
        beta = run.beta[:, s_idx, path]
        with np.errstate(divide="ignore", invalid="ignore"):
            rho_hat = np.where(defined, rho / np.where(defined, spread, 1.0), np.nan)
        a += rate_slope * mu
        c += np.where(defined, rho_hat * mu, np.nan)
        b += -np.where(defined, rho_hat * beta, np.nan)
    ok = defined & (a >= c * (1.0 - SPREAD_REL_SLACK))
    frac = float(ok.sum()) / max(int(defined.sum()), 1)
    return SpreadReduction(run.t, a, b, c, defined, frac)


# ---------------------------------------------------------------------------
# one-sided book closed forms
# ---------------------------------------------------------------------------


def closed_form_mu_exponential(p_path: np.ndarray, dt: float, sigma2: float,
                               kappa: float) -> np.ndarray:
    """Active intensity of the one-sided model with an exponential kernel.

    Solves mu(t) = sigma^2 + int_0^t exp(-kappa (t-s)) |P(s)|^2 mu(s) ds in
    the equivalent form
    mu(t) = sigma^2 e^{I(t)} + kappa sigma^2 int_0^t e^{I(t) - I(s)} ds
    with I(t) = int_0^t (|P|^2 - kappa), by nested trapezoid on the grid.
    """
    p2 = np.asarray(p_path, dtype=float) ** 2
    integrand = p2 - kappa
    I = np.concatenate([[0.0], np.cumsum(0.5 * (integrand[1:] + integrand[:-1]) * dt)])
    # guard the exponentials through a common shift
    expI = np.exp(I)
    inv = np.exp(-I)
    inner = np.concatenate([[0.0], np.cumsum(0.5 * (inv[1:] + inv[:-1]) * dt)])
    return sigma2 * expI + kappa * sigma2 * expI * inner


def closed_form_book(
    x: np.ndarray,
    v0: np.ndarray,
    p_path: np.ndarray,
    dt: float,
    kernel,
    shape: Optional[Callable] = None,
) -> np.ndarray:
    """Volume surface of the one-sided book with matched place/cancel rates.

    V(t, x) = 1 + (V(0,x) - 1) exp{-g(x) W(t)} with
    W(t) = int_0^t [|P|^2 + (K * |P|^2)](s) ds, where K is the renewal
    resolvent of the kernel and g defaults to exp(-x^2).  Returns the full
    surface (n_times, n_x).
    """
    x = np.asarray(x, dtype=float)
    v0 = np.asarray(v0, dtype=float)
    p2 = np.asarray(p_path, dtype=float) ** 2
    n = p2.size
    t_grid = dt * np.arange(n)
    K = renewal_resolvent(kernel, t_grid)
    u = p2 + _trapezoid_conv(K, p2, dt)
    W = np.concatenate([[0.0], np.cumsum(0.5 * (u[1:] + u[:-1]) * dt)])
    g = np.exp(-x * x) if shape is None else np.asarray(shape(x), dtype=float)
    return 1.0 + (v0 - 1.0)[None, :] * np.exp(-g[None, :] * W[:, None])


# ---------------------------------------------------------------------------
# volatility clustering
# ---------------------------------------------------------------------------


@dataclass
class OneSidedParams:
    """One-sided price model P' = |P| sqrt(mu) dB with self-exciting mu.

    mu(t) = sigma2 + int_0^t kernel(t - s) |P(s)|^2 mu(s) ds; the kernel is
    exponential with amplitude ``c`` and decay ``kappa`` (c = 0 gives the
    geometric benchmark with uncorrelated squared log increments).
    """

    sigma2: float
    c: float
    kappa: float
    p0: float
    barrier: float = 50.0

    def __post_init__(self):
        if self.sigma2 <= 0 or self.p0 <= 0:
            raise ValueError("need sigma2 > 0 and p0 > 0")
        if self.c < 0 or self.kappa <= 0:
            raise ValueError("need c >= 0 and kappa > 0")


@dataclass
class ClusteringReport:
    covariance: float
    se: float
    mean_sq_first: float
    mean_sq_second: float
    replicates: int
    barrier_hits: int

    def to_dict(self) -> dict:
        return {
            "covariance": self.covariance,
            "se": self.se,
            "mean_sq_first": self.mean_sq_first,
            "mean_sq_second": self.mean_sq_second,
            "replicates": self.replicates,
            "barrier_hits": self.barrier_hits,
        }


def one_sided_volatility_clustering(
    params: OneSidedParams,
    t0: float,
    eps: float,
    lag: float,
    replicates: int,
    seed,
) -> ClusteringReport:
    """Lagged covariance of squared log-price increments, with its SE.

    Simulates the log price exactly in form (X = log P evolves with drift
    -mu/2 and volatility sqrt(mu)), which keeps P positive; mu uses the
    exponential-kernel state recursion.  The estimate is
    Cov((dlogP over [t0, t0+eps])^2, (same over [t0+lag, t0+lag+eps])^2),
    whose sign is the clustering diagnostic: positive under self-excitation,
    zero for the geometric benchmark.

    The quadratic price feedback is not uniformly bounded; paths are capped
    at the configured barrier and the hits are reported.
    """
    rng = as_rng(seed, "oracle")
    dt = CLUSTERING_DT
    horizon = t0 + lag + eps
    n_steps = int(round(horizon / dt))
    idx = [int(round(s / dt)) for s in (t0, t0 + eps, t0 + lag, t0 + lag + eps)]

    X = np.full(replicates, math.log(params.p0))
    H = np.zeros(replicates)  # kernel state: mu = sigma2 + c * H
    decay = math.exp(-params.kappa * dt)
    snaps = {}
    barrier_hits = 0
    log_bar = math.log(params.barrier)
    for m in range(n_steps):
        mu = params.sigma2 + params.c * H
        X = X - 0.5 * mu * dt + np.sqrt(mu * dt) * rng.standard_normal(replicates)
        over = X > log_bar
        if np.any(over):
            barrier_hits += int(over.sum())
            X = np.minimum(X, log_bar)
        # fold |P|^2 mu into the exponential kernel state
        H = decay * (H + np.exp(2.0 * X) * mu * dt)
        if m + 1 in idx:
            snaps[m + 1] = X.copy()
    for j in idx:
        if j == 0:
            snaps[0] = np.full(replicates, math.log(params.p0))

    d1 = (snaps[idx[1]] - snaps[idx[0]]) ** 2
    d2 = (snaps[idx[3]] - snaps[idx[2]]) ** 2
    prod = (d1 - d1.mean()) * (d2 - d2.mean())
    cov = float(prod.mean())
    se = float(prod.std(ddof=1) / math.sqrt(replicates))
    return ClusteringReport(cov, se, float(d1.mean()), float(d2.mean()),
                            replicates, barrier_hits)
