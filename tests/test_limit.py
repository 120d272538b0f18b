import copy
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hawkeslob import limit as L
from hawkeslob.families import (
    ConstantProfile,
    ExponentialProfile,
    GammaProfile,
    GaussianProfile,
    UniformProfile,
    ZeroProfile,
    ZeroSpatialProfile,
)
from hawkeslob.oracles import closed_form_book, closed_form_mu_exponential
from hawkeslob.volterra import SpatialGrid, solve_forward

from conftest import make_family
from oracle_configs import (
    canonical_spread_config,
    one_sided_book_config,
    one_sided_mu_config,
)


def _zero_exo(pa, pb):
    return np.zeros_like(np.asarray(pa, dtype=float))


def frozen_prices_params(n_x=21, lam_factor=0.0, place=0.0, cancel=0.0):
    """No price motion; optional constant passive flow for the volume ODE."""
    grid = SpatialGrid(2.0, n_x)
    prof = UniformProfile(1.0) if lam_factor else ZeroSpatialProfile()

    def fac(pa, pb):
        return np.full_like(np.asarray(pa, dtype=float), lam_factor)

    return L.LimitParams(
        grid=grid,
        rho={s: L.ConstantRate(0.0) for s in "ab"},
        rate_slope={s: L.ConstantRate(0.0) for s in "ab"},
        base_rate={s: L.ConstantRate(0.0) for s in "ab"},
        base_drift={s: L.ConstantRate(0.0) for s in "ab"},
        base_passive={pt: (fac, prof) for pt in L.PASSIVE_TYPES},
        place_gain={"a": place, "b": place},
        cancel_gain={"a": cancel, "b": cancel},
    )


class TestDriftDiffusion:
    def _engine(self, rho_a, varrho_a, mu_a, beta_a=0.0):
        grid = SpatialGrid(1.0, 3)
        params = L.LimitParams(
            grid=grid,
            rho={"a": rho_a, "b": L.ConstantRate(0.0)},
            rate_slope={"a": varrho_a, "b": L.ConstantRate(0.0)},
            base_rate={"a": L.ConstantRate(mu_a), "b": L.ConstantRate(0.0)},
            base_drift={"a": L.ConstantRate(beta_a), "b": L.ConstantRate(0.0)},
            base_passive={pt: (_zero_exo, ZeroSpatialProfile()) for pt in L.PASSIVE_TYPES},
            place_gain={"a": 0.0, "b": 0.0},
            cancel_gain={"a": 0.0, "b": 0.0},
        )
        flat = lambda x: np.zeros_like(np.asarray(x, dtype=float))
        init = L.make_initial_state(params, 1.5, -1.5, flat, flat, n_paths=1)
        return L.LimitEngine(params, init, 1.0, 0.5)

    def test_zero_factor_kills_diffusion(self):
        eng = self._engine(L.ConstantRate(0.0), L.ConstantRate(0.7), mu_a=2.0)
        drift_a, _, diff_a, _ = eng.drift_diffusion()
        assert drift_a[0] == pytest.approx(0.7 * 2.0)
        assert diff_a[0] == 0.0

    def test_unit_factor_diffusion(self):
        eng = self._engine(L.ConstantRate(1.0), L.ConstantRate(0.0), mu_a=2.0)
        _, _, diff_a, _ = eng.drift_diffusion()
        assert diff_a[0] == pytest.approx(2.0)  # sqrt(2 * 1 * 2)

    def test_quadratic_factor_matches_one_sided_form(self):
        # rho = |p|^2 / 2 gives diffusion |p| sqrt(mu)
        eng = self._engine(L.PriceSquareRate(0.5, "a"), L.ConstantRate(0.0), mu_a=3.0)
        _, _, diff_a, _ = eng.drift_diffusion()
        assert diff_a[0] == pytest.approx(1.5 * math.sqrt(3.0))

    def test_drift_combines_beta_and_mu(self):
        eng = self._engine(L.ConstantRate(0.5), L.ConstantRate(0.25), mu_a=2.0, beta_a=1.5)
        drift_a, _, _, _ = eng.drift_diffusion()
        assert drift_a[0] == pytest.approx(0.5 * 1.5 + 0.25 * 2.0)


def test_constant_prices_without_noise_or_kernels():
    params = frozen_prices_params()
    flat = lambda x: np.zeros_like(np.asarray(x, dtype=float))
    init = L.make_initial_state(params, 1.0, -1.0, flat, flat, n_paths=3)
    run = L.solve_paths(params, init, 0.5, 1e-2, seed=1)
    assert np.allclose(run.p_a, 1.0)
    assert np.allclose(run.p_b, -1.0)


def test_volume_ode_contracts_to_fixed_point():
    # constant lambda with gains (1, -0.5): V converges monotonically to 2
    # at contraction rate |cancel_gain| * lambda = 0.5 per unit time
    params = frozen_prices_params(lam_factor=1.0, place=1.0, cancel=-0.5)
    hi = lambda x: np.full_like(np.asarray(x, dtype=float), 5.0)
    lo = lambda x: np.full_like(np.asarray(x, dtype=float), 0.5)
    init = L.make_initial_state(params, 0.5, -0.5, hi, lo, n_paths=1, v_pad=0.5)
    eng = L.LimitEngine(params, init, 14.0, 1e-2)
    # node-major volumes, the bid side stored mirrored
    mid = init.v_x.size // 2
    va_path, vb_path = [eng.V_a[mid, 0]], [eng.V_b[-1 - mid, 0]]
    for _ in range(eng.n_steps):
        eng.step(np.zeros((2, 1)))
        va_path.append(eng.V_a[mid, 0])
        vb_path.append(eng.V_b[-1 - mid, 0])
    va, vb = np.asarray(va_path), np.asarray(vb_path)
    assert np.all(np.diff(va) <= 1e-12) and va[-1] == pytest.approx(2.0, abs=0.02)
    assert np.all(np.diff(vb) >= -1e-12) and vb[-1] == pytest.approx(2.0, abs=0.02)


def test_one_sided_intensity_matches_closed_form():
    params, init, (sigma2, kappa, _p0) = one_sided_mu_config()
    run = L.solve_paths(params, init, 1.0, 1e-3, seed=20)
    mu = run.mu[:, 0, 0]
    ref = closed_form_mu_exponential(run.p_a[:, 0], 1e-3, sigma2, kappa)
    assert np.max(np.abs(mu - ref) / np.abs(ref)) <= 1e-3


def test_one_sided_book_matches_closed_form_small():
    # zero noise: price freezes and the volume surface has a closed form
    params, build_init, kern_half, v0 = one_sided_book_config(n_x=101, half_width=5.0)
    init = build_init()
    n_steps = 500
    run = L.solve_paths(params, init, 1.0, 1.0 / n_steps,
                        noise=np.zeros((n_steps, 2, 1)))
    assert np.allclose(run.p_a, 1.0)
    ref = closed_form_book(run.v_x, v0(run.v_x), run.p_a[:, 0], 1.0 / n_steps, kern_half)
    assert np.max(np.abs(run.v_a[0] - ref[-1])) <= 2e-3


def test_strong_self_convergence_under_step_refinement():
    # canonical spread config: stable feedback, square-root diffusion
    params, build_init = canonical_spread_config(mu0=0.3, n_x=3)
    n_paths = 128
    fine_steps = 800
    noise_fine = L.make_noise(9, fine_steps, n_paths)

    def terminal(n_steps):
        factor = fine_steps // n_steps
        noise = L.coarsen_noise(noise_fine, factor) if factor > 1 else noise_fine
        run = L.solve_paths(params, build_init(n_paths=n_paths, spread0=0.2),
                            1.0, 1.0 / n_steps, noise=noise)
        return run.p_a[-1]

    ref = terminal(800)
    err_coarse = np.mean(np.abs(terminal(100) - ref))
    err_fine = np.mean(np.abs(terminal(200) - ref))
    # strong order one half: halving the step shrinks the error noticeably
    assert err_fine < err_coarse
    assert err_coarse / err_fine > 1.15


def test_intensity_self_consistency():
    # deterministic run: re-solving from the state path is exact
    params, build_init, _k, _v0 = one_sided_book_config(n_x=41, half_width=3.0)
    run = L.solve_paths(params, build_init(), 0.5, 2e-3, noise=np.zeros((250, 2, 1)))
    assert L.intensity_consistency(run, 0) < 1e-12
    # noisy run: limited only by float accumulation, not the convention
    params2, init2, _ = one_sided_mu_config()
    run2 = L.solve_paths(params2, init2, 1.0, 1e-3, seed=21)
    assert L.intensity_consistency(run2, 0) < 1e-9


def test_pathwise_stability_under_shared_noise():
    params, build_init = canonical_spread_config(mu0=0.3)
    n_paths, n_steps = 32, 500
    noise = L.make_noise(17, n_steps, n_paths)
    for delta in (0.02, 0.01):
        init1 = build_init(n_paths=n_paths, spread0=0.2)
        init2 = build_init(n_paths=n_paths, spread0=0.2 + 2 * delta)
        r1 = L.solve_paths(params, init1, 1.0, 1.0 / n_steps, noise=noise)
        r2 = L.solve_paths(params, init2, 1.0, 1.0 / n_steps, noise=noise)
        gap = np.abs((r2.p_a - r2.p_b) - (r1.p_a - r1.p_b)).max(axis=0)
        C = gap.mean() / (2 * delta)
        assert np.isfinite(C)
        assert C < 25.0


def spread_band_violations(run, params, dt):
    """Count steps breaking the discrete spread-positivity bound.

    A step may dip below zero by at most four local standard deviations of
    the one-step noise; once the spread is negative the rate factors gate
    to zero, so the only admissible motion is the nonnegative-drift
    recovery (the discrete shadow of reflection at zero).
    """
    spread = run.p_a - run.p_b
    rho_mu = np.zeros_like(spread)
    for s_idx, side in enumerate("ab"):
        rho = np.stack([params.rho[side](run.p_a[m], run.p_b[m])
                        for m in range(run.t.size)])
        rho_mu += 2.0 * rho * run.mu[:, s_idx, :]
    band = 4.0 * np.sqrt(rho_mu[:-1]) * math.sqrt(dt)
    nxt, prev = spread[1:], spread[:-1]
    entry_violation = (prev >= 0) & (nxt < -band)
    recovery_violation = (prev < 0) & (nxt < prev - 1e-15)
    return int(entry_violation.sum() + recovery_violation.sum())


def test_spread_never_undershoots_local_diffusion_band():
    params, build_init = canonical_spread_config(mu0=0.3)
    n_paths, dt = 200, 1e-3
    init = build_init(n_paths=n_paths, spread0=0.1)
    run = L.solve_paths(params, init, 1.0, dt, seed=33)
    assert spread_band_violations(run, params, dt) == 0
    # excursions below zero do occur at this resolution and recover
    assert np.min(run.p_a - run.p_b) <= 0.0


def test_uniqueness_condition_checker():
    params, _ = canonical_spread_config()
    rep = L.check_uniqueness_condition(params, eps=0.05)
    assert rep.passed and rep.n_checked > 0

    bad = canonical_spread_config()[0]
    bad.rho = {s: L.ConstantRate(1.0) for s in "ab"}  # 1 > rate_slope * spread near 0
    rep2 = L.check_uniqueness_condition(bad, eps=0.05)
    assert not rep2.passed and rep2.failures

    bad2 = canonical_spread_config()[0]
    bad2.rate_slope = {s: L.ConstantRate(0.0) for s in "ab"}
    assert not L.check_uniqueness_condition(bad2, eps=0.05).passed


def test_drift_intensity_recursion_analytic():
    # constant rate factor and a constant drift kernel: with zero noise,
    # beta(t) = base + c * mu0 * t and the ask price integrates it exactly
    mu0, c, base = 0.4, 0.3, 0.1
    grid = SpatialGrid(1.0, 3)
    params = L.LimitParams(
        grid=grid,
        rho={"a": L.ConstantRate(1.0), "b": L.ConstantRate(0.0)},
        rate_slope={"a": L.ConstantRate(0.5), "b": L.ConstantRate(0.0)},
        base_rate={"a": L.ConstantRate(mu0), "b": L.ConstantRate(0.0)},
        base_drift={"a": L.ConstantRate(base), "b": L.ConstantRate(0.0)},
        base_passive={pt: (_zero_exo, ZeroSpatialProfile()) for pt in L.PASSIVE_TYPES},
        place_gain={"a": 0.0, "b": 0.0},
        cancel_gain={"a": 0.0, "b": 0.0},
        drift_from_act={("a", "a"): ConstantProfile(c)},
    )
    flat = lambda x: np.zeros_like(np.asarray(x, dtype=float))
    init = L.make_initial_state(params, 1.0, -1.0, flat, flat, n_paths=1)
    n = 500
    run = L.solve_paths(params, init, 1.0, 1.0 / n, noise=np.zeros((n, 2, 1)))
    t = run.t
    beta_ref = base + c * mu0 * t
    assert np.allclose(run.beta[:, 0, 0], beta_ref, atol=1e-12)
    # price drift rho*beta + slope*mu integrates to a quadratic
    p_ref = 1.0 + (base + 0.5 * mu0) * t + 0.5 * c * mu0 * t**2
    assert np.max(np.abs(run.p_a[:, 0] - p_ref)) < 2e-3


def _subclassed(prof):
    """A copy of ``prof`` whose type is a bare subclass of its own, which the
    stepper convolves in generic mode."""
    out = copy.copy(prof)
    out.__class__ = type(f"Sub{type(prof).__name__}", (type(prof),), {})
    return out


@pytest.mark.parametrize("generic", [False, True], ids=["exact", "subclass"])
def test_all_kernel_blocks_consistent_with_reference_solver(generic):
    # every block type at once, its time profiles of exact type (recursive
    # convolutions) or of subclasses (generic history sums over both the
    # rho * mu and the in-product sources): the stepper must agree with the
    # grid-quadrature reference on the re-solve
    grid = SpatialGrid(2.0, 41)
    gauss = GaussianProfile(0.6)
    uni = UniformProfile(0.3)

    def fac(pa, pb):
        return np.full_like(np.asarray(pa, dtype=float), 0.4)

    time = _subclassed if generic else (lambda prof: prof)
    params = L.LimitParams(
        grid=grid,
        rho={s: L.SpreadPlusRate(0.5) for s in "ab"},
        rate_slope={s: L.ConstantRate(0.5) for s in "ab"},
        base_rate={s: L.ConstantRate(0.3) for s in "ab"},
        base_drift={s: L.ConstantRate(0.0) for s in "ab"},
        base_passive={pt: (fac, GaussianProfile(1.0)) for pt in L.PASSIVE_TYPES},
        place_gain={"a": 1.0, "b": 1.0},
        cancel_gain={"a": -0.5, "b": -0.5},
        act_from_act={("a", "a"): time(ExponentialProfile(0.2, 1.0)),
                      ("b", "a"): time(ConstantProfile(0.1))},
        act_from_pas={("a", "a_lo"): (gauss, time(ExponentialProfile(0.3, 2.0)))},
        pas_from_act={("a_cx", "b"): (gauss, time(GammaProfile(0.4, 1.5)))},
        pas_from_pas={("b_lo", "a_cx"): (uni, gauss, time(ExponentialProfile(0.25, 1.0)))},
        drift_from_act={("a", "b"): time(ExponentialProfile(0.15, 1.0))},
        drift_from_pas={("b", "a_lo"): (gauss, time(ConstantProfile(0.05)))},
    )
    v0 = lambda x: np.exp(-np.asarray(x, dtype=float) ** 2)
    init = L.make_initial_state(params, 0.2, -0.2, v0, v0, n_paths=3)
    # only generic convolutions keep a source history, of q_0..q_{M-1}
    convs = L.LimitEngine(params, init, 0.5, 2e-3)._convs
    if generic:
        assert all(c.mode == "generic" and c.q.shape == (250, 3) for c in convs)
    else:
        assert all(c.mode != "generic" and not hasattr(c, "q") for c in convs)
    run = L.solve_paths(params, init, 0.5, 2e-3, seed=71)
    assert L.intensity_consistency(run, 0) < 1e-10
    assert L.intensity_consistency(run, 2) < 1e-10
    assert np.all(np.isfinite(run.v_a)) and np.all(run.mu >= 0)


class _HalvedExponential(ExponentialProfile):
    """Declares an amplitude but evaluates at half of it."""

    def value(self, t):
        return 0.5 * super().value(t)


def _family_run(family, params, n_paths=4):
    init = L.make_initial_state(params, family.ask_price0, family.bid_price0,
                                family.ask_volume0, family.bid_volume0, n_paths=n_paths)
    return L.solve_paths(params, init, 0.5, 2e-3, seed=29)


def test_profile_subclass_is_convolved_through_its_value(family):
    # the recursions match profile families by exact type: a subclass that
    # overrides value is convolved through it, like the reference re-solve
    params = dataclasses.replace(
        family.limit_params(n_x=61),
        act_from_act={(tgt, src): _HalvedExponential(0.8, 1.0) for tgt in "ab" for src in "ab"},
    )
    run = _family_run(family, params)
    assert L.intensity_consistency(run, 0) < 1e-10
    assert L.intensity_consistency(run, 3) < 1e-10


def test_zero_kernel_entry_keeps_the_recursive_stepper(family):
    params = family.limit_params(n_x=61)
    with_zero = dataclasses.replace(
        params,
        drift_from_act={("a", "b"): ZeroProfile()},
        pas_from_act={("a_lo", "a"): (GaussianProfile(1.0), ZeroProfile())},
    )
    init = L.make_initial_state(with_zero, family.ask_price0, family.bid_price0,
                                family.ask_volume0, family.bid_volume0, n_paths=4)
    assert all(c.mode != "generic" for c in L.LimitEngine(with_zero, init, 0.5, 2e-3)._convs)
    got, want = _family_run(family, with_zero), _family_run(family, params)
    for f in dataclasses.fields(L.LimitRun):
        a, b = getattr(got, f.name), getattr(want, f.name)
        if isinstance(a, np.ndarray):
            assert np.array_equal(a, b), f.name
    assert got.clamp_count == want.clamp_count


def _pas_from_act_inputs(paths=slice(None)):
    """Parameters and initial state with pas_from_act kernels, distinct and
    repeated base profiles and start prices that run off the distance grid
    both ways."""
    grid = SpatialGrid(2.0, 41)
    gauss, uni = GaussianProfile(0.6), UniformProfile(0.3)

    def fac(pa, pb):
        return 0.3 + 0.1 * np.abs(np.asarray(pa, dtype=float))

    base = {"a_lo": (fac, GaussianProfile(1.0)), "a_cx": (fac, GaussianProfile(0.5)),
            "b_lo": (fac, GaussianProfile(1.0)), "b_cx": (fac, GaussianProfile(1.0))}
    params = L.LimitParams(
        grid=grid,
        rho={s: L.SpreadPlusRate(0.5) for s in "ab"},
        rate_slope={s: L.ConstantRate(0.5) for s in "ab"},
        base_rate={s: L.ConstantRate(0.3) for s in "ab"},
        base_drift={s: L.ConstantRate(0.0) for s in "ab"},
        base_passive=base,
        place_gain={"a": 1.0, "b": 1.0},
        cancel_gain={"a": -0.5, "b": -0.5},
        act_from_act={("a", "a"): ExponentialProfile(0.2, 1.0)},
        pas_from_act={("a_lo", "a"): (gauss, ExponentialProfile(0.3, 1.0)),
                      ("a_cx", "b"): (gauss, GammaProfile(0.4, 1.5)),
                      ("b_lo", "a"): (GaussianProfile(1.0), ExponentialProfile(0.2, 2.0)),
                      ("b_cx", "b"): (uni, ConstantProfile(0.1))},
    )
    v0 = lambda x: np.exp(-np.asarray(x, dtype=float) ** 2)
    # paths 1-3 run off the grid; paths 4-5 sit on the grid lattice
    p_a = np.array([0.23, 9.03, -9.07, 0.213, 0.2, 1.9])[paths]
    p_b = np.array([-0.17, -3.04, 9.02, -9.01, -0.2, -1.7])[paths]
    init = L.make_initial_state(params, 0.2, -0.2, v0, v0, n_paths=p_a.size)
    init.p_a, init.p_b = p_a, p_b
    return params, init


def _interp_rows(values, grid_lo, h, targets):
    """Row-wise linear interpolation of (R, n) values at (R, m) positions.

    Positions outside the grid give zero: intensity mass beyond the
    truncation interval is dropped by construction.
    """
    n = values.shape[1]
    pos = (targets - grid_lo) / h
    idx = np.floor(pos).astype(np.int64)
    frac = pos - idx
    inside = (idx >= 0) & (idx < n - 1)
    idx_c = np.clip(idx, 0, n - 2)
    left = np.take_along_axis(values, idx_c, axis=1)
    right = np.take_along_axis(values, idx_c + 1, axis=1)
    out = left * (1.0 - frac) + right * frac
    out[~inside] = 0.0
    return out


def _gathered_intensities(eng, m, side):
    """Gain-weighted placement and cancellation intensities on one side's
    band, gathered from the engine's per-step window tables and summed by
    its term groups; returns ``(place, cancel, cols)``, the first two
    ``(R, band)`` in ``V``'s natural node order, with ``cols`` the band as a
    slice of volume nodes."""
    k, frac, j0, j1, row0, K = eng._volume_band(m, side)
    coefs = np.concatenate([eng._conv, [eng._hat_fac[pt] for pt in L.PASSIVE_TYPES]])
    gains = (eng.p.place_gain[side], eng.p.cancel_gain[side])
    out = [np.zeros((j1 - j0, eng.R)), np.zeros((j1 - j0, eng.R))]
    for w, row_sets in eng._side_terms[side]:
        base, diff = (tbl[row0:row0 + j1 - j0, :K] for tbl in eng._windows[w])
        assert np.all(k < K) and base.shape == (j1 - j0, K)
        g = np.take(base, k, axis=1) + np.take(diff, k, axis=1) * frac
        for i, coef_rows in enumerate(row_sets):
            if coef_rows:
                out[i] += gains[i] * coefs[coef_rows].sum(axis=0) * g
    if side == "a":
        return out[0].T, out[1].T, slice(j0, j1)
    # the bid side's band is mirrored: node j of the table is node n_cols - 1 - j
    n_cols = eng.x_v.size
    return out[0][::-1].T, out[1][::-1].T, slice(n_cols - j1, n_cols - j0)


def test_windowed_gather_matches_row_interpolation():
    # the volume-node gather against row-wise interpolation of the
    # assembled grids, with shifts running off the distance grid both ways
    params, init = _pas_from_act_inputs()
    grid = params.grid
    eng = L.LimitEngine(params, init, 0.05, 1e-2)

    # equal vectors share one window, and so one gather per side and call:
    # the three unit gaussians, base or kernel out-profile alike, and the
    # 0.6 gaussian that both ask kernels place with
    hat_row = {pt: len(eng.entries) + i for i, pt in enumerate(L.PASSIVE_TYPES)}
    k_of = {e.target: k for k, e in enumerate(eng.entries) if e.kind == "lam"}
    unit = eng._side_terms["b"][0][0]
    assert eng._side_terms["b"] == [
        (unit, ([hat_row["b_lo"], k_of["b_lo"]], [hat_row["b_cx"]])),
        (unit + 3, ([], [k_of["b_cx"]])),
    ]
    assert eng._side_terms["a"] == [
        (unit, ([hat_row["a_lo"]], [])),
        (unit + 1, ([k_of["a_lo"]], [k_of["a_cx"]])),
        (unit + 2, ([], [hat_row["a_cx"]])),
    ]
    assert len(eng._windows) == 4  # unit, 0.6 gaussian, half-amplitude, uniform

    rng = np.random.default_rng(5)
    lo, h = float(eng.xg[0]), grid.h
    for _ in range(4):
        m = eng.m
        lam = eng.lam_grids()
        pa, pb = eng.P_a[m], eng.P_b[m]
        for side in "ab":
            rel = (eng.x_v[None, :] - pa[:, None] if side == "a"
                   else pb[:, None] - eng.x_v[None, :])
            # a node landing on a truncation edge up to rounding may read the
            # edge value in one scheme and zero in the other
            edge = np.isclose(np.abs(rel), grid.half_width, rtol=0.0, atol=1e-9)
            if m == 0:
                assert edge[4:].any() and not edge[:4].any()
            place, cancel, cols = _gathered_intensities(eng, m, side)
            outside = np.ones(eng.x_v.size, dtype=bool)
            outside[cols] = False
            gains = (params.place_gain[side], params.cancel_gain[side])
            for kind, gain, got in zip(("lo", "cx"), gains, (place, cancel)):
                g = lam[L.PASSIVE_TYPES.index(f"{side}_{kind}")].T
                ref = gain * _interp_rows(g, lo, h, rel)
                assert np.max(np.abs(ref)) > 0.0
                # the band holds every nonzero reference value
                assert np.all(np.where(edge, 0.0, ref)[:, outside] == 0.0)
                err = np.where(edge[:, cols], 0.0, np.abs(got - ref[:, cols]))
                assert np.max(err) <= 1e-12 * np.max(np.abs(ref))
                # the off-grid paths read zero intensity
                assert np.all(got[1 if side == "a" else 3] == 0.0)
                assert np.all(got[2] == 0.0)
        eng.step(rng.standard_normal((2, eng.R)))


class _FullWidthEngine(L.LimitEngine):
    """Reference volume update: every column, with fresh arrays per step.

    It interpolates padded copies of the profile vectors as
    ``(1 - f) * left + f * right`` and reads the bid side reversed, so it
    keeps the truncation-edge convention of the windowed gather without
    reading the engine's window layout.
    """

    def _full_width_lam(self, m, side):
        conv, hat_fac = self._conv, self._hat_fac
        pa, pb = self.P_a[m], self.P_b[m]
        starts = (self.x_v[0] - pa) if side == "a" else (pb - self.x_v[-1])
        pos0 = (starts - float(self.xg[0])) / self.h_v
        idx0 = np.floor(pos0).astype(np.int64)
        frac = (pos0 - idx0)[:, None]
        # vec[idx0 + j] and vec[idx0 + j + 1], zero unless idx0 + j is in [0, n - 2]
        n_cols, pad = self.x_v.size, self.x_v.size + 1
        at = np.clip(idx0 + pad, 0, self.xg.size + pad)[:, None] + np.arange(n_cols)

        def gathered(vec):
            left, right = np.zeros(vec.size - 1 + 2 * pad), np.zeros(vec.size - 1 + 2 * pad)
            left[pad:-pad], right[pad:-pad] = vec[:-1], vec[1:]
            return left[at] * (1.0 - frac) + right[at] * frac

        out = []
        for kind in ("lo", "cx"):
            pt = f"{side}_{kind}"
            acc = hat_fac[pt][:, None] * gathered(self._hat_vals[pt])
            for k in self._lam_entries[pt]:
                acc = acc + conv[k][:, None] * gathered(self._entry_out[k])
            out.append(acc[:, ::-1] if side == "b" else acc)
        return out

    def _advance_volumes(self, m):
        # both sides' volumes as (R, volume nodes) views in natural node order
        volumes = (self.V_a.T, self.V_b[::-1].T)
        fw = [np.asarray(f.fn(self.x_v), dtype=float) * self._wv for f in self.track]
        for s_idx, side in enumerate(L.SIDES):
            lam_lo, lam_cx = self._full_width_lam(m, side)
            V = volumes[s_idx]
            eta = self.p.place_gain[side] * lam_lo + self.p.cancel_gain[side] * lam_cx * V
            for i, f in enumerate(self.track):
                self.v_f[f.name][m, s_idx] = V @ fw[i]
                self.eta_f[f.name][m, s_idx] = eta @ fw[i]
            V += self.dt * eta
        if self.track and m + 1 == self.n_steps:
            for i, f in enumerate(self.track):
                for s_idx, V in enumerate(volumes):
                    self.v_f[f.name][m + 1, s_idx] = V @ fw[i]


def _family_inputs(case: str):
    family = make_family()
    params = family.limit_params(n_x=61)
    # an ask of 0.33 leaves the distance grid's lattice: the volume grid
    # extends outward to the distance spacing
    ask = 0.33 if case == "off_lattice" else family.ask_price0
    init = L.make_initial_state(params, ask, family.bid_price0,
                                family.ask_volume0, family.bid_volume0,
                                n_paths=1 if case == "one_path" else 40)
    if case == "spread":
        # start prices spread over the volume grid: the band covers every column
        init.p_a = np.linspace(-2.2, 3.0, 40)
        init.p_b = init.p_a - np.linspace(0.05, 0.3, 40)
    return params, init


@pytest.mark.parametrize("case", ["family", "pas_from_act", "off_grid", "spread",
                                  "off_lattice", "blocks", "one_path"])
def test_banded_volume_update_matches_full_width(case, monkeypatch):
    # the fused, column-blocked banded update against the full-width
    # expressions it replaced: the prices and intensities do not read the
    # volumes, so they are identical; the volumes fold dt and the gains per
    # path, which reorders their float operations
    if case in ("family", "spread", "off_lattice", "blocks", "one_path"):
        params, init = _family_inputs(case)
    else:
        # off_grid keeps one path, whose ask shift leaves the distance grid
        params, init = _pas_from_act_inputs(slice(1, 2) if case == "off_grid" else slice(None))
    n_cols = init.v_x.size
    if case == "blocks":
        # 7-node blocks: every band takes several blocks, the last partial
        monkeypatch.setattr(L, "VOLUME_BLOCK_BYTES", 7 * 8 * init.p_a.size)
    track = [L.SpatialTestFn("g", lambda x: np.exp(-((np.asarray(x) - 0.5) ** 2)))]
    fast = L.LimitEngine(params, init, 0.05, 1e-2, track=track)
    ref = _FullWidthEngine(params, init, 0.05, 1e-2, track=track)
    assert fast._block_nodes == (7 if case == "blocks" else n_cols)

    widths = {"a": set(), "b": set()}
    rng = np.random.default_rng(17)
    for m in range(fast.n_steps):
        for side in "ab":
            j0, j1 = fast._volume_band(m, side)[2:4]
            widths[side].add(j1 - j0)
        noise = rng.standard_normal((2, fast.R))
        fast.step(noise)
        ref.step(noise)
    if case == "off_grid":
        assert widths["a"] == {0} and max(widths["b"]) > 0
    elif case in ("family", "off_lattice", "blocks", "one_path"):
        assert 0 < min(widths["a"] | widths["b"]) <= max(widths["a"] | widths["b"]) < n_cols
    else:
        # spread prices, or off-grid paths on both sides of the grid
        assert n_cols in widths["a"] and n_cols in widths["b"]
    if case == "blocks":
        assert min(widths["a"] | widths["b"]) > 7
        assert any(w % 7 for w in widths["a"] | widths["b"])

    got, want = fast.finish(), ref.finish()
    for name in ("p_a", "p_b", "mu"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    for name in ("v_a", "v_b"):
        np.testing.assert_allclose(getattr(got, name), getattr(want, name), rtol=1e-12,
                                   err_msg=name)
    for name in ("v_f", "eta_f"):
        np.testing.assert_allclose(getattr(got, name)["g"], getattr(want, name)["g"],
                                   rtol=1e-12, err_msg=name)


_G1 = L.SpatialTestFn("g1", lambda x: np.exp(-((np.asarray(x) - 0.5) ** 2)))
_G2 = L.SpatialTestFn("g2", lambda x: np.exp(-((np.asarray(x) + 0.3) ** 2) / 0.98))


@st.composite
def _start_prices(draw, x_v):
    """Ask and bid start prices of 1-40 paths: on a volume node (so on a
    truncation edge of the lattice), anywhere on or well off the volume grid,
    with spreads from a fraction of a node to several nodes."""
    lo, hi, h = float(x_v[0]), float(x_v[-1]), float(x_v[1] - x_v[0])
    node = st.integers(0, x_v.size - 1).map(lambda i: float(x_v[i]))
    off = st.floats(lo - 6.0, hi + 6.0, allow_nan=False)
    spread = st.one_of(st.integers(1, 8).map(lambda k: k * h), st.floats(0.01, 3.0))
    pairs = draw(st.lists(st.tuples(st.one_of(node, off), spread), min_size=1, max_size=40))
    p_a = np.array([p for p, _ in pairs])
    return p_a, p_a - np.array([d for _, d in pairs])


@given(data=st.data(), case=st.sampled_from(["family", "pas_from_act"]),
       n_track=st.integers(0, 2), seed=st.integers(0, 2**16))
@settings(max_examples=100, deadline=None)
def test_volume_step_matches_the_full_width_reference(data, case, n_track, seed):
    # the node-major, column-blocked volume step against the full-width
    # reference over drawn start prices, ensemble sizes, column blocks of
    # one node up to the whole band, and 0-2 tracked functionals
    params, init = _family_inputs("family") if case == "family" else _pas_from_act_inputs()
    init.p_a, init.p_b = data.draw(_start_prices(init.v_x))
    n_paths, n_cols = init.p_a.size, init.v_x.size
    init.v_a = init.v_a[:1].repeat(n_paths, axis=0)
    init.v_b = init.v_b[:1].repeat(n_paths, axis=0)
    block_nodes = data.draw(st.integers(1, n_cols))
    track = [_G1, _G2][:n_track]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(L, "VOLUME_BLOCK_BYTES", block_nodes * 8 * n_paths)
        fast = L.LimitEngine(params, init, 0.04, 1e-2, track=track)
    ref = _FullWidthEngine(params, init, 0.04, 1e-2, track=track)
    assert fast._block_nodes == block_nodes
    rng = np.random.default_rng(seed)
    for _ in range(fast.n_steps):
        noise = rng.standard_normal((2, n_paths))
        fast.step(noise)
        ref.step(noise)
    got, want = fast.finish(), ref.finish()
    for name in ("p_a", "p_b", "mu", "beta"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    arrays = [(name, getattr(got, name), getattr(want, name)) for name in ("v_a", "v_b")]
    arrays += [(f"{name}.{f.name}", getattr(got, name)[f.name], getattr(want, name)[f.name])
               for name in ("v_f", "eta_f") for f in track]
    for name, a, b in arrays:
        np.testing.assert_allclose(a, b, rtol=1e-12, atol=0.0, err_msg=name)


def test_solve_paths_deterministic_given_seed(family):
    lp = family.limit_params(n_x=61)
    init = L.make_initial_state(lp, family.ask_price0, family.bid_price0,
                                family.ask_volume0, family.bid_volume0, n_paths=5)
    r1 = L.solve_paths(lp, init, 0.3, 2e-3, seed=8)
    init2 = L.make_initial_state(lp, family.ask_price0, family.bid_price0,
                                 family.ask_volume0, family.bid_volume0, n_paths=5)
    r2 = L.solve_paths(lp, init2, 0.3, 2e-3, seed=8)
    assert np.array_equal(r1.p_a, r2.p_a)
    assert np.array_equal(r1.v_a, r2.v_a)


@pytest.mark.parametrize("side", ["a", "b"])
def test_non_finite_volume_fails_loudly(family, side):
    # a NaN at the first volume node, outside the band the intensities
    # reach, fails the solve at the end rather than being returned, also
    # when only the NaN side is solved
    lp = family.limit_params(n_x=61)
    init = L.make_initial_state(lp, family.ask_price0, family.bid_price0,
                                family.ask_volume0, family.bid_volume0, n_paths=3)
    getattr(init, f"v_{side}")[1, 0] = np.nan
    name = "ask" if side == "a" else "bid"
    for sides in (L.SIDES, (side,)):
        with pytest.raises(L.NumericalFailureError, match=f"non-finite {name} volumes"):
            L.solve_paths(lp, init, 0.02, 2e-3, seed=3, volume_sides=sides)


@pytest.mark.parametrize("case", ["family", "pas_from_act"])
@pytest.mark.parametrize("seed", [5, 23])
def test_one_sided_solve_matches_both_sides(case, seed):
    # nothing reads a volume, so a solve of one volume side gives the same
    # bits for the prices, the intensities and that side's volumes; the
    # side left out is not handed back
    params, init = _family_inputs("family") if case == "family" else _pas_from_act_inputs()
    both = L.solve_paths(params, init, 0.2, 2e-3, seed=seed)
    f = _G1.fn
    for side in L.SIDES:
        one = L.solve_paths(params, init, 0.2, 2e-3, seed=seed, volume_sides=(side,))
        for name in ("p_a", "p_b", "mu", "beta", f"v_{side}"):
            assert getattr(one, name).tobytes() == getattr(both, name).tobytes(), (side, name)
        assert one.v_inner(f, side).tobytes() == both.v_inner(f, side).tobytes()
        other = "b" if side == "a" else "a"
        assert getattr(one, f"v_{other}") is None
        with pytest.raises(ValueError, match=f"'{other}' volumes were not solved"):
            one.v_inner(f, other)
    # an unknown side read the bid volumes
    with pytest.raises(ValueError, match="^side must be 'a' or 'b', got 'ask'"):
        both.v_inner(f, "ask")


@pytest.mark.parametrize("sides", [(), ("a", "a"), ("c",), ("a", "b", "a"), ("a", "ask")])
def test_volume_sides_must_be_a_subset_of_the_sides(sides):
    params, init = _family_inputs("one_path")
    with pytest.raises(ValueError, match="^volume_sides must be a non-empty subset"):
        L.solve_paths(params, init, 0.02, 2e-3, seed=3, volume_sides=sides)


@pytest.mark.parametrize("sides", [("a",), ("b",)])
def test_tracking_needs_both_volume_sides(sides):
    # v_f and eta_f hold both sides
    params, init = _family_inputs("one_path")
    with pytest.raises(ValueError, match="^tracked functionals hold both sides"):
        L.solve_paths(params, init, 0.02, 2e-3, seed=3, track=[_G1], volume_sides=sides)


def test_volterra_system_evaluates_each_side_rate_once_per_state(family):
    # four active entries read two sources: a solve calls each side's rate
    # factor, and each exogenous factor, once on the whole path's prices
    lp = family.limit_params(n_x=21)
    calls = []

    def counted(name, fn):
        def factor(pa, pb):
            calls.append((name, np.shape(pa)))
            return fn(pa, pb)
        return factor

    lp = dataclasses.replace(
        lp, rho={s: counted(f"rho_{s}", f) for s, f in lp.rho.items()},
        base_rate={s: counted(f"base_{s}", f) for s, f in lp.base_rate.items()},
        base_passive={pt: (counted(pt, f), prof) for pt, (f, prof) in lp.base_passive.items()},
    )
    _lay, op, exo = L.volterra_system(lp)
    states = [(0.3, 0.1), (0.5, -0.2), (0.2, 0.1)]
    solve_forward(op, exo, states, np.linspace(0.0, 0.02, len(states)), exo_at="prev")
    names = [f"rho_{s}" for s in "ab"] + [f"base_{s}" for s in "ab"] + list(L.PASSIVE_TYPES)
    assert sorted(calls) == sorted((name, (len(states),)) for name in names)
    sources = [e.rate for e in op.entries if e.rate is not None]
    assert len(sources) == 4 and len(set(map(id, sources))) == 2
    rates = op.rates(*np.array(states).T)
    for k, e in enumerate(op.entries):
        if e.rate is not None:
            assert rates[k].tolist() == [e.rate(np.array([pa]), np.array([pb]))[0]
                                         for pa, pb in states]


@pytest.mark.parametrize("factor", [L.ConstantRate(0.7), L.SpreadPlusRate(1.3),
                                    L.PriceSquareRate(0.5, "a"), L.PriceSquareRate(2.0, "b")],
                         ids=["constant", "spread_plus", "square_a", "square_b"])
def test_factors_are_elementwise(factor):
    # the premise of one factor call on a whole (M+1, R) path: the same
    # bytes as one call per step and one call per element
    rng = np.random.default_rng(28)
    pa, pb = rng.normal(0.2, 1.0, (2, 9, 6))
    whole = factor(pa, pb)
    rows = np.stack([factor(pa[m], pb[m]) for m in range(9)])
    elems = np.array([[factor(np.array([a]), np.array([b]))[0] for a, b in zip(ra, rb)]
                      for ra, rb in zip(pa, pb)])
    assert whole.shape == pa.shape
    assert whole.tobytes() == rows.tobytes() == elems.tobytes()


def test_price_square_rate_rejects_an_unknown_side():
    # any side but "a" read the bid price
    with pytest.raises(ValueError, match="side"):
        L.PriceSquareRate(1.0, "c")


def test_noise_coarsening_preserves_variance():
    noise = L.make_noise(3, 64, 1000)
    coarse = L.coarsen_noise(noise, 4)
    assert coarse.shape == (16, 2, 1000)
    assert coarse.std() == pytest.approx(1.0, abs=0.02)
    with pytest.raises(ValueError):
        L.coarsen_noise(noise, 5)


def test_horizon_must_align_with_step():
    params = frozen_prices_params()
    flat = lambda x: np.zeros_like(np.asarray(x, dtype=float))
    init = L.make_initial_state(params, 1.0, -1.0, flat, flat)
    with pytest.raises(ValueError, match="multiple"):
        L.LimitEngine(params, init, 1.0, 0.3)


@pytest.mark.parametrize("horizon, dt, name", [
    (1.0, 0.0, "dt"), (1.0, -0.1, "dt"), (1.0, math.nan, "dt"), (1.0, math.inf, "dt"),
    (0.0, 0.1, "horizon"), (-1.0, 0.1, "horizon"), (math.nan, 0.1, "horizon"),
    (math.inf, 0.1, "horizon"),
])
def test_step_and_horizon_must_be_positive_and_finite(horizon, dt, name):
    params = frozen_prices_params()
    flat = lambda x: np.zeros_like(np.asarray(x, dtype=float))
    init = L.make_initial_state(params, 1.0, -1.0, flat, flat)
    with pytest.raises(ValueError, match=rf"^{name} must be positive and finite"):
        L.LimitEngine(params, init, horizon, dt)
    with pytest.raises(ValueError, match=rf"^{name} must be positive and finite"):
        L.solve_paths(params, init, horizon, dt, seed=1)


def test_empty_ensemble_rejected():
    params = frozen_prices_params()
    flat = lambda x: np.zeros_like(np.asarray(x, dtype=float))
    init = L.make_initial_state(params, 1.0, -1.0, flat, flat, n_paths=0)
    with pytest.raises(ValueError, match="n_paths"):
        L.solve_paths(params, init, 0.5, 1e-2, seed=1)


def test_volume_grid_takes_the_distance_spacing(family):
    lp = family.limit_params(n_x=113)
    h = lp.grid.h
    rest = (family.bid_price0, family.ask_volume0, family.bid_volume0)
    lo = family.bid_price0 - lp.grid.half_width - 2.0
    # a span that is a whole number of steps keeps its linspace bit for bit
    on = L.make_initial_state(lp, family.ask_price0, *rest)
    hi = family.ask_price0 + lp.grid.half_width + 2.0
    assert np.array_equal(on.v_x, np.linspace(lo, hi, 197))
    # any other span extends outward to the next node at the distance spacing
    off = L.make_initial_state(lp, 0.33, *rest)
    hi = 0.33 + lp.grid.half_width + 2.0
    assert off.v_x[0] == lo and off.v_x[-2] < hi <= off.v_x[-1]
    assert np.allclose(np.diff(off.v_x), h, rtol=1e-12, atol=0.0)
    # far from the origin the node values round at their own scale
    far = L.make_initial_state(lp, 1000.33, 1000.1, *rest[1:])
    L.LimitEngine(lp, far, 0.01, 1e-3)


def test_engine_rejects_volume_grids_off_the_distance_spacing():
    params = frozen_prices_params()
    flat = lambda x: np.zeros_like(np.asarray(x, dtype=float))
    init = L.make_initial_state(params, 1.0, -1.0, flat, flat)
    x = init.v_x
    for bad_x in (x[:1], np.linspace(x[0], x[-1], x.size + 1), np.delete(x, 3)):
        bad = L.LimitState(init.p_a, init.p_b, bad_x, flat(bad_x)[None, :],
                           flat(bad_x)[None, :])
        with pytest.raises(ValueError, match="volume grid"):
            L.LimitEngine(params, bad, 0.5, 1e-2)


def test_solve_paths_rejects_misshaped_noise(family):
    lp = family.limit_params(n_x=61)
    init = L.make_initial_state(lp, family.ask_price0, family.bid_price0,
                                family.ask_volume0, family.bid_volume0, n_paths=5)
    # one path's increments would broadcast to all five paths; a short
    # array would run out partway through the run
    for noise in (L.make_noise(3, 10, 1), L.make_noise(3, 4, 5)):
        with pytest.raises(ValueError, match=r"noise must be shaped"):
            L.solve_paths(lp, init, 0.02, 2e-3, noise=noise)
    run = L.solve_paths(lp, init, 0.02, 2e-3, noise=L.make_noise(3, 10, 5))
    assert not np.array_equal(run.p_a[:, 0], run.p_a[:, 1])
