"""One-sided reference configurations shared by the unit and acceptance tests.

Both freeze the bid side (zero rates, the bid price parked far below) and
drive only the ask coordinate, matching the one-sided closed-form models:
quadratic price feedback into the intensity for the exponential-kernel
intensity config, and matched placement/cancellation flow with gain +1/-1
for the book-surface config.
"""

import numpy as np

from hawkeslob import limit as L
from hawkeslob.families import ExponentialProfile, GaussianProfile, ZeroSpatialProfile
from hawkeslob.volterra import SpatialGrid


def _zero_exo(pa, pb):
    return np.zeros_like(np.asarray(pa, dtype=float))


def one_sided_mu_config(sigma2: float = 1.0, kappa: float = 1.0, p0: float = 1.0):
    """Price diffusion |P| sqrt(mu) with mu = sigma2 + int e^{-kappa lag} |P|^2 mu.

    Realized with rho_a = |p|^2 / 2 and a doubled-amplitude total kernel so
    the product reproduces the written feedback exactly.
    """
    grid = SpatialGrid(1.0, 3)
    zprof = ZeroSpatialProfile()
    params = L.LimitParams(
        grid=grid,
        rho={"a": L.PriceSquareRate(0.5, "a"), "b": L.ConstantRate(0.0)},
        rate_slope={"a": L.ConstantRate(0.0), "b": L.ConstantRate(0.0)},
        base_rate={"a": L.ConstantRate(sigma2), "b": L.ConstantRate(0.0)},
        base_drift={"a": L.ConstantRate(0.0), "b": L.ConstantRate(0.0)},
        base_passive={pt: (_zero_exo, zprof) for pt in L.PASSIVE_TYPES},
        place_gain={"a": 0.0, "b": 0.0},
        cancel_gain={"a": 0.0, "b": 0.0},
        act_from_act={("a", "a"): ExponentialProfile(2.0, kappa)},
    )
    zero_v = lambda x: np.zeros_like(np.asarray(x, dtype=float))
    init = L.make_initial_state(params, p0, -5.0, zero_v, zero_v, n_paths=1)
    return params, init, (sigma2, kappa, p0)


def one_sided_book_config(c: float = 0.4, kappa: float = 1.0, p0: float = 1.0,
                          amp: float = 0.5, n_x: int = 201, half_width: float = 5.0):
    """Matched placement/cancellation book with gaussian spatial shape.

    The spatial factors are centered at -p0 so that, with zero noise and the
    price frozen at p0, the volume drift seen at absolute position x is
    exp(-x^2) times the scalar intensity, the shape of the closed-form
    surface.  Returns (params, initial-state builder, kernel for the
    resolvent, the initial volume function).
    """
    grid = SpatialGrid(half_width, n_x)
    zprof = ZeroSpatialProfile()
    g_center = GaussianProfile(1.0, center=-p0, width=1.0)
    kern_half = ExponentialProfile(c, kappa)
    kern_total = ExponentialProfile(2 * c, kappa)

    def v0(x):
        return 1.0 + amp * np.exp(-((np.asarray(x, dtype=float) - p0) ** 2))

    params = L.LimitParams(
        grid=grid,
        rho={"a": L.ConstantRate(0.5), "b": L.ConstantRate(0.0)},
        rate_slope={"a": L.ConstantRate(0.0), "b": L.ConstantRate(0.0)},
        base_rate={"a": L.PriceSquareRate(1.0, "a"), "b": L.ConstantRate(0.0)},
        base_drift={"a": L.ConstantRate(0.0), "b": L.ConstantRate(0.0)},
        base_passive={
            "a_lo": (L.PriceSquareRate(1.0, "a"), g_center),
            "a_cx": (L.PriceSquareRate(1.0, "a"), g_center),
            "b_lo": (_zero_exo, zprof),
            "b_cx": (_zero_exo, zprof),
        },
        place_gain={"a": 1.0, "b": 0.0},
        cancel_gain={"a": -1.0, "b": 0.0},
        act_from_act={("a", "a"): kern_total},
        pas_from_act={
            ("a_lo", "a"): (g_center, kern_total),
            ("a_cx", "a"): (g_center, kern_total),
        },
    )

    def build_init(n_paths: int = 1):
        ones = lambda x: np.ones_like(np.asarray(x, dtype=float))
        return L.make_initial_state(params, p0, -9.0, v0, ones, n_paths=n_paths, v_pad=2.0)

    return params, build_init, kern_half, v0


def canonical_spread_config(mu0: float = 0.3, n_x: int = 31):
    """Two-sided config with rho = (spread)^+ and unit rescaled difference.

    The canonical instance of the near-zero-spread uniqueness condition,
    with equality in the bound.
    """
    grid = SpatialGrid(1.0, n_x)
    zprof = ZeroSpatialProfile()
    params = L.LimitParams(
        grid=grid,
        rho={s: L.SpreadPlusRate(1.0) for s in "ab"},
        rate_slope={s: L.ConstantRate(1.0) for s in "ab"},
        base_rate={s: L.ConstantRate(mu0) for s in "ab"},
        base_drift={s: L.ConstantRate(0.0) for s in "ab"},
        base_passive={pt: (_zero_exo, zprof) for pt in L.PASSIVE_TYPES},
        place_gain={"a": 0.0, "b": 0.0},
        cancel_gain={"a": 0.0, "b": 0.0},
    )
    flat = lambda x: np.zeros_like(np.asarray(x, dtype=float))
    def build_init(n_paths: int = 1, spread0: float = 0.2):
        return L.make_initial_state(params, 0.5 * spread0, -0.5 * spread0,
                                    flat, flat, n_paths=n_paths)
    return params, build_init
