import math

import numpy as np
import pytest

from hawkeslob.families import (
    ConstantProfile,
    ExponentialProfile,
    GammaProfile,
    GaussianProfile,
    UniformProfile,
)
from hawkeslob.volterra import (
    BlockKernelOp,
    ExogenousField,
    FieldLayout,
    NumericalFailureError,
    SpatialGrid,
    _norms,
    _trapezoid_conv,
    grid_to_grid,
    grid_to_scalar,
    neumann_resolvent,
    renewal_resolvent,
    renewal_residual,
    resolvent_report,
    scalar_to_grid,
    scalar_to_scalar,
    solve_forward,
)

SCALAR = FieldLayout(("mu",))


def scalar_op(c=1.0):
    return BlockKernelOp(SCALAR, [scalar_to_scalar(0, 0, ConstantProfile(c))])


def test_spatial_grid_validation():
    with pytest.raises(ValueError):
        SpatialGrid(1.0, 4)  # even
    with pytest.raises(ValueError):
        SpatialGrid(1.0, 1)
    g = SpatialGrid(2.0, 5)
    assert g.h == pytest.approx(1.0)
    assert 0.0 in g.x
    assert g.quad_weights.sum() == pytest.approx(4.0)


def test_zero_operator_returns_exogenous():
    op = BlockKernelOp(SCALAR, [])
    exo = ExogenousField.constant(SCALAR, [1.7])
    t = np.linspace(0, 1, 101)
    sol = solve_forward(op, exo, None, t)
    assert np.allclose(sol.scalars()[:, 0], 1.7)


def test_scalar_constant_kernel_matches_exponential():
    # D = 1 + c int_0^t D  has the closed form e^{c t}
    t = np.linspace(0, 1, 1001)
    sol = solve_forward(scalar_op(1.0), ExogenousField.constant(SCALAR, [1.0]), None, t)
    rel = np.abs(sol.scalars()[:, 0] - np.exp(t)) / np.exp(t)
    assert rel.max() <= 1e-4


def test_self_convergence_order():
    # halving the step shrinks the error by at least 1.9x against a fine run
    op = scalar_op(1.0)
    exo = ExogenousField.constant(SCALAR, [1.0])

    def err(n):
        t = np.linspace(0, 1, n + 1)
        sol = solve_forward(op, exo, None, t)
        return np.abs(sol.scalars()[:, 0] - np.exp(t)).max()

    e1, e2 = err(100), err(200)
    assert e1 / e2 >= 1.9


def test_linearity():
    grid = SpatialGrid(2.0, 21)
    lay = FieldLayout(("mu",), ("lam",), grid)
    op = BlockKernelOp(lay, [
        scalar_to_scalar(0, 0, ExponentialProfile(0.5, 1.0)),
        grid_to_scalar(0, 0, ConstantProfile(0.3), UniformProfile(1.0)),
        scalar_to_grid(0, 0, ExponentialProfile(0.2, 2.0), GaussianProfile(1.0)),
        grid_to_grid(0, 0, ConstantProfile(0.1), GaussianProfile(0.5), UniformProfile(1.0)),
    ])
    t = np.linspace(0, 1, 101)
    exo1 = ExogenousField.constant(lay, [1.0], [GaussianProfile(0.5)])
    exo2 = ExogenousField.constant(lay, [0.3], [UniformProfile(0.2)])

    class _Sum:
        layout = lay

        @staticmethod
        def rows(p_a, p_b):
            return exo1.rows(p_a, p_b) + exo2.rows(p_a, p_b)

    s1 = solve_forward(op, exo1, None, t)
    s2 = solve_forward(op, exo2, None, t)
    s12 = solve_forward(op, _Sum(), None, t)
    assert np.allclose(s12.scalars(), s1.scalars() + s2.scalars(), atol=1e-12)
    assert np.allclose(s12.grids(), s1.grids() + s2.grids(), atol=1e-12)


def test_nonnegativity_and_gronwall_bound():
    grid = SpatialGrid(2.0, 41)
    lay = FieldLayout(("mu_a", "mu_b"), ("lam",), grid)
    op = BlockKernelOp(lay, [
        scalar_to_scalar(0, 1, ExponentialProfile(0.5, 1.0)),
        scalar_to_scalar(1, 0, ExponentialProfile(0.5, 1.0)),
        scalar_to_grid(2 - 2, 0, ExponentialProfile(0.4, 1.0), GaussianProfile(1.0)),
        grid_to_scalar(1, 0, ConstantProfile(0.2), UniformProfile(1.0)),
    ])
    exo = ExogenousField.constant(lay, [1.0, 0.5], [GaussianProfile(0.3)])
    T = 2.0
    t = np.linspace(0, T, 401)
    sol = solve_forward(op, exo, None, t)
    assert sol.clamp_count == 0
    assert np.all(sol.scalars() >= 0) and np.all(sol.grids() >= 0)
    # discrete mirror of the a-priori bound sup ||D|| <= (1 + c T) e^{c T} sup ||Dhat||
    c0 = op.max_row_mass()
    exo_sup = _norms(lay, exo.rows(np.zeros(t.size), np.zeros(t.size)), 1, 1).max()
    bound = (1 + c0 * T) * math.exp(c0 * T) * exo_sup
    assert sol.norms(1, 1).max() <= bound


def test_non_finite_detection():
    # an operator with huge mass blows up past the float range
    op = scalar_op(80.0)
    exo = ExogenousField.constant(SCALAR, [1e300])
    t = np.linspace(0, 12, 1201)
    with pytest.raises(NumericalFailureError):
        solve_forward(op, exo, None, t)


class TestNeumann:
    def test_zero_kernel(self):
        op = BlockKernelOp(SCALAR, [])
        exo = ExogenousField.constant(SCALAR, [2.0])
        t = np.linspace(0, 1, 51)
        res = neumann_resolvent(op, exo, None, t, depth=3)
        assert res.term_norms.max() == 0.0
        assert np.allclose(res.solution()[:, 0], 2.0)

    def test_depth_one_is_first_picard_term(self):
        # constant kernel, unit forcing: first term is exactly c * t
        op = scalar_op(0.7)
        exo = ExogenousField.constant(SCALAR, [1.0])
        t = np.linspace(0, 1, 201)
        res = neumann_resolvent(op, exo, None, t, depth=1)
        assert np.allclose(res.term_values[0, :, 0], 0.7 * t, atol=1e-12)

    def test_depth_20_matches_time_stepping(self):
        op = scalar_op(1.0)
        exo = ExogenousField.constant(SCALAR, [1.0])
        t = np.linspace(0, 1, 1001)
        stepped = solve_forward(op, exo, None, t).scalars()[:, 0]
        res = neumann_resolvent(op, exo, None, t, depth=20)
        series = res.solution()[:, 0]
        assert np.max(np.abs(series - stepped)) <= 1e-6
        assert res.converged
        # geometric decay of the term norms beyond c0 * T
        ratios = res.ratios()
        assert np.all(ratios[5:] < 0.5)

    def test_non_convergence_flagged(self):
        op = scalar_op(6.0)  # c0 T = 6: norms still growing at depth 4
        exo = ExogenousField.constant(SCALAR, [1.0])
        t = np.linspace(0, 1, 101)
        res = neumann_resolvent(op, exo, None, t, depth=4)
        assert not res.converged


class TestRenewalResolvent:
    def test_zero_kernel(self):
        t = np.linspace(0, 1, 101)
        K = renewal_resolvent(ConstantProfile(0.0), t)
        assert np.allclose(K, 0.0)

    @pytest.mark.parametrize(
        "profile,direct",
        [
            (ConstantProfile(1.0), lambda t: np.exp(t)),
            (ExponentialProfile(0.5, 1.0), lambda t: 0.5 * np.exp(-0.5 * t)),
            (
                GammaProfile(0.5, 1.0),
                lambda t: math.sqrt(0.5) * np.exp(-t) * np.sinh(math.sqrt(0.5) * t),
            ),
        ],
    )
    def test_residual_and_direct_forms(self, profile, direct):
        t = np.linspace(0, 1, 1001)
        K = renewal_resolvent(profile, t)
        assert renewal_residual(profile, t, K) <= 1e-6
        if isinstance(profile, ConstantProfile):
            ref = profile.c * np.exp(profile.c * t)
        else:
            ref = direct(t)
        assert np.max(np.abs(K - ref)) <= 5e-6

    def test_report_emits_alternate_comparison(self):
        t = np.linspace(0, 1, 1001)
        rep = resolvent_report("exponential", {"c": 0.5, "kappa": 1.0}, t)
        assert rep["residual_sup"] <= 1e-6
        assert rep["direct_form_sup_diff"] <= 1e-6
        # the doubled-mass alternate does not solve the equation as written
        assert rep["alternate_form_sup_diff"] > 0.1
        assert "alternate_form" in rep


def test_trapezoid_conv_matches_the_weighted_sum():
    # the convolution form against the product trapezoid rule it replaced:
    # dt * sum_j w_j a(t_m - t_j) b(t_j), with half weights at j = 0 and m
    rng = np.random.default_rng(3)
    n, dt = 57, 0.01
    a, b = rng.random(n), rng.random(n)
    ref = np.zeros(n)
    for m in range(1, n):
        w = np.ones(m + 1)
        w[0] = w[-1] = 0.5
        ref[m] = dt * float((a[m::-1] * w) @ b[: m + 1])
    np.testing.assert_allclose(_trapezoid_conv(a, b, dt), ref, rtol=1e-12, atol=0.0)


def test_field_norms():
    grid = SpatialGrid(1.0, 3)  # weights [0.5, 1, 0.5]
    lay = FieldLayout(("m",), ("g",), grid)
    data = np.array([2.0, 1.0, 1.0, 1.0])  # the scalar slot, then the grid slot
    assert _norms(lay, data, 1, 1) == pytest.approx(2.0 + 2.0)
    assert _norms(lay, data, 2, 2) == pytest.approx(math.sqrt(4.0 + 2.0))


def _price_square(p_a, p_b):
    return np.asarray(p_a, dtype=float) ** 2


def _priced_system():
    """A scalar field whose kernel rate and driving term read the ask price."""
    op = BlockKernelOp(SCALAR, [scalar_to_scalar(0, 0, ExponentialProfile(0.5, 1.0),
                                                 rate=_price_square)])
    return op, ExogenousField(SCALAR, [_price_square], [])


def _solve(solver, op, exo, states, t):
    if solver == "forward":
        return solve_forward(op, exo, states, t, exo_at="prev")
    return neumann_resolvent(op, exo, states, t, depth=2, exo_at="prev")


@pytest.mark.parametrize("solver", ["forward", "neumann"])
@pytest.mark.parametrize("n_states", [5, 15])
def test_state_path_must_match_the_time_grid(solver, n_states):
    # a path of any other length than the grid's is rejected before the
    # solve, neither cut short nor read past its end
    op, exo = _priced_system()
    states = [(1.0 + 0.1 * m, 0.0) for m in range(n_states)]
    with pytest.raises(ValueError, match=f"{n_states} states.*11 nodes"):
        _solve(solver, op, exo, states, np.linspace(0, 1, 11))


@pytest.mark.parametrize("solver", ["forward", "neumann"])
def test_price_factors_need_a_state_path(solver):
    op, exo = _priced_system()
    with pytest.raises(ValueError, match="no state path"):
        _solve(solver, op, exo, None, np.linspace(0, 1, 11))

