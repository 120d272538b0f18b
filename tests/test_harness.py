import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as sps

from hawkeslob import harness
from hawkeslob import limit as L
from hawkeslob.families import GaussianProfile
from hawkeslob.harness import (
    ExperimentPlan,
    GeneratorTestSpec,
    ask_price_times_volume,
    martingale_residual,
    moment_diagnostics,
    run_convergence,
    squared_ask_price,
    wasserstein1,
    _bootstrap_se,
    _var_gap_rows,
    _w1_rows,
)
from hawkeslob.micro import PASSIVE_TYPES, simulate_book

from conftest import make_family
from oracle_configs import canonical_spread_config


class TestWasserstein:
    def test_identical_samples(self):
        x = np.array([3.0, 1.0, 2.0])
        assert wasserstein1(x, x) == 0.0

    def test_shift(self):
        x = np.random.default_rng(0).normal(size=1000)
        assert wasserstein1(x, x + 0.7) == pytest.approx(0.7, abs=1e-12)

    def test_shifted_gaussians(self):
        rng = np.random.default_rng(1)
        a = rng.normal(0.0, 1.0, 100000)
        b = rng.normal(1.0, 1.0, 100000)
        assert wasserstein1(a, b) == pytest.approx(1.0, abs=0.02)

    @given(
        st.lists(st.floats(-10, 10), min_size=1, max_size=40),
        st.lists(st.floats(-10, 10), min_size=1, max_size=40),
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_reference_implementation(self, a, b):
        ours = wasserstein1(a, b)
        ref = sps.wasserstein_distance(a, b)
        assert ours == pytest.approx(ref, rel=1e-9, abs=1e-9)

    @given(
        st.lists(st.floats(-5, 5), min_size=2, max_size=25),
        st.lists(st.floats(-5, 5), min_size=2, max_size=25),
        st.lists(st.floats(-5, 5), min_size=2, max_size=25),
    )
    @settings(max_examples=60, deadline=None)
    def test_metric_axioms(self, a, b, c):
        d_ab = wasserstein1(a, b)
        d_ba = wasserstein1(b, a)
        assert d_ab == pytest.approx(d_ba, rel=1e-9, abs=1e-12)
        d_ac = wasserstein1(a, c)
        d_cb = wasserstein1(c, b)
        assert d_ab <= d_ac + d_cb + 1e-9

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            wasserstein1([], [1.0])


def reference_w1(a, b):
    """The one-pair transport distance, summed as one array."""
    a, b = np.sort(np.asarray(a, dtype=float)), np.sort(np.asarray(b, dtype=float))
    if a.size == b.size:
        return float(np.mean(np.abs(a - b)))
    qs = np.union1d(np.arange(1, a.size) / a.size, np.arange(1, b.size) / b.size)
    qs = np.concatenate([[0.0], qs, [1.0]])
    mids = 0.5 * (qs[1:] + qs[:-1])
    ia = np.minimum((mids * a.size).astype(int), a.size - 1)
    ib = np.minimum((mids * b.size).astype(int), b.size - 1)
    return float(np.sum(np.diff(qs) * np.abs(a[ia] - b[ib])))


def loop_bootstrap_se(stat, a, b, n_boot, rng):
    """Bootstrap standard error drawn and evaluated one draw at a time."""
    vals = np.empty(n_boot)
    for i in range(n_boot):
        ra = a[rng.integers(0, a.size, a.size)]
        rb = b[rng.integers(0, b.size, b.size)]
        vals[i] = stat(ra, rb)
    return float(vals.std(ddof=1))


class TestStackedBootstrap:
    @pytest.mark.parametrize("na, nb", [(100, 100), (100, 200), (400, 2000), (37, 50)])
    def test_matches_per_draw_loop(self, na, nb):
        rng = np.random.default_rng(na * nb)
        a, b = rng.normal(0.3, 0.1, na), rng.normal(0.31, 0.12, nb)
        assert wasserstein1(a, b) == reference_w1(a, b)
        cases = [(_var_gap_rows, lambda x, y: abs(x.var(ddof=1) - y.var(ddof=1))),
                 (_w1_rows, reference_w1)]
        for rows, stat in cases:
            got = _bootstrap_se(rows, a, b, 200, np.random.default_rng(5))
            assert got == loop_bootstrap_se(stat, a, b, 200, np.random.default_rng(5))


@pytest.fixture(scope="module")
def spread_run():
    params, build_init = canonical_spread_config(mu0=0.3)
    f = L.SpatialTestFn("g", lambda x: np.exp(-(np.asarray(x) ** 2)))
    init = build_init(n_paths=600, spread0=0.2)
    run = L.solve_paths(params, init, 1.0, 2e-3, seed=55, track=[f])
    return run, f


class TestMartingaleResidual:

    def test_constant_observable_is_exactly_zero(self, spread_run):
        run, _f = spread_run
        spec = GeneratorTestSpec(name="const", g=lambda pa, pb, va, vb: np.ones_like(pa))
        rep = martingale_residual(run, spec, [0.5, 1.0])
        assert rep.means == [0.0, 0.0]
        assert rep.passed

    def test_driftless_price_observable(self, spread_run):
        run, _f = spread_run
        spec = GeneratorTestSpec(
            name="p_a",
            g=lambda pa, pb, va, vb: pa,
            dp={"a": lambda pa, pb, va, vb: np.ones_like(pa)},
        )
        rep = martingale_residual(run, spec, [0.5, 1.0])
        assert rep.passed

    def test_squared_price_ito_identity(self, spread_run):
        run, _f = spread_run
        rep = martingale_residual(run, squared_ask_price(), [0.5, 1.0])
        assert rep.passed

    def test_mixed_price_volume(self, spread_run):
        run, f = spread_run
        rep = martingale_residual(run, ask_price_times_volume(f), [0.5, 1.0])
        assert rep.passed

    def test_broken_generator_detected(self, spread_run):
        # wrong second-derivative coefficient must fail the centering
        run, _f = spread_run
        spec = GeneratorTestSpec(
            name="bad",
            g=lambda pa, pb, va, vb: pa**2,
            dp={"a": lambda pa, pb, va, vb: 2.0 * pa},
            d2p={"a": lambda pa, pb, va, vb: 4.0 * np.ones_like(pa)},
        )
        rep = martingale_residual(run, spec, [1.0])
        assert not rep.passed


def _tiny_plan(fns=()):
    return ExperimentPlan(
        levels=(0, 1, 2),
        replicates=100,
        horizon=0.5,
        limit_paths=400,
        limit_dt=2e-3,
        test_fns=fns,
        n_boot=50,
    )


class TestConvergenceHarness:
    def test_trivial_config_all_errors_zero(self):
        fam = make_family(
            base_active={"a": 0.0, "b": 0.0},
            base_passive={pt: (0.0, GaussianProfile(1.0)) for pt in PASSIVE_TYPES},
            act_from_act={},
        )
        report, levels, _ = run_convergence(_tiny_plan(), fam, seed=60)
        for stat in report.statistics:
            assert np.allclose(stat.errors, 0.0)
        assert report.passed

    def test_zero_kernel_symmetric_mean_errors_within_noise(self):
        fam = make_family(act_from_act={})
        f = L.SpatialTestFn("g", lambda x: np.exp(-((np.asarray(x) - 0.5) ** 2)))
        report, levels, limit_run = run_convergence(_tiny_plan([f]), fam, seed=61)
        mean_stat = next(s for s in report.statistics if s.name == "terminal_mean_error")
        # both sides are drift-symmetric: mean errors are pure noise
        for err, se in zip(mean_stat.errors, mean_stat.ses):
            assert err < 3 * se
        names = {s.name for s in report.statistics}
        assert "volume_g_error" in names

    def test_report_deterministic_given_seed(self):
        fam = make_family(act_from_act={})
        r1, _, _ = run_convergence(_tiny_plan(), fam, seed=62)
        r2, _, _ = run_convergence(_tiny_plan(), fam, seed=62)
        assert r1.to_dict()["statistics"] == r2.to_dict()["statistics"]

    @pytest.mark.parametrize("level", [0, 1, 2])
    def test_level_equals_a_loop_over_single_streams(self, monkeypatch, level):
        # a level runs its replicates in lockstep; its statistics equal those
        # of simulate_book stream by stream, and every run is a sane book
        fam = make_family()
        fns = [L.SpatialTestFn("g", lambda x: np.exp(-((np.asarray(x) - 0.5) ** 2)))]
        lockstep, runs = harness.simulate_books, []

        def recorded(params, horizon, rngs):
            out = lockstep(params, horizon, rngs)
            runs.extend(out)
            return out

        monkeypatch.setattr(harness, "simulate_books", recorded)
        got = harness._run_level(fam, level, 60, 0.05, fns, seed=66)
        monkeypatch.setattr(harness, "simulate_books", lambda params, horizon, rngs: [
            simulate_book(params, horizon, rng) for rng in rngs])
        ref = harness._run_level(fam, level, 60, 0.05, fns, seed=66)

        assert len(runs) == 60 and sum(run.accepted for run in runs) > 60
        for run in runs:
            assert run.accepted <= run.candidates
            assert np.all(run.ask_ticks >= run.bid_ticks)
            assert np.isfinite(run.final_state.p_a) and np.isfinite(run.final_state.p_b)
        assert got.n_events_mean == ref.n_events_mean
        for name in ("p_a_terminal", "load_terminal", "sup_d11"):
            assert getattr(got, name).tobytes() == getattr(ref, name).tobytes(), name
        assert got.v_inner["g"].tobytes() == ref.v_inner["g"].tobytes()

    def test_plan_validation(self):
        with pytest.raises(ValueError, match="replicates"):
            ExperimentPlan(levels=(0, 1, 2), replicates=50)
        with pytest.raises(ValueError, match="levels"):
            ExperimentPlan(levels=(0, 1), replicates=200)

    @pytest.mark.parametrize("n_boot", [0, 1])
    def test_plan_needs_two_bootstrap_draws(self, n_boot):
        with pytest.raises(ValueError, match="bootstrap"):
            ExperimentPlan(levels=(0, 1, 2), replicates=200, n_boot=n_boot)

    def test_plan_rejects_negative_slack(self):
        with pytest.raises(ValueError, match="slack"):
            ExperimentPlan(levels=(0, 1, 2), replicates=200, se_slack=-0.5)


class TestMomentDiagnostics:
    def test_zero_rate_load_is_one(self):
        fam = make_family(
            base_active={"a": 0.0, "b": 0.0},
            base_passive={pt: (0.0, GaussianProfile(1.0)) for pt in PASSIVE_TYPES},
            act_from_act={},
        )
        _, levels, _ = run_convergence(_tiny_plan(), fam, seed=63)
        rep = moment_diagnostics(levels)
        for row in rep.rows:
            assert row["moment"] == pytest.approx(1.0)
        assert not rep.blow_up

    def test_zero_kernel_load_mean_analytic(self):
        # E[J(T)] = 1 + T (sum of active contributions + passive masses);
        # active: dx^2 * rho_IJ * base_rate / dx^2 summed over the four types,
        # with spread-linear factors evaluated along the path, so check the
        # passive-dominated part against the analytic value loosely
        fam = make_family(act_from_act={})
        _, levels, _ = run_convergence(_tiny_plan(), fam, seed=64)
        rep = moment_diagnostics(levels)
        passive_mass = sum(fac * prof.mass(fam.half_width)
                           for fac, prof in fam.base_passive.values())
        lower = 1.0 + 0.5 * passive_mass * 0.8
        for row in rep.rows:
            if row["p"] == 1:
                assert row["moment"] > lower
        assert not rep.blow_up

    def test_blow_up_flagged(self):
        class FakeLevel:
            def __init__(self, load):
                self.level = 0
                self.load_terminal = np.asarray(load)
                self.sup_d11 = np.ones(4)

        levels = [FakeLevel([1.0] * 8), FakeLevel([3.0] * 8)]
        rep = moment_diagnostics(levels)
        assert rep.blow_up
