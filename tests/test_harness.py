import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as sps

from hawkeslob import harness
from hawkeslob import limit as L
from hawkeslob import micro
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
    _draw_indices,
    _var_gap_rows,
    _w1_rows,
)
from hawkeslob.micro import PASSIVE_TYPES, simulate_book
from hawkeslob.rng import stream_rng

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

    @pytest.mark.parametrize("na, nb", [(100, 200), (400, 2000), (1, 50), (50, 1)])
    @pytest.mark.parametrize("seed", [101, 9137])
    def test_one_draw_matches_the_loop_on_harness_streams(self, na, nb, seed):
        # the experiment's own Philox streams: the indices of one broadcast
        # draw equal the loop's, and the stream stops where the loop's does
        rng = np.random.default_rng(na + nb)
        a, b = rng.normal(0.3, 0.1, na), rng.normal(0.31, 0.12, nb)
        cases = [(_w1_rows, reference_w1)]
        if min(na, nb) > 1:
            cases.append((_var_gap_rows, lambda x, y: abs(x.var(ddof=1) - y.var(ddof=1))))
        for rows, stat in cases:
            got_rng, ref_rng = stream_rng(seed, 0, "harness"), stream_rng(seed, 0, "harness")
            got = _bootstrap_se(rows, a, b, 200, got_rng)
            assert got == loop_bootstrap_se(stat, a, b, 200, ref_rng)
            assert got_rng.random(3).tolist() == ref_rng.random(3).tolist()

    def test_one_element_samples_draw_nothing(self):
        # numpy draws no variate for a bound of one, so the stream is where
        # it started
        rng = stream_rng(9137, 0, "harness")
        assert _bootstrap_se(_w1_rows, [0.3], [0.2], 200, rng) == 0.0
        assert rng.random() == stream_rng(9137, 0, "harness").random()


def sample_bounds(na, nb):
    return np.repeat(np.array([na, nb], dtype=np.int64), [na, nb])


def assert_draws_like_integers(highs, rows, got_rng, ref_rng):
    """``_draw_indices`` gives the indices of ``rng.integers(0, highs)`` on
    the broadcast bounds, and leaves the generator where it does."""
    got = _draw_indices(got_rng, highs, rows)
    ref = ref_rng.integers(0, np.broadcast_to(highs, (rows, highs.size)))
    assert got.dtype == ref.dtype and got.shape == ref.shape
    assert np.array_equal(got, ref)
    assert repr(got_rng.bit_generator.state) == repr(ref_rng.bit_generator.state)


def rejected_words(highs, rows, rng):
    """How many of the words a multiply-shift draw of ``highs`` would take
    from ``rng`` numpy rejects."""
    n = highs.astype(np.uint64)
    m = rng.integers(0, 2**32, size=(rows, highs.size), dtype=np.uint64) * n
    return int(np.sum((m & 0xFFFFFFFF) < (2**32 - n) % n))


class TestDrawIndices:
    @pytest.mark.parametrize("na, nb", [(100, 200), (400, 2000), (37, 50), (2, 3)])
    def test_matches_integers_on_harness_streams(self, na, nb):
        highs = sample_bounds(na, nb)
        for seed in range(200):
            assert_draws_like_integers(highs, 200, stream_rng(seed, 0, "harness"),
                                       stream_rng(seed, 0, "harness"))
        if (na, nb) == (400, 2000):
            # about one seed in ten rejects a word, so both paths ran
            hit = sum(rejected_words(highs, 200, stream_rng(s, 0, "harness")) > 0 for s in range(200))
            assert 0 < hit < 200

    @pytest.mark.parametrize("highs", [[1] * 4, [1] + [50] * 50, [50] * 50 + [1]])
    def test_a_bound_of_one_takes_no_word(self, highs):
        highs = np.array(highs, dtype=np.int64)
        assert_draws_like_integers(highs, 200, stream_rng(9137, 0, "harness"),
                                   stream_rng(9137, 0, "harness"))

    @pytest.mark.parametrize("highs", [sample_bounds(37, 50), np.array([2**32, 3], dtype=np.int64)])
    def test_odd_word_alignment(self, highs):
        # one bounded draw takes one 32-bit word and leaves the other half
        # of the generator's 64-bit output buffered
        got_rng, ref_rng = stream_rng(101, 0, "harness"), stream_rng(101, 0, "harness")
        for rng in (got_rng, ref_rng):
            rng.integers(0, 7, size=1)
        assert got_rng.bit_generator.state["has_uint32"] == 1
        assert_draws_like_integers(highs, 200, got_rng, ref_rng)

    def test_rejected_words_fall_back(self):
        # about half the words are rejected for a bound just above 2**31
        highs = np.full(30, 2**31 + 1, dtype=np.int64)
        assert rejected_words(highs, 10, stream_rng(7, 0, "harness")) > 100
        assert_draws_like_integers(highs, 10, stream_rng(7, 0, "harness"),
                                   stream_rng(7, 0, "harness"))


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
        # the volume errors read the terminal volumes: the limit runs untracked
        assert limit_run.v_f == {} and limit_run.eta_f == {}

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
        got = harness._run_level(fam, level, 0.05, fns, [stream_rng(66, r, "micro") for r in range(60)])
        monkeypatch.setattr(harness, "simulate_books", lambda params, horizon, rngs: [
            simulate_book(params, horizon, rng) for rng in rngs])
        ref = harness._run_level(fam, level, 0.05, fns, [stream_rng(66, r, "micro") for r in range(60)])

        assert len(runs) == 60 and sum(run.accepted for run in runs) > 60
        for run in runs:
            assert run.accepted <= run.candidates
            assert np.all(run.ask_ticks >= run.bid_ticks)
            assert np.isfinite(run.final_state.p_a) and np.isfinite(run.final_state.p_b)
        assert got.n_events_mean == ref.n_events_mean
        for name in ("p_a_terminal", "load_terminal", "sup_d11"):
            assert getattr(got, name).tobytes() == getattr(ref, name).tobytes(), name
        assert got.v_inner["g"].tobytes() == ref.v_inner["g"].tobytes()
        # one evaluation of the test function over every ledger reads as one
        # evaluation per ledger did
        f = fns[0].fn
        per_ledger = []
        for run in runs:
            led = run.final_state.ask_vol
            mids = (np.arange(led.base, led.base + led.values.size) + 0.5) * led.delta_x
            per_ledger.append(float(np.sum(led.values * np.asarray(f(mids))) * led.delta_x))
        assert got.v_inner["g"].tolist() == per_ledger

    def test_each_level_starts_its_streams_afresh(self, monkeypatch):
        # the micro streams are derived once per experiment; a level whose
        # replicates each drew more than one block of candidate rows leaves
        # the next level to read them from their start again
        fam = make_family()
        lockstep, levels = harness.simulate_books, []

        def recorded(params, horizon, rngs):
            out = lockstep(params, horizon, rngs)
            levels.append((params, out))
            return out

        monkeypatch.setattr(harness, "simulate_books", recorded)
        plan = ExperimentPlan(levels=(0, 1, 2), replicates=100, horizon=0.8, limit_paths=100,
                              limit_dt=1e-2, n_boot=2)
        run_convergence(plan, fam, seed=69)
        assert min(run.candidates for run in levels[1][1]) > micro.BLOCK_ROWS
        for params, runs in levels:
            fresh = lockstep(params, plan.horizon, [stream_rng(69, r, "micro") for r in range(100)])
            for run, ref in zip(runs, fresh):
                for name in ("times", "labels", "xs", "zs"):
                    assert getattr(run.events, name).tobytes() == getattr(ref.events, name).tobytes()
                assert run.candidates == ref.candidates

    @pytest.mark.parametrize("n_workers", [0, 2])
    def test_one_process_only_raises_before_the_limit_solve(self, monkeypatch, n_workers):
        def no_limit(*args, **kwargs):
            raise AssertionError("the limit solve started")

        monkeypatch.setattr(harness.limit_mod, "solve_paths", no_limit)
        with pytest.raises(ValueError, match="one process"):
            run_convergence(_tiny_plan(), make_family(), seed=67, n_workers=n_workers)

    def test_plan_validation(self):
        with pytest.raises(ValueError, match="replicates"):
            ExperimentPlan(levels=(0, 1, 2), replicates=50)
        with pytest.raises(ValueError, match="levels"):
            ExperimentPlan(levels=(0, 1), replicates=200)
        # a level at or below the one before it reads the monotonicity test
        # in another direction, or twice at one level
        for levels in ((2, 1, 0), (0, 0, 1), (0, 2, 1, 3)):
            with pytest.raises(ValueError, match="strictly increasing"):
                ExperimentPlan(levels=levels, replicates=100)
        # one limit path gives NaN standard errors, which pass every comparison
        for limit_paths in (1, 99):
            with pytest.raises(ValueError, match="limit paths"):
                ExperimentPlan(levels=(0, 1, 2), replicates=100, limit_paths=limit_paths)

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
