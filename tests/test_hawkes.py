import math

import numpy as np
import pytest
from scipy import stats

from hawkeslob import families
from hawkeslob.families import ExponentialProfile, GammaProfile
from hawkeslob.hawkes import (
    EventStream,
    Exogenous,
    HawkesSpec,
    MajorantViolationError,
    MarkSpace,
    MatrixKernel,
    compensated_integral,
    intensity_at,
    make_multivariate,
    simulate_thinning,
)
from hawkeslob.rng import stream_rng

from test_micro import tapered_table


def scalar_spec(mu=1.0, c=0.5, kappa=1.0):
    space = MarkSpace(labels=("e",))
    kern = MatrixKernel([[ExponentialProfile(c, kappa)]])
    return HawkesSpec(space, Exogenous.constant(mu), kern)


def zero_kernel_spec(mu):
    space = MarkSpace(labels=("e",))
    return HawkesSpec(space, Exogenous.constant(mu), MatrixKernel([[None]]))


def one_event_history(t_event, horizon):
    return EventStream(
        np.array([t_event]), np.array([0]), np.array([np.nan]), np.array([np.nan]),
        horizon, ("e",),
    )


class TestIntensityAt:
    def test_empty_history_returns_exogenous(self):
        spec = zero_kernel_spec(2.0)
        empty = EventStream.empty(5.0, ("e",))
        assert intensity_at(spec, empty, 3.0, "e") == 2.0

    def test_zero_kernel_ignores_history(self):
        spec = zero_kernel_spec(0.7)
        hist = one_event_history(1.0, 5.0)
        assert intensity_at(spec, hist, 2.5, "e") == 0.7

    def test_single_exponential_excitation(self):
        # one event at s=1 evaluated at t=2: mu + 0.5 e^{-1}
        spec = scalar_spec(mu=1.0, c=0.5, kappa=1.0)
        hist = one_event_history(1.0, 2.0)
        got = intensity_at(spec, hist, 2.0, "e")
        assert got == pytest.approx(1.0 + 0.5 * math.exp(-1.0), rel=1e-12)

    def test_history_at_or_after_t_rejected(self):
        spec = scalar_spec()
        hist = one_event_history(2.0, 5.0)
        with pytest.raises(ValueError, match="strictly before"):
            intensity_at(spec, hist, 2.0, "e")

    @pytest.mark.parametrize("label", [-1, 2, (-1, None), (2, None)])
    def test_label_index_out_of_range_rejected(self, label):
        # label -1 read label 1's intensity; 2 raised IndexError
        spec = make_multivariate(2, [1.0, 3.0], [[None, None], [None, None]])
        empty = EventStream.empty(5.0, ("0", "1"))
        with pytest.raises(ValueError, match=r"^label index -?\d is not in \[0, 2\)$"):
            intensity_at(spec, empty, 1.0, label)


class TestThinning:
    def test_poisson_reduction_mean(self):
        mu0, horizon = 2.0, 5.0
        counts = [
            len(simulate_thinning(zero_kernel_spec(mu0), horizon, stream_rng(11, r)))
            for r in range(2000)
        ]
        mean = np.mean(counts)
        se = math.sqrt(mu0 * horizon / len(counts))
        assert abs(mean - mu0 * horizon) < 3 * se

    def test_poisson_reduction_gap_exponentiality(self):
        # one interarrival per replicate: pooling every gap of a fixed window
        # censors long gaps and is detectably non-exponential, while the
        # first interarrival is exact up to the e^{-mu T} no-event chance
        mu0 = 10.0
        gaps = []
        for r in range(2000):
            s = simulate_thinning(zero_kernel_spec(mu0), 1.0, stream_rng(12, r))
            if len(s):
                gaps.append(s.times[0])
        p = stats.kstest(gaps, "expon", args=(0, 1 / mu0)).pvalue
        assert p > 0.01

    def test_determinism(self):
        spec = scalar_spec()
        s1 = simulate_thinning(spec, 50.0, 42)
        s2 = simulate_thinning(spec, 50.0, 42)
        assert np.array_equal(s1.times, s2.times)
        assert np.array_equal(s1.labels, s2.labels)

    def test_subcritical_long_run_rate(self):
        # kernel mass 0.5, exogenous 1.0: stationary rate 1 / (1 - 0.5) = 2
        spec = scalar_spec(mu=1.0, c=0.5, kappa=1.0)
        horizon = 500.0
        s = simulate_thinning(spec, horizon, 3)
        rate = len(s) / horizon
        se = math.sqrt(1.0 / ((1 - 0.5) ** 3 * horizon))
        assert abs(rate - 2.0) < 3 * se

    def test_invalid_envelope_aborts(self):
        class LyingKernel(MatrixKernel):
            def envelope(self, dt):
                return 0.25 * super().envelope(dt)

        space = MarkSpace(labels=("e",))
        spec = HawkesSpec(
            space, Exogenous.constant(1.0), LyingKernel([[ExponentialProfile(3.0, 0.3)]])
        )
        with pytest.raises(MajorantViolationError):
            simulate_thinning(spec, 200.0, 0)

    def test_zero_kernel_is_exact_poisson(self):
        mu0, horizon = 4.0, 2.0
        spec = zero_kernel_spec(mu0)
        counts = [len(simulate_thinning(spec, horizon, stream_rng(41, r))) for r in range(2000)]
        mean = np.mean(counts)
        se = math.sqrt(mu0 * horizon / len(counts))
        assert abs(mean - mu0 * horizon) < 3 * se

    def test_running_sums_match_history_scan(self):
        # the running-sum fast path against the history scan it replaces for
        # stateful kernels: same law, two-sample KS on counts at 1%
        class ScannedExponential(ExponentialProfile):
            """Not the exact exponential class, so thinning scans it."""

        beta = 2.0
        spec = scalar_spec(mu=1.0, c=0.5 * beta, kappa=beta)
        space = MarkSpace(labels=("e",))
        scanned = HawkesSpec(space, Exogenous.constant(1.0),
                             MatrixKernel([[ScannedExponential(0.5 * beta, beta)]]))
        n_rep = 3000
        counts_fast = [len(simulate_thinning(spec, 3.0, stream_rng(51, r))) for r in range(n_rep)]
        counts_scan = [
            len(simulate_thinning(scanned, 3.0, stream_rng(52, r))) for r in range(n_rep)
        ]
        p = stats.ks_2samp(counts_fast, counts_scan).pvalue
        assert p > 0.01

    def test_fast_decay_approaches_poisson(self):
        # amplitude fixed at the lag-zero value while the total kernel mass
        # scales like 1/beta, so the excitation vanishes and counts converge
        # to the zero-kernel benchmark
        horizon, mu0, amp = 2.0, 2.0, 1.0
        n_rep = 2500
        poisson_counts = [
            len(simulate_thinning(zero_kernel_spec(mu0), horizon, stream_rng(61, r)))
            for r in range(n_rep)
        ]
        spec = scalar_spec(mu=mu0, c=amp, kappa=200.0)
        counts = [len(simulate_thinning(spec, horizon, stream_rng(62, r))) for r in range(n_rep)]
        assert stats.ks_2samp(counts, poisson_counts).pvalue > 0.01


class TestKernelDeduplication:
    """``MatrixKernel`` visits each distinct profile object once; its results
    must equal the per-pair loops over the full matrix."""

    @staticmethod
    def mixed_matrix():
        shared = tapered_table(0.1, 1.0)
        return [
            [shared, tapered_table(0.1, 1.0), ExponentialProfile(0.1, 2.0), None],
            [shared, shared, None, tapered_table(0.05, 0.5)],
            [shared, shared, shared, shared],
            [None, None, None, None],
        ]

    def test_matches_per_pair_loops(self):
        matrix = self.mixed_matrix()
        kern = MatrixKernel(matrix)
        # shared table, its equal-content copy, exponential, zero, second table
        assert len(kern.distinct) == 5
        rng = np.random.default_rng(3)
        dts = np.sort(rng.uniform(0.0, 6.0, 200))  # runs past the table end
        labels = rng.integers(0, 4, dts.size)

        env = np.zeros_like(dts)
        for row in matrix:
            for p in row:
                if p is not None:
                    env = np.maximum(env, p.envelope(dts))
        assert np.array_equal(kern.envelope(dts), env)

        for u, row in enumerate(matrix):
            ref = np.zeros_like(dts)
            for j, p in enumerate(row):
                sel = labels == j
                if p is not None and np.any(sel):
                    ref[sel] = p.value(dts[sel])
            assert np.array_equal(kern.eval_events(dts, labels, u), ref)

        for eps in (1e-12, 1e-3):
            lag = max(p.envelope_inverse(eps) if p is not None else 0.0
                      for row in matrix for p in row)
            assert kern.truncation_lag(eps) == lag

    @pytest.mark.parametrize("seed", [5, 17])
    def test_shared_and_copied_tables_give_identical_streams(self, seed):
        # table kernels take the history scan; copies of an exponential or
        # gamma profile share one running state per source and decay rate
        for make in (lambda: tapered_table(0.15, 1.0), lambda: ExponentialProfile(0.15, 2.0),
                     lambda: GammaProfile(0.5, 2.0)):
            shared = make()
            one = make_multivariate(4, 1.0, [[shared] * 4 for _ in range(4)])
            many = make_multivariate(4, 1.0, [[make() for _ in range(4)] for _ in range(4)])
            assert len(one.kernel.distinct) == 1 and len(many.kernel.distinct) == 16
            a = simulate_thinning(one, 30.0, seed)
            b = simulate_thinning(many, 30.0, seed)
            assert len(a) > 50
            for name in ("times", "labels", "xs", "zs"):
                assert getattr(a, name).tobytes() == getattr(b, name).tobytes()

    @pytest.mark.parametrize("seed", [3, 11])
    def test_history_growth_keeps_the_stream(self, monkeypatch, seed):
        # the source label picks the table, so every history column is read
        row = [tapered_table(0.15, 1.0), tapered_table(0.1, 2.0)] * 2
        spec = make_multivariate(4, 1.0, [row] * 4)
        monkeypatch.setattr(families, "_HISTORY_CAPACITY", 1 << 12)
        ref = simulate_thinning(spec, 30.0, seed)
        assert 4 * 2**3 < len(ref) < 1 << 12  # the small capacity doubles at least 3 times
        monkeypatch.setattr(families, "_HISTORY_CAPACITY", 4)
        got = simulate_thinning(spec, 30.0, seed)
        for name in ("times", "labels", "xs", "zs"):
            assert getattr(got, name).tobytes() == getattr(ref, name).tobytes()


class TestCompensatedIntegral:
    def test_zero_function(self):
        spec = scalar_spec()
        s = simulate_thinning(spec, 3.0, 5)
        assert compensated_integral(spec, s, lambda t, l, x: 0.0) == 0.0

    def test_poisson_compensator_centered(self):
        mu0 = 3.0
        spec = zero_kernel_spec(mu0)
        vals = []
        for r in range(400):
            s = simulate_thinning(spec, 2.0, stream_rng(21, r))
            vals.append(compensated_integral(spec, s, lambda t, l, x: 1.0))
        vals = np.asarray(vals)
        se = vals.std(ddof=1) / math.sqrt(len(vals))
        assert abs(vals.mean()) < 3 * se

    def test_hawkes_compensator_centered(self):
        spec = scalar_spec(mu=1.0, c=0.5, kappa=1.0)
        vals = []
        for r in range(1000):
            s = simulate_thinning(spec, 2.0, stream_rng(23, r))
            vals.append(compensated_integral(spec, s, lambda t, l, x: 1.0))
        vals = np.asarray(vals)
        se = vals.std(ddof=1) / math.sqrt(len(vals))
        assert abs(vals.mean()) < 3 * se


class TestMultivariate:
    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="kernel matrix"):
            make_multivariate(2, [1.0, 1.0], [[None]])

    def test_scalar_reduction(self):
        spec = make_multivariate(1, 1.0, [[ExponentialProfile(0.5, 1.0)]])
        s1 = simulate_thinning(spec, 30.0, 9)
        s2 = simulate_thinning(scalar_spec(), 30.0, 9)
        assert np.array_equal(s1.times, s2.times)

    def test_independent_components_uncorrelated(self):
        spec = make_multivariate(
            2, [1.5, 1.5],
            [[ExponentialProfile(0.4, 1.0), None], [None, ExponentialProfile(0.4, 1.0)]],
        )
        n0, n1 = [], []
        for r in range(600):
            s = simulate_thinning(spec, 2.0, stream_rng(31, r))
            n0.append(int(np.sum(s.labels == 0)))
            n1.append(int(np.sum(s.labels == 1)))
        r_hat = np.corrcoef(n0, n1)[0, 1]
        assert abs(r_hat) < 3.0 / math.sqrt(len(n0))

    def test_symmetric_kernels_exchangeable_counts(self):
        prof = lambda: ExponentialProfile(0.3, 1.0)
        spec = make_multivariate(2, [1.0, 1.0], [[prof(), prof()], [prof(), prof()]])
        n0, n1 = [], []
        for r in range(600):
            s = simulate_thinning(spec, 2.0, stream_rng(32, r))
            n0.append(int(np.sum(s.labels == 0)))
            n1.append(int(np.sum(s.labels == 1)))
        p = stats.ks_2samp(n0, n1).pvalue
        assert p > 0.01


def test_event_stream_csv_round_trip(tmp_path):
    spec = scalar_spec()
    s = simulate_thinning(spec, 10.0, 8)
    path = tmp_path / "events.csv"
    s.to_csv(path)
    back = EventStream.from_csv(path, horizon=10.0, label_names=("e",))
    assert np.array_equal(back.times, s.times)
    assert np.array_equal(back.labels, s.labels)


def test_event_stream_invariants():
    with pytest.raises(ValueError, match="strictly increasing"):
        EventStream(np.array([1.0, 1.0]), np.array([0, 0]), np.full(2, np.nan),
                    np.full(2, np.nan), 2.0, ("e",))
    with pytest.raises(ValueError, match="horizon"):
        EventStream(np.array([3.0]), np.array([0]), np.full(1, np.nan),
                    np.full(1, np.nan), 2.0, ("e",))


def test_event_stream_spans_check_each_span_as_a_stream():
    # three spans of one set of columns, with a record between them that
    # belongs to none, as in a set of micro runs: times fall across spans
    times = np.array([0.0, 0.5, 1.5, 0.0, 0.2, 0.0, 0.0, 1.0, 2.0])
    starts, ends = [1, 4, 6], [3, 5, 9]
    labels = np.arange(times.size)
    spans = EventStream.spans(times, labels, -times, 2 * times, starts, ends, 2.0, ("e",))
    for stream, lo, hi in zip(spans, starts, ends):
        ref = EventStream(times[lo:hi], labels[lo:hi], -times[lo:hi], 2 * times[lo:hi], 2.0, ("e",))
        assert vars(stream).keys() == vars(ref).keys()
        for name, a in vars(ref).items():
            b = getattr(stream, name)
            assert b == a if name in ("horizon", "label_names") else (
                a.dtype == b.dtype and a.tobytes() == b.tobytes()), name
    assert EventStream.spans(times, labels, times, times, [], [], 2.0) == []
    # a time equal to the one before it in its span, one past the horizon
    # and one before 0
    for at, value, match in ((7, 0.0, "strictly increasing"), (8, 2.5, "horizon"),
                             (6, -0.1, "horizon")):
        bad = times.copy()
        bad[at] = value
        with pytest.raises(ValueError, match=match):
            EventStream.spans(bad, labels, times, times, starts, ends, 2.0)


@pytest.mark.parametrize("build, match", [
    # rates that are not finite never let thinning end; a negative one was
    # silently thinned away
    pytest.param(lambda: Exogenous.constant(math.nan), "^exogenous rates", id="nan-rate"),
    pytest.param(lambda: Exogenous.constant(math.inf), "^exogenous rates", id="inf-rate"),
    pytest.param(lambda: Exogenous.constant([-1.0, 2.0]), "^exogenous rates", id="negative-rate"),
    pytest.param(lambda: make_multivariate(2, [math.nan, 1.0], [[None, None], [None, None]]),
                 "^exogenous rates", id="nan-multivariate-rate"),
    # mis-sized rates or kernels failed partway through a run, or set c0
    # from a label that does not exist
    pytest.param(lambda: HawkesSpec(MarkSpace(labels=("a", "b", "c")),
                                    Exogenous.constant([1.0, 2.0]), MatrixKernel([[None] * 3] * 3)),
                 "^2 exogenous rates for n_labels = 3$", id="2-rates-3-labels"),
    pytest.param(lambda: HawkesSpec(MarkSpace(labels=("e",)), Exogenous.constant([1.0, 5.0]),
                                    MatrixKernel([[None]])),
                 "^2 exogenous rates for n_labels = 1$", id="2-rates-1-label"),
    pytest.param(lambda: HawkesSpec(MarkSpace(labels=("a", "b")), Exogenous.constant(1.0),
                                    MatrixKernel([[ExponentialProfile(0.5, 1.0)]])),
                 "^a 1 x 1 kernel for n_labels = 2$", id="1x1-kernel-2-labels"),
    # a NaN or infinite weight never lets thinning end; a NaN half-width
    # surfaced as numpy's OverflowError; a NaN c0 set a NaN truncation level
    pytest.param(lambda: MarkSpace(labels=("e",), weights=(math.nan,)),
                 "^base-measure weights", id="nan-weight"),
    pytest.param(lambda: MarkSpace(labels=("a", "b"), weights=(1.0, math.inf)),
                 "^base-measure weights", id="inf-weight"),
    # label_index finds only the first of equal names
    pytest.param(lambda: MarkSpace(labels=("a", "a")), "^mark-space labels must be distinct",
                 id="duplicate-labels"),
    pytest.param(lambda: MarkSpace(labels=("e",), spatial_half_width=math.nan),
                 "^spatial half-width", id="nan-half-width"),
    pytest.param(lambda: MarkSpace(labels=("e",), spatial_half_width=math.inf),
                 "^spatial half-width", id="inf-half-width"),
    pytest.param(lambda: HawkesSpec(MarkSpace(labels=("e",)), Exogenous.constant(1.0),
                                    MatrixKernel([[None]]), c0=math.nan),
                 "^declared intensity bound must be finite", id="nan-c0"),
])
def test_invalid_spec_fails_at_construction(build, match):
    # asserted when the spec is built: simulating some of these never ends
    with pytest.raises(ValueError, match=match):
        build()


@pytest.mark.parametrize("horizon", [0.0, -1.0, math.nan, math.inf])
def test_horizon_must_be_positive_and_finite(horizon):
    # a NaN horizon never ends a run
    with pytest.raises(ValueError, match="^horizon must be positive and finite"):
        simulate_thinning(scalar_spec(), horizon, 8)


def test_marked_spatial_space():
    # separable spatial intensity: uniform marks on [-L, L]
    space = MarkSpace(labels=("e",), spatial_half_width=1.0)
    spec = HawkesSpec(space, Exogenous.constant(1.0), MatrixKernel([[None]]))
    s = simulate_thinning(spec, 20.0, 13)
    assert np.all(np.isfinite(s.xs))
    assert np.all((s.xs >= -1.0) & (s.xs <= 1.0))
    # total rate is mu * m(U) = 1 * 2L = 2
    assert abs(len(s) / 20.0 - 2.0) < 3 * math.sqrt(2.0 / 20.0)
