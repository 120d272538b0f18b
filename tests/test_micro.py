import bisect
import copy
import dataclasses
import functools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hawkeslob import families
from hawkeslob.families import (
    ConstantProfile,
    ExponentialProfile,
    GammaProfile,
    GaussianProfile,
    KernelSums,
    TableProfile,
    UniformProfile,
)
from hawkeslob.hawkes import EventStream, MajorantViolationError
from hawkeslob import micro
from hawkeslob.micro import (
    ACTIVE_TYPES,
    EVENT_LABELS,
    PASSIVE_TYPES,
    ActiveRateFamily,
    ExoConst,
    GatedConstantFactor,
    MicroParams,
    NonCrossingError,
    ScalingFamily,
    SizeMeasure,
    SpreadLinearFactor,
    TickGrid,
    VolumeLedger,
    active_intensity,
    ledger_inners,
    apply_active,
    passive_intensity,
    replay_book,
    simulate_book,
)
from hawkeslob.rng import stream_rng

from conftest import LN2, gaussian_book, make_family


def minimal_params(**overrides):
    kwargs = dict(
        delta_x=0.1,
        delta_v=0.05,
        half_width=2.0,
        ask_price0=0.2,
        bid_price0=0.0,
        ask_volume0=gaussian_book,
        bid_volume0=gaussian_book,
        state_factor={
            at: GatedConstantFactor(1.0, gated=at.endswith("sp")) for at in ACTIVE_TYPES
        },
        base_active={at: ExoConst(0.0) for at in ACTIVE_TYPES},
        base_passive={pt: (ExoConst(0.0), GaussianProfile(1.0)) for pt in PASSIVE_TYPES},
        sizes={pt: SizeMeasure("dirac", z=LN2) for pt in PASSIVE_TYPES},
    )
    kwargs.update(overrides)
    return MicroParams(**kwargs)


class TestTickGrid:
    def test_exact_indexing(self):
        g = TickGrid(0.1)
        assert g.to_tick_exact(0.3) == 3
        assert g.price_of(g.to_tick_exact(12.7)) == pytest.approx(12.7)
        assert g.tick_of(0.35) == 3
        assert g.tick_of(-0.05) == -1
        with pytest.raises(ValueError, match="not on the"):
            g.to_tick_exact(0.307)


class TestBookUpdates:
    def test_one_tick_moves(self):
        params = minimal_params()
        st = params.initial_state()
        p0 = st.p_a
        apply_active(st, "a_mo")
        assert st.p_a == pytest.approx(p0 + 0.1)
        apply_active(st, "a_sp")
        assert st.p_a == pytest.approx(p0)
        apply_active(st, "b_mo")
        assert st.p_b == pytest.approx(-0.1)
        apply_active(st, "b_sp")
        assert st.p_b == pytest.approx(0.0)

    def test_spread_arithmetic_two_placements(self):
        params = minimal_params(ask_price0=0.3, bid_price0=0.0)  # 3 ticks
        st = params.initial_state()
        apply_active(st, "a_sp")
        apply_active(st, "b_sp")
        assert st.ask_tick - st.bid_tick == 1

    def test_non_crossing_violation(self):
        params = minimal_params(ask_price0=0.0, bid_price0=0.0)
        st = params.initial_state()
        with pytest.raises(NonCrossingError):
            apply_active(st, "a_sp")

    def test_placement_adds_density(self):
        # e^z - 1 = 1 at z = ln 2 and dv/dx = 0.5: density grows by 0.5
        params = minimal_params()
        st0 = params.initial_state()
        tick = st0.ask_tick + 2  # distance 0.25 lies in the third tick from the best ask
        st = replayed(params, ("a_lo", 0.25, LN2))
        assert tick_value(st.ask_vol, tick) == pytest.approx(tick_value(st0.ask_vol, tick) + 0.5)

    def test_cancellation_halves_in_large_size_limit(self):
        params = minimal_params()
        st0 = params.initial_state()
        tick = st0.bid_tick - 2  # distance 0.15 lies in the second tick below the best bid
        st = replayed(params, ("b_cx", 0.15, 50.0))
        assert tick_value(st.bid_vol, tick) == pytest.approx(0.5 * tick_value(st0.bid_vol, tick),
                                                             rel=1e-9)

    def test_zero_size_changes_nothing(self):
        params = minimal_params()
        st0 = params.initial_state()
        st = replayed(params, ("a_lo", 0.4, 0.0), ("a_cx", 0.4, 0.0))
        assert st.ask_vol.values.tobytes() == st0.ask_vol.values.tobytes()

    def test_bid_side_distance_mirrors(self):
        params = minimal_params(ask_price0=0.2, bid_price0=0.0)
        st0 = params.initial_state()
        # distance 0 on the bid hits the tick just below the best bid, on the
        # ask the best ask's own tick
        for pt, side, tick in (("b_lo", "bid_vol", st0.bid_tick - 1), ("a_lo", "ask_vol", st0.ask_tick)):
            before, after = getattr(st0, side), getattr(replayed(params, (pt, 0.0, LN2)), side)
            changed = np.flatnonzero(after.values != before.values)
            assert (after.base, changed.tolist()) == (before.base, [tick - before.base])

    def test_volume_positivity_guard(self):
        with pytest.raises(ValueError, match="delta_v must not exceed"):
            minimal_params(delta_v=0.2)

    @pytest.mark.parametrize("name", ["delta_x", "delta_v", "half_width"])
    @pytest.mark.parametrize("value", [0.0, -0.01, math.nan, math.inf])
    def test_scales_must_be_positive_and_finite(self, name, value):
        # a negative delta_v or half_width ran without events, a zero delta_v
        # divided by zero in the compiled book and a NaN one ran to the
        # event budget
        with pytest.raises(ValueError, match=f"^{name} must be positive and finite, got {value}$"):
            minimal_params(**{name: value})


def replayed(params, *events):
    """The book after ``replay_book`` of passive ``events``, (type, distance,
    size) each, one every 0.1 in time."""
    n = len(events)
    labels = [EVENT_LABELS.index(f"P{1 + PASSIVE_TYPES.index(pt)}") for pt, _x, _z in events]
    stream = EventStream(0.1 * np.arange(1, n + 1), np.array(labels, dtype=np.int64),
                         np.array([x for _pt, x, _z in events]),
                         np.array([z for _pt, _x, z in events]), 0.1 * (n + 1), EVENT_LABELS)
    return replay_book(params, stream)[2]


def tick_value(ledger, tick):
    return float(ledger.window(tick, tick + 1)[0])


class TestSizeMeasure:
    def test_dirac_moments(self):
        m = SizeMeasure("dirac", z=LN2)
        assert m.place_gain == pytest.approx(1.0)
        assert m.cancel_gain == pytest.approx(-0.5)
        assert m.fourth_moment == pytest.approx(1.0)

    def test_exponential_moments(self):
        rate = 6.0
        m = SizeMeasure("exponential", rate=rate)
        assert m.place_gain == pytest.approx(1.0 / (rate - 1.0))
        assert m.cancel_gain == pytest.approx(-1.0 / (rate + 1.0))
        # the moment integrand has a heavy tail, so check by quadrature
        zs = np.linspace(0, 60, 400001)
        quad = np.trapezoid(rate * np.exp(-rate * zs) * (np.exp(zs) - 1) ** 4, zs)
        assert m.fourth_moment == pytest.approx(quad, rel=1e-6)

    def test_exponential_needs_finite_fourth_moment(self):
        with pytest.raises(ValueError, match="rate > 4"):
            SizeMeasure("exponential", rate=3.0)

    @pytest.mark.parametrize("spec", [dict(family="dirac", z=200.0),
                                      dict(family="lognormal", m=0.0, s=1.0, z_max=200.0)])
    def test_overflowing_fourth_moment_rejected(self, spec):
        with pytest.raises(ValueError, match="finite placement gain and fourth moment"):
            SizeMeasure(**spec)

    def test_lognormal_requires_truncation(self):
        with pytest.raises(ValueError, match="truncation"):
            SizeMeasure("lognormal", m=-1.0, s=0.5)
        m = SizeMeasure("lognormal", m=-1.0, s=0.5, z_max=3.0)
        assert -1.0 < m.cancel_gain <= 0.0
        assert m.place_gain > 0.0
        e = -np.log1p(-np.random.default_rng(1).random(5000))
        draws = m.samples(e)
        assert np.all((draws >= 0) & (draws <= 3.0))
        assert np.mean(np.exp(draws) - 1) == pytest.approx(m.place_gain, rel=0.05)

    @pytest.mark.parametrize("spec", [dict(family="dirac", z=0.3),
                                      dict(family="exponential", rate=6.0),
                                      dict(family="lognormal", m=-1.0, s=0.5, z_max=3.0)])
    def test_marks_invert_exponential_variates(self, spec):
        # the marks are a nondecreasing function of the row's exponential
        # variate
        m = SizeMeasure(**spec)
        e = np.sort(-np.log1p(-np.random.default_rng(2).random(2000)))
        draws = m.samples(e)
        assert np.all(np.diff(draws) >= 0)
        if spec["family"] == "exponential":
            assert draws.mean() == pytest.approx(1.0 / 6.0, rel=0.1)


class TestIntensities:
    def test_exogenous_only(self):
        m0 = 0.3
        params = minimal_params(base_active={at: ExoConst(m0) for at in ACTIVE_TYPES})
        hist = EventStream.empty(1.0, EVENT_LABELS)
        got = active_intensity(params, hist, 0.5, "a_mo")
        assert got == pytest.approx(m0 / 0.1**2)

    def test_one_market_order_excites(self):
        m0, c, kappa, s, t = 0.2, 0.7, 1.3, 0.25, 0.75
        params = minimal_params(
            base_active={at: ExoConst(m0) for at in ACTIVE_TYPES},
            act_from_act={("a_mo", "a_mo"): ExponentialProfile(c, kappa)},
        )
        hist = EventStream(np.array([s]), np.array([0]), np.array([np.nan]),
                           np.array([np.nan]), 1.0, EVENT_LABELS)
        got = active_intensity(params, hist, t, "a_mo")
        assert got == pytest.approx(m0 / 0.01 + c * math.exp(-kappa * (t - s)), rel=1e-12)
        # other types see only their exogenous part
        assert active_intensity(params, hist, t, "b_mo") == pytest.approx(m0 / 0.01)

    def test_spread_placement_rate_vanishes_below_one_tick(self):
        params = minimal_params(
            state_factor={
                at: SpreadLinearFactor(1.0, 0 if at.endswith("mo") else 1)
                for at in ACTIVE_TYPES
            },
            ask_price0=0.1, bid_price0=0.0,
        )
        st = params.initial_state()
        spread = np.array([st.ask_tick - st.bid_tick])
        assert spread.tolist() == [1]
        # at exactly one tick the spread-placement factor is already zero
        assert params.state_factor["a_sp"].spreads(spread, params.delta_x).tolist() == [0.0]
        assert params.state_factor["a_mo"].spreads(spread, params.delta_x)[0] == pytest.approx(0.1)

    def test_passive_event_excites_active(self):
        c, kappa, s, t, y = 0.6, 1.5, 0.3, 0.8, -0.7
        params = minimal_params(
            base_active={at: ExoConst(0.1) for at in ACTIVE_TYPES},
            act_from_pas={("b_mo", "a_lo"): (GaussianProfile(1.0), ExponentialProfile(c, kappa))},
        )
        hist = EventStream(np.array([s]), np.array([4]), np.array([y]),
                           np.array([LN2]), 1.0, EVENT_LABELS)
        got = active_intensity(params, hist, t, "b_mo")
        # one passive event contributes (dv / dx^2) * in(y) * time(t - s)
        expected = 0.1 / 0.01 + (0.05 / 0.01) * math.exp(-y * y) * c * math.exp(-kappa * (t - s))
        assert got == pytest.approx(expected, rel=1e-12)

    def test_passive_exogenous_only(self):
        fac = 0.4
        params = minimal_params(
            base_passive={pt: (ExoConst(fac), GaussianProfile(1.0)) for pt in PASSIVE_TYPES}
        )
        hist = EventStream.empty(1.0, EVENT_LABELS)
        x = 0.3
        got = passive_intensity(params, hist, 0.5, "a_lo", x)
        assert got == pytest.approx(fac * math.exp(-x * x) / params.delta_v, rel=1e-12)

    def test_active_event_excites_passive(self):
        c, kappa, s, t, x = 0.5, 2.0, 0.2, 0.9, -0.4
        params = minimal_params(
            pas_from_act={("a_lo", "a_mo"): (GaussianProfile(1.0), ExponentialProfile(c, kappa))},
        )
        hist = EventStream(np.array([s]), np.array([0]), np.array([np.nan]),
                           np.array([np.nan]), 1.0, EVENT_LABELS)
        got = passive_intensity(params, hist, t, "a_lo", x)
        # one active event contributes (dx^2 / dv) * out(x) * time(t - s)
        expected = (0.1**2 / 0.05) * math.exp(-x * x) * c * math.exp(-kappa * (t - s))
        assert got == pytest.approx(expected, rel=1e-12)

    def test_passive_event_excites_passive(self):
        c, kappa, s, t, x, y = 0.3, 1.0, 0.1, 0.6, 0.2, -0.5
        params = minimal_params(
            pas_from_pas={
                ("b_cx", "a_lo"): (GaussianProfile(1.0), GaussianProfile(1.0),
                                    ExponentialProfile(c, kappa))
            },
        )
        hist = EventStream(np.array([s]), np.array([4]), np.array([y]),
                           np.array([LN2]), 1.0, EVENT_LABELS)
        got = passive_intensity(params, hist, t, "b_cx", x)
        expected = math.exp(-x * x) * math.exp(-y * y) * c * math.exp(-kappa * (t - s))
        assert got == pytest.approx(expected, rel=1e-12)


class TestSimulateBook:
    def test_all_rates_zero_gives_empty_stream(self):
        params = minimal_params()
        run = simulate_book(params, 1.0, stream_rng(1, 0, "micro"))
        assert run.accepted == 0
        assert run.final_state.p_a == params.initial_state().p_a
        assert run.diagnostics.load_terminal == 1.0

    def test_poisson_difference_price_moments(self):
        # zero kernels, equal market and spread densities, wide book:
        # P_a(T) - P_a(0) = dx (N+ - N-) with independent Poisson counts
        m0, rho, T = 0.05, 1.0, 1.0
        params = minimal_params(
            ask_price0=2.0, bid_price0=-2.0,
            base_active={at: ExoConst(m0) for at in ACTIVE_TYPES},
        )
        deltas = []
        for r in range(1500):
            run = simulate_book(params, T, stream_rng(7, r, "micro"), n_checkpoints=2)
            deltas.append(run.final_state.p_a - 2.0)
        deltas = np.asarray(deltas)
        var_expect = 2.0 * rho * m0 * T
        se_mean = math.sqrt(var_expect / len(deltas))
        assert abs(deltas.mean()) < 3 * se_mean
        assert abs(deltas.var(ddof=1) - var_expect) < 0.1 * var_expect

    def test_replay_is_bit_exact(self, family):
        params = family.micro_params(0)
        run = simulate_book(params, 1.0, stream_rng(3, 0, "micro"))
        asks, bids, final = replay_book(params, run.events)
        assert np.array_equal(asks, run.ask_ticks)
        assert np.array_equal(bids, run.bid_ticks)
        assert np.array_equal(final.ask_vol.values, run.final_state.ask_vol.values)
        assert final.ask_vol.base == run.final_state.ask_vol.base

    def test_determinism(self, family):
        params = family.micro_params(0)
        r1 = simulate_book(params, 1.0, stream_rng(4, 0, "micro"))
        r2 = simulate_book(params, 1.0, stream_rng(4, 0, "micro"))
        assert np.array_equal(r1.events.times, r2.events.times)
        assert np.array_equal(r1.events.labels, r2.events.labels)
        assert np.array_equal(r1.events.xs, r2.events.xs, equal_nan=True)

    def test_one_tick_moves_and_non_crossing(self, family):
        params = family.micro_params(0)
        run = simulate_book(params, 2.0, stream_rng(5, 0, "micro"))
        da = np.diff(run.ask_ticks)
        db = np.diff(run.bid_ticks)
        active = run.events.labels < 4
        assert np.all(np.abs(da[active]) + np.abs(db[active]) == 1)
        assert np.all(da[~active] == 0) and np.all(db[~active] == 0)
        assert np.min(run.ask_ticks - run.bid_ticks) >= 0

    def test_load_increments(self, family):
        params = family.micro_params(0)
        run = simulate_book(params, 1.0, stream_rng(6, 0, "micro"))
        inc = np.diff(run.diagnostics.load)
        active = run.events.labels < 4
        assert np.allclose(inc[active], params.delta_x**2)
        assert np.allclose(inc[~active], params.delta_v)
        assert run.diagnostics.load[0] == 1.0
        assert np.all(inc > 0)

    def test_volumes_stay_nonnegative(self, family):
        params = family.micro_params(0)
        run = simulate_book(params, 2.0, stream_rng(8, 0, "micro"))
        assert np.all(run.final_state.ask_vol.values >= 0)
        assert np.all(run.final_state.bid_vol.values >= 0)

    def test_factors_evaluated_after_active_events_only(self, monkeypatch):
        # factors are evaluated only at spreads the run visits, at most once
        # per spread and distinct factor, and never in a passive event
        calls, fired = [], []
        for cls in (SpreadLinearFactor, GatedConstantFactor):
            def counted(self, ticks, delta_x, spreads=cls.spreads):
                calls.extend((type(self), tuple(vars(self).items()), s) for s in ticks.tolist())
                return spreads(self, ticks, delta_x)

            monkeypatch.setattr(cls, "spreads", counted)
        fire = micro._Engine.fire

        def counted_fire(self, label, distance):
            before = len(calls)
            fire(self, label, distance)
            fired.append((label, len(calls) - before))

        monkeypatch.setattr(micro._Engine, "fire", counted_fire)
        for rate_family in ("spread_linear", "constant"):
            fam = make_family(rates={s: ActiveRateFamily(rate_family, 0.5) for s in "ab"})
            calls.clear()
            fired.clear()
            run = simulate_book(fam.micro_params(1), 0.5, stream_rng(10, 0, "micro"))
            n_active = int(np.sum(run.events.labels < 4))
            assert 0 < n_active < run.accepted
            assert [label for label, _n in fired] == run.events.labels.tolist()
            assert all(n == 0 for label, n in fired if label >= 4)
            visited = set((run.ask_ticks - run.bid_ticks).tolist())
            assert len(visited) > 2
            assert {s for _t, _f, s in calls} == visited
            assert len(set(calls)) == len(calls) == 2 * len(visited)  # two distinct factors

    def test_active_scalar_slots_nearly_merge(self, family):
        # dx^2 mu for the market and spread slots of a side agree up to the
        # rescaled difference, which vanishes here (no drift kernels)
        params = family.micro_params(0)
        run = simulate_book(params, 1.0, stream_rng(9, 0, "micro"))
        act = run.diagnostics.active_scalars
        assert np.allclose(act[:, 0], act[:, 1], rtol=1e-9)
        assert np.allclose(act[:, 2], act[:, 3], rtol=1e-9)


class TestRescaledSequence:
    def test_level_zero_is_base(self, family):
        p0 = family.micro_params(0)
        assert p0.delta_x == family.delta_x
        assert p0.delta_v == family.delta_v

    def test_level_one_halves_tick_quarters_size(self, family):
        p1 = family.micro_params(1)
        assert p1.delta_x == pytest.approx(family.delta_x / 2)
        assert p1.delta_v == pytest.approx(family.delta_v / 4)
        assert p1.delta_v <= p1.delta_x

    def test_drift_difference_held_fixed(self):
        fam = make_family(
            base_drift={"a": 0.3, "b": 0.0},
            act_from_act={("a", "a_mo"): ExponentialProfile(0.2, 1.0)},
            drift_from_act={("a", "a_mo"): ExponentialProfile(0.1, 1.0)},
        )
        for k in (0, 1, 2):
            p = fam.micro_params(k)
            dx = p.delta_x
            mo = p.base_active["a_mo"].value
            sp = p.base_active["a_sp"].value
            assert (mo - sp) / dx == pytest.approx(0.3)
            c_mo = p.act_from_act[("a_mo", "a_mo")].c
            c_sp = p.act_from_act[("a_sp", "a_mo")].c
            assert (c_mo - c_sp) / dx == pytest.approx(0.1)
            assert 0.5 * (c_mo + c_sp) == pytest.approx(0.2)

    def test_load_moments_bounded_across_levels(self, family):
        # reflects the uniform moment bounds driving tightness
        prev = None
        for k in range(4):
            params = family.micro_params(k)
            loads = [
                simulate_book(params, 0.5, stream_rng(10 + k, r, "micro"),
                              n_checkpoints=2).diagnostics.load_terminal
                for r in range(60)
            ]
            for p in (1, 2, 4):
                m = float(np.mean(np.asarray(loads) ** p))
                if prev is not None:
                    assert m < 2.0 * prev[p]
            prev = {p: float(np.mean(np.asarray(loads) ** p)) for p in (1, 2, 4)}

    @pytest.mark.parametrize("rate_family", ["spread_linear", "constant"])
    def test_rate_families_meet_the_factor_conditions(self, rate_family):
        # both declared rate families hold the factor conditions by
        # construction at every level and spread: factors are nonnegative,
        # the spread-placement factor vanishes below one tick (no crossing),
        # and the spread-linear rescaled difference is the declared scale
        fam = make_family(rates={s: ActiveRateFamily(rate_family, 0.5) for s in "ab"})
        ticks = np.arange(12)
        for k in range(4):
            params = fam.micro_params(k)
            for side in "ab":
                mo = params.state_factor[f"{side}_mo"].spreads(ticks, params.delta_x)
                sp = params.state_factor[f"{side}_sp"].spreads(ticks, params.delta_x)
                assert np.all(mo >= 0.0) and np.all(sp >= 0.0)
                assert np.all(sp[ticks < 1] == 0.0)
                if rate_family == "spread_linear":
                    assert (mo - sp)[ticks >= 1] / params.delta_x == pytest.approx(0.5)

    def test_negative_factor_scales_rejected(self):
        for make in (lambda: SpreadLinearFactor(-0.1), lambda: GatedConstantFactor(-0.1, True),
                     lambda: ActiveRateFamily("spread_linear", -0.1).micro_factor("mo", 0.1),
                     lambda: ActiveRateFamily("constant", -0.1).micro_factor("sp", 0.1)):
            with pytest.raises(ValueError, match=">= 0"):
                make()

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_rates_rejected(self, value):
        # a NaN rate would fire label 7 at time NaN on every candidate
        for make in (lambda: ExoConst(value), lambda: SpreadLinearFactor(value),
                     lambda: GatedConstantFactor(value, True)):
            with pytest.raises(ValueError, match="finite and >= 0"):
                make()


def test_volume_ledger_lazy_growth():
    # ticks outside the materialised window read the initial density, and
    # reading them grows nothing
    led = VolumeLedger.initial(gaussian_book, -5, 5, 0.1)
    for lo, hi in ((58, 62), (-7, 7), (-9, -6), (-9, -3), (3, 8), (-5, 5), (2, 2)):
        want = gaussian_book((np.arange(lo, hi) + 0.5) * 0.1)
        assert led.window(lo, hi).tobytes() == want.tobytes()
    assert (led.base, led.values.size) == (-5, 10)
    got = led.window(-5, 5)
    got[:] = 0.0  # a copy
    assert led.values.min() > 0.0
    with pytest.raises(ValueError, match=">= 0"):
        VolumeLedger.initial(lambda x: np.asarray(x) - 1.0, 0, 20, 0.1)


def test_ledger_norms_and_inner():
    led = VolumeLedger.initial(lambda x: np.ones_like(np.asarray(x)), 0, 10, 0.1)
    got = float(ledger_inners([led], lambda x: x)[0])
    assert got == pytest.approx(0.5, rel=1e-9)  # int_0^1 x dx


def test_ledger_inners_equal_one_ledger_at_a_time():
    # ledgers on one window are reduced together; each must still equal its
    # own np.sum, at widths around numpy's pairwise-summation blocks
    f = lambda x: np.exp(-((np.asarray(x) - 0.5) ** 2))
    rng = np.random.default_rng(11)
    dx = 0.1
    for width in (7, 8, 9, 15, 16, 17, 100, 127, 128, 129, 160, 255, 513, 1024, 2049, 4097):
        # three ledgers share a window, one reaches below it and one above
        windows = [(-5, width)] * 3 + [(-40, width + 3), (3, 2 * width)]
        ledgers = [VolumeLedger(gaussian_book, base, rng.uniform(0.0, 2.0, size), dx)
                   for base, size in windows]
        one_pass = ledger_inners(ledgers, f)
        for led, got in zip(ledgers, one_pass.tolist()):
            mids = (np.arange(led.base, led.base + led.values.size) + 0.5) * dx
            assert got == float(np.sum(led.values * f(mids)) * dx), width
    with pytest.raises(ValueError, match="one tick size"):
        ledger_inners([ledgers[0], VolumeLedger.initial(gaussian_book, 0, 4, 0.05)], f)


def tapered_table(c, kappa, t_end=4.0, n=41):
    """An exponential shape tapered linearly to zero at t_end, as a table."""
    ts = np.linspace(0.0, t_end, n)
    vals = c * np.exp(-kappa * ts) * (1.0 - ts / t_end)
    vals[-1] = 0.0
    return TableProfile(ts, vals, vals)


def raised_table(c, kappa):
    """``tapered_table`` with its envelope a quarter above its values."""
    prof = tapered_table(c, kappa)
    return TableProfile(prof.ts, prof.vals, 1.25 * prof.vals)


class TableSubclass(TableProfile):
    """A table profile of its own type, scanned through its own methods."""


def subclassed_table(c, kappa):
    """``tapered_table`` as a ``TableSubclass``."""
    prof = tapered_table(c, kappa)
    return TableSubclass(prof.ts, prof.vals, prof.vals)


def every_kind_family():
    """Exponential, gamma, constant and table kernels in all four tables."""
    g, g2 = GaussianProfile(1.0), GaussianProfile(0.8, 0.3, 1.2)
    return make_family(
        act_from_act={
            ("a", "a_mo"): ExponentialProfile(0.2, 1.0), ("a", "b_mo"): GammaProfile(0.5, 2.0),
            ("b", "a_sp"): ConstantProfile(0.02), ("b", "b_mo"): tapered_table(0.2, 1.5),
            ("b", "b_sp"): ExponentialProfile(0.1, 3.0),
        },
        drift_from_act={("a", "a_mo"): ExponentialProfile(0.1, 1.0)},
        base_drift={"a": 0.2, "b": -0.1},
        act_from_pas={
            ("a", "a_lo"): (g, ExponentialProfile(0.3, 1.0)),
            ("b", "b_cx"): (g2, GammaProfile(0.4, 2.0)),
            ("b", "a_lo"): (g, tapered_table(0.1, 1.0)),
        },
        pas_from_act={
            ("a_lo", "a_mo"): (g, ExponentialProfile(0.3, 1.0)),
            ("b_cx", "b_sp"): (g2, GammaProfile(0.4, 2.0)),
            ("a_cx", "b_mo"): (UniformProfile(0.2), tapered_table(0.2, 1.0)),
        },
        pas_from_pas={
            ("b_lo", "a_lo"): (g, g2, ExponentialProfile(0.2, 2.0)),
            ("a_lo", "b_cx"): (g2, g, ConstantProfile(0.01)),
            ("a_cx", "a_cx"): (g, g, tapered_table(0.2, 2.0)),
        },
        sizes={
            "a_lo": SizeMeasure("exponential", rate=6.0),
            "a_cx": SizeMeasure("lognormal", m=-1.0, s=0.5, z_max=3.0),
            "b_lo": SizeMeasure("dirac", z=LN2),
            "b_cx": SizeMeasure("exponential", rate=8.0),
        },
    )


def full_sum_rates(params, events, k, state):
    """Active rates and passive mass totals just before event k, summed
    directly over every earlier event."""
    t = events.times[k]
    lags, labels, xs = t - events.times[:k], events.labels[:k], events.xs[:k]
    dx2, dv, L = params.delta_x**2, params.delta_v, params.half_width
    spread = np.array([state.ask_tick - state.bid_tick])

    def kernel_sum(src, prof, in_prof=None):
        hit = labels == (ACTIVE_TYPES + PASSIVE_TYPES).index(src)
        weights = np.ones(hit.sum()) if in_prof is None else in_prof.value(xs[hit])
        return float(np.sum(weights * prof.value(lags[hit])))

    active = []
    for at in ACTIVE_TYPES:
        mu = params.base_active[at].value / dx2
        for (tgt, src), prof in params.act_from_act.items():
            mu += kernel_sum(src, prof) if tgt == at else 0.0
        for (tgt, src), (in_prof, prof) in params.act_from_pas.items():
            mu += dv / dx2 * kernel_sum(src, prof, in_prof) if tgt == at else 0.0
        active.append(params.state_factor[at].spreads(spread, params.delta_x)[0] * mu)
    passive = []
    for pt in PASSIVE_TYPES:
        exo, prof = params.base_passive[pt]
        total = exo.value * prof.mass(L) / dv
        for (tgt, src), (out_prof, tprof) in params.pas_from_act.items():
            total += dx2 / dv * out_prof.mass(L) * kernel_sum(src, tprof) if tgt == pt else 0.0
        for (tgt, src), (out_prof, in_prof, tprof) in params.pas_from_pas.items():
            total += out_prof.mass(L) * kernel_sum(src, tprof, in_prof) if tgt == pt else 0.0
        passive.append(total)
    return active, passive


class TestCompiledEngine:
    def test_realised_rates_match_full_sums(self):
        params = every_kind_family().micro_params(1)
        run = simulate_book(params, 1.0, stream_rng(21, 0, "micro"))
        ev = run.events
        assert len(ev) > 100 and set(ev.labels.tolist()) == set(range(8))
        eng = micro._Engine(params)
        state = params.initial_state()
        for k in range(len(ev)):
            eng.advance(float(ev.times[k]))
            act, pas, _terms, _mu = eng.rates(bound=False)
            ref_act, ref_pas = full_sum_rates(params, ev, k, state)
            assert act == pytest.approx(ref_act, rel=1e-12, abs=1e-12)
            assert pas == pytest.approx(ref_pas, rel=1e-12, abs=1e-12)
            lab = int(ev.labels[k])
            eng.fire(lab, float(ev.xs[k]))
            if lab < 4:
                apply_active(state, ACTIVE_TYPES[lab])

    @pytest.mark.parametrize("make", [make_family, every_kind_family])
    def test_compiled_cache_carries_no_run_state(self, make):
        fam = make()
        shared = fam.micro_params(1)
        assert shared._compiled is None  # micro_params compiles nothing
        runs = [simulate_book(shared, 0.5, stream_rng(4, r, "micro")) for r in (0, 1)]
        assert shared._compiled is not None
        for r, run in zip((0, 1), runs):
            fresh = simulate_book(fam.micro_params(1), 0.5, stream_rng(4, r, "micro"))
            for name in ("times", "labels", "xs", "zs"):
                assert np.array_equal(getattr(run.events, name), getattr(fresh.events, name),
                                      equal_nan=True)
            assert np.array_equal(run.ask_ticks, fresh.ask_ticks)
            assert np.array_equal(run.final_state.bid_vol.values, fresh.final_state.bid_vol.values)
            for name in ("load", "beta", "d11", "d22", "active_scalars"):
                assert np.array_equal(getattr(run.diagnostics, name),
                                      getattr(fresh.diagnostics, name))

    @pytest.mark.parametrize("kernel", [GammaProfile(0.5, 2.0), tapered_table(0.3, 1.0)])
    def test_gamma_and_table_envelopes_dominate(self, kernel):
        fam = make_family(
            act_from_act={(tgt, src): kernel for tgt in "ab" for src in ACTIVE_TYPES},
            pas_from_act={("a_lo", "a_mo"): (GaussianProfile(1.0), kernel)},
            pas_from_pas={("b_cx", "b_lo"): (GaussianProfile(1.0), GaussianProfile(1.0), kernel)},
        )
        for k in (0, 1, 2):
            params = fam.micro_params(k)
            for r in range(4):
                try:
                    run = simulate_book(params, 0.5, stream_rng(31 + k, r, "micro"))
                except MajorantViolationError as exc:  # pragma: no cover - the failure report
                    pytest.fail(f"level {k} replicate {r}: {exc}")
                assert run.accepted <= run.candidates

    def test_replay_snapshots_see_the_book_at_each_time(self, family):
        params = family.micro_params(1)
        run = simulate_book(params, 0.5, stream_rng(12, 0, "micro"))
        seen = []
        times = [-1.0, 0.0, 0.1, 0.25, 0.5, 2.0]
        replay_book(params, run.events, times,
                    lambda t, st: seen.append((t, st.ask_tick, st.bid_tick)))
        assert [s[0] for s in seen] == times
        for t, ask, bid in seen:
            n = int(np.searchsorted(run.events.times, t, side="right"))
            assert (ask, bid) == (run.ask_ticks[n], run.bid_ticks[n])


def checkpoint_row(eng):
    """d11, d22 and dx^2 mu of one checkpoint, evaluated on the live engine
    in one pass: the passive field built on the checkpoint nodes and
    integrated."""
    book = eng.book
    u = eng.sums.units(False)
    rows = []
    for term, from_act, from_pas in book.active_rows:
        val = term
        for i, amp in from_act:
            val += amp * u[i]
        for i, amp in from_pas:
            val += book.pas_pref * (amp * u[i])
        rows.append(book.dx2 * val)
    act = [rows[r] for r in book.active_of]
    grids = []
    for row in book.passive_rows:
        out = row.exo.value * row.cp_shapes[0]
        for (i, amp, _k, k_grid), shape in zip(row.entries, row.cp_shapes[1:]):
            out = out + k_grid * (amp * u[i]) * shape
        grids.append(out)
    grids = np.stack(grids)
    l1, l2 = np.sum(np.abs(grids) @ book.cp_w), np.sum((grids**2) @ book.cp_w)
    a0, a1, a2, a3 = act
    d11 = float(abs(a0) + abs(a1) + abs(a2) + abs(a3) + l1)
    d22 = math.sqrt(float(a0 * a0 + a1 * a1 + a2 * a2 + a3 * a3 + l2))
    return d11, d22, act


def engine_snapshot(eng):
    """A copy of a live engine that its later events leave alone."""
    out = copy.copy(eng)
    sums = out.sums = copy.copy(eng.sums)
    sums.g, sums.b, sums.start, sums.memo = (list(sums.g), list(sums.b), list(sums.start),
                                             list(sums.memo))
    sums.hist = [copy.copy(h) for h in sums.hist]  # appends land past the copied length
    return out


class TestCheckpointDiagnostics:
    @pytest.mark.parametrize("make", [make_family, every_kind_family])
    def test_after_run_columns_match_per_checkpoint_pass(self, monkeypatch, make):
        # the reference: the live engine right after the last event at or
        # before each checkpoint, advanced to it in one step and evaluated
        # there in one pass
        fam = make()
        for k in range(4):
            params = fam.micro_params(k)
            # the last checkpoint falls on the last event, which it reads
            horizon = float(simulate_book(params, 0.5, stream_rng(40 + k, 0, "micro")).events.times[-1])
            cps = np.linspace(0.0, horizon, 33).tolist()
            run = simulate_book(params, horizon, stream_rng(40 + k, 0, "micro"))
            assert run.events.times[-1] == cps[-1]
            snaps = []

            class RecordingEngine(micro._Engine):
                def __init__(self, params):
                    super().__init__(params)
                    snaps.append(engine_snapshot(self))

                def fire(self, label, distance):
                    super().fire(label, distance)
                    snaps.append(engine_snapshot(self))

            with monkeypatch.context() as m:
                m.setattr(micro, "_Engine", RecordingEngine)
                ref = simulate_book(params, horizon, stream_rng(40 + k, 0, "micro"))
            assert len(snaps) == run.accepted + 1 and run.accepted > 0
            rows = []
            for cp in cps:
                eng = engine_snapshot(snaps[int(np.searchsorted(run.event_times, cp, "right")) - 1])
                eng.advance(cp)
                rows.append(checkpoint_row(eng))
            d = run.diagnostics
            assert np.array_equal(d.d11, [r[0] for r in rows])
            assert np.array_equal(d.d22, [r[1] for r in rows])
            assert np.array_equal(d.active_scalars, [r[2] for r in rows])
            for name in ("times", "labels", "xs", "zs"):
                assert np.array_equal(getattr(run.events, name), getattr(ref.events, name),
                                      equal_nan=True)
            for name in ("load", "beta", "d11", "d22", "active_scalars"):
                assert np.array_equal(getattr(d, name), getattr(ref.diagnostics, name))


def per_run_checkpoint_records(cps, times, ends):
    """The last record at or before each checkpoint, one search per run."""
    starts = [0] + list(ends[:-1])
    return np.concatenate([s + np.searchsorted(times[s:e], cps, side="right") - 1
                           for s, e in zip(starts, ends)])


@pytest.mark.parametrize("n_checkpoints", [1, 2, 33, 101])
def test_checkpoint_records_count_as_one_search_per_run(n_checkpoints):
    horizon = 0.8
    cps = np.linspace(0.0, horizon, n_checkpoints)
    rng = np.random.default_rng(n_checkpoints)
    runs = [
        [0.0],  # no events
        [0.0, 1e-12, horizon / 3, horizon],  # an event at the horizon
        [0.0],
        np.concatenate([[0.0], np.sort(rng.uniform(0.0, horizon, 150))]),
        # events exactly at checkpoints, the first right after time 0
        np.concatenate([[0.0], np.unique(np.concatenate([cps[1:], cps[1:-1] + 1e-9]))]),
        [0.0],
    ]
    times = np.concatenate(runs)
    ends = np.cumsum([len(r) for r in runs]).tolist()
    got = micro._checkpoint_records(cps, times, ends)
    assert got.tolist() == per_run_checkpoint_records(cps, times, ends).tolist()


def test_identical_active_rows_share_one_row():
    # the standard family's four active types carry the same constant and
    # the same kernel terms, so they share one row
    book = micro._CompiledBook(make_family().micro_params(2))
    assert len(book.active_rows) == 1 and book.active_of == [0, 0, 0, 0]
    # a constant of its own keeps its own row
    params = make_family().micro_params(2)
    params.base_active["b_sp"] = ExoConst(params.base_active["b_sp"].value + 0.01)
    book = micro._CompiledBook(params)
    b_sp = ACTIVE_TYPES.index("b_sp")
    assert len(book.active_rows) == 2
    assert book.active_of[b_sp] == 1 and book.active_of.count(0) == 3


class ListHistorySums(KernelSums):
    """Running kernel sums with table histories kept in Python lists and
    copied into arrays at every scan, with no memo, and past sums read one
    checkpoint at a time: the reference for the array-backed histories,
    the scan memo and the per-run ``scan_past``."""

    def __init__(self, bank):
        super().__init__(bank)
        self.hist = [([], []) for _ in bank.histories]

    def fire(self, source, distance=math.nan):
        g = self.g
        for in_prof, (stateful, hists) in self.bank.excite.get(source, {}).items():
            w = 1.0 if in_prof is None else float(in_prof.value(distance))
            for i in stateful:
                g[i] += w
            for h in hists:
                self.hist[h][0].append(self.t)
                self.hist[h][1].append(w)

    def units(self, bound):
        u = self.g.copy()
        for i, ke in self.bank.gammas:
            u[i] = self.b[i] + u[i] / ke if bound else self.b[i]
        t = self.t
        for j, (i, h, prof, memory) in enumerate(self.bank.scans):
            times, weights = self.hist[h]
            start = self.start[j]
            while start < len(times) and t - times[start] > memory:
                start += 1
            self.start[j] = start
            lags = t - np.asarray(times[start:])
            shape = prof.envelope(lags) if bound else prof.value(lags)
            u[i] = float(np.asarray(weights[start:]) @ shape) if lags.size else 0.0
        return u

    def scan_past(self, u, ts):
        for c, t in enumerate(ts.tolist()):
            for i, h, prof, memory in self.bank.scans:
                times, weights = self.hist[h]
                n = bisect.bisect_right(times, t)
                start = 0
                while start < n and t - times[start] > memory:
                    start += 1
                lags = t - np.asarray(times[start:n])
                u[i, c] = (float(np.asarray(weights[start:n]) @ prof.value(lags))
                           if lags.size else 0.0)


class TestArrayHistory:
    # a raised envelope keeps the bound scans, so the memo sees both keys
    @pytest.mark.parametrize("seed, table", [
        pytest.param(4, tapered_table, id="4"), pytest.param(7, tapered_table, id="7"),
        pytest.param(4, raised_table, id="raised-4"), pytest.param(7, raised_table, id="raised-7"),
    ])
    def test_matches_list_history(self, monkeypatch, seed, table):
        g = GaussianProfile(1.0)
        fam = make_family(
            act_from_act={(tgt, src): table(0.2, 1.0) for tgt in "ab" for src in ACTIVE_TYPES},
            pas_from_pas={("b_cx", "b_lo"): (g, GaussianProfile(0.8, 0.3, 1.2), table(0.3, 1.0))},
        )
        # a small first capacity makes every scanned history double several times
        monkeypatch.setattr(families, "_HISTORY_CAPACITY", 2)
        run = simulate_book(fam.micro_params(2), 0.5, stream_rng(seed, 0, "micro"))
        counts = np.bincount(run.events.labels.astype(int), minlength=8)
        assert min(counts[[0, 1, 2, 3, EVENT_LABELS.index("P3")]]) > 2 * 2
        monkeypatch.setattr(micro, "KernelSums", ListHistorySums)
        ref = simulate_book(fam.micro_params(2), 0.5, stream_rng(seed, 0, "micro"))
        for name in ("times", "labels", "xs", "zs"):
            assert np.array_equal(getattr(run.events, name), getattr(ref.events, name),
                                  equal_nan=True)
        assert np.array_equal(run.ask_ticks, ref.ask_ticks)
        assert np.array_equal(run.bid_ticks, ref.bid_ticks)
        assert (run.candidates, run.accepted) == (ref.candidates, ref.accepted)
        for f in dataclasses.fields(micro.MicroDiagnostics):
            assert np.array_equal(getattr(run.diagnostics, f.name),
                                  getattr(ref.diagnostics, f.name)), f.name


class TestBoundFastPath:
    def test_self_enveloped_tables_skip_the_bound_pass(self):
        # tables in the active and both passive-source tables, beside an
        # exponential kernel; runs that take the bound pass are the reference
        g = GaussianProfile(1.0)
        fam = make_family(
            act_from_act={(tgt, src): tapered_table(0.2, 1.0) if src.endswith("mo")
                          else ExponentialProfile(0.2, 1.0)
                          for tgt in "ab" for src in ACTIVE_TYPES},
            act_from_pas={("b", "a_lo"): (g, tapered_table(0.1, 1.0))},
            pas_from_pas={("a_cx", "a_cx"): (g, g, tapered_table(0.2, 2.0))},
        )
        fast, slow = fam.micro_params(2), fam.micro_params(2)
        fast._compiled, slow._compiled = micro._CompiledBook(fast), micro._CompiledBook(slow)
        assert fast._compiled.bound_is_value and fast._compiled.bank.scans
        slow._compiled.bound_is_value = False

        def rngs():
            return [stream_rng(70, r, "micro") for r in range(6)]

        refs = [simulate_book(slow, 0.3, rng) for rng in rngs()]
        assert sum(ref.accepted for ref in refs) > 6 * 10
        for run, ref in zip([simulate_book(fast, 0.3, rng) for rng in rngs()], refs):
            assert_runs_identical(run, ref)
        for run, ref in zip(micro.simulate_books(fast, 0.3, rngs()),
                            micro.simulate_books(slow, 0.3, rngs())):
            assert_runs_identical(run, ref)

    @pytest.mark.parametrize("kernel", [
        pytest.param(raised_table(0.2, 1.0), id="raised"),
        pytest.param(subclassed_table(0.2, 1.0), id="subclass"),
    ])
    def test_other_scanned_kernels_keep_the_bound_pass(self, kernel):
        fam = make_family(act_from_act={(tgt, src): kernel for tgt in "ab" for src in ACTIVE_TYPES})
        assert not micro._CompiledBook(fam.micro_params(2)).bound_is_value


class TestTableLimit:
    def test_market_and_spread_tables_sum_in_the_limit(self):
        mo, sp = tapered_table(0.2, 1.0), tapered_table(0.1, 2.0, t_end=3.0, n=17)
        fam = make_family(act_from_act={("a", "a_mo"): mo, ("a", "a_sp"): sp})
        total = fam.limit_params().act_from_act[("a", "a")]
        lags = np.linspace(0.0, 5.0, 501)
        assert np.allclose(total.value(lags), mo.value(lags) + sp.value(lags), rtol=1e-12, atol=1e-15)
        assert np.allclose(total.envelope(lags), mo.envelope(lags) + sp.envelope(lags),
                           rtol=1e-12, atol=1e-15)

    def test_table_drift_difference_is_rejected(self):
        fam = make_family(
            act_from_act={("a", "a_mo"): tapered_table(0.2, 1.0)},
            drift_from_act={("a", "a_mo"): tapered_table(0.1, 1.0)},
        )
        with pytest.raises(ValueError, match="table kernels"):
            fam.micro_params(0)


def _lockstep_shapes():
    """Book models covering every kernel shape the lockstep engine handles,
    by name."""
    g, g2 = GaussianProfile(1.0), GaussianProfile(0.8, 0.3, 1.2)

    def act_kernel(prof):
        return lambda: make_family(
            act_from_act={(tgt, src): prof for tgt in "ab" for src in ACTIVE_TYPES}
        ).micro_params(2)

    return {
        "exponential": lambda: make_family().micro_params(2),
        # few events: several checkpoints fall between two events
        "sparse": lambda: make_family(act_from_act={
            (tgt, src): GammaProfile(0.2, 1.0) if tgt == "a" else ExponentialProfile(0.2, 1.0)
            for tgt in "ab" for src in ACTIVE_TYPES}).micro_params(0),
        "constant": act_kernel(ConstantProfile(0.05)),
        "gamma": act_kernel(GammaProfile(0.5, 2.0)),
        "table": act_kernel(tapered_table(0.2, 1.0)),
        "act_from_pas": lambda: make_family(act_from_pas={
            ("a", "a_lo"): (g, ExponentialProfile(0.3, 1.0)),
            ("b", "b_cx"): (g2, GammaProfile(0.4, 2.0)),
            ("b", "a_lo"): (g, tapered_table(0.1, 1.0)),
        }).micro_params(2),
        "pas_from": lambda: make_family(
            pas_from_act={("a_lo", "a_mo"): (g, ExponentialProfile(0.3, 1.0)),
                          ("a_lo", "b_mo"): (g2, GammaProfile(0.4, 2.0))},
            pas_from_pas={("a_lo", "b_cx"): (g2, g, ConstantProfile(0.01)),
                          ("a_cx", "a_cx"): (g, g, tapered_table(0.2, 2.0))},
        ).micro_params(2),
        # a strong, fast-decaying kernel: about one candidate in twenty is
        # thinned, and the next majorant is taken at its time
        "thinned": lambda: make_family(act_from_act={
            (tgt, src): ExponentialProfile(100.0, 800.0) for tgt in "ab" for src in ACTIVE_TYPES
        }).micro_params(1),
        "every_kind": lambda: every_kind_family().micro_params(2),
        # a passive type of two terms (a_lo), a source whose distance an
        # in-profile weighs (b_cx) and two types whose marks the pass skips
        "mixed_marks": lambda: make_family(
            pas_from_act={("a_lo", "a_mo"): (g, ExponentialProfile(0.3, 1.0))},
            act_from_pas={("b", "b_cx"): (g2, ExponentialProfile(0.3, 1.0))},
        ).micro_params(2),
    }


def assert_runs_identical(run, ref):
    """Every ``MicroRun`` field of ``run`` equals ``ref`` byte for byte."""
    for name in ("times", "labels", "xs", "zs"):
        a, b = getattr(run.events, name), getattr(ref.events, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    for name in ("event_times", "ask_ticks", "bid_ticks"):
        a, b = getattr(run, name), getattr(ref, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    for f in dataclasses.fields(micro.MicroDiagnostics):
        a, b = getattr(run.diagnostics, f.name), getattr(ref.diagnostics, f.name)
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), f.name
    for side in ("ask_vol", "bid_vol"):
        a, b = getattr(run.final_state, side), getattr(ref.final_state, side)
        assert a.base == b.base and a.values.tobytes() == b.values.tobytes(), side
    assert (run.final_state.ask_tick, run.final_state.bid_tick) == (
        ref.final_state.ask_tick, ref.final_state.bid_tick)
    assert (run.horizon, run.candidates, run.accepted) == (ref.horizon, ref.candidates, ref.accepted)
    assert run.events.horizon == ref.events.horizon


class TestLockstep:
    @pytest.mark.parametrize("n_checkpoints", [2, 33])
    @pytest.mark.parametrize("shape", list(_lockstep_shapes()))
    def test_matches_simulate_book_per_stream(self, shape, n_checkpoints):
        params = _lockstep_shapes()[shape]()
        horizon = 0.3
        refs = [simulate_book(params, horizon, stream_rng(60, r, "micro"), n_checkpoints)
                for r in range(17)]
        assert sum(ref.accepted for ref in refs) > 17 * 10
        for batch in (1, 3, 17):
            runs = micro.simulate_books(
                params, horizon, [stream_rng(60, r, "micro") for r in range(batch)],
                n_checkpoints)
            assert len(runs) == batch
            for run, ref in zip(runs, refs):
                assert_runs_identical(run, ref)

    def test_blocks_drawn_after_columns_retire(self):
        # replicates finish before, at and after pass BLOCK_ROWS, so the
        # second block is drawn for fewer columns than the first, and
        # columns retire from both blocks
        params = make_family().micro_params(1)
        refs = [simulate_book(params, 0.3, stream_rng(70, r, "micro")) for r in range(24)]
        finished = [ref.candidates for ref in refs]  # a run retires at the pass of that index
        assert min(finished) < micro.BLOCK_ROWS < max(finished)
        assert micro.BLOCK_ROWS in finished
        runs = micro.simulate_books(params, 0.3, [stream_rng(70, r, "micro") for r in range(24)])
        for run, ref in zip(runs, refs):
            assert_runs_identical(run, ref)

    def test_books_without_events(self):
        params = minimal_params()  # every rate vanishes
        runs = micro.simulate_books(params, 0.5, [stream_rng(64, r, "micro") for r in range(3)])
        for r, run in enumerate(runs):
            assert run.accepted == 0
            assert_runs_identical(run, simulate_book(params, 0.5, stream_rng(64, r, "micro")))
        assert micro.simulate_books(params, 0.5, []) == []

    def test_under_declared_envelope_names_the_replicate(self):
        class UnderTable(TableProfile):
            """A table whose envelope is half the one it declares, so its
            bound scans under-declare the kernel sums."""

            def envelope(self, t):
                return 0.5 * super().envelope(t)

        table = tapered_table(0.2, 1.0)
        under = UnderTable(table.ts, table.vals, table.env)
        params = make_family(
            act_from_act={(tgt, src): under for tgt in "ab" for src in ACTIVE_TYPES}
        ).micro_params(1)
        with pytest.raises(MajorantViolationError, match=r"^replicate (\d+): book rate") as exc:
            micro.simulate_books(params, 0.5, [stream_rng(61, r, "micro") for r in range(3)])
        r = int(exc.value.args[0].split(":")[0].split()[1])
        assert r in range(3)
        with pytest.raises(MajorantViolationError):
            simulate_book(params, 0.5, stream_rng(61, r, "micro"))

    def test_crossing_factors_name_the_replicate(self):
        # ungated spread placements and no market orders close the spread
        # and then cross the book
        params = minimal_params(
            state_factor={at: GatedConstantFactor(0.0 if at.endswith("mo") else 1.0, gated=False)
                          for at in ACTIVE_TYPES},
            base_active={at: ExoConst(1.0) for at in ACTIVE_TYPES},
        )
        with pytest.raises(NonCrossingError, match=r"^replicate (\d+): \w_sp would cross") as exc:
            micro.simulate_books(params, 5.0, [stream_rng(62, r, "micro") for r in range(3)])
        r = int(exc.value.args[0].split(":")[0].split()[1])
        assert r in range(3)
        with pytest.raises(NonCrossingError):
            simulate_book(params, 5.0, stream_rng(62, r, "micro"))

    def test_other_factors_are_rejected(self):
        params = minimal_params()
        params.state_factor["b_mo"] = lambda state: 1.0
        for run in (lambda: simulate_book(params, 0.5, stream_rng(63, 0, "micro")),
                    lambda: micro.simulate_books(params, 0.5, [stream_rng(63, 0, "micro")])):
            with pytest.raises(TypeError, match="^the state factor of b_mo must be .*; got function$"):
                run()

    @pytest.mark.parametrize("slot", ["b_mo", "a_cx"])
    def test_other_densities_are_rejected(self, slot):
        class StateDensity:
            """A density of the whole book state, outside the contract."""

            def __call__(self, t, state):
                return 0.1

            def sup_t(self, state):
                return 0.1

        class RatesAndBounds:
            """A density of the time and the best ticks, with its bound."""

            value = 0.1

            def rates(self, t, ask, bid, delta_x):
                return np.full(np.shape(ask), self.value)

            def bounds(self, ask, bid, delta_x):
                return np.full(np.shape(ask), self.value)

        for density in (StateDensity(), RatesAndBounds()):
            params = minimal_params()
            if slot in ACTIVE_TYPES:
                params.base_active[slot] = density
            else:
                params.base_passive[slot] = (density, GaussianProfile(1.0))
            name = type(density).__name__
            for run in (lambda: simulate_book(params, 0.5, stream_rng(63, 0, "micro")),
                        lambda: micro.simulate_books(params, 0.5, [stream_rng(63, 0, "micro")]),
                        lambda: micro._CompiledBook(params)):
                with pytest.raises(TypeError, match=f"^the exogenous density of {slot} must be "
                                                    f"an ExoConst; got {name}$"):
                    run()


class TestDrawLayout:
    @pytest.mark.parametrize("shape", ["sparse", "table", "pas_from", "every_kind"])
    def test_streams_do_not_depend_on_the_checkpoints(self, shape):
        params = _lockstep_shapes()[shape]()
        horizon = 0.3
        for simulate in (lambda n_cp: [simulate_book(params, horizon, stream_rng(65, r, "micro"), n_cp)
                                       for r in range(5)],
                         lambda n_cp: micro.simulate_books(
                             params, horizon, [stream_rng(65, r, "micro") for r in range(5)], n_cp)):
            ref = simulate(33)
            assert sum(run.accepted for run in ref) > 5 * 5
            for n_cp in (2, 101):
                for run, r in zip(simulate(n_cp), ref):
                    for name in ("times", "labels", "xs", "zs"):
                        assert getattr(run.events, name).tobytes() == getattr(r.events, name).tobytes()
                    for name in ("ask_ticks", "bid_ticks"):
                        assert getattr(run, name).tobytes() == getattr(r, name).tobytes()
                    for name in ("load", "beta"):
                        assert (getattr(run.diagnostics, name).tobytes()
                                == getattr(r.diagnostics, name).tobytes())
                    assert run.diagnostics.d11.size == n_cp

    @pytest.mark.parametrize("shape", ["exponential", "gamma", "pas_from", "every_kind"])
    def test_block_size_does_not_change_the_runs(self, monkeypatch, shape):
        params = _lockstep_shapes()[shape]()
        horizon = 0.3
        refs = [simulate_book(params, horizon, stream_rng(66, r, "micro")) for r in range(5)]
        assert max(ref.candidates for ref in refs) > micro.BLOCK_ROWS  # several blocks a run
        for rows in (1, 5):
            monkeypatch.setattr(micro, "BLOCK_ROWS", rows)
            runs = micro.simulate_books(params, horizon, [stream_rng(66, r, "micro") for r in range(5)])
            for r, (run, ref) in enumerate(zip(runs, refs)):
                assert_runs_identical(run, ref)
                assert_runs_identical(simulate_book(params, horizon, stream_rng(66, r, "micro")), ref)

    def test_candidate_k_reads_row_k_of_the_stream(self):
        # a Poisson book whose spread only widens: the majorant is the
        # constant total rate, every candidate is an event, and candidate k
        # reads the stream's uniforms 7k to 7k + 6
        params = minimal_params(
            state_factor={at: GatedConstantFactor(0.0 if at.endswith("sp") else 1.0, gated=False)
                          for at in ACTIVE_TYPES},
            base_active={at: ExoConst(0.02) for at in ACTIVE_TYPES},
            base_passive={pt: (ExoConst(0.5), GaussianProfile(1.0)) for pt in PASSIVE_TYPES},
            sizes={pt: SizeMeasure("exponential", rate=6.0) for pt in PASSIVE_TYPES},
        )
        act, pas, _terms, _mu = micro._Engine(params).rates(False)
        total = micro._rate_total(act, pas)
        cum = np.cumsum(act + pas)
        run = simulate_book(params, 1.0, stream_rng(67, 0, "micro"))
        assert run.candidates == run.accepted > 50
        rows = stream_rng(67, 0, "micro").random((run.accepted, 7))
        times = np.cumsum(-np.log1p(-rows[:, 0]) / total)
        assert run.events.times.tobytes() == times.tobytes()
        labels = np.argmax(rows[:, 2:3] * total <= cum, axis=1)
        assert np.array_equal(run.events.labels, labels)
        passive = labels >= 4
        sampler = micro._CompiledBook(params).passive_rows[0].samplers[0]
        assert run.events.xs[passive].tolist() == sampler.samples(
            rows[passive, 4], rows[passive, 5]).tolist()
        assert run.events.zs[passive].tolist() == (-np.log1p(-rows[passive, 6]) / 6.0).tolist()


#: both micro engines on a list of streams, by name
ENGINES = {
    "simulate_book": lambda params, horizon, rngs: [simulate_book(params, horizon, g) for g in rngs],
    "simulate_books": lambda params, horizon, rngs: micro.simulate_books(params, horizon, rngs),
}


@pytest.mark.parametrize("engine", list(ENGINES))
@pytest.mark.parametrize("shape, marked", [("exponential", []), ("mixed_marks", ["a_lo", "b_cx"])])
def test_marks_are_drawn_after_the_run(monkeypatch, engine, shape, marked):
    # a run draws the distances it reads, of a passive type with more than
    # one term or of a source an in-profile weighs; every other mark is
    # drawn after the run, one sampler call per (type, term) and engine call
    params = _lockstep_shapes()[shape]()
    calls, one_at_a_time = [], []
    for cls, name, into in ((families.TickSampler, "samples", calls), (SizeMeasure, "samples", calls),
                            (families.TickSampler, "sample", one_at_a_time)):
        def counted(self, *args, _f=getattr(cls, name), _into=into):
            _into.append(self)
            return _f(self, *args)

        monkeypatch.setattr(cls, name, counted)
    n_calls = 17 if engine == "simulate_book" else 1
    runs = ENGINES[engine](params, 0.3, [stream_rng(69, r, "micro") for r in range(17)])
    drawn, drawn_singly = calls[:], one_at_a_time[:]
    monkeypatch.undo()
    book = params._compiled
    assert [PASSIVE_TYPES[k - 4] for k in np.flatnonzero(book.marked)] == marked
    assert sum(int(np.sum(run.events.labels >= 4)) for run in runs) > 100
    after_run = [*params.sizes.values(), *(s for pt, row in zip(PASSIVE_TYPES, book.passive_rows)
                                           if pt not in marked for s in row.samplers)]
    assert all(drawn.count(obj) <= n_calls and obj not in drawn_singly for obj in after_run)
    if not marked:
        assert len(drawn) <= n_calls * len(after_run)
    other = "simulate_books" if engine == "simulate_book" else "simulate_book"
    refs = ENGINES[other](params, 0.3, [stream_rng(69, r, "micro") for r in range(17)])
    for run, ref in zip(runs, refs):
        assert_runs_identical(run, ref)


@pytest.mark.parametrize("engine", list(ENGINES))
@pytest.mark.parametrize("horizon", [0.0, -1.0, math.nan, math.inf])
def test_horizon_must_be_positive_and_finite(engine, horizon):
    # a NaN horizon never ends a run, and a negative one gives negative
    # checkpoint times
    params = make_family().micro_params(0)
    with pytest.raises(ValueError, match="^horizon must be positive and finite"):
        ENGINES[engine](params, horizon, [stream_rng(71, 0, "micro")])


def widening_poisson_params():
    """A Poisson book whose spread only widens: the majorant is the constant
    total rate, so every candidate is an event."""
    return minimal_params(
        state_factor={at: GatedConstantFactor(0.0 if at.endswith("sp") else 1.0, gated=False)
                      for at in ACTIVE_TYPES},
        base_active={at: ExoConst(0.02) for at in ACTIVE_TYPES},
        base_passive={pt: (ExoConst(0.5), GaussianProfile(1.0)) for pt in PASSIVE_TYPES},
        sizes={pt: SizeMeasure("exponential", rate=6.0) for pt in PASSIVE_TYPES},
    )


def test_zero_waits_fail_the_event_time_check(monkeypatch):
    # two accepted candidates that wait nothing repeat an event time, which
    # both engines must still refuse
    draw = micro._draw_block

    def zero_waits(rngs):
        block = draw(rngs)
        block[3:5, micro._WAIT] = 0.0
        return block

    params = widening_poisson_params()
    monkeypatch.setattr(micro, "_draw_block", zero_waits)
    with pytest.raises(ValueError, match="^event times must be strictly increasing$"):
        simulate_book(params, 1.0, stream_rng(68, 0, "micro"))
    with pytest.raises(ValueError, match="^event times must be strictly increasing$"):
        micro.simulate_books(params, 1.0, [stream_rng(68, r, "micro") for r in range(3)])


_ACT_KERNELS = {
    "exponential": ExponentialProfile(0.2, 1.0),
    "gamma": GammaProfile(0.5, 2.0),
    "constant": ConstantProfile(0.05),
    "table": tapered_table(0.2, 1.0),
}


@functools.lru_cache(maxsize=None)
def act_kernel_params(kernel, level, rates):
    """Level ``level`` of the test family with every active-to-active kernel
    ``_ACT_KERNELS[kernel]`` and the state factors of the ``rates`` family,
    compiled once for every example."""
    return make_family(rates={s: ActiveRateFamily(rates, 0.5) for s in "ab"},
                       act_from_act={(tgt, src): _ACT_KERNELS[kernel]
                                     for tgt in "ab" for src in ACTIVE_TYPES}).micro_params(level)


@given(
    kernel=st.sampled_from(sorted(_ACT_KERNELS)),
    level=st.integers(0, 1),
    rates=st.sampled_from(["spread_linear", "constant"]),
    horizon=st.floats(0.0, 0.1, exclude_min=True),
    batch=st.integers(1, 12),
    seed=st.integers(0, 2**31 - 1),
)
@example(kernel="table", level=1, rates="spread_linear", horizon=0.1, batch=12, seed=0)
@example(kernel="gamma", level=1, rates="spread_linear", horizon=0.1, batch=12, seed=0)
@example(kernel="gamma", level=1, rates="constant", horizon=0.1, batch=12, seed=0)
@settings(max_examples=150, deadline=None)
def test_any_batch_equals_single_streams(kernel, level, rates, horizon, batch, seed):
    params = act_kernel_params(kernel, level, rates)
    runs = micro.simulate_books(params, horizon, [stream_rng(seed, r, "micro") for r in range(batch)])
    assert len(runs) == batch
    for r, run in enumerate(runs):
        assert_runs_identical(run, simulate_book(params, horizon, stream_rng(seed, r, "micro")))


def fold_reference(params, ledger, events):
    """``ledger`` after ``events``, (tick, placement, size) each, applied one
    at a time: a tick outside the window first grows it to 16 ticks beyond
    the tick, then the placement adds or the cancellation multiplies."""
    dx, ratio = params.delta_x, params.delta_v / params.delta_x
    base, values = ledger.base, ledger.values.tolist()

    def initial(lo, hi):
        return np.asarray(ledger.init_density((np.arange(lo, hi) + 0.5) * dx), dtype=float).tolist()

    for tick, place, z in events:
        if tick < base:
            values = initial(tick - 16, base) + values
            base = tick - 16
        elif tick >= base + len(values):
            values += initial(base + len(values), tick + 17)
        k = tick - base
        gain = math.exp(z if place else -z) - 1.0
        values[k] = values[k] + ratio * gain if place else values[k] * (1.0 + ratio * gain)
    return base, np.array(values)


def passive_events(run):
    """(side, tick, placement, size) of every passive event of ``run``."""
    out = []
    for k, (lab, x, z) in enumerate(zip(run.events.labels.tolist(), run.events.xs.tolist(),
                                         run.events.zs.tolist())):
        if lab >= 4:
            cell = math.floor(x / run.final_state.grid.delta_x + 1e-9)
            ask, bid = int(run.ask_ticks[k]), int(run.bid_ticks[k])
            out.append(("bid_vol", bid - cell - 1, lab, z) if lab >= 6 else ("ask_vol", ask + cell, lab, z))
    return [(side, tick, lab % 2 == 0, z) for side, tick, lab, z in out]


def assert_ledgers_follow_events(params, run):
    """The final ledgers of ``run`` equal ``fold_reference`` of its passive
    events."""
    state0 = params.initial_state()
    events = passive_events(run)
    for side in ("ask_vol", "bid_vol"):
        base, values = fold_reference(params, getattr(state0, side),
                                      [e[1:] for e in events if e[0] == side])
        led = getattr(run.final_state, side)
        assert (led.base, led.values.tobytes()) == (base, values.tobytes()), side


class TestLedgerFold:
    def test_each_tick_sees_its_events_in_order(self):
        params = minimal_params()  # delta_v / delta_x = 1/2
        state0 = params.initial_state()
        ask, bid = state0.ask_tick, state0.bid_tick
        b0, e0 = state0.ask_vol.base, state0.ask_vol.base + state0.ask_vol.values.size

        def at(side, tick):
            """The distance that hits ``tick`` on ``side``."""
            cell = tick - ask if side == "a" else bid - 1 - tick
            return (cell + 0.5) * params.delta_x

        t = ask + 3
        # (label, distance, size) per record of run 0, then of run 1
        records = [
            [(4, at("a", t), 0.3), (4, at("a", t), 0.7), (5, at("a", t), 0.2),  # add, add, scale
             (0, math.nan, math.nan),  # an active record is skipped
             (5, at("a", t + 1), 0.4), (4, at("a", t + 1), 0.1),  # scale then add
             (7, at("b", bid - 2), 0.5), (6, at("b", bid - 2), 0.5),
             # the near tick first: the farther one then lies inside the grown window
             (4, at("a", b0 - 1), 0.2), (4, at("a", b0 - 10), 0.2),
             (6, at("b", e0), 0.1), (7, at("b", e0 + 9), 0.1),
             (4, 0.3, 0.2)],  # 0.3 / 0.1 rounds below 3, and counts in cell 3
            [(4, at("a", t), 0.7), (5, at("a", t), 0.2), (4, at("a", t), 0.3),
             (4, at("a", t + 1), 0.1), (5, at("a", t + 1), 0.4),
             (6, at("b", b0 - 10), 0.2), (6, at("b", b0 - 1), 0.2)],
        ]
        runs = np.repeat([0, 1], [len(r) for r in records])
        labels, xs, zs = (np.array(col) for col in zip(*records[0], *records[1]))
        n = labels.size
        got = micro._fold_ledgers(params, [state0.ask_vol, state0.bid_vol] * 2, runs, labels, xs,
                                  zs, np.full(n, ask), np.full(n, bid))
        for r, recs in enumerate(records):
            for k, side in enumerate(("ask_vol", "bid_vol")):
                events = []
                for lab, x, z in recs:
                    if lab >= 4 and (lab >= 6) == k:
                        cell = math.floor(x / params.delta_x + 1e-9)
                        events.append((bid - cell - 1 if k else ask + cell, lab % 2 == 0, z))
                base, values = fold_reference(params, getattr(state0, side), events)
                led = got[2 * r + k]
                assert (led.base, led.values.tobytes()) == (base, values.tobytes()), (r, side)
        # the same three events on tick t, and the same two on t + 1, in
        # another order
        assert got[0].values[t - (b0 - 17)] != got[2].values[t - b0]
        assert got[0].values[t + 1 - (b0 - 17)] != got[2].values[t + 1 - b0]
        assert got[0].base == b0 - 17 and got[2].base == b0  # not b0 - 26
        assert got[1].base + got[1].values.size == e0 + 17  # not e0 + 26
        assert got[3].base == b0 - 26

    def test_windows_drift_out_on_both_sides(self):
        # market orders only: the ask climbs and the bid falls until the
        # passive ticks leave the initial windows, above and below
        params = minimal_params(
            state_factor={at: GatedConstantFactor(0.0 if at.endswith("sp") else 1.0, gated=False)
                          for at in ACTIVE_TYPES},
            base_active={at: ExoConst(1.0) for at in ACTIVE_TYPES},
            base_passive={pt: (ExoConst(0.5), GaussianProfile(1.0)) for pt in PASSIVE_TYPES},
            sizes={pt: SizeMeasure("exponential", rate=6.0) for pt in PASSIVE_TYPES},
        )
        state0 = params.initial_state()
        b0, e0 = state0.ask_vol.base, state0.ask_vol.base + state0.ask_vol.values.size
        horizon, n = 1.5, 6
        runs = micro.simulate_books(params, horizon, [stream_rng(69, r, "micro") for r in range(n)])
        order_mattered = 0
        for r, run in enumerate(runs):
            ref = simulate_book(params, horizon, stream_rng(69, r, "micro"))
            _asks, _bids, replay = replay_book(params, run.events)
            for side in ("ask_vol", "bid_vol"):
                led = getattr(run.final_state, side)
                for other in (getattr(ref.final_state, side), getattr(replay, side)):
                    assert (other.base, other.values.size, other.values.tobytes()) == (
                        led.base, led.values.size, led.values.tobytes()), (r, side)
            ask_led, bid_led = run.final_state.ask_vol, run.final_state.bid_vol
            assert ask_led.base + ask_led.values.size > e0 and bid_led.base < b0
            assert_ledgers_follow_events(params, run)
            # a window set by the extreme tick alone would reach further
            ticks = [tick for side, tick, _p, _z in passive_events(run) if side == "bid_vol"]
            order_mattered += bid_led.base != min(b0, min(ticks) - 16)
        assert order_mattered


_PAS_FROM = {
    "act_exponential": ("pas_from_act", ("a_lo", "a_mo"), (GaussianProfile(1.0), ExponentialProfile(0.3, 1.0))),
    "act_gamma": ("pas_from_act", ("a_lo", "b_mo"), (GaussianProfile(0.8, 0.3, 1.2), GammaProfile(0.4, 2.0))),
    "pas_constant": ("pas_from_pas", ("a_lo", "b_cx"),
                     (GaussianProfile(0.8, 0.3, 1.2), GaussianProfile(1.0), ConstantProfile(0.01))),
    "pas_table": ("pas_from_pas", ("a_cx", "a_cx"),
                  (GaussianProfile(1.0), GaussianProfile(1.0), tapered_table(0.2, 2.0))),
}


@functools.lru_cache(maxsize=None)
def ledger_property_params(kernel, pas_from, level):
    """Level ``level`` of the test family with every active-to-active kernel
    ``_ACT_KERNELS[kernel]`` and the ``_PAS_FROM`` entries named in
    ``pas_from``."""
    tables = {"pas_from_act": {}, "pas_from_pas": {}}
    for name in pas_from:
        table, key, entry = _PAS_FROM[name]
        tables[table][key] = entry
    fam = make_family(act_from_act={(tgt, src): _ACT_KERNELS[kernel]
                                    for tgt in "ab" for src in ACTIVE_TYPES}, **tables)
    return fam.micro_params(level)


@given(
    kernel=st.sampled_from(sorted(_ACT_KERNELS)),
    pas_from=st.frozensets(st.sampled_from(sorted(_PAS_FROM))),
    level=st.integers(0, 1),
    horizon=st.floats(0.0, 0.3, exclude_min=True),
    batch=st.integers(1, 6),
    seed=st.integers(0, 2**31 - 1),
)
@settings(max_examples=150, deadline=None)
def test_final_ledgers_equal_a_replay_of_each_run(kernel, pas_from, level, horizon, batch, seed):
    params = ledger_property_params(kernel, pas_from, level)
    runs = micro.simulate_books(params, horizon, [stream_rng(seed, r, "micro") for r in range(batch)])
    for run in runs:
        asks, bids, final = replay_book(params, run.events)
        assert asks.tobytes() == run.ask_ticks.tobytes() and bids.tobytes() == run.bid_ticks.tobytes()
        assert (final.ask_tick, final.bid_tick) == (run.final_state.ask_tick, run.final_state.bid_tick)
        for side in ("ask_vol", "bid_vol"):
            a, b = getattr(run.final_state, side), getattr(final, side)
            assert (a.base, a.values.size, a.values.tobytes()) == (b.base, b.values.size, b.values.tobytes())
        assert_ledgers_follow_events(params, run)
