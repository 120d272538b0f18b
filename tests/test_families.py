import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hawkeslob
from hawkeslob.families import (
    ConstantProfile,
    ExponentialProfile,
    GammaProfile,
    GaussianProfile,
    KernelBank,
    KernelSums,
    SpatialProfile,
    TableProfile,
    UniformProfile,
    ZeroProfile,
    combine_amplitudes,
    spatial_profile_from_params,
    sum_profiles,
    time_profile_from_params,
)


@pytest.mark.parametrize(
    "profile",
    [
        ConstantProfile(0.7),
        ExponentialProfile(0.5, 1.3),
        GammaProfile(0.4, 2.0),
    ],
)
def test_envelope_dominates_and_non_increasing(profile):
    ts = np.linspace(0.0, 10.0, 400)
    env = profile.envelope(ts)
    assert np.all(env + 1e-12 >= profile.value(ts))
    assert np.all(np.diff(env) <= 1e-12)


class DistanceWeight(SpatialProfile):
    """In-profile weighing each event by its distance coordinate."""

    def value(self, x):
        return np.asarray(x, dtype=float)


def tapered_table():
    ts = np.linspace(0.0, 2.0, 21)
    vals = 0.7 * np.exp(-ts) * (1.0 - ts / 2.0)
    return TableProfile(ts, vals, vals)


def one_entry_bank(prof):
    # eps 0: a scan drops only events whose lag is past the table's end,
    # where it is exactly zero
    bank = KernelBank(0.0)
    state, amp = bank.entry(0, DistanceWeight(), prof)
    return KernelSums(bank), state, amp


@given(
    st.lists(st.floats(0.001, 0.5), min_size=1, max_size=30),
    st.lists(st.floats(0.0, 2.0), min_size=1, max_size=30),
)
@settings(max_examples=50, deadline=None)
def test_decay_state_matches_direct_sum(gaps, weights):
    n = min(len(gaps), len(weights))
    gaps, weights = gaps[:n], weights[:n]
    for prof in (ConstantProfile(0.8), ExponentialProfile(0.6, 1.1), GammaProfile(0.5, 0.9),
                 tapered_table()):
        sums, state, amp = one_entry_bank(prof)
        times = np.cumsum(gaps)
        for t, g, w in zip(times, gaps, weights):
            sums.advance(t, g)
            sums.fire(0, w)
        t = times[-1]
        direct = float(np.sum(np.asarray(weights) * prof.value(t - times)))
        value = amp * sums.units(False)[state]
        assert value == pytest.approx(direct, rel=1e-10, abs=1e-12)
        assert amp * sums.units(True)[state] + 1e-12 >= value


def test_gamma_state_bound_holds_into_the_future():
    for prof in (GammaProfile(1.0, 2.0), tapered_table()):
        sums, state, amp = one_entry_bank(prof)
        sums.fire(0, 1.0)
        bound = amp * sums.units(True)[state]
        for dt in np.linspace(0.01, 3.0, 50):
            sums.advance(float(dt), float(dt) - sums.t)
            assert amp * sums.units(False)[state] <= bound + 1e-12


def test_scan_past_reads_what_scan_read_then():
    # a table whose envelope crosses eps inside its support, so the window
    # drops events whose weight is not zero, and the history grows past them
    ts = np.linspace(0.0, 6.0, 61)
    vals = np.exp(-2.0 * ts)
    prof = TableProfile(ts, vals, vals)
    bank = KernelBank(1e-3)
    state, _amp = bank.entry(0, None, prof)
    assert 3.0 < bank.scans[0][3] < 4.0  # the window memory
    sums = KernelSums(bank)
    rng = np.random.default_rng(5)
    times = np.cumsum(rng.exponential(0.3, 60))
    seen = []
    for t in times.tolist():
        sums.advance(t, t - sums.t)
        sums.fire(0)
        seen.append((t, sums.units(False)[state]))
    assert sums.start[0] > 10
    ts, values = np.array(seen).T
    u = np.zeros((len(bank.states), ts.size))
    sums.scan_past(u, ts)
    assert u[state].tolist() == values.tolist()


def test_scan_reuses_a_sum_at_the_same_time_and_history_length():
    scanned = []

    class CountedTable(TableProfile):
        def value(self, t):
            scanned.append(("value", np.size(t)))
            return super().value(t)

        def envelope(self, t):
            scanned.append(("envelope", np.size(t)))
            return super().envelope(t)

    base = tapered_table()
    prof = CountedTable(base.ts, base.vals, base.vals)
    bank = KernelBank(1e-3)
    (a, _), (b, _) = bank.entry(0, None, prof), bank.entry(1, None, prof)
    sums = KernelSums(bank)
    sums.advance(0.1, 0.1)
    sums.fire(0)
    sums.fire(1)
    first = sums.units(False)
    scanned.clear()
    assert sums.units(False) == first and not scanned
    sums.fire(0)  # only the state source 0 feeds scans again
    second = sums.units(False)
    assert scanned == [("value", 2)] and second[b] == first[b] and second[a] == 2 * first[a]
    scanned.clear()
    sums.units(True)  # a bound is keyed apart from a value
    assert scanned == [("envelope", 2), ("envelope", 1)]
    scanned.clear()
    sums.advance(0.2, 0.1)
    sums.units(False)
    assert scanned == [("value", 2), ("value", 1)]


def test_bank_shares_one_state_per_source_and_decay_rate():
    bank = KernelBank(1e-12)
    a = bank.entry(0, None, ExponentialProfile(0.3, 1.1))
    assert bank.entry(0, None, ExponentialProfile(0.6, 1.1)) == (a[0], 0.6)
    assert bank.entry(1, None, ExponentialProfile(0.3, 1.1))[0] != a[0]
    assert bank.entry(0, None, ExponentialProfile(0.3, 2.0))[0] != a[0]
    assert bank.entry(0, None, ConstantProfile(0.2))[0] == bank.entry(0, None, ZeroProfile())[0]
    assert bank.entry(0, None, tapered_table())[0] == bank.entry(0, None, tapered_table())[0]
    assert len(bank.states) == 5 and len(bank.histories) == 1


def test_envelope_inverse():
    prof = ExponentialProfile(2.0, 1.5)
    lag = prof.envelope_inverse(1e-6)
    assert prof.envelope(lag) == pytest.approx(1e-6, rel=1e-6)
    assert math.isinf(ConstantProfile(1.0).envelope_inverse(1e-6))
    g = GammaProfile(1.0, 1.0)
    lag = g.envelope_inverse(1e-8)
    assert g.envelope(lag) <= 1e-8 * (1 + 1e-6)


@pytest.mark.parametrize("cls, args", [
    (ConstantProfile, (math.nan,)),
    (ConstantProfile, (math.inf,)),
    (ExponentialProfile, (math.nan, 1.0)),
    (ExponentialProfile, (0.5, math.inf)),
    (GammaProfile, (math.inf, 1.0)),
    (GammaProfile, (0.5, math.nan)),
    (TableProfile, ([0.0, math.nan], [1.0, 0.0], [1.0, 0.0])),
    (TableProfile, ([0.0, 1.0], [math.nan, 0.0], [1.0, 0.0])),
    (TableProfile, ([0.0, 1.0], [1.0, 0.0], [math.inf, 0.0])),
])
def test_time_profiles_reject_non_finite_parameters(cls, args):
    # a NaN amplitude or decay rate made thinning loop forever
    with pytest.raises(ValueError, match="finite"):
        cls(*args)


def test_table_profile_requires_valid_envelope():
    ts = [0.0, 1.0, 2.0]
    with pytest.raises(ValueError):
        TableProfile(ts, [1.0, 0.5, 0.2], [1.0, 1.5, 0.2])  # not non-increasing
    with pytest.raises(ValueError):
        TableProfile(ts, [1.0, 0.5, 0.2], [1.0, 0.4, 0.2])  # does not dominate
    prof = TableProfile(ts, [1.0, 0.5, 0.2], [1.0, 0.5, 0.2])
    assert prof.value(0.5) == pytest.approx(0.75)


def test_time_profile_factory():
    assert isinstance(time_profile_from_params({"family": "zero"}), ZeroProfile)
    with pytest.raises(ValueError, match="unknown time kernel family"):
        time_profile_from_params({"family": "witch-hat"})
    with pytest.raises(ValueError, match="envelope"):
        time_profile_from_params({"family": "table", "ts": [0, 1], "values": [1, 1]})


def test_combine_amplitudes():
    base = ExponentialProfile(1.0, 2.0)
    diff = ExponentialProfile(0.4, 2.0)
    up = combine_amplitudes(base, diff, 0.5)
    assert up.c == pytest.approx(1.2) and up.kappa == 2.0
    with pytest.raises(ValueError, match="share a family"):
        combine_amplitudes(base, ConstantProfile(0.1), 1.0)
    with pytest.raises(ValueError, match="decay rate"):
        combine_amplitudes(base, ExponentialProfile(0.1, 3.0), 1.0)
    with pytest.raises(ValueError, match="negative"):
        combine_amplitudes(base, diff, -10.0)
    assert combine_amplitudes(base, None, 1.0) is base


def test_sum_profiles_of_tables_is_the_pointwise_sum():
    a = TableProfile([0.0, 1.0, 3.0], [1.0, 0.5, 0.0], [1.0, 0.6, 0.0])
    b = TableProfile([0.0, 0.5, 2.0, 2.5], [0.4, 0.3, 0.1, 0.0], [0.4, 0.3, 0.1, 0.0])
    total = sum_profiles(a, b)
    assert np.array_equal(total.ts, [0.0, 0.5, 1.0, 2.0, 2.5, 3.0])
    lags = np.linspace(0.0, 4.0, 801)
    assert np.allclose(total.value(lags), a.value(lags) + b.value(lags), rtol=1e-14, atol=1e-15)
    assert np.allclose(total.envelope(lags), a.envelope(lags) + b.envelope(lags),
                       rtol=1e-14, atol=1e-15)
    assert sum_profiles(ExponentialProfile(0.2, 1.0), ExponentialProfile(0.3, 1.0)).c == 0.5
    with pytest.raises(ValueError, match="table kernel sums only"):
        sum_profiles(a, ExponentialProfile(0.2, 1.0))
    with pytest.raises(ValueError, match="table kernels"):
        combine_amplitudes(a, b, 0.5)


def test_gaussian_profile_mass_and_sampler():
    prof = GaussianProfile(2.0, center=0.3, width=0.8)
    L = 3.0
    xs = np.linspace(-L, L, 20001)
    mass_quad = np.trapezoid(prof.value(xs), xs)
    assert prof.mass(L) == pytest.approx(mass_quad, rel=1e-8)

    ticks = prof.tick_masses(0.5, L)
    assert ticks.sum() == pytest.approx(prof.mass(L), rel=1e-12)

    rng = np.random.default_rng(0)
    sampler = prof.sampler(0.1, L)
    draws = sampler.samples(rng.random(20000), rng.random(20000))
    assert np.all((draws >= -L) & (draws <= L))
    # empirical mean close to the truncated-profile mean
    mean_true = np.trapezoid(xs * prof.value(xs), xs) / mass_quad
    assert draws.mean() == pytest.approx(mean_true, abs=0.02)


@pytest.mark.parametrize("amplitude, center, width",
                         [(1.0, 0.0, 1.0), (2.0, 0.3, 0.8), (0.05, -1.7, 3.5), (40.0, 2.5, 0.1)])
@pytest.mark.parametrize("delta_x, half_width", [(0.1, 2.8), (0.1 / 32, 2.8), (0.5, 30.0)])
def test_gaussian_cdf_matches_scipy_erf(amplitude, center, width, delta_x, half_width):
    # the package evaluates math.erf per element; scipy's erf is the
    # reference. Tail tick masses are differences of values near the CDF's
    # ends, so every comparison is absolute, scaled by amplitude * width
    from scipy.special import erf

    prof = GaussianProfile(amplitude, center, width)
    n_side = round(half_width / delta_x)
    edges = delta_x * np.arange(-n_side, n_side + 1)
    scale = amplitude * width * 0.5 * math.sqrt(math.pi)
    ref = scale * erf((edges - center) / width)
    tol = 1e-15 * amplitude * width
    np.testing.assert_allclose(prof._cdf(edges), ref, rtol=0, atol=tol)
    np.testing.assert_allclose(prof.tick_masses(delta_x, half_width), np.diff(ref),
                               rtol=0, atol=tol)
    ref_mass = scale * (erf((half_width - center) / width) - erf((-half_width - center) / width))
    assert prof.mass(half_width) == pytest.approx(ref_mass, rel=0, abs=tol)
    # the sampler CDF is a running sum over the cells divided by their total,
    # so its last entry is 1 up to rounding; sample() clamps to the last cell
    cum = np.array(prof.sampler(delta_x, half_width).cum)
    ref_cum = np.cumsum(np.diff(ref)) / np.diff(ref).sum()
    np.testing.assert_allclose(cum, ref_cum, rtol=0, atol=1e-14)
    assert cum[-1] == pytest.approx(1.0, rel=0, abs=1e-14)


def test_importing_the_package_loads_no_scipy():
    package = Path(hawkeslob.__file__).parent
    code = "import sys\n" + "".join(
        f"import hawkeslob.{p.stem}\n" for p in sorted(package.glob("*.py")) if p.stem != "__init__"
    ) + "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, cwd=package.parent)
    assert out.stdout.strip() == "[]"


def test_uniform_profile():
    prof = UniformProfile(1.5)
    assert prof.mass(2.0) == pytest.approx(6.0)
    assert spatial_profile_from_params(prof.params()).mass(2.0) == pytest.approx(6.0)
    with pytest.raises(ValueError, match="unknown spatial profile"):
        spatial_profile_from_params({"family": "spiral"})
