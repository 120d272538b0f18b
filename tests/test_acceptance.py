"""Acceptance suite.

One test per acceptance criterion, each ending with a single PASS line and
enforcing the stated tolerance and runtime budget.  The scaling-limit
experiment is shared between the convergence and moment criteria through a
session fixture.
"""

import filecmp
import json
import math
import time

import numpy as np
import pytest
import yaml
from scipy import stats

from hawkeslob import limit as L
from hawkeslob.cli import run as cli_run
from hawkeslob.families import ConstantProfile
from hawkeslob.harness import (
    ExperimentPlan,
    ask_price_times_volume,
    martingale_residual,
    moment_diagnostics,
    run_convergence,
    squared_ask_price,
    wasserstein1,
)
from hawkeslob.hawkes import simulate_thinning
from hawkeslob.micro import simulate_book
from hawkeslob.oracles import (
    CIRParams,
    OneSidedParams,
    closed_form_book,
    closed_form_mu_exponential,
    one_sided_volatility_clustering,
    simulate_cir,
)
from hawkeslob.rng import stream_rng
from hawkeslob.volterra import (
    ExogenousField,
    FieldLayout,
    BlockKernelOp,
    neumann_resolvent,
    resolvent_report,
    scalar_to_scalar,
    solve_forward,
)

from conftest import make_family
from oracle_configs import canonical_spread_config, one_sided_book_config, one_sided_mu_config
from test_config import MINIMAL_MICRO
from test_hawkes import scalar_spec, zero_kernel_spec
from test_limit import spread_band_violations


def _report(n: int, detail: str) -> None:
    print(f"\nACCEPTANCE {n:02d} PASS: {detail}")


@pytest.fixture(scope="session")
def convergence_experiment():
    """Criterion 10's experiment, shared with criterion 11."""
    fam = make_family()
    f1 = L.SpatialTestFn("g1", lambda x: np.exp(-((np.asarray(x) - 0.5) ** 2)))
    f2 = L.SpatialTestFn("g2", lambda x: np.exp(-((np.asarray(x) + 0.3) ** 2) / 0.98))
    plan = ExperimentPlan(
        levels=(0, 1, 2, 3),
        replicates=400,
        horizon=1.0,
        limit_paths=2000,
        limit_dt=1e-3,
        test_fns=[f1, f2],
        n_boot=200,
    )
    t0 = time.time()
    report, levels, limit_run = run_convergence(plan, fam, seed=101)
    return report, levels, limit_run, time.time() - t0


def test_criterion_01_poisson_reduction():
    t0 = time.time()
    mu0, horizon, n_rep = 10.0, 1.0, 10_000
    spec = zero_kernel_spec(mu0)
    counts = np.empty(n_rep)
    first_gaps = []
    for r in range(n_rep):
        s = simulate_thinning(spec, horizon, stream_rng(1001, r))
        counts[r] = len(s)
        if len(s):
            first_gaps.append(s.times[0])
    elapsed = time.time() - t0

    target = mu0 * horizon
    tol = 3.0 * math.sqrt(target / n_rep)
    assert abs(counts.mean() - target) < tol
    p = stats.kstest(first_gaps, "expon", args=(0, 1.0 / mu0)).pvalue
    assert p > 0.01
    assert elapsed < 10.0
    _report(1, f"mean {counts.mean():.4f} in 10 +- {tol:.4f}; KS p={p:.3f}; {elapsed:.1f}s < 10s")


def test_criterion_02_subcritical_hawkes_mean():
    t0 = time.time()
    horizon = 500.0
    spec = scalar_spec(mu=1.0, c=0.5, kappa=1.0)  # kernel mass 0.5
    s = simulate_thinning(spec, horizon, 1002)
    elapsed = time.time() - t0
    rate = len(s) / horizon
    se = math.sqrt(1.0 / ((1.0 - 0.5) ** 3 * horizon))
    assert abs(rate - 2.0) < 3.0 * se
    assert elapsed < 30.0
    _report(2, f"long-run rate {rate:.3f} in 2.0 +- {3 * se:.3f}; {elapsed:.1f}s < 30s")


def test_criterion_03_scalar_volterra_solver():
    layout = FieldLayout(("mu",))
    op = BlockKernelOp(layout, [scalar_to_scalar(0, 0, ConstantProfile(1.0))])
    exo = ExogenousField.constant(layout, [1.0])
    t = np.linspace(0.0, 1.0, 1001)
    sol = solve_forward(op, exo, None, t)
    vals = sol.scalars()[:, 0]
    rel = float(np.max(np.abs(vals - np.exp(t)) / np.exp(t)))
    assert rel <= 1e-4
    res = neumann_resolvent(op, exo, None, t, depth=20)
    series = np.array([f.scalars[0] for f in res.solution()])
    gap = float(np.max(np.abs(series - vals)))
    assert gap <= 1e-6
    _report(3, f"rel err vs e^t {rel:.2e} <= 1e-4; Neumann depth 20 gap {gap:.2e} <= 1e-6")


def test_criterion_04_resolvent_residuals():
    t = np.linspace(0.0, 1.0, 1001)
    details = []
    for family, params in (
        ("constant", {"c": 1.0}),
        ("exponential", {"c": 0.5, "kappa": 1.0}),
        ("gamma", {"c": 0.5, "kappa": 1.0}),
    ):
        rep = resolvent_report(family, params, t)
        assert rep["residual_sup"] <= 1e-6
        # the comparison against the alternate closed forms is emitted in the
        # report but deliberately not asserted
        assert "alternate_form_sup_diff" in rep and "note" in rep
        details.append(f"{family}: residual {rep['residual_sup']:.2e}")
    _report(4, "; ".join(details))


def test_criterion_05_closed_form_book():
    t0 = time.time()
    params, build_init, kern_half, v0 = one_sided_book_config(n_x=201, half_width=5.0)
    n_steps = 1000
    run = L.solve_paths(params, build_init(), 1.0, 1e-3,
                        noise=np.zeros((n_steps, 2, 1)))
    ref = closed_form_book(run.v_x, v0(run.v_x), run.p_a[:, 0], 1e-3, kern_half)
    err = float(np.max(np.abs(run.v_a[0] - ref[-1])))
    elapsed = time.time() - t0
    assert err <= 1e-3
    assert elapsed < 30.0
    _report(5, f"volume surface max abs err {err:.2e} <= 1e-3; {elapsed:.1f}s < 30s")


def test_criterion_06_closed_form_intensity():
    params, init, (sigma2, kappa, _p0) = one_sided_mu_config()
    run = L.solve_paths(params, init, 1.0, 1e-3, seed=20)
    mu = run.mu[:, 0, 0]
    ref = closed_form_mu_exponential(run.p_a[:, 0], 1e-3, sigma2, kappa)
    rel = float(np.max(np.abs(mu - ref) / np.abs(ref)))
    assert rel <= 1e-3
    _report(6, f"intensity path rel err {rel:.2e} <= 1e-3 on the shared grid")


def test_criterion_07_cir_positivity():
    t0 = time.time()
    params = CIRParams(x0=0.5, a=1.0, b=0.0, c=1.0)
    paths = simulate_cir(params, 1.0, 1e-3, 701, n_paths=10_000, method="exact")
    elapsed = time.time() - t0
    assert paths.shape == (1001, 10_000)
    zero_hits = int(np.sum(paths <= 0.0))
    assert zero_hits == 0
    assert elapsed < 20.0
    _report(7, f"0 of {paths.size} samples at or below zero; {elapsed:.1f}s < 20s")


def test_criterion_08_spread_positivity():
    # limit side: canonical factors, one thousand paths
    dt = 1e-3
    params, build_init = canonical_spread_config(mu0=0.3)
    run = L.solve_paths(params, build_init(n_paths=1000, spread0=0.2), 1.0, dt, seed=801)
    violations = spread_band_violations(run, params, dt)
    assert violations == 0

    # microscopic side: no-crossing holds eventwise as a hard assertion
    fam = make_family()
    micro_params = fam.micro_params(0)
    min_ticks = np.inf
    for r in range(200):
        mr = simulate_book(micro_params, 1.0, stream_rng(802, r, "micro"), n_checkpoints=2)
        min_ticks = min(min_ticks, int(np.min(mr.ask_ticks - mr.bid_ticks)))
    assert min_ticks >= 0
    _report(8, f"limit: 0 band violations over 1000 paths (min spread "
               f"{float((run.p_a - run.p_b).min()):.2e}); micro: min spread {min_ticks} ticks >= 0")


def test_criterion_09_volatility_clustering():
    t0 = time.time()
    excited = OneSidedParams(sigma2=1.0, c=0.3, kappa=1.0, p0=1.0, barrier=5.0)
    rep = one_sided_volatility_clustering(
        excited, t0=1.0, eps=0.1, lag=0.1, replicates=100_000, seed=901
    )
    control = OneSidedParams(sigma2=1.0, c=0.0, kappa=1.0, p0=1.0, barrier=5.0)
    rep0 = one_sided_volatility_clustering(
        control, t0=1.0, eps=0.1, lag=0.1, replicates=100_000, seed=901
    )
    elapsed = time.time() - t0
    assert rep.covariance > 3.0 * rep.se
    assert abs(rep0.covariance) <= 3.0 * rep0.se
    assert elapsed < 300.0
    _report(9, f"lagged sq-increment cov {rep.covariance:.3e} > 3 SE ({3 * rep.se:.3e}); "
               f"control {rep0.covariance:.2e} within 3 SE; {elapsed:.0f}s < 300s")


def test_criterion_10_scaling_limit_convergence(convergence_experiment):
    report, _levels, _limit_run, elapsed = convergence_experiment
    for stat in report.statistics:
        assert stat.passed, f"{stat.name} not monotone within slack: {stat.errors}"
    names = {s.name for s in report.statistics}
    assert {"terminal_mean_error", "terminal_var_error", "terminal_w1",
            "volume_g1_error", "volume_g2_error"} <= names
    assert elapsed < 900.0
    w1 = next(s for s in report.statistics if s.name == "terminal_w1")
    _report(10, f"all 5 error sequences nonincreasing within 2 SE "
                f"(w1: {['%.3f' % e for e in w1.errors]}); {elapsed:.0f}s < 900s")


def test_criterion_11_moment_diagnostics(convergence_experiment):
    _report_, levels, _limit_run, _elapsed = convergence_experiment
    rep = moment_diagnostics(levels, growth_limit=2.0)
    assert not rep.blow_up
    by_level = {}
    for row in rep.rows:
        by_level.setdefault(row["p"], []).append(row["moment"])
    for p, moments in by_level.items():
        for a, b in zip(moments, moments[1:]):
            assert b <= 2.0 * a
    _report(11, "E[load(T)^p] bounded across levels for p in {1,2,4}: "
                + "; ".join(f"p={p}: {['%.2f' % m for m in ms]}" for p, ms in sorted(by_level.items())))


def test_criterion_12_martingale_residual():
    fam = make_family()
    lp = fam.limit_params(n_x=113)
    f = L.SpatialTestFn("g1", lambda x: np.exp(-((np.asarray(x) - 0.5) ** 2)))
    init = L.make_initial_state(lp, fam.ask_price0, fam.bid_price0,
                                fam.ask_volume0, fam.bid_volume0, n_paths=1000)
    run = L.solve_paths(lp, init, 1.0, 1e-3, seed=1201, track=[f])
    checkpoints = [0.5, 1.0]
    squared = martingale_residual(run, squared_ask_price(), checkpoints)
    mixed = martingale_residual(run, ask_price_times_volume(f), checkpoints)
    assert squared.passed
    assert mixed.passed
    _report(12, "compensated means within 3 SE at T/2 and T: "
                f"p_a^2 {['%.4f' % m for m in squared.means]}, "
                f"mixed {['%.4f' % m for m in mixed.means]}")


def test_criterion_13_manifest_determinism(tmp_path):
    """Every command, rerun from its recorded seed manifest, must reproduce
    the numeric artifacts byte for byte."""
    micro_doc = yaml.safe_load(MINIMAL_MICRO)
    micro_doc["grid"] = {"horizon": 0.3}

    limit_doc = yaml.safe_load(MINIMAL_MICRO)
    limit_doc["model"] = "limit"
    limit_doc["grid"] = {"horizon": 0.1, "dt": 0.002, "n_x": 31}
    limit_doc["limit"] = {"n_paths": 3}

    conv_doc = yaml.safe_load(MINIMAL_MICRO)
    conv_doc["model"] = "converge"
    conv_doc["grid"] = {"horizon": 0.2, "dt": 0.004, "n_x": 31}
    conv_doc["experiment"] = {"levels": [0, 1, 2], "replicates": 100, "limit_paths": 150}

    oracle_doc = {
        "schema_version": 1, "model": "oracle", "seed": 5,
        "oracle": {"check": "cir", "x0": 0.5, "a": 1.0, "b": 0.0, "c": 1.0,
                   "horizon": 0.5, "dt": 0.005, "paths": 500},
    }
    res_doc = {
        "schema_version": 1, "model": "resolvent", "seed": 1,
        "resolvent": {"family": "gamma", "c": 0.5, "kappa": 1.0,
                      "horizon": 1.0, "dt": 0.001},
    }
    jobs = [
        ("simulate-micro", micro_doc),
        ("solve-limit", limit_doc),
        ("converge", conv_doc),
        ("oracle-check", oracle_doc),
        ("resolvent", res_doc),
    ]
    for command, doc in jobs:
        cfg = tmp_path / f"{command}.yaml"
        cfg.write_text(yaml.safe_dump(doc))
        out1 = tmp_path / f"{command}-1"
        out2 = tmp_path / f"{command}-2"
        assert cli_run(command, cfg, out1, seed=99) == 0
        master = json.loads((out1 / "manifest.json").read_text())["master_seed"]
        assert cli_run(command, cfg, out2, seed=master) == 0
        names = sorted(p.name for p in out1.iterdir())
        assert names == sorted(p.name for p in out2.iterdir())
        match, mismatch, errors = filecmp.cmpfiles(out1, out2, names, shallow=False)
        assert not mismatch and not errors, f"{command}: artifacts differ {mismatch}{errors}"
    _report(13, "5 commands rerun from their manifests byte-identically")
