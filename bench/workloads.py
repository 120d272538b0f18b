"""The three benchmark workloads: inputs built from a seed, and a timed body.

Each workload is a ``setup(seed, workdir, size)`` that builds every input
and a ``body(inputs, probe)`` that drives the program only through its
public functions, looked up as module attributes so the probe sees them.
``body`` returns the statistical verdicts it observed; they are recorded
and never gate.  Why each workload exists is in ``README.md``.
"""

from __future__ import annotations

import dataclasses
import filecmp
import math
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import yaml

import hawkeslob.cli as cli
import hawkeslob.config as config
import hawkeslob.harness as harness
import hawkeslob.hawkes as hawkes
import hawkeslob.limit as limit
import hawkeslob.micro as micro
import hawkeslob.volterra as volterra
from hawkeslob.families import ExponentialProfile, GaussianProfile, TableProfile
from hawkeslob.micro import ACTIVE_TYPES, PASSIVE_TYPES, ActiveRateFamily, ScalingFamily, SizeMeasure
from hawkeslob.rng import stream_rng

LN2 = math.log(2.0)
#: Tick size of level 0 in every family below; level k has BASE_DELTA_X / 2**k.
BASE_DELTA_X = 0.1


# ---------------------------------------------------------------------------
# model inputs
# ---------------------------------------------------------------------------


def gaussian_book(x):
    return np.exp(-((np.asarray(x, dtype=float) - 0.2) ** 2))


def make_family(**overrides) -> ScalingFamily:
    """The standard two-sided family of ``tests/conftest.py::make_family``:
    spread-linear rates, symmetric exogenous flow, gaussian passive
    placement, dirac sizes of log 2 and a mild self-exciting active kernel.

    Copied rather than imported, so that editing the tests cannot change the
    benchmark's inputs."""
    kwargs = dict(
        delta_x=BASE_DELTA_X,
        delta_v=0.05,
        half_width=2.8,
        ask_price0=0.3,
        bid_price0=0.1,
        ask_volume0=gaussian_book,
        bid_volume0=gaussian_book,
        rates={s: ActiveRateFamily("spread_linear", 0.5) for s in "ab"},
        base_active={"a": 0.25, "b": 0.25},
        base_drift={"a": 0.0, "b": 0.0},
        base_passive={pt: (0.25, GaussianProfile(1.0)) for pt in PASSIVE_TYPES},
        sizes={pt: SizeMeasure("dirac", z=LN2) for pt in PASSIVE_TYPES},
        act_from_act={
            (tgt, src): ExponentialProfile(0.2, 1.0) for tgt in "ab" for src in ACTIVE_TYPES
        },
    )
    kwargs.update(overrides)
    return ScalingFamily(**kwargs)


# The criterion-10 test functions.
G1 = limit.SpatialTestFn("g1", lambda x: np.exp(-((np.asarray(x) - 0.5) ** 2)))
G2 = limit.SpatialTestFn("g2", lambda x: np.exp(-((np.asarray(x) + 0.3) ** 2) / 0.98))


def table_params(c: float, kappa: float, t_end: float = 4.0, n: int = 41) -> dict:
    """An exponential shape tapered linearly to zero at ``t_end``, as a table.

    Table kernels must end at value 0: ``TableProfile.value`` holds the last
    sample beyond the table, so a nonzero tail has infinite mass and makes a
    long-horizon thinning run explode.  The values are non-increasing, so
    they are their own envelope.
    """
    ts = np.linspace(0.0, t_end, n)
    vals = c * np.exp(-kappa * ts) * (1.0 - ts / t_end)
    vals[-1] = 0.0
    return {"family": "table", "ts": ts.tolist(), "values": vals.tolist(),
            "envelope": vals.tolist()}


def table_profile(c: float, kappa: float) -> TableProfile:
    p = table_params(c, kappa)
    return TableProfile(p["ts"], p["values"], p["envelope"])


def micro_yaml(seed: int, horizon: float) -> str:
    """A micro configuration whose active kernels are all tables."""
    gauss = {"family": "gaussian", "amplitude": 1.0}
    book = {"family": "gaussian", "amplitude": 1.0, "center": 0.2, "width": 1.0}
    doc = {
        "schema_version": 1, "model": "micro", "seed": seed,
        "grid": {"horizon": horizon},
        "scaling": {
            "delta_x": BASE_DELTA_X, "delta_v": 0.05, "half_width": 2.8,
            "book": {"ask_price": 0.3, "bid_price": 0.1,
                     "ask_volume": book, "bid_volume": book},
            "rates": {s: {"family": "spread_linear", "scale": 0.5} for s in "ab"},
            "base_active": {"a": 0.25, "b": 0.25},
            "base_passive": {pt: {"factor": 0.25, "profile": gauss} for pt in PASSIVE_TYPES},
            "sizes": {pt: {"family": "dirac", "z": LN2} for pt in PASSIVE_TYPES},
            "kernels": {"act_from_act": [
                {"target": tgt, "source": src, "time": table_params(0.2, 1.0)}
                for tgt in "ab" for src in ACTIVE_TYPES
            ]},
        },
    }
    return yaml.safe_dump(doc, sort_keys=True)


def resolvent_yaml(seed: int, horizon: float, dt: float) -> str:
    return yaml.safe_dump({
        "schema_version": 1, "model": "resolvent", "seed": seed,
        "resolvent": {"family": "gamma", "c": 0.5, "kappa": 1.0,
                      "horizon": horizon, "dt": dt},
    }, sort_keys=True)


def thinning_spec(profile) -> hawkes.HawkesSpec:
    """Four labels, unit exogenous rates, one kernel profile for every pair."""
    return hawkes.make_multivariate(4, 1.0, [[profile] * 4 for _ in range(4)])


class UnderEnvelopeKernel(hawkes.MatrixKernel):
    """A kernel whose declared envelope lies below its own values.

    Deliberately invalid: thinning must stop with ``MajorantViolationError``
    once an event has fired.  Used to show that a failing call is counted
    and does not abort the run.
    """

    def envelope(self, dt):
        return 0.25 * super().envelope(dt)


def invalid_majorant_spec() -> hawkes.HawkesSpec:
    return hawkes.HawkesSpec(
        hawkes.MarkSpace(labels=("e",)), hawkes.Exogenous.constant(1.0),
        UnderEnvelopeKernel([[ExponentialProfile(0.8, 1.0)]]),
    )


# ---------------------------------------------------------------------------
# converge: the scaling-limit experiment users run
# ---------------------------------------------------------------------------


CONVERGE = {
    "full": dict(levels=(0, 1, 2), replicates=100, horizon=0.05,
                 limit_paths=200, limit_dt=2.5e-3),
    "tiny": dict(levels=(0, 1, 2), replicates=100, horizon=0.02,
                 limit_paths=100, limit_dt=1e-2),
}


def converge_setup(seed: int, workdir: Path, size: dict):
    family = make_family()
    plan = harness.ExperimentPlan(test_fns=[G1, G2], n_boot=200, **size)
    # built as a user building the book models would; run_convergence
    # rebuilds them, so work moved into micro_params shows in both metrics
    micro_params = [family.micro_params(k) for k in plan.levels]
    return SimpleNamespace(seed=seed, family=family, plan=plan,
                           micro_params=micro_params,
                           limit_params=family.limit_params(n_x=113))


def converge_body(inp, probe) -> dict:
    out = probe.guard(harness.run_convergence, inp.plan, inp.family, inp.seed,
                      limit_params=inp.limit_params, n_workers=1)
    if out is None:
        return {}
    report, levels, _limit_run = out
    moments = probe.guard(harness.moment_diagnostics, levels)
    return {"report_passed": bool(report.passed),
            "moment_blow_up": None if moments is None else bool(moments.blow_up)}


# ---------------------------------------------------------------------------
# limit-ensemble: the wide limit ensemble and its consistency checks
# ---------------------------------------------------------------------------


LIMIT_ENSEMBLE = {
    "full": dict(paths=2000, horizon=0.02, dt=2e-3),
    "tiny": dict(paths=100, horizon=0.02, dt=2e-3),
}


def limit_setup(seed: int, workdir: Path, size: dict):
    family = make_family()
    lp = family.limit_params(n_x=113)
    init = limit.make_initial_state(
        lp, family.ask_price0, family.bid_price0,
        family.ask_volume0, family.bid_volume0, n_paths=size["paths"],
    )
    return SimpleNamespace(seed=seed, params=lp, init=init, **size)


def limit_body(inp, probe) -> dict:
    run = probe.guard(limit.solve_paths, inp.params, inp.init, inp.horizon, inp.dt,
                      seed=inp.seed, track=[G1])
    if run is None:
        return {}
    checkpoints = [0.5 * inp.horizon, inp.horizon]
    verdicts = {}
    for spec in (harness.squared_ask_price(), harness.ask_price_times_volume(G1)):
        rep = probe.guard(harness.martingale_residual, run, spec, checkpoints)
        verdicts[f"martingale_{spec.name}_passed"] = None if rep is None else bool(rep.passed)
    probe.guard(limit.intensity_consistency, run, 0)
    return verdicts


# ---------------------------------------------------------------------------
# empirical-kernels: table kernels everywhere, so history scans do the work
# ---------------------------------------------------------------------------


EMPIRICAL = {
    "full": dict(micro_level=3, micro_horizon=0.05, micro_runs=6, resolvent_horizon=0.5,
                 resolvent_dt=1e-3, thinning_horizon=60.0, limit_paths=100,
                 limit_horizon=0.1, limit_dt=1e-3, resolve_paths=1, neumann_depth=3),
    "tiny": dict(micro_level=1, micro_horizon=0.05, micro_runs=2, resolvent_horizon=0.1,
                 resolvent_dt=1e-2, thinning_horizon=10.0, limit_paths=20,
                 limit_horizon=0.02, limit_dt=1e-3, resolve_paths=1, neumann_depth=2),
}


def empirical_setup(seed: int, workdir: Path, size: dict):
    micro_cfg = workdir / "micro.yaml"
    micro_cfg.write_text(micro_yaml(seed, size["micro_horizon"]))
    resolvent_cfg = workdir / "resolvent.yaml"
    resolvent_cfg.write_text(resolvent_yaml(seed, size["resolvent_horizon"],
                                            size["resolvent_dt"]))
    cfg = config.parse_config(micro_cfg.read_text())
    family = cfg.scaling_family()
    micro_params = family.micro_params(size["micro_level"])
    # ScalingFamily.limit_params() cannot sum table kernels (combine_amplitudes
    # reads .c), so the limit system takes the exponential family's params
    # with the summed market-plus-spread table kernels put in by hand.
    lp = dataclasses.replace(
        make_family().limit_params(n_x=113),
        act_from_act={(tgt, src): table_profile(0.4, 1.0) for tgt in "ab" for src in "ab"},
    )
    init = limit.make_initial_state(
        lp, family.ask_price0, family.bid_price0,
        family.ask_volume0, family.bid_volume0, n_paths=size["limit_paths"],
    )
    return SimpleNamespace(
        seed=seed, workdir=workdir, micro_cfg=micro_cfg, resolvent_cfg=resolvent_cfg,
        micro_params=micro_params, limit_params=lp, init=init,
        system=limit.volterra_system(lp),
        thinning={"table": thinning_spec(table_profile(0.15, 1.0)),
                  "exp": thinning_spec(ExponentialProfile(0.15, 1.0))},
        **size,
    )


def _same_files(a: Path, b: Path) -> bool:
    names = sorted(p.name for p in a.iterdir())
    if names != sorted(p.name for p in b.iterdir()):
        return False
    _match, mismatch, errors = filecmp.cmpfiles(a, b, names, shallow=False)
    return not mismatch and not errors


def empirical_body(inp, probe) -> dict:
    out = inp.workdir / "simulate-micro"
    rerun = inp.workdir / "simulate-micro-rerun"
    code = probe.guard(cli.run, "simulate-micro", inp.micro_cfg, out,
                       seed=inp.seed, level=inp.micro_level)
    if code == 0:
        # the manifest records only the seed, so the level is passed again
        code = probe.guard(cli.main, [
            "simulate-micro", "--config", str(inp.micro_cfg), "--out", str(rerun),
            "--manifest", str(out / "manifest.json"), "--level", str(inp.micro_level),
        ])
        if code == 0 and not _same_files(out, rerun):
            probe.fail("simulate-micro rerun from its manifest is not byte-identical")
    # several short books on independent streams: the cost of one long run
    # swings with its event count and history length, their sum far less
    for replicate in range(inp.micro_runs):
        probe.guard(micro.simulate_book, inp.micro_params, inp.micro_horizon,
                    stream_rng(inp.seed, replicate, "micro"))
    probe.guard(cli.run, "resolvent", inp.resolvent_cfg, inp.workdir / "resolvent")

    for kind in ("table", "exp"):
        probe.guard(hawkes.simulate_thinning, inp.thinning[kind], inp.thinning_horizon,
                    inp.seed)

    run = probe.guard(limit.solve_paths, inp.limit_params, inp.init, inp.limit_horizon,
                      inp.limit_dt, seed=inp.seed)
    if run is None:
        return {}
    for path in range(inp.resolve_paths):
        probe.guard(limit.intensity_consistency, run, path)
    _lay, op, exo = inp.system
    states = list(zip(run.p_a[:, 0], run.p_b[:, 0]))
    probe.guard(volterra.neumann_resolvent, op, exo, states, run.t,
                inp.neumann_depth, exo_at="prev")
    return {}


WORKLOADS = {
    "converge": (converge_setup, converge_body, CONVERGE),
    "limit-ensemble": (limit_setup, limit_body, LIMIT_ENSEMBLE),
    "empirical-kernels": (empirical_setup, empirical_body, EMPIRICAL),
}

#: How strongly each workload's CPU time follows the host-speed reference
#: (see ``hostspeed.py``): the within-run slope of log CPU time on log
#: reference time, from five 35 s runs per workload on the 2-vCPU
#: development host (``calibrate.py``).  The interpreted event loops slow
#: more than the reference on a loaded core, the numpy-bound ensemble less.
HOST_SENSITIVITY = {
    "converge": 1.33,
    "limit-ensemble": 0.75,
    "empirical-kernels": 1.3,
}
