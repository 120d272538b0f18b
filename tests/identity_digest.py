"""Digests of one ``run_convergence`` experiment, for bit-identity checks.

Prints the sha256 of the convergence report (without ``runtime_s``), of the
seed manifest, of every ``LevelStats`` array, of each level's
``simulate_books`` runs and of the limit ``p_a``, ``p_b``, ``mu``, ``beta``,
terminal ``v_a`` and ``v_b``, one per line.  The runs of a level give four
digests, each over its runs in order:
the event times, labels, distances and sizes (``events``); the best ticks,
load and beta (``paths``); d11, d22 and the active scalars
(``checkpoints``); and both final ledgers (``ledgers``).  The ``book.*``
lines give the same four digests of ``simulate_book`` runs on a few
streams of six families (``_book_families``), so they cover the
single-stream engine; ``book.table_env.*`` runs the table family with its
envelopes raised above its values, so its bound and value scans differ,
and ``book.gamma.*`` runs gamma active kernels, whose bounds take the
recursive bound pass.
The ``books.table.*`` lines give the four digests of one
``simulate_books`` call on ``LOCKSTEP_STREAMS`` streams of the table
family, so they cover the lockstep engine's table scans.  The
``tracked.*`` lines digest ``p_a``, ``mu`` and the tracked volume
functionals ``v_f`` and ``eta_f`` of a small limit solve
with a tracked test function, the solve of acceptance criterion 12 at
``TRACKED_PATHS`` paths and ``TRACKED_STEPS`` steps.  The ``reference.*``
lines cover the Volterra reference and the checks that read the limit's
rate factors: the ``intensity_consistency`` residual of the experiment's
limit solve; the ``solve_forward`` rows at both ``exo_at`` values and the
Neumann terms, re-solved on that solve's first path with a price-dependent
exogenous slot; the martingale means and standard errors of the tracked
solve; and the failures of ``check_uniqueness_condition``.  Two trees that print
the same lines ran the same experiment bit for bit; a change that only
reorders the sums of an inner product moves the ``tracked.*`` functional
lines or the ``report`` line, whose volume-functional errors read the
terminal volumes through an inner product.  The script calls only public
functions, so it runs on older trees as well.

    PYTHONPATH=src python tests/identity_digest.py --seed 101 --plan bench
    PYTHONPATH=src python tests/identity_digest.py --seed 9137 --plan criterion10

``bench`` is the ``converge`` workload's plan at its full size, read from
``bench/workloads.py``; ``criterion10`` is the plan of acceptance criterion
10 (4 levels of 400 replicates, 2000 limit paths).  The file name keeps
pytest from collecting it.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]


#: streams of each ``simulate_book`` digest, and their horizon
BOOK_STREAMS = 4
BOOK_HORIZON = 0.5
#: streams of the ``simulate_books`` digest of the table family
LOCKSTEP_STREAMS = 8
#: paths and steps of the tracked limit solve, at dt 1e-3
TRACKED_PATHS = 200
TRACKED_STEPS = 100


def _workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", ROOT / "bench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


def _bench_plan():
    workloads = _workloads()
    family = workloads.make_family()
    plan = workloads.harness.ExperimentPlan(test_fns=[workloads.G1, workloads.G2], n_boot=200,
                                            **workloads.CONVERGE["full"])
    return plan, family, family.limit_params(n_x=113)


def _test_family():
    sys.path.insert(0, str(ROOT / "tests"))
    from conftest import make_family

    return make_family()


def _test_fns():
    from hawkeslob import limit

    return [limit.SpatialTestFn("g1", lambda x: np.exp(-((np.asarray(x) - 0.5) ** 2))),
            limit.SpatialTestFn("g2", lambda x: np.exp(-((np.asarray(x) + 0.3) ** 2) / 0.98))]


def _criterion10_plan():
    from hawkeslob.harness import ExperimentPlan

    plan = ExperimentPlan(levels=(0, 1, 2, 3), replicates=400, horizon=1.0, limit_paths=2000,
                          limit_dt=1e-3, test_fns=_test_fns(), n_boot=200)
    return plan, _test_family(), None


def _array_bytes(a) -> bytes:
    a = np.ascontiguousarray(a)
    return str(a.dtype).encode() + repr(a.shape).encode() + a.tobytes()


def _run_fields(run) -> dict:
    """The arrays of one ``MicroRun`` behind each run digest."""
    ev, diag, state = run.events, run.diagnostics, run.final_state
    return {
        "events": [ev.times, ev.labels, ev.xs, ev.zs],
        "paths": [run.ask_ticks, run.bid_ticks, diag.load, diag.beta],
        "checkpoints": [diag.d11, diag.d22, diag.active_scalars],
        "ledgers": [np.array([state.ask_vol.base]), state.ask_vol.values,
                    np.array([state.bid_vol.base]), state.bid_vol.values],
    }


def _run_digests(runs) -> dict:
    """The four digests of a list of runs, each over the runs in order."""
    hashes = {name: hashlib.sha256() for name in _run_fields(runs[0])}
    for run in runs:
        for name, arrays in _run_fields(run).items():
            for a in arrays:
                hashes[name].update(_array_bytes(a))
    return {name: h.hexdigest() for name, h in hashes.items()}


def _table_family(raised: bool = False):
    """The table-kernel family of the ``empirical-kernels`` workload, or,
    ``raised``, the same with every envelope a quarter above its values."""
    import yaml

    from hawkeslob import config

    doc = yaml.safe_load(_workloads().micro_yaml(0, BOOK_HORIZON))
    if raised:
        for entry in doc["scaling"]["kernels"]["act_from_act"]:
            entry["time"]["envelope"] = [1.25 * v for v in entry["time"]["values"]]
    return config.parse_config(yaml.safe_dump(doc)).scaling_family()


def _book_families() -> dict:
    """The families and levels of the ``simulate_book`` digests, by name:
    the bench family; the table-kernel family of the ``empirical-kernels``
    workload, and the same with raised envelopes; the bench family with exponential sizes, a passive type of
    two terms and a source distance an in-profile weighs, so its runs draw
    marks both during and after the run; the bench family with strong,
    fast-decaying active kernels, so candidates are often thinned; and the
    bench family with gamma active kernels of the exponential ones' mass."""
    from hawkeslob.families import ExponentialProfile, GammaProfile, GaussianProfile
    from hawkeslob.micro import ACTIVE_TYPES, PASSIVE_TYPES, SizeMeasure

    workloads = _workloads()
    marks = workloads.make_family(
        sizes={pt: SizeMeasure("exponential", rate=6.0) for pt in PASSIVE_TYPES},
        pas_from_act={("a_lo", "a_mo"): (GaussianProfile(1.0), ExponentialProfile(0.3, 1.0))},
        act_from_pas={("b", "b_cx"): (GaussianProfile(0.8, 0.3, 1.2), ExponentialProfile(0.3, 1.0))},
    )
    thinned = workloads.make_family(
        act_from_act={(tgt, src): ExponentialProfile(100.0, 800.0) for tgt in "ab" for src in ACTIVE_TYPES})
    gamma = workloads.make_family(
        act_from_act={(tgt, src): GammaProfile(0.8, 2.0) for tgt in "ab" for src in ACTIVE_TYPES})
    return {"bench": (workloads.make_family(), (2, 3)), "table": (_table_family(), (3,)),
            "table_env": (_table_family(raised=True), (3,)), "marks": (marks, (2,)),
            "thinned": (thinned, (1,)), "gamma": (gamma, (2,))}


def book_digests(seed: int) -> list[tuple[str, str]]:
    """The run digests of ``simulate_book`` on ``BOOK_STREAMS`` streams of
    each family and level of ``_book_families``."""
    from hawkeslob.micro import simulate_book
    from hawkeslob.rng import stream_rng

    out = []
    for name, (family, levels) in _book_families().items():
        for level in levels:
            params = family.micro_params(level)
            runs = [simulate_book(params, BOOK_HORIZON, stream_rng(seed, r, "micro"))
                    for r in range(BOOK_STREAMS)]
            out.extend((f"book.{name}.L{level}.{field}", h) for field, h in _run_digests(runs).items())
    return out


def lockstep_digests(seed: int) -> list[tuple[str, str]]:
    """The run digests of one ``simulate_books`` call on ``LOCKSTEP_STREAMS``
    streams of the table family at level 2."""
    from hawkeslob.micro import simulate_books
    from hawkeslob.rng import stream_rng

    runs = simulate_books(_table_family().micro_params(2), BOOK_HORIZON,
                          [stream_rng(seed, r, "micro") for r in range(LOCKSTEP_STREAMS)])
    return [(f"books.table.L2.{field}", h) for field, h in _run_digests(runs).items()]


def digests(plan, family, seed: int, limit_params):
    """The experiment's digest lines, and its limit solve."""
    from hawkeslob import harness

    lockstep, run_hashes = harness.simulate_books, []

    def hashed(params, horizon, rngs):
        runs = lockstep(params, horizon, rngs)
        run_hashes.append(_run_digests(runs))
        return runs

    harness.simulate_books = hashed
    try:
        report, levels, limit_run = harness.run_convergence(plan, family, seed,
                                                            limit_params=limit_params)
    finally:
        harness.simulate_books = lockstep

    def sha(data: bytes) -> str:
        return hashlib.sha256(data).hexdigest()

    out = [("report", sha(json.dumps(report.to_dict(), sort_keys=True).encode())),
           ("manifest", sha(report.manifest.to_json().encode()))]
    for lv in levels:
        arrays = {"p_a_terminal": lv.p_a_terminal, "load_terminal": lv.load_terminal,
                  "sup_d11": lv.sup_d11}
        arrays.update({f"v_inner.{name}": v for name, v in sorted(lv.v_inner.items())})
        for name, a in arrays.items():
            a = np.ascontiguousarray(a)
            out.append((f"L{lv.level}.{name}", sha(str(a.dtype).encode() + a.tobytes())))
        out.append((f"L{lv.level}.scalars",
                    sha(repr((lv.delta_x, lv.delta_v, lv.n_events_mean)).encode())))
        out.extend((f"L{lv.level}.runs.{name}", h) for name, h in run_hashes.pop(0).items())
    limit_arrays = {name: getattr(limit_run, name) for name in ("p_a", "p_b", "mu", "beta")}
    limit_arrays.update({"v_a": limit_run.v_a, "v_b": limit_run.v_b})
    for name, a in limit_arrays.items():
        a = np.ascontiguousarray(a)
        out.append((f"limit.{name}", sha(str(a.dtype).encode() + a.tobytes())))
    return out, limit_run


def tracked_run(seed: int):
    """Criterion 12's limit solve, tracking ``g1``, at ``TRACKED_PATHS``
    paths and ``TRACKED_STEPS`` steps of 1e-3."""
    from hawkeslob import limit

    family, g1 = _test_family(), _test_fns()[0]
    lp = family.limit_params(n_x=113)
    init = limit.make_initial_state(lp, family.ask_price0, family.bid_price0, family.ask_volume0,
                                    family.bid_volume0, n_paths=TRACKED_PATHS)
    return limit.solve_paths(lp, init, TRACKED_STEPS * 1e-3, 1e-3, seed=seed, track=[g1])


def tracked_digests(run) -> list[tuple[str, str]]:
    """Digests of the ``tracked_run`` solve."""
    arrays = {"p_a": run.p_a, "mu": run.mu, "v_f.g1": run.v_f["g1"], "eta_f.g1": run.eta_f["g1"]}
    return [(f"tracked.{name}", hashlib.sha256(_array_bytes(a)).hexdigest())
            for name, a in arrays.items()]


def reference_digests(limit_run, tracked) -> list[tuple[str, str]]:
    """The ``reference.*`` lines.  The price-dependent factor ``0.5 p_a^2``
    takes its ask price as the second-to-last argument, so it runs in either
    factor signature, with or without a leading time."""
    from hawkeslob import harness, limit, volterra

    def sha(data: bytes) -> str:
        return hashlib.sha256(data).hexdigest()

    lp = limit_run.params
    square = lambda *a: 0.5 * np.asarray(a[-2], dtype=float) ** 2
    priced = dataclasses.replace(
        lp, base_rate={"a": square, "b": lp.base_rate["b"]},
        base_passive={pt: (square, prof) for pt, (_f, prof) in lp.base_passive.items()})
    _lay, op, exo = limit.volterra_system(priced)
    states = list(zip(limit_run.p_a[:, 0], limit_run.p_b[:, 0]))
    out = [("reference.consistency", repr(limit.intensity_consistency(limit_run, 0)))]
    for exo_at in ("prev", "node"):
        sol = volterra.solve_forward(op, exo, states, limit_run.t, exo_at=exo_at)
        out.append((f"reference.forward.{exo_at}", sha(_array_bytes(sol.values))))
    terms = volterra.neumann_resolvent(op, exo, states, limit_run.t, 3, exo_at="prev").term_values
    out.append(("reference.neumann", sha(_array_bytes(terms))))
    checkpoints = [0.5 * TRACKED_STEPS * 1e-3, TRACKED_STEPS * 1e-3]
    for spec in (harness.squared_ask_price(), harness.ask_price_times_volume(_test_fns()[0])):
        rep = harness.martingale_residual(tracked, spec, checkpoints)
        out.append((f"reference.martingale.{spec.name}", repr((rep.means, rep.ses))))
    spread = dataclasses.replace(lp, rho={s: limit.SpreadPlusRate(0.8) for s in "ab"},
                                 rate_slope={s: limit.ConstantRate(1.0) for s in "ab"})
    for name, params, kwargs in (
            ("family", lp, {}),
            ("spread", spread, {"probe_spreads": np.linspace(-0.5, 2.0, 26), "mid": 0.3})):
        rep = limit.check_uniqueness_condition(params, 0.05, **kwargs)
        out.append((f"reference.uniqueness.{name}", sha(repr(rep.failures).encode())))
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--plan", choices=("bench", "criterion10"), required=True)
    args = ap.parse_args(argv)
    plan, family, limit_params = _bench_plan() if args.plan == "bench" else _criterion10_plan()
    lines, limit_run = digests(plan, family, args.seed, limit_params)
    tracked = tracked_run(args.seed)
    for name, digest in (lines + tracked_digests(tracked) + reference_digests(limit_run, tracked)
                         + book_digests(args.seed) + lockstep_digests(args.seed)):
        print(f"{name} {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
