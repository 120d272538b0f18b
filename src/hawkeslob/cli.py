"""Command-line entry points.

Commands: ``simulate-micro``, ``solve-limit``, ``converge``,
``oracle-check``, ``resolvent``.  Every command reads one YAML
configuration, writes CSV/JSON artifacts plus a seed manifest into the
output directory, and exits 0 on success, 2 on configuration errors and 1
on runtime failures (with a machine-readable ``error.json``).

Reruns from the same configuration and seed (or from a recorded manifest
via ``--manifest``) reproduce every numeric artifact byte for byte.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

from . import limit as limit_mod
from .config import COMMANDS, ConfigError, RunConfig, parse_config
from .harness import ExperimentPlan, moment_diagnostics, run_convergence
from .micro import replay_book, simulate_book
from .oracles import CIRParams, OneSidedParams, one_sided_volatility_clustering, simulate_cir
from .rng import SeedManifest, stream_rng
from .volterra import resolvent_report


def _json_default(obj):
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj).__name__}")


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(
        json.dumps(payload, indent=2, sort_keys=True, default=_json_default) + "\n"
    )


def _float_csv(path: Path, header: list, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            out = []
            for v in row:
                if isinstance(v, (bool, np.bool_)):
                    out.append(str(bool(v)))
                elif isinstance(v, (int, np.integer)):
                    out.append(str(int(v)))
                elif isinstance(v, (float, np.floating)):
                    out.append(repr(float(v)))
                else:
                    out.append(v)
            writer.writerow(out)


def _cmd_simulate_micro(cfg: RunConfig, out: Path, seed: int, level: int,
                        manifest: SeedManifest) -> dict:
    horizon = float(cfg.data.get("grid", {}).get("horizon", 1.0))
    params = cfg.scaling_family().micro_params(level)
    run = simulate_book(params, horizon, stream_rng(seed, 0, "micro"))
    manifest.register("micro", 1)

    run.events.to_csv(out / "events.csv")
    run.price_path_csv(out / "prices.csv")
    n_side = int(round(params.half_width / params.delta_x))
    sample_times = [float(t) for t in cfg.data.get("output", {}).get("profile_times", [])]
    rows = []

    def snapshot(t_snap: float, state) -> None:
        ask = state.ask_vol.window(state.ask_tick - n_side, state.ask_tick + n_side)
        bid = state.bid_vol.window(state.bid_tick - n_side, state.bid_tick + n_side)
        rows.extend(
            (t_snap, j - n_side, a, b) for j, (a, b) in enumerate(zip(ask, bid))
        )

    replay_book(params, run.events, sorted(set(sample_times + [horizon])), snapshot)
    _float_csv(out / "profiles.csv", ["t", "tick_index", "ask_density", "bid_density"], rows)
    state = run.final_state
    d = run.diagnostics
    _float_csv(out / "diagnostics.csv", ["t", "event_load"],
               zip(d.event_times, d.load))
    return {
        "events": run.accepted,
        "candidates": run.candidates,
        "terminal_p_a": state.p_a,
        "terminal_p_b": state.p_b,
        "event_load_terminal": d.load_terminal,
        "level": level,
    }


def _cmd_solve_limit(cfg: RunConfig, out: Path, seed: int, level: int,
                     manifest: SeedManifest) -> dict:
    family = cfg.scaling_family()
    grid = cfg.data.get("grid", {})
    horizon = float(grid.get("horizon", 1.0))
    dt = float(grid.get("dt", 1e-3))
    n_paths = int(cfg.data.get("limit", {}).get("n_paths", 1))
    cadence = int(cfg.data.get("output", {}).get("cadence", 1))
    lp = cfg.limit_params()
    init = limit_mod.make_initial_state(
        lp, family.ask_price0, family.bid_price0,
        family.ask_volume0, family.bid_volume0, n_paths=n_paths,
    )
    run = limit_mod.solve_paths(lp, init, horizon, dt, seed=seed,
                                lam_checkpoint_times=[horizon])
    manifest.register("limit", 1)
    sel = slice(None, None, max(cadence, 1))
    _float_csv(
        out / "prices.csv", ["t", "p_a", "p_b"],
        zip(run.t[sel], run.p_a[sel, 0], run.p_b[sel, 0]),
    )
    rows = []
    for m in range(0, run.t.size, max(cadence, 1)):
        rows.append((run.t[m], "mu_a", "", run.mu[m, 0, 0]))
        rows.append((run.t[m], "mu_b", "", run.mu[m, 1, 0]))
    t_cp, lam = run.lam_checkpoints[-1]
    for i, pt in enumerate(limit_mod.PASSIVE_TYPES):
        for x, v in zip(lp.grid.x, lam[i, :, 0]):
            rows.append((t_cp, pt, x, v))
    _float_csv(out / "intensities.csv", ["t", "slot", "node_x", "value"], rows)
    return {
        "n_paths": n_paths,
        "terminal_p_a_mean": float(run.p_a[-1].mean()),
        "terminal_p_b_mean": float(run.p_b[-1].mean()),
        "clamped_steps": run.clamp_count,
    }


def _cmd_converge(cfg: RunConfig, out: Path, seed: int, level: int,
                  manifest: SeedManifest) -> dict:
    family = cfg.scaling_family()
    exp = cfg.data.get("experiment", {})
    grid = cfg.data.get("grid", {})
    plan = ExperimentPlan(
        levels=tuple(exp.get("levels", [0, 1, 2, 3])),
        replicates=int(exp.get("replicates", 400)),
        horizon=float(grid.get("horizon", 1.0)),
        limit_paths=int(exp.get("limit_paths", 2000)),
        limit_dt=float(grid.get("dt", 1e-3)),
        test_fns=cfg.test_fns(),
    )
    report, levels, _run = run_convergence(plan, family, seed)
    manifest.streams = list(report.manifest.streams)
    moments = moment_diagnostics(levels)
    _write_json(out / "report.json", {
        "convergence": report.to_dict(),
        "moments": moments.to_dict(),
    })
    rows = []
    for stat in report.statistics:
        for lv, err, se in zip(plan.levels, stat.errors, stat.ses):
            rows.append((lv, stat.name, err, se))
    _float_csv(out / "tables.csv", ["level", "statistic", "error", "se"], rows)
    return {"passed": report.passed, "moment_blow_up": moments.blow_up}


def _cmd_oracle_check(cfg: RunConfig, out: Path, seed: int, level: int,
                      manifest: SeedManifest) -> dict:
    block = cfg.data["oracle"]
    manifest.register("oracle", 1)
    if block["check"] == "cir":
        params = CIRParams(
            x0=float(block["x0"]), a=float(block.get("a", 1.0)),
            b=float(block.get("b", 0.0)), c=float(block.get("c", 1.0)),
        )
        paths = simulate_cir(
            params, float(block.get("horizon", 1.0)), float(block.get("dt", 1e-3)),
            seed, n_paths=int(block.get("paths", 10000)), method="exact",
        )
        feller = params.at(0.0)[0] >= params.at(0.0)[2] > 0
        zero_hits = int(np.sum(paths <= 0.0))
        payload = {
            "check": "cir",
            "positivity_condition_holds": bool(feller),
            "zero_hits": zero_hits,
            "paths": int(paths.shape[1]),
            "steps": int(paths.shape[0] - 1),
            "terminal_mean": float(paths[-1].mean()),
            "terminal_se": float(paths[-1].std(ddof=1) / np.sqrt(paths.shape[1])),
            "passed": bool(not feller or zero_hits == 0),
        }
    else:
        params = OneSidedParams(
            sigma2=float(block["sigma2"]), c=float(block["c"]),
            kappa=float(block["kappa"]), p0=float(block["p0"]),
            barrier=float(block.get("barrier", 5.0)),
        )
        rep = one_sided_volatility_clustering(
            params, t0=float(block.get("t0", 1.0)), eps=float(block.get("eps", 0.1)),
            lag=float(block.get("lag", 0.1)),
            replicates=int(block.get("replicates", 100000)), seed=seed,
        )
        payload = {"check": "clustering", **rep.to_dict()}
        payload["passed"] = bool(
            rep.covariance > 3.0 * rep.se if params.c > 0
            else abs(rep.covariance) <= 3.0 * rep.se
        )
    _write_json(out / "report.json", payload)
    return payload


def _cmd_resolvent(cfg: RunConfig, out: Path, seed: int, level: int,
                   manifest: SeedManifest) -> dict:
    block = cfg.data["resolvent"]
    dt = float(block.get("dt", 1e-3))
    horizon = float(block.get("horizon", 1.0))
    t_grid = np.linspace(0.0, horizon, int(round(horizon / dt)) + 1)
    params = {"c": float(block["c"])}
    if block["family"] in ("exponential", "gamma"):
        params["kappa"] = float(block["kappa"])
    rep = resolvent_report(block["family"], params, t_grid)
    K = rep.pop("K")
    _write_json(out / "report.json", rep)
    _float_csv(out / "resolvent.csv", ["t", "K"], zip(t_grid, K))
    return {"passed": rep["residual_sup"] <= 1e-6, "residual_sup": rep["residual_sup"]}


_DISPATCH = {
    "simulate-micro": _cmd_simulate_micro,
    "solve-limit": _cmd_solve_limit,
    "converge": _cmd_converge,
    "oracle-check": _cmd_oracle_check,
    "resolvent": _cmd_resolvent,
}


def run(command: str, config, out_dir, seed=None, level: int = 0) -> int:
    """Programmatic entry point; returns the process exit status."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if command not in _DISPATCH:
        _write_json(out / "error.json", {"error": f"unknown command {command!r}"})
        return 2
    try:
        cfg = config if isinstance(config, RunConfig) else parse_config(Path(config).read_text())
    except ConfigError as exc:
        _write_json(out / "error.json", {
            "error": "configuration invalid",
            "details": [{"path": p, "message": m} for p, m in exc.errors],
        })
        return 2
    except OSError as exc:
        _write_json(out / "error.json", {"error": str(exc)})
        return 2

    master_seed = int(seed) if seed is not None else cfg.seed
    manifest = SeedManifest(master_seed=master_seed, command=command,
                            level=level if command == "simulate-micro" else None)
    try:
        summary = _DISPATCH[command](cfg, out, master_seed, level, manifest)
    except ConfigError as exc:
        _write_json(out / "error.json", {
            "error": "configuration invalid",
            "details": [{"path": p, "message": m} for p, m in exc.errors],
        })
        return 2
    except Exception as exc:  # runtime failure: report and signal
        _write_json(out / "error.json", {"error": type(exc).__name__, "message": str(exc)})
        return 1
    manifest.write(out / "manifest.json")
    _write_json(out / "summary.json", summary)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="hawkeslob",
        description="Hawkes-driven order book simulation and scaling-limit solvers",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="YAML run configuration")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed", type=int, default=None,
                       help="master seed (overrides the configuration)")
        p.add_argument("--manifest", default=None,
                       help="seed manifest of a previous run to reproduce")
        p.add_argument("--level", type=int, default=None,
                       help="refinement level (default: the manifest's, else 0)")
    args = parser.parse_args(argv)

    seed = args.seed
    level = args.level
    if args.manifest:
        manifest = SeedManifest.read(args.manifest)
        if args.seed is not None and args.seed != manifest.master_seed:
            parser.error(f"--seed {args.seed} disagrees with the manifest's "
                         f"master seed {manifest.master_seed}")
        seed = manifest.master_seed
        if level is not None and manifest.level not in (None, level):
            parser.error(f"--level {level} disagrees with the manifest's level {manifest.level}")
        level = level if level is not None else manifest.level
    return run(args.command, args.config, args.out, seed=seed,
               level=level if level is not None else 0)


if __name__ == "__main__":
    sys.exit(main())
