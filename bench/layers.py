"""The program's layers as the benchmark sees them: hooks and per-layer metrics.

Each hook names a public function of one layer and every module attribute
through which it is reached, so calls made inside ``run_convergence`` and
``cli.run`` are observed as well as the benchmark's own.  The output checks
here are the ones that cannot fail by chance at a new seed; statistical
verdicts (``report.passed``, ``MartingaleReport.passed``) are recorded by the
workloads but never gate.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

import hawkeslob.cli as cli_mod
import hawkeslob.config as config_mod
import hawkeslob.harness as harness_mod
import hawkeslob.hawkes as hawkes_mod
import hawkeslob.limit as limit_mod
import hawkeslob.micro as micro_mod
import hawkeslob.volterra as volterra_mod

from probe import Hook, self_times

#: Layer of each span, by the prefix of its name.
LAYERS = ("micro", "limit", "volterra", "hawkes", "harness", "config", "cli")
#: Refinement levels with their own micro metrics (converge uses 0-2,
#: empirical-kernels level 3).
LEVELS = (0, 1, 2, 3)
CLI_COMMANDS = ("simulate-micro", "resolvent")
CONSISTENCY_TOL = 1e-10
RENEWAL_TOL = 1e-6


def _finite(*arrays) -> bool:
    return all(np.all(np.isfinite(np.asarray(a, dtype=float))) for a in arrays)


# -- checks -------------------------------------------------------------------


def _check_micro(run, args, kwargs):
    out = []
    if run.accepted > run.candidates:
        out.append(f"accepted {run.accepted} > candidates {run.candidates}")
    if np.any(run.ask_ticks < run.bid_ticks):
        out.append("negative spread (ask tick below bid tick)")
    if not _finite(run.final_state.p_a, run.final_state.p_b):
        out.append("non-finite terminal price")
    return out


def _check_limit(run, args, kwargs):
    return [] if _finite(run.p_a, run.p_b, run.mu) else ["non-finite price or intensity path"]


def _check_consistency(residual, args, kwargs):
    if not residual <= CONSISTENCY_TOL:
        return [f"intensity re-solve residual {residual:.3e} > {CONSISTENCY_TOL:g}"]
    return []


def _check_solution(sol, args, kwargs):
    return [] if _finite(sol.scalars(), sol.grids()) else ["non-finite Volterra field"]


def _check_neumann(res, args, kwargs):
    return [] if _finite(res.term_norms) else ["non-finite Neumann term norm"]


def _check_array(arr, args, kwargs):
    return [] if _finite(arr) else ["non-finite values"]


def _check_resolvent_report(rep, args, kwargs):
    if not rep["residual_sup"] <= RENEWAL_TOL:
        return [f"renewal residual {rep['residual_sup']:.3e} > {RENEWAL_TOL:g}"]
    return []


def _check_thinning(stream, args, kwargs):
    horizon = args[1] if len(args) > 1 else kwargs["horizon"]
    t = stream.times
    if t.size and (np.any(np.diff(t) < 0) or t[0] < 0 or t[-1] > horizon):
        return ["event times not ordered inside [0, horizon]"]
    return []


def _check_convergence(out, args, kwargs):
    report = out[0]
    vals = [v for s in report.statistics for v in (*s.errors, *s.ses)]
    return [] if _finite(vals) else ["non-finite convergence statistic"]


def _check_moments(rep, args, kwargs):
    vals = [r["moment"] for r in rep.rows] + [r["mean_sup_d11"] for r in rep.sup_field]
    return [] if _finite(vals) else ["non-finite load moment"]


def _check_martingale(rep, args, kwargs):
    return [] if _finite(rep.means, rep.ses) else ["non-finite martingale residual"]


def _check_exit(code, args, kwargs):
    return [] if code == 0 else [f"exit status {code}"]


# -- counts and digests -------------------------------------------------------


def _micro_counts(run, args, kwargs):
    return {"events": run.accepted, "candidates": run.candidates,
            "delta_x": float(args[0].delta_x)}


def _micro_digest(run, args, kwargs):
    ev = run.events
    return [("micro_events", b"".join(
        np.ascontiguousarray(a).tobytes() for a in (ev.times, ev.labels, ev.xs, ev.zs)
    ))]


def _limit_counts(run, args, kwargs):
    return {"path_steps": run.n_paths * (run.t.size - 1), "clamps": run.clamp_count}


def _limit_digest(run, args, kwargs):
    return [("limit_prices", run.p_a.tobytes() + run.p_b.tobytes())]


def _forward_counts(sol, args, kwargs):
    return {"steps": sol.t.size - 1, "clamps": sol.clamp_count}


def _thinning_counts(stream, args, kwargs):
    spec = args[0]
    profiles = [p for row in getattr(spec.kernel, "profiles", []) for p in row]
    kind = "table" if any(p.params()["family"] == "table" for p in profiles) else "exp"
    return {"events": len(stream), "kernel": kind}


def _cli_counts(code, args, kwargs):
    out_dir = Path(args[2] if len(args) > 2 else kwargs["out_dir"])
    written = sum(p.stat().st_size for p in out_dir.rglob("*") if p.is_file())
    return {"command": args[0], "bytes": written}


def hooks() -> list:
    """Every public call the benchmark observes, and where it is looked up."""
    C, H, L, M, V = cli_mod, harness_mod, limit_mod, micro_mod, volterra_mod
    return [
        Hook("micro.simulate_book",
             [(M, "simulate_book"), (H, "simulate_book"), (C, "simulate_book")],
             check=_check_micro, counts=_micro_counts, digest=_micro_digest),
        Hook("micro.micro_params", [(M.ScalingFamily, "micro_params")]),
        Hook("limit.solve_paths", [(L, "solve_paths")],
             check=_check_limit, counts=_limit_counts, digest=_limit_digest),
        Hook("limit.make_initial_state", [(L, "make_initial_state")]),
        Hook("limit.volterra_system", [(L, "volterra_system")]),
        Hook("limit.intensity_consistency", [(L, "intensity_consistency")],
             check=_check_consistency),
        Hook("volterra.solve_forward", [(V, "solve_forward")],
             check=_check_solution, counts=_forward_counts),
        Hook("volterra.neumann_resolvent", [(V, "neumann_resolvent")],
             check=_check_neumann),
        Hook("volterra.renewal_resolvent", [(V, "renewal_resolvent")],
             check=_check_array),
        Hook("volterra.resolvent_report",
             [(V, "resolvent_report"), (C, "resolvent_report")],
             check=_check_resolvent_report),
        Hook("hawkes.simulate_thinning", [(hawkes_mod, "simulate_thinning")],
             check=_check_thinning, counts=_thinning_counts),
        Hook("harness.run_convergence",
             [(H, "run_convergence"), (C, "run_convergence")], check=_check_convergence),
        Hook("harness.moment_diagnostics",
             [(H, "moment_diagnostics"), (C, "moment_diagnostics")], check=_check_moments),
        Hook("harness.martingale_residual", [(H, "martingale_residual")],
             check=_check_martingale),
        Hook("config.parse_config",
             [(config_mod, "parse_config"), (C, "parse_config")]),
        Hook("cli.run", [(C, "run")], check=_check_exit, counts=_cli_counts),
        Hook("cli.main", [(C, "main")], check=_check_exit),
    ]


# -- per-layer metrics ----------------------------------------------------------


def metric_units() -> dict:
    """Name -> unit of every per-layer metric, in report order."""
    units = {
        "micro.simulate_book.calls": "count",
        "micro.simulate_book.busy_s": "s",
        "micro.events": "count",
        "micro.candidates": "count",
        "micro.accept_ratio": "ratio",
        "micro.us_per_event": "us",
    }
    for k in LEVELS:
        units.update({
            f"micro.L{k}.us_per_event": "us",
            f"micro.L{k}.events_per_run": "count",
            f"micro.L{k}.run_p50_s": "s",
            f"micro.L{k}.run_p90_s": "s",
        })
    units.update({
        "micro.micro_params.busy_s": "s",
        "limit.solve_paths.busy_s": "s",
        "limit.path_steps": "count",
        "limit.path_steps_per_s": "1/s",
        "limit.clamp_count": "count",
        "limit.intensity_consistency.busy_s": "s",
        "volterra.solve_forward.busy_s": "s",
        "volterra.solve_forward.steps_per_s": "1/s",
        "volterra.clamp_count": "count",
        "volterra.neumann_resolvent.busy_s": "s",
        "volterra.renewal_resolvent.busy_s": "s",
        "hawkes.simulate_thinning.busy_s": "s",
        "hawkes.events": "count",
        "hawkes.exp.us_per_event": "us",
        "hawkes.table.us_per_event": "us",
        "harness.run_convergence.busy_s": "s",
        "harness.moment_diagnostics.busy_s": "s",
        "harness.martingale_residual.busy_s": "s",
        "config.parse_config.busy_s": "s",
    })
    units.update({f"cli.run.{cmd}.busy_s": "s" for cmd in CLI_COMMANDS})
    units["cli.bytes_written"] = "bytes"
    units.update({f"{layer}.self_s": "s" for layer in LAYERS})
    units.update({
        "bench.self_s": "s",
        "trace.untraced_cpu_s": "s",
        "trace.traced_cpu_s": "s",
        "trace.overhead_s": "s",
    })
    return units


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def iteration_metrics(spans: list, all_spans: list, cpu_s: float, base_delta_x: float) -> dict:
    """Per-layer metrics of one traced iteration (trace.* are added by the caller)."""
    ok = [s for s in spans if "error" not in s.attrs]

    def named(name, **attrs):
        return [s for s in ok if s.name == name
                and all(s.attrs.get(k) == v for k, v in attrs.items())]

    def busy(name, **attrs):
        return sum(s.duration for s in named(name, **attrs))

    def total(name, key, **attrs):
        return sum(s.attrs[key] for s in named(name, **attrs))

    m = {}
    micro = named("micro.simulate_book")
    events = sum(s.attrs["events"] for s in micro)
    cands = sum(s.attrs["candidates"] for s in micro)
    m["micro.simulate_book.calls"] = len(micro)
    m["micro.simulate_book.busy_s"] = busy("micro.simulate_book")
    m["micro.events"] = events
    m["micro.candidates"] = cands
    m["micro.accept_ratio"] = _ratio(events, cands)
    m["micro.us_per_event"] = 1e6 * _ratio(m["micro.simulate_book.busy_s"], events)
    for k in LEVELS:
        runs = [s for s in micro
                if round(math.log2(base_delta_x / s.attrs["delta_x"])) == k]
        ev = sum(s.attrs["events"] for s in runs)
        durs = [s.duration for s in runs]
        m[f"micro.L{k}.us_per_event"] = 1e6 * _ratio(sum(durs), ev)
        m[f"micro.L{k}.events_per_run"] = _ratio(ev, len(runs))
        m[f"micro.L{k}.run_p50_s"] = float(np.percentile(durs, 50)) if durs else 0.0
        m[f"micro.L{k}.run_p90_s"] = float(np.percentile(durs, 90)) if durs else 0.0
    m["micro.micro_params.busy_s"] = busy("micro.micro_params")

    m["limit.solve_paths.busy_s"] = busy("limit.solve_paths")
    m["limit.path_steps"] = total("limit.solve_paths", "path_steps")
    m["limit.path_steps_per_s"] = _ratio(m["limit.path_steps"], m["limit.solve_paths.busy_s"])
    m["limit.clamp_count"] = total("limit.solve_paths", "clamps")
    m["limit.intensity_consistency.busy_s"] = busy("limit.intensity_consistency")

    m["volterra.solve_forward.busy_s"] = busy("volterra.solve_forward")
    m["volterra.solve_forward.steps_per_s"] = _ratio(
        total("volterra.solve_forward", "steps"), m["volterra.solve_forward.busy_s"])
    m["volterra.clamp_count"] = total("volterra.solve_forward", "clamps")
    m["volterra.neumann_resolvent.busy_s"] = busy("volterra.neumann_resolvent")
    m["volterra.renewal_resolvent.busy_s"] = busy("volterra.renewal_resolvent")

    m["hawkes.simulate_thinning.busy_s"] = busy("hawkes.simulate_thinning")
    m["hawkes.events"] = total("hawkes.simulate_thinning", "events")
    for kind in ("exp", "table"):
        m[f"hawkes.{kind}.us_per_event"] = 1e6 * _ratio(
            busy("hawkes.simulate_thinning", kernel=kind),
            total("hawkes.simulate_thinning", "events", kernel=kind))

    m["harness.run_convergence.busy_s"] = busy("harness.run_convergence")
    m["harness.moment_diagnostics.busy_s"] = busy("harness.moment_diagnostics")
    m["harness.martingale_residual.busy_s"] = busy("harness.martingale_residual")
    m["config.parse_config.busy_s"] = busy("config.parse_config")
    for cmd in CLI_COMMANDS:
        m[f"cli.run.{cmd}.busy_s"] = busy("cli.run", command=cmd)
    m["cli.bytes_written"] = total("cli.run", "bytes")

    selfs = self_times(spans, all_spans)
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(
            t for s, t in zip(spans, selfs) if s.name.split(".")[0] == layer)
    m["bench.self_s"] = cpu_s - sum(s.duration for s in spans if s.parent is None)
    return m
