"""Scaling-limit experiments and statistical checks.

Runs the microscopic book across refinement levels against the limit
system, compares terminal statistics (price moments, a one-dimensional
transport distance between terminal price laws, volume functionals),
collects the event-load moment diagnostics, and evaluates the
generator-martingale residual on limit ensembles.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field as dc_field
from typing import Callable, Optional, Sequence

import numpy as np

from . import limit as limit_mod
# _run_level calls simulate_books; simulate_book is still looked up at this
# name by bench/layers.py, whose hooks do not observe simulate_books yet
from .micro import ScalingFamily, ledger_inners, simulate_book, simulate_books  # noqa: F401
from .rng import SeedManifest, stream_rng

#: standard errors within which a compensated mean passes as zero
MARTINGALE_SE_MULT = 3.0


# ---------------------------------------------------------------------------
# 1-d transport distance
# ---------------------------------------------------------------------------


def wasserstein1(samples_a, samples_b) -> float:
    """Exact first transport distance between two empirical distributions.

    For equal sample counts this is the mean absolute difference of the
    order statistics; in general it integrates the gap between the two
    empirical quantile functions.
    """
    a = np.asarray(samples_a, dtype=float)
    b = np.asarray(samples_b, dtype=float)
    if a.size == 0 or b.size == 0:
        raise ValueError("need nonempty samples")
    return float(_w1_rows(a[None], b[None])[0])


def _w1_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """W1 between matching rows of two stacks of samples.

    The rows are gathered and reduced as C-ordered stacks: an ``axis=1``
    reduction then runs along each contiguous row in the same pairwise
    order as a one-row ``np.sum``, so every row equals its own sum bit for
    bit.  ``a[:, ia]`` would give a column-major stack, whose ``axis=1``
    sum adds in another order.  The weighted gaps are formed in place in
    the first gathered stack, which keeps the transient memory down.
    """
    a, b = np.sort(a, axis=1), np.sort(b, axis=1)
    if a.shape[1] == b.shape[1]:
        return np.abs(a - b).mean(axis=1)
    # integrate |F_a^{-1} - F_b^{-1}| over the merged quantile partition,
    # which depends on the two sample sizes only
    na, nb = a.shape[1], b.shape[1]
    qs = np.union1d(np.arange(1, na) / na, np.arange(1, nb) / nb)
    qs = np.concatenate([[0.0], qs, [1.0]])
    mids = 0.5 * (qs[1:] + qs[:-1])
    widths = np.diff(qs)
    ia = np.minimum((mids * na).astype(int), na - 1)
    ib = np.minimum((mids * nb).astype(int), nb - 1)
    gap = np.take(a, ia, axis=1)
    gap -= np.take(b, ib, axis=1)
    np.abs(gap, out=gap)
    gap *= widths
    return gap.sum(axis=1)


def _var_gap_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.abs(a.var(axis=1, ddof=1) - b.var(axis=1, ddof=1))


def _draw_indices(rng, highs: np.ndarray, rows: int) -> np.ndarray:
    """``rng.integers(0, highs)`` with the int64 bound row ``highs``
    broadcast to ``(rows, highs.size)``, as whole-array operations: the
    same indices and the same generator state after them (``_bootstrap_se``
    gives the argument)."""
    if highs.min() > 1 and highs.max() <= 2**32:
        state = rng.bit_generator.state
        n = highs.astype(np.uint64)
        m = rng.integers(0, 2**32, size=(rows, highs.size), dtype=np.uint64)
        m *= n
        if not np.any(m.astype(np.uint32) < (2**32 - n) % n):  # the cast keeps the low halves
            m >>= 32
            return m.view(np.int64)
        rng.bit_generator.state = state
    return rng.integers(0, np.broadcast_to(highs, (rows, highs.size)))


def _bootstrap_se(stat_rows: Callable, samples_a, samples_b, n_boot: int, rng) -> float:
    """Bootstrap standard error of a two-sample statistic.

    All resample indices come from one draw whose bounds broadcast the row
    ``[a.size] * a.size + [b.size] * b.size`` to ``(n_boot, a.size +
    b.size)``; the first ``a.size`` columns index ``a``, the rest ``b``.
    numpy draws a broadcast bound element by element in row order, with the
    same 32-bit bounded step as a scalar-bound fill, so the indices, and the
    generator state after them, equal two ``integers`` calls per resample,
    ``a`` then ``b``.  That step is Lemire's multiply-shift (Lemire 2019,
    "Fast Random Integer Generation in an Interval"): a bound ``n`` from 2
    to ``2**32`` turns a 32-bit word ``x`` into ``(x * n) >> 32``, unless
    the low half of ``x * n`` falls below ``(2**32 - n) % n``, when the word
    is rejected and another drawn; a bound of 1 takes no word.
    ``_draw_indices`` takes the words from one scalar-bound fill,
    ``integers(0, 2**32, dtype=uint64)``, which draws one per element from
    the same buffered 32-bit stream, and multiplies and shifts the whole
    array.  Where a word would be rejected or a bound is 1 the words no
    longer line up, so it puts the generator back and makes the broadcast
    call.  ``stat_rows`` evaluates the statistic on every pair of resampled
    rows at once.
    """
    a = np.asarray(samples_a)
    b = np.asarray(samples_b)
    highs = np.repeat(np.array([a.size, b.size], dtype=np.int64), [a.size, b.size])
    idx = _draw_indices(rng, highs, n_boot)
    return float(stat_rows(a[idx[:, :a.size]], b[idx[:, a.size:]]).std(ddof=1))


# ---------------------------------------------------------------------------
# convergence experiment
# ---------------------------------------------------------------------------


@dataclass
class ExperimentPlan:
    """Shape of a scaling-limit convergence experiment."""

    levels: Sequence[int] = (0, 1, 2, 3)
    replicates: int = 400
    horizon: float = 1.0
    limit_paths: int = 2000
    limit_dt: float = 1e-3
    test_fns: Sequence[limit_mod.SpatialTestFn] = ()
    n_boot: int = 200
    se_slack: float = 2.0

    def __post_init__(self):
        if self.replicates < 100:
            raise ValueError("need at least 100 replicates per level")
        if self.limit_paths < 100:
            raise ValueError("need at least 100 limit paths")
        if len(self.levels) < 3:
            raise ValueError("need at least three refinement levels")
        if any(k >= k_next for k, k_next in zip(self.levels, self.levels[1:])):
            raise ValueError(f"refinement levels must be strictly increasing, got {tuple(self.levels)}")
        if self.n_boot < 2:
            raise ValueError("need at least two bootstrap draws for a standard error")
        if self.se_slack < 0:
            raise ValueError("the standard-error slack must be >= 0")


@dataclass
class LevelStats:
    level: int
    delta_x: float
    delta_v: float
    n_events_mean: float
    p_a_terminal: np.ndarray
    v_inner: dict  # fn name -> (replicates,) samples of <V_a(T), f>
    load_terminal: np.ndarray
    sup_d11: np.ndarray


@dataclass
class StatisticRow:
    name: str
    errors: list
    ses: list
    passed: bool


@dataclass
class ConvergenceReport:
    levels: list
    statistics: list
    passed: bool
    runtime_s: float
    manifest: SeedManifest

    def to_dict(self) -> dict:
        # wall-clock runtime stays off the artifact so reruns from the same
        # manifest stay byte-identical
        return {
            "passed": self.passed,
            "levels": self.levels,
            "statistics": [
                {"name": s.name, "errors": s.errors, "ses": s.ses, "passed": s.passed}
                for s in self.statistics
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


def _monotone_within(errors: Sequence[float], ses: Sequence[float], slack: float) -> bool:
    """Nonincreasing up to ``slack`` times the combined Monte Carlo error."""
    for k in range(len(errors) - 1):
        tol = slack * math.hypot(ses[k], ses[k + 1])
        if errors[k + 1] > errors[k] + tol:
            return False
    return True


def _run_level(family: ScalingFamily, level: int, horizon: float, test_fns, rngs: list) -> LevelStats:
    """The statistics of one level, its replicates run on the streams ``rngs``."""
    params = family.micro_params(level)
    runs = simulate_books(params, horizon, rngs)
    ledgers = [run.final_state.ask_vol for run in runs]
    return LevelStats(
        level=level,
        delta_x=params.delta_x,
        delta_v=params.delta_v,
        n_events_mean=sum(run.accepted for run in runs) / len(runs),
        p_a_terminal=np.array([run.final_state.p_a for run in runs]),
        v_inner={f.name: ledger_inners(ledgers, f.fn) for f in test_fns},
        load_terminal=np.array([run.diagnostics.load_terminal for run in runs]),
        sup_d11=np.stack([run.diagnostics.d11 for run in runs]).max(axis=1),
    )


def run_convergence(
    plan: ExperimentPlan,
    family: ScalingFamily,
    seed: int,
    limit_params: Optional[limit_mod.LimitParams] = None,
    n_workers: int = 1,
) -> tuple[ConvergenceReport, list[LevelStats], limit_mod.LimitRun]:
    """Compare the refinement sequence against its declared limit.

    Per level, estimates the absolute errors of the terminal ask-price mean
    and variance, the transport distance between the terminal price
    samples, and the volume functionals; the report passes when every error
    sequence is nonincreasing across levels up to the standard-error slack.
    Every level runs replicate r on the micro stream r of ``seed``: the
    streams are derived once, and each level starts them from their initial
    states.  The limit is solved without tracked functionals: the volume
    errors read its terminal volumes (``LimitRun.v_inner``), so the returned
    run's ``v_f`` and ``eta_f`` are empty.  The experiment runs in one
    process; ``n_workers`` accepts only 1.
    """
    t_start = time.perf_counter()
    if n_workers != 1:
        raise ValueError(f"run_convergence runs in one process; got n_workers={n_workers}")
    manifest = SeedManifest(master_seed=seed, command="converge")
    lp = limit_params if limit_params is not None else family.limit_params()
    init = limit_mod.make_initial_state(
        lp, family.ask_price0, family.bid_price0,
        family.ask_volume0, family.bid_volume0, n_paths=plan.limit_paths,
    )
    limit_run = limit_mod.solve_paths(lp, init, plan.horizon, plan.limit_dt, seed=seed)
    manifest.register("limit", 1)

    lim_pa = limit_run.p_a[-1]
    lim_inner = {f.name: limit_run.v_inner(f.fn, "a") for f in plan.test_fns}

    rngs = [stream_rng(seed, r, "micro") for r in range(plan.replicates)]
    initial = [rng.bit_generator.state for rng in rngs]
    levels = []
    for k in plan.levels:
        for rng, state in zip(rngs, initial):
            rng.bit_generator.state = state
        levels.append(_run_level(family, k, plan.horizon, plan.test_fns, rngs))
    manifest.register("micro", plan.replicates)

    boot_rng = stream_rng(seed, 0, "harness")
    manifest.register("harness", 1)
    stats: list[StatisticRow] = []

    mean_err, mean_se = [], []
    var_err, var_se = [], []
    w1_val, w1_se = [], []
    lim_mean_se = lim_pa.std(ddof=1) / math.sqrt(lim_pa.size)
    for lv in levels:
        s = lv.p_a_terminal
        mean_err.append(abs(s.mean() - lim_pa.mean()))
        mean_se.append(math.hypot(s.std(ddof=1) / math.sqrt(s.size), lim_mean_se))
        var_err.append(abs(s.var(ddof=1) - lim_pa.var(ddof=1)))
        var_se.append(_bootstrap_se(_var_gap_rows, s, lim_pa, plan.n_boot, boot_rng))
        w1_val.append(wasserstein1(s, lim_pa))
        w1_se.append(_bootstrap_se(_w1_rows, s, lim_pa, plan.n_boot, boot_rng))
    stats.append(StatisticRow("terminal_mean_error", mean_err, mean_se,
                              _monotone_within(mean_err, mean_se, plan.se_slack)))
    stats.append(StatisticRow("terminal_var_error", var_err, var_se,
                              _monotone_within(var_err, var_se, plan.se_slack)))
    stats.append(StatisticRow("terminal_w1", w1_val, w1_se,
                              _monotone_within(w1_val, w1_se, plan.se_slack)))

    for f in plan.test_fns:
        errs, ses = [], []
        ref = lim_inner[f.name]
        ref_se = ref.std(ddof=1) / math.sqrt(ref.size)
        for lv in levels:
            s = lv.v_inner[f.name]
            errs.append(abs(s.mean() - ref.mean()))
            ses.append(math.hypot(s.std(ddof=1) / math.sqrt(s.size), ref_se))
        stats.append(StatisticRow(f"volume_{f.name}_error", errs, ses,
                                  _monotone_within(errs, ses, plan.se_slack)))

    report = ConvergenceReport(
        levels=[{
            "level": lv.level, "delta_x": lv.delta_x, "delta_v": lv.delta_v,
            "mean_events": lv.n_events_mean,
        } for lv in levels],
        statistics=stats,
        passed=all(s.passed for s in stats),
        runtime_s=time.perf_counter() - t_start,
        manifest=manifest,
    )
    return report, levels, limit_run


# ---------------------------------------------------------------------------
# event-load moment diagnostics
# ---------------------------------------------------------------------------


@dataclass
class MomentReport:
    rows: list  # dicts: level, p, moment, se
    sup_field: list  # dicts: level, mean sup ||D||, se
    blow_up: bool

    def to_dict(self) -> dict:
        return {"rows": self.rows, "sup_field": self.sup_field, "blow_up": self.blow_up}


def moment_diagnostics(levels: Sequence[LevelStats], growth_limit: float = 2.0) -> MomentReport:
    """Moments of the terminal event load across levels, with a blow-up flag.

    The load starts at one and grows by the squared tick per active event
    and by the order size per passive event; its moments staying bounded
    across levels is the quantitative content of the tightness bounds.
    """
    rows = []
    sup_rows = []
    blow = False
    prev: dict = {}
    for lv in levels:
        for p in (1, 2, 4):
            vals = lv.load_terminal**p
            m = float(vals.mean())
            rows.append({
                "level": lv.level, "p": p, "moment": m,
                "se": float(vals.std(ddof=1) / math.sqrt(vals.size)),
            })
            if p in prev and m > growth_limit * prev[p]:
                blow = True
            prev[p] = m
        sup_rows.append({
            "level": lv.level,
            "mean_sup_d11": float(lv.sup_d11.mean()),
            "se": float(lv.sup_d11.std(ddof=1) / math.sqrt(lv.sup_d11.size)),
        })
    return MomentReport(rows, sup_rows, blow)


# ---------------------------------------------------------------------------
# generator-martingale residual
# ---------------------------------------------------------------------------


@dataclass
class GeneratorTestSpec:
    """A smooth observable of (p_a, p_b, v_a^f, v_b^f) with its derivatives.

    The volume coordinates are the inner products against the declared test
    functions; derivative callables receive the four coordinate arrays.
    """

    name: str
    g: Callable
    dp: dict = dc_field(default_factory=dict)  # side -> dG/dp_side
    d2p: dict = dc_field(default_factory=dict)  # side -> d2G/dp_side^2
    dv: dict = dc_field(default_factory=dict)  # side -> dG/dv_side^f
    test_fn: Optional[limit_mod.SpatialTestFn] = None


def squared_ask_price() -> GeneratorTestSpec:
    return GeneratorTestSpec(
        name="p_a_squared",
        g=lambda pa, pb, va, vb: pa**2,
        dp={"a": lambda pa, pb, va, vb: 2.0 * pa},
        d2p={"a": lambda pa, pb, va, vb: 2.0 * np.ones_like(pa)},
    )


def ask_price_times_volume(test_fn: limit_mod.SpatialTestFn) -> GeneratorTestSpec:
    return GeneratorTestSpec(
        name=f"p_a_times_v[{test_fn.name}]",
        g=lambda pa, pb, va, vb: pa * va,
        dp={"a": lambda pa, pb, va, vb: va},
        dv={"a": lambda pa, pb, va, vb: pa},
        test_fn=test_fn,
    )


@dataclass
class MartingaleReport:
    name: str
    checkpoints: list
    means: list
    ses: list
    passed: bool

    def to_dict(self) -> dict:
        return {
            "ge": self.name, "checkpoints": self.checkpoints,
            "means": self.means, "ses": self.ses, "passed": self.passed,
        }


def martingale_residual(
    run: limit_mod.LimitRun,
    spec: GeneratorTestSpec,
    checkpoints: Sequence[float],
) -> MartingaleReport:
    """Empirical mean of the compensated observable at the checkpoints.

    Subtracts the time integral of the path-dependent generator (drift and
    squared-diffusion price terms plus the volume drift functionals,
    evaluated from the stored intensity paths) from the observable; a mean
    within ``MARTINGALE_SE_MULT`` standard errors of zero at every
    checkpoint passes.
    """
    p = run.params
    t = run.t
    dt = run.dt
    n_steps = t.size - 1
    R = run.n_paths

    name = spec.test_fn.name if spec.test_fn is not None else None
    va = run.v_f[name][:, 0, :] if name else np.zeros((t.size, R))
    vb = run.v_f[name][:, 1, :] if name else np.zeros((t.size, R))
    eta_a = run.eta_f[name][:, 0, :] if name else np.zeros((t.size, R))
    eta_b = run.eta_f[name][:, 1, :] if name else np.zeros((t.size, R))

    # generator integrand along the realized paths
    integrand = np.zeros((t.size, R))
    coords = (run.p_a, run.p_b, va, vb)
    for s_idx, side in enumerate(("a", "b")):
        rho = np.stack([p.rho[side](run.p_a[m], run.p_b[m]) for m in range(t.size)])
        rate_slope = np.stack([p.rate_slope[side](run.p_a[m], run.p_b[m]) for m in range(t.size)])
        mu = run.mu[:, s_idx, :]
        beta = run.beta[:, s_idx, :]
        drift = rho * beta + rate_slope * mu
        if side == "b":
            drift = -drift
        sigma = rho * mu
        if side in spec.dp:
            integrand += spec.dp[side](*coords) * drift
        if side in spec.d2p:
            integrand += spec.d2p[side](*coords) * sigma
        if side in spec.dv:
            eta = eta_a if side == "a" else eta_b
            integrand += spec.dv[side](*coords) * eta
    # trapezoid accumulation of the generator integral
    cum = np.zeros((t.size, R))
    cum[1:] = np.cumsum(0.5 * (integrand[1:] + integrand[:-1]) * dt, axis=0)

    g_path = spec.g(*coords)
    compensated = g_path - g_path[0] - cum

    means, ses, cps = [], [], []
    passed = True
    for tc in checkpoints:
        m = int(round(tc / dt))
        m = min(max(m, 0), n_steps)
        vals = compensated[m]
        mean = float(vals.mean())
        se = float(vals.std(ddof=1) / math.sqrt(R))
        cps.append(t[m])
        means.append(mean)
        ses.append(se)
        if abs(mean) > MARTINGALE_SE_MULT * se:
            passed = False
    return MartingaleReport(spec.name, cps, means, ses, passed)
