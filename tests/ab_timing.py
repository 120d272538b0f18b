"""In-process A/B timing of a base tree of the package against this one.

Imports the ``hawkeslob`` package of the base tree (``--base DIR``, a
checkout or export holding ``src/hawkeslob``) and of this tree into one
process, each under its own module objects, builds the same inputs with
each, and runs every layer on both for ``--rounds`` rounds, in process
time.  Each tree makes one untimed call per layer first, which compiles
its books and fills its caches; then the trees alternate call by call, and
which of them goes first alternates as well.  Both trees then see the same
host speed and the same interpreter, so the comparison does not follow
the heap layout of a fresh process as ``bench/run.py`` pairs can.

Per layer it prints each tree's median time per call, the median of the
per-round ratios (this tree over the base), the rounds this tree won, the
base's interquartile range relative to its median, and whether every
output was byte-equal on both trees.  A round makes as many calls of a
layer per tree as take the base about ``ROUND_S`` of process time, each
timed alone, so a short layer is not read off one call of a few
milliseconds.  The script calls only public functions and builds its
inputs with this tree's ``bench/workloads.py``, loaded once per tree, so
it runs on older trees as well.  The file name keeps pytest from
collecting it.

    PYTHONPATH=src python tests/ab_timing.py --base ../parent
    PYTHONPATH=src python tests/ab_timing.py --base ../parent --rounds 5 --layers books.L2 converge

Layers:

- ``books.L0`` … ``books.L2``: ``simulate_books`` on 100 streams of the
  bench family (``workloads.make_family``), horizon 0.05, the levels of the
  ``converge`` workload;
- ``books.L3``: the same at level 3 on 400 streams, horizon 1, seed 9137;
- ``converge``: ``run_convergence`` on the ``converge`` workload's plan;
- ``book.table``: six ``simulate_book`` runs of the ``empirical-kernels``
  table family at level 3, horizon 0.05, the workload's micro calls;
- ``solve_paths``: the ``limit-ensemble`` workload's solve (2000 paths), which
  runs no micro code, as a control.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import importlib.util
import json
import math
import os
import platform
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
#: seed of every layer but ``books.L3``
SEED = 101
#: seed of ``books.L3``
L3_SEED = 9137
#: process time of the base's calls in one round, at least one call
ROUND_S = 0.2


def _ours(name: str) -> bool:
    return name == "hawkeslob" or name.startswith("hawkeslob.")


class Tree:
    """The ``hawkeslob`` modules of one source tree, and the bench workloads
    module built on them.  ``active`` puts its modules into ``sys.modules``,
    so imports made during a call (such as ``from .volterra import ...``
    inside a function) resolve to this tree."""

    def __init__(self, label: str, src: Path):
        self.label = label
        others = {k: sys.modules.pop(k) for k in list(sys.modules) if _ours(k)}
        sys.path.insert(0, str(src))
        try:
            importlib.import_module("hawkeslob")
            for path in sorted((src / "hawkeslob").glob("*.py")):
                if path.stem != "__init__":
                    importlib.import_module(f"hawkeslob.{path.stem}")
            spec = importlib.util.spec_from_file_location(f"ab_workloads_{label}",
                                                          ROOT / "bench" / "workloads.py")
            self.workloads = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(self.workloads)
            self.modules = {k: sys.modules.pop(k) for k in list(sys.modules) if _ours(k)}
        finally:
            sys.path.remove(str(src))
            sys.modules.update(others)
        if Path(self.modules["hawkeslob"].__file__).resolve().parent != (src / "hawkeslob").resolve():
            raise RuntimeError(f"{label}: imported hawkeslob from {self.modules['hawkeslob'].__file__}")

    def __getattr__(self, name):
        if name.startswith("__"):
            raise AttributeError(name)
        return self.__dict__["modules"][f"hawkeslob.{name}"]

    @contextlib.contextmanager
    def active(self):
        others = {k: sys.modules.pop(k) for k in list(sys.modules) if _ours(k)}
        sys.modules.update(self.modules)
        try:
            yield
        finally:
            for k in self.modules:
                sys.modules.pop(k, None)
            sys.modules.update(others)


def _array_bytes(a) -> bytes:
    a = np.ascontiguousarray(a)
    return str(a.dtype).encode() + repr(a.shape).encode() + a.tobytes()


def _digest(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(_array_bytes(a))
    return h.hexdigest()


def _run_arrays(runs):
    for run in runs:
        ev, diag, state = run.events, run.diagnostics, run.final_state
        yield from (ev.times, ev.labels, ev.xs, ev.zs, run.ask_ticks, run.bid_ticks,
                    diag.load, diag.beta, diag.d11, diag.d22, diag.active_scalars,
                    np.array([state.ask_vol.base, state.bid_vol.base, run.candidates,
                              run.accepted]),
                    state.ask_vol.values, state.bid_vol.values)


def _books(level: int, streams: int, horizon: float, seed: int):
    def make(tree: Tree):
        params = tree.workloads.make_family().micro_params(level)
        rngs = [tree.rng.stream_rng(seed, r, "micro") for r in range(streams)]
        initial = [rng.bit_generator.state for rng in rngs]

        def reset():
            for rng, state in zip(rngs, initial):
                rng.bit_generator.state = state

        return reset, lambda: tree.micro.simulate_books(params, horizon, rngs), \
            lambda runs: _digest(_run_arrays(runs))
    return make


def _converge(tree: Tree):
    wl = tree.workloads
    family = wl.make_family()
    plan = tree.harness.ExperimentPlan(test_fns=[wl.G1, wl.G2], n_boot=200,
                                       **wl.CONVERGE["full"])
    lp = family.limit_params(n_x=113)

    def call():
        return tree.harness.run_convergence(plan, family, SEED, limit_params=lp)

    def digest(out):
        report, levels, limit_run = out
        arrays = [np.frombuffer(json.dumps(report.to_dict(), sort_keys=True).encode(), np.uint8)]
        for lv in levels:
            arrays += [lv.p_a_terminal, lv.load_terminal, lv.sup_d11,
                       np.array([lv.n_events_mean])]
            arrays += [v for _name, v in sorted(lv.v_inner.items())]
        return _digest(arrays + [limit_run.p_a, limit_run.mu])

    return (lambda: None), call, digest


def _book_table(tree: Tree):
    wl, size = tree.workloads, tree.workloads.EMPIRICAL["full"]
    cfg = tree.config.parse_config(wl.micro_yaml(SEED, size["micro_horizon"]))
    params = cfg.scaling_family().micro_params(size["micro_level"])

    def call():
        return [tree.micro.simulate_book(params, size["micro_horizon"],
                                         tree.rng.stream_rng(SEED, r, "micro"))
                for r in range(size["micro_runs"])]

    return (lambda: None), call, lambda runs: _digest(_run_arrays(runs))


def _solve_paths(tree: Tree):
    wl, size = tree.workloads, tree.workloads.LIMIT_ENSEMBLE["full"]
    family = wl.make_family()
    lp = family.limit_params(n_x=113)
    init = tree.limit.make_initial_state(lp, family.ask_price0, family.bid_price0,
                                         family.ask_volume0, family.bid_volume0,
                                         n_paths=size["paths"])

    def call():
        return tree.limit.solve_paths(lp, init, size["horizon"], size["dt"], seed=SEED,
                                      track=[wl.G1])

    def digest(run):
        return _digest([run.p_a, run.p_b, run.mu, run.beta, run.v_f["g1"]])

    return (lambda: None), call, digest


LAYERS = {
    "books.L0": _books(0, 100, 0.05, SEED),
    "books.L1": _books(1, 100, 0.05, SEED),
    "books.L2": _books(2, 100, 0.05, SEED),
    "books.L3": _books(3, 400, 1.0, L3_SEED),
    "converge": _converge,
    "book.table": _book_table,
    "solve_paths": _solve_paths,
}


def _timed(tree: Tree, layer) -> tuple[float, str]:
    """The process time of one call of a layer on one tree, and the digest
    of its output."""
    reset, call, digest = layer
    with tree.active():
        reset()
        gc.collect()
        t0 = time.process_time()
        out = call()
        elapsed = time.process_time() - t0
        return elapsed, digest(out)


def time_layer(trees: list, make, rounds: int) -> dict:
    """Per-tree times of ``rounds`` rounds of one layer, and whether every
    output agreed.  One untimed call per tree comes first.  A round makes
    as many calls per tree as bring the base's share to ``ROUND_S``, the
    trees alternating call by call, and which tree starts alternates too."""
    layers = []
    for tree in trees:
        with tree.active():
            layers.append(make(tree))
    warm = [_timed(tree, layer) for tree, layer in zip(trees, layers)]
    calls = max(1, math.ceil(ROUND_S / max(warm[0][0], 1e-6)))
    digests = {warm[0][1], warm[1][1]}
    times = np.zeros((2, rounds))
    for k in range(rounds * calls):
        for side in ((0, 1) if k % 2 == 0 else (1, 0)):
            elapsed, digest = _timed(trees[side], layers[side])
            times[side, k // calls] += elapsed / calls
            digests.add(digest)
    return {"base": times[0], "head": times[1], "calls": calls, "equal": len(digests) == 1}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", type=Path, required=True,
                    help="the base tree: a directory holding src/hawkeslob")
    ap.add_argument("--rounds", type=int, default=11)
    ap.add_argument("--layers", nargs="+", choices=list(LAYERS), default=list(LAYERS))
    args = ap.parse_args(argv)
    if args.rounds < 1:
        ap.error("--rounds must be at least 1")
    trees = [Tree("base", args.base.resolve() / "src"), Tree("head", ROOT / "src")]
    print(f"# python {platform.python_version()}, numpy {np.__version__}, "
          f"{os.cpu_count()} CPUs; {args.rounds} rounds, process time")
    print(f"{'layer':<12} {'calls':>5} {'base_ms':>9} {'head_ms':>9} {'ratio':>7} {'won':>6} "
          f"{'base_iqr':>8}  outputs")
    for name in args.layers:
        res = time_layer(trees, LAYERS[name], args.rounds)
        base, head = res["base"], res["head"]
        q1, med, q3 = np.percentile(base, [25, 50, 75])
        print(f"{name:<12} {res['calls']:>5} {1e3 * med:9.2f} {1e3 * np.median(head):9.2f} "
              f"{np.median(head / base):7.3f} {int(np.sum(head < base)):>3}/{args.rounds:<2} "
              f"{(q3 - q1) / med:8.1%}  {'equal' if res['equal'] else 'DIFFER'}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
