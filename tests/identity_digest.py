"""Digests of one ``run_convergence`` experiment, for bit-identity checks.

Prints the sha256 of the convergence report (without ``runtime_s``), of the
seed manifest, of every ``LevelStats`` array and of the limit ``p_a``,
``p_b`` and ``mu``, one per line.  Two trees that print the same lines ran
the same experiment bit for bit.

    PYTHONPATH=src python tests/identity_digest.py --seed 101 --plan bench
    PYTHONPATH=src python tests/identity_digest.py --seed 9137 --plan criterion10

``bench`` is the ``converge`` workload's plan at its full size, read from
``bench/workloads.py``; ``criterion10`` is the plan of acceptance criterion
10 (4 levels of 400 replicates, 2000 limit paths).  The file name keeps
pytest from collecting it.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]


def _bench_plan():
    spec = importlib.util.spec_from_file_location("bench_workloads", ROOT / "bench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    family = workloads.make_family()
    plan = workloads.harness.ExperimentPlan(test_fns=[workloads.G1, workloads.G2], n_boot=200,
                                            **workloads.CONVERGE["full"])
    return plan, family, family.limit_params(n_x=113)


def _criterion10_plan():
    from hawkeslob import limit
    from hawkeslob.harness import ExperimentPlan

    sys.path.insert(0, str(ROOT / "tests"))
    from conftest import make_family

    f1 = limit.SpatialTestFn("g1", lambda x: np.exp(-((np.asarray(x) - 0.5) ** 2)))
    f2 = limit.SpatialTestFn("g2", lambda x: np.exp(-((np.asarray(x) + 0.3) ** 2) / 0.98))
    plan = ExperimentPlan(levels=(0, 1, 2, 3), replicates=400, horizon=1.0, limit_paths=2000,
                          limit_dt=1e-3, test_fns=[f1, f2], n_boot=200)
    return plan, make_family(), None


def digests(plan, family, seed: int, limit_params) -> list[tuple[str, str]]:
    from hawkeslob.harness import run_convergence

    report, levels, limit_run = run_convergence(plan, family, seed, limit_params=limit_params)

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
    for name in ("p_a", "p_b", "mu"):
        a = np.ascontiguousarray(getattr(limit_run, name))
        out.append((f"limit.{name}", sha(str(a.dtype).encode() + a.tobytes())))
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--plan", choices=("bench", "criterion10"), required=True)
    args = ap.parse_args(argv)
    plan, family, limit_params = _bench_plan() if args.plan == "bench" else _criterion10_plan()
    for name, digest in digests(plan, family, args.seed, limit_params):
        print(f"{name} {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
