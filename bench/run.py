"""Benchmark of hawkeslob: one workload per invocation, one JSON line of results.

Usage, from the root of a checkout::

    python3 bench/run.py --workload converge --seed 7 --seconds 15 --trace 0

The workload's inputs are built from ``--seed`` (set-up, repeated and timed
on its own), then its body runs again and again until ``--seconds`` have
passed.  Times are process CPU time corrected for the host's speed, which
is sampled all through the run; they are medians over the run.  Every
public call is counted and its output checked.  With
``--trace 0`` the last line reports the end-to-end metrics; with
``--trace 1`` traced and untraced iterations alternate, and the last line
reports the per-layer metrics with the tracing overhead.  The full record
(provenance, output digests, statistical verdicts, spans) goes to
``bench/.out/``.  See ``bench/README.md`` for the design.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
WORKLOAD_NAMES = ("converge", "limit-ensemble", "empirical-kernels")
#: Single-threaded BLAS: the host has two shared cores, and threads would
#: measure the scheduler rather than the program.
BLAS_THREADS = "1"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "hawkeslob" / "__init__.py").is_file():
        print(f"error: no hawkeslob sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(ROOT / "src"))
    from measure import measure, provenance, write_record

    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    record = {"provenance": provenance(args.seed), **result}
    write_record(BENCH / ".out", args, record)

    for name, m in result["metrics"].items():
        print(f"{name} {m['value']!r} {m['unit']}")
    for key in ("raw_cpu_s", "wall_s"):
        print(f"{key} {result['iterations'][key]!r} s (median of the iterations, not host-corrected)")
    frac = result["failed"] / result["attempted"]
    print(f"failed_frac {frac!r} 1 ({result['failed']} of {result['attempted']} calls)")
    for err in result["errors"]:
        print(f"failure: {err}", file=sys.stderr)
    print(json.dumps({"provenance": record["provenance"],
                      "digests": result["digests"], "verdicts": result["verdicts"]}))
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
