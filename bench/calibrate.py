"""Host sensitivity of each workload, from the records of earlier runs.

Usage, from the root of a checkout, after some runs with ``--trace 0``::

    python3 bench/calibrate.py

For every workload with records in ``bench/.out/``, it prints the slope of
log raw CPU time on log host slowdown over the iterations, with each run's
means taken out, so that the seed's share of the work does not count.  The
slowdown of an iteration is read back from its corrected and raw times,
with the sensitivity the runs used.  A slope near the workload's entry in
``workloads.HOST_SENSITIVITY`` means that the correction holds.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent


def slope(records: list) -> float:
    xs, ys = [], []
    for rec in records:
        it = rec["iterations"]
        raw = np.log(it["untraced_raw_cpu"])
        # corrected = raw * slowdown ** -s, so log slowdown = (raw - corrected) / s
        x = (raw - np.log(it["untraced"])) / it["sensitivity"]
        xs.append(x - x.mean())
        ys.append(raw - raw.mean())
    x, y = np.concatenate(xs), np.concatenate(ys)
    return float(x @ y / (x @ x))


def main() -> int:
    by_workload: dict = {}
    for path in sorted((BENCH / ".out").glob("*-trace0.json")):
        rec = json.loads(path.read_text())
        if len(rec["iterations"]["untraced"]) > 2:
            by_workload.setdefault(rec["workload"], []).append(rec)
    if not by_workload:
        print("no run records in bench/.out/", file=sys.stderr)
        return 1
    for workload, records in sorted(by_workload.items()):
        print(f"{workload}: sensitivity {slope(records):.2f} from {len(records)} runs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
