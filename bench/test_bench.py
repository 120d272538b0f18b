"""Smoke test of the benchmark itself, at tiny sizes.

Run from the root of the repository with ``python3 -m pytest bench -q``.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

from hostspeed import REFERENCE_S, HostSpeed  # noqa: E402
from layers import metric_units  # noqa: E402
from measure import measure  # noqa: E402
from run import WORKLOAD_NAMES  # noqa: E402

END_TO_END = {"cpu_s", "setup_s", "peak_rss_mb"}


def test_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOAD_NAMES)
    assert {m["name"] for m in spec["end_to_end"]} == END_TO_END
    assert [m["name"] for m in spec["per_layer"]] == list(metric_units())


def test_host_speed_factor_weights_every_sample():
    speed = HostSpeed()
    speed.samples = [REFERENCE_S, 2 * REFERENCE_S]
    assert speed.factor(0) == pytest.approx(0.75)
    assert speed.factor(0, sensitivity=2.0) == pytest.approx(0.625)
    assert speed.factor(1) == pytest.approx(0.5)
    # no sample since the mark: the run's samples stand in
    assert speed.factor(2) == pytest.approx(0.75)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_workload_is_clean_at_tiny_size(workload, trace):
    res = measure(workload, seed=3, seconds=0.0, trace=trace, size="tiny")
    assert res["correct"], res["errors"]
    assert res["failed"] == 0 and res["attempted"] > 0
    assert set(res["metrics"]) == (set(metric_units()) if trace else END_TO_END)
    assert all(math.isfinite(m["value"]) for m in res["metrics"].values())
    assert res["digests"]
    if trace:
        metrics = {k: m["value"] for k, m in res["metrics"].items()}
        if workload == "limit-ensemble":
            assert metrics["micro.simulate_book.busy_s"] == 0.0
            assert metrics["micro.events"] == 0.0
        if workload == "converge":
            assert metrics["hawkes.simulate_thinning.busy_s"] == 0.0
            assert metrics["volterra.solve_forward.busy_s"] == 0.0
            assert metrics["micro.events"] > 0


def test_injected_majorant_violation_is_counted_not_fatal():
    clean = measure("empirical-kernels", seed=3, seconds=0.0, trace=False, size="tiny")
    bad = measure("empirical-kernels", seed=3, seconds=0.0, trace=False, size="tiny",
                  inject_invalid=True)
    n_iter = len(bad["iterations"]["untraced"])
    assert n_iter == len(clean["iterations"]["untraced"])
    # one failed call per iteration, and every other call still ran
    assert bad["failed"] == n_iter
    assert bad["attempted"] == clean["attempted"] + n_iter
    assert bad["failed"] / bad["attempted"] > 0.0
    assert not bad["correct"]
    assert all("MajorantViolationError" in e for e in bad["errors"])
    assert bad["digests"] == clean["digests"]


def test_exits_nonzero_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns(".out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "converge",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
