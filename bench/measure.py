"""Timing loop, metric reduction and provenance for one benchmark run."""

from __future__ import annotations

import dataclasses
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import scipy

import hawkeslob.hawkes as hawkes
from hostspeed import HostSpeed
from layers import hooks, iteration_metrics, metric_units
from probe import Probe
from workloads import BASE_DELTA_X, HOST_SENSITIVITY, WORKLOADS, invalid_majorant_spec

#: Set-up runs in rounds of at least SETUP_ROUND_S of CPU time, each timed
#: as a whole and divided by its repeats, until both bounds below are met;
#: setup_s is the median round.  Some set-ups take well under a millisecond,
#: and a round makes them long enough to time and to hold several samples
#: of the host's speed.
SETUP_ROUND_S = 0.2
SETUP_MIN_ROUNDS = 5
SETUP_MIN_SECONDS = 1.0
#: Least number of timed iterations of each kind, even past --seconds.
MIN_ITERATIONS = 3
#: Per-layer metrics in these units are times or their inverse, and are
#: corrected for the host's speed like the end-to-end times.
TIME_UNITS = ("s", "us")
RATE_UNITS = ("1/s",)


def measure(workload: str, seed: int, seconds: float, trace: bool,
            size: str = "full", inject_invalid: bool = False) -> dict:
    """Set up ``workload`` from ``seed`` and time its body for ``seconds``.

    Every time is CPU time of this thread without the host-speed samples,
    scaled by the speed of the host while it ran (see ``hostspeed.py``):
    the body runs on this thread alone (BLAS is pinned to one), so this is
    the wall time the same work takes on the quiet host.  With ``trace`` the iterations alternate untraced and traced and the
    per-layer metrics are reported; otherwise the end-to-end ones.
    ``inject_invalid`` adds one call with an invalid kernel envelope before
    each iteration, to show that a failure is counted and the run goes on.
    """
    setup, body, sizes = WORKLOADS[workload]
    sensitivity = HOST_SENSITIVITY[workload]
    out_dir = Path(__file__).resolve().parent / ".out"
    out_dir.mkdir(exist_ok=True)
    setup_times: list[float] = []
    cpus = {False: [], True: []}
    raw_cpus = {False: [], True: []}
    walls = {False: [], True: []}
    per_iteration: list[dict] = []
    digests: list[dict] = []
    verdicts: dict = {}
    speed = HostSpeed()
    clock = speed.clock
    probe = Probe(hooks(), clock=clock)
    with tempfile.TemporaryDirectory(dir=out_dir) as work, speed:
        # set-up runs unobserved, so a failure there aborts the run
        setup_total = 0.0
        while len(setup_times) < SETUP_MIN_ROUNDS or setup_total < SETUP_MIN_SECONDS:
            repeats = 0
            mark = speed.mark()
            c0 = clock()
            while repeats == 0 or clock() - c0 < SETUP_ROUND_S:
                inputs = setup(seed, Path(work), sizes[size])
                repeats += 1
            elapsed = clock() - c0
            setup_total += elapsed
            setup_times.append(elapsed / repeats * speed.factor(mark, sensitivity))

        deadline = time.perf_counter() + seconds
        i = 0
        with probe:
            while True:
                traced = trace and i % 2 == 1
                probe.trace = traced
                probe.begin_iteration(i)
                if inject_invalid:
                    probe.guard(hawkes.simulate_thinning, invalid_majorant_spec(), 50.0, seed)
                mark = speed.mark()
                t0 = time.perf_counter()
                c0 = clock()
                verdicts = body(inputs, probe)
                cpu = clock() - c0
                walls[traced].append(time.perf_counter() - t0)
                factor = speed.factor(mark, sensitivity)
                raw_cpus[traced].append(cpu)
                cpus[traced].append(cpu * factor)
                digests.append(probe.digests())
                if traced:
                    per_iteration.append(_host_corrected(iteration_metrics(
                        probe.iteration_spans(i), probe.spans, cpu, BASE_DELTA_X), factor))
                i += 1
                enough = len(cpus[False]) >= MIN_ITERATIONS and (
                    not trace or len(cpus[True]) >= MIN_ITERATIONS)
                if enough and time.perf_counter() >= deadline:
                    break

    if any(d != digests[0] for d in digests[1:]):
        probe.fail("outputs differ between iterations with the same seed")

    if trace:
        units = metric_units()
        values = {name: statistics.median(it[name] for it in per_iteration)
                  for name in units if not name.startswith("trace.")}
        values["trace.untraced_cpu_s"] = statistics.median(cpus[False])
        values["trace.traced_cpu_s"] = statistics.median(cpus[True])
        values["trace.overhead_s"] = values["trace.traced_cpu_s"] - values["trace.untraced_cpu_s"]
    else:
        units = {"cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
        values = {
            "cpu_s": statistics.median(cpus[False]),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    return {
        "workload": workload,
        "correct": probe.failed == 0,
        "attempted": probe.attempted,
        "failed": probe.failed,
        "metrics": {name: {"value": float(values[name]), "unit": units[name]}
                    for name in units},
        "errors": probe.errors,
        "digests": digests[0],
        "verdicts": verdicts,
        "iterations": {
            "untraced": cpus[False], "traced": cpus[True], "setup": setup_times,
            "untraced_raw_cpu": raw_cpus[False], "traced_raw_cpu": raw_cpus[True],
            "untraced_wall": walls[False], "traced_wall": walls[True],
            "raw_cpu_s": statistics.median(raw_cpus[False]),
            "sensitivity": sensitivity,
            "wall_s": statistics.median(walls[False]),
            "host_samples": speed.samples,
        },
        "spans": [dataclasses.asdict(s) for s in probe.spans],
    }


def _host_corrected(metrics: dict, factor: float) -> dict:
    """Scale the times and rates of one traced iteration like its CPU time."""
    units = metric_units()
    out = {}
    for name, value in metrics.items():
        if units[name] in TIME_UNITS:
            value *= factor
        elif units[name] in RATE_UNITS:
            value /= factor
        out[name] = value
    return out


def _git_sha(root: Path):
    """HEAD of the checkout, read from .git without running git; None if absent."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def _blas_threads():
    """Thread count OpenBLAS reports, for numpy wheels that bundle OpenBLAS."""
    import ctypes

    libs = sorted((Path(np.__file__).resolve().parent.parent / "numpy.libs").glob("*openblas*"))
    for lib in libs:
        handle = ctypes.CDLL(str(lib))
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def provenance(seed: int) -> dict:
    root = Path(__file__).resolve().parent.parent
    return {
        "git_sha": _git_sha(root),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": _blas_threads(),
        "machine": platform.machine(),
        "seed": seed,
        "argv": sys.argv[1:],
    }


def write_record(out_dir: Path, args, record: dict) -> None:
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1))
