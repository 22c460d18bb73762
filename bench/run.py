#!/usr/bin/env python3
"""qcembed benchmark: run one workload (or all) and print its metrics.

    python3 bench/run.py --workload vqe-embed-h2o --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1

One process is one closed-loop client: it sets up the seeded inputs, then
runs tasks back to back until the next one would end past ``--seconds``
(but at least ``MINIMUM_TASKS``).
With ``--trace 0`` it reports the end-to-end metrics: task times are
scaled by the speed the calibration loops around each task see, and
set-up is timed by running it ``SETUP_REPEATS`` times in fresh
interpreters.  With
``--trace 1`` it alternates untraced and traced tasks and reports the
per-layer metrics.  Human-readable lines go first; the last line of
standard output is one JSON object (``correct``, ``attempted``,
``failed``, ``metrics``).  A result file with the samples, the energies
and the machine description is written under ``--results-dir``.  The exit
code is 0 only when every task passed its correctness check.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("vqe-embed-h2o", "fci-embed-h8", "mu-scan-lih")
SETUP_REPEATS = 3
# A median needs three samples; on a loaded host one scan can take 17 s.
MINIMUM_TASKS = 3
# Task times are rescaled to a CPU that runs calibrate() in
# CALIBRATION_REFERENCE_S seconds (an idle core of a 2.0 GHz Xeon VM).
# Shared virtual machines change speed by up to 2x within seconds to
# minutes; the calibration loops around each task measure that speed.
# Task times follow the loop's speed to the power SPEED_EXPONENT: the
# least-squares slope of log(task time) on log(loop speed) over 286 tasks
# of the three workloads on such a host was -0.61 to -0.77.
CALIBRATION_REFERENCE_S = 0.2
SPEED_EXPONENT = 0.7
CALIBRATION_STEPS = 500_000
END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--results-dir", type=Path, default=HERE / "results")
    parser.add_argument("--setup-only", type=Path, metavar="DIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def machine() -> dict:
    """What a result depends on besides the code."""
    import scipy

    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads": _blas_threads(),
        "platform": platform.platform(),
    }


def _blas_threads():
    """OpenBLAS thread count of the library numpy loaded, if it tells."""
    import ctypes
    import glob

    for lib in sorted(glob.glob(os.path.join(os.path.dirname(np.__file__), "..", "numpy.libs", "*openblas*"))):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return int(fn())
    return os.environ.get("OPENBLAS_NUM_THREADS", "unknown")


def calibrate() -> float:
    """Seconds this process takes for a fixed mix of interpreter work and
    small numpy calls.  The loop is the benchmark's own and never calls
    the package, so a change to the package leaves it alone."""
    start = time.perf_counter()
    vector = np.arange(64, dtype=np.complex128)
    total = 0.0
    for i in range(CALIBRATION_STEPS):
        total += (i * i) % 7
        if i % 8 == 0:
            total += float(np.vdot(vector * 1.0001, vector).real)
    return time.perf_counter() - start


def speeds(calibrations: list[float]) -> list[float]:
    """Speed factor of the interval between consecutive calibrations:
    the reference loop time over the mean of the two loops around it,
    to the power ``SPEED_EXPONENT``."""
    return [
        (CALIBRATION_REFERENCE_S / (0.5 * (before + after))) ** SPEED_EXPONENT
        for before, after in zip(calibrations, calibrations[1:])
    ]


def _time_setups(workload: str, seed: int, work_root: Path) -> list[float]:
    """Wall times of a fresh interpreter importing the package and writing
    the inputs, ``SETUP_REPEATS`` times.  Not speed-scaled: set-up is
    mostly imports and file system work, which the calibration loop does
    not represent."""
    samples = []
    for k in range(SETUP_REPEATS):
        target = work_root / f"setup{k}"
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                "--seed", str(seed), "--setup-only", str(target)]
        start = time.perf_counter()
        # no timeout: waiting with one polls in 50 ms steps, coarser than the sample
        subprocess.run(argv, check=True, stdout=subprocess.DEVNULL)
        samples.append(time.perf_counter() - start)
        shutil.rmtree(target)
    return samples


def measure(workload_name: str, seed: int, seconds: float, trace: bool, work_root: Path) -> dict:
    import layers
    from tracing import Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS[workload_name]
    setup_samples = [] if trace else _time_setups(workload_name, seed, work_root)

    tracer = Tracer()
    inputs_dir = work_root / "inputs"
    inputs_dir.mkdir(parents=True)
    if trace:
        layers.install(tracer)
    try:
        inputs = workload.setup(inputs_dir, seed)
    finally:
        tracer.uninstall()
    setup_spans = tracer.take()

    tasks, task_spans = [], []
    start = time.perf_counter()
    calibrations = [] if trace else [calibrate()]
    while True:
        traced = trace and len(tasks) % 2 == 1
        if traced:
            layers.install(tracer)
        try:
            t0, c0 = time.perf_counter(), time.process_time()
            outcome = workload.run(inputs)
            wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        finally:
            tracer.uninstall()
        if traced:
            task_spans.append(tracer.take())
        if not trace:
            calibrations.append(calibrate())
        if outcome.failure is None and tasks and outcome.energies != tasks[0]["energies"]:
            outcome.failure = "energies differ from the first task's on identical inputs"
        tasks.append({"wall_s": wall, "cpu_s": cpu, "traced": traced, "energies": outcome.energies,
                      "error_ha": outcome.error_ha, "failure": outcome.failure})
        elapsed = time.perf_counter() - start
        typical = elapsed / len(tasks)
        if len(tasks) >= MINIMUM_TASKS and elapsed + typical > seconds:
            break

    failed = sum(t["failure"] is not None for t in tasks)
    errors = [t["error_ha"] for t in tasks]
    summary = {
        "energy_err_ha": max(errors) if all(e == e for e in errors) else float("nan"),
        "failed_frac": failed / len(tasks),
        "tasks": len(tasks),
    }
    if trace:
        untraced = [t["wall_s"] for t in tasks if not t["traced"]]
        traced_walls = [t["wall_s"] for t in tasks if t["traced"]]
        values, bases = layers.per_layer_metrics(task_spans, traced_walls, untraced, setup_spans)
        units = {name: unit for name, unit, _ in layers.METRICS}
    else:
        task_speeds = speeds(calibrations)
        for task, speed in zip(tasks, task_speeds):
            task["speed"] = speed
        values = {
            "wall_s": statistics.median(t["wall_s"] * t["speed"] for t in tasks),
            "cpu_s": statistics.median(t["cpu_s"] * t["speed"] for t in tasks),
            "setup_s": statistics.median(setup_samples),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = dict(END_TO_END)
        summary["raw_wall_s"] = statistics.median(t["wall_s"] for t in tasks)
        summary["raw_cpu_s"] = statistics.median(t["cpu_s"] for t in tasks)
        summary["speed"] = statistics.median(task_speeds)
        bases = {"setup_s_samples": setup_samples, "calibrations_s": calibrations}
    return {
        "workload": workload_name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "machine": machine(),
        "correct": failed == 0,
        "attempted": len(tasks),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
        "summary": summary,
        "bases": bases,
        "energies": tasks[0]["energies"],
        "tasks": tasks,
    }


def _report(result: dict) -> None:
    head = f"{result['workload']} seed={result['seed']} trace={result['trace']}"
    for name, metric in result["metrics"].items():
        print(f"{head} {name} = {metric['value']:.6g} {metric['unit']}")
    summary = result["summary"]
    print(f"{head} energy_err_ha = {summary['energy_err_ha']:.3e} Ha")
    print(f"{head} failed_frac = {summary['failed_frac']:.3g} ({result['failed']}/{result['attempted']} tasks)")
    if "speed" in summary:
        print(f"{head} unscaled wall_s = {summary['raw_wall_s']:.6g} s, cpu_s = {summary['raw_cpu_s']:.6g} s "
              f"at speed {summary['speed']:.3f}")
    for task in result["tasks"]:
        if task["failure"]:
            print(f"{head} FAILED: {task['failure']}")


def _run_all(args) -> int:
    """Each workload in its own interpreter, so peak RSS is its own."""
    results, code = {}, 0
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace), "--results-dir", str(args.results_dir)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        code = max(code, proc.returncode)
        if lines and proc.returncode in (0, 1):
            results[name] = json.loads(lines[-1])
        else:
            code = max(code, 2)
    print(json.dumps(results))
    return code


def main(argv=None) -> int:
    args = _parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import workloads
    except ImportError as exc:
        print(f"error: cannot import the qcembed package from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if (ROOT / "src") not in Path(workloads.qcembed.__file__).resolve().parents:
        print(f"error: qcembed was imported from {workloads.qcembed.__file__}, not {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    if not (workloads.FIXTURES.is_dir() and workloads.REFERENCES.is_file()):
        print("error: the test fixtures or the committed references are missing", file=sys.stderr)
        return 2
    if args.setup_only is not None:
        args.setup_only.mkdir(parents=True)
        workloads.WORKLOADS[args.workload].setup(args.setup_only, args.seed)
        return 0
    if args.workload == "all":
        return _run_all(args)

    work_root = HERE / "_work" / f"{args.workload}-{os.getpid()}"
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace), work_root)
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
    args.results_dir.mkdir(parents=True, exist_ok=True)
    out = args.results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(result, indent=1) + "\n")
    _report(result)
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
