"""Benchmark command. Run from the repository root:

    python3 perfbench/run.py --workload train --seed 1 --seconds 25 --trace 0

Workloads: train, extract, eval (see README.md in this directory). With
--trace 0 the last line of standard output holds every end-to-end metric;
with --trace 1 it holds every per-layer metric, and the line before it the
tracing overhead. The command exits with 0 only when every output check
passed, and with 2 without printing a result when the program's sources are
not next to it.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
# a run never measures longer than this, whatever its minimum sample count
MAX_MEASURE_S = 120.0
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
BLAS_THREAD_SYMBOLS = (
    "openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "scipy_openblas_get_num_threads64_",
)


def import_program():
    """Import salient from the checkout's src directory, never from an
    installed copy; returns None when the sources are missing."""
    if not (SRC / "salient" / "__init__.py").is_file():
        return None
    # the script's own directory would shadow top-level modules by its file names
    here = str(Path(__file__).resolve().parent)
    sys.path[:] = [p for p in sys.path if p and Path(p).resolve() != Path(here)]
    sys.path.insert(0, str(SRC))
    import salient

    if Path(salient.__file__).resolve().parent != SRC / "salient":
        return None
    return salient


def blas_threads() -> dict:
    """Thread count of each loaded BLAS library, read from the library
    itself, and the thread environment variables that were set. The
    benchmark reads the count and never sets it."""
    libraries = []
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh if "blas" in line.rsplit("/", 1)[-1].lower()})
    except OSError:
        paths = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in BLAS_THREAD_SYMBOLS:
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                libraries.append({"library": Path(path).name, "threads": fn(), "read_from": f"{symbol}()"})
                break
    env = {k: os.environ[k] for k in BLAS_ENV if k in os.environ}
    if libraries:
        effective, source = libraries[0]["threads"], "loaded library"
    elif env:
        name = next(iter(env))
        effective, source = env[name], f"env {name}"
    else:
        effective, source = None, "unknown"
    return {"effective": effective, "source": source, "libraries": libraries, "env": env}


def environment(load_at_start) -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "blas_threads": blas_threads(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "loadavg_at_start": load_at_start,
    }


def measure(workload, seconds: float, tracer) -> None:
    """Run measured units until `seconds` have passed and the workload has
    its minimum sample count. With a tracer, every other unit is traced."""
    start = time.perf_counter()
    index = 0
    while True:
        elapsed = time.perf_counter() - start
        if elapsed >= MAX_MEASURE_S or (elapsed >= seconds and workload.samples() >= workload.min_samples):
            return
        traced = tracer is not None and workload.traced(index)
        workload.unit(index, tracer if traced else None)
        index += 1


def with_units(values: dict, units: dict) -> dict:
    return {k: {"value": values[k], "unit": units[k]} for k in units}


def main(argv=None) -> int:
    load_at_start = os.getloadavg() if hasattr(os, "getloadavg") else None
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("train", "extract", "eval"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    if import_program() is None:
        print(f"perfbench: the salient sources are not at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT))
    from perfbench import stats
    from perfbench.metrics import END_TO_END, PER_LAYER
    from perfbench.spans import Tracer
    from perfbench.workloads import WORKLOADS

    env = environment(load_at_start)
    print(json.dumps({"environment": env}))
    work = WORK / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    tracer = Tracer() if args.trace else None
    try:
        workload = WORKLOADS[args.workload](work, args.seed)
        workload.warm_up()
        measure(workload, args.seconds, tracer)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    details = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "attempted": workload.attempted,
        "failed": workload.failed,
        "fail_ratio": {"value": workload.failed / max(workload.attempted, 1), "unit": "failed/attempted"},
        "setup_repeats": len(workload.setup_s),
        "problems": workload.problems[:5],
    }
    if args.trace:
        metrics = with_units(workload.per_layer(tracer), PER_LAYER)
        traced, untraced = workload.timing(True), workload.timing(False)
        details["tracing_overhead"] = {
            k: {"traced": traced[k], "untraced": untraced[k], "traced_minus_untraced": traced[k] - untraced[k],
                "unit": END_TO_END[k][0]}
            for k in ("throughput_per_s", "latency_ms_p50", "latency_ms_tail")
            if traced[k] is not None and untraced[k] is not None
        }
        spans_path = WORK / f"spans-{args.workload}-seed{args.seed}.jsonl"
        WORK.mkdir(exist_ok=True)
        tracer.write(spans_path)
        details["spans_file"] = str(spans_path.relative_to(ROOT))
    else:
        values = dict(workload.timing(False))
        details["tail_percentile"] = values.pop("tail_percentile")
        if values["latency_ms_tail"] is None:
            workload.fail(f"{len(workload.latency_ms[False])} samples are too few for a tail percentile")
        values["setup_s"] = stats.median(workload.setup_s)
        values["peak_rss_mb"] = peak_rss_mb
        metrics = with_units(values, {k: unit for k, (unit, _) in END_TO_END.items()})
        details["headline_metrics"] = {
            "setup_s": {"value": values["setup_s"], "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "fail_ratio": details["fail_ratio"],
            **{k: {"value": v, "unit": u} for k, (v, u) in workload.headline_metrics().items()},
        }
        for name, m in details["headline_metrics"].items():
            print(f"[perfbench] {args.workload}: {name} = {m['value']} {m['unit']}".rstrip())
    print(json.dumps({"details": details}))
    correct = workload.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": workload.attempted,
        "failed": workload.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
