"""Benchmark entry point.

    python3 bench/run.py --workload cv-svm --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from
`src/`. Workloads: cv-svm, cv-multitask, cli-pipeline, stats-schedule (see
bench/README.md). The run sets up its inputs three times (setup_s is the
median), then runs whole rounds of the workload's operations until the next
round would end after `--seconds`, checks the outputs, and prints one JSON
object as its last line. `--trace 0` reports the end-to-end metrics;
`--trace 1` alternates untraced and traced rounds and reports per-layer
self times and counts from the traced ones.
"""

from __future__ import annotations

import argparse
import ctypes
import importlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3
IMPORT_PROBES = 3

#: Program modules each workload imports before its timed phase.
SETUP_IMPORTS = {
    "cv-svm": ("adaffect.evaluation", "adaffect.synthgen"),
    "cv-multitask": ("adaffect.evaluation", "adaffect.synthgen"),
    "cli-pipeline": ("adaffect.synthgen", "adaffect.fileio"),
    "stats-schedule": ("adaffect.stats", "adaffect.core", "adaffect.scheduler", "adaffect.synthgen"),
}

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(SETUP_IMPORTS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def program_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def child_import_seconds(modules) -> float:
    """Import time of `modules` in a fresh interpreter, as that interpreter
    measures it (interpreter start-up itself is excluded)."""
    code = (
        "import time\nt = time.perf_counter()\n"
        + "".join(f"import {m}\n" for m in modules)
        + "print(time.perf_counter() - t)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=program_env(), cwd=ROOT,
                          capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def openblas_threads():
    """Thread count reported by the OpenBLAS library numpy loaded, if any."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    paths = {line.split()[-1] for line in maps.splitlines() if "openblas" in line.lower()}
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(seed: int) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    thread_vars = ("ADAFFECT_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                   "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
    return {
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": openblas_threads(),
        "thread_env": {v: os.environ.get(v, "unset") for v in thread_vars},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
    }


def run_rounds(workload, seconds: float, trace: bool, tracer):
    """Whole rounds until the next one would end after `seconds`. A traced
    run alternates untraced and traced rounds and runs at least one of each.
    Returns per-round wall times split into (untraced, traced)."""
    import spans

    plain, traced = [], []
    start = time.perf_counter()
    index = 0
    while True:
        with_trace = trace and index % 2 == 1
        if with_trace:
            spans.install_layer_hooks(tracer)
        workload.begin_round()
        t0 = time.perf_counter()
        try:
            workload.run_round(tracer if with_trace else None)
        finally:
            elapsed = time.perf_counter() - t0
            if with_trace:
                tracer.restore()
        workload.end_round()
        (traced if with_trace else plain).append(elapsed)
        index += 1
        if trace and not traced:
            continue
        so_far = time.perf_counter() - start
        if so_far + statistics.median(plain + traced) > seconds:
            return plain, traced


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "adaffect" / "__init__.py").is_file():
        print(f"error: no program source at {ROOT / 'src' / 'adaffect'}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    modules = SETUP_IMPORTS[args.workload]

    # The first set-up's import happens here, in this interpreter, before
    # anything else loads numpy; the other set-ups import in fresh ones.
    t0 = time.perf_counter()
    for module in modules:
        importlib.import_module(module)
    import_seconds = [time.perf_counter() - t0]
    import_seconds += [child_import_seconds(modules) for _ in range(SETUP_REPEATS - 1)]

    import spans
    from workloads import WORKLOADS

    work_root = ROOT / ".bench_work"
    workdir = work_root / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](ROOT, args.seed, workdir)
        setup_samples = []
        for seconds in import_seconds:
            t0 = time.perf_counter()
            workload.setup()
            setup_samples.append(seconds + time.perf_counter() - t0)
        workload.before_timing()

        tracer = spans.Tracer() if args.trace else None
        plain, traced = run_rounds(workload, args.seconds, bool(args.trace), tracer)
        peak_rss_mb = workload.peak_rss_mb()  # before the checks add their own memory
        failures = workload.check() + workload.errors
        env = environment(args.seed)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass  # another run is still using it

    if args.trace:
        metrics = spans.per_layer_values(tracer, len(traced))
        metrics["cli.import_s"] = statistics.median(
            child_import_seconds(("adaffect.cli",)) for _ in range(IMPORT_PROBES))
        metrics["trace.overhead_pct"] = 100.0 * (statistics.median(traced) / statistics.median(plain) - 1.0)
        units = spans.PER_LAYER_UNITS
        metrics = {name: metrics[name] for name in units}
    else:
        metrics = {
            "setup_s": statistics.median(setup_samples),
            "wall_s": statistics.median(plain),
            "peak_rss_mb": peak_rss_mb,
        }
        units = END_TO_END_UNITS
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "env": env,
        "rounds": {"untraced": plain, "traced": traced},
        "setup_samples_s": setup_samples,
        "operations": {} if args.trace else {name: value for name, (value, _) in workload.op_metrics().items()},
        "check_failures": failures,
    }
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (out_dir / f"{stem}.json").write_text(json.dumps(dict(record, metrics=metrics), indent=2) + "\n")
    if tracer is not None:
        tracer.dump(out_dir / f"{stem}.spans.json")

    print("env " + json.dumps(env, sort_keys=True))
    print(f"{args.workload}: seed {args.seed}, {len(plain)} untraced + {len(traced)} traced rounds, "
          f"{workload.attempted} operations attempted, {workload.failed} failed")
    if not args.trace:
        for name, (value, unit) in workload.op_metrics().items():
            print(f"  {name:<24} {value:12.4f} {unit}")
    for name, value in metrics.items():
        print(f"  {name:<40} {value:12.4f} {units[name]}")
    for failure in failures:
        print(f"CHECK FAILED: {failure}")
    result = {
        "correct": not failures,
        "attempted": workload.attempted,
        "failed": workload.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
