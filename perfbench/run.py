"""noseda benchmark: one workload per call, closed loop, one operation at a time.

    python3 perfbench/run.py --workload protocol --seed 0 --seconds 25 --trace 0

Workloads (see BENCHMARK.json for why each was chosen):
  protocol   run_experiment(method="ours"): GMM, 2x2 LSTM experts per fit,
             10 selection fits, 5 evaluations
  baselines  run_experiment for lr, adaboost, ss, dnn and lstm

With ``--trace 0`` the last stdout line carries the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a traced run.  Run from the repository
root; the package is imported from ``src/`` there.  The full result (samples,
environment, spans) is written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
WORKLOADS = ("protocol", "baselines")
# Set-up runs at least SETUP_REPEATS times and for SETUP_MIN_S seconds; its
# median is setup_s.
SETUP_REPEATS = 3
SETUP_MIN_S = 1.0


def _import_package():
    """Put the checkout's ``src/`` first on the path; refuse to run without it."""
    src = ROOT / "src"
    if not (src / "noseda" / "__init__.py").is_file():
        sys.exit(f"error: {src / 'noseda'} not found; run from a noseda checkout")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import noseda

    if Path(noseda.__file__).resolve().parent != (src / "noseda").resolve():
        sys.exit(f"error: imported noseda from {noseda.__file__}, not from {src}")


def _blas_threads():
    """OpenBLAS thread count, read from the library numpy loaded."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and "/" in line}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(load_at_start) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu or platform.processor(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"), "threads": _blas_threads()},
        "loadavg_at_start": load_at_start,
        "platform": platform.platform(),
    }


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # kB on Linux


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    load_at_start = os.getloadavg()
    # Two OpenBLAS threads on a 2-core machine made MLP training 3-5x slower
    # and far noisier than one; the benchmark measures single-threaded BLAS.
    # Set before numpy is first imported.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    _import_package()
    import traced
    import workloads as wl

    env = environment(load_at_start)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / "work" / f"{tag}-{os.getpid()}"
    try:
        setups = []
        while not setups or not args.trace and (len(setups) < SETUP_REPEATS or sum(setups) < SETUP_MIN_S):
            t0 = time.perf_counter()
            inputs = wl.setup(args.seed, workdir, classify=bool(args.trace))
            setups.append(time.perf_counter() - t0)
        if args.trace:
            run = traced.measure_traced(inputs, args.seconds, workdir)
        else:
            run = wl.measure(args.workload, inputs, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    OUT.mkdir(parents=True, exist_ok=True)
    if args.trace:
        metrics = {name: {"value": value, "unit": UNITS[name]} for name, value in run["metrics"].items()}
        with open(OUT / f"{tag}.spans.json", "w", encoding="utf-8") as fh:
            json.dump(run.pop("spans"), fh)
    else:
        op_s = run["per_op"].get("op_s")
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "op_s": {"value": op_s["median"] if op_s else None, "unit": "s"},
            "peak_rss_mb": {"value": _peak_rss_mb(), "unit": "MB"},
        }
    correct = run["failed"] == 0 and all(m["value"] is not None for m in metrics.values())

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "settings": wl.settings(),
        "setup_s": setups,
        "correct": correct,
        "metrics": metrics,
        "run": run,
    }
    with open(OUT / f"{tag}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    _print_human(record)
    print(json.dumps({"correct": correct, "attempted": run["attempted"], "failed": run["failed"], "metrics": metrics}))
    return 0 if correct else 1


UNITS = {
    "ingest.load_rows_per_s": "1/s",
    "ingest.standardize_s": "s",
    "ingest.window_s": "s",
    "ingest.rows": "count",
    "gmm.fit_s": "s",
    "gmm.assign_s": "s",
    "gmm.em_iters": "count",
    "gmm.cluster_sizes": "count",
    "lstm.train_s": "s",
    "lstm.train_calls": "count",
    "lstm.window_epochs": "count",
    "lstm.forward_us.b32": "us",
    "lstm.loss_grad_us.b32": "us",
    "lstm.loss_grad_us.b320": "us",
    "lstm.adam_us": "us",
    "lstm.step_us.b32": "us",
    "lstm.predict_windows_per_s": "1/s",
    "mlp.train_s": "s",
    "mlp.step_us.b32": "us",
    "softmax.lr_train_s": "s",
    "softmax.gate_train_s": "s",
    "baselines.adaboost_train_s": "s",
    "baselines.ss_stream_windows_per_s": "1/s",
    "pipeline.fit_s": "s",
    "pipeline.route_s": "s",
    "pipeline.gate_s": "s",
    "pipeline.adapt_s": "s",
    "pipeline.route_fallback": "count",
    "pipeline.gate_constant": "count",
    "pipeline.predict_windows_per_s": "1/s",
    "pipeline.load_model_s": "s",
    "pipeline.save_model_s": "s",
    "trace.span_us": "us",
    "trace.spans": "count",
    "trace.overhead_pct": "%",
}


def _print_human(record: dict) -> None:
    env = record["environment"]
    print(
        f"# {record['workload']} seed={record['seed']} trace={record['trace']} | nproc={env['nproc']} "
        f"python={env['python']} numpy={env['numpy']} blas={env['blas']['name']} "
        f"threads={env['blas']['threads']} load={env['loadavg_at_start'][0]:.2f} | {env['cpu_model']}"
    )
    for name, m in record["metrics"].items():
        print(f"{name:40s} {m['value']!s:>24} {m['unit']}")
    run = record["run"]
    for name, q in run.get("per_op", {}).items():
        print(f"{name:40s} median {q['median']:.6g} (n={q['n']})")
    for failure in run["failures"]:
        print(f"FAILED: {failure}")


if __name__ == "__main__":
    sys.exit(main())
