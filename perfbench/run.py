"""Benchmark of the fouriergit pipeline, end to end and layer by layer.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Workloads are closed loops in a single process: one client, one operation
at a time, at most two threads including BLAS. Their inputs are generated
from --seed (see perfbench/workloads.py):

  cli_paper             the docs/reproduction.md tour on models A and B, each
                        command in a fresh `python -m fouriergit` process
  coverage_sweep        24 plan cells, each an exact pipeline plus 50 sampled
                        reconstructions, in process
  norm_bound            the n_terms = 42371 norm-bound plan on 4096 uniform
                        lines and on 4096 seeded random lines, in process

The workload's fixed list of operations is repeated until --seconds have
passed. --trace 0 reports the end-to-end metrics of BENCHMARK.json
("end_to_end"); --trace 1 runs the workload untraced and then traced
(perfbench/tracer.py) and reports the per-layer metrics ("per_layer").
Every operation's output is checked. Lines before the last give the run
metadata and each metric with its unit; the last line is one JSON object
with the keys correct, attempted, failed and metrics. Scratch files, the
span dump and a full result record go to .bench_work/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 2  # fresh-interpreter set-ups before and again after the
# timed phase, so that setup_s (their median) samples two machine states
IMPORT_SAMPLES = 3  # `-X importtime` probes per traced run
MIN_SAMPLES_P90 = 100  # op_p90_ms needs >= 10 samples beyond the percentile
CLI_COMMANDS = ("report", "model", "plan", "moments", "reconstruct",
                "reconstruct_sampled", "sweep", "shots-demo")
WORKLOAD_NAMES = ("cli_paper", "coverage_sweep", "norm_bound")


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=(*WORKLOAD_NAMES, "all"))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _prepare_environment() -> None:
    """Cap BLAS threads and make the sources under src/ importable, for this
    process and every child it starts. Must run before numpy is imported."""
    threads = str(min(2, os.cpu_count() or 1))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, threads)
    old = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    sys.path.insert(0, str(SRC))


def _timed_child(cmd, timeout=170.0) -> tuple[float, str]:
    t0 = time.perf_counter()
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=timeout, check=True)
    return time.perf_counter() - t0, done.stderr


# ---------------------------------------------------------------------------
# metadata


def _openblas_threads():
    import ctypes

    import numpy  # noqa: F401  (loads the BLAS library)

    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _dist_version(name: str):
    from importlib import metadata

    try:
        return metadata.version(name)
    except metadata.PackageNotFoundError:
        return None


def _runtime_deps():
    import tomllib

    path = ROOT / "pyproject.toml"
    if not path.is_file():
        return None
    return len(tomllib.loads(path.read_text())["project"].get("dependencies", []))


def run_metadata(seed: int) -> dict:
    import numpy

    import fouriergit

    try:
        blas_threads = _openblas_threads()
    except OSError:
        blas_threads = None
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": _dist_version("scipy"),
        "openblas_threads": blas_threads,
        "backend": fouriergit.active_backend(),
        "src_lines": sum(len(p.read_text().splitlines())
                         for p in sorted(SRC.rglob("*.py"))),
        "runtime_deps": _runtime_deps(),
    }


# ---------------------------------------------------------------------------
# measurement


def _passes(workload, seconds, fresh_process, tracer=None):
    """Repeat the workload's operation list until `seconds` have passed.

    Returns the wall time of each pass and all operations run.
    """
    begin_op = tracer.begin_op if tracer is not None else (lambda: None)
    walls, ops = [], []
    t_end = time.perf_counter() + seconds
    while True:
        t0 = time.perf_counter()
        ops.extend(workload.run_pass(begin_op, fresh_process))
        walls.append(time.perf_counter() - t0)
        if time.perf_counter() >= t_end:
            return walls, ops


def _probe_cmd(name, seed, workdir):
    return [sys.executable, str(BENCH_DIR / "workloads.py"), name, str(seed),
            str(workdir)]


def measure_end_to_end(name, seed, seconds, workdir):
    import resource

    import workloads

    probe = _probe_cmd(name, seed, workdir)
    _timed_child(probe)  # untimed: byte-compiles the sources, warms the page cache
    setups = [_timed_child(probe)[0] for _ in range(SETUP_SAMPLES)]

    workload = workloads.WORKLOADS[name](seed, workdir)
    workload.warmup()
    walls, ops = _passes(workload, seconds, fresh_process=True)
    setups += [_timed_child(probe)[0] for _ in range(SETUP_SAMPLES)]

    latencies = [op.seconds for op in ops]
    child_rss_kb = getattr(workload, "peak_rss_kb", 0)
    rss_kb = child_rss_kb or resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(walls),
        "op_p50_ms": 1e3 * statistics.median(latencies),
        "peak_rss_mb": rss_kb / 1024.0,
    }
    info = {
        "passes": len(walls),
        "pass_walls": walls,
        "op_samples": len(latencies),
        "setup_samples": setups,
        "rss_source": "children (wait4)" if child_rss_kb else "self",
    }
    for op_name in sorted({op.name for op in ops}):
        info[f"op_p50_ms.{op_name}"] = 1e3 * statistics.median(
            op.seconds for op in ops if op.name == op_name)
    if len(latencies) >= MIN_SAMPLES_P90:
        info["op_p90_ms"] = 1e3 * statistics.quantiles(latencies, n=10)[8]
    return metrics, ops, info


def _import_times():
    """Cumulative import seconds of fouriergit and scipy.special, from
    `python -X importtime` in fresh interpreters (medians)."""
    cmd = [sys.executable, "-X", "importtime", "-c", "import fouriergit"]
    samples = {"fouriergit": [], "scipy.special": []}
    for _ in range(IMPORT_SAMPLES):
        found = dict.fromkeys(samples, 0.0)
        for line in _timed_child(cmd)[1].splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() in found:
                found[parts[2].strip()] = int(parts[1]) * 1e-6
        for key, val in found.items():
            samples[key].append(val)
    return {key: statistics.median(vals) for key, vals in samples.items()}


def measure_layers(name, seed, seconds, workdir):
    import workloads
    from tracer import Tracer

    _timed_child(_probe_cmd(name, seed, workdir))  # warms caches as above
    imports = _import_times()

    workload = workloads.WORKLOADS[name](seed, workdir)
    workload.warmup()
    plain_walls, plain_ops = _passes(workload, seconds / 2, False)
    tracer = Tracer()
    tracer.install()
    try:
        walls, ops = _passes(workload, seconds / 2, False, tracer)
    finally:
        tracer.uninstall()
    tracer.write(workdir / "spans.json")

    n_passes = len(walls)
    tot = tracer.totals()
    counts = tracer.counts

    def per_pass(span, field):
        return tot.get(span, {}).get(field, 0.0) / n_passes

    def per_call(span):
        row = tot.get(span)
        return row["total_s"] / row["calls"] if row else 0.0

    em_calls = tot.get("moments.exact_moments", {}).get("calls", 0)
    curve_evals = counts["curve_evals"]
    m = {
        "import.fouriergit_s": imports["fouriergit"],
        "import.scipy_special_s": imports["scipy.special"],
    }
    for cmd in CLI_COMMANDS:
        m[f"cli.{cmd}.s"] = per_call(f"cli.{cmd}")
    for span in ("spectrum.make_model", "spectrum.summarize",
                 "planner.make_plan", "kernel.PeriodicKernelParams.from_period",
                 "moments.exact_moments", "moments.sampled_moments",
                 "transform.exact_transform", "transform.reconstruct",
                 "transform.error_report", "serialize.read_spectrum",
                 "serialize.read_plan", "serialize.write_curves",
                 "serialize.write_table"):
        m[f"{span}.self_s"] = per_pass(span, "self_s")
        m[f"{span}.calls"] = per_pass(span, "calls")
    for key in ("moments.exact_moments.line_orders",
                "moments.sampled_moments.part_draws",
                "transform.exact_transform.grid_line_images",
                "transform.reconstruct.grid_terms"):
        m[key] = counts[key] / n_passes
    m["transform.reconstruct.chunk_bytes_computed"] = counts[
        "transform.reconstruct.chunk_bytes_computed"]
    m["moments.exact_moments.useful_ratio"] = (
        counts["moments.exact_moments.workload_calls"] / em_calls
        if em_calls else 0.0)
    m["transform.curve_evals_useful_ratio"] = (
        counts["curves_distinct"] / curve_evals if curve_evals else 0.0)
    m["trace.overhead_ratio"] = (
        statistics.median(walls) / statistics.median(plain_walls))
    info = {
        "untraced_passes": len(plain_walls),
        "traced_passes": n_passes,
        "traced_wall_s": statistics.median(walls),
        "untraced_wall_s": statistics.median(plain_walls),
        "spans": len(tracer.spans),
    }
    return m, plain_ops + ops, info


# ---------------------------------------------------------------------------
# reporting


def _declared(trace: int) -> list[dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def run_one(args) -> int:
    workdir = ROOT / ".bench_work" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir.mkdir(parents=True, exist_ok=True)
    measure = measure_layers if args.trace else measure_end_to_end
    values, ops, info = measure(args.workload, args.seed, args.seconds, workdir)

    metrics = {}
    for decl in _declared(args.trace):
        metrics[decl["name"]] = {"value": values[decl["name"]],
                                 "unit": decl["unit"]}
    failed = sum(not op.ok for op in ops)
    meta = run_metadata(args.seed)
    meta.update(workload=args.workload, seconds=args.seconds, trace=args.trace)
    for key, val in meta.items():
        print(f"meta.{key}={val}")
    for key, val in info.items():
        print(f"info.{key}={val}")
    for key, m in metrics.items():
        print(f"metric {key} = {m['value']!r} {m['unit']}")
    result = {"correct": failed == 0, "attempted": len(ops), "failed": failed,
              "metrics": metrics}
    with open(workdir / "result.json", "w") as fh:
        json.dump({"meta": meta, "info": info, **result}, fh, indent=1)
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload, untraced and traced, each in its own process."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace)]
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                  text=True, check=True)
            lines = done.stdout.splitlines()
            result = json.loads(lines[-1])
            print(f"== {name} trace={trace} attempted={result['attempted']} "
                  f"failed={result['failed']}")
            for line in lines[:-1]:
                if line.startswith(("metric ", "info.op_p90")):
                    print(f"{name}: {line}")
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for key, val in result["metrics"].items():
                combined["metrics"][f"{name}.{key}"] = val
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "fouriergit" / "__init__.py").is_file():
        print(f"perfbench: no fouriergit sources in {SRC}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    _prepare_environment()
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
