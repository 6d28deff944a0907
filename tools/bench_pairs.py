"""Paired benchmark runs of two checkouts, summarized in a BENCH_<label>.json.

    git archive <base-commit> | tar -x -C ../base
    python tools/bench_pairs.py --base ../base --label mychange \\
        --pairs norm_bound=10 cli_paper=3 coverage_sweep=3

Each pair runs the unchanged `perfbench/run.py --seed 1 --trace 0`, for the
run length BENCHMARK.json fixes, in the base checkout and in this one (the
head), one after the other, the side that runs first alternating from pair
to pair. Every run writes its .bench_work/<workload>-seed1-trace0/result.json
in its own checkout;
the script reads it after the run. Per workload and per end-to-end metric
of BENCHMARK.json, BENCH_<label>.json holds each side's values, median and
quartiles, the number of pairs the head won, and the change of the median
against the metric's bound; per side it holds the failed and attempted
operations and the run metadata (the `meta.` lines, openblas_threads among
them) of every run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEED = 1


def _parse(argv):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--base", type=Path, required=True, help="the base checkout")
    p.add_argument("--label", required=True, help="names BENCH_<label>.json")
    p.add_argument("--pairs", nargs="+", required=True, metavar="WORKLOAD=N")
    args = p.parse_args(argv)
    args.pairs = {w: int(n) for w, n in (item.split("=") for item in args.pairs)}
    return args, spec


def _run(checkout, workload, seconds):
    """One benchmark run in checkout; its result.json."""
    subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                    "--seed", str(SEED), "--seconds", str(seconds),
                    "--trace", "0"], cwd=checkout, check=True,
                   stdout=subprocess.DEVNULL)
    result = checkout / ".bench_work" / f"{workload}-seed{SEED}-trace0" / "result.json"
    return json.loads(result.read_text())


def _summary(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "values": values}


def _workload(workload, n_pairs, checkouts, spec):
    runs = {"base": [], "head": []}
    for i in range(n_pairs):
        order = ("base", "head") if i % 2 == 0 else ("head", "base")
        for side in order:
            runs[side].append(_run(checkouts[side], workload, spec["run_seconds"]))
            print(f"{workload} pair {i + 1}/{n_pairs}: {side} done", file=sys.stderr)
    metrics = {}
    for decl in spec["end_to_end"]:
        name, lower = decl["name"], decl["better"] == "lower"
        vals = {side: [r["metrics"][name]["value"] for r in runs[side]] for side in runs}
        wins = sum((h < b) if lower else (h > b) for b, h in zip(vals["base"], vals["head"]))
        base, head = _summary(vals["base"]), _summary(vals["head"])
        change = head["median"] / base["median"] - 1.0 if base["median"] else None
        worse = None if change is None else (change if lower else -change)
        metrics[name] = {"unit": decl["unit"], "better": decl["better"],
                         "bound": decl["bound"], "base": base, "head": head,
                         "head_wins": wins, "median_change": change,
                         "worse_than_bound": worse is not None and worse > decl["bound"]}
    return {"pairs": n_pairs, "first_side": ["base" if i % 2 == 0 else "head"
                                             for i in range(n_pairs)],
            "metrics": metrics,
            "operations": {side: {"failed": [r["failed"] for r in runs[side]],
                                  "attempted": [r["attempted"] for r in runs[side]]}
                           for side in runs},
            "meta": {side: [r["meta"] for r in runs[side]] for side in runs}}


def main(argv=None) -> int:
    args, spec = _parse(argv)
    checkouts = {"base": args.base.resolve(), "head": ROOT}
    out = {"label": args.label, "seed": SEED, "seconds": spec["run_seconds"],
           "command": "perfbench/run.py --trace 0", "workloads": {}}
    for workload, n_pairs in args.pairs.items():
        out["workloads"][workload] = _workload(workload, n_pairs, checkouts, spec)
    path = ROOT / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(out, indent=1) + "\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
