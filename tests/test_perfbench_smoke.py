"""One small traced pass of each benchmark workload.

The perfbench workloads and tracer are loaded from their files, as they
are, and run in process with the tracer installed: a change to a public
signature that the benchmark calls fails here before it fails every
benchmark operation.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1] / "perfbench"
SEED = 1  # the default seed of perfbench/run.py


def _load(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", BENCH_DIR / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


workloads = _load("workloads")
tracer_module = _load("tracer")


@pytest.fixture()
def tracer():
    t = tracer_module.Tracer()
    t.install()
    try:
        yield t
    finally:
        t.uninstall()


def test_workloads_pass_traced(tmp_path, tracer):
    cli = workloads.CliPaper(SEED, tmp_path / "cli")
    ops = cli.run_pass(tracer.begin_op, fresh_process=False)
    sweep = workloads.CoverageSweep(SEED, tmp_path)
    sweep.cells = sweep.cells[-1:]  # one plan cell ...
    sweep.SAMPLED_SEEDS = 1  # ... and one sampled draw
    ops += sweep.run_pass(tracer.begin_op, fresh_process=False)
    ops += workloads.NormBound(SEED, tmp_path).run_pass(
        tracer.begin_op, fresh_process=False
    )
    assert len(ops) == len(cli.commands) + 2 + 2
    assert [op for op in ops if not op.ok] == []

    totals = tracer.totals()
    for span in (
        "moments.exact_moments", "moments.sampled_moments",
        "transform.exact_transform", "transform.reconstruct",
        "transform.error_report", "planner.make_plan",
        "kernel.PeriodicKernelParams.from_period",
    ):
        assert totals.get(span, {}).get("calls", 0) > 0, span
    for count in (
        "moments.exact_moments.line_orders",
        "moments.sampled_moments.part_draws",
        "transform.exact_transform.grid_line_images",
        "transform.reconstruct.grid_terms",
        "transform.reconstruct.chunk_bytes_computed",
        "curve_evals",
    ):
        assert tracer.counts[count] > 0, count
