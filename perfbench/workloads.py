"""Workloads of the fouriergit benchmark.

Each workload builds its inputs from the workload seed in __init__ (this is
the set-up that setup_s charges), warms up in warmup(), and runs one fixed
list of operations per run_pass() call, one operation at a time. Every
operation is checked; a failed check marks the operation failed, it is never
dropped. All library calls go through attribute lookups on the fouriergit
package, so the tracer's wrappers see them.

Run as a script, ``python3 perfbench/workloads.py WORKLOAD SEED WORKDIR``
performs one workload's set-up and warm-up in a fresh interpreter and exits;
run.py times that to measure setup_s.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import fouriergit as fg
import fouriergit.cli

COMMAND_TIMEOUT_S = 150.0


@dataclass(frozen=True)
class Op:
    """One timed operation and whether all its checks passed."""

    name: str
    seconds: float
    ok: bool


def _lines(text: str) -> list[str]:
    return [line.strip() for line in text.splitlines()]


def _binomial_cdf(k: int, n: int, p: float) -> float:
    return sum(math.comb(n, i) * p**i * (1.0 - p) ** (n - i) for i in range(k + 1))


def coverage_consistent(within: int, n: int, target: float, alpha=1e-3) -> bool:
    """False when `within` successes of `n` reject a true coverage of at
    least `target` at one-sided level alpha."""
    return _binomial_cdf(within, n, target) >= alpha


def _report_failure(op_name: str) -> None:
    print(f"perfbench: operation {op_name} raised", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


# ---------------------------------------------------------------------------
# cli_paper


def _check_report(out: str) -> bool:
    return "all_ok=yes" in _lines(out)


def _check_reconstruct(out: str) -> bool:
    lines = _lines(out)
    return (
        "within_period_budget=true" in lines
        and "within_truncation_budget=true" in lines
    )


def _check_sweep(out: str) -> bool:
    lines = _lines(out)
    return all(f"model={m} rows=10 bound_holds=10/10" in lines for m in "AB")


_SHOTS_DEMO_DELTA = 0.05  # the shots-demo default confidence_delta


def _check_shots_demo(out: str) -> bool:
    for line in _lines(out):
        fields = dict(f.split("=", 1) for f in line.split() if "=" in f)
        if fields.get("scale") == "1":
            return float(fields["coverage"]) >= 1.0 - _SHOTS_DEMO_DELTA
    return False


def _expect(*wanted: str):
    """Check that every wanted line appears in the output."""
    return lambda out: set(wanted) <= set(_lines(out))


# n_terms of the variance plans pinned in docs/reproduction.md
_PLANNED_TERMS = {"A": 25, "B": 31}


class CliPaper:
    """The docs/reproduction.md command tour on bundled models A and B.

    With fresh_process=True every command runs as ``python -m fouriergit``
    (the end-to-end measurement); with False it calls fouriergit.cli.main
    in this process (the traced measurement of the cli layer).
    """

    def __init__(self, seed: int, workdir: Path):
        self.workdir = Path(workdir)
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.peak_rss_kb = 0
        rng = np.random.default_rng(seed)
        sample_seed = {m: int(rng.integers(0, 2**31)) for m in "AB"}
        demo_seed0 = int(rng.integers(0, 2**31))
        w = self.workdir

        def f(name: str) -> str:
            return str(w / name)

        plan_opts = [
            "--delta", "0.02", "--sigma-leak", "0.01", "--eps-p", "0.01",
            "--eps-n", "0.01", "--confidence-delta", "0.05",
            "--omega-scale", "0.00390625", "--method", "variance",
            "--window", "-1.0", "-0.8",
        ]
        cmds = [("report", ["report"], _check_report)]
        for m in "AB":
            cmds.append(
                ("model", ["model", "--kind", m, "--out", f(f"model_{m}.csv")],
                 _expect(f"kind={m}", "n_eigen=512"))
            )
        for m in "AB":
            cmds.append(
                ("plan", ["plan", *plan_opts, "--spectrum", f(f"model_{m}.csv"),
                          "--out", f(f"plan_{m}.txt")],
                 _expect("method=variance", f"n_terms={_PLANNED_TERMS[m]}"))
            )
        for m in "AB":
            cmds.append(
                ("moments", ["moments", "--spectrum", f(f"model_{m}.csv"),
                             "--plan", f(f"plan_{m}.txt"),
                             "--out", f(f"moments_{m}.csv")],
                 _expect("provenance=exact", f"n_max={_PLANNED_TERMS[m]}"))
            )
        for m in "AB":
            cmds.append(
                ("reconstruct", ["reconstruct", "--spectrum", f(f"model_{m}.csv"),
                                 "--plan", f(f"plan_{m}.txt"),
                                 "--out", f(f"curves_{m}.csv")],
                 _check_reconstruct)
            )
        for m in "AB":
            cmds.append(
                ("reconstruct_sampled",
                 ["reconstruct", "--spectrum", f(f"model_{m}.csv"),
                  "--plan", f(f"plan_{m}.txt"), "--sampled",
                  "--seed", str(sample_seed[m]), "--out", f(f"sampled_{m}.csv")],
                 _check_reconstruct)
            )
        cmds.append(
            ("sweep", ["sweep", "--models", "A,B", "--points", "10",
                       "--grid-points", "1024", "--out", f("sweep.csv")],
             _check_sweep)
        )
        cmds.append(
            ("shots-demo", ["shots-demo", "--seeds", "50",
                            "--seed0", str(demo_seed0)], _check_shots_demo)
        )
        self.commands = cmds

    def warmup(self) -> None:
        pass  # every command pays its own cold start; that is the workload

    def run_pass(self, begin_op, fresh_process: bool) -> list[Op]:
        ops = []
        for name, argv, check in self.commands:
            begin_op()
            run = self._run_fresh if fresh_process else self._run_here
            code, out, seconds = run(argv)
            ok = code == 0 and check(out)
            if not ok:
                print(f"perfbench: {' '.join(argv)} failed (exit {code}):\n{out}",
                      file=sys.stderr)
            ops.append(Op(name, seconds, ok))
        return ops

    def _run_fresh(self, argv):
        out_path = self.workdir / "stdout.txt"
        err_path = self.workdir / "stderr.txt"
        with open(out_path, "w") as out, open(err_path, "w") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, "-m", "fouriergit", *argv],
                stdout=out, stderr=err, cwd=self.workdir,
            )
            timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _pid, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            seconds = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        text = out_path.read_text()
        if proc.returncode != 0:
            text += err_path.read_text()
        return proc.returncode, text, seconds

    def _run_here(self, argv):
        buf, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
                code = fouriergit.cli.main(argv)
        except Exception:
            _report_failure(argv[0])
            code = -1
        return code, buf.getvalue() + err.getvalue(), time.perf_counter() - t0


# ---------------------------------------------------------------------------
# coverage_sweep


@dataclass(frozen=True)
class _Cell:
    spectrum: object
    summary: object
    method: str
    budget: object
    seed0: int


class CoverageSweep:
    """Models A, B x variance / central(4) plans x 6 eps targets.

    Each cell runs plan -> exact_moments -> reconstruct -> error_report, then
    SAMPLED_SEEDS sampled reconstructions at the planned shot count.
    """

    SAMPLED_SEEDS = 50
    CENTRAL_ORDER = 4

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng(seed)
        self.kernel = fg.KernelSpec.from_resolution(0.02, 0.01, 1.0)
        self.window = fg.FrequencyWindow(-1.0, -0.8)
        self.grid = np.linspace(-1.0, -0.8, 257)
        self.omega = 2.0 / 512.0
        self.cells = []
        for kind in "AB":
            spectrum = fg.make_model(kind)
            summary = fg.summarize(spectrum, orders=(2, self.CENTRAL_ORDER))
            for method in ("variance", "central"):
                for eps in np.logspace(-4.0, -1.0, 6):
                    budget = fg.ErrorBudget(
                        float(eps), float(eps), 0.05, self.omega, 0.05
                    )
                    self.cells.append(
                        _Cell(spectrum, summary, method, budget,
                              int(rng.integers(0, 2**31)))
                    )

    def warmup(self) -> None:
        cell = self.cells[-1]
        rec, plan, periodic = self._exact(cell)[1:]
        for i in range(3):
            self._sampled(cell, plan, periodic, rec, i)

    def _exact(self, cell: _Cell):
        kernel = self.kernel
        central = cell.method == "central"
        plan = fg.make_plan(
            cell.method, kernel, cell.budget, window=self.window,
            moments=cell.summary,
            central_order=self.CENTRAL_ORDER if central else None,
        )
        periodic = fg.PeriodicKernelParams.from_period(plan.period, kernel)
        moments = fg.exact_moments(cell.spectrum, periodic.dt, plan.n_terms)
        rec = fg.reconstruct(moments, kernel, periodic, plan.n_terms, self.grid)
        report = fg.error_report(
            cell.spectrum, plan, kernel, self.window, cell.budget,
            n_grid=self.grid.size, moments=moments,
        )
        ok = report.within_period_budget and report.within_truncation_budget
        return ok, rec, plan, periodic

    def _sampled(self, cell: _Cell, plan, periodic, rec, i: int) -> bool:
        moments = fg.sampled_moments(
            cell.spectrum, periodic.dt, plan.n_terms, plan.shots_per_moment,
            cell.seed0 + i,
        )
        srec = fg.reconstruct(moments, self.kernel, periodic, plan.n_terms,
                              self.grid)
        dev = self.omega * float(np.abs(srec.values - rec.values).max())
        return dev <= cell.budget.eps_s

    def run_pass(self, begin_op, fresh_process: bool) -> list[Op]:
        ops = []
        for cell in self.cells:
            begin_op()
            t0 = time.perf_counter()
            try:
                ok, rec, plan, periodic = self._exact(cell)
            except Exception:
                _report_failure("cell")
                ops.append(Op("cell", time.perf_counter() - t0, False))
                continue
            cell_index = len(ops)
            ops.append(Op("cell", time.perf_counter() - t0, ok))
            within = 0
            for i in range(self.SAMPLED_SEEDS):
                begin_op()
                t0 = time.perf_counter()
                try:
                    within += self._sampled(cell, plan, periodic, rec, i)
                    sampled_ok = True
                except Exception:
                    _report_failure("sampled")
                    sampled_ok = False
                ops.append(Op("sampled", time.perf_counter() - t0, sampled_ok))
            target = 1.0 - cell.budget.confidence_delta
            if not coverage_consistent(within, self.SAMPLED_SEEDS, target):
                print(f"perfbench: cell {cell.method} eps={cell.budget.eps_p} "
                      f"coverage {within}/{self.SAMPLED_SEEDS} below {target}",
                      file=sys.stderr)
                ops[cell_index] = Op("cell", ops[cell_index].seconds, False)
        return ops


# ---------------------------------------------------------------------------
# norm_bound


class NormBound:
    """The n_terms_norm_bound plan of `fouriergit report`, run for real.

    One pass runs the pipeline on two line sets of N_LINES lines each: the
    uniform midpoint lines, where a uniform-lines fast path may apply, and
    seeded random lines, where it must not.
    """

    N_LINES = 4096
    NORM_SCALE = 7987.5
    EXPECTED_N_TERMS = 42371

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng(seed)
        h = self.NORM_SCALE
        irregular = np.unique(rng.uniform(-h, h, self.N_LINES))
        while irregular.size < self.N_LINES:  # redraw the rare duplicates
            extra = rng.uniform(-h, h, self.N_LINES - irregular.size)
            irregular = np.unique(np.concatenate([irregular, extra]))
        self.spectra = {}
        for side, omegas in (("uniform", fg.midpoint_grid(self.N_LINES, h)),
                             ("irregular", irregular)):
            weights = rng.uniform(0.5, 1.5, self.N_LINES)
            self.spectra[side] = fg.DiscreteSpectrum(
                omegas, weights / weights.sum(), norm_scale=h)
        self.kernel = fg.KernelSpec.from_resolution(1.0, 0.01, h)
        self.budget = fg.ErrorBudget(0.01, 0.01, 0.05, 1.0, 0.05)
        self.window = fg.FrequencyWindow(0.0, 400.0)
        self.grid = np.linspace(0.0, 400.0, 1024)
        self.plan = fg.make_plan("general", self.kernel, self.budget,
                                 chi_mode="nyquist")
        self.periodic = fg.PeriodicKernelParams.from_period(self.plan.period,
                                                            self.kernel)

    def warmup(self) -> None:
        grid = self.grid[:8]
        for spectrum in self.spectra.values():
            moments = fg.exact_moments(spectrum, self.periodic.dt, 4)
            fg.reconstruct(moments, self.kernel, self.periodic, 4, grid)
            fg.exact_transform(spectrum, self.kernel.lam, grid)
            fg.exact_transform(spectrum, self.kernel.lam, grid,
                               periodic=self.periodic)

    def run_pass(self, begin_op, fresh_process: bool) -> list[Op]:
        return [self._run(side, spectrum, begin_op)
                for side, spectrum in self.spectra.items()]

    def _run(self, side: str, spectrum, begin_op) -> Op:
        begin_op()
        plan, n = self.plan, self.plan.n_terms
        t0 = time.perf_counter()
        try:
            moments = fg.exact_moments(spectrum, self.periodic.dt, n)
            rec = fg.reconstruct(moments, self.kernel, self.periodic, n,
                                 self.grid)
            report = fg.error_report(
                spectrum, plan, self.kernel, self.window, self.budget,
                n_grid=self.grid.size, moments=moments,
            )
            ok = (
                n == self.EXPECTED_N_TERMS
                and bool(np.isfinite(rec.values).all())
                and report.within_period_budget
                and report.within_truncation_budget
            )
        except Exception:
            _report_failure(f"norm_bound_{side}")
            ok = False
        seconds = time.perf_counter() - t0
        if not ok:
            print(f"perfbench: norm-bound operation on {side} lines failed "
                  f"(n_terms={n})", file=sys.stderr)
        return Op(side, seconds, ok)


WORKLOADS = {
    "cli_paper": CliPaper,
    "coverage_sweep": CoverageSweep,
    "norm_bound": NormBound,
}


if __name__ == "__main__":
    name, seed, workdir = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    WORKLOADS[name](seed, workdir).warmup()
