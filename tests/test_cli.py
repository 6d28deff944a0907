import math
import re
import shutil
import subprocess
import sys
import warnings

import numpy as np
import pytest

from fouriergit import (
    ErrorBudget,
    FrequencyWindow,
    KernelSpec,
    NoSavingWarning,
    PeriodicKernelParams,
    cli,
    error_report,
    planner,
    reconstruct,
    sampled_moments,
    serialize,
    transform,
)
from fouriergit.cli import main

from conftest import package_env


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def kv(text):
    out = {}
    for line in text.splitlines():
        if "=" in line:
            key, _, val = line.partition("=")
            out[key] = serialize.parse_value(val)
    return out


@pytest.fixture()
def model_a_csv(tmp_path, capsys):
    path = tmp_path / "model_a.csv"
    code, _, _ = run_cli(capsys, "model", "--kind", "A", "--out", str(path))
    assert code == 0
    return path


class TestModelCommand:
    def test_writes_spectrum_and_stats(self, tmp_path, capsys):
        out = tmp_path / "a.csv"
        code, text, _ = run_cli(capsys, "model", "--kind", "A", "--out", str(out))
        assert code == 0
        info = kv(text)
        assert info["n_eigen"] == 512
        assert info["mu1"] == pytest.approx(-0.911, abs=1e-3)
        assert info["sigma"] == pytest.approx(0.031, abs=1e-3)
        spectrum = serialize.read_spectrum(out)
        assert spectrum.n_eigen == 512
        assert abs(spectrum.weights.sum() - 1.0) < 1e-12

    def test_model_b_stats(self, tmp_path, capsys):
        out = tmp_path / "b.csv"
        code, text, _ = run_cli(capsys, "model", "--kind", "B", "--out", str(out))
        assert code == 0
        info = kv(text)
        assert info["mu1"] == pytest.approx(-0.908, abs=1e-3)
        assert info["sigma"] == pytest.approx(0.066, abs=1e-3)

    def test_deterministic_output(self, tmp_path, capsys):
        p1, p2 = tmp_path / "1.csv", tmp_path / "2.csv"
        assert run_cli(capsys, "model", "--kind", "B", "--out", str(p1))[0] == 0
        assert run_cli(capsys, "model", "--kind", "B", "--out", str(p2))[0] == 0
        assert p1.read_bytes() == p2.read_bytes()

    def test_missing_out_is_input_error(self, capsys):
        code, _, err = run_cli(capsys, "model", "--kind", "A")
        assert code == 1
        assert "out" in err

    def test_bad_kind_flag(self, capsys, tmp_path):
        code, _, _ = run_cli(
            capsys, "model", "--kind", "Z", "--out", str(tmp_path / "z.csv")
        )
        assert code == 1

    def test_io_failure_exit_code(self, capsys):
        code, _, _ = run_cli(
            capsys, "model", "--kind", "A", "--out", "/no/such/dir/a.csv"
        )
        assert code == 3


class TestPlanCommand:
    def test_general_defaults(self, capsys):
        code, text, _ = run_cli(capsys, "plan")
        assert code == 0
        plan = serialize.plan_from_text(text)
        assert plan.method == "general"
        assert plan.period == pytest.approx(2.0203661379485744, rel=1e-12)
        assert plan.n_terms == 218
        assert plan.total_shots == 113018
        assert plan.shots_per_moment == 260

    def test_plan_file_round_trip(self, tmp_path, capsys):
        out = tmp_path / "plan.txt"
        code, text, _ = run_cli(capsys, "plan", "--out", str(out))
        assert code == 0
        from_file = serialize.read_plan(out)
        from_stdout = serialize.plan_from_text(text)
        assert from_file == from_stdout

    def test_variance_from_spectrum(self, tmp_path, capsys, model_a_csv):
        out = tmp_path / "plan.txt"
        code, text, _ = run_cli(
            capsys, "plan", "--method", "variance",
            "--spectrum", str(model_a_csv),
            "--window", "-1.0", "-0.8", "--out", str(out),
        )
        assert code == 0
        plan = serialize.read_plan(out)
        assert plan.method == "variance"
        assert plan.period == pytest.approx(0.2245524730455948, rel=1e-12)
        assert plan.n_terms == 25
        # omega_scale defaults to the level spacing of the spectrum
        assert plan.inputs_echo["omega_scale"] == pytest.approx(2.0 / 512.0)

    @pytest.mark.parametrize("form", ["flag", "config"])
    @pytest.mark.parametrize(
        "key, value",
        [("mu0", "5"), ("mu1", "-0.85"), ("sigma", "0.03"),
         ("central_value", "1e-3"), ("norm_scale", "2")],
    )
    def test_moment_input_with_spectrum_refused(
        self, tmp_path, capsys, monkeypatch, model_a_csv, key, value, form
    ):
        # each used to be ignored or to override the spectrum's moment:
        # --central-value 1e-3 moved a central(4) plan from 24 to 43 terms.
        # The spectrum's `# norm_scale=` line sets the norm scale alike
        def forbidden(*args, **kwargs):
            raise AssertionError("spectrum read before the refusal")

        monkeypatch.setattr(serialize, "read_spectrum", forbidden)
        flag = "--" + key.replace("_", "-")
        if form == "flag":
            argv = [flag, value]
        else:
            cfg = tmp_path / "opts.cfg"
            cfg.write_text(f"{key}={value}\n")
            argv = ["--config", str(cfg)]
        out = tmp_path / "plan.txt"
        code, text, err = run_cli(
            capsys, "plan", "--method", "central", "--central-order", "4",
            "--spectrum", str(model_a_csv), "--window", "-1.0", "-0.8",
            *argv, "--out", str(out),
        )
        assert (code, text) == (1, "")
        sets = "its norm scale" if key == "norm_scale" else "the moments"
        assert err == (f"error: --spectrum and {flag} cannot be combined: "
                       f"the spectrum sets {sets}\n")
        assert not out.exists()

    def test_norm_scale_from_spectrum(self, tmp_path, capsys):
        # the plan takes the spectrum's `# norm_scale=`: planned with
        # norm_scale 1 (period 2.0218, 241 terms), model A at norm scale 2
        # measured eps_p = 0.109 over [-2, 2] against a budget of 0.01
        spectrum, plan = tmp_path / "a2.csv", tmp_path / "plan.txt"
        assert run_cli(capsys, "model", "--kind", "A", "--norm-scale", "2",
                       "--out", str(spectrum))[0] == 0
        code, _, _ = run_cli(capsys, "plan", "--spectrum", str(spectrum),
                             "--out", str(plan))
        assert code == 0
        planned = serialize.read_plan(plan)
        assert planned.period == pytest.approx(4.0218, abs=1e-4)
        assert planned.inputs_echo["norm_scale"] == 2.0
        code, text, _ = run_cli(
            capsys, "reconstruct", "--spectrum", str(spectrum), "--plan",
            str(plan), "--range", "-2", "2", "--out", str(tmp_path / "c.csv"),
        )
        assert code == 0
        report = kv(text)
        assert report["within_period_budget"] is True
        assert report["eps_p_measured"] <= report["eps_p_target"]

    def test_first_moment_input_named(self, capsys, model_a_csv):
        code, _, err = run_cli(
            capsys, "plan", "--method", "variance", "--spectrum",
            str(model_a_csv), "--sigma", "0.03", "--mu1", "-0.9",
            "--window", "-1.0", "-0.8",
        )
        assert code == 1
        assert err.startswith("error: --spectrum and --mu1 cannot")

    def test_variance_from_flags(self, capsys):
        code, text, _ = run_cli(
            capsys, "plan", "--method", "variance", "--mu1", "-0.91",
            "--sigma", "0.031", "--window", "-1.0", "-0.8",
        )
        assert code == 0
        plan = serialize.plan_from_text(text)
        assert plan.method == "variance"
        assert plan.period < 0.3

    def test_central_from_flags(self, capsys):
        code, text, _ = run_cli(
            capsys, "plan", "--method", "central", "--central-order", "4",
            "--central-value", "2e-6", "--mu1", "-0.91",
            "--window", "-1.0", "-0.8",
        )
        assert code == 0
        plan = serialize.plan_from_text(text)
        assert plan.method == "central4"

    def test_eps_conflict_rejected(self, capsys):
        code, _, err = run_cli(capsys, "plan", "--eps", "0.03", "--eps-p", "0.01")
        assert code == 1
        assert "eps" in err

    def test_loose_budget_formula_error(self, capsys):
        code, _, err = run_cli(capsys, "plan", "--eps-n", "0.5")
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize("argv", [
        ("plan", "--eps-s", "1e-200"),
        ("plan", "--lam", "1e-200", "--delta", "1"),
        ("plan", "--omega-scale", "1e160"),
        ("plan", "--mu0", "1e200"),
        ("plan", "--norm-scale", "1e300"),
        ("plan", "--lam", "1e-160", "--delta", "1"),
        ("plan", "--confidence-delta", "1e-320"),
        ("shots-demo", "--eps-s", "1e-200", "--seeds", "1"),
        ("plan", "--eps-n", "1e-320"),
    ])
    def test_count_past_the_float_range(self, capsys, argv):
        # these budgets used to end in a ZeroDivisionError or OverflowError
        # traceback; each is now one error line naming the shot or
        # harmonic count
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, "")
        assert re.match(r"error: the (planned total shot|harmonic) count is not a "
                        r"finite float \(", err)
        assert err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ("--eps-p", "1e-320"),
        ("--eps-p", "5e-324"),
        ("--sigma-leak", "1e-320"),
        ("--sigma-leak", "5e-324"),
        ("--chi-mode", "full", "--window", "-1", "-0.8", "--eps-p", "1e-320"),
        ("--method", "variance", "--mu1", "-0.9", "--sigma", "0.03",
         "--window", "-1", "-0.8", "--eps-p", "1e-320"),
        ("--method", "variance", "--mu1", "-0.9", "--sigma", "0.03",
         "--window", "-1", "-0.8", "--eps-p", "1e-320", "--simplified"),
        ("--method", "central", "--mu1", "-0.9", "--central-order", "4",
         "--central-value", "1e-6", "--window", "-1", "-0.8", "--eps-p", "1e-320"),
        ("--method", "central", "--mu1", "-0.9", "--central-order", "4",
         "--central-value", "1e-6", "--window", "-1", "-0.8", "--eps-p", "1e-320",
         "--simplified"),
    ])
    def test_subnormal_budget_plans(self, capsys, argv):
        # eps_p lam used to underflow, 1 / sigma_leak and the power forms
        # (X / eps_p) ** p to overflow: "error: period must be positive and
        # finite, got inf" and "error: lam must be positive and finite, got
        # 0.0", or a ZeroDivisionError traceback at eps_p = 5e-324
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NoSavingWarning)
            code, text, err = run_cli(capsys, "plan", *argv)
        assert (code, err) == (0, "")
        fields = kv(text)
        assert 0.0 < float(fields["period"]) < math.inf
        assert 0.0 < float(fields["lam"]) < math.inf

    def test_simplified_validity_error(self, capsys):
        code, _, _ = run_cli(
            capsys, "plan", "--method", "variance", "--mu1", "-0.9",
            "--sigma", "0.003", "--window", "-1.0", "-0.8", "--simplified",
        )
        assert code == 2

    def test_variance_without_window(self, capsys):
        code, _, err = run_cli(
            capsys, "plan", "--method", "variance", "--mu1", "-0.9",
            "--sigma", "0.03",
        )
        assert code == 1
        assert err == "error: --window is required\n"

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (("variance",), "--sigma"),
            (("variance", "--sigma", "0.03"), "--mu1"),
            (("central",), "--central-order"),
            (("central", "--central-order", "4"), "--mu1"),
            (("central", "--central-order", "4", "--mu1", "-0.9"),
             "--central-value"),
            (("central", "--central-order", "4", "--mu1", "-0.9",
              "--sigma", "0.03"), "--central-value"),
            (("central", "--spectrum", "SPECTRUM"), "--central-order"),
        ],
    )
    def test_missing_moment_flag_named(
        self, capsys, monkeypatch, model_a_csv, argv, flag
    ):
        # these used to end in "variance planning requires moments and a
        # window" or "central planning requires central_order, central_value
        # and mu1", naming no flag; none reads the spectrum
        def forbidden(*args, **kwargs):
            raise AssertionError("spectrum read before the refusal")

        monkeypatch.setattr(serialize, "read_spectrum", forbidden)
        argv = [str(model_a_csv) if a == "SPECTRUM" else a for a in argv]
        code, text, err = run_cli(
            capsys, "plan", "--window", "-1.0", "-0.8", "--method", *argv
        )
        assert (code, text, err) == (1, "", f"error: {flag} is required\n")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("--method", "general", "--sigma", "0.03", "--central-value",
              "1e-3", "--mu1", "0.5"), "--method general does not read --mu1"),
            (("--method", "variance", "--mu1", "-0.9", "--sigma", "0.03",
              "--central-value", "5"),
             "--method variance does not read --central-value"),
            (("--method", "variance", "--mu1", "-0.9", "--sigma", "0.03",
              "--central-order", "4"),
             "--method variance does not read --central-order"),
            (("--method", "variance", "--spectrum", "SPECTRUM",
              "--central-order", "4"),
             "--method variance does not read --central-order"),
            (("--method", "central", "--central-order", "4", "--mu1", "-0.9",
              "--central-value", "1e-6", "--sigma", "0.03"),
             "--method central does not read --sigma"),
            (("--method", "general", "--config", "mu1=0.5"),
             "--method general does not read --mu1"),
        ],
    )
    def test_unread_moment_flag_refused(
        self, tmp_path, capsys, monkeypatch, model_a_csv, argv, message
    ):
        # the first two used to exit 0, the value dropped
        self._assert_refused_unread(tmp_path, capsys, monkeypatch, model_a_csv,
                                    argv, message)

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("--method", "variance", "--spectrum", "SPECTRUM",
              "--chi-mode", "full"),
             "--method variance does not read --chi-mode"),
            (("--method", "central", "--central-order", "4", "--mu1", "-0.9",
              "--central-value", "1e-6", "--chi-mode", "main"),
             "--method central does not read --chi-mode"),
            (("--method", "general", "--window-term", "min"),
             "--method general does not read --window-term"),
            (("--method", "general", "--simplified"),
             "--method general does not read --simplified"),
            (("--method", "variance", "--mu1", "-0.9", "--sigma", "0.03",
              "--simplified", "--window-term", "min"),
             "--simplified does not read --window-term"),
            (("--method", "variance", "--spectrum", "SPECTRUM",
              "--config", "chi_mode=main"),
             "--method variance does not read --chi-mode"),
            (("--method", "general", "--config", "window_term=max"),
             "--method general does not read --window-term"),
            (("--method", "general", "--config", "simplified=false"),
             "--method general does not read --simplified"),
            (("--method", "central", "--spectrum", "SPECTRUM",
              "--central-order", "4", "--simplified", "--config",
              "window_term=max"),
             "--simplified does not read --window-term"),
        ],
    )
    def test_unread_mode_flag_refused(
        self, tmp_path, capsys, monkeypatch, model_a_csv, argv, message
    ):
        # each used to print the plan of the same command without the flag,
        # and --simplified --window-term min echoed window_term_mode=span
        self._assert_refused_unread(tmp_path, capsys, monkeypatch, model_a_csv,
                                    argv, message)

    @staticmethod
    def _assert_refused_unread(tmp_path, capsys, monkeypatch, model_a_csv,
                               argv, message):
        def forbidden(*args, **kwargs):
            raise AssertionError("spectrum read before the refusal")

        monkeypatch.setattr(serialize, "read_spectrum", forbidden)
        argv = [str(model_a_csv) if a == "SPECTRUM" else a for a in argv]
        if "--config" in argv:
            i = argv.index("--config")
            cfg = tmp_path / "opts.cfg"
            cfg.write_text(argv[i + 1] + "\n")
            argv[i + 1] = str(cfg)
        code, text, err = run_cli(
            capsys, "plan", "--window", "-1.0", "-0.8", *argv
        )
        assert (code, text, err) == (1, "", f"error: {message}\n")

    def test_missing_spectrum_file(self, capsys):
        code, _, _ = run_cli(
            capsys, "plan", "--method", "variance",
            "--spectrum", "/no/such/spectrum.csv", "--window", "-1", "-0.8",
        )
        assert code == 3

    @pytest.mark.parametrize("row", ["0.5", "0.5,0.1,7"])
    def test_spectrum_row_width_checked(self, capsys, model_a_csv, row):
        lines = model_a_csv.read_text().splitlines() + [row]
        model_a_csv.write_text("\n".join(lines) + "\n")
        code, _, err = run_cli(capsys, "plan", "--spectrum", str(model_a_csv))
        assert code == 1
        assert err.startswith(f"error: {model_a_csv}:{len(lines)}: expected 2 cells")

    def test_spectrum_cell_checked(self, capsys, model_a_csv):
        lines = model_a_csv.read_text().splitlines() + ["0.5,abc"]
        model_a_csv.write_text("\n".join(lines) + "\n")
        code, _, err = run_cli(capsys, "plan", "--spectrum", str(model_a_csv))
        assert code == 1
        assert err.startswith(f"error: {model_a_csv}:{len(lines)}: ")
        assert "'abc'" in err

    @pytest.mark.parametrize(
        "line", ["# norm_scale=abc", "# norm_scale=", "# norm_scale=true"]
    )
    def test_spectrum_metadata_checked(self, capsys, model_a_csv, line):
        lines = model_a_csv.read_text().splitlines()
        assert lines[0].startswith("# norm_scale=")
        model_a_csv.write_text("\n".join([line, *lines[1:]]) + "\n")
        code, _, err = run_cli(capsys, "plan", "--spectrum", str(model_a_csv))
        assert code == 1
        assert err.startswith(f"error: {model_a_csv}: metadata norm_scale=")
        assert "not a number" in err

    @pytest.mark.parametrize("value", ["inf", "nan", "-inf"])
    @pytest.mark.parametrize("command", ["plan", "moments"])
    def test_spectrum_norm_scale_must_be_finite(
        self, tmp_path, capsys, model_a_csv, command, value
    ):
        # `moments` used to read `# norm_scale=inf` and exit 0
        lines = model_a_csv.read_text().splitlines()
        assert lines[0].startswith("# norm_scale=")
        model_a_csv.write_text("\n".join([f"# norm_scale={value}", *lines[1:]]) + "\n")
        plan = tmp_path / "plan.txt"
        code, _, _ = run_cli(capsys, "plan", "--out", str(plan))
        assert code == 0
        argv = ["--spectrum", str(model_a_csv)]
        if command == "moments":
            argv += ["--plan", str(plan), "--out", str(tmp_path / "m.csv")]
        code, out, err = run_cli(capsys, command, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith(
            f"error: {model_a_csv}: norm_scale must be positive and finite"
        )
        assert not (tmp_path / "m.csv").exists()

    def test_unknown_flag(self, capsys):
        code, _, _ = run_cli(capsys, "plan", "--bogus", "1")
        assert code == 1

    def test_explicit_lam(self, capsys):
        # the default delta 0.02 and sigma_leak 0.01 admit lam up to 0.00659
        code, text, _ = run_cli(capsys, "plan", "--lam", "0.005")
        assert code == 0 and kv(text)["lam"] == 0.005
        code, text, err = run_cli(capsys, "plan", "--lam", "0.007")
        assert (code, text) == (1, "")
        assert err.startswith("error: lam=0.007 leaks more than sigma_leak=0.01")

    def test_nyquist_chi_mode(self, capsys):
        code, text, _ = run_cli(capsys, "plan", "--chi-mode", "nyquist")
        assert code == 0
        plan = serialize.plan_from_text(text)
        assert plan.chi == 2.0


class TestMomentsCommand:
    def test_exact_with_plan(self, tmp_path, capsys, model_a_csv):
        plan_path = tmp_path / "plan.txt"
        run_cli(
            capsys, "plan", "--method", "variance", "--spectrum",
            str(model_a_csv), "--window", "-1.0", "-0.8",
            "--out", str(plan_path),
        )
        out = tmp_path / "m.csv"
        code, text, _ = run_cli(
            capsys, "moments", "--spectrum", str(model_a_csv),
            "--plan", str(plan_path), "--out", str(out),
        )
        assert code == 0
        info = kv(text)
        assert info["provenance"] == "exact"
        assert info["n_max"] == 25
        mset = serialize.read_moments(out)
        plan = serialize.read_plan(plan_path)
        assert mset.dt == pytest.approx(plan.dt, rel=1e-15)

    def test_exact_with_period(self, tmp_path, capsys, model_a_csv):
        out = tmp_path / "m.csv"
        code, text, _ = run_cli(
            capsys, "moments", "--spectrum", str(model_a_csv),
            "--period", "0.3", "--n-max", "12", "--out", str(out),
        )
        assert code == 0
        mset = serialize.read_moments(out)
        assert mset.n_max == 12
        assert mset.values[0] == pytest.approx(1.0, abs=1e-12)

    def test_period_requires_n_max(self, tmp_path, capsys, model_a_csv):
        code, _, err = run_cli(
            capsys, "moments", "--spectrum", str(model_a_csv),
            "--period", "0.3", "--out", str(tmp_path / "m.csv"),
        )
        assert code == 1
        assert "n-max" in err

    def test_sampled_deterministic(self, tmp_path, capsys, model_a_csv):
        args = (
            "moments", "--spectrum", str(model_a_csv), "--period", "0.3",
            "--n-max", "8", "--shots", "100", "--seed", "7",
        )
        p1, p2 = tmp_path / "m1.csv", tmp_path / "m2.csv"
        assert run_cli(capsys, *args, "--out", str(p1))[0] == 0
        assert run_cli(capsys, *args, "--out", str(p2))[0] == 0
        assert p1.read_bytes() == p2.read_bytes()
        mset = serialize.read_moments(p1)
        assert mset.provenance == "sampled"
        assert mset.shots_per_part == 100
        assert mset.seed == 7

    def test_moments_cell_checked(self, tmp_path, capsys, model_a_csv):
        out = tmp_path / "m.csv"
        code, _, _ = run_cli(
            capsys, "moments", "--spectrum", str(model_a_csv),
            "--period", "0.3", "--n-max", "4", "--out", str(out),
        )
        assert code == 0
        lines = out.read_text().splitlines()
        lines[-2] = "3,0.5,abc"
        out.write_text("\n".join(lines) + "\n")
        with pytest.raises(
            ValueError, match=f"^{re.escape(str(out))}:{len(lines) - 1}: .*'abc'"
        ):
            serialize.read_moments(out)

    def test_plan_and_period_refused(self, tmp_path, capsys, model_a_csv):
        plan_path = tmp_path / "plan.txt"
        assert run_cli(capsys, "plan", "--out", str(plan_path))[0] == 0
        out = tmp_path / "m.csv"
        code, text, err = run_cli(
            capsys, "moments", "--spectrum", str(model_a_csv),
            "--plan", str(plan_path), "--period", "0.3", "--out", str(out),
        )
        assert code == 1
        assert text == ""
        assert err.startswith("error: ")
        assert "--plan" in err and "--period" in err
        assert not out.exists()

    def test_requires_plan_or_period(self, tmp_path, capsys, model_a_csv):
        code, _, _ = run_cli(
            capsys, "moments", "--spectrum", str(model_a_csv),
            "--out", str(tmp_path / "m.csv"),
        )
        assert code == 1


class TestReconstructCommand:
    @pytest.fixture()
    def plan_path(self, tmp_path, capsys, model_a_csv):
        path = tmp_path / "plan.txt"
        code, _, _ = run_cli(
            capsys, "plan", "--method", "variance", "--spectrum",
            str(model_a_csv), "--window", "-1.0", "-0.8", "--out", str(path),
        )
        assert code == 0
        return path

    @staticmethod
    def _plan_and_kernel(plan_path):
        plan = serialize.read_plan(plan_path)
        echo = plan.inputs_echo
        kernel = KernelSpec(
            echo["delta"], echo["sigma_leak"], echo["lam"], echo["norm_scale"]
        )
        return plan, kernel

    def test_report_equals_error_report(
        self, tmp_path, capsys, model_a_csv, plan_path
    ):
        report_out = tmp_path / "report.txt"
        code, _, _ = run_cli(
            capsys, "reconstruct", "--spectrum", str(model_a_csv),
            "--plan", str(plan_path), "--grid-points", "129",
            "--out", str(tmp_path / "c.csv"), "--report-out", str(report_out),
        )
        assert code == 0
        plan, kernel = self._plan_and_kernel(plan_path)
        echo = plan.inputs_echo
        budget = ErrorBudget(
            echo["eps_p"], echo["eps_n"], echo["eps_s"], echo["omega_scale"],
            echo["confidence_delta"],
        )
        want = error_report(
            serialize.read_spectrum(model_a_csv), plan, kernel,
            FrequencyWindow(-1.0, -0.8), budget, n_grid=129,
        )
        saved = serialize.read_keyvalues(report_out)
        fields = [f for f in vars(want) if f != "n_grid"]
        assert list(saved) == fields
        for field in fields:
            assert saved[field] == getattr(want, field), field

    @classmethod
    def _sampled_curve(cls, model_a_csv, plan_path, shots, seed, clamp=False):
        """The documented library path: sampled_moments, then reconstruct,
        on the 65-point grid of the plan's window."""
        plan, kernel = cls._plan_and_kernel(plan_path)
        periodic = PeriodicKernelParams.from_period(plan.period, kernel)
        moments = sampled_moments(
            serialize.read_spectrum(model_a_csv), periodic.dt, plan.n_terms,
            plan.shots_per_moment if shots is None else shots, seed,
            clamp=clamp,
        )
        return reconstruct(moments, kernel, periodic, plan.n_terms,
                           np.linspace(-1.0, -0.8, 65))

    # at 5 shots the clamp changes some moments of this plan, at 50 none
    @pytest.mark.parametrize("shots", [50, 5])
    def test_sampled_curve_equals_sampled_reconstruction(
        self, tmp_path, capsys, model_a_csv, plan_path, shots
    ):
        out = tmp_path / "curves.csv"
        code, _, _ = run_cli(
            capsys, "reconstruct", "--spectrum", str(model_a_csv),
            "--plan", str(plan_path), "--grid-points", "65", "--sampled",
            "--clamp", "--seed", "7", "--shots", str(shots), "--out", str(out),
        )
        assert code == 0
        curves, _ = serialize.read_curves(out)
        assert curves[-1].kind == "sampled_reconstructed"
        want = self._sampled_curve(model_a_csv, plan_path, shots, 7, clamp=True)
        assert np.array_equal(curves[-1].values, want.values)

    # --shots alone samples, as it does for moments; --sampled alone takes
    # the plan's shots_per_moment; either way the echo records sampled=true
    @pytest.mark.parametrize(
        "argv, shots", [(("--shots", "50"), 50), (("--sampled",), None)]
    )
    def test_sampling_rule(
        self, tmp_path, capsys, model_a_csv, plan_path, argv, shots
    ):
        out = tmp_path / "curves.csv"
        code, text, _ = run_cli(
            capsys, "reconstruct", "--spectrum", str(model_a_csv),
            "--plan", str(plan_path), "--grid-points", "65", *argv,
            "--seed", "3", "--out", str(out),
        )
        assert code == 0
        curves, meta = serialize.read_curves(out)
        assert [c.kind for c in curves][-1] == "sampled_reconstructed"
        want = self._sampled_curve(model_a_csv, plan_path, shots, 3)
        assert np.array_equal(curves[-1].values, want.values)
        assert meta["sampled"] is True
        assert kv(text)["shots_per_moment"] == (shots or 260)

    def test_sampled_computes_exact_moments_once(
        self, tmp_path, capsys, model_a_csv, plan_path, moment_sums
    ):
        code, _, _ = run_cli(
            capsys, "reconstruct", "--spectrum", str(model_a_csv),
            "--plan", str(plan_path), "--grid-points", "33", "--sampled",
            "--out", str(tmp_path / "c.csv"),
        )
        assert code == 0
        assert len(moment_sums) == 1

    def test_curves_cell_checked(self, tmp_path, capsys, model_a_csv, plan_path):
        out = tmp_path / "curves.csv"
        code, _, _ = run_cli(
            capsys, "reconstruct", "--spectrum", str(model_a_csv),
            "--plan", str(plan_path), "--grid-points", "5", "--out", str(out),
        )
        assert code == 0
        lines = out.read_text().splitlines()
        lineno = len(lines) - 1
        lines[lineno - 1] = "-0.9,,reconstructed"
        out.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(out))}:{lineno}: "):
            serialize.read_curves(out)

    def test_curves_kind_refusal_names_the_file(self, tmp_path, capsys,
                                                 model_a_csv, plan_path):
        # a row whose kind TransformCurve refuses names the file, as
        # read_spectrum and read_plan do
        out = tmp_path / "curves.csv"
        code, _, _ = run_cli(
            capsys, "reconstruct", "--spectrum", str(model_a_csv),
            "--plan", str(plan_path), "--grid-points", "5", "--out", str(out),
        )
        assert code == 0
        lines = out.read_text().splitlines()
        lines[-1] = lines[-1].rsplit(",", 1)[0] + ",bogus"
        out.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError,
                           match=f"^{re.escape(str(out))}: kind must be one of "):
            serialize.read_curves(out)

    def test_curves_and_report(self, tmp_path, capsys, model_a_csv, plan_path):
        out = tmp_path / "curves.csv"
        report_out = tmp_path / "report.txt"
        code, text, _ = run_cli(
            capsys, "reconstruct", "--spectrum", str(model_a_csv),
            "--plan", str(plan_path), "--grid-points", "129",
            "--out", str(out), "--report-out", str(report_out),
        )
        assert code == 0
        info = kv(text)
        assert info["within_period_budget"] is True
        assert info["within_truncation_budget"] is True
        assert info["eps_p_measured"] < 0.01
        assert info["eps_n_measured"] < 0.01
        curves, meta = serialize.read_curves(out)
        kinds = [c.kind for c in curves]
        assert kinds == ["exact_gaussian", "exact_periodic", "reconstructed"]
        assert all(c.grid.size == 129 for c in curves)
        assert meta["method"] == "variance"
        assert meta["n_terms"] == 25
        assert meta["backend"] == "numpy"
        saved = serialize.read_keyvalues(report_out)
        assert saved["eps_p_measured"] == pytest.approx(
            info["eps_p_measured"], rel=1e-15
        )

    def test_malformed_plan_line(self, tmp_path, capsys, model_a_csv, plan_path):
        lines = plan_path.read_text().splitlines()
        lines.insert(2, "period 0.5")
        plan_path.write_text("\n".join(lines) + "\n")
        code, _, err = run_cli(
            capsys, "reconstruct", "--spectrum", str(model_a_csv),
            "--plan", str(plan_path), "--out", str(tmp_path / "c.csv"),
        )
        assert code == 1
        assert f"{plan_path}:3:" in err
        assert "'period 0.5'" in err

    def test_reconstruction_tracks_exact_curve(
        self, tmp_path, capsys, model_a_csv, plan_path
    ):
        out = tmp_path / "curves.csv"
        run_cli(
            capsys, "reconstruct", "--spectrum", str(model_a_csv),
            "--plan", str(plan_path), "--grid-points", "257", "--out", str(out),
        )
        curves, _ = serialize.read_curves(out)
        by_kind = {c.kind: c for c in curves}
        gap = np.abs(
            by_kind["reconstructed"].values - by_kind["exact_gaussian"].values
        ).max()
        assert gap * (2.0 / 512.0) < 0.02  # inside eps_p + eps_n

    def test_sampled_adds_curve_and_lines(
        self, tmp_path, capsys, model_a_csv, plan_path
    ):
        out = tmp_path / "curves.csv"
        code, text, _ = run_cli(
            capsys, "reconstruct", "--spectrum", str(model_a_csv),
            "--plan", str(plan_path), "--grid-points", "65", "--sampled",
            "--seed", "3", "--out", str(out),
        )
        assert code == 0
        info = kv(text)
        assert "eps_s_measured" in info
        assert info["shots_per_moment"] == 260
        assert info["seed"] == 3
        curves, _ = serialize.read_curves(out)
        assert [c.kind for c in curves][-1] == "sampled_reconstructed"

    def test_range_override(self, tmp_path, capsys, model_a_csv, plan_path):
        out = tmp_path / "curves.csv"
        code, _, _ = run_cli(
            capsys, "reconstruct", "--spectrum", str(model_a_csv),
            "--plan", str(plan_path), "--grid-points", "33",
            "--range", "-0.98", "-0.9", "--out", str(out),
        )
        assert code == 0
        curves, _ = serialize.read_curves(out)
        assert curves[0].grid[0] == pytest.approx(-0.98)
        assert curves[0].grid[-1] == pytest.approx(-0.9)

    @pytest.mark.parametrize("points", ["-1", "0", "1"])
    def test_degenerate_grid_refused_before_work(
        self, tmp_path, capsys, monkeypatch, model_a_csv, plan_path, points
    ):
        def forbidden(*args, **kwargs):
            raise AssertionError("exact_transform called")

        monkeypatch.setattr(transform, "exact_transform", forbidden)
        code, _, err = run_cli(
            capsys, "reconstruct", "--spectrum", str(model_a_csv),
            "--plan", str(plan_path), "--grid-points", points,
            "--out", str(tmp_path / "c.csv"),
        )
        assert code == 1
        assert "--grid-points" in err

    def test_plan_without_kernel_field(
        self, tmp_path, capsys, model_a_csv, plan_path
    ):
        lines = plan_path.read_text().splitlines()
        plan_path.write_text(
            "\n".join(x for x in lines if not x.startswith("lam=")) + "\n"
        )
        code, _, err = run_cli(
            capsys, "reconstruct", "--spectrum", str(model_a_csv),
            "--plan", str(plan_path), "--out", str(tmp_path / "c.csv"),
        )
        assert code == 1
        assert "'lam'" in err

    def test_plan_without_budget_field(
        self, tmp_path, capsys, model_a_csv, plan_path
    ):
        lines = plan_path.read_text().splitlines()
        plan_path.write_text(
            "\n".join(x for x in lines if not x.startswith("eps_p=")) + "\n"
        )
        code, _, err = run_cli(
            capsys, "reconstruct", "--spectrum", str(model_a_csv),
            "--plan", str(plan_path), "--out", str(tmp_path / "c.csv"),
        )
        assert code == 1
        assert "'eps_p'" in err

    @pytest.mark.parametrize(
        "key, value",
        [("period", "abc"), ("chi", "abc"), ("n_terms", "2.5"),
         ("shots_per_moment", "2.5"), ("lam", "x"), ("eps_p", "abc"),
         ("nu_max", "abc")],
    )
    def test_non_numeric_plan_field(
        self, tmp_path, capsys, model_a_csv, plan_path, key, value
    ):
        lines = [
            f"{key}={value}" if x.startswith(f"{key}=") else x
            for x in plan_path.read_text().splitlines()
        ]
        plan_path.write_text("\n".join(lines) + "\n")
        code, _, err = run_cli(
            capsys, "reconstruct", "--spectrum", str(model_a_csv),
            "--plan", str(plan_path), "--out", str(tmp_path / "c.csv"),
        )
        assert code == 1
        assert err.startswith("error: ")
        assert key in err and "must be a" in err

    @pytest.mark.parametrize("form", ["flag", "config"])
    @pytest.mark.parametrize("bounds", [("-1", "inf"), ("nan", "-0.8"),
                                        ("inf", "inf")])
    def test_non_finite_range_refused(
        self, tmp_path, capsys, monkeypatch, model_a_csv, plan_path, form,
        bounds,
    ):
        # --range -1 inf used to write 2 049 nan cells and exit 0
        def forbidden(*args, **kwargs):
            raise AssertionError("spectrum read")

        monkeypatch.setattr(serialize, "read_spectrum", forbidden)
        if form == "flag":
            argv = ["--range", *bounds]
        else:
            cfg = tmp_path / "opts.cfg"
            cfg.write_text(f"range={' '.join(bounds)}\n")
            argv = ["--config", str(cfg)]
        out = tmp_path / "c.csv"
        code, text, err = run_cli(
            capsys, "reconstruct", "--spectrum", str(model_a_csv),
            "--plan", str(plan_path), *argv, "--out", str(out),
        )
        assert code == 1
        assert text == ""
        bad = next(float(b) for b in bounds if not math.isfinite(float(b)))
        assert err == f"error: --range must be finite, got {bad}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "key, value, message",
        [("chi", "-4", "chi must be positive and finite, got -4"),
         ("period", "inf", "period must be positive and finite, got inf"),
         ("period", "0", "period must be positive and finite, got 0"),
         ("n_terms", "2.5", "n_terms must be an integer, got 2.5"),
         ("n_terms", "0", "n_terms must be >= 1, got 0"),
         ("shots_per_moment", "0", "shots_per_moment must be >= 1, got 0")],
    )
    def test_plan_field_outside_domain_names_file(
        self, tmp_path, capsys, model_a_csv, plan_path, key, value, message
    ):
        # chi=-4 used to be accepted, and period=inf or n_terms=2.5 were
        # refused only later, without the file name
        lines = [
            f"{key}={value}" if x.startswith(f"{key}=") else x
            for x in plan_path.read_text().splitlines()
        ]
        plan_path.write_text("\n".join(lines) + "\n")
        out = tmp_path / "c.csv"
        code, text, err = run_cli(
            capsys, "reconstruct", "--spectrum", str(model_a_csv),
            "--plan", str(plan_path), "--out", str(out),
        )
        assert code == 1
        assert text == ""
        assert err == f"error: {plan_path}: {message}\n"
        assert not out.exists()
        with pytest.raises(ValueError, match=f"^{re.escape(str(plan_path))}: "):
            serialize.read_plan(plan_path)

    @pytest.mark.parametrize(
        "key", ["method", "period", "chi", "n_terms", "shots_per_moment",
                "total_shots"],
    )
    def test_plan_without_core_key_names_file_and_key(
        self, tmp_path, capsys, model_a_csv, plan_path, key
    ):
        # a plan without period= used to exit 1 with only "error: 'period'"
        lines = [x for x in plan_path.read_text().splitlines()
                 if not x.startswith(f"{key}=")]
        plan_path.write_text("\n".join(lines) + "\n")
        out = tmp_path / "c.csv"
        code, text, err = run_cli(
            capsys, "reconstruct", "--spectrum", str(model_a_csv),
            "--plan", str(plan_path), "--out", str(out),
        )
        assert (code, text) == (1, "")
        assert err == f"error: {plan_path}: plan lacks key {key!r}\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["reconstruct", "moments"])
    @pytest.mark.parametrize(
        "key, value, message",
        [("lam", "-1", "lam must be positive and finite, got -1"),
         ("delta", "inf", "delta must be positive and finite, got inf"),
         ("eps_s", "0", "eps_s must be positive and finite, got 0"),
         ("confidence_delta", "1", "confidence_delta must be in (0, 1), got 1"),
         ("nu_min", "nan", "nu_min must be finite, got nan"),
         ("nu_min", "0", "nu_min=0 must not exceed nu_max=-0.8"),
         ("sigma_leak", None, "plan lacks kernel field 'sigma_leak'")],
    )
    def test_plan_echo_field_outside_domain_names_file(
        self, tmp_path, capsys, model_a_csv, plan_path, command, key, value,
        message,
    ):
        # lam=-1 used to be refused without the file name, and only by the
        # commands that rebuild the plan's kernel
        lines = [
            f"{key}={value}" if x.startswith(f"{key}=") else x
            for x in plan_path.read_text().splitlines()
            if value is not None or not x.startswith(f"{key}=")
        ]
        plan_path.write_text("\n".join(lines) + "\n")
        out = tmp_path / "c.csv"
        code, text, err = run_cli(
            capsys, command, "--spectrum", str(model_a_csv),
            "--plan", str(plan_path), "--out", str(out),
        )
        assert (code, text) == (1, "")
        assert err == f"error: {plan_path}: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("key", ["n_terms", "shots_per_moment", "total_shots"])
    def test_integral_plan_count_accepted(
        self, tmp_path, capsys, model_a_csv, plan_path, key
    ):
        # a count written as 25.0 is the integer it equals
        plan = serialize.read_plan(plan_path)
        lines = [
            f"{key}={getattr(plan, key)}.0" if x.startswith(f"{key}=") else x
            for x in plan_path.read_text().splitlines()
        ]
        plan_path.write_text("\n".join(lines) + "\n")
        again = serialize.read_plan(plan_path)
        assert getattr(again, key) == getattr(plan, key)
        assert type(getattr(again, key)) is int
        code, _, _ = run_cli(
            capsys, "reconstruct", "--spectrum", str(model_a_csv),
            "--plan", str(plan_path), "--grid-points", "17",
            "--out", str(tmp_path / "c.csv"),
        )
        assert code == 0

    def test_plan_without_window_needs_range(
        self, tmp_path, capsys, model_a_csv
    ):
        plan_path = tmp_path / "gplan.txt"
        run_cli(capsys, "plan", "--out", str(plan_path))
        code, _, err = run_cli(
            capsys, "reconstruct", "--spectrum", str(model_a_csv),
            "--plan", str(plan_path), "--grid-points", "17",
            "--out", str(tmp_path / "c.csv"),
        )
        assert code == 1
        assert "range" in err


class TestSweepCommand:
    def test_bound_dominates_measurement(self, tmp_path, capsys, model_a_csv):
        out = tmp_path / "sweep.csv"
        code, text, _ = run_cli(
            capsys, "sweep", "--models", "A", "--points", "4",
            "--grid-points", "128", "--out", str(out),
        )
        assert code == 0
        assert "bound_holds=4/4" in text
        header, rows, meta = serialize._read_csv_with_metadata(out)
        assert header == [
            "model", "eps_p_target", "period", "chi", "n_terms",
            "eps_p_measured", "bound",
        ]
        assert len(rows) == 4
        for row in rows:
            assert float(row[6]) >= float(row[5])
        # tighter targets require longer periods
        periods = [float(r[2]) for r in rows]
        assert periods == sorted(periods, reverse=True)

    def test_two_models(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code, text, _ = run_cli(
            capsys, "sweep", "--points", "2", "--grid-points", "64",
            "--out", str(out),
        )
        assert code == 0
        header, rows, _ = serialize._read_csv_with_metadata(out)
        assert {r[0] for r in rows} == {"A", "B"}

    def test_requires_out(self, capsys):
        code, _, _ = run_cli(capsys, "sweep", "--points", "2")
        assert code == 1

    def test_kernel_narrower_than_float64_refused(self, tmp_path, capsys):
        # --delta 1e-300 gives lam = 3.3e-301, whose plain transform ended
        # in a ZeroDivisionError traceback before any plan
        out = tmp_path / "sweep.csv"
        code, text, err = run_cli(capsys, "sweep", "--delta", "1e-300", "--points", "1",
                                  "--grid-points", "2", "--out", str(out))
        assert (code, text) == (1, "")
        assert re.fullmatch(r"error: lam=\S+ is too small: -1/\(2 lam\^2\) is -inf\n", err)
        assert not out.exists()

    def test_empty_model_list_refused(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code, text, err = run_cli(capsys, "sweep", "--models", ",", "--out", str(out))
        assert (code, text, err) == (
            1, "", "error: --models must name at least one model\n")
        assert not out.exists()


class TestShotsDemoCommand:
    def test_full_shots_cover_budget(self, tmp_path, capsys):
        out = tmp_path / "demo.csv"
        code, text, _ = run_cli(
            capsys, "shots-demo", "--model", "A", "--seeds", "8",
            "--scales", "1.0", "--grid-points", "33", "--out", str(out),
        )
        assert code == 0
        header, rows, meta = serialize._read_csv_with_metadata(out)
        assert header == ["scale", "shots_per_part", "n_seeds", "n_within",
                          "coverage"]
        assert len(rows) == 1
        assert float(rows[0][4]) == 1.0  # all seeds within eps_s
        assert int(rows[0][1]) == 260

    def test_computes_exact_moments_once(self, capsys, moment_sums):
        code, _, _ = run_cli(
            capsys, "shots-demo", "--seeds", "4", "--scales", "1.0", "0.5",
            "--grid-points", "33",
        )
        assert code == 0
        assert len(moment_sums) == 1

    def test_starved_shots_fail_more(self, tmp_path, capsys):
        out = tmp_path / "demo.csv"
        code, text, _ = run_cli(
            capsys, "shots-demo", "--model", "A", "--seeds", "6",
            "--scales", "1.0", "0.002", "--grid-points", "33",
            "--out", str(out),
        )
        assert code == 0
        _, rows, _ = serialize._read_csv_with_metadata(out)
        assert float(rows[0][4]) >= float(rows[1][4])
        assert int(rows[1][1]) == 1  # 260 x 0.002 = 0.52 rounds up


class TestCountValidation:
    @pytest.mark.parametrize(
        "argv, flag",
        [
            (("sweep", "--models", "A", "--points", "2", "--grid-points", "1"),
             "--grid-points"),
            (("sweep", "--models", "A", "--points", "2", "--grid-points", "-1"),
             "--grid-points"),
            (("sweep", "--models", "A", "--points", "0"), "--points"),
            (("shots-demo", "--seeds", "2", "--grid-points", "1"),
             "--grid-points"),
            (("shots-demo", "--seeds", "0"), "--seeds"),
            (("shots-demo", "--seeds", "-2"), "--seeds"),
            (("shots-demo", "--seeds", "2", "--scales", "0"), "--scales"),
            (("shots-demo", "--seeds", "2", "--scales", "1.0", "-0.5"),
             "--scales"),
            (("sweep", "--models", "A", "--eps-min", "0"), "--eps-min"),
            (("sweep", "--models", "A", "--eps-min", "nan"), "--eps-min"),
            (("sweep", "--models", "A", "--eps-min", "0.1", "--eps-max",
              "0.001"), "--eps-max"),
            (("sweep", "--models", "A", "--eps-max", "nan"), "--eps-max"),
            (("sweep", "--models", "A", "--eps-max", "inf"), "--eps-max"),
            *[
                (("plan", flag, value), flag)
                for flag in ("--eps", "--eps-p", "--eps-n", "--eps-s",
                             "--omega-scale")
                for value in ("inf", "nan", "0")
            ],
            (("sweep", "--models", "A", "--eps-s", "nan"), "--eps-s"),
            *[
                (("plan", flag, value), flag)
                for flag in ("--delta", "--norm-scale", "--lam", "--mu0",
                             "--mu1", "--sigma", "--central-value")
                for value in ("inf", "nan")
            ],
            (("sweep", "--models", "A", "--delta", "inf"), "--delta"),
            (("sweep", "--models", "A,C"), "--models"),
            *[
                (("plan", "--method", "central", "--window", "-1", "-0.8",
                  "--central-order", value), "--central-order")
                for value in ("0", "1", "-3")
            ],
            (("shots-demo", "--seeds", "2", "--model", "C"), "--model"),
            (("reconstruct", "--sampled", "--seed", "-3"), "--seed"),
            (("moments", "--sampled", "--seed", "-1"), "--seed"),
            (("shots-demo", "--seeds", "2", "--seed0", "-5"), "--seed0"),
            (("moments", "--shots", "0"), "--shots"),
            (("reconstruct", "--sampled", "--shots", "-2"), "--shots"),
            *[(("plan", "--window-term", mode), "--window-term")
              for mode in ("upper", "lower", "span")],
        ],
    )
    def test_flag_rejected(self, tmp_path, capsys, argv, flag):
        out = tmp_path / "o.csv"
        code, _, err = run_cli(capsys, *argv, "--out", str(out))
        assert code == 1
        assert flag in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, line, flag",
        [
            ("sweep", "grid_points=1", "--grid-points"),
            ("sweep", "points=0", "--points"),
            ("shots-demo", "seeds=0", "--seeds"),
            ("shots-demo", "scales=1.0 0", "--scales"),
            ("shots-demo", "scales=", "--scales"),
            ("sweep", "eps_min=0", "--eps-min"),
            ("sweep", "eps_min=0.1\neps_max=0.001", "--eps-max"),
            ("shots-demo", "scales=inf", "--scales"),
            ("moments", "period=0", "--period"),
            ("sweep", "models=B,x", "--models"),
            ("plan", "method=central\nwindow=-1 -0.8\ncentral_order=1",
             "--central-order"),
            ("shots-demo", "model=C", "--model"),
            ("reconstruct", "seed=-3", "--seed"),
            ("moments", "shots=0", "--shots"),
            ("shots-demo", "seed0=-5", "--seed0"),
        ],
    )
    def test_config_value_rejected(self, tmp_path, capsys, command, line, flag):
        cfg = tmp_path / "opts.cfg"
        cfg.write_text(line + "\n")
        out = tmp_path / "o.csv"
        code, _, err = run_cli(
            capsys, command, "--config", str(cfg), "--out", str(out)
        )
        assert code == 1
        assert flag in err
        assert not out.exists()

    @pytest.mark.parametrize("period", ["0", "-1", "nan", "inf"])
    def test_period_refused_before_work(
        self, tmp_path, capsys, monkeypatch, model_a_csv, period
    ):
        def forbidden(*args, **kwargs):
            raise AssertionError("spectrum read")

        monkeypatch.setattr(serialize, "read_spectrum", forbidden)
        out = tmp_path / "m.csv"
        code, _, err = run_cli(
            capsys, "moments", "--spectrum", str(model_a_csv),
            "--period", period, "--n-max", "4", "--out", str(out),
        )
        assert code == 1
        assert err == (
            f"error: --period must be positive and finite, got {float(period)}\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, name, message",
        [
            (("sweep", "--models", "A,C", "--out"), "make_model",
             "error: --models: unknown model kind 'C'; expected one of A, B\n"),
            (("plan", "--method", "central", "--window", "-1", "-0.8",
              "--central-order", "1", "--out"), "make_plan",
             "error: --central-order must be >= 3, got 1\n"),
            (("shots-demo", "--config", "model=C", "--out"), "make_model",
             "error: config key model: 'C' is not one of "
             "['A', 'B', 'a', 'b'] (--model)\n"),
            (("shots-demo", "--seed0", "-5", "--out"), "make_model",
             "error: --seed0 must be >= 0, got -5\n"),
            (("moments", "--spectrum", "SPECTRUM", "--period", "0.3",
              "--n-max", "4", "--sampled", "--seed", "-1", "--out"),
             "sampled_moments", "error: --seed must be >= 0, got -1\n"),
            (("moments", "--spectrum", "SPECTRUM", "--period", "0.3",
              "--n-max", "4", "--config", "shots=0", "--out"),
             "sampled_moments", "error: --shots must be >= 1, got 0\n"),
            (("reconstruct", "--spectrum", "SPECTRUM", "--plan", "PLAN",
              "--sampled", "--seed", "-3", "--out"), "exact_moments",
             "error: --seed must be >= 0, got -3\n"),
        ],
    )
    def test_refused_before_work(
        self, tmp_path, capsys, monkeypatch, argv, name, message
    ):
        # nothing is planned or printed before the bad value is named; the
        # word after --config is the text of a config file, and SPECTRUM and
        # PLAN stand for a model A spectrum and a plan made from it, so that
        # only the check stops the work
        argv = list(argv)
        if "SPECTRUM" in argv:
            spectrum = tmp_path / "a.csv"
            plan = tmp_path / "plan.txt"
            run_cli(capsys, "model", "--kind", "A", "--out", str(spectrum))
            run_cli(capsys, "plan", "--method", "variance", "--spectrum",
                    str(spectrum), "--window", "-1.0", "-0.8", "--out",
                    str(plan))
            paths = {"SPECTRUM": str(spectrum), "PLAN": str(plan)}
            argv = [paths.get(word, word) for word in argv]

        def forbidden(*args, **kwargs):
            raise AssertionError(f"{name} called")

        monkeypatch.setattr(cli, name, forbidden)
        if "--config" in argv:
            cfg = tmp_path / "opts.cfg"
            at = argv.index("--config") + 1
            cfg.write_text(argv[at] + "\n")
            argv[at] = str(cfg)
        out = tmp_path / "o.csv"
        code, text, err = run_cli(capsys, *argv, str(out))
        assert code == 1
        assert text == ""
        assert err == message
        assert not out.exists()

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize(
        "method, flag",
        [
            ("central", "--central-value"),
            ("central", "--mu0"),
            ("central", "--mu1"),
            ("variance", "--sigma"),
            ("variance", "--mu0"),
            ("variance", "--mu1"),
            ("general", "--delta"),
            ("general", "--norm-scale"),
        ],
    )
    def test_non_finite_plan_input_refused(self, capsys, method, flag, value):
        # a NaN central value used to print a plan with alpha=inf and too
        # few terms; the infinite values ended in an OverflowError
        opts = {
            "--mu0": "1", "--mu1": "-0.9", "--sigma": "0.2",
            "--central-value": "0.01", flag: value,
        }
        argv = ["plan", "--method", method, "--window", "-1", "-0.8"]
        if method == "central":
            argv += ["--central-order", "4"]
        for key, val in opts.items():
            if method != "general" or key == flag:
                argv += [key, val]
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: {flag} must be")

    @pytest.mark.parametrize("scales", [["1e308"], ["1e20"], ["1.0", "1e20"]])
    def test_scale_past_the_sampler_refused(self, tmp_path, capsys, scales):
        # 1e308 used to end in an OverflowError traceback, and 1e20 in
        # "error: shots_per_part must be <= ...", after the first row
        out = tmp_path / "o.csv"
        code, text, err = run_cli(
            capsys, "shots-demo", "--seeds", "1", "--scales", *scales,
            "--out", str(out),
        )
        assert (code, text) == (1, "")
        assert err.startswith(f"error: --scales {scales[-1].replace('e', 'e+')} gives ")
        assert err.endswith("the sampler takes at most 9223372036854775807\n")
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("scales", [["inf"], ["1.0", "inf"], ["nan"]])
    def test_non_finite_scale_refused(self, tmp_path, capsys, scales):
        out = tmp_path / "o.csv"
        code, _, err = run_cli(
            capsys, "shots-demo", "--seeds", "2", "--scales", *scales,
            "--out", str(out),
        )
        assert code == 1
        assert err.startswith("error: --scales must be positive and finite")
        assert not out.exists()


class TestSamplingRule:
    """moments and reconstruct decide sampling by one rule: --sampled or
    --shots turns it on, the count is --shots, else the plan's, and
    --clamp without sampling is refused."""

    @pytest.fixture()
    def plan_path(self, tmp_path, capsys, model_a_csv):
        path = tmp_path / "plan.txt"
        code, _, _ = run_cli(
            capsys, "plan", "--method", "variance", "--spectrum",
            str(model_a_csv), "--window", "-1.0", "-0.8", "--out", str(path),
        )
        assert code == 0
        return path

    @pytest.mark.parametrize("form", ["flag", "config"])
    @pytest.mark.parametrize("command", ["moments", "reconstruct"])
    def test_clamp_without_sampling_refused(
        self, tmp_path, capsys, model_a_csv, plan_path, command, form
    ):
        # both commands used to ignore --clamp when they did not sample
        if form == "flag":
            argv = ["--clamp"]
        else:
            cfg = tmp_path / "opts.cfg"
            cfg.write_text("clamp=true\n")
            argv = ["--config", str(cfg)]
        out = tmp_path / "o.csv"
        code, text, err = run_cli(
            capsys, command, "--spectrum", str(model_a_csv),
            "--plan", str(plan_path), *argv, "--out", str(out),
        )
        assert (code, text) == (1, "")
        assert err.startswith("error: --clamp ")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["moments", "reconstruct"])
    def test_plan_without_shots_needs_shots(
        self, tmp_path, capsys, model_a_csv, plan_path, command
    ):
        lines = [
            x.partition("=")[0] + "=" if x.startswith(("shots_per_moment=",
                                                       "total_shots="))
            else x
            for x in plan_path.read_text().splitlines()
        ]
        plan_path.write_text("\n".join(lines) + "\n")
        assert serialize.read_plan(plan_path).shots_per_moment is None
        out = tmp_path / "o.csv"
        argv = (command, "--spectrum", str(model_a_csv), "--plan",
                str(plan_path), "--sampled", "--out", str(out))
        code, text, err = run_cli(capsys, *argv)
        assert (code, text) == (1, "")
        assert err == "error: --shots is required for sampled moments\n"
        assert not out.exists()
        code, _, _ = run_cli(capsys, *argv, "--shots", "10")
        assert code == 0
        assert out.exists()


class TestUndrawableShots:
    """Shot counts above numpy's int64 sampler limit exit 1 with an error
    line instead of an OverflowError traceback."""

    @pytest.fixture()
    def plan_path(self, tmp_path, capsys, model_a_csv):
        path = tmp_path / "plan.txt"
        code, _, _ = run_cli(
            capsys, "plan", "--method", "variance", "--spectrum",
            str(model_a_csv), "--window", "-1.0", "-0.8", "--out", str(path),
        )
        assert code == 0
        return path

    def _refused(self, capsys, *argv):
        code, _, err = run_cli(capsys, *argv)
        assert code == 1
        assert err.startswith("error: ")
        assert "Traceback" not in err
        return err

    def test_reconstruct(self, tmp_path, capsys, model_a_csv, plan_path):
        out = tmp_path / "c.csv"
        err = self._refused(
            capsys, "reconstruct", "--spectrum", str(model_a_csv),
            "--plan", str(plan_path), "--grid-points", "17", "--sampled",
            "--shots", str(10**22), "--out", str(out),
        )
        assert err == (f"error: --shots {10**22} is more shots per moment part "
                       "than the sampler takes, at most 9223372036854775807\n")
        assert not out.exists()

    def test_moments(self, tmp_path, capsys, model_a_csv, plan_path):
        out = tmp_path / "m.csv"
        err = self._refused(
            capsys, "moments", "--spectrum", str(model_a_csv),
            "--plan", str(plan_path), "--shots", str(10**23),
            "--out", str(out),
        )
        assert err == (f"error: --shots {10**23} is more shots per moment part "
                       "than the sampler takes, at most 9223372036854775807\n")
        assert not out.exists()
        # the sampler's own limit, 2^63 - 1 shots, still samples
        code, _, _ = run_cli(
            capsys, "moments", "--spectrum", str(model_a_csv),
            "--plan", str(plan_path), "--shots", str(2**63 - 1),
            "--out", str(out),
        )
        assert code == 0 and out.exists()

    @pytest.mark.parametrize("command", ["moments", "reconstruct"])
    def test_plan_shots(self, tmp_path, capsys, model_a_csv, command):
        # eps_s = 1e-10 plans 64 803 763 129 385 082 880 shots per moment
        # part, past 2^63 - 1: --sampled names the plan file and its count,
        # while --shots still samples under it
        path = tmp_path / "plan.txt"
        code, out, _ = run_cli(
            capsys, "plan", "--method", "variance", "--spectrum",
            str(model_a_csv), "--window", "-1.0", "-0.8", "--eps-s", "1e-10",
            "--out", str(path),
        )
        assert code == 0 and "shots_per_moment=64803763129385082880" in out
        argv = [command, "--spectrum", str(model_a_csv), "--plan", str(path),
                "--out", str(tmp_path / "o.csv")]
        if command == "reconstruct":
            argv[-2:-2] = ["--grid-points", "17"]
        err = self._refused(capsys, *argv, "--sampled")
        assert err == (f"error: plan file {path}: shots_per_moment "
                       "64803763129385082880 is more shots per moment part "
                       "than the sampler takes, at most 9223372036854775807\n")
        assert not (tmp_path / "o.csv").exists()
        code, _, _ = run_cli(capsys, *argv, "--sampled", "--shots", "10")
        assert code == 0

    def test_shots_demo_huge_scale(self, capsys):
        err = self._refused(
            capsys, "shots-demo", "--seeds", "1", "--grid-points", "17",
            "--scales", "1e300",
        )
        assert err.startswith("error: --scales 1e+300 gives 2.6e+302 shots")

    def test_shots_demo_infinite_scale(self, capsys):
        err = self._refused(
            capsys, "shots-demo", "--seeds", "1", "--scales", "inf",
        )
        assert "--scales" in err


CHOICE_KEYS = [
    (name, key, extras[0]["choices"])
    for name, _help, schema, _func in cli._COMMANDS
    for key, (_conv, _default, *extras) in schema.items()
    if extras and "choices" in extras[0]
]

# The planner's mode vocabularies, by CLI option key.
VOCABULARY = {
    "method": planner._METHODS,
    "chi_mode": planner._CHI_MODES,
    "n_mode": planner._N_MODES,
    "shots_mode": planner._SHOTS_MODES,
    "window_term": planner._WINDOW_TERM_MODES,
}

# Plan options under which a method is admitted.
_METHOD_ARGS = {
    "variance": ("--mu1", "-0.9", "--sigma", "0.03"),
    "central": ("--mu1", "-0.9", "--central-order", "4",
                "--central-value", "1e-6"),
}


class TestChoices:
    def test_choice_keys(self):
        assert {key for _name, key, _choices in CHOICE_KEYS} == {
            "kind", "model", *VOCABULARY,
        }

    @pytest.mark.parametrize(
        "name, key", [(name, key) for name, key, _choices in CHOICE_KEYS]
    )
    def test_config_value_outside_choices(self, tmp_path, capsys, name, key):
        cfg = tmp_path / "opts.cfg"
        cfg.write_text(f"{key}=bogus\n")
        out = tmp_path / "o.csv"
        code, text, err = run_cli(
            capsys, name, "--config", str(cfg), "--out", str(out)
        )
        assert code == 1
        assert text == ""
        assert err.startswith(f"error: config key {key}: 'bogus' is not one of")
        assert not out.exists()

    @pytest.mark.parametrize(
        "name, key",
        [(name, key) for name, key, _choices in CHOICE_KEYS
         if key in VOCABULARY],
    )
    def test_flag_choices_are_the_planner_vocabulary(self, name, key):
        assert SCHEMAS[name][key][2]["choices"] is VOCABULARY[key]

    @pytest.mark.parametrize(
        "key, mode",
        [(key, mode) for key, modes in VOCABULARY.items() for mode in modes],
    )
    def test_every_mode_plans(self, capsys, key, mode):
        # each mode plans on options that admit it, and the plan names it
        # wherever make_plan records it
        extra = _METHOD_ARGS.get(mode, ())
        if key == "window_term":
            extra = ("--method", "variance", *_METHOD_ARGS["variance"])
        code, text, err = run_cli(
            capsys, "plan", _flag(key), mode, "--window", "-1.0", "-0.8",
            *extra,
        )
        assert code == 0, err
        field = {"window_term": "window_term_mode"}.get(key, key)
        assert kv(text)[field] == (mode + "4" if mode == "central" else mode)


class TestReportCommand:
    def test_all_reference_values_hold(self, tmp_path, capsys):
        out = tmp_path / "report.csv"
        code, text, _ = run_cli(capsys, "report", "--out", str(out))
        assert code == 0
        assert "all_ok=yes" in text
        header, rows, meta = serialize._read_csv_with_metadata(out)
        assert all(row[4] == "yes" for row in rows)
        names = {row[0] for row in rows}
        assert "kernel_width" in names
        assert "n_terms_norm_bound" in names
        assert meta["norm_bound_chi_mode"] == "nyquist"
        assert meta["quasielastic_window_term"] == "min"


class TestConfigFile:
    def test_config_supplies_options(self, tmp_path, capsys):
        cfg = tmp_path / "opts.cfg"
        cfg.write_text("kind=A\nn_eigen=128\n")
        out = tmp_path / "a.csv"
        code, text, _ = run_cli(
            capsys, "model", "--config", str(cfg), "--out", str(out)
        )
        assert code == 0
        assert serialize.read_spectrum(out).n_eigen == 128

    def test_flag_overrides_config(self, tmp_path, capsys):
        cfg = tmp_path / "opts.cfg"
        cfg.write_text("kind=A\nn_eigen=128\n")
        out = tmp_path / "b.csv"
        code, _, _ = run_cli(
            capsys, "model", "--config", str(cfg), "--kind", "B",
            "--n-eigen", "64", "--out", str(out),
        )
        assert code == 0
        assert serialize.read_spectrum(out).n_eigen == 64

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "opts.cfg"
        cfg.write_text("kind=A\nwibble=3\n")
        code, _, err = run_cli(
            capsys, "model", "--config", str(cfg), "--out",
            str(tmp_path / "x.csv"),
        )
        assert code == 1
        assert "wibble" in err

    def test_malformed_config_line(self, tmp_path, capsys):
        cfg = tmp_path / "opts.cfg"
        cfg.write_text("kind A\n")
        code, _, _ = run_cli(
            capsys, "model", "--config", str(cfg), "--out",
            str(tmp_path / "x.csv"),
        )
        assert code == 1

    @pytest.mark.parametrize("text", ["0", "false", "No", "OFF"])
    def test_false_spellings(self, tmp_path, text):
        # a config file can switch a flag off, which the flag cannot
        cfg = tmp_path / "opts.cfg"
        cfg.write_text(f"simplified={text}\n")
        args = cli.build_parser().parse_args(["plan", "--config", str(cfg)])
        assert cli._merge(args, cli._PLAN_SCHEMA)["simplified"] is False

    @pytest.mark.parametrize("command, line, message", [
        ("plan", "simplified=maybe", "expected a boolean, got 'maybe'"),
        ("plan", "window=1", "expected two numbers, got '1'"),
        ("reconstruct", "grid_points=abc",
         "invalid literal for int() with base 10: 'abc'"),
    ])
    def test_config_value_that_does_not_convert(
        self, tmp_path, capsys, command, line, message
    ):
        cfg = tmp_path / "opts.cfg"
        cfg.write_text(line + "\n")
        code, text, err = run_cli(capsys, command, "--config", str(cfg))
        key = line.partition("=")[0]
        assert (code, text, err) == (1, "", f"error: config key {key}: {message}\n")

    def test_comments_and_blanks_allowed(self, tmp_path, capsys):
        cfg = tmp_path / "opts.cfg"
        cfg.write_text("# spectra options\n\nkind=A\n")
        code, _, _ = run_cli(
            capsys, "model", "--config", str(cfg), "--out",
            str(tmp_path / "x.csv"),
        )
        assert code == 0


SCHEMAS = {name: schema for name, _help, schema, _func in cli._COMMANDS}


def _flag(key):
    return "--" + key.replace("_", "-")


def _option_text(key, conv, extras):
    """Text values, different from the default, for one option."""
    if key == "eps_min":
        return ["0.001"]  # must stay at or below the default eps_max
    if "choices" in extras:
        return [extras["choices"][-1]]
    if conv is cli._bool_opt:
        return ["1"]
    if conv is cli._pair_opt:
        return ["-0.9", "-0.7"]
    if conv is cli._float_list_opt:
        return ["0.5", "2"]
    return {int: ["3"], float: ["0.25"], str: ["x.txt"]}[conv]


class TestOptionTables:
    @pytest.mark.parametrize(
        "name, key",
        [(name, key) for name, schema in SCHEMAS.items() for key in schema],
    )
    def test_flag_and_config_agree(self, tmp_path, name, key):
        schema = SCHEMAS[name]
        conv, default, *extras = schema[key]
        text = _option_text(key, conv, dict(*extras))
        flag_argv = [_flag(key)] + ([] if conv is cli._bool_opt else text)
        cfg = tmp_path / "opts.cfg"
        cfg.write_text(f"{key}={' '.join(text)}\n")
        parser = cli.build_parser()
        from_flag = cli._merge(parser.parse_args([name, *flag_argv]), schema)
        from_config = cli._merge(
            parser.parse_args([name, "--config", str(cfg)]), schema
        )
        assert from_flag == from_config
        assert from_flag[key] != default

    @pytest.mark.parametrize("name", list(SCHEMAS))
    def test_parser_dests_match_schema(self, name):
        args = cli.build_parser().parse_args([name])
        assert set(vars(args)) - {"command", "func", "config"} == set(
            SCHEMAS[name]
        )

    @pytest.mark.parametrize("name", list(SCHEMAS))
    def test_subcommand_help_lists_every_flag(self, capsys, name):
        code, text, _ = run_cli(capsys, name, "--help")
        assert code == 0
        words = " ".join(text.split())
        for key, (_conv, _default, *extras) in SCHEMAS[name].items():
            assert re.search(re.escape(_flag(key)) + r"(?![\w-])", text), key
            extras = dict(*extras)
            if "choices" in extras:
                assert "{" + ",".join(extras["choices"]) + "}" in text, key
            if "help" in extras:
                assert " ".join(extras["help"].split()) in words, key



# Each numeric schema entry: its values are checked against its domain.
NUMERIC_OPTIONS = [
    (name, key)
    for name, schema in SCHEMAS.items()
    for key, (conv, _default, *_extras) in schema.items()
    if conv in (int, float, cli._pair_opt, cli._float_list_opt)
]


class TestDomains:
    @pytest.mark.parametrize("form", ["flag", "config"])
    @pytest.mark.parametrize("name, key", NUMERIC_OPTIONS)
    def test_value_outside_domain_refused(self, tmp_path, capsys, name, key, form):
        # --tail-thr inf and --tail-lam -5 used to write a spectrum, and
        # --peak-beta 0 or --sigma-leak 1.5 were refused under the library
        # field's name; each value the domain table lists as just outside
        # is refused before any work, naming the flag, whether it comes
        # from the flag or from a config file
        conv, _default, extras = SCHEMAS[name][key]
        for value in extras["domain"].outside:
            values = [value] * (2 if conv is cli._pair_opt else 1)
            if form == "flag":
                argv = [_flag(key), *values]
            else:
                cfg = tmp_path / "opts.cfg"
                cfg.write_text(f"{key}={' '.join(values)}\n")
                argv = ["--config", str(cfg)]
            out = tmp_path / "o.csv"
            code, text, err = run_cli(capsys, name, *argv, "--out", str(out))
            assert code == 1, value
            assert text == ""
            assert err.startswith(f"error: {_flag(key)} must be "), err
            assert not out.exists()

class TestEntryPoints:
    def test_no_command_is_input_error(self, capsys):
        assert run_cli(capsys)[0] == 1

    def test_module_help(self):
        out = subprocess.run(
            [sys.executable, "-m", "fouriergit", "--help"],
            capture_output=True, text=True, env=package_env(),
        )
        assert out.returncode == 0
        assert "plan" in out.stdout

    @pytest.mark.skipif(
        shutil.which("fouriergit") is None, reason="console script not on PATH"
    )
    def test_console_script(self):
        out = subprocess.run(
            ["fouriergit", "--help"], capture_output=True, text=True
        )
        assert out.returncode == 0
