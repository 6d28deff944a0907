import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

from fouriergit import (
    ErrorBudget,
    FrequencyWindow,
    KernelSpec,
    cli,
    error_report,
    sampled_reconstruction,
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

    def test_equal_split_budget(self, capsys):
        code, text, _ = run_cli(capsys, "plan", "--eps", "0.03")
        assert code == 0
        plan = serialize.plan_from_text(text)
        assert plan.inputs_echo["eps_p"] == pytest.approx(0.01)
        assert plan.inputs_echo["eps_n"] == pytest.approx(0.01)
        assert plan.inputs_echo["eps_s"] == pytest.approx(0.01)

    def test_eps_conflict_rejected(self, capsys):
        code, _, err = run_cli(capsys, "plan", "--eps", "0.03", "--eps-p", "0.01")
        assert code == 1
        assert "eps" in err

    def test_loose_budget_formula_error(self, capsys):
        code, _, err = run_cli(capsys, "plan", "--eps-n", "0.5")
        assert code == 2
        assert "error" in err

    def test_simplified_validity_error(self, capsys):
        code, _, _ = run_cli(
            capsys, "plan", "--method", "variance", "--mu1", "-0.9",
            "--sigma", "0.003", "--window", "-1.0", "-0.8", "--simplified",
        )
        assert code == 2

    def test_variance_without_window(self, capsys):
        code, _, _ = run_cli(
            capsys, "plan", "--method", "variance", "--mu1", "-0.9",
            "--sigma", "0.03",
        )
        assert code == 1

    def test_missing_spectrum_file(self, capsys):
        code, _, _ = run_cli(
            capsys, "plan", "--method", "variance",
            "--spectrum", "/no/such/spectrum.csv", "--window", "-1", "-0.8",
        )
        assert code == 3

    def test_unknown_flag(self, capsys):
        code, _, _ = run_cli(capsys, "plan", "--bogus", "1")
        assert code == 1

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
        plan, kernel = self._plan_and_kernel(plan_path)
        want = sampled_reconstruction(
            serialize.read_spectrum(model_a_csv), plan, kernel,
            np.linspace(-1.0, -0.8, 65), seed=7, shots_per_part=shots,
            clamp=True,
        )
        assert np.array_equal(curves[-1].values, want.values)

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
