"""Command-line interface.

Subcommands cover the full workflow: generate benchmark spectra, plan an
extension for an error budget, compute exact or shot-sampled moments,
reconstruct transforms with an error report, sweep the period-error bound
against measurement, run the shot-noise coverage demo, and check the
built-in reference values.

Each subcommand declares its options once, in its schema table (config
converter, default, and optional argparse choices and help); the flags
are generated from it, so flag --grid-points is config key grid_points.
Options may come from a key=value config file (--config); explicit flags
override the file, the file overrides built-in defaults, and every output
embeds the effective values. Counts (grid points, seeds, sweep points),
shot scales and the sweep target range are validated before any work.
Exit codes: 0 success, 1 invalid input, 2 formula used outside its
validity range, 3 I/O failure.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import asdict

import numpy as np

from ._backend import active_backend
from .kernel import KernelSpec, PeriodicKernelParams
from .moments import exact_moments, sampled_moments
from .planner import (
    ErrorBudget,
    FormulaValidityError,
    FrequencyWindow,
    _plan_budget,
    _plan_kernel,
    _plan_window,
    chi_general,
    chi_with_variance,
    make_plan,
    n_terms,
    shots_value,
    tail_leakage_bound,
)
from .spectrum import (
    MomentSummary,
    PeakParams,
    TailParams,
    make_model,
    summarize,
)
from .transform import (
    _curves,
    _deviation,
    _measure,
    exact_transform,
    reconstruct,
    sampled_reconstruction,
)
from . import serialize


class CliError(Exception):
    """Invalid input reported with exit code 1."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad flags; this CLI reserves 2 for
    # formula-validity failures, so remap argument errors to 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


def _bool_opt(s: str) -> bool:
    v = s.strip().lower()
    if v in ("1", "true", "yes", "on"):
        return True
    if v in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {s!r}")


def _pair_opt(s: str):
    parts = [p for p in s.replace(",", " ").split() if p]
    if len(parts) != 2:
        raise ValueError(f"expected two numbers, got {s!r}")
    return [float(parts[0]), float(parts[1])]


def _float_list_opt(s: str):
    return [float(p) for p in s.replace(",", " ").split() if p]


# Flag form of each converter that is not a plain type=conv.
_FLAG_FORMS = {
    _bool_opt: {"action": "store_const", "const": True},
    _pair_opt: {"type": float, "nargs": 2, "metavar": ("MIN", "MAX")},
    _float_list_opt: {"type": float, "nargs": "+"},
}

_WINDOW_TERMS = {"choices": ["max", "min", "upper", "lower", "span"]}
_SHOTS_MODES = {"choices": ["conservative", "uncorrelated", "chebyshev"]}


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def _merge(args, schema: dict) -> dict:
    """Effective option values: flags override config overrides defaults.

    schema maps option key -> (config converter, default[, argparse
    extras such as choices and help]). Degenerate counts are refused.
    """
    from_file = {}
    config_path = getattr(args, "config", None)
    if config_path:
        raw = serialize.read_config(config_path)
        unknown = sorted(set(raw) - set(schema))
        if unknown:
            raise CliError(
                f"unknown config key(s) for this command: {', '.join(unknown)}"
            )
        for key, text in raw.items():
            conv = schema[key][0]
            try:
                from_file[key] = conv(text)
            except ValueError as exc:
                raise CliError(f"config key {key}: {exc}") from None
    eff = {}
    for key, (_conv, default, *_extras) in schema.items():
        val = getattr(args, key, None)
        if val is None:
            val = from_file.get(key, default)
        eff[key] = val
    _check_counts(eff)
    return eff


def _check_counts(eff: dict):
    for key, least in (("grid_points", 2), ("seeds", 1), ("points", 1)):
        if key in eff and eff[key] < least:
            raise CliError(f"{_flag(key)} must be >= {least}, got {eff[key]}")
    if "scales" in eff and not eff["scales"]:
        raise CliError("--scales must name at least one scale")
    for scale in eff.get("scales", ()):
        if not scale > 0:
            raise CliError(f"--scales must be positive, got {scale}")
    if "eps_min" in eff:
        lo, hi = eff["eps_min"], eff["eps_max"]
        if not lo > 0:
            raise CliError(f"--eps-min must be positive, got {lo}")
        if not lo <= hi < math.inf:
            raise CliError(
                f"--eps-max must be finite and >= --eps-min ({lo}), got {hi}"
            )


def _require(eff: dict, *keys):
    for key in keys:
        if eff[key] is None:
            raise CliError(f"{_flag(key)} is required")


def _echo(eff: dict) -> dict:
    out = {"backend": active_backend()}
    for key in sorted(eff):
        val = eff[key]
        if isinstance(val, (list, tuple)):
            val = ",".join(serialize.format_value(v) for v in val)
        out[key] = val
    return out


def _print_block(d: dict):
    for key, val in d.items():
        print(f"{key}={serialize.format_value(val)}")


# ---------------------------------------------------------------------------
# model


_MODEL_SCHEMA = {
    "kind": (str, None, {"choices": ["A", "B", "a", "b"],
                         "help": "model family: A peak, B threshold tail"}),
    "n_eigen": (int, 512),
    "norm_scale": (float, 1.0),
    "placement": (str, "uniform"),
    "peak_xi": (float, -0.95),
    "peak_beta": (float, 0.05),
    "peak_alpha": (float, 5.0),
    "tail_thr": (float, -0.95),
    "tail_lam": (float, 1.0),
    "tail_rho": (float, 0.002),
    "tail_gamma": (float, 1.0),
    "out": (str, None),
}


def cmd_model(args) -> int:
    eff = _merge(args, _MODEL_SCHEMA)
    _require(eff, "kind", "out")
    spectrum = make_model(
        eff["kind"],
        n_eigen=eff["n_eigen"],
        placement=eff["placement"],
        peak=PeakParams(eff["peak_xi"], eff["peak_beta"], eff["peak_alpha"]),
        tail=TailParams(
            eff["tail_thr"], eff["tail_lam"], eff["tail_rho"], eff["tail_gamma"]
        ),
        norm_scale=eff["norm_scale"],
    )
    serialize.write_spectrum(eff["out"], spectrum)
    summ = summarize(spectrum)
    print(f"kind={eff['kind']}")
    print(f"n_eigen={spectrum.n_eigen}")
    print(f"mu0={serialize.format_value(summ.mu0)}")
    print(f"mu1={summ.mu1:.3f}")
    print(f"sigma={summ.sigma:.3f}")
    print(f"out={eff['out']}")
    return 0


# ---------------------------------------------------------------------------
# plan


_PLAN_SCHEMA = {
    "method": (str, "general", {"choices": ["general", "variance", "central"]}),
    "delta": (float, 0.02),
    "sigma_leak": (float, 0.01),
    "lam": (float, None),
    "norm_scale": (float, 1.0),
    "eps": (float, None,
            {"help": "total budget, split equally over the three sources"}),
    "eps_p": (float, None),
    "eps_n": (float, None),
    "eps_s": (float, None),
    "confidence_delta": (float, 0.05),
    "omega_scale": (float, None,
                    {"help": "window scale (default: model level spacing)"}),
    "spectrum": (str, None, {"help": "spectrum CSV to take moments from"}),
    "mu0": (float, None),
    "mu1": (float, None),
    "sigma": (float, None),
    "central_order": (int, None),
    "central_value": (float, None),
    "window": (_pair_opt, None),
    "chi_mode": (str, "main", {"choices": ["main", "nyquist", "full"]}),
    "n_mode": (str, "main", {"choices": ["main", "appendix"]}),
    "shots_mode": (str, "conservative", _SHOTS_MODES),
    "window_term": (str, "max", _WINDOW_TERMS),
    "simplified": (_bool_opt, False),
    "out": (str, None, {"help": "write the plan to this key=value file"}),
}


def _build_budget(eff) -> ErrorBudget:
    omega = eff["omega_scale"]
    if omega is None:
        omega = 2.0 * eff["norm_scale"] / 512.0
        eff["omega_scale"] = omega
    if eff["eps"] is not None:
        if any(eff[k] is not None for k in ("eps_p", "eps_n", "eps_s")):
            raise CliError("--eps cannot be combined with --eps-p/--eps-n/--eps-s")
        budget = ErrorBudget.equal_split(eff["eps"], omega, eff["confidence_delta"])
        eff["eps_p"], eff["eps_n"], eff["eps_s"] = (
            budget.eps_p,
            budget.eps_n,
            budget.eps_s,
        )
        return budget
    eps_p = eff["eps_p"] if eff["eps_p"] is not None else 0.01
    eps_n = eff["eps_n"] if eff["eps_n"] is not None else 0.01
    eps_s = eff["eps_s"] if eff["eps_s"] is not None else 0.05
    eff["eps_p"], eff["eps_n"], eff["eps_s"] = eps_p, eps_n, eps_s
    return ErrorBudget(eps_p, eps_n, eps_s, omega, eff["confidence_delta"])


def _build_kernel(eff) -> KernelSpec:
    if eff["lam"] is None:
        kernel = KernelSpec.from_resolution(
            eff["delta"], eff["sigma_leak"], eff["norm_scale"]
        )
        eff["lam"] = kernel.lam
        return kernel
    return KernelSpec(
        eff["delta"], eff["sigma_leak"], eff["lam"], eff["norm_scale"]
    )


def cmd_plan(args) -> int:
    eff = _merge(args, _PLAN_SCHEMA)
    kernel = _build_kernel(eff)
    window = None
    moments = None
    if eff["spectrum"] is not None:
        spectrum = serialize.read_spectrum(eff["spectrum"])
        if eff["omega_scale"] is None and spectrum.n_eigen > 1:
            om = spectrum.eigenfrequencies
            eff["omega_scale"] = float(om[-1] - om[0]) / (spectrum.n_eigen - 1)
        orders = (2,) if eff["central_order"] is None else (2, eff["central_order"])
        moments = summarize(spectrum, orders=orders)
    budget = _build_budget(eff)
    if eff["window"] is not None:
        window = FrequencyWindow(eff["window"][0], eff["window"][1])
    if moments is None and eff["sigma"] is not None:
        _require(eff, "mu1")
        mu0 = eff["mu0"] if eff["mu0"] is not None else 1.0
        moments = MomentSummary(
            mu0=mu0,
            mu1=eff["mu1"],
            sigma=eff["sigma"],
            central={2: mu0 * eff["sigma"] ** 2},
        )
    plan = make_plan(
        eff["method"],
        kernel,
        budget,
        window=window,
        moments=moments,
        central_order=eff["central_order"],
        central_value=eff["central_value"],
        mu1=eff["mu1"],
        mu0=eff["mu0"],
        chi_mode=eff["chi_mode"],
        n_mode=eff["n_mode"],
        shots_mode=eff["shots_mode"],
        window_term=eff["window_term"],
        simplified=eff["simplified"],
    )
    text = serialize.plan_to_text(plan)
    sys.stdout.write(text)
    if eff["out"]:
        serialize.write_plan(eff["out"], plan)
    return 0


# ---------------------------------------------------------------------------
# moments


_MOMENTS_SCHEMA = {
    "spectrum": (str, None),
    "plan": (str, None, {"help": "plan file for dt and n_max"}),
    "period": (float, None),
    "n_max": (int, None),
    "sampled": (_bool_opt, None),
    "shots": (int, None, {"help": "shots per moment part"}),
    "seed": (int, 12345),
    "clamp": (_bool_opt, False),
    "out": (str, None),
}


def cmd_moments(args) -> int:
    eff = _merge(args, _MOMENTS_SCHEMA)
    _require(eff, "spectrum", "out")
    spectrum = serialize.read_spectrum(eff["spectrum"])
    plan = None
    if eff["plan"] is not None:
        plan = serialize.read_plan(eff["plan"])
        period = plan.period
    elif eff["period"] is not None:
        period = eff["period"]
    else:
        raise CliError("either --plan or --period is required")
    n_max = eff["n_max"]
    if n_max is None:
        if plan is None:
            raise CliError("--n-max is required when planning from --period")
        n_max = plan.n_terms
    dt = 2.0 * math.pi / period
    sampled = bool(eff["sampled"]) or eff["shots"] is not None
    if sampled:
        shots = eff["shots"]
        if shots is None and plan is not None:
            shots = plan.shots_per_moment
        if shots is None:
            raise CliError("--shots is required for sampled moments")
        mset = sampled_moments(
            spectrum, dt, n_max, shots, eff["seed"], clamp=eff["clamp"]
        )
    else:
        mset = exact_moments(spectrum, dt, n_max)
    serialize.write_moments(eff["out"], mset)
    print(f"provenance={mset.provenance}")
    print(f"n_max={mset.n_max}")
    print(f"dt={serialize.format_value(mset.dt)}")
    print(f"out={eff['out']}")
    return 0


# ---------------------------------------------------------------------------
# reconstruct


_RECONSTRUCT_SCHEMA = {
    "spectrum": (str, None),
    "plan": (str, None),
    "grid_points": (int, 1024),
    "range": (_pair_opt, None),
    "sampled": (_bool_opt, False),
    "shots": (int, None),
    "seed": (int, 12345),
    "clamp": (_bool_opt, False),
    "out": (str, None, {"help": "curves CSV"}),
    "report_out": (str, None),
}


def cmd_reconstruct(args) -> int:
    eff = _merge(args, _RECONSTRUCT_SCHEMA)
    _require(eff, "spectrum", "plan", "out")
    spectrum = serialize.read_spectrum(eff["spectrum"])
    plan = serialize.read_plan(eff["plan"])
    kernel = _plan_kernel(plan)
    budget = _plan_budget(plan)
    window = FrequencyWindow(*eff["range"]) if eff["range"] else _plan_window(plan)
    if window is None:
        raise CliError("plan has no window; pass --range MIN,MAX")
    grid = np.linspace(window.nu_min, window.nu_max, eff["grid_points"])
    curves = list(_curves(spectrum, plan, kernel, grid))
    lines = asdict(_measure(*curves, budget))
    del lines["n_grid"]
    if eff["sampled"]:
        shots = eff["shots"] if eff["shots"] is not None else plan.shots_per_moment
        if shots is None:
            raise CliError("--shots is required for --sampled with this plan")
        srec = sampled_reconstruction(
            spectrum, plan, kernel, grid, eff["seed"], shots, clamp=eff["clamp"]
        )
        dev = _deviation(srec, curves[2], budget.omega_scale)
        curves.append(srec)
        lines["eps_s_measured"] = dev
        lines["eps_s_target"] = budget.eps_s
        lines["within_shot_budget"] = dev <= budget.eps_s
        lines["shots_per_moment"] = int(shots)
        lines["seed"] = eff["seed"]
    meta = _echo(eff)
    meta.update(
        {
            "method": plan.method,
            "period": plan.period,
            "chi": plan.chi,
            "n_terms": plan.n_terms,
        }
    )
    serialize.write_curves(eff["out"], curves, metadata=meta)
    _print_block(lines)
    if eff["report_out"]:
        serialize.write_keyvalues(eff["report_out"], lines)
    return 0


# ---------------------------------------------------------------------------
# sweep


_SWEEP_SCHEMA = {
    "models": (str, "A,B"),
    "eps_min": (float, 1e-4),
    "eps_max": (float, 1e-1),
    "points": (int, 10),
    "grid_points": (int, 1024),
    "window": (_pair_opt, [-1.0, -0.8]),
    "n_eigen": (int, 512),
    "delta": (float, 0.02),
    "sigma_leak": (float, 0.01),
    "eps_s": (float, 0.05),
    "confidence_delta": (float, 0.05),
    "window_term": (str, "max", _WINDOW_TERMS),
    "out": (str, None),
}


def cmd_sweep(args) -> int:
    eff = _merge(args, _SWEEP_SCHEMA)
    _require(eff, "out")
    kinds = [k.strip().upper() for k in eff["models"].split(",") if k.strip()]
    if not kinds:
        raise CliError("--models must name at least one model")
    window = FrequencyWindow(eff["window"][0], eff["window"][1])
    kernel = KernelSpec.from_resolution(eff["delta"], eff["sigma_leak"], 1.0)
    targets = np.logspace(
        math.log10(eff["eps_min"]), math.log10(eff["eps_max"]), eff["points"]
    )
    grid = np.linspace(window.nu_min, window.nu_max, eff["grid_points"])
    rows = []
    for kind in kinds:
        spectrum = make_model(kind, n_eigen=eff["n_eigen"])
        omega = 2.0 / eff["n_eigen"]
        moments = summarize(spectrum)
        plain = exact_transform(spectrum, kernel.lam, grid)
        bounded = 0
        for eps_p in targets:
            budget = ErrorBudget(
                float(eps_p), float(eps_p), eff["eps_s"], omega,
                eff["confidence_delta"],
            )
            plan = make_plan(
                "variance", kernel, budget, window=window, moments=moments,
                window_term=eff["window_term"],
            )
            periodic = PeriodicKernelParams.from_period(plan.period, kernel)
            wrapped = exact_transform(
                spectrum, kernel.lam, grid, periodic=periodic
            )
            measured = _deviation(wrapped, plain, omega)
            bound = tail_leakage_bound(plan)
            bounded += bound >= measured
            rows.append(
                (
                    kind,
                    float(eps_p),
                    plan.period,
                    plan.chi,
                    plan.n_terms,
                    measured,
                    bound,
                )
            )
        print(f"model={kind} rows={len(targets)} bound_holds={bounded}/{len(targets)}")
    serialize.write_table(
        eff["out"],
        ("model", "eps_p_target", "period", "chi", "n_terms",
         "eps_p_measured", "bound"),
        rows,
        metadata=_echo(eff),
    )
    print(f"out={eff['out']}")
    return 0


# ---------------------------------------------------------------------------
# shots-demo


_SHOTS_DEMO_SCHEMA = {
    "model": (str, "A"),
    "seeds": (int, 200),
    "seed0": (int, 2026),
    "scales": (_float_list_opt, [1.0, 0.01]),
    "grid_points": (int, 257),
    "window": (_pair_opt, [-1.0, -0.8]),
    "delta": (float, 0.02),
    "sigma_leak": (float, 0.01),
    "eps_p": (float, 0.01),
    "eps_n": (float, 0.01),
    "eps_s": (float, 0.05),
    "confidence_delta": (float, 0.05),
    "shots_mode": (str, "conservative", _SHOTS_MODES),
    "out": (str, None),
}


def cmd_shots_demo(args) -> int:
    eff = _merge(args, _SHOTS_DEMO_SCHEMA)
    spectrum = make_model(eff["model"])
    omega = 2.0 / spectrum.n_eigen
    window = FrequencyWindow(eff["window"][0], eff["window"][1])
    kernel = KernelSpec.from_resolution(eff["delta"], eff["sigma_leak"], 1.0)
    budget = ErrorBudget(
        eff["eps_p"], eff["eps_n"], eff["eps_s"], omega, eff["confidence_delta"]
    )
    plan = make_plan(
        "variance", kernel, budget, window=window,
        moments=summarize(spectrum), shots_mode=eff["shots_mode"],
    )
    periodic = PeriodicKernelParams.from_period(plan.period, kernel)
    grid = np.linspace(window.nu_min, window.nu_max, eff["grid_points"])
    exact = exact_moments(spectrum, periodic.dt, plan.n_terms)
    baseline = reconstruct(exact, kernel, periodic, plan.n_terms, grid)
    rows = []
    for scale in eff["scales"]:
        shots = max(1, int(math.ceil(plan.shots_per_moment * scale)))
        within = 0
        for i in range(eff["seeds"]):
            rec = sampled_reconstruction(
                spectrum, plan, kernel, grid, eff["seed0"] + i, shots
            )
            within += _deviation(rec, baseline, omega) <= budget.eps_s
        coverage = within / eff["seeds"]
        rows.append((scale, shots, eff["seeds"], within, coverage))
        print(
            f"scale={serialize.format_value(scale)} shots_per_part={shots} "
            f"coverage={coverage:.3f}"
        )
    if eff["out"]:
        serialize.write_table(
            eff["out"],
            ("scale", "shots_per_part", "n_seeds", "n_within", "coverage"),
            rows,
            metadata=_echo(eff),
        )
        print(f"out={eff['out']}")
    return 0


# ---------------------------------------------------------------------------
# report


def _reference_rows():
    """Reference values reproduced by the standard workflows, with the
    settings that generate them."""
    rows = []

    kernel = KernelSpec.from_resolution(0.02, 0.01, 1.0)
    rows.append(("kernel_width", kernel.lam, 0.0065901, 1e-6))

    omega = 2.0 / 512.0
    budget = ErrorBudget(0.01, 0.01, 0.05, omega)
    general = chi_general(kernel, budget)
    rows.append(("chi_general", general.chi, 2.0204, 1e-3))
    n_general = n_terms(general.chi, kernel, budget)
    rows.append(("n_terms_general", n_general, 218, 0))

    window = FrequencyWindow(-1.0, -0.8)
    stats = {}
    for kind, mu_ref, sigma_ref, ratio_ref, ratio_tol, n_ref in (
        ("A", -0.911, 0.031, 0.111, 0.003, 25),
        ("B", -0.907, 0.067, 0.14, 0.005, 31),
    ):
        spectrum = make_model(kind)
        summ = summarize(spectrum)
        stats[kind] = summ
        rows.append((f"model_{kind}_mu1", summ.mu1, mu_ref, 0.005))
        rows.append((f"model_{kind}_sigma", summ.sigma, sigma_ref, 0.005))
        choice = chi_with_variance(kernel, budget, summ, window)
        rows.append(
            (f"period_ratio_{kind}", choice.period / general.period,
             ratio_ref, ratio_tol)
        )
        rows.append(
            (f"n_terms_{kind}", n_terms(choice.chi, kernel, budget), n_ref, 0)
        )

    nuc_kernel = KernelSpec.from_resolution(1.0, 0.01, 100.0)
    nuc_budget = ErrorBudget(0.01, 0.01, 0.05, 1.0)
    nuc_window = FrequencyWindow(0.0, 100.0)
    gt = chi_with_variance(
        nuc_kernel, nuc_budget,
        MomentSummary(mu0=1.0, mu1=20.0, sigma=22.0, central={2: 22.0**2}),
        nuc_window,
    )
    rows.append(("n_terms_resonance", n_terms(gt.chi, nuc_kernel, nuc_budget),
                 339, 0))

    big_kernel = KernelSpec.from_resolution(1.0, 0.01, 7987.5)
    nyq = chi_general(big_kernel, nuc_budget, mode="nyquist")
    rows.append(
        ("n_terms_norm_bound", n_terms(nyq.chi, big_kernel, nuc_budget),
         42372, 1)
    )

    qe_kernel = KernelSpec.from_resolution(1.0, 0.01, 400.0)
    qe_window = FrequencyWindow(0.0, 400.0)
    qe_mu1 = 400.0**2 / (2.0 * 939.0)
    qe_moments = MomentSummary(
        mu0=1.0, mu1=qe_mu1, sigma=250.0, central={2: 250.0**2}
    )
    qe = chi_with_variance(
        qe_kernel, nuc_budget, qe_moments, qe_window, window_term="min"
    )
    rows.append(
        ("n_terms_quasielastic_window_min",
         n_terms(qe.chi, qe_kernel, nuc_budget), 838, 84)
    )

    plan = make_plan("general", kernel, budget)
    s_cons = shots_value(plan.n_terms, plan.chi, kernel, budget,
                         mode="conservative")
    s_cheb = shots_value(plan.n_terms, plan.chi, kernel, budget,
                         mode="chebyshev")
    s_unc = shots_value(plan.n_terms, plan.chi, kernel, budget,
                        mode="uncorrelated")
    rows.append(("shots_ratio_chebyshev", s_cheb / s_cons, 2.0, 1e-12))
    rows.append(("shots_uncorrelated_saves", float(s_unc < s_cons), 1.0, 0))
    return rows


_REPORT_SCHEMA = {"out": (str, None)}


def cmd_report(args) -> int:
    eff = _merge(args, _REPORT_SCHEMA)
    rows = _reference_rows()
    width = max(len(r[0]) for r in rows)
    all_ok = True
    table = []
    for name, value, expected, tol in rows:
        ok = abs(value - expected) <= tol
        all_ok &= ok
        print(
            f"{name:<{width}}  value={serialize.format_value(value)} "
            f"expected={serialize.format_value(expected)} "
            f"tol={serialize.format_value(tol)} ok={'yes' if ok else 'NO'}"
        )
        table.append((name, value, expected, tol, "yes" if ok else "no"))
    conventions = {
        "norm_bound_chi_mode": "nyquist",
        "quasielastic_window_term": "min",
    }
    for key, val in conventions.items():
        print(f"{key}={val}")
    if eff["out"]:
        meta = _echo(eff)
        meta.update(conventions)
        serialize.write_table(
            eff["out"], ("name", "value", "expected", "tol", "ok"), table,
            metadata=meta,
        )
    print(f"all_ok={'yes' if all_ok else 'no'}")
    return 0 if all_ok else 1


# ---------------------------------------------------------------------------


_COMMANDS = (
    ("model", "generate a benchmark spectrum CSV", _MODEL_SCHEMA, cmd_model),
    ("plan", "plan period, harmonics and shot counts", _PLAN_SCHEMA, cmd_plan),
    ("moments", "exact or shot-sampled phase moments", _MOMENTS_SCHEMA,
     cmd_moments),
    ("reconstruct", "reconstruct transforms and report errors",
     _RECONSTRUCT_SCHEMA, cmd_reconstruct),
    ("sweep", "period-error bound vs measurement over budgets",
     _SWEEP_SCHEMA, cmd_sweep),
    ("shots-demo", "statistical coverage at planned shot counts",
     _SHOTS_DEMO_SCHEMA, cmd_shots_demo),
    ("report", "check built-in reference values", _REPORT_SCHEMA, cmd_report),
)


def build_parser() -> _Parser:
    parser = _Parser(
        prog="fouriergit",
        description=(
            "Fourier-moment Gaussian integral transforms of discrete "
            "spectra with error-budget planning"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, schema, func in _COMMANDS:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="key=value option file")
        for key, (conv, _default, *extras) in schema.items():
            form = _FLAG_FORMS.get(conv, {"type": conv})
            p.add_argument(_flag(key), **form, **dict(*extras))
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except FormulaValidityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
