"""Command-line interface.

Subcommands cover the full workflow: generate benchmark spectra, plan an
extension for an error budget, compute exact or shot-sampled moments,
reconstruct transforms with an error report, sweep the period-error bound
against measurement, run the shot-noise coverage demo, and check the
built-in reference values.

Each subcommand declares its options once, in its schema table (config
converter, default, and optional argparse choices and help and the
value's domain); the flags are generated from it, so flag --grid-points
is config key grid_points. Options may come from a key=value config file
(--config); explicit flags override the file, the file overrides
built-in defaults, and every output embeds the effective values. Every
numeric value is checked against its domain (see _domain) before any
work, and a value outside it is refused naming the flag.
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
from ._domain import FINITE, NONNEGATIVE, POSITIVE, UNIT, at_least, check
from .kernel import KernelSpec, PeriodicKernelParams
from .moments import exact_moments, sampled_moments
from .planner import (
    _CHI_MODES,
    _METHODS,
    _N_MODES,
    _SHOTS_MODES,
    _WINDOW_TERM_MODES,
    ErrorBudget,
    FormulaValidityError,
    FrequencyWindow,
    _plan_inputs,
    make_plan,
    shots_value,
    tail_leakage_bound,
)
from .spectrum import (
    _MODEL_KINDS,
    MomentSummary,
    PeakParams,
    TailParams,
    make_model,
    summarize,
)
from .transform import _curves, _deviation, _measure, exact_transform, reconstruct
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


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def _merge(args, schema: dict) -> dict:
    """Effective option values: flags override config overrides defaults.

    schema maps option key -> (config converter, default[, extras]); the
    extras are argparse's (choices, help) and the option's domain. A
    config value outside the option's choices, and any effective value
    outside its domain (each element of a pair or list), is refused
    naming the flag.
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
            conv, _default, *extras = schema[key]
            try:
                val = conv(text)
            except ValueError as exc:
                raise CliError(f"config key {key}: {exc}") from None
            choices = dict(*extras).get("choices")
            if choices and val not in choices:
                raise CliError(f"config key {key}: {val!r} is not one of "
                               f"{choices} ({_flag(key)})")
            from_file[key] = val
    eff = {}
    for key, (_conv, default, *extras) in schema.items():
        val = getattr(args, key, None)
        if val is None:
            val = from_file.get(key, default)
        domain = dict(*extras).get("domain")
        if domain is not None and val is not None:
            for v in val if isinstance(val, list) else (val,):
                check(_flag(key), v, domain)
        eff[key] = val
    return eff


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


# model --kind and shots-demo --model: the model families, in either case
_MODEL_CHOICES = [*_MODEL_KINDS, *map(str.lower, _MODEL_KINDS)]

_MODEL_SCHEMA = {
    "kind": (str, None, {"choices": _MODEL_CHOICES,
                         "help": "model family: A peak, B threshold tail"}),
    "n_eigen": (int, 512, {"domain": at_least(1)}),
    "norm_scale": (float, 1.0, {"domain": POSITIVE}),
    "peak_xi": (float, -0.95, {"domain": FINITE}),
    "peak_beta": (float, 0.05, {"domain": POSITIVE}),
    "peak_alpha": (float, 5.0, {"domain": FINITE}),
    "tail_thr": (float, -0.95, {"domain": FINITE}),
    "tail_lam": (float, 1.0, {"domain": NONNEGATIVE}),
    "tail_rho": (float, 0.002, {"domain": POSITIVE}),
    "tail_gamma": (float, 1.0, {"domain": POSITIVE}),
    "out": (str, None),
}


def cmd_model(args) -> int:
    eff = _merge(args, _MODEL_SCHEMA)
    _require(eff, "kind", "out")
    spectrum = make_model(
        eff["kind"],
        n_eigen=eff["n_eigen"],
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
    "method": (str, "general", {"choices": _METHODS}),
    "delta": (float, 0.02, {"domain": POSITIVE}),
    "sigma_leak": (float, 0.01, {"domain": UNIT}),
    "lam": (float, None, {"domain": POSITIVE}),
    "norm_scale": (float, 1.0, {"domain": POSITIVE}),
    "eps_p": (float, None, {"domain": POSITIVE}),
    "eps_n": (float, None, {"domain": POSITIVE}),
    "eps_s": (float, None, {"domain": POSITIVE}),
    "confidence_delta": (float, 0.05, {"domain": UNIT}),
    "omega_scale": (float, None, {"domain": POSITIVE, "help":
                                  "window scale (default: model level spacing)"}),
    "spectrum": (str, None, {"help": "spectrum CSV to take moments from"}),
    "mu0": (float, None, {"domain": POSITIVE}),
    "mu1": (float, None, {"domain": FINITE}),
    "sigma": (float, None, {"domain": POSITIVE}),
    "central_order": (int, None, {"domain": at_least(3)}),
    "central_value": (float, None, {"domain": NONNEGATIVE}),
    "window": (_pair_opt, None, {"domain": FINITE}),
    "chi_mode": (str, "main", {"choices": _CHI_MODES}),
    "n_mode": (str, "main", {"choices": _N_MODES}),
    "shots_mode": (str, "conservative", {"choices": _SHOTS_MODES}),
    "window_term": (str, "max", {"choices": _WINDOW_TERM_MODES}),
    "simplified": (_bool_opt, False),
    "out": (str, None, {"help": "write the plan to this key=value file"}),
}


def _build_budget(eff) -> ErrorBudget:
    omega = eff["omega_scale"]
    if omega is None:
        omega = 2.0 * eff["norm_scale"] / 512.0
    eps_p = eff["eps_p"] if eff["eps_p"] is not None else 0.01
    eps_n = eff["eps_n"] if eff["eps_n"] is not None else 0.01
    eps_s = eff["eps_s"] if eff["eps_s"] is not None else 0.05
    return ErrorBudget(eps_p, eps_n, eps_s, omega, eff["confidence_delta"])


def _build_kernel(eff) -> KernelSpec:
    if eff["lam"] is None:
        return KernelSpec.from_resolution(
            eff["delta"], eff["sigma_leak"], eff["norm_scale"]
        )
    return KernelSpec(
        eff["delta"], eff["sigma_leak"], eff["lam"], eff["norm_scale"]
    )


# The moment flags each method reads besides --mu0 (default 1), in the
# order plan names a missing one; plan refuses the others.
_METHOD_READS = {
    "general": (),
    "variance": ("sigma", "mu1"),
    "central": ("central_order", "mu1", "central_value"),
}


def _flag_moments(eff) -> MomentSummary:
    """The moment summary the flags give: --mu0 (1 when unset), --mu1,
    --sigma and --central-value of order --central-order."""
    order = eff["central_order"]
    central = {} if order is None else {order: eff["central_value"]}
    mu0 = 1.0 if eff["mu0"] is None else eff["mu0"]
    return MomentSummary(mu0, eff["mu1"], eff["sigma"], central)


def cmd_plan(args) -> int:
    eff = _merge(args, _PLAN_SCHEMA)
    method, reads = eff["method"], _METHOD_READS[eff["method"]]
    if eff["spectrum"] is not None:
        for key in ("mu0", "mu1", "sigma", "central_value"):
            if eff[key] is not None:
                raise CliError(f"--spectrum and {_flag(key)} cannot be combined: "
                               "the spectrum sets the moments")
        # the spectrum gives the moments; the order still picks one
        reads = ("central_order",) if method == "central" else ()
    _require(eff, *reads, *(("window",) if method != "general" else ()))
    for key in ("mu1", "sigma", "central_order", "central_value"):
        if eff[key] is not None and key not in _METHOD_READS[method]:
            raise CliError(f"--method {method} does not read {_flag(key)}")
    kernel = _build_kernel(eff)
    moments = None
    if eff["spectrum"] is not None:
        spectrum = serialize.read_spectrum(eff["spectrum"])
        if eff["omega_scale"] is None and spectrum.n_eigen > 1:
            om = spectrum.eigenfrequencies
            eff["omega_scale"] = float(om[-1] - om[0]) / (spectrum.n_eigen - 1)
        orders = (2,) if eff["central_order"] is None else (2, eff["central_order"])
        moments = summarize(spectrum, orders=orders)
    budget = _build_budget(eff)
    window = None if eff["window"] is None else FrequencyWindow(*eff["window"])
    if moments is None:
        moments = _flag_moments(eff)
    plan = make_plan(
        method, kernel, budget, window=window, moments=moments,
        central_order=eff["central_order"], chi_mode=eff["chi_mode"],
        n_mode=eff["n_mode"], shots_mode=eff["shots_mode"],
        window_term=eff["window_term"], simplified=eff["simplified"],
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
    "period": (float, None, {"domain": POSITIVE}),
    "n_max": (int, None, {"domain": at_least(0)}),
    "sampled": (_bool_opt, False),
    "shots": (int, None, {"domain": at_least(1), "help": "shots per moment part"}),
    "seed": (int, 12345, {"domain": at_least(0)}),
    "clamp": (_bool_opt, False),
    "out": (str, None),
}


def _sampled_shots(eff: dict, plan) -> int | None:
    """Shots per moment part when the command samples, else None.

    --sampled or --shots turns sampling on, and eff's sampled then records
    the decision for the echo. The count is --shots, else the plan's
    shots_per_moment; --clamp without sampling is refused.
    """
    eff["sampled"] = eff["sampled"] or eff["shots"] is not None
    if not eff["sampled"]:
        if eff["clamp"]:
            raise CliError("--clamp needs sampled moments (--sampled or --shots)")
        return None
    shots = eff["shots"]
    if shots is None and plan is not None:
        shots = plan.shots_per_moment
    if shots is None:
        raise CliError("--shots is required for sampled moments")
    return shots


def cmd_moments(args) -> int:
    eff = _merge(args, _MOMENTS_SCHEMA)
    _require(eff, "spectrum", "out")
    if eff["plan"] is not None and eff["period"] is not None:
        raise CliError(
            "--plan and --period cannot be combined: the plan sets the period"
        )
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
    shots = _sampled_shots(eff, plan)
    if shots is not None:
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
    "grid_points": (int, 1024, {"domain": at_least(2)}),
    "range": (_pair_opt, None, {"domain": FINITE}),
    "sampled": (_bool_opt, False),
    "shots": (int, None, {"domain": at_least(1)}),
    "seed": (int, 12345, {"domain": at_least(0)}),
    "clamp": (_bool_opt, False),
    "out": (str, None, {"help": "curves CSV"}),
    "report_out": (str, None),
}


def cmd_reconstruct(args) -> int:
    eff = _merge(args, _RECONSTRUCT_SCHEMA)
    _require(eff, "spectrum", "plan", "out")
    spectrum = serialize.read_spectrum(eff["spectrum"])
    plan = serialize.read_plan(eff["plan"])
    shots = _sampled_shots(eff, plan)
    kernel, budget, window = _plan_inputs(plan)
    if eff["range"]:
        window = FrequencyWindow(*eff["range"])
    if window is None:
        raise CliError("plan has no window; pass --range MIN,MAX")
    grid = np.linspace(window.nu_min, window.nu_max, eff["grid_points"])
    curves = list(_curves(spectrum, plan, kernel, grid))
    lines = asdict(_measure(*curves, budget))
    del lines["n_grid"]
    if shots is not None:
        periodic = PeriodicKernelParams.from_period(plan.period, kernel)
        sampled = sampled_moments(spectrum, periodic.dt, plan.n_terms, shots,
                                  eff["seed"], clamp=eff["clamp"])
        srec = reconstruct(sampled, kernel, periodic, plan.n_terms, grid)
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
    "eps_min": (float, 1e-4, {"domain": POSITIVE}),
    "eps_max": (float, 1e-1, {"domain": POSITIVE}),
    "points": (int, 10, {"domain": at_least(1)}),
    "grid_points": (int, 1024, {"domain": at_least(2)}),
    "window": (_pair_opt, [-1.0, -0.8], {"domain": FINITE}),
    "n_eigen": (int, 512, {"domain": at_least(1)}),
    "delta": (float, 0.02, {"domain": POSITIVE}),
    "sigma_leak": (float, 0.01, {"domain": UNIT}),
    "eps_s": (float, 0.05, {"domain": POSITIVE}),
    "confidence_delta": (float, 0.05, {"domain": UNIT}),
    "window_term": (str, "max", {"choices": _WINDOW_TERM_MODES}),
    "out": (str, None),
}


def cmd_sweep(args) -> int:
    eff = _merge(args, _SWEEP_SCHEMA)
    if not eff["eps_min"] <= eff["eps_max"]:
        raise CliError(f"--eps-max must be >= --eps-min ({eff['eps_min']}), "
                       f"got {eff['eps_max']}")
    _require(eff, "out")
    kinds = [k.strip().upper() for k in eff["models"].split(",") if k.strip()]
    if not kinds:
        raise CliError("--models must name at least one model")
    unknown = [k for k in kinds if k not in _MODEL_KINDS]
    if unknown:
        raise CliError(f"--models: unknown model kind {unknown[0]!r}; "
                       f"expected one of {', '.join(_MODEL_KINDS)}")
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
    "model": (str, "A", {"choices": _MODEL_CHOICES}),
    "seeds": (int, 200, {"domain": at_least(1)}),
    "seed0": (int, 2026, {"domain": at_least(0)}),
    "scales": (_float_list_opt, [1.0, 0.01], {"domain": POSITIVE}),
    "grid_points": (int, 257, {"domain": at_least(2)}),
    "window": (_pair_opt, [-1.0, -0.8], {"domain": FINITE}),
    "delta": (float, 0.02, {"domain": POSITIVE}),
    "sigma_leak": (float, 0.01, {"domain": UNIT}),
    "eps_p": (float, 0.01, {"domain": POSITIVE}),
    "eps_n": (float, 0.01, {"domain": POSITIVE}),
    "eps_s": (float, 0.05, {"domain": POSITIVE}),
    "confidence_delta": (float, 0.05, {"domain": UNIT}),
    "shots_mode": (str, "conservative", {"choices": _SHOTS_MODES}),
    "out": (str, None),
}


def cmd_shots_demo(args) -> int:
    eff = _merge(args, _SHOTS_DEMO_SCHEMA)
    if not eff["scales"]:
        raise CliError("--scales must name at least one scale")
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
            sampled = sampled_moments(spectrum, periodic.dt, plan.n_terms,
                                      shots, eff["seed0"] + i)
            rec = reconstruct(sampled, kernel, periodic, plan.n_terms, grid)
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
    """Reference values reproduced by the standard workflows, and the
    conventions of the plans that generate them."""
    rows = []

    kernel = KernelSpec.from_resolution(0.02, 0.01, 1.0)
    rows.append(("kernel_width", kernel.lam, 0.0065901, 1e-6))

    budget = ErrorBudget(0.01, 0.01, 0.05, 2.0 / 512.0)
    general = make_plan("general", kernel, budget)
    rows.append(("chi_general", general.chi, 2.0204, 1e-3))
    rows.append(("n_terms_general", general.n_terms, 218, 0))

    window = FrequencyWindow(-1.0, -0.8)
    for kind, mu_ref, sigma_ref, ratio_ref, ratio_tol, n_ref in (
        ("A", -0.911, 0.031, 0.111, 0.003, 25),
        ("B", -0.907, 0.067, 0.14, 0.005, 31),
    ):
        summ = summarize(make_model(kind))
        rows.append((f"model_{kind}_mu1", summ.mu1, mu_ref, 0.005))
        rows.append((f"model_{kind}_sigma", summ.sigma, sigma_ref, 0.005))
        plan = make_plan("variance", kernel, budget, window=window, moments=summ)
        rows.append((f"period_ratio_{kind}", plan.period / general.period,
                     ratio_ref, ratio_tol))
        rows.append((f"n_terms_{kind}", plan.n_terms, n_ref, 0))

    nuc_budget = ErrorBudget(0.01, 0.01, 0.05, 1.0)
    resonance = make_plan(
        "variance", KernelSpec.from_resolution(1.0, 0.01, 100.0), nuc_budget,
        window=FrequencyWindow(0.0, 100.0),
        moments=MomentSummary(mu0=1.0, mu1=20.0, sigma=22.0),
    )
    rows.append(("n_terms_resonance", resonance.n_terms, 339, 0))

    norm_bound = make_plan(
        "general", KernelSpec.from_resolution(1.0, 0.01, 7987.5), nuc_budget,
        chi_mode="nyquist",
    )
    rows.append(("n_terms_norm_bound", norm_bound.n_terms, 42372, 1))

    quasielastic = make_plan(
        "variance", KernelSpec.from_resolution(1.0, 0.01, 400.0), nuc_budget,
        window=FrequencyWindow(0.0, 400.0),
        moments=MomentSummary(mu0=1.0, mu1=400.0**2 / (2.0 * 939.0), sigma=250.0),
        window_term="min",
    )
    rows.append(("n_terms_quasielastic_window_min", quasielastic.n_terms,
                 838, 84))

    shots = {mode: shots_value(general.n_terms, general.chi, kernel, budget,
                               mode=mode) for mode in _SHOTS_MODES}
    rows.append(("shots_ratio_chebyshev",
                 shots["chebyshev"] / shots["conservative"], 2.0, 1e-12))
    rows.append(("shots_uncorrelated_saves",
                 float(shots["uncorrelated"] < shots["conservative"]), 1.0, 0))
    conventions = {
        "norm_bound_chi_mode": norm_bound.inputs_echo["chi_mode"],
        "quasielastic_window_term": quasielastic.inputs_echo["window_term_mode"],
    }
    return rows, conventions


_REPORT_SCHEMA = {"out": (str, None)}


def cmd_report(args) -> int:
    eff = _merge(args, _REPORT_SCHEMA)
    rows, conventions = _reference_rows()
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
            opts = {k: v for k, v in dict(*extras).items() if k != "domain"}
            p.add_argument(_flag(key), **form, **opts)
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
