"""Deterministic on-disk formats: CSV tables and key=value blocks.

All floats are written with 17 significant digits (enough to round-trip
float64 exactly), all files use LF line endings, and metadata rides along
as '# key=value' comment lines before the CSV header. Writing the same
objects twice produces byte-identical files.
"""

from __future__ import annotations

import csv
import re

import numpy as np

from .moments import FourierMomentSet
from .planner import ExtensionPlan, _plan_inputs
from .spectrum import DiscreteSpectrum
from .transform import TransformCurve

_INT_RE = re.compile(r"^[+-]?\d+$")


def format_value(v) -> str:
    """Canonical text form: '' for None, 17 significant digits for floats."""
    if v is None:
        return ""
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return f"{float(v):.17g}"
    return str(v)


def parse_value(s: str):
    """Inverse of format_value with type inference."""
    s = s.strip()
    if s == "":
        return None
    if s == "true":
        return True
    if s == "false":
        return False
    if _INT_RE.match(s):
        return int(s)
    try:
        return float(s)
    except ValueError:
        return s


def _keyvalue_lines(d: dict) -> list[str]:
    return [f"{k}={format_value(v)}" for k, v in d.items()]


def write_keyvalues(path, d: dict) -> None:
    with open(path, "w", newline="\n") as fh:
        for line in _keyvalue_lines(d):
            fh.write(line + "\n")


def _read_pairs(lines, source) -> dict:
    """Raw key -> value strings of key=value lines; '#' comments and blank
    lines are skipped, a line without '=' raises naming source:lineno."""
    out = {}
    for lineno, raw in enumerate(lines, 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(
                f"{source}:{lineno}: expected key=value, got {line!r}"
            )
        key, _, val = line.partition("=")
        out[key.strip()] = val.strip()
    return out


def _typed(pairs: dict) -> dict:
    return {key: parse_value(val) for key, val in pairs.items()}


def read_keyvalues(path) -> dict:
    with open(path, "r") as fh:
        return _typed(_read_pairs(fh, path))


def plan_to_text(plan: ExtensionPlan) -> str:
    return "\n".join(_keyvalue_lines(plan.to_dict())) + "\n"


def plan_from_text(text: str) -> ExtensionPlan:
    pairs = _read_pairs(text.splitlines(), "<plan text>")
    return ExtensionPlan.from_dict(_typed(pairs))


def write_plan(path, plan: ExtensionPlan) -> None:
    write_keyvalues(path, plan.to_dict())


def read_plan(path) -> ExtensionPlan:
    """The plan in a key=value file, with its echoed kernel, budget and
    window checked; a refusal names path."""
    values = read_keyvalues(path)
    try:
        plan = ExtensionPlan.from_dict(values)
        _plan_inputs(plan)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    return plan


def _open_csv_writer(fh, metadata: dict | None):
    if metadata:
        for line in _keyvalue_lines(metadata):
            fh.write("# " + line + "\n")
    return csv.writer(fh, lineterminator="\n")


def _read_csv_with_metadata(path, columns=None):
    """Header, rows and '# key=value' metadata of a CSV file.

    columns, when given, is a sequence of (name, converter) pairs: the
    header must start with those names, and each row is returned as its
    converted leading cells. A row of the wrong width or a cell that does
    not convert raises ValueError naming path:line. The bodies of the
    comment lines that hold '=' go through the key=value parser.
    """
    bodies = []
    rows = []
    with open(path, "r", newline="") as fh:
        header = None
        for lineno, raw in enumerate(fh, 1):
            line = raw.rstrip("\n").rstrip("\r")
            if not line:
                continue
            if line.startswith("#"):
                body = line.lstrip("#")
                if "=" in body:
                    bodies.append(body)
                continue
            cells = next(csv.reader([line]))
            if header is None:
                header = cells
                if columns is not None:
                    names = [name for name, _ in columns]
                    if header[: len(names)] != names:
                        raise ValueError(
                            f"{path}: expected header {','.join(names)}, "
                            f"got {header}"
                        )
            elif len(cells) != len(header):
                raise ValueError(
                    f"{path}:{lineno}: expected {len(header)} cells as in the "
                    f"header, got {len(cells)}"
                )
            elif columns is None:
                rows.append(cells)
            else:
                try:
                    rows.append([conv(c) for (_, conv), c in zip(columns, cells)])
                except ValueError as exc:
                    raise ValueError(f"{path}:{lineno}: {exc}") from None
    if header is None:
        raise ValueError(f"{path}: no CSV header found")
    return header, rows, _typed(_read_pairs(bodies, path))


def _number(value) -> float:
    """float of a parsed metadata value; true/false are not numbers."""
    if isinstance(value, bool):
        raise ValueError(value)
    return float(value)


def _metadata(metadata: dict, path, key, convert=_number, default=None):
    """metadata[key] through convert, or default when the key is missing and
    a default is given; otherwise a missing key or a value that does not
    convert raises ValueError naming path and key."""
    if key not in metadata:
        if default is None:
            raise ValueError(f"{path}: missing metadata line '# {key}=...'")
        return default
    try:
        return convert(metadata[key])
    except (TypeError, ValueError):
        raise ValueError(
            f"{path}: metadata {key}={metadata[key]!r} is not a number"
        ) from None


def write_table(path, columns, rows, metadata: dict | None = None) -> None:
    """Generic CSV table with an optional metadata comment block."""
    with open(path, "w", newline="\n") as fh:
        writer = _open_csv_writer(fh, metadata)
        writer.writerow(list(columns))
        for row in rows:
            writer.writerow([format_value(c) for c in row])


def write_spectrum(path, spectrum: DiscreteSpectrum) -> None:
    """Two-column CSV (omega, weight); norm_scale rides in the metadata."""
    rows = zip(spectrum.eigenfrequencies, spectrum.weights)
    write_table(
        path, ("omega", "weight"), rows, metadata={"norm_scale": spectrum.norm_scale}
    )


def read_spectrum(path) -> DiscreteSpectrum:
    _, rows, metadata = _read_csv_with_metadata(
        path, (("omega", float), ("weight", float))
    )
    om = np.array([r[0] for r in rows], dtype=np.float64)
    w = np.array([r[1] for r in rows], dtype=np.float64)
    norm_scale = _metadata(metadata, path, "norm_scale", default=1.0)
    try:
        return DiscreteSpectrum(om, w, norm_scale=norm_scale)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def write_moments(path, moments: FourierMomentSet) -> None:
    """Three-column CSV (n, re, im); dt, mu0 and provenance in metadata."""
    meta = {
        "dt": moments.dt,
        "mu0": moments.mu0,
        "provenance": moments.provenance,
        "shots_per_part": moments.shots_per_part,
        "seed": moments.seed,
    }
    rows = (
        (n, v.real, v.imag) for n, v in enumerate(moments.values)
    )
    write_table(path, ("n", "re", "im"), rows, metadata=meta)


def read_moments(path) -> FourierMomentSet:
    """The moment set in a (n, re, im) CSV file; a refusal names path."""
    _, rows, metadata = _read_csv_with_metadata(
        path, (("n", int), ("re", float), ("im", float))
    )
    order = [r[0] for r in rows]
    if order != list(range(len(order))):
        raise ValueError(f"{path}: moment orders must run 0..n_max contiguously")
    vals = np.array([complex(r[1], r[2]) for r in rows])
    dt = _metadata(metadata, path, "dt")
    provenance = _metadata(metadata, path, "provenance", str)
    mu0 = _metadata(metadata, path, "mu0")
    try:
        return FourierMomentSet(
            dt=dt,
            values=vals,
            provenance=provenance,
            mu0=mu0,
            shots_per_part=metadata.get("shots_per_part"),
            seed=metadata.get("seed"),
        )
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def write_curves(path, curves, metadata: dict | None = None) -> None:
    """Concatenated (nu, value, kind) rows for one or more curves."""
    rows = []
    for curve in curves:
        for nu, val in zip(curve.grid, curve.values):
            rows.append((nu, val, curve.kind))
    write_table(path, ("nu", "value", "kind"), rows, metadata=metadata)


def read_curves(path):
    """Returns (curves, metadata); rows are regrouped by kind in file order.
    A refusal names path."""
    _, rows, metadata = _read_csv_with_metadata(
        path, (("nu", float), ("value", float), ("kind", str))
    )
    groups: dict[str, list] = {}
    order = []
    for nu, val, kind in rows:
        if kind not in groups:
            groups[kind] = []
            order.append(kind)
        groups[kind].append((nu, val))
    curves = []
    for kind in order:
        pts = np.array(groups[kind])
        try:
            curves.append(TransformCurve(pts[:, 0], pts[:, 1], kind))
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
    return curves, metadata


def read_config(path) -> dict:
    """Line-based key=value config file; '#' comments and blanks allowed.

    Values are returned as raw strings; the CLI validates and converts
    them against each command's known options.
    """
    with open(path, "r") as fh:
        return _read_pairs(fh, path)
