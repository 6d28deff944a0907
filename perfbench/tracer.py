"""Span recorder that traces fouriergit from outside the package.

Tracer.install replaces every public function of the package (the names in
fouriergit.__all__, the public classmethods of the classes listed there, the
read_* and write_* file functions of fouriergit.serialize, and
fouriergit.cli.main) with a timing wrapper, in every fouriergit module that binds the name. Nested calls
such as the exact_moments call inside sampled_moments go through the module
global and are therefore caught too. Private helpers (fouriergit._backend)
are never wrapped: their cost shows as the self time of the public caller.

A span is (name, start, end, parent index, operation index). Spans stay in memory until
write() is called at the end of a run. Work counts are taken at the same
boundaries as the spans.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict

import numpy as np

import fouriergit
import fouriergit.cli
import fouriergit.serialize

_CHUNK_ROWS = 256  # grid rows per broadcast block in the numpy resummation
_COMPLEX_BYTES = 16


def _span_name(fn) -> str:
    return fn.__module__.removeprefix("fouriergit.") + "." + fn.__qualname__


def _cli_name(args, kwargs) -> str:
    argv = list(args[0] if args else kwargs.get("argv") or [])
    if not argv:
        return "cli.main"
    suffix = "_sampled" if "--sampled" in argv else ""
    return f"cli.{argv[0]}{suffix}"


def _array_key(a) -> tuple:
    arr = np.ascontiguousarray(a, dtype=np.float64)
    return arr.shape, hash(arr.tobytes())


def _spectrum_key(s) -> tuple:
    return _array_key(s.eigenfrequencies), _array_key(s.weights)


def _moments_key(m) -> tuple:
    return m.provenance, m.seed, m.shots_per_part, m.dt, hash(m.values.tobytes())


class Tracer:
    """Collects spans and work counts while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        self._curves_seen: set = set()
        self._op = -1

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        targets = [fouriergit.cli.main]
        for name in fouriergit.__all__:
            obj = getattr(fouriergit, name)
            if inspect.isfunction(obj):
                targets.append(obj)
            elif inspect.isclass(obj):
                for attr, raw in list(vars(obj).items()):
                    if not attr.startswith("_") and isinstance(
                        raw, (classmethod, staticmethod)
                    ):
                        self._patch(obj, attr, raw)
        ser = fouriergit.serialize
        for name, obj in vars(ser).items():
            if (
                name.startswith(("read_", "write_"))
                and inspect.isfunction(obj)
                and obj.__module__ == ser.__name__
            ):
                targets.append(obj)

        wrappers = {fn: self._wrap(fn) for fn in targets}
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (
                modname == "fouriergit" or modname.startswith("fouriergit.")
            ):
                continue
            for attr, val in list(vars(mod).items()):
                if inspect.isfunction(val) and val in wrappers:
                    self._patches.append((mod, attr, val))
                    setattr(mod, attr, wrappers[val])

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _patch(self, cls, attr, raw) -> None:
        kind = type(raw)
        self._patches.append((cls, attr, raw))
        setattr(cls, attr, kind(self._wrap(raw.__func__)))

    def _wrap(self, fn):
        name = _span_name(fn)
        sig = inspect.signature(fn)
        counter = getattr(self, "_count_" + name.replace(".", "_"), None)
        namer = _cli_name if name == "cli.main" else None
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_name = namer(args, kwargs) if namer else name
            parent = stack[-1] if stack else -1
            if counter is not None:
                bound = sig.bind(*args, **kwargs).arguments
                counter(bound, spans[parent][0] if parent >= 0 else None)
            idx = len(spans)
            spans.append([span_name, clock(), 0.0, parent, self._op])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()

        return wrapper

    # -- work counts --------------------------------------------------------

    def begin_op(self) -> None:
        """Start a new operation: distinct curves are counted per operation."""
        self._curves_seen.clear()
        self._op += 1

    def _curve(self, key) -> None:
        self.counts["curve_evals"] += 1
        if key not in self._curves_seen:
            self._curves_seen.add(key)
            self.counts["curves_distinct"] += 1

    def _count_moments_exact_moments(self, a, parent) -> None:
        self.counts["moments.exact_moments.line_orders"] += a[
            "spectrum"
        ].n_eigen * (int(a["n_max"]) + 1)
        if parent is None or parent.startswith("cli."):
            self.counts["moments.exact_moments.workload_calls"] += 1

    def _count_moments_sampled_moments(self, a, parent) -> None:
        self.counts["moments.sampled_moments.part_draws"] += 2 * int(a["n_max"])

    def _count_transform_exact_transform(self, a, parent) -> None:
        grid = np.asarray(a["grid"], dtype=np.float64)
        periodic = a.get("periodic")
        images = 1 if periodic is None else 2 * periodic.wrap_count + 1
        self.counts["transform.exact_transform.grid_line_images"] += (
            grid.size * a["spectrum"].n_eigen * images
        )
        period = None if periodic is None else periodic.period
        self._curve(
            ("T", _spectrum_key(a["spectrum"]), a["lam"], _array_key(grid), period)
        )

    def _count_transform_reconstruct(self, a, parent) -> None:
        grid = np.asarray(a["grid"], dtype=np.float64)
        n = int(a["n_terms"])
        self.counts["transform.reconstruct.grid_terms"] += grid.size * n
        key = "transform.reconstruct.chunk_bytes_computed"
        self.counts[key] = max(self.counts[key], _CHUNK_ROWS * n * _COMPLEX_BYTES)
        self._curve(
            (
                "R",
                _moments_key(a["moments"]),
                a["kernel"].lam,
                a["periodic"].period,
                n,
                _array_key(grid),
                bool(a.get("full_series", False)),
            )
        )

    # -- results ------------------------------------------------------------

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds and self seconds."""
        child = [0.0] * len(self.spans)
        for _name, start, end, parent, _op in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for i, (name, start, end, _parent, _op) in enumerate(self.spans):
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child[i]
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(
                {"spans": self.spans, "counts": dict(self.counts)}, fh, indent=None
            )
