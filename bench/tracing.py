"""In-memory span tracing of smilecal's layers, attached from outside.

:func:`install` replaces public names of the package's modules, at the
module attribute through which their callers look them up, with wrappers
that record a span (name, start, end, parent, value) around each call.
:func:`restore` puts the originals back. Spans stay in memory until the
benchmark writes them out.
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 for a root
    value: float = 0.0  # layer-specific count: points, bytes, LM iterations


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent))
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def end(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._open.pop()

    def wrap(self, module, attr: str, name: str, value=None) -> None:
        """Replace ``module.attr`` by a traced wrapper. ``value(args, kwargs,
        result)`` gives the span's count."""
        original = getattr(module, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = self.begin(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self.end(index)
            if value is not None:
                self.spans[index].value = float(value(args, kwargs, result))
            return result

        self._patched.append((module, attr, original))
        setattr(module, attr, traced)

    def restore(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps([s.name, s.start, s.end, s.parent, s.value]) + "\n")


def _written_bytes(args, kwargs, result) -> int:
    return os.stat(args[0]).st_size


def install(tracer: Tracer) -> None:
    """Wrap every traced name of the package. Imports smilecal."""
    from smilecal import adiabatic, cli, density, smile

    def points(args, kwargs, result):
        return result.xs.size

    def iterations(args, kwargs, result):
        return result.iterations

    for module in (density, adiabatic):
        tracer.wrap(module, "analyze", "density.analyze")
        tracer.wrap(module, "density_curve", "density.curve", points)
    tracer.wrap(density, "stationary_points", "density.stationary_points")
    tracer.wrap(density, "bl_density_oracle", "density.oracle")
    tracer.wrap(adiabatic, "chi_critical_numeric", "adiabatic.search")
    tracer.wrap(adiabatic, "calibrate_critical_fit", "adiabatic.calibrate")
    tracer.wrap(adiabatic, "adiabatic_check", "adiabatic.check")
    for module in (cli, smile):
        tracer.wrap(module, "fit_smile", "smile.fit", iterations)
    tracer.wrap(cli, "constrained_fit_smile", "smile.constrained_fit", iterations)
    tracer.wrap(smile, "delta_to_x", "bs_core.convert")
    tracer.wrap(cli, "strike_to_x", "bs_core.convert")
    tracer.wrap(cli, "write_csv", "cli.write", _written_bytes)
    tracer.wrap(cli, "write_report", "cli.write", _written_bytes)
    tracer.wrap(cli, "parse_quote_file", "cli.parse")
    tracer.wrap(cli, "read_report", "cli.parse")
    for command in ("fit", "check", "refit", "density", "bl_oracle"):
        tracer.wrap(cli, f"cmd_{command}", f"cli.{command}")


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of its interval that its
    children cover (overlapping children are counted once)."""
    children: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append(s)
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        cursor = s.start
        for c in sorted(children.get(i, ()), key=lambda c: c.start):
            lo, hi = max(c.start, cursor), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append((s.end - s.start) - covered)
    return out


def _ancestor_counts(spans: list[Span], inner: str, outer: str) -> int:
    """Number of ``inner`` spans that have an ``outer`` span above them."""
    count = 0
    for s in spans:
        if s.name != inner:
            continue
        p = s.parent
        while p >= 0 and spans[p].name != outer:
            p = spans[p].parent
        count += p >= 0
    return count


PER_OP_TIMES = (
    "density.analyze", "density.stationary_points", "density.curve", "density.oracle",
    "adiabatic.calibrate", "smile.fit", "smile.constrained_fit", "cli.write", "cli.parse",
    "bs_core.convert",
)
PER_OP_CALLS = (
    "density.analyze", "density.curve", "density.oracle", "adiabatic.search",
    "adiabatic.check", "smile.fit", "smile.constrained_fit", "bs_core.convert",
)
PER_OP_SELF = ("adiabatic.search", "cli.fit", "cli.check", "cli.refit", "cli.density",
               "cli.bl_oracle")


def layer_metrics(spans: list[Span], ops: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of a traced round of ``ops`` ops: name -> (value, unit)."""
    calls: dict[str, int] = defaultdict(int)
    total: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    value: dict[str, float] = defaultdict(float)
    for s, self_s in zip(spans, self_times(spans)):
        calls[s.name] += 1
        total[s.name] += s.end - s.start
        own[s.name] += self_s
        value[s.name] += s.value

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    out: dict[str, tuple[float, str]] = {}
    for name in PER_OP_CALLS:
        out[f"{name}.calls"] = (calls[name] / ops, "count/op")
    for name in PER_OP_TIMES:
        out[f"{name}.ms"] = (1e3 * total[name] / ops, "ms/op")
    for name in PER_OP_SELF:
        out[f"{name}.self_ms"] = (1e3 * own[name] / ops, "ms/op")
    out["density.curve.points"] = (value["density.curve"] / ops, "points/op")
    out["cli.write.bytes"] = (value["cli.write"] / ops, "B/op")
    out["smile.fit.lm_iterations"] = (ratio(value["smile.fit"], calls["smile.fit"]), "count/fit")
    out["smile.constrained_fit.lm_iterations"] = (
        ratio(value["smile.constrained_fit"], calls["smile.constrained_fit"]), "count/fit")
    out["adiabatic.search.verdicts"] = (
        ratio(_ancestor_counts(spans, "density.analyze", "adiabatic.search"),
              calls["adiabatic.search"]), "count/search")
    out["cli.refit.searches"] = (
        ratio(_ancestor_counts(spans, "adiabatic.search", "cli.refit"), calls["cli.refit"]),
        "count/refit")
    return out
