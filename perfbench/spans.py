"""Span tracing of `mama` from outside the package.

`Tracer.install` replaces each public entry point by a wrapper at every
module that imported it by name, so calls made through any of those
bindings are recorded.  A span holds its request id, its parent span, a
name and perf_counter start and end; spans stay in memory until the
benchmark writes them out.  Self time is a span's duration minus the
durations of its direct children; the program is single-threaded, so
children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict


def _solve_counts(result) -> dict[str, float]:
    return {"mdpsolve.ssp_sweeps": result.iterations}


def _unichain_counts(result) -> dict[str, float]:
    return {"longrun.unichain_sweeps": result[2]}


def _timed_counts(result) -> dict[str, float]:
    return {"timedreach.steps": result.steps + result.steps_a}


# (span name, counter derived from the return value or None, bindings).
# A binding is (module path, attribute); "mama.mdpsolve.ZeroTimePropagator"
# names a class whose method is patched in place.
ENTRY_POINTS = [
    ("cli.run", None, [("mama.cli", "run")]),
    ("parser.parse", None, [("mama.cli", "parse"), ("mama.parser", "parse")]),
    ("model.validate", None, [("mama.cli", "validate"), ("mama.model", "validate")]),
    ("model.make_absorbing", None, [
        ("mama.exptime", "make_absorbing"),
        ("mama.timedreach", "make_absorbing"),
        ("mama.model", "make_absorbing"),
    ]),
    ("graph.check_non_zeno", None, [("mama.graph", "check_non_zeno")]),
    ("graph.mecs", None, [("mama.graph", "mecs")]),
    ("graph.almost_sure_reach", None, [("mama.graph", "almost_sure_reach")]),
    ("mdpsolve.solve_ssp", _solve_counts, [
        ("mama.exptime", "solve_ssp"),
        ("mama.longrun", "solve_ssp"),
        ("mama.mdpsolve", "solve_ssp"),
    ]),
    ("mdpsolve.zero_time_build", None, [("mama.mdpsolve.ZeroTimePropagator", "__init__")]),
    ("mdpsolve.zero_time_apply", None, [("mama.mdpsolve.ZeroTimePropagator", "apply")]),
    ("exptime.expected_time", None, [("mama.cli", "expected_time"), ("mama.exptime", "expected_time")]),
    ("longrun.lra", None, [("mama.cli", "lra"), ("mama.longrun", "lra")]),
    ("longrun.lra_unichain", _unichain_counts, [("mama.longrun", "lra_unichain")]),
    ("timedreach.timed_reachability", _timed_counts, [
        ("mama.cli", "timed_reachability"),
        ("mama.timedreach", "timed_reachability"),
    ]),
    ("timedreach.discretise", None, [("mama.timedreach", "discretise")]),
    ("timedreach.step_loop", None, [("mama.timedreach", "step_bounded_reach")]),
]


def _resolve(path: str):
    module_path, _, tail = path.rpartition(".")
    try:
        return importlib.import_module(path)
    except ModuleNotFoundError:
        return getattr(importlib.import_module(module_path), tail)


class Tracer:
    """Records spans of the wrapped entry points while installed."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.counts: list[tuple[int, str, float]] = []  # (request, counter, amount)
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self.request = 0

    def _wrap(self, name: str, counter, fn):
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = {
                "request": self.request,
                "id": len(spans),
                "parent": stack[-1] if stack else None,
                "name": name,
            }
            spans.append(span)
            stack.append(span["id"])
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
            if counter is not None:
                for key, amount in counter(result).items():
                    counts.append((self.request, key, amount))
            return result

        return wrapper

    def install(self) -> None:
        wrapped: dict[int, object] = {}  # one wrapper per original function
        for name, counter, bindings in ENTRY_POINTS:
            for owner_path, attr in bindings:
                owner = _resolve(owner_path)
                original = getattr(owner, attr)
                if id(original) not in wrapped:
                    wrapped[id(original)] = self._wrap(name, counter, original)
                self._saved.append((owner, attr, original))
                setattr(owner, attr, wrapped[id(original)])

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()


def self_times(spans: list[dict]) -> list[float]:
    """Per span, its duration minus that of its direct children."""
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def per_request(tracer: Tracer) -> dict[int, dict[str, float]]:
    """Per request: self seconds (`<name>_s`), call counts (`<name>_calls`)
    and the return-value counters, each summed, and `wall`, the duration
    of its root spans."""
    out: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for span, own in zip(tracer.spans, self_times(tracer.spans)):
        row = out[span["request"]]
        row[span["name"] + "_s"] += own
        row[span["name"] + "_calls"] += 1
        if span["parent"] is None:
            row["wall"] += span["end"] - span["start"]
    for request, key, amount in tracer.counts:
        out[request][key] += amount
    return out
