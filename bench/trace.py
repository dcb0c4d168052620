"""Span and counter recorder, and the wrappers that feed it from outside.

``instrument`` replaces every module-level binding of a public function in
the ``morphwheel`` package with a wrapper that records a span (or, for the
functions called once per transformation step, only a count). A function
bound in several modules, such as ``wheelgeom.transform_profile`` and
``quasistatics.transform_profile``, is recorded under one name wherever it
is called from. Functions outside ``SPANNED`` are spanned too, though not
reported, so that a reported self time holds only the function's own code
(``cli.main`` without the command it dispatches to). Spans stay in memory;
``dump`` writes them out at the end.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import Counter
from pathlib import Path

# The layers' public functions that get per-layer metrics, by module.
SPANNED = {
    "params": ("load", "validate"),
    "telescopic": ("module_lengths", "min_screw_length", "scan_min_screw_length",
                   "min_levels"),
    "bending": ("chassis_diameter", "rod_sizing"),
    "wheelgeom": ("transform_profile", "keyframes_document", "write_keyframes"),
    "quasistatics": ("torque_profile", "load_force_table_path"),
    "report": ("design_card", "consistency_warnings"),
    "cli": ("main", "set_field"),
}
# Called once per transformation step: counted, never spanned, so that the
# traced run stays close to the untraced one.
COUNTED = {
    "quasistatics": ("silicone_force", "screw_torque"),
    "wheelgeom": ("bulge_radius", "trigger_state", "keyframe_record"),
}
# Extra counters: the length of what a function returns.
RESULT_LENGTHS = {"wheelgeom.transform_profile": "wheelgeom.transform_profile.states"}
REPORTED_COUNTS = ("quasistatics.silicone_force", "quasistatics.screw_torque")


class Recorder:
    """In-memory spans ``[op, name, parent, start, end]`` plus named counters."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter[str] = Counter()
        self.op: str | None = None  # the benchmark operation spans belong to
        self._open: list[int] = []

    def call(self, name: str, fn, args, kwargs):
        self.counts[name + ".calls"] += 1
        span = [self.op, name, self._open[-1] if self._open else -1,
                time.perf_counter(), 0.0]
        self._open.append(len(self.spans))
        self.spans.append(span)
        try:
            result = fn(*args, **kwargs)
        finally:
            span[4] = time.perf_counter()
            self._open.pop()
        if name in RESULT_LENGTHS:
            self.counts[RESULT_LENGTHS[name]] += len(result)
        return result

    def self_times(self) -> Counter[str]:
        """Per name: span time minus the time of its direct child spans.

        Calls nest on one thread, so the children of a span never overlap
        and their summed durations are the part of it they cover.
        """
        covered = [0.0] * len(self.spans)
        for _, _, parent, start, end in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: Counter[str] = Counter()
        for (_, name, _, start, end), child in zip(self.spans, covered):
            out[name] += end - start - child
        return out

    def dump(self, path: Path) -> None:
        path.write_text(json.dumps({
            "fields": ["op", "name", "parent", "start_s", "end_s"],
            "spans": self.spans,
            "counts": dict(sorted(self.counts.items())),
        }) + "\n", encoding="utf-8")


def _spanned(rec: Recorder, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return rec.call(name, fn, args, kwargs)
    return wrapper


def _counted(rec: Recorder, name: str, fn):
    key = name + ".calls"

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        rec.counts[key] += 1
        return fn(*args, **kwargs)
    return wrapper


def instrument(rec: Recorder) -> tuple[callable, list[str]]:
    """Wrap the package's function bindings; return (restore, absent names)."""
    modules = [m for name, m in sorted(sys.modules.items())
               if name == "morphwheel" or name.startswith("morphwheel.")]
    by_name = {name.rsplit(".", 1)[-1]: m for name, m in
               ((m.__name__, m) for m in modules)}
    names: dict[object, tuple[str, bool]] = {}
    absent = []
    for table, spanned in ((SPANNED, True), (COUNTED, False)):
        for module, functions in table.items():
            for fn_name in functions:
                fn = getattr(by_name.get(module), fn_name, None)
                if inspect.isfunction(fn):
                    names[fn] = (f"{module}.{fn_name}", spanned)
                else:
                    absent.append(f"{module}.{fn_name}")
    patched = []
    for module in modules:
        for attr, fn in list(vars(module).items()):
            if attr.startswith("_") or not inspect.isfunction(fn) \
                    or not fn.__module__.startswith("morphwheel"):
                continue
            default = (f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__qualname__}", True)
            name, spanned = names.get(fn, default)
            wrap = _spanned if spanned else _counted
            setattr(module, attr, wrap(rec, name, fn))
            patched.append((module, attr, fn))

    def restore() -> None:
        for module, attr, fn in patched:
            setattr(module, attr, fn)
    return restore, absent


def layer_metrics(rec: Recorder) -> dict[str, tuple[float, str]]:
    """Every per-layer metric: ``(value, unit)`` by name; absent ones read 0."""
    self_s = rec.self_times()
    out = {}
    for module, functions in SPANNED.items():
        for fn_name in functions:
            name = f"{module}.{fn_name}"
            out[name + ".calls"] = (rec.counts[name + ".calls"], "count")
            out[name + ".self_s"] = (self_s[name], "s")
    for name in RESULT_LENGTHS.values():
        out[name] = (rec.counts[name], "count")
    for name in REPORTED_COUNTS:
        out[name + ".calls"] = (rec.counts[name + ".calls"], "count")
    return out
