"""Outside-in span tracer for the benchmark.

The tracer wraps the public functions of the ``sntorsion`` modules (and the
public methods of the classes they define) from outside the package.  Every
wrapper is installed on *every* binding of the wrapped object, found by
identity: module attributes in all loaded ``sntorsion.*`` modules (so
``cases.enumerate_system`` and ``solver.enumerate_system`` both report as
``solver.enumerate_system``) and values of module-level dicts (so the
``cases.FILTERS`` entry is traced too).  Private functions (leading ``_``)
are never wrapped.

A span has a name, start, end, parent span and op id.  Spans live in memory
(up to ``MAX_SPANS``; later ones are aggregated but not stored) and are
written out when the run ends.  Self time is a span's duration minus the time
its child spans cover; calls never overlap because everything runs on one
thread.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from collections import defaultdict
from time import perf_counter

TRACED_MODULES = (
    "partitions",
    "characters",
    "cyclotomic",
    "luthar_passi",
    "lemma_filters",
    "solver",
    "table_io",
    "cases",
    "reports",
    "cli",
)

MAX_SPANS = 100_000  # spans kept in memory; later ones are only aggregated

# Per-entry accessors are called once per class per form (millions of times
# in a sweep); a span each would cost more than the work they measure.
UNTRACED_METHODS = frozenset({
    "luthar_passi.AugVector.as_dict",
    "luthar_passi.AugVector.value",
    "luthar_passi.CharacterRow.value",
    "luthar_passi.AffineForm.coeff",
    "luthar_passi.AffineForm.evaluate",
    "luthar_passi.UnitProfile.level",
    "partitions.ClassLabel.cycle_type",
})


def _observe_enumerate(tracer, args, kwargs, report):
    c = tracer.counters
    c["dfs_nodes"] += report.stats.get("nodes", 0)
    c["status." + report.status] += 1
    if report.status == "infeasible":
        system = args[0] if args else kwargs["system"]
        c["core_kept"] += len(report.certificate)
        c["core_forms"] += len(system.nonneg_integral)


def _observe_filter(tracer, args, kwargs, kept):
    candidates = args[3] if len(args) > 3 else kwargs["candidates"]
    tracer.counters["filter_in"] += len(candidates)
    tracer.counters["filter_kept"] += len(kept)


def _observe_parse(tracer, args, kwargs, table):
    text = args[0] if args else kwargs["text"]
    tracer.counters["parse_bytes"] += len(text.encode())


def _observe_serialize(tracer, args, kwargs, text):
    tracer.counters["serialize_bytes"] += len(text.encode())


OBSERVERS = {
    "solver.enumerate_system": _observe_enumerate,
    "lemma_filters.filter_order_q_powers": _observe_filter,
    "table_io.parse_table": _observe_parse,
    "table_io.serialize_table": _observe_serialize,
}


class Tracer:
    """Span recorder with per-name aggregates."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, op id]
        self.dropped = 0
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counters: dict[str, float] = defaultdict(float)
        self.top_level_s = 0.0
        self.op_id: int | str | None = None  # "setup" during the traced set-up
        self._stack: list[list] = []  # [span index, child time]
        self._restore: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def _enter(self, name: str, start: float) -> list:
        if len(self.spans) < MAX_SPANS:
            parent = self._stack[-1][0] if self._stack else -1
            idx = len(self.spans)
            self.spans.append([name, start, None, parent, self.op_id])
        else:
            idx = -1
            self.dropped += 1
        frame = [idx, 0.0]
        self._stack.append(frame)
        return frame

    def _exit(self, name: str, frame: list, start: float, end: float) -> None:
        self._stack.pop()
        duration = end - start
        self.calls[name] += 1
        self.self_s[name] += duration - frame[1]
        if self._stack:
            self._stack[-1][1] += duration
        else:
            self.top_level_s += duration
        if frame[0] >= 0:
            self.spans[frame[0]][2] = end

    def span(self, name: str, start: float, end: float) -> None:
        """Record a finished top-level span measured by the caller."""
        frame = self._enter(name, start)
        self._exit(name, frame, start, end)

    def wrap(self, name: str, fn):
        observe = OBSERVERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            start = perf_counter()
            frame = self._enter(name, start)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(name, frame, start, perf_counter())
            if observe is not None:
                observe(self, args, kwargs, result)
            return result

        return traced

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every public function and method of TRACED_MODULES on every
        binding of it; ``uninstall`` puts the originals back."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        wrappers: dict[int, tuple[object, object]] = {}
        for short in TRACED_MODULES:
            mod = importlib.import_module(f"sntorsion.{short}")
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isclass(obj):
                    self._wrap_class(short, obj)
                elif callable(obj):
                    wrappers[id(obj)] = (obj, self.wrap(f"{short}.{attr}", obj))
        for mod in [m for k, m in sys.modules.items() if k == "sntorsion" or k.startswith("sntorsion.")]:
            namespace = vars(mod)
            for attr, obj in list(namespace.items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._set(namespace, attr, hit[1])
                elif isinstance(obj, dict) and not attr.startswith("__"):
                    for key, value in list(obj.items()):
                        hit = wrappers.get(id(value))
                        if hit is not None and hit[0] is value:
                            self._set(obj, key, hit[1])

    def _wrap_class(self, short: str, cls: type) -> None:
        for attr, raw in list(vars(cls).items()):
            name = f"{short}.{cls.__name__}.{attr}"
            if attr.startswith("_") or name in UNTRACED_METHODS:
                continue
            if isinstance(raw, staticmethod):
                new = staticmethod(self.wrap(name, raw.__func__))
            elif inspect.isfunction(raw):
                new = self.wrap(name, raw)
            else:
                continue
            self._restore.append((cls, attr, raw, True))
            setattr(cls, attr, new)

    def _set(self, namespace: dict, key, value) -> None:
        self._restore.append((namespace, key, namespace[key], False))
        namespace[key] = value

    def uninstall(self) -> None:
        for target, key, original, is_attr in reversed(self._restore):
            if is_attr:
                setattr(target, key, original)
            else:
                target[key] = original
        self._restore.clear()

    # -- output ------------------------------------------------------------

    def aggregates(self) -> dict:
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "counters": dict(self.counters),
            "top_level_s": self.top_level_s,
            "dropped": self.dropped,
        }

    def merge(self, agg: dict, spans: list[list]) -> None:
        """Fold in the aggregates and spans of another tracer (a child
        process), re-basing its span parents onto this tracer's list."""
        for name, n in agg["calls"].items():
            self.calls[name] += n
        for name, s in agg["self_s"].items():
            self.self_s[name] += s
        for name, v in agg["counters"].items():
            self.counters[name] += v
        self.top_level_s += agg["top_level_s"]
        self.dropped += agg["dropped"]
        base = len(self.spans)
        room = max(0, MAX_SPANS - base)
        for name, start, end, parent, _ in spans[:room]:
            self.spans.append([name, start, end, parent + base if parent >= 0 else -1, self.op_id])
        self.dropped += max(0, len(spans) - room)

    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")
