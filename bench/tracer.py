"""In-memory span tracer that wraps shopstruct's public functions from outside.

A span records name, start, end, parent span and run id, plus optional
counts taken from the call's result.  Spans stay in a list until the run
writes them out.  Wrapping replaces every binding of a traced function in
the loaded ``shopstruct`` modules (``from .x import f`` copies included), so
calls between modules are traced too; ``uninstall`` puts the originals back.
"""

from __future__ import annotations

import importlib
import sys
import time
from contextlib import contextmanager
from typing import Any, Callable, Iterator

Counter = Callable[[Any], dict[str, int]]


def _plan_counts(plan) -> dict[str, int]:
    return {
        "groups": len(plan.groups),
        "group_size_max": max((len(g) for g in plan.groups), default=0),
    }


def _account_counts(account) -> dict[str, int]:
    tiers = {"high": 0, "medium": 0, "low": 0}
    fullest = 0
    for c in account.campaigns:
        tier = c.priority.name.lower()
        tiers[tier] += len(c.negatives)
        fullest = max(fullest, len(c.negatives))
        for g in c.adgroups:
            tiers[tier] += len(g.negatives)
            fullest = max(fullest, len(g.negatives))
    counts = {f"negatives_{t}": v for t, v in tiers.items()}
    counts["limit_headroom"] = account.limit - fullest
    return counts


def _verify_counts(report) -> dict[str, int]:
    return {
        "checked": sum(p.checked for p in report.properties),
        "probe_checked": sum(p.checked for p in report.properties[1:]),
    }


def text_bytes(text: str) -> int:
    return len(text) if text.isascii() else len(text.encode())


# (module, attribute, counter).  The span name is "<module>.<attribute>".
TARGETS: tuple[tuple[str, str, Counter | None], ...] = (
    ("synth", "generate", None),
    ("rules_io", "loads_rules", None),
    ("builder", "build_account", _account_counts),
    ("builder", "plan_groups", None),
    ("erasers", "enumerate_candidates", lambda r: {"candidates": len(r)}),
    ("erasers", "build_graph", lambda r: {"conflict_edges": r.edge_count}),
    ("erasers", "welsh_powell", None),
    ("erasers", "select_color_class", lambda r: {"covered": sum(c.weight for c in r)}),
    ("erasers", "make_group_plan", _plan_counts),
    ("erasers", "reduce_keywords", None),
    ("snapshot", "render_account", lambda r: {"bytes": text_bytes(r)}),
    ("snapshot", "parse_account", None),
    ("verify", "verify_account", _verify_counts),
    ("verify", "verify_property1", None),
    ("verify", "verify_property2", None),
    ("verify", "verify_property3", None),
    ("verify", "verify_structure", None),
    ("updates", "add_rule", None),
    ("updates", "remove_rule", None),
    ("updates", "remove_item", None),
    ("updates", "apply_changes", None),
)

# Methods of the simulator, traced on the class itself.
METHOD_TARGETS = (("simulate", "Simulator", "__init__"), ("simulate", "Simulator", "run"))


class Span:
    __slots__ = ("id", "name", "parent", "start", "end", "attrs")

    def __init__(self, id: int, name: str, parent: int | None, start: float) -> None:
        self.id = id
        self.name = name
        self.parent = parent
        self.start = start
        self.end = start
        self.attrs: dict[str, int] = {}

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._undo: list[tuple[Any, str, Any]] = []
        self.counter_seconds = 0.0  # time spent deriving counts from results

    def _open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), name, parent, time.perf_counter())
        self.spans.append(span)
        self._stack.append(span.id)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        """A span opened by the benchmark itself, around a step of its own."""
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def _wrap(self, fn: Callable, name: str, counter: Counter | None) -> Callable:
        tracer = self

        def traced(*args, **kwargs):
            span = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if counter is not None:
                t0 = time.perf_counter()
                span.attrs.update(counter(result))
                tracer.counter_seconds += time.perf_counter() - t0
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every target; a target missing from the package is an error."""
        modules = [m for k, m in list(sys.modules.items()) if k.startswith("shopstruct")]
        for mod_name, attr, counter in TARGETS:
            home = importlib.import_module(f"shopstruct.{mod_name}")
            fn = getattr(home, attr)
            wrapped = self._wrap(fn, f"{mod_name}.{attr}", counter)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._undo.append((mod, key, fn))
                        setattr(mod, key, wrapped)
        for mod_name, cls_name, method in METHOD_TARGETS:
            cls = getattr(importlib.import_module(f"shopstruct.{mod_name}"), cls_name)
            fn = cls.__dict__[method]
            self._undo.append((cls, method, fn))
            setattr(cls, method, self._wrap(fn, f"{mod_name}.{cls_name}.{method}", None))

    def uninstall(self) -> None:
        while self._undo:
            owner, key, fn = self._undo.pop()
            setattr(owner, key, fn)

    def overhead_seconds(self, calls: int = 20_000) -> float:
        """Time the tracer added to the run: the cost of one wrapped call,
        measured on a no-op (best of five rounds), times the spans recorded,
        plus the time spent deriving counts."""

        def noop() -> None:
            return None

        wrapped = Tracer("calibration")._wrap(noop, "noop", None)
        extra = []
        for _ in range(5):
            t0 = time.perf_counter()
            for _ in range(calls):
                noop()
            t1 = time.perf_counter()
            for _ in range(calls):
                wrapped()
            extra.append((time.perf_counter() - t1) - (t1 - t0))
        return max(min(extra), 0.0) / calls * len(self.spans) + self.counter_seconds

    def self_seconds(self) -> dict[int, float]:
        """Span id -> duration minus the time its direct children cover."""
        own = {s.id: s.seconds for s in self.spans}
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.seconds
        return own

    def document(self) -> dict[str, Any]:
        own = self.self_seconds()
        return {
            "run_id": self.run_id,
            "spans": [
                {
                    "id": s.id,
                    "name": s.name,
                    "parent": s.parent,
                    "start": s.start,
                    "end": s.end,
                    "self_s": own[s.id],
                    **({"attrs": s.attrs} if s.attrs else {}),
                }
                for s in self.spans
            ],
        }
