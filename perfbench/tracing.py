"""Spans around calls into the package's layers, installed from outside.

``Tracer.install`` replaces the traced functions in every ``semifree``
namespace that binds them, and on the classes that own the traced
methods; ``uninstall`` puts the originals back. Nothing in the package
is edited. Spans stay in memory until ``write``.

Only the outermost span of a name is recorded: a call made while a span
of the same name is open runs untimed inside it. A span's self time is
its duration minus the durations of its direct child spans.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
from collections import Counter
from pathlib import Path


def _bounded(solutions) -> bool:
    """A ``solve_system`` call hits when it returns a bounded solution."""
    return any(not sol.free for sol in solutions)


# (owner module, attribute, span name). A span name of None means the
# span is named after each namespace that calls the function, so that
# the classifier's chain solves and the localization table solves are
# told apart.
TARGETS = (
    ("cli", "run", "cli.run"),
    ("classifier", "enumerate_types", "classifier.enumerate_types"),
    ("classifier", "euler_chain_check", "classifier.euler_chain_check"),
    ("_solve", "solve_system", None),
    ("localization", "solve_restriction_table", "localization.solve_restriction_table"),
    ("localization", "abbv_integrate", "localization.abbv_integrate"),
    ("localization", "dh_path", "localization.dh_path"),
    ("delzant", "build", "delzant.build"),
    ("delzant", "delzant_check", "delzant.delzant_check"),
    ("delzant", "semifree_check", "delzant.semifree_check"),
    ("delzant", "extract_fixed_data", "delzant.extract_fixed_data"),
    ("fixed_points", "FixedPointData.dumps", "fixed_points.dumps"),
    ("fixed_points", "FixedPointData.loads", "fixed_points.loads"),
    ("fixed_points", "validate", "fixed_points.validate"),
)
CALLER_NAMED = {"solve_system": ("classifier", "localization")}
HIT_RATIO = {"classifier.solve_system": _bounded, "localization.solve_system": _bounded}

SPAN_NAMES = tuple(
    name
    for _owner, attr, span in TARGETS
    for name in ([span] if span else [f"{caller}.{attr}" for caller in CALLER_NAMED[attr]])
)
LAYERS = ("cli", "classifier", "localization", "fixed_points", "delzant")


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


class Tracer:
    """Spans timed by ``now``, a clock in seconds."""

    def __init__(self, now) -> None:
        self.now = now
        # span: [name, start, end, parent index, request id, raised, hit]
        self.spans: list[list] = []
        self.requests: list[str] = []  # op key of each request, by request id
        self.request = -1
        self._stack: list[int] = []
        self._open: set[str] = set()
        self._restore: list[tuple[object, str, object]] = []

    def begin_request(self, key: str) -> None:
        """Spans opened from now on belong to a new request for op ``key``."""
        self.request = len(self.requests)
        self.requests.append(key)

    # -- installation -----------------------------------------------------

    def wrap(self, name: str, fn):
        spans, stack, is_open, now = self.spans, self._stack, self._open, self.now
        hit = HIT_RATIO.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if name in is_open:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.request, False, None]
            stack.append(len(spans))
            spans.append(span)
            is_open.add(name)
            span[1] = now()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[5] = True
                raise
            finally:
                span[2] = now()
                stack.pop()
                is_open.discard(name)
            if hit is not None:
                span[6] = hit(result)
            return result

        return traced

    def _set(self, holder, attr: str, value) -> None:
        self._restore.append((holder, attr, holder.__dict__[attr]))
        setattr(holder, attr, value)

    def install(self) -> None:
        modules = {
            name.rpartition(".")[2]: module
            for name, module in list(sys.modules.items())
            if name == "semifree" or name.startswith("semifree.")
        }
        for owner, attr, span in TARGETS:
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(modules[owner], cls_name)
                raw = cls.__dict__[method]
                if isinstance(raw, staticmethod):
                    self._set(cls, method, staticmethod(self.wrap(span, raw.__func__)))
                else:
                    self._set(cls, method, self.wrap(span, raw))
                continue
            original = getattr(modules[owner], attr)
            shared = self.wrap(span, original) if span else None
            for namespace, module in modules.items():
                for bound, value in list(vars(module).items()):
                    if value is not original:
                        continue
                    if shared is not None:
                        self._set(module, bound, shared)
                    elif namespace in CALLER_NAMED[attr]:
                        self._set(module, bound, self.wrap(f"{namespace}.{attr}", original))

    def uninstall(self) -> None:
        while self._restore:
            holder, attr, value = self._restore.pop()
            setattr(holder, attr, value)

    # -- aggregation -------------------------------------------------------

    def summarize(self, begin: int, end: int, scale: float = 1.0) -> dict[str, float]:
        """Per-span and per-layer figures for spans ``begin:end`` (one pass).

        Times are multiplied by ``scale``.
        """
        spans = self.spans
        calls: Counter = Counter()
        busy: Counter = Counter()
        child: Counter = Counter()
        errors: Counter = Counter()
        layer_errors: Counter = Counter()
        hits: Counter = Counter()
        for index in range(begin, end):
            name, start, stop, parent, _request, raised, hit = spans[index]
            duration = (stop - start) * scale
            calls[name] += 1
            busy[name] += duration
            hits[name] += bool(hit)
            parent_name = spans[parent][0] if parent >= 0 else None
            if parent_name is not None:
                child[parent_name] += duration
            if raised:
                errors[name] += 1
                if parent_name is None or _layer(parent_name) != _layer(name):
                    layer_errors[_layer(name)] += 1
        out: dict[str, float] = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.s"] = busy[name]
            out[f"{name}.self_s"] = busy[name] - child[name]
            out[f"{name}.errors"] = errors[name]
        for name in HIT_RATIO:
            out[f"{name}.hit_ratio"] = hits[name] / calls[name] if calls[name] else 0.0
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(
                out[f"{name}.self_s"] for name in SPAN_NAMES if _layer(name) == layer
            )
            out[f"{layer}.errors"] = layer_errors[layer]
        return out

    def write(self, path: Path) -> None:
        """Write every span as one gzip'd JSON document."""
        path.parent.mkdir(parents=True, exist_ok=True)
        names = sorted({span[0] for span in self.spans})
        index = {name: i for i, name in enumerate(names)}
        origin = self.spans[0][1] if self.spans else 0.0
        rows = [
            [index[name], round(start - origin, 9), round(stop - start, 9), parent, request, int(raised), hit]
            for name, start, stop, parent, request, raised, hit in self.spans
        ]
        doc = {
            "fields": ["name", "start_s", "duration_s", "parent", "request", "raised", "hit"],
            "names": names,
            "requests": self.requests,
            "spans": rows,
        }
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            json.dump(doc, handle, separators=(",", ":"))
