"""Span recorder for traced benchmark runs.

The recorder wraps the public functions and methods of each nilmap layer
from the outside: nothing under ``src/`` changes.  Names that one nilmap
module imports from another with ``from .x import y`` are rebound too, so
a call is traced whichever module it goes through.

Each call becomes a span.  At span end the recorder adds the span's
duration to its parent's child time; a span's self time is its duration
minus that child time.  Per-function aggregates (calls, outermost inclusive
time, self time) are updated on the fly; the raw spans are kept in memory
up to a cap and written out when the run ends.
"""

from __future__ import annotations

import importlib
import json
import sys
import time

LAYERS = ("poly", "linalg", "analysis", "classify", "tame", "parsing", "cli")

# Arithmetic operators are public operations of the value classes; the other
# dunders (construction, hashing, equality, indexing) are not wrapped.
_WRAPPED_DUNDERS = {
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__neg__", "__pow__",
}

# Groups of functions reported together.  A group's time counts only its
# outermost calls, so a group member calling another member is not counted
# twice.
GROUPS = {
    "poly.mul": ("poly.Polynomial.__mul__", "poly.Polynomial.__rmul__"),
    "poly.add": ("poly.Polynomial.__add__", "poly.Polynomial.__radd__"),
    "poly.substitute": ("poly.Polynomial.substitute", "poly.substitute"),
    "poly.compose": ("poly.PolyMap.compose", "poly.compose_map"),
    "poly.exact_div": ("poly.Polynomial.exact_div",),
    "linalg.principal_minor_sum": ("linalg.principal_minor_sum",),
    "linalg.poly_det": ("linalg.poly_det",),
    "linalg.matmul": ("linalg.PolyMatrix.__mul__",),
    "linalg.kernel": ("linalg.kernel",),
    "linalg.rref": ("linalg.RationalMatrix.rref",),
    "analysis.bruteforce": ("analysis.is_nilpotent_bruteforce",),
    "analysis.conjugate": ("analysis.conjugate",),
    "analysis.is_nilpotent": ("analysis.is_nilpotent",),
    "analysis.linear_dependence": ("analysis.linear_dependence",),
    "classify.recognize_canonical_pair": ("classify.recognize_canonical_pair",),
    "classify.nilpotency_system": ("classify.nilpotency_system",),
    "tame.formal_inverse": ("tame.formal_inverse",),
    "tame.classify_and_decompose": ("tame.classify_and_decompose",),
    "parsing.parse": (
        "parsing.load_map_text", "parsing.parse_map",
        "parsing.parse_polynomial", "parsing.map_from_document",
    ),
    "parsing.format": (
        "parsing.format_polynomial", "parsing.format_map",
        "parsing.map_to_document",
    ),
}

SPAN_CAP = 50_000


class Tracer:
    """Wraps nilmap's public callables while installed and aggregates spans."""

    def __init__(self):
        self.mods = {name: importlib.import_module(f"nilmap.{name}") for name in LAYERS}
        # key -> [calls, outermost inclusive ns, self ns, depth]
        self.stats: dict[str, list[int]] = {}
        # group -> [outermost inclusive ns, depth]
        self.groups = {g: [0, 0] for g in GROUPS}
        self.spans: list[tuple] = []
        self.spans_dropped = 0
        self.op = -1
        self._stack: list[list[int]] = []
        self._next_id = 1
        self._patches = self._plan_patches()

    def _plan_patches(self):
        """(owner, attribute, original, wrapper) for every public callable.

        Owners are the layer modules, their classes, and every nilmap module
        that imported a layer function by name.
        """
        patches = []
        by_id = {}
        for layer, mod in self.mods.items():
            for name, obj in vars(mod).items():
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if isinstance(obj, type):
                    for attr, member in vars(obj).items():
                        if attr.startswith("_") and attr not in _WRAPPED_DUNDERS:
                            continue
                        key = f"{layer}.{name}.{attr}"
                        if isinstance(member, (classmethod, staticmethod)):
                            wrapper = type(member)(self._wrap(member.__func__, key))
                        elif callable(member) and not isinstance(member, type):
                            wrapper = self._wrap(member, key)
                        else:
                            continue
                        patches.append((obj, attr, member, wrapper))
                elif callable(obj):
                    wrapper = self._wrap(obj, f"{layer}.{name}")
                    patches.append((mod, name, obj, wrapper))
                    by_id[id(obj)] = (obj, wrapper)
        for modname, mod in list(sys.modules.items()):
            if mod is None or (modname != "nilmap" and not modname.startswith("nilmap.")):
                continue
            for name, value in vars(mod).items():
                hit = by_id.get(id(value))
                if hit is not None and hit[0] is value and value.__module__ != modname:
                    patches.append((mod, name, value, hit[1]))
        return patches

    def install(self):
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def remove(self):
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    def _wrap(self, fn, key):
        stats = self.stats.setdefault(key, [0, 0, 0, 0])
        group = next((self.groups[g] for g, keys in GROUPS.items() if key in keys), None)
        stack = self._stack
        spans = self.spans
        now = time.perf_counter_ns
        tracer = self

        def wrapper(*args, **kwargs):
            span_id = tracer._next_id
            tracer._next_id = span_id + 1
            parent = stack[-1][1] if stack else 0
            frame = [0, span_id]
            stack.append(frame)
            stats[3] += 1
            if group is not None:
                group[1] += 1
            start = now()
            try:
                return fn(*args, **kwargs)
            finally:
                end = now()
                stack.pop()
                dur = end - start
                stats[0] += 1
                stats[2] += dur - frame[0]
                stats[3] -= 1
                if stats[3] == 0:
                    stats[1] += dur
                if group is not None:
                    group[1] -= 1
                    if group[1] == 0:
                        group[0] += dur
                if stack:
                    stack[-1][0] += dur
                if len(spans) < SPAN_CAP:
                    spans.append((span_id, parent, tracer.op, key, start, end))
                else:
                    tracer.spans_dropped += 1

        return wrapper

    # -- results -----------------------------------------------------------

    def layer_self_ns(self) -> dict[str, int]:
        out = {layer: 0 for layer in LAYERS}
        for key, (_, _, self_ns, _) in self.stats.items():
            out[key.split(".", 1)[0]] += self_ns
        return out

    def calls(self, key: str) -> int:
        return sum(self.stats.get(k, (0,))[0] for k in GROUPS[key])

    def group_ns(self, key: str) -> int:
        return self.groups[key][0]

    def write(self, path, extra: dict):
        doc = {
            **extra,
            "functions": {
                k: {"calls": c, "inclusive_ns": inc, "self_ns": s}
                for k, (c, inc, s, _) in sorted(self.stats.items())
                if c
            },
            "layer_self_ns": self.layer_self_ns(),
            "spans_dropped": self.spans_dropped,
            "span_fields": ["id", "parent", "op", "name", "start_ns", "end_ns"],
            "spans": self.spans,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
