"""Spans and counters installed on psldesigns from outside the package.

Tracer.install() replaces public module attributes of gf, projline,
starter, design, search and cli with wrappers. Calls between modules go
through module attributes and calls inside a module go through its
globals, so every call site sees the wrapper. Nothing inside the package
changes.

A span records (name, start, end, parent index, request id) and stays in
memory until Tracer.dump(). The hot field operations get counters only,
since a span around a 0.1 us multiplication would mostly time itself.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter
from math import comb

SPANNED = {
    "gf": ("field_for_order", "make_prime_field", "make_extension_field"),
    "projline": ("psl_generators", "point_permutation", "brute_force_triple_orbits"),
    "starter": (
        "make_starter_context",
        "delta_sum",
        "thm510_conditions",
        "thm1326_condition",
    ),
    "design": (
        "build_design",
        "expand_orbit",
        "format_design",
        "write_design",
        "read_design",
        "parse_design",
        "verify_t_design",
    ),
    "search": (
        "sieve_primes",
        "enumerate_prime_powers",
        "sweep_entries",
        "sweep",
        "sweep_rows",
        "verify_pair_coincidence",
        "thm_equivalence_sweep",
        "lift_check",
    ),
    "cli": ("main",),
}
COUNTED = {
    "gf": ("mul", "chi", "power", "inv", "factorize"),
    "projline": ("delta_extended",),
}
LAYERS = tuple(SPANNED)


def _expand_orbit(c: Counter, args, kwargs, result) -> None:
    c["design.blocks_expanded"] += len(result)


def _format_design(c: Counter, args, kwargs, result) -> None:
    c["design.bytes_written"] += len(result.encode())


def _parse_design(c: Counter, args, kwargs, result) -> None:
    c["design.bytes_read"] += len(args[0].encode())


def _verify_t_design(c: Counter, args, kwargs, result) -> None:
    blocks, t = args[0], args[1]
    c["design.triples_counted"] += len(blocks) * comb(len(blocks[0]), t)


def _sweep_entries(c: Counter, args, kwargs, result) -> None:
    c["search.candidates"] += len(result)
    c["search.hits"] += sum(1 for ent in result if ent.gives_design)


def _thm_equivalence_sweep(c: Counter, args, kwargs, result) -> None:
    c["search.candidates"] += result.checked
    c["search.hits"] += len(result.hits)


# work counters taken from a wrapped call's arguments and result
AFTER = {
    "design.expand_orbit": _expand_orbit,
    "design.format_design": _format_design,
    "design.parse_design": _parse_design,
    "design.verify_t_design": _verify_t_design,
    "search.sweep_entries": _sweep_entries,
    "search.thm_equivalence_sweep": _thm_equivalence_sweep,
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counters: Counter = Counter()
        self.request_id = -1

    def _span(self, name: str, fn):
        spans, stack, counters = self.spans, self.stack, self.counters
        after = AFTER.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.request_id]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if after is not None:
                after(counters, args, kwargs, result)
            return result

        return wrapper

    def _count(self, key: str, fn):
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counters[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        import importlib

        for layer in LAYERS:
            mod = importlib.import_module(f"psldesigns.{layer}")
            for fname in SPANNED[layer]:
                setattr(mod, fname, self._span(f"{layer}.{fname}", getattr(mod, fname)))
            for fname in COUNTED.get(layer, ()):
                key = f"{layer}.{fname}.calls"
                setattr(mod, fname, self._count(key, getattr(mod, fname)))

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counters": self.counters}, fh)


def summarize(spans: list[list], counters: Counter) -> dict[str, float]:
    """Per-function inclusive time and calls, per-layer self time.

    Inclusive time of a name counts only its outermost spans, so a name
    nested in itself is not counted twice. Self time is a span's duration
    minus the durations of its direct children; spans of one thread never
    overlap, so the children's union is their sum.
    """
    out: dict[str, float] = dict(counters)
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    for layer in LAYERS:
        out[f"{layer}.self_s"] = 0.0
    for i, (name, start, end, parent, _) in enumerate(spans):
        dur = end - start
        layer = name.partition(".")[0]
        out[f"{layer}.self_s"] += dur - child[i]
        if name == "cli.main":
            out["cli.main.self_s"] = out.get("cli.main.self_s", 0.0) + dur - child[i]
        out[f"{name}.calls"] = out.get(f"{name}.calls", 0) + 1
        a = parent
        while a >= 0 and spans[a][0] != name:
            a = spans[a][3]
        if a < 0:
            out[f"{name}.s"] = out.get(f"{name}.s", 0.0) + dur
    return out
