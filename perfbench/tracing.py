"""Spans around the public functions of each gmexp layer.

A wrapper is installed at the module attribute its caller looks up (for
example gmexp.engine.rank_with_extension, because engine binds it with
``from .linalg import``).  It records a span [name, start, end, parent,
query id, counts] in memory, and is removed again after the traced cycle.
The per-monomial operators.apply is not wrapped: the operators layer is
measured through engine.assemble_phi, its caller on the query path.
Counts are taken after the span's end time, so they are not part of any
span's own duration (they do add to the parent's self time, which the
trace.overhead_frac metric bounds).
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager


def _rank_counts(args, result):
    a, extra_cols = args[0], args[1]
    base, extra = result
    return {"input_nnz": a.nnz() + sum(len(c) for c in extra_cols), "pivots": base + extra}


def _assemble_counts(_args, result):
    return {"nnz": result.nnz(), "cells": result.ncols}


def _nullspace_counts(_args, result):
    return {"kernel_dim": len(result)}


def _per_degree_counts(_args, result):
    return {"hit": int(result is not None)}


# span name -> ((module, attribute) pairs to wrap, counts taken from (args, result))
WRAPPED = {
    "parser.parse_poly": ((("parser", "parse_poly"),), None),
    "ring.clear_g": ((("engine", "clear_g"),), None),
    "engine.default_schedule": (
        (("engine", "default_schedule"), ("arrangements", "default_schedule")),
        None,
    ),
    "engine.exponent_test": ((("engine", "exponent_test"),), None),
    "engine.koszul_cohomology": ((("engine", "koszul_cohomology"),), None),
    "engine.check_row_commutation": ((("engine", "check_row_commutation"),), None),
    "engine.assemble_phi": ((("engine", "assemble_phi"),), _assemble_counts),
    "linalg.rank_with_extension": ((("engine", "rank_with_extension"),), _rank_counts),
    "linalg.nullspace": ((("engine", "nullspace"),), _nullspace_counts),
    "arrangements.per_degree_exponent_test": (
        (("arrangements", "per_degree_exponent_test"),),
        _per_degree_counts,
    ),
    "arrangements.determinant_d": ((("arrangements", "determinant_d"),), None),
}


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self, modules: dict):
        self.modules = modules  # "engine" -> gmexp.engine, ...
        self.spans: list[list] = []
        self.query_id = None
        self._stack: list[int] = []

    def _wrap(self, name, fn, counts):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.query_id, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if counts is not None:
                span[5] = counts(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self):
        saved = []
        try:
            for name, (attrs, counts) in WRAPPED.items():
                for mod, attr in attrs:
                    module = self.modules[mod]
                    fn = getattr(module, attr)
                    saved.append((module, attr, fn))
                    setattr(module, attr, self._wrap(name, fn, counts))
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)


# (metric, unit); every value is per traced cycle unless the name says otherwise
PER_LAYER = (
    ("linalg.rank_with_extension.calls", "count"),
    ("linalg.rank_with_extension.busy_s", "s"),
    ("linalg.rank_with_extension.max_s", "s"),
    ("linalg.rank_with_extension.input_nnz", "count"),
    ("linalg.rank_with_extension.pivots", "count"),
    ("engine.assemble_phi.calls", "count"),
    ("engine.assemble_phi.busy_s", "s"),
    ("engine.assemble_phi.nnz", "count"),
    ("engine.exponent_test.self_s", "s"),
    ("engine.windows", "count"),
    ("engine.extra_windows", "count"),
    ("engine.cells", "count"),
    ("linalg.nullspace.calls", "count"),
    ("linalg.nullspace.busy_s", "s"),
    ("linalg.nullspace.kernel_dim", "count"),
    ("engine.koszul_cohomology.self_s", "s"),
    ("engine.check_row_commutation.busy_s", "s"),
    ("arrangements.per_degree_exponent_test.calls", "count"),
    ("arrangements.per_degree_exponent_test.busy_s", "s"),
    ("arrangements.per_degree_exponent_test.hit_ratio", "ratio"),
    ("arrangements.determinant_d.calls", "count"),
    ("ring.clear_g.calls", "count"),
    ("ring.clear_g.busy_s", "s"),
    ("engine.default_schedule.busy_s", "s"),
    ("parser.parse_poly.calls", "count"),
    ("parser.parse_poly.busy_s", "s"),
    ("trace.query_s", "s"),
    ("trace.overhead_frac", "ratio"),
)

# Count metrics that must repeat exactly for the same seed.
COUNTS = tuple(m for m, unit in PER_LAYER if unit == "count") + (
    "arrangements.per_degree_exponent_test.hit_ratio",
)


def layer_metrics(spans, probe_busy, cycles: int, query_s: float, overhead_frac: float) -> dict:
    """Per-layer values from the spans of `cycles` traced cycles.

    probe_busy(t0, t1) is the speed probe's time inside [t0, t1]; it is
    taken out of every span, as it is out of every query time.
    """
    dur = [t1 - t0 - probe_busy(t0, t1) for _n, t0, t1, _p, _q, _c in spans]
    child_s = [0.0] * len(spans)
    windows_of = defaultdict(int)  # exponent_test span -> assemble_phi children
    for i, (name, _t0, _t1, parent, _q, _c) in enumerate(spans):
        if parent >= 0:
            child_s[parent] += dur[i]
            if name == "engine.assemble_phi" and spans[parent][0] == "engine.exponent_test":
                windows_of[parent] += 1

    calls = defaultdict(int)
    busy = defaultdict(float)
    self_s = defaultdict(float)
    longest = defaultdict(float)
    counts = defaultdict(int)
    for i, (name, _t0, _t1, _p, _q, c) in enumerate(spans):
        calls[name] += 1
        busy[name] += dur[i]
        self_s[name] += dur[i] - child_s[i]
        longest[name] = max(longest[name], dur[i])
        for key, v in (c or {}).items():
            counts[f"{name}.{key}"] += v

    per = 1.0 / cycles
    out = {}
    for name in ("linalg.rank_with_extension", "engine.assemble_phi", "linalg.nullspace",
                 "arrangements.per_degree_exponent_test", "arrangements.determinant_d",
                 "ring.clear_g", "parser.parse_poly"):
        out[f"{name}.calls"] = calls[name] * per
        out[f"{name}.busy_s"] = busy[name] * per
    for name in ("engine.exponent_test", "engine.koszul_cohomology"):
        out[f"{name}.self_s"] = self_s[name] * per
    for name in ("engine.check_row_commutation", "engine.default_schedule"):
        out[f"{name}.busy_s"] = busy[name] * per
    out["linalg.rank_with_extension.max_s"] = longest["linalg.rank_with_extension"]
    for key in ("linalg.rank_with_extension.input_nnz", "linalg.rank_with_extension.pivots",
                "engine.assemble_phi.nnz", "linalg.nullspace.kernel_dim"):
        out[key] = counts[key] * per
    out["engine.windows"] = sum(windows_of.values()) * per
    out["engine.extra_windows"] = sum(max(0, k - 2) for k in windows_of.values()) * per
    out["engine.cells"] = counts["engine.assemble_phi.cells"] * per
    pd_calls = calls["arrangements.per_degree_exponent_test"]
    out["arrangements.per_degree_exponent_test.hit_ratio"] = (
        counts["arrangements.per_degree_exponent_test.hit"] / pd_calls if pd_calls else 0.0
    )
    out["trace.query_s"] = query_s * per
    out["trace.overhead_frac"] = overhead_frac
    return {m: {"value": out[m], "unit": unit} for m, unit in PER_LAYER}
