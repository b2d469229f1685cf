"""In-memory tracing of the program's layers, installed from outside.

Public functions are wrapped and rebound where they are looked up: module
attributes in every ``deodhar`` module that holds them, methods on their
class.  Hot leaf calls are aggregated into a call count, total time and self
time per name.  Jobs and mid-level calls additionally become spans with an
id, a parent id, a name, a start and an end.  Self time is a frame's time
minus the time of the frames nested in it; the pass runs in one thread, so
nested frames never overlap.  Nothing is written until the pass ends.
"""

from __future__ import annotations

import itertools
import sys
import time
from collections import defaultdict
from typing import Callable


class Tracer:
    """Frame stack, per-name aggregates and recorded spans of one pass."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.counts: dict[str, int] = defaultdict(int)
        self.active: dict[str, int] = defaultdict(int)  # open spans by name
        self.spans: list[tuple[int, int, str, float, float]] = []  # id, parent, name, start, end
        self._stack: list[list] = [[0.0, 0]]  # frames: [child_s, span id]; 0 is the root
        self._ids = itertools.count(1)
        self._bound: list[tuple[object, str, object]] = []

    def _stat(self, name: str) -> list:
        return self.stats.setdefault(name, [0, 0.0, 0.0])

    def wrap(self, name: str, fn: Callable, span: bool = False,
             on_result: Callable[[object], None] | None = None) -> Callable:
        """Timed stand-in for ``fn``; with ``span`` every call is also a span."""
        stack, clock, active, spans, ids = (
            self._stack, self.clock, self.active, self.spans, self._ids)
        stat = self._stat(name)

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            frame = [0.0, next(ids) if span else parent[1]]
            stack.append(frame)
            if span:
                active[name] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                parent[0] += elapsed
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += elapsed - frame[0]
                if span:
                    active[name] -= 1
                    spans.append((frame[1], parent[1], name, start, end))
            if on_result is not None:
                on_result(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def wrap_generator(self, name: str, fn: Callable,
                       on_item: Callable[[object], None] | None = None) -> Callable:
        """Stand-in for a generator function: one call per generator, one
        timed frame per resumption, ``on_item`` for every item yielded."""
        stack, clock = self._stack, self.clock
        stat = self._stat(name)

        def wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)
            stat[0] += 1
            while True:
                parent = stack[-1]
                frame = [0.0, parent[1]]
                stack.append(frame)
                start = clock()
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    elapsed = clock() - start
                    stack.pop()
                    parent[0] += elapsed
                    stat[1] += elapsed
                    stat[2] += elapsed - frame[0]
                if on_item is not None:
                    on_item(item)
                yield item

        wrapper.__wrapped__ = fn
        return wrapper

    def rebind(self, owner, attr: str, replacement) -> None:
        self._bound.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def rebind_everywhere(self, original, replacement) -> None:
        """Replace ``original`` in every loaded module of the program that
        holds it under any name, so that each lookup site sees the wrapper."""
        for modname, module in list(sys.modules.items()):
            if modname != "deodhar" and not modname.startswith("deodhar."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self.rebind(module, attr, replacement)

    def restore(self) -> None:
        while self._bound:
            owner, attr, original = self._bound.pop()
            setattr(owner, attr, original)

    def calls(self, name: str) -> int:
        return self.stats.get(name, [0, 0.0, 0.0])[0]


# Layer boundaries.  Mid-level calls are spans; the rest are aggregated.
SPANS = {
    "weyl.all_reduced_words": ("weyl", "all_reduced_words"),
    "cells.point_count_polynomial": ("cells", "point_count_polynomial"),
    "cells.closure_upper_bound": ("cells", "closure_upper_bound"),
    "chevalley.collect": ("chevalley", "collect"),
    "chevalley.limit_at_infinity": ("chevalley", "limit_at_infinity"),
    "chevalley.verify_closure_witness": ("chevalley", "verify_closure_witness"),
    "chevalley.evaluate_adjoint": ("chevalley", "evaluate_adjoint"),
    "matrixgrp.count_cells": ("matrixgrp", "count_cells"),
    "search.find_obstructions": ("search", "find_obstructions"),
    "search.scan_disjointness": ("search", "scan_disjointness"),
}
FUNCTIONS = {
    "weyl.bruhat_leq": ("weyl", "bruhat_leq"),
    "cells.cell": ("cells", "cell"),
    "cells.preceq": ("cells", "preceq"),
    "chevalley.mat_mul": ("chevalley", "mat_mul"),
    "search.disjointness_certificate": ("search", "disjointness_certificate"),
}
METHODS = {
    "weyl.right_mult_generator": ("weyl", "WeylElement", ("right_mult_generator",)),
    "roots.root": ("roots", "RootSystem", ("root",)),
    "roots.commutator_terms": ("roots", "RootSystem", ("commutator_terms",)),
    "laurent.add": ("laurent", "LaurentPoly", ("__add__",)),
    "laurent.mul": ("laurent", "LaurentPoly", ("__mul__", "__rmul__")),
    "laurent.pow": ("laurent", "LaurentPoly", ("__pow__",)),
}
GENERATORS = {
    "cells.enumerate_subexpressions": ("cells", "enumerate_subexpressions"),
    "matrixgrp.enumerate_flags": ("matrixgrp", "enumerate_flags"),
}
LAYERS = ("weyl", "roots", "laurent", "cells", "chevalley", "matrixgrp", "search")


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary above; undo with ``tracer.restore()``."""
    modules = {name: sys.modules[f"deodhar.{name}"] for name in LAYERS}
    counts, active = tracer.counts, tracer.active

    def on_mask(_):
        counts["cells.enumerate_subexpressions.masks"] += 1
        if active["cells.point_count_polynomial"]:
            counts["pcp.masks"] += 1

    def on_cell(_):
        if active["cells.point_count_polynomial"]:
            counts["pcp.cells"] += 1

    def on_flag(_):
        counts["matrixgrp.flags"] += 1

    def on_preceq(result):
        counts["cells.preceq.true"] += bool(result)

    def on_certificate(result):
        counts["search.certificates"] += result is not None

    hooks = {
        "cells.enumerate_subexpressions": on_mask,
        "matrixgrp.enumerate_flags": on_flag,
        "cells.cell": on_cell,
        "cells.preceq": on_preceq,
        "search.disjointness_certificate": on_certificate,
    }
    for name, (module, attr) in SPANS.items():
        original = getattr(modules[module], attr)
        tracer.rebind_everywhere(original, tracer.wrap(name, original, span=True))
    for name, (module, attr) in FUNCTIONS.items():
        original = getattr(modules[module], attr)
        tracer.rebind_everywhere(original, tracer.wrap(name, original, on_result=hooks.get(name)))
    for name, (module, attr) in GENERATORS.items():
        original = getattr(modules[module], attr)
        tracer.rebind_everywhere(original, tracer.wrap_generator(name, original, hooks[name]))
    for name, (module, cls_name, attrs) in METHODS.items():
        cls = getattr(modules[module], cls_name)
        wrapper = tracer.wrap(name, getattr(cls, attrs[0]))
        for attr in attrs:
            tracer.rebind(cls, attr, wrapper)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, run_s: float) -> dict[str, float]:
    """Per-layer numbers of one traced pass: calls and self time for every
    wrapped name, work counts, useful-outcome ratios, and each layer's share
    of the pass."""
    out: dict[str, float] = {}
    for name, (calls, _total, self_s) in tracer.stats.items():
        out[f"{name}.calls"] = calls
        out[f"{name}.self_s"] = self_s
    counts = tracer.counts
    out["cells.enumerate_subexpressions.masks"] = counts["cells.enumerate_subexpressions.masks"]
    out["matrixgrp.flags"] = counts["matrixgrp.flags"]
    out["cells.endpoint_hit_ratio"] = _ratio(counts["pcp.cells"], counts["pcp.masks"])
    out["cells.preceq.true_ratio"] = _ratio(
        counts["cells.preceq.true"], tracer.calls("cells.preceq"))
    out["search.certified_ratio"] = _ratio(
        counts["search.certificates"], tracer.calls("search.disjointness_certificate"))
    for layer in LAYERS:
        layer_self = sum(s[2] for name, s in tracer.stats.items() if name.startswith(layer + "."))
        out[f"{layer}.self_s"] = layer_self
        out[f"{layer}.self_share"] = _ratio(layer_self, run_s)
    return out
