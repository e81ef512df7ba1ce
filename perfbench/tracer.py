"""Span tracer for the diffmod benchmark.

The tracer wraps the public functions of each diffmod module, plus the
methods that carry a layer's work (normalize, pivots, compose, adjoint,
Janet reduction, symbol prolongation), from outside the package: no file
under src/ knows about it.  A module that imported a function by name
(``from .janet import complete``) holds its own reference, so every
wrapper is also rebound in each diffmod module whose namespace holds the
original; otherwise calls made inside the package would escape their
spans.

Each span records its layer, start, end, parent span and operation.  Spans
live in flat arrays while a pass runs; `summary` turns them into per-layer
call counts and self times, where a span's self time is its duration minus
the time covered by its child spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from array import array
from collections import defaultdict
from time import perf_counter

MODULES = ("dsl", "field", "ops", "janet", "syzygy", "duality", "spencer",
           "corpus")

# Public functions that get a layer of their own; every other public
# function of a module is counted under the module's name.
OWN_LAYER = {"janet.complete", "spencer.rank"}

# Multi-index helpers run once per term of every operator product; a span
# around each would cost more than the call and swamp the self time of
# their callers, so they stay unwrapped.
UNWRAPPED = {"ops.mono_add", "ops.mono_sub", "ops.mono_le", "ops.mono_order",
             "ops.mono_binom", "ops.mono_str", "ops.submonomials",
             "spencer.sym_monos", "spencer.wedge_sets", "spencer.sym_dim"}


def _methods(mods):
    field, ops, janet, spencer = (mods[k] for k in
                                  ("field", "ops", "janet", "spencer"))
    return {
        "field.normalize": [(field.DiffField, "normalize")],
        "field.pivot": [(field.Session, "check_pivot")],
        "field.factor": [(field.RatFunc, "nonzero_factors"),
                         (field.RatFunc, "canonical_factor")],
        "ops.compose": [(ops.ScalarOp, "__mul__"), (ops.OpMatrix, "compose")],
        "ops.adjoint": [(ops.ScalarOp, "adjoint"), (ops.OpMatrix, "adjoint")],
        "janet.reduce": [(janet.InvolutiveBasis, "reduce_row")],
        "spencer.prolong": [(spencer.SymbolSpace, "prolong")],
    }


def _matrix_key(A, order, default_order):
    entries = tuple(tuple(frozenset((mu, c.expr) for mu, c in e.terms.items())
                          for e in row) for row in A.entries)
    return (A.field, A.rows, A.cols, entries, order or default_order)


class Tracer:
    """Installs span-recording wrappers into diffmod and collects spans."""

    def __init__(self):
        self.layers = []           # layer names, indexed by span layer id
        self._restore = []         # (owner, attribute, original value)
        self.reset()

    # -- recording ---------------------------------------------------------

    def reset(self):
        """Drop recorded spans and counters (start of a traced pass)."""
        self.layer = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.op = array("q")
        self.stack = []
        self.op_id = None
        self.counters = defaultdict(float)
        self._seen = defaultdict(set)

    def begin_op(self, op_id):
        """Spans recorded from here on belong to operation `op_id`; None
        stops recording (the runner's checks are not part of an op)."""
        self.op_id = op_id
        self._seen.clear()

    def _repeat(self, kind, key):
        """Count the call if the same key was seen earlier in this op."""
        seen = self._seen[kind]
        if key in seen:
            self.counters[kind + ".repeats"] += 1
        else:
            seen.add(key)

    def _wrap(self, layer_name, fn, before=None, after=None):
        if layer_name not in self.layers:
            self.layers.append(layer_name)
        lid = self.layers.index(layer_name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.op_id is None:
                return fn(*args, **kwargs)
            if before is not None:
                before(args, kwargs)
            idx = len(tracer.start)
            tracer.layer.append(lid)
            tracer.parent.append(tracer.stack[-1] if tracer.stack else -1)
            tracer.op.append(tracer.op_id)
            tracer.end.append(0.0)
            tracer.stack.append(idx)
            tracer.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end[idx] = perf_counter()
                tracer.stack.pop()
            if after is not None:
                after(result)
            return result

        return traced

    # -- layer hooks ---------------------------------------------------------

    def _hooks(self, mods):
        default_order = mods["ops"].DEFAULT_ORDER

        def complete_before(args, kwargs):
            order = kwargs.get("order", args[1] if len(args) > 1 else None)
            self._repeat("janet.complete",
                         _matrix_key(args[0], order, default_order))

        def complete_after(basis):
            self.counters["janet.adds"] += sum(
                1 for s in basis.trace.steps if s["event"] == "add")
            self.counters["janet.basis_rows"] += len(basis)

        def rank_before(args, kwargs):
            self.counters["spencer.rank.entries"] += sum(len(r) for r in args[0])

        def prolong_before(args, kwargs):
            g = args[0]
            r = kwargs.get("r", args[1] if len(args) > 1 else 1)
            eqs = tuple(tuple(sorted(eq.items())) for eq in g.equations)
            self._repeat("spencer.prolong", (g.n, g.m, g.q, eqs, r))

        return {"janet.complete": (complete_before, complete_after),
                "spencer.rank": (rank_before, None),
                "spencer.prolong": (prolong_before, None)}

    # -- installation -----------------------------------------------------------

    def install(self):
        """Wrap every traced callable and rebind it wherever it was imported."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        mods = {m: importlib.import_module(f"diffmod.{m}") for m in MODULES}
        hooks = self._hooks(mods)
        for layer_name, targets in _methods(mods).items():
            before, after = hooks.get(layer_name, (None, None))
            for cls, attr in targets:
                original = cls.__dict__[attr]
                self._restore.append((cls, attr, original))
                setattr(cls, attr, self._wrap(layer_name, original,
                                              before, after))
        namespaces = [m for name, m in sorted(sys.modules.items())
                      if name == "diffmod" or name.startswith("diffmod.")]
        for mod_name, mod in mods.items():
            for name, fn in list(vars(mod).items()):
                qual = f"{mod_name}.{name}"
                if (name.startswith("_") or qual in UNWRAPPED
                        or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                layer_name = qual if qual in OWN_LAYER else mod_name
                before, after = hooks.get(layer_name, (None, None))
                wrapper = self._wrap(layer_name, fn, before, after)
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is fn:
                            self._restore.append((ns, attr, fn))
                            setattr(ns, attr, wrapper)

    def uninstall(self):
        """Put every original callable back."""
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- analysis ---------------------------------------------------------------

    def spans(self):
        """Recorded spans as (layer, start, end, parent, op) tuples."""
        return [(self.layers[self.layer[i]], self.start[i], self.end[i],
                 self.parent[i], self.op[i]) for i in range(len(self.start))]

    def self_times(self):
        """Per-span self time: duration minus the time its children cover."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        return [self.end[i] - self.start[i] - child[i] for i in range(n)]

    def summary(self):
        """Per-layer totals: calls and self time, overall and per operation.

        Returns (totals, per_op, reduced) where totals maps layer ->
        {"calls", "self_s"}, per_op maps op id -> the same, and reduced
        counts Janet reductions called directly by a completion (one per
        pending row the completion reduced).
        """
        selfs = self.self_times()
        totals = defaultdict(lambda: {"calls": 0, "self_s": 0.0})
        per_op = defaultdict(lambda: defaultdict(
            lambda: {"calls": 0, "self_s": 0.0}))
        complete_id = (self.layers.index("janet.complete")
                       if "janet.complete" in self.layers else -1)
        reduce_id = (self.layers.index("janet.reduce")
                     if "janet.reduce" in self.layers else -1)
        reduced = 0
        for i, s in enumerate(selfs):
            lid = self.layer[i]
            name = self.layers[lid]
            for bucket in (totals[name], per_op[self.op[i]][name]):
                bucket["calls"] += 1
                bucket["self_s"] += s
            p = self.parent[i]
            if lid == reduce_id and p >= 0 and self.layer[p] == complete_id:
                reduced += 1
        return totals, per_op, reduced
