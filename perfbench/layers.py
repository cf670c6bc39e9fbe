"""Wrappers that trace hacalc layer by layer from outside the library.

Each wrapped name is replaced where its callers look it up: in the module
that defines it and in every hacalc module that imported it by name.  The
one exception is ``smith_normal_form``: the binding that ``groebner``
imported is traced as ``groebner.oracle_snf``, the one in ``graphs`` (used
for N_E) as ``graphs.smith_normal_form``.

A traced call records a span (name, start, end, parent) in memory; the
spans of the last traced pass are written out by :meth:`Tracer.write_spans`
when the run ends.  A span's self time excludes its traced children, so
``IntEchelon.add`` is reported without the ``reduce`` it calls.  The
hottest leaves are only counted (and ``scalars.val`` also timed) instead
of keeping a span per call, and so are the columns and relation vectors
that fill an X-complex window.
"""

from __future__ import annotations

import functools
import json
import math
import statistics
import time
from collections import Counter, defaultdict

from hacalc import (algebra, checks, derham, graphs, groebner, lift, linalg,
                    ncforms, scalars, tube)
from workloads import LADDER

# (metric name, owner, attribute): owner is a module or a class.
SPANS = [
    ("linalg.IntEchelon.reduce", linalg.IntEchelon, "reduce"),
    ("linalg.IntEchelon.add", linalg.IntEchelon, "add"),
    ("linalg.SparseEchelon.reduce", linalg.SparseEchelon, "reduce"),
    ("linalg.kernel_basis", linalg, "kernel_basis"),
    ("ncforms.xcomplex_homology", ncforms, "xcomplex_homology"),
    ("ncforms.form_multiply", ncforms, "form_multiply"),
    ("ncforms.fedosov_mixed", ncforms, "fedosov_mixed"),
    ("ncforms.mixed_multiply", ncforms, "mixed_multiply"),
    ("ncforms.CommutatorQuotient.init", ncforms.CommutatorQuotient,
     "__init__"),
    ("algebra.monomials_up_to", algebra.AlgebraPresentation,
     "monomials_up_to"),
    ("groebner.oracle_snf", groebner, "smith_normal_form"),
    ("graphs.smith_normal_form", graphs, "smith_normal_form"),
    ("groebner.strong_gb", groebner, "strong_gb"),
    ("groebner.strong_divide", groebner, "strong_divide"),
    ("groebner.membership_oracle", groebner, "membership_oracle"),
    ("lift.phi_psi_recursion", lift, "phi_psi_recursion"),
    ("lift.section_curvature_check", lift, "section_curvature_check"),
    ("lift.phi", lift.LiftingTower, "phi"),
    ("lift.psi", lift.LiftingTower, "psi"),
    ("tube.tube_member", tube, "tube_member"),
    ("tube.dm_member", tube, "dm_member"),
    ("tube.fedosov_even", tube, "fedosov_even"),
    ("tube.floor_estimates", tube, "floor_estimates"),
    ("derham.h_dr", derham, "h_dr"),
] + [(f"checks.suite.{name}", checks, attr) for name, attr in (
    ("scalars", "suite_scalars"), ("floors", "suite_floors"),
    ("diam", "suite_diam"), ("forms", "suite_forms"),
    ("xcomplex-boundary", "suite_xcomplex_boundary"),
    ("tube-closure", "suite_tube_closure"),
    ("fedosov-growth", "suite_fedosov_growth"))]

COUNTED_LEAVES = [
    ("algebra.one", algebra.AlgebraPresentation, "one"),
    ("algebra.is_unit_monomial", algebra.AlgebraPresentation,
     "is_unit_monomial"),
    ("algebra.mul_monomials", algebra.AlgebraPresentation, "mul_monomials"),
]
TIMED_LEAVES = [("scalars.val", scalars, "val")]
# The X-complex window: the columns it builds and the relation vectors
# that fill it.
WINDOW = [("ncforms.one_form_tuples", ncforms, "one_form_tuples"),
          ("ncforms.commutator_vectors", ncforms, "commutator_vectors")]

_MODULES = (algebra, checks, derham, graphs, groebner, lift, linalg,
            ncforms, scalars, tube)


class Tracer:
    """Spans and counters for one traced pass at a time."""

    def __init__(self):
        self._undo = []
        self.spans = []  # (span id, parent id, name, start, end)
        self.calls = Counter()
        self.incl_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.leaf_s = defaultdict(float)
        self.cells = Counter()
        self.seen = defaultdict(set)
        self.hits = Counter()
        self.max_bits = 0
        self.window = Counter()  # columns built and read by X-complex windows
        # [span id, time spent in child spans, name, args, kwargs]
        self._stack = []

    def reset(self):
        """Start a new pass: only the last pass's spans are kept.

        The wrappers hold these containers, so they are emptied in place.
        """
        for table in (self.spans, self.calls, self.incl_s, self.self_s,
                      self.leaf_s, self.cells, self.seen, self.hits,
                      self.window):
            table.clear()
        self.max_bits = 0

    # -- installing ----------------------------------------------------------

    def install(self):
        claimed = set()
        for name, owner, attr in SPANS:
            self._patch(name, owner, attr, self._span, claimed)
        for name, owner, attr in COUNTED_LEAVES:
            self._patch(name, owner, attr, self._count, claimed)
        for name, owner, attr in TIMED_LEAVES:
            self._patch(name, owner, attr, self._timed_leaf, claimed)
        self._patch(*WINDOW[0], self._columns, claimed)
        self._patch(*WINDOW[1], self._rows, claimed)

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _patch(self, name, owner, attr, make, claimed):
        original = owner.__dict__[attr]
        wrapper = make(name, original)
        owners = [owner]
        if getattr(original, "__module__", None) == owner.__name__:
            # defined here: also patch the modules that imported the name
            owners += [m for m in _MODULES if m is not owner
                       and m.__dict__.get(attr) is original]
        for o in owners:
            if (o, attr) in claimed:
                continue
            claimed.add((o, attr))
            self._undo.append((o, attr, original))
            setattr(o, attr, wrapper)

    # -- wrappers ------------------------------------------------------------

    def _span(self, name, fn):
        tracer = self
        note = getattr(self, "_note_" + name.replace(".", "_"), None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if note is not None:
                note(args)
            stack = tracer._stack
            sid = len(tracer.spans) + len(stack)
            parent = stack[-1][0] if stack else None
            frame = [sid, 0.0, name, args, kwargs]
            stack.append(frame)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                dur = end - start
                tracer.calls[name] += 1
                tracer.incl_s[name] += dur
                tracer.self_s[name] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                tracer.spans.append((sid, parent, name, start, end))
            if name == "linalg.IntEchelon.reduce" and out:
                bits = max(abs(v).bit_length() for v in out.values())
                tracer.max_bits = max(tracer.max_bits, bits)
            return out

        return wrapper

    def _count(self, name, fn):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _timed_leaf(self, name, fn):
        calls, total = self.calls, self.leaf_s
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                total[name] += clock() - t
                calls[name] += 1

        return wrapper

    def _columns(self, name, fn):
        """Counts the 1-form columns built; inside an X-complex call, also
        those of total degree at most its truncation D, which it reads."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(A, bound):
            out = fn(A, bound)
            tracer.window["cols"] += len(out)
            D = tracer._xcomplex_truncation()
            if D is not None:
                tracer.window["built"] += len(out)
                tracer.window["read"] += sum(
                    1 for h, s in out if A.degree(h) + A.degree(s) <= D)
            return out

        return wrapper

    def _rows(self, name, fn):
        """Counts the relation vectors yielded and times their making,
        which happens while the caller asks for the next one."""
        window, total = self.window, self.leaf_s
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)
            while True:
                t = clock()
                try:
                    vec = next(gen)
                except StopIteration:
                    total[name] += clock() - t
                    return
                total[name] += clock() - t
                window["rows"] += 1
                yield vec

        return wrapper

    def _xcomplex_truncation(self):
        for _, _, name, args, kwargs in reversed(self._stack):
            if name == "ncforms.xcomplex_homology":
                return args[2] if len(args) > 2 else kwargs["D"]
        return None

    # -- per-call notes, looked up by span name --------------------------------

    def _snf_cells(self, name, M):
        rows = len(M)
        self.cells[name] += rows * (len(M[0]) if rows else 0)

    def _note_groebner_oracle_snf(self, args):
        self._snf_cells("groebner.oracle_snf", args[0])

    def _note_graphs_smith_normal_form(self, args):
        self._snf_cells("graphs.smith_normal_form", args[0])

    def _seen_before(self, name, tower, key):
        key = (tower,) + key  # towers hash by identity
        if key in self.seen[name]:
            self.hits[name] += 1
        else:
            self.seen[name].add(key)

    def _note_lift_phi(self, args):
        self._seen_before("lift.phi", args[0], tuple(args[1:]))

    def _note_lift_psi(self, args):
        self._seen_before("lift.psi", args[0], tuple(args[1:]))

    # -- results ---------------------------------------------------------------

    def counts(self) -> dict:
        """Every count of the pass; these must repeat exactly."""
        out = {f"{k}.calls": v for k, v in sorted(self.calls.items())}
        out.update({f"{k}.cells": v for k, v in sorted(self.cells.items())})
        out["ncforms.window.cols"] = self.window["cols"]
        out["ncforms.window.rows"] = self.window["rows"]
        out["linalg.IntEchelon.reduce.max_bits"] = self.max_bits
        return out

    def snapshot(self) -> dict:
        """The counts and times of the pass just traced."""
        return {"counts": self.counts(), "hits": dict(self.hits),
                "window": dict(self.window),
                "s": {**self.incl_s, **self.leaf_s},
                "self_s": dict(self.self_s)}

    def write_spans(self, path):
        with open(path, "w") as fh:
            for sid, parent, name, start, end in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent,
                                     "name": name, "start": start,
                                     "end": end}) + "\n")


SUITES = ("scalars", "floors", "diam", "forms", "xcomplex-boundary",
          "tube-closure", "fedosov-growth")

# (metric, unit, better): the per-layer metrics, in report order.
PER_LAYER = [
    ("linalg.IntEchelon.reduce.calls", "count", "lower"),
    ("linalg.IntEchelon.reduce.s", "s", "lower"),
    ("linalg.IntEchelon.add.self_s", "s", "lower"),
    ("linalg.IntEchelon.reduce.max_bits", "bits", "lower"),
    ("linalg.SparseEchelon.reduce.calls", "count", "lower"),
    ("linalg.SparseEchelon.reduce.s", "s", "lower"),
    ("linalg.kernel_basis.s", "s", "lower"),
] + [(f"ncforms.xcomplex_homology.D{D}_s", "s", "lower") for D in LADDER] + [
    ("ncforms.xcomplex_homology.d_exponent", "1", "lower"),
    ("ncforms.window.cols", "count", "lower"),
    ("ncforms.window.rows", "count", "lower"),
    ("ncforms.window.col_yield", "ratio", "higher"),
    ("ncforms.commutator_vectors.s", "s", "lower"),
    ("ncforms.form_multiply.calls", "count", "lower"),
    ("ncforms.form_multiply.s", "s", "lower"),
    ("ncforms.fedosov_mixed.calls", "count", "lower"),
    ("ncforms.fedosov_mixed.s", "s", "lower"),
    ("ncforms.mixed_multiply.s", "s", "lower"),
    ("ncforms.CommutatorQuotient.init_s", "s", "lower"),
    ("algebra.mul_monomials.calls", "count", "lower"),
    ("algebra.is_unit_monomial.calls", "count", "lower"),
    ("algebra.one.calls", "count", "lower"),
    ("algebra.monomials_up_to.s", "s", "lower"),
    ("graphs.smith_normal_form.calls", "count", "lower"),
    ("graphs.smith_normal_form.s", "s", "lower"),
    ("graphs.smith_normal_form.cells", "cells", "lower"),
    ("groebner.strong_gb.s", "s", "lower"),
    ("groebner.strong_divide.calls", "count", "lower"),
    ("groebner.strong_divide.s", "s", "lower"),
    ("groebner.membership_oracle.calls", "count", "lower"),
    ("groebner.membership_oracle.s", "s", "lower"),
    ("groebner.oracle_snf.calls", "count", "lower"),
    ("groebner.oracle_snf.s", "s", "lower"),
    ("groebner.oracle_snf.cells", "cells", "lower"),
    ("groebner.oracle_yield", "ratio", "higher"),
    ("lift.phi_psi_recursion.s", "s", "lower"),
    ("lift.section_curvature_check.s", "s", "lower"),
    ("lift.phi.calls", "count", "lower"),
    ("lift.phi.hit_ratio", "ratio", "higher"),
    ("lift.psi.hit_ratio", "ratio", "higher"),
    ("tube.tube_member.calls", "count", "lower"),
    ("tube.tube_member.s", "s", "lower"),
    ("tube.dm_member.s", "s", "lower"),
    ("tube.fedosov_even.s", "s", "lower"),
    ("tube.floor_estimates.s", "s", "lower"),
    ("derham.h_dr.calls", "count", "lower"),
    ("derham.h_dr.s", "s", "lower"),
    ("scalars.val.calls", "count", "lower"),
    ("scalars.val.s", "s", "lower"),
] + [(f"checks.suite.{name}.s", "s", "lower") for name in SUITES] + [
    ("cli.import_s", "s", "lower"),
    ("cli.import_numpy_s", "s", "lower"),
    ("trace.overhead", "ratio", "lower"),
]


def layer_metrics(snaps, rung_s, overhead, import_s) -> dict:
    """Every PER_LAYER metric from the traced passes' snapshots.

    Counts come from the first traced pass (the caller checks that every
    pass repeats them); times are medians over the traced passes, except
    the rung times ``rung_s`` ({D: seconds}), the fastest untraced ones.
    """
    counts = snaps[0]["counts"]

    def ratio(num, den):
        return num / den if den else 0.0

    values = {}
    for name, unit, _ in PER_LAYER:
        stem, _, tail = name.rpartition(".")
        if unit in ("count", "cells", "bits"):
            values[name] = counts.get(name, 0)
        elif tail in ("s", "self_s"):
            kind = "self_s" if tail == "self_s" else "s"
            values[name] = statistics.median(
                snap[kind].get(stem, 0.0) for snap in snaps)
        elif tail == "init_s":
            values[name] = statistics.median(
                snap["s"].get(f"{stem}.init", 0.0) for snap in snaps)
    for D in LADDER:
        values[f"ncforms.xcomplex_homology.D{D}_s"] = rung_s[D]
    lo, hi = LADDER[-2:]
    values["ncforms.xcomplex_homology.d_exponent"] = (
        math.log(rung_s[hi] / rung_s[lo]) / math.log(hi / lo)
        if rung_s[lo] and rung_s[hi] else 0.0)
    values["groebner.oracle_yield"] = ratio(
        counts.get("groebner.membership_oracle.calls", 0),
        counts.get("groebner.oracle_snf.calls", 0))
    window = snaps[0]["window"]
    values["ncforms.window.col_yield"] = ratio(window.get("read", 0),
                                               window.get("built", 0))
    hits = snaps[0]["hits"]
    for name in ("lift.phi", "lift.psi"):
        values[f"{name}.hit_ratio"] = ratio(hits.get(name, 0),
                                            counts.get(f"{name}.calls", 0))
    values["cli.import_s"], values["cli.import_numpy_s"] = import_s
    values["trace.overhead"] = overhead
    return {name: {"value": values[name], "unit": unit}
            for name, unit, _ in PER_LAYER}
