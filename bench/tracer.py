"""Span tracer for the benchmark's traced run.

The tracer rebinds sfem2d's public functions at every sfem2d module that
holds them (``sfem2d.solver.element_stiffness`` and
``sfem2d.smoothing.element_stiffness`` are both replaced), so the
library source is never edited. Each call records a span (name, start,
end, parent, raised); spans stay in memory until the run ends. Counts
are read at the same call boundaries from the arguments and return
values.
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict
from time import perf_counter


def _points(args):
    p = args[0]
    return len(p) if getattr(p, "ndim", 1) > 1 else 1


def _count_element_stiffness(counts, args, kwargs, out, seconds):
    counts["smoothing.element_stiffness.cells"] += len(out.cells)


def _count_subdivide(counts, args, kwargs, out, seconds):
    requested = args[1] if len(args) > 1 else kwargs["k"]
    counts["mesh.subdivide_adaptive.fallbacks"] += out[1] != requested


def _count_solve(counts, args, kwargs, out, seconds):
    k = (args[0] if args else kwargs["system"]).stiffness
    counts["solver.solve.dofs"] += k.shape[0]
    counts["solver.solve.nnz"] += k.nnz


def _eval_counter(scheme):
    def counter(counts, args, kwargs, out, seconds):
        n = _points(args)
        counts["shapefn.eval.points"] += n
        counts[f"shapefn.eval.{scheme}_points"] += n
        counts[f"shapefn.eval.{scheme}_total_s"] += seconds
    return counter


# Traced functions, keyed "<module>.<function>" under the sfem2d
# package, with the counter called with the arguments, the return value
# and the duration of each call.
TARGETS = {
    "mesh.generate_structured_mesh": None,
    "mesh.distort_mesh": None,
    "mesh.subdivide_adaptive": _count_subdivide,
    "shapefn.shape_evaluator": None,
    "smoothing.element_stiffness": _count_element_stiffness,
    "smoothing.smoothed_b": None,
    "solver.assemble": None,
    "solver.apply_tractions": None,
    "solver.apply_dirichlet": None,
    "solver.solve": _count_solve,
    "benchmarks.beam_mesh": None,
    "benchmarks.solve_beam": None,
    "benchmarks.energy_norm_error": None,
    "benchmarks.run_convergence_study": None,
    "benchmarks.fit_rate": None,
    "benchmarks.run_patch_test": None,
}
MODULES = ("mesh", "shapefn", "smoothing", "solver", "benchmarks")


class Tracer:
    """Records nested spans around the traced functions while installed."""

    def __init__(self):
        self.spans = []          # (name, start, end, parent index, raised)
        self.counts = defaultdict(float)
        self._stack = []
        self._restore = []

    def _wrap(self, name, fn, counter):
        spans, stack, counts = self.spans, self._stack, self.counts

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            raised = True
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
                raised = False
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, raised)
            if counter is not None:
                counter(counts, args, kwargs, out, end - start)
            return out

        return traced

    def _wrap_shape_evaluator(self, fn):
        traced = self._wrap("shapefn.shape_evaluator", fn, None)

        def evaluator_factory(*args, **kwargs):
            scheme = args[0] if args else kwargs["scheme"]
            evaluator = traced(*args, **kwargs)
            # the evaluator it returns is traced as a span of its own
            return self._wrap("shapefn.eval", evaluator,
                              _eval_counter(scheme))

        return evaluator_factory

    def install(self):
        """Rebind every target at each loaded sfem2d module holding it."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == "sfem2d" or n.startswith("sfem2d.")]
        for qual, counter in TARGETS.items():
            mod, fn_name = qual.split(".")
            orig = getattr(sys.modules[f"sfem2d.{mod}"], fn_name)
            if qual == "shapefn.shape_evaluator":
                wrapped = self._wrap_shape_evaluator(orig)
            else:
                wrapped = self._wrap(qual, orig, counter)
            functools.update_wrapper(wrapped, orig)
            for m in modules:
                if m.__dict__.get(fn_name) is orig:
                    self._restore.append((m, fn_name, orig))
                    setattr(m, fn_name, wrapped)

    def uninstall(self):
        for m, fn_name, orig in reversed(self._restore):
            setattr(m, fn_name, orig)
        self._restore.clear()

    def mark(self):
        """Position to summarize from: (span count, snapshot of counts)."""
        return len(self.spans), dict(self.counts)

    def summarize(self, since):
        """Per-function calls, total_s, self_s, failed (calls that
        raised) and counts for the spans recorded after ``since``, a
        value from mark(); plus self_s summed per module."""
        first, counts_before = since
        spans = self.spans[first:]
        child = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= first:
                child[parent - first] += end - start
        out = defaultdict(float)
        for i, (name, start, end, _, raised) in enumerate(spans):
            dur = end - start
            out[name + ".calls"] += 1
            out[name + ".total_s"] += dur
            out[name + ".self_s"] += dur - child[i]
            out[name + ".failed"] += raised
        for key, value in self.counts.items():
            out[key] += value - counts_before.get(key, 0.0)
        for mod in MODULES:
            out[mod + ".self_s"] = sum(
                v for k, v in list(out.items())
                if k.startswith(mod + ".") and k.endswith(".self_s")
                and k.count(".") == 2)
        out["trace.spans"] = len(spans)
        return dict(out)
