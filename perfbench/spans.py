"""In-memory span tracer wrapped around the public functions of each layer.

The tracer patches functions from the benchmark's side only; the program is
not edited.  A function is replaced in every ``pdethick`` module that holds
it, so ``solver.classify_cells`` (bound by ``from .geometry import``) is
traced as well as ``geometry.classify_cells``.

Each span records name, start, end, parent span and pass id.  A layer's self
time is its span's duration minus the durations of its direct children.
Counting hooks (unknowns, bytes written, ...) run inside child spans named
``trace.hook``, so their cost lands in the tracing overhead, not in a layer.
"""

from __future__ import annotations

import importlib
import os
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

# Bytes one iteration of the Jacobi-preconditioned CG loop in
# ``solver.solve_spd`` moves per free unknown, outside the matrix itself:
# the matvec's gathered read of p and write of Ap (16), p @ Ap (16),
# x += alpha p (40), r -= alpha Ap (40), ||r|| (8), z = inv_diag r (24),
# r @ z (16) and p = z + beta p (40).  Computed, not measured.
CG_VECTOR_BYTES_PER_UNKNOWN = 200


def _target_size(target) -> int:
    return os.path.getsize(target) if isinstance(target, (str, os.PathLike)) else 0


class Tracer:
    """Spans and counters of one traced pass; install() patches the layers."""

    def __init__(self, pass_id: int = 0):
        self.names: List[str] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.parents: List[int] = []
        self.stack: List[int] = []
        self.pass_id = pass_id
        self.counters: Dict[str, float] = defaultdict(float)
        self.report_depth = 0
        self.cg_bytes_per_iteration = 0
        self._patched: List[Tuple[object, str, object]] = []

    # -- spans ------------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.ends.append(0.0)
        self.stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self.stack.pop()

    def _hook(self, fn: Callable, *args) -> None:
        idx = self._open("trace.hook")
        try:
            fn(*args)
        finally:
            self._close(idx)

    def count(self, metric: str, value: float) -> None:
        self.counters[metric] += value

    def wrap(self, name: str, fn: Callable, pre=None, post=None, fail=None) -> Callable:
        tracer = self

        def traced(*args, **kwargs):
            # direct recursion (dumps_json) stays inside the outer span
            if tracer.stack and tracer.names[tracer.stack[-1]] == name:
                return fn(*args, **kwargs)
            idx = tracer._open(name)
            try:
                if pre is not None:
                    tracer._hook(pre, args, kwargs)
                result = fn(*args, **kwargs)
                if post is not None:
                    tracer._hook(post, result, args, kwargs)
                return result
            except Exception as exc:
                if fail is not None:
                    tracer._hook(fail, exc)
                raise
            finally:
                tracer._close(idx)

        return traced

    # -- patching -----------------------------------------------------------

    def install(self) -> None:
        for module_name, *_ in LAYERS:
            importlib.import_module(f"pdethick.{module_name}")
        modules = [m for n, m in list(sys.modules.items()) if n == "pdethick" or n.startswith("pdethick.")]
        for module_name, attr, _calls, _secs, hooks in LAYERS:
            module = sys.modules[f"pdethick.{module_name}"]
            owner_name, _, fn_name = attr.rpartition(".")
            span_name = f"{module_name}.{attr}"
            hook_fns = hooks(self) if hooks else {}
            if owner_name:
                owner = getattr(module, owner_name)
                self._set(owner, fn_name, self.wrap(span_name, vars(owner)[fn_name], **hook_fns))
                continue
            original = getattr(module, fn_name)
            wrapper = self.wrap(span_name, original, **hook_fns)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapper)

    def _set(self, owner, key: str, value) -> None:
        self._patched.append((owner, key, vars(owner)[key]))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patched):
            setattr(owner, key, original)
        self._patched.clear()

    # -- results ------------------------------------------------------------

    def write_csv(self, path: str) -> None:
        """Append the spans; a new file starts with the header."""
        with open(path, "a") as handle:
            if handle.tell() == 0:
                handle.write("name,start,end,parent,pass\n")
            for row in zip(self.names, self.starts, self.ends, self.parents):
                handle.write("%s,%.9f,%.9f,%d,%d\n" % (*row, self.pass_id))

    def metrics(self) -> Dict[str, float]:
        """Every per-layer metric of the traced pass except the overhead."""
        dur = np.asarray(self.ends) - np.asarray(self.starts)
        parents = np.asarray(self.parents, dtype=np.int64)
        child = np.zeros(len(dur))
        nested = parents >= 0
        np.add.at(child, parents[nested], dur[nested])
        self_time = dur - child
        out = {m: 0.0 for m in PER_LAYER_METRICS if m != "trace.overhead_s"}
        out.update(self.counters)
        out["trace.spans"] = len(self.names)
        for name, t in zip(self.names, self_time):
            layer = SPAN_METRICS.get(name)
            if layer is None:
                continue
            calls, secs = layer
            if calls:
                out[calls] += 1
            out[secs] += float(t)
        return out


# -- counting hooks ----------------------------------------------------------


def _classify_hooks(tr: Tracer):
    return {"post": lambda result, args, kwargs: tr.count("geometry.cells", result.labels.size)}


def _oracle_hooks(tr: Tracer):
    return {"pre": lambda args, kwargs: tr.count("geometry.oracle_cells", args[0].n_cells())}


def _solve_hooks(tr: Tracer):
    def pre(args, kwargs):
        system = kwargs["system"] if "system" in kwargs else args[0]
        A = system.matrix
        free = ~system.dirichlet_mask
        n_free = int(np.count_nonzero(free))
        row_free = np.repeat(free, np.diff(A.indptr))
        nnz = int(np.count_nonzero(row_free & free[A.indices]))
        idx_bytes = A.indices.itemsize
        assembled = A.data.nbytes + A.indices.nbytes + A.indptr.nbytes
        reduced = nnz * (A.data.itemsize + idx_bytes) + (n_free + 1) * idx_bytes
        tr.count("solver.unknowns", n_free)
        tr.count("solver.nnz", nnz)
        tr.counters["solver.matrix_mb"] = max(tr.counters["solver.matrix_mb"], (assembled + reduced) / 2**20)
        tr.cg_bytes_per_iteration = reduced + CG_VECTOR_BYTES_PER_UNKNOWN * n_free

    def post(result, args, kwargs):
        iterations = int(result.iterations or 0)
        tr.count("solver.cg_iterations", iterations)
        tr.counters["solver.cg_iterations_max"] = max(tr.counters["solver.cg_iterations_max"], iterations)
        tr.count("solver.cg_bytes_computed", iterations * tr.cg_bytes_per_iteration)

    def fail(exc):
        from pdethick.errors import NonConvergenceError

        if isinstance(exc, NonConvergenceError):
            tr.count("solver.solve_failed", 1)

    return {"pre": pre, "post": post, "fail": fail}


def _file_hooks(metric: str):
    def make(tr: Tracer):
        return {"post": lambda result, args, kwargs: tr.count(metric, _target_size(args[1]))}

    return make


def _report_hooks(kind: str):
    """Count report bytes once, at the outermost report call."""

    def make(tr: Tracer):
        def pre(args, kwargs):
            tr.report_depth += 1

        def post(result, args, kwargs):
            tr.report_depth -= 1
            if tr.report_depth == 0:
                size = _target_size(args[1]) if kind == "file" else len(result.encode())
                tr.count("harness.report_bytes", size)

        def fail(exc):
            tr.report_depth -= 1

        return {"pre": pre, "post": post, "fail": fail}

    return make


# (module, function or Class.method, calls metric, self-time metric, hooks)
LAYERS = [
    ("bessel", "i0_scaled", "bessel.calls", "bessel.s", None),
    ("bessel", "i1_scaled", "bessel.calls", "bessel.s", None),
    ("bessel", "k0_scaled", "bessel.calls", "bessel.s", None),
    ("bessel", "k1_scaled", "bessel.calls", "bessel.s", None),
    ("analytic", "eval_solution", "analytic.eval_calls", "analytic.eval_s", None),
    ("analytic", "interval_whole", "analytic.closed_form_calls", "analytic.closed_form_s", None),
    ("analytic", "interval_general", "analytic.closed_form_calls", "analytic.closed_form_s", None),
    ("analytic", "band_whole", "analytic.closed_form_calls", "analytic.closed_form_s", None),
    ("analytic", "annulus_whole", "analytic.closed_form_calls", "analytic.closed_form_s", None),
    ("analytic", "solve_family", "analytic.closed_form_calls", "analytic.closed_form_s", None),
    ("analytic", "general_bound", "analytic.closed_form_calls", "analytic.closed_form_s", None),
    ("shapes", "PeriodicBoundary.extremes", "shapes.extremes_calls", "shapes.extremes_s", None),
    ("geometry", "classify_cells", "geometry.classify_calls", "geometry.classify_s", _classify_hooks),
    ("geometry", "geometric_thickness_oracle", None, "geometry.oracle_s", _oracle_hooks),
    ("solver", "assemble_1d", None, "solver.assemble_1d_s", None),
    ("solver", "assemble_radial", None, "solver.assemble_radial_s", None),
    ("solver", "assemble_2d", None, "solver.assemble_2d_s", None),
    ("solver", "solve_spd", "solver.solve_calls", "solver.solve_s", _solve_hooks),
    ("solver", "homogeneous_boundary_probe", "solver.probe_calls", "solver.probe_s", None),
    ("solver", "write_field_csv", None, "solver.field_csv_s", _file_hooks("solver.field_csv_bytes")),
    ("thickness", "divergence", None, "thickness.divergence_s", None),
    ("thickness", "inverse_thickness", None, "thickness.norms_s", None),
    ("thickness", "error_norms", None, "thickness.norms_s", None),
    ("thickness", "write_inverse_thickness_csv", None, "thickness.csv_s", _file_hooks("thickness.csv_bytes")),
    ("harness", "run_general_l2_case", "harness.general_case_calls", "harness.general_case_s", None),
    ("harness", "verify_theorems", None, "harness.self_s", None),
    ("harness", "sweep_a", None, "harness.self_s", None),
    ("harness", "dumps_json", None, "harness.report_s", _report_hooks("text")),
    ("harness", "write_report_json", None, "harness.report_s", _report_hooks("file")),
    ("harness", "report_csv_text", None, "harness.report_s", _report_hooks("text")),
    ("harness", "VerifyReport.csv_text", None, "harness.report_s", _report_hooks("text")),
    ("cli", "parse_and_dispatch", None, "cli.self_s", None),
]

SPAN_METRICS: Dict[str, Tuple[Optional[str], str]] = {
    f"{module}.{attr}": (calls, secs) for module, attr, calls, secs, _ in LAYERS
}

#: per-layer metric -> unit; the order is the order they are printed in
PER_LAYER_METRICS: Dict[str, str] = {
    "bessel.calls": "count",
    "bessel.s": "s",
    "analytic.eval_calls": "count",
    "analytic.eval_s": "s",
    "analytic.closed_form_calls": "count",
    "analytic.closed_form_s": "s",
    "shapes.extremes_calls": "count",
    "shapes.extremes_s": "s",
    "geometry.classify_calls": "count",
    "geometry.classify_s": "s",
    "geometry.cells": "count",
    "geometry.oracle_s": "s",
    "geometry.oracle_cells": "count",
    "solver.assemble_1d_s": "s",
    "solver.assemble_radial_s": "s",
    "solver.assemble_2d_s": "s",
    "solver.unknowns": "count",
    "solver.nnz": "count",
    "solver.matrix_mb": "MiB",
    "solver.solve_calls": "count",
    "solver.solve_s": "s",
    "solver.cg_iterations": "count",
    "solver.cg_iterations_max": "count",
    "solver.cg_bytes_computed": "B",
    "solver.probe_calls": "count",
    "solver.probe_s": "s",
    "solver.solve_failed": "count",
    "solver.field_csv_s": "s",
    "solver.field_csv_bytes": "B",
    "thickness.divergence_s": "s",
    "thickness.norms_s": "s",
    "thickness.csv_s": "s",
    "thickness.csv_bytes": "B",
    "harness.general_case_calls": "count",
    "harness.general_case_s": "s",
    "harness.self_s": "s",
    "harness.report_s": "s",
    "harness.report_bytes": "B",
    "cli.self_s": "s",
    "trace.spans": "count",
    "trace.overhead_s": "s",
}
