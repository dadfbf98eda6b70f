"""Outside-in span tracer for the contourgf package.

The package imports functions by name (``from .core import
validate_system``), so a call made from another module goes through that
module's own binding.  The tracer therefore replaces every binding of a
target function, in every module of the package, with one wrapper that
records a span; restoring puts the original objects back.  A target the
package no longer defines is reported as absent instead of failing, so
the tracer keeps working across refactors that delete or move
functions.

A span holds its name, start and end (``perf_counter_ns``), the index of
its parent span and the pass it belongs to, plus an optional amount of
work computed from array shapes.  Spans are
kept in memory and aggregated or written out when the run ends.  A
span's self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from contextlib import contextmanager

# Traced functions as "<module>.<function>".  Spans of "cli.cmd_gf" are
# reported as "cli.gf_writer": its self time is the tabulation writer,
# because the component evaluation below it is a child span.
TARGETS = (
    "cli.load_config",
    "cli.cmd_gf",
    "core.validate_system",
    "core.propagator_stack",
    "core.hermitian_expm",
    "core.lu_factorization",
    "core.dense_invert",
    "discrete.build_contour_matrix",
    "discrete.discrete_green",
    "discrete.discrete_partition_function",
    "continuum.component_table",
    "continuum.gf_component",
    "continuum.contour_component",
    "continuum.fix_constants",
    "continuum.solution_from_constants",
    "verify.run_structure_suite",
    "verify.continuum_contour_matrix",
    "verify.run_oracle_suite",
)
SPAN_NAMES = {"cli.cmd_gf": "cli.gf_writer"}
ROOT = "cli.main"


def _lu_flops(args, kwargs, result):
    """Complex LU of an n x n matrix: 8 n^3 / 3 real flops (computed)."""
    matrix = args[0] if args else kwargs.get("matrix")
    n = getattr(matrix, "shape", (0,))[0]
    return 8.0 * n ** 3 / 3.0


def _result_nbytes(args, kwargs, result):
    return float(getattr(getattr(result, "matrix", result), "nbytes", 0))


def _result_entries(args, kwargs, result):
    return float(getattr(result, "size", 0))


# Work attached to a span, computed from array shapes.
WORK = {
    "core.lu_factorization": _lu_flops,
    "discrete.build_contour_matrix": _result_nbytes,
    "verify.continuum_contour_matrix": _result_nbytes,
    "continuum.component_table": _result_entries,
}


class Tracer:
    """Wraps the target functions of ``modules`` (a name -> module map)."""

    def __init__(self, modules: dict):
        self.modules = modules
        self.spans: list[tuple] = []
        self.pass_id = 0
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def install(self) -> None:
        self.absent = []
        for target in TARGETS:
            module_name, func_name = target.split(".")
            home = self.modules.get(module_name)
            original = getattr(home, func_name, None) if home else None
            if not callable(original):
                self.absent.append(target)
                continue
            wrapper = self._wrap(SPAN_NAMES.get(target, target), original, WORK.get(target))
            for module in self.modules.values():
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _open(self) -> tuple[int, int]:
        """Push a new span; returns its index and its parent's."""
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(index)
        return index, parent

    def _wrap(self, name, func, work_of):
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            index, parent = self._open()
            start = time.perf_counter_ns()
            result = None
            try:
                result = func(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter_ns()
                work = work_of(args, kwargs, result) if work_of and result is not None else 0.0
                self._stack.pop()
                self.spans[index] = (name, start, end, parent, self.pass_id, work)

        return wrapper

    @contextmanager
    def root(self):
        """Root span around one CLI call."""
        index, parent = self._open()
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans[index] = (ROOT, start, end, parent, self.pass_id, 0.0)

    def per_pass(self) -> dict[int, dict[str, dict[str, float]]]:
        """``{pass: {span name: {calls, self_s, total_s, work}}}``."""
        child_ns = defaultdict(int)
        for name, start, end, parent, pass_id, work in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: dict[int, dict] = defaultdict(
            lambda: defaultdict(lambda: {"calls": 0, "self_s": 0.0, "total_s": 0.0, "work": 0.0}))
        for index, (name, start, end, parent, pass_id, work) in enumerate(self.spans):
            entry = out[pass_id][name]
            entry["calls"] += 1
            entry["total_s"] += (end - start) * 1e-9
            entry["self_s"] += (end - start - child_ns[index]) * 1e-9
            entry["work"] += work
        return out

    def dump(self) -> list[dict]:
        keys = ("name", "start_ns", "end_ns", "parent", "pass", "work")
        return [dict(zip(keys, span)) for span in self.spans]
