"""Spans around every public ddh function, recorded from the benchmark's side.

``installed(tracer)`` wraps each public function defined in a ``ddh``
module and rebinds the wrapper in every ``ddh`` namespace that holds the
original (``lu_solve`` lives in ``ddh.oracle`` and is imported into
``ddh.hmatrix``; ``non_sdd_rows`` is imported into four other modules and
the package), so calls from inside the package are caught too.  Nothing under ``src/`` changes; the
originals are put back on exit.

Each call becomes one span (id, parent id, name, start, end, self time),
kept in memory; a span's self time is its duration minus the time its
child spans cover.  A few functions also feed work counters.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

LAYERS = ("mmio", "core", "graph", "interwoven", "hmatrix", "oracle", "cli")


def _argument(fn, args, kwargs, name):
    return inspect.signature(fn).bind(*args, **kwargs).arguments[name]


def _count_submatrix(counts, fn, args, kwargs, result):
    counts["core.submatrix_entries"] += len(_argument(fn, args, kwargs, "S")) ** 2


def _count_edges(counts, fn, args, kwargs, result):
    counts["graph.edges"] += sum(len(nbrs) for nbrs in result.adjacency)


def _count_path_vertices(counts, fn, args, kwargs, result):
    counts["graph.path_vertices"] += sum(len(p) for p in result.paths.values())


def _count_peel_levels(counts, fn, args, kwargs, result):
    counts["hmatrix.peel_levels"] += len(result.peel_trace)


def _count_lu(counts, fn, args, kwargs, result):
    m = len(_argument(fn, args, kwargs, "M"))
    rhs_arg = _argument(fn, args, kwargs, "B")
    rhs = 1 if getattr(rhs_arg, "ndim", 1) == 1 else rhs_arg.shape[1]
    counts["oracle.lu_flops"] += 2 * m**3 / 3 + 2 * m * m * rhs
    counts["oracle.lu_order_max"] = max(counts["oracle.lu_order_max"], m)


COUNTERS = {
    "core.principal_submatrix": _count_submatrix,
    "graph.build_graph": _count_edges,
    "graph.chain_condition": _count_path_vertices,
    "hmatrix.is_h_dd": _count_peel_levels,
    "oracle.lu_solve": _count_lu,
}


def _nested(span, names, by_id) -> bool:
    """True when an ancestor of ``span`` is also named in ``names``."""
    parent = by_id.get(span[1])
    while parent is not None:
        if parent[2] in names:
            return True
        parent = by_id.get(parent[1])
    return False


class Tracer:
    """In-memory span recorder; one per traced pass."""

    def __init__(self):
        self.spans: list[tuple[int, int, str, float, float, float]] = []
        self.counts: Counter = Counter()
        self._stack: list[list] = []  # [span id, time covered by children]

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1][0] if self._stack else -1
            frame = [len(self.spans) + len(self._stack), 0.0]
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                if self._stack:
                    self._stack[-1][1] += end - start
                self.spans.append((frame[0], parent, name, start, end, end - start - frame[1]))
            if counter is not None:
                counter(self.counts, fn, args, kwargs, result)
            return result

        return traced

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer totals of one traced pass."""
        metrics: dict[str, float] = {}
        for layer in LAYERS:
            mine = [s for s in self.spans if s[2].startswith(layer + ".")]
            metrics[f"{layer}.self_s"] = sum(s[5] for s in mine)
            metrics[f"{layer}.calls"] = len(mine)
        metrics["mmio.parse_s"] = self.inclusive_s("mmio.read_matrix_file", "mmio.parse_matrix_market")
        metrics["core.row_sum_calls"] = self.calls("core.partial_row_sum")
        metrics["graph.build_graph_calls"] = self.calls("graph.build_graph")
        metrics["interwoven.is_interwoven_s"] = self.inclusive_s("interwoven.is_interwoven")
        metrics["interwoven.from_peeling_s"] = self.inclusive_s("interwoven.interwoven_from_peeling")
        metrics["hmatrix.s_h_check_s"] = self.inclusive_s("hmatrix.s_h_check")
        metrics["oracle.lu_solve_s"] = self.inclusive_s("oracle.lu_solve")
        metrics["cli.emit_s"] = self.inclusive_s("cli.emit_json")
        metrics["cli.verify_report_s"] = self.inclusive_s("cli.verify_report")
        for key in ("core.submatrix_entries", "graph.edges", "graph.path_vertices",
                    "hmatrix.peel_levels", "oracle.lu_order_max", "oracle.lu_flops"):
            metrics[key] = self.counts[key]
        return metrics

    def calls(self, name: str) -> int:
        return sum(1 for s in self.spans if s[2] == name)

    def inclusive_s(self, *names: str) -> float:
        """Time inside any of ``names``, counting nested calls among them once."""
        by_id = {s[0]: s for s in self.spans}
        return sum(s[4] - s[3] for s in self.spans
                   if s[2] in names and not _nested(s, names, by_id))

    def per_function(self) -> dict[str, tuple[int, float, float]]:
        """name -> (calls, inclusive seconds, self seconds)."""
        by_id = {s[0]: s for s in self.spans}
        table: dict[str, list] = {}
        for s in self.spans:
            row = table.setdefault(s[2], [0, 0.0, 0.0])
            row[0] += 1
            if not _nested(s, (s[2],), by_id):
                row[1] += s[4] - s[3]
            row[2] += s[5]
        return {name: tuple(row) for name, row in table.items()}

    def write(self, path: Path):
        with open(path, "w") as fh:
            for span_id, parent, name, start, end, self_s in self.spans:
                fh.write(json.dumps({"id": span_id, "parent": parent, "name": name,
                                     "start": start, "end": end, "self_s": self_s}) + "\n")


@contextmanager
def installed(tracer: Tracer):
    """Route every public ddh function through ``tracer`` for the duration."""
    modules = {layer: importlib.import_module(f"ddh.{layer}") for layer in LAYERS}
    wrapped = {}
    for layer, module in modules.items():
        for name, obj in vars(module).items():
            if not name.startswith("_") and inspect.isfunction(obj) and obj.__module__ == module.__name__:
                wrapped[id(obj)] = (obj, tracer.wrap(f"{layer}.{name}", obj))
    namespaces = [m for name, m in list(sys.modules.items()) if name == "ddh" or name.startswith("ddh.")]
    patched = []
    for ns in namespaces:
        for name, obj in list(vars(ns).items()):
            entry = wrapped.get(id(obj))
            if entry is not None and entry[0] is obj:
                setattr(ns, name, entry[1])
                patched.append((ns, name, obj))
    try:
        yield tracer
    finally:
        for ns, name, obj in patched:
            setattr(ns, name, obj)
