"""Span recorder for the traced run.

The recorder replaces public functions of the package, as bound in the
module that calls them, with wrappers that record one span per call:
name, start, end, parent span and op id.  Spans stay in memory; the
per-layer metrics are derived from them once the run is over.  Nothing
under ``src/`` is modified: every replacement is undone when the
``patched`` context exits.

A span's self time is its duration minus the time its child spans
cover.  Calls are strictly nested (the traced run is single-threaded),
so the children of a span never overlap one another.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict
from contextlib import contextmanager


def _csr_bytes(m) -> int:
    return int(m.data.nbytes + m.indices.nbytes + m.indptr.nbytes)


# (module the call is looked up in, attribute, span name, counter)
# A counter maps the call's result to {count name: value}; counts of one
# op are summed, except names ending in "_max", which keep the largest.
TARGETS = (
    ("hypersir.cli", "main", "cli.main", None),
    ("hypersir.cli", "prepare_input", "cli.prepare_input", None),
    ("hypersir.cli", "select_seeds", "cli.select_seeds", None),
    ("hypersir.cli", "generate", "generators.generate", None),
    ("hypersir.cli", "load_hyperedge_list", "data_io.load_hyperedge_list", None),
    ("hypersir.cli", "giant_component", "hypergraph.giant_component", None),
    ("hypersir.cli", "build_adjacency", "hypergraph.build_adjacency",
     lambda view: {"hypergraph.links": view.binary.nnz}),
    ("hypersir.cli", "enumerate_two_simplices", "hypergraph.enumerate_two_simplices",
     lambda ts: {"hypergraph.triples": ts.num_triples}),
    ("hypersir.message_passing", "build_link_index", "hypergraph.build_link_index", None),
    ("hypersir.cli", "build_wnb", "message_passing.build_wnb",
     lambda op: {"message_passing.operator_bytes_max": _csr_bytes(op.skeleton)}),
    ("hypersir.message_passing", "build_wnb", "message_passing.build_wnb",
     lambda op: {"message_passing.operator_bytes_max": _csr_bytes(op.skeleton)}),
    ("hypersir.cli", "leading_eigen", "message_passing.leading_eigen",
     lambda res: {"message_passing.eigen_iterations": res.iterations}),
    ("hypersir.message_passing", "leading_eigen", "message_passing.leading_eigen",
     lambda res: {"message_passing.eigen_iterations": res.iterations}),
    ("hypersir.message_passing", "mp_solve", "message_passing.mp_solve",
     lambda st: {"message_passing.mp_iterations": st.iterations,
                 "message_passing.mp_converged": int(bool(st.converged))}),
    ("hypersir.cli", "run_sir", "sir.run_sir",
     lambda st: {"sir.runs": st.runs, "sir.non_absorbed": st.non_absorbed}),
    ("hypersir.sir", "run_sir", "sir.run_sir",
     lambda st: {"sir.runs": st.runs, "sir.non_absorbed": st.non_absorbed}),
    ("hypersir.cli", "collective_influence", "influence.collective_influence", None),
    ("hypersir.cli", "cia_select", "influence.cia_select", None),
    ("hypersir.cli", "baseline_select", "influence.baseline_select", None),
)

ROOT = "op"


class Tracer:
    """In-memory span log plus per-op counts."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, op id]
        self.counts: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self._stack: list[int] = []
        self._op: int | None = None

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self._op])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def _count(self, values: dict) -> None:
        tally = self.counts[self._op]
        for key, v in values.items():
            if key.endswith("_max"):
                tally[key] = max(tally[key], float(v))
            else:
                tally[key] += float(v)

    def wrap(self, name: str, fn, counter=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if counter is not None:
                self._count(counter(result))
            return result
        return traced

    @contextmanager
    def patched(self):
        """Install every wrapper in TARGETS; restore the originals on exit."""
        saved = []
        try:
            for modname, attr, name, counter in TARGETS:
                mod = importlib.import_module(modname)
                original = getattr(mod, attr)
                saved.append((mod, attr, original))
                setattr(mod, attr, self.wrap(name, original, counter))
            yield self
        finally:
            for mod, attr, original in reversed(saved):
                setattr(mod, attr, original)

    @contextmanager
    def op(self, op_id: int):
        """Root span of one op; its self time is benchmark overhead."""
        self._op = op_id
        idx = self._open(ROOT)
        try:
            yield
        finally:
            self._close(idx)
            self._op = None

    def per_op(self) -> dict[int, dict[str, float]]:
        """Per op: self seconds and call count per span name, plus counts."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for idx, (name, start, end, _, op_id) in enumerate(self.spans):
            row = out[op_id]
            row[f"{name}.self_s"] += (end - start) - child_time[idx]
            row[f"{name}.calls"] += 1
            if name == ROOT:
                row["op_s"] += end - start
        for op_id, tally in self.counts.items():
            out[op_id].update(tally)
        return out

