"""Per-layer metrics of the traced run, derived from its spans.

Times are self seconds per op and counts are per op, each the median
over the traced ops.  A layer an op never reaches reads 0, and so do
ratios whose base is 0 (``mp_converged_ratio`` without an ``mp_solve``
call, ``cli.pool_speedup`` outside ``sweep``).
"""

from __future__ import annotations

import statistics

# name -> (unit, better)
PER_LAYER = {
    "generators.generate_s": ("s", "lower"),
    "data_io.load_hyperedge_list_s": ("s", "lower"),
    "hypergraph.giant_component_s": ("s", "lower"),
    "hypergraph.build_adjacency_s": ("s", "lower"),
    "hypergraph.enumerate_two_simplices_s": ("s", "lower"),
    "hypergraph.links": ("count", "lower"),
    "hypergraph.triples": ("count", "lower"),
    "hypergraph.build_link_index_s": ("s", "lower"),
    "hypergraph.build_link_index_calls": ("count", "lower"),
    "message_passing.build_wnb_s": ("s", "lower"),
    "message_passing.build_wnb_calls": ("count", "lower"),
    "message_passing.leading_eigen_s": ("s", "lower"),
    "message_passing.leading_eigen_calls": ("count", "lower"),
    "message_passing.eigen_iterations": ("count", "lower"),
    "message_passing.mp_solve_s": ("s", "lower"),
    "message_passing.mp_iterations": ("count", "lower"),
    "message_passing.mp_converged_ratio": ("ratio", "higher"),
    "message_passing.operator_bytes": ("B_computed", "lower"),
    "sir.run_sir_s": ("s", "lower"),
    "sir.run_sir_calls": ("count", "lower"),
    "sir.runs": ("count", "higher"),
    "sir.us_per_run": ("us", "lower"),
    "sir.non_absorbed_ratio": ("ratio", "lower"),
    "influence.collective_influence_s": ("s", "lower"),
    "influence.collective_influence_calls": ("count", "lower"),
    "influence.cia_select_s": ("s", "lower"),
    "influence.baseline_select_s": ("s", "lower"),
    "cli.prepare_input_s": ("s", "lower"),
    "cli.select_seeds_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "cli.pool_speedup": ("ratio", "higher"),
    "trace.op_s": ("s", "lower"),
    "trace.unaccounted_s": ("s", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
}

# Span self times reported under a metric name of their own.
SPAN_TIMES = {
    "cli.self_s": "cli.main",
    "trace.unaccounted_s": "op",
}
SPAN_CALLS = ("hypergraph.build_link_index", "message_passing.build_wnb",
              "message_passing.leading_eigen", "sir.run_sir",
              "influence.collective_influence")
COUNTS = ("hypergraph.links", "hypergraph.triples", "message_passing.eigen_iterations",
          "message_passing.mp_iterations", "sir.runs")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def op_metrics(row: dict[str, float]) -> dict[str, float]:
    """Per-layer values of one traced op, from its span and count tallies."""
    out = {}
    for name in PER_LAYER:
        if name in SPAN_TIMES:
            out[name] = row.get(f"{SPAN_TIMES[name]}.self_s", 0.0)
        elif name.endswith("_s") and not name.startswith("trace."):
            out[name] = row.get(f"{name[:-2]}.self_s", 0.0)
    for span in SPAN_CALLS:
        out[f"{span}_calls"] = row.get(f"{span}.calls", 0.0)
    for name in COUNTS:
        out[name] = row.get(name, 0.0)
    out["message_passing.operator_bytes"] = row.get("message_passing.operator_bytes_max", 0.0)
    out["message_passing.mp_converged_ratio"] = _ratio(
        row.get("message_passing.mp_converged", 0.0), row.get("message_passing.mp_solve.calls", 0.0))
    out["sir.us_per_run"] = _ratio(1e6 * row.get("sir.run_sir.self_s", 0.0), row.get("sir.runs", 0.0))
    out["sir.non_absorbed_ratio"] = _ratio(row.get("sir.non_absorbed", 0.0), row.get("sir.runs", 0.0))
    out["trace.op_s"] = row.get("op_s", 0.0)
    return out


def layer_metrics(per_op: dict, plain: list[float], pooled: list[float] | None) -> dict[str, float]:
    """Median over traced ops of each per-layer value, plus the two ratios
    against untraced ops: trace overhead and (on ``sweep``) thread-pool speed-up."""
    rows = [op_metrics(row) for op_id, row in per_op.items() if op_id is not None]
    values = {name: statistics.median(r[name] for r in rows)
              for name in PER_LAYER if name in rows[0]}
    values["trace.overhead_ratio"] = _ratio(values["trace.op_s"], statistics.median(plain))
    values["cli.pool_speedup"] = (
        _ratio(statistics.median(plain), statistics.median(pooled)) if pooled else 0.0)
    return values
