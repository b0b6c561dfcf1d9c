"""Influence scoring and seed-set selection.

The score of a node is the weighted mass of non-backtracking
continuations through its immediate neighborhood: for each neighbor j,
the weighted link into j, times the weighted links from the node into
j's neighborhood, times j's remaining binary degree.  It approximates
how much the node inflates the leading eigenvalue of the link operator,
so removing high scorers deflates the epidemic threshold fastest.
Selection strategies consume the scores (or plain degree variants) and
spread seeds apart to avoid overlapping infection zones.  Scores are a
float64 array indexed by node id; a seed set is a tuple of distinct node
ids in pick order.
"""

from __future__ import annotations

import numpy as np

from .hypergraph import AdjacencyView, _check_count, _check_rates, _fits

__all__ = [
    "collective_influence",
    "ranked_nodes",
    "cia_select",
    "baseline_select",
    "top_overlap_probability",
    "top_overlap_curve",
    "BASELINE_METHODS",
]

BASELINE_METHODS = ("degree", "hyperdegree", "ci_naive", "hadp", "hsdp", "random")

# collective_influence scores rows in blocks of about this many two-hop entries
_BLOCK_CELLS = 2**19


def collective_influence(view: AdjacencyView, beta1: float, gamma: float) -> np.ndarray:
    """Neighborhood influence score per node, as a float64 array.

    score(i) = (beta1*gamma)^2 * sum over neighbors j of
    A_ij * (sum over k in N(j) of A_ik) * (d_N(j) - 1).
    The accumulation is exact integer arithmetic; the infection-rate
    prefactor multiplies once at the end, so rankings are independent of
    beta1 and gamma, which are checked as :func:`build_wnb` checks them.
    Rows are scored in blocks of about _BLOCK_CELLS two-hop entries (a
    row over budget is a block of its own), each on the subgraph induced
    by its rows' neighbors, which holds every path the block reads; this
    bounds the memory, and as the sums are exact the scores are
    bit-identical to one whole product.
    """
    _check_rates(beta1, gamma)
    weighted, binary = view.weighted, view.binary
    excess = view.node_degree - 1
    # row i of weighted @ binary holds at most sum over k in N(i) of d_N(k) entries
    fill = np.cumsum(binary @ view.node_degree)
    base = np.zeros(view.num_nodes, dtype=np.int64)
    lo = 0
    while lo < view.num_nodes:
        budget = (fill[lo - 1] if lo else 0) + _BLOCK_CELLS
        hi = max(lo + 1, int(np.searchsorted(fill, budget, side="right")))
        rows = weighted[lo:hi]
        # z[i, j] = weighted links from i into the neighborhood of j;
        # restricting to the pattern of A keeps only actual neighbors j,
        # so both hops of every path read stay inside the rows' neighbors.
        near = np.flatnonzero(np.bincount(rows.indices, minlength=view.num_nodes))
        rows, hop = rows[:, near], binary[near][:, near]
        base[lo:hi] = rows.multiply(rows @ hop) @ excess[near]
        lo = hi
    scale = (beta1 * gamma) ** 2
    return scale * base.astype(np.float64)


def ranked_nodes(view: AdjacencyView, scores: np.ndarray) -> np.ndarray:
    """Node ids in the total selection order: score desc, weighted degree
    desc, id asc (lexsort is stable, so full ties keep id order)."""
    scores = np.asarray(scores)
    if len(scores) != view.num_nodes:
        raise ValueError("score vector length does not match the view")
    return np.lexsort((-view.weighted_degree, -scores))


def _check_k(view: AdjacencyView, k: int) -> None:
    _check_count("k", k, 0)
    if k > view.num_nodes:
        raise ValueError(f"k={k} exceeds the {view.num_nodes} available nodes")


def cia_select(view: AdjacencyView, scores: np.ndarray, k: int) -> tuple[int, ...]:
    """Adaptive top-score selection that skips neighbors of chosen seeds.

    Walks the ranked candidate list once: the current best is taken
    unless it neighbors an already-chosen seed, in which case it is set
    aside.  If the walk ends short of k seeds, the set-aside candidates
    are admitted in their original rank order.
    """
    _check_k(view, k)
    binary = view.binary
    blocked = np.zeros(view.num_nodes, dtype=bool)
    chosen, skipped = [], []
    for v in ranked_nodes(view, scores).tolist():
        if len(chosen) == k:
            break
        if blocked[v]:
            skipped.append(v)
            continue
        chosen.append(v)
        blocked[binary.indices[binary.indptr[v]: binary.indptr[v + 1]]] = True
    return tuple((chosen + skipped)[:k])


def _adaptive_select(view: AdjacencyView, k: int, method: str) -> list[int]:
    """Greedy argmax on a degree vector that shrinks around each pick.

    key = d*N + tie holds the current degree d above a static rank tie,
    N-1 for the first node of the (weighted degree desc, id asc) order,
    so one argmax is one pick.  d stays in [0, N-1], so key < N^2 fits
    int64.  Picked nodes hold key -1, and only the pick's still-available
    neighbours are updated.
    """
    n = view.num_nodes
    indptr, indices = view.binary.indptr, view.binary.indices
    tie = n - 1 - np.argsort(ranked_nodes(view, np.zeros(n)))
    key = view.node_degree * n + tie
    in_nbhd = np.zeros(n, dtype=np.int64)
    chosen: list[int] = []
    for _ in range(k):
        pick = int(key.argmax())
        chosen.append(pick)
        key[pick] = -1
        nbrs = indices[indptr[pick]: indptr[pick + 1]]
        free = nbrs[key[nbrs] >= 0]
        if method == "hsdp":
            key[free] -= n
        else:  # hadp: shared neighborhood plus the seed itself, floored at 0
            in_nbhd[nbrs] = 1
            shared = view.binary[free] @ in_nbhd
            in_nbhd[nbrs] = 0
            key[free] = np.maximum(0, key[free] // n - (shared + 1)) * n + tie[free]
    return chosen


def baseline_select(view: AdjacencyView, k: int, method: str,
                    rng_seed: int = 0) -> tuple[int, ...]:
    """Reference selection strategies.

    degree / hyperdegree: static top-k by binary degree / hyperedge
    membership count.  ci_naive: top-k by (d_H(i)-1) * sum of
    (d_H(j)-1) over neighbors j.  hadp / hsdp: greedy argmax on a
    degree vector penalized around each pick (shared-neighborhood
    penalty, or a flat -1).  random: uniform without replacement,
    deterministic for a given rng_seed.
    """
    if method not in BASELINE_METHODS:
        raise ValueError(f"unknown selection method: {method!r}")
    _check_k(view, k)
    if method == "degree":
        nodes = ranked_nodes(view, view.node_degree)[:k]
    elif method == "hyperdegree":
        nodes = ranked_nodes(view, view.hyperdegree)[:k]
    elif method == "ci_naive":
        excess = view.hyperdegree - 1
        score = excess * (view.binary @ excess)
        nodes = ranked_nodes(view, score)[:k]
    elif method in ("hadp", "hsdp"):
        nodes = _adaptive_select(view, k, method)
    else:
        rng = np.random.default_rng(rng_seed)
        nodes = rng.choice(view.num_nodes, size=k, replace=False)
    return tuple(int(v) for v in nodes)


def top_overlap_probability(view: AdjacencyView, scores: np.ndarray,
                            n_percent: float) -> float:
    """Chance that a random neighbor of a random top-n% node is also top-n%.

    The top set is the first max(1, round(n% of N)) nodes of the ranked
    order.  Top nodes without neighbors contribute zero overlap.
    """
    return top_overlap_curve(view, scores, [n_percent])[0]


def top_overlap_curve(view: AdjacencyView, scores: np.ndarray, n_grid) -> list[float]:
    """:func:`top_overlap_probability` at each n% of ``n_grid``, ranking once."""
    if not all(_fits(n_percent, float) and 0 < n_percent <= 100 for n_percent in n_grid):
        raise ValueError("n_percent must lie in (0, 100]")
    order = ranked_nodes(view, scores)
    curve = []
    for n_percent in n_grid:
        m = max(1, int(round(n_percent / 100.0 * view.num_nodes)))
        top = order[:m]
        in_top = np.bincount(top, minlength=view.num_nodes)
        hits, deg = (view.binary @ in_top)[top], view.node_degree[top]
        # cumsum adds left to right in rank order (np.sum adds pairwise); the last entry is the total
        total = np.cumsum(hits[deg > 0] / deg[deg > 0])
        curve.append(float(total[-1]) / m if len(total) else 0.0)
    return curve
