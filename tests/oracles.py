"""Independent reference implementations backing the test suite.

Everything here recomputes target quantities from first principles by
direct scans over the raw hyperedge list, without touching the package's
derived structures, so agreement between package and oracle is a real
check rather than a tautology.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from itertools import combinations, combinations_with_replacement, permutations, product
from math import comb, sqrt

import numpy as np
from scipy.sparse.csgraph import connected_components


def normalize_hyperedges(num_nodes, hyperedges):
    """Sorted member tuples, validated edge by edge in input order.

    Raises ValueError naming the first bad hyperedge and, within it, the
    first failed test: empty, node id out of range, repeated node id.
    """
    normalized = []
    for pos, edge in enumerate(hyperedges):
        members = tuple(sorted(int(v) for v in edge))
        if not members:
            raise ValueError(f"hyperedge {pos} is empty")
        if members[0] < 0 or members[-1] >= num_nodes:
            raise ValueError(f"hyperedge {pos} has node id outside [0, {num_nodes})")
        if len(set(members)) != len(members):
            raise ValueError(f"hyperedge {pos} contains a duplicate node id")
        normalized.append(members)
    return tuple(normalized)


def dense_incidence(num_nodes, hyperedges):
    """N x M 0/1 membership matrix, one column per hyperedge."""
    inc = np.zeros((num_nodes, len(hyperedges)), dtype=np.int64)
    for alpha, edge in enumerate(hyperedges):
        for v in edge:
            inc[v, alpha] = 1
    return inc


def giant_component_by_remap(num_nodes, hyperedges):
    """(kept node count, restricted hyperedges, old-to-new id map).

    The largest component of the dense pairwise adjacency (the lowest
    component label wins ties); hyperedges are remapped member by member
    and dropped when no member survives.
    """
    if num_nodes == 0:
        return 0, (), np.empty(0, dtype=np.int64)
    _, labels = connected_components(pairwise_adjacency(num_nodes, hyperedges), directed=False)
    keep = labels == np.argmax(np.bincount(labels))
    remap = np.full(num_nodes, -1, dtype=np.int64)
    remap[keep] = np.arange(int(keep.sum()), dtype=np.int64)
    new_edges = []
    for edge in hyperedges:
        members = tuple(int(remap[v]) for v in edge if keep[v])
        if members:
            new_edges.append(members)
    return int(keep.sum()), tuple(new_edges), remap


def pairwise_adjacency(num_nodes, hyperedges):
    """Dense shared-hyperedge counts by looping over node pairs per edge."""
    a = np.zeros((num_nodes, num_nodes), dtype=np.int64)
    for e in hyperedges:
        for i, j in combinations(sorted(e), 2):
            a[i, j] += 1
            a[j, i] += 1
    return a


def triple_weights(hyperedges, size_cap=25):
    """Map sorted triple -> number of hyperedges containing it."""
    w = defaultdict(int)
    skipped = 0
    for e in hyperedges:
        if len(e) > size_cap:
            skipped += 1
            continue
        for t in combinations(sorted(e), 3):
            w[t] += 1
    return dict(w), skipped


def brute_triples_by_scan(num_nodes, hyperedges, size_cap=25):
    """Triple weights via the cubic all-triples scan (N <= 30)."""
    w = {}
    kept = [set(e) for e in hyperedges if len(e) <= size_cap]
    for t in combinations(range(num_nodes), 3):
        c = sum(1 for e in kept if set(t) <= e)
        if c:
            w[t] = c
    return w


def brute_two_simplices(num_nodes, hyperedges, size_cap=25, mode="containment"):
    """Every field of a two-simplex set, by a dict over per-edge 3-subsets.

    Returns {field name: value} with the field names, values, row order
    and dtypes of ``hypersir.TwoSimplexSet``; see that class for the
    meaning of each field.
    """
    counts = {}
    skipped = 0
    for e in hyperedges:
        e = tuple(sorted(e))
        if len(e) < 3 or (mode == "size3only" and len(e) != 3):
            continue
        if len(e) > size_cap:
            skipped += 1
            continue
        for t in combinations(e, 3):
            counts[t] = counts.get(t, 0) + 1
    triples = np.array(sorted(counts), dtype=np.int64).reshape(-1, 3)
    weights = np.array([counts[tuple(t)] for t in triples.tolist()], dtype=np.int64)
    centers, other_a, other_b, center_weight = [], [], [], []
    for member in range(3):
        for t, w in zip(triples.tolist(), weights.tolist()):
            rest = t[:member] + t[member + 1:]
            centers.append(t[member])
            other_a.append(rest[0])
            other_b.append(rest[1])
            center_weight.append(w)
    order = np.argsort(np.array(centers, dtype=np.int64), kind="stable")
    centers = np.array(centers, dtype=np.int64)[order]
    node_triple_weight = np.zeros(num_nodes, dtype=np.int64)
    rows_per_center = np.zeros(num_nodes, dtype=np.int64)
    for c, w in zip(centers.tolist(), np.array(center_weight, dtype=np.int64)[order].tolist()):
        node_triple_weight[c] += w
        rows_per_center[c] += 1
    center_ptr = np.concatenate([[0], np.cumsum(rows_per_center)]).astype(np.int64)
    return {
        "triples": triples,
        "weights": weights,
        "centers": centers,
        "other_a": np.array(other_a, dtype=np.int64)[order],
        "other_b": np.array(other_b, dtype=np.int64)[order],
        "center_weight": np.array(center_weight, dtype=np.int64)[order],
        "center_ptr": center_ptr,
        "node_triple_weight": node_triple_weight,
        "skipped_hyperedges": skipped,
        "size_cap": size_cap,
    }


def exact_sigma_distribution(num_nodes, hyperedges, seeds, beta1, beta2,
                             gamma=1, size_cap=25):
    """Exhaustive enumeration of every stochastic trajectory.

    Returns {final_size: probability}.  Infection pressures are computed
    per susceptible node by scanning hyperedges: an edge containing the
    node and m infected members contributes m to the pairwise exponent
    and C(m, 2) to the triangle exponent (edges above size_cap skip the
    triangle channel).  Branches over every infect/skip outcome subset,
    so keep num_nodes tiny.
    """
    start_status = [0] * num_nodes
    for s in seeds:
        start_status[s] = 1
    dist = {(tuple(start_status), (0,) * num_nodes): 1.0}
    out = defaultdict(float)
    edge_sets = [frozenset(e) for e in hyperedges]
    while dist:
        nxt = defaultdict(float)
        for (status, age), pr in dist.items():
            if 1 not in status:
                out[status.count(2)] += pr
                continue
            sus = [i for i in range(num_nodes) if status[i] == 0]
            certain = []
            coin = []
            for i in sus:
                wsum = 0
                tsum = 0
                for e in edge_sets:
                    if i not in e:
                        continue
                    m = sum(1 for j in e if status[j] == 1)
                    wsum += m
                    if len(e) <= size_cap:
                        tsum += comb(m, 2)
                p = 1.0 - (1.0 - beta1) ** wsum * (1.0 - beta2) ** tsum
                if p >= 1.0:
                    certain.append(i)
                elif p > 0.0:
                    coin.append((i, p))
            for bits in product((0, 1), repeat=len(coin)):
                bp = pr
                newly = list(certain)
                for (i, p), b in zip(coin, bits):
                    if b:
                        bp *= p
                        newly.append(i)
                    else:
                        bp *= 1.0 - p
                if bp == 0.0:
                    continue
                ns = list(status)
                na = list(age)
                for i in range(num_nodes):
                    if status[i] == 1:
                        if age[i] >= gamma - 1:
                            ns[i] = 2
                            na[i] = 0
                        else:
                            na[i] = age[i] + 1
                for i in newly:
                    ns[i] = 1
                    na[i] = 0
                nxt[(tuple(ns), tuple(na))] += bp
        dist = nxt
    return dict(out)


def exact_final_marginals(num_nodes, hyperedges, seeds, beta1, beta2,
                          gamma=1, size_cap=25):
    """Per-node probability of ending recovered, by full enumeration.

    Same trajectory tree as exact_sigma_distribution, but the terminal
    accumulator is a vector: out[i] = P(node i was ever infected).
    """
    start_status = [0] * num_nodes
    for s in seeds:
        start_status[s] = 1
    dist = {(tuple(start_status), (0,) * num_nodes): 1.0}
    out = np.zeros(num_nodes)
    edge_sets = [frozenset(e) for e in hyperedges]
    while dist:
        nxt = defaultdict(float)
        for (status, age), pr in dist.items():
            if 1 not in status:
                for i in range(num_nodes):
                    if status[i] == 2:
                        out[i] += pr
                continue
            sus = [i for i in range(num_nodes) if status[i] == 0]
            certain = []
            coin = []
            for i in sus:
                wsum = 0
                tsum = 0
                for e in edge_sets:
                    if i not in e:
                        continue
                    m = sum(1 for j in e if status[j] == 1)
                    wsum += m
                    if len(e) <= size_cap:
                        tsum += comb(m, 2)
                p = 1.0 - (1.0 - beta1) ** wsum * (1.0 - beta2) ** tsum
                if p >= 1.0:
                    certain.append(i)
                elif p > 0.0:
                    coin.append((i, p))
            for bits in product((0, 1), repeat=len(coin)):
                bp = pr
                newly = list(certain)
                for (i, p), b in zip(coin, bits):
                    if b:
                        bp *= p
                        newly.append(i)
                    else:
                        bp *= 1.0 - p
                if bp == 0.0:
                    continue
                ns = list(status)
                na = list(age)
                for i in range(num_nodes):
                    if status[i] == 1:
                        if age[i] >= gamma - 1:
                            ns[i] = 2
                            na[i] = 0
                        else:
                            na[i] = age[i] + 1
                for i in newly:
                    ns[i] = 1
                    na[i] = 0
                nxt[(tuple(ns), tuple(na))] += bp
        dist = nxt
    return out


def multinomial_violations(samples, probs, z=3.0):
    """Compare sampled counts to exact bin probabilities.

    Returns a list of human-readable violations: any sample value with
    zero probability, or any bin whose count deviates from expectation
    by more than z binomial standard deviations (plus 1 for continuity).
    """
    n = len(samples)
    counts = Counter(np.asarray(samples).tolist())
    bad = []
    for s in counts:
        if s not in probs or probs[s] <= 0.0:
            bad.append(f"impossible outcome sigma={s} observed {counts[s]} times")
    for s, p in probs.items():
        obs = counts.get(s, 0)
        tol = z * sqrt(n * p * (1.0 - p)) + 1.0
        if abs(obs - n * p) > tol:
            bad.append(
                f"sigma={s}: observed {obs}, expected {n * p:.1f} +- {tol:.1f}"
            )
    return bad


def leave_one_out_escape(view, simplices, i_msg, beta1, beta2):
    """Cavity and full no-infection products, one direct product each.

    Links are the sorted (i, j) pairs with A_ij > 0, read straight off
    ``view.weighted``; ``i_msg`` is indexed in that order.  The product
    for link (i -> j) runs over in-links (k -> i), k != j, of
    (1 - beta1 I_ki)^A_ki and over the triangles {i, m, l} of
    ``simplices.triples`` with j not in {m, l}, of
    (1 - beta2 I_mi I_li)^w; the full product of node i drops no factor.
    Returns (cav, full, cav_zero, full_zero), the last two flagging
    products that hold a factor equal to exactly 0.
    """
    w = view.weighted.tocoo()
    weight = {(int(i), int(j)): int(a) for i, j, a in zip(w.row, w.col, w.data) if a}
    pairs = sorted(weight)
    msg = dict(zip(pairs, np.asarray(i_msg, dtype=np.float64).tolist(), strict=True))
    in_nbrs = defaultdict(list)
    for k, i in pairs:
        in_nbrs[i].append(k)
    tris = defaultdict(list)
    for (a, b, c), tw in zip(simplices.triples.tolist(), simplices.weights.tolist()):
        for i, m, l in ((a, b, c), (b, a, c), (c, a, b)):
            tris[i].append((m, l, tw))

    def escape(i, j):
        bases = [(1.0 - beta1 * msg[k, i], weight[k, i]) for k in in_nbrs[i] if k != j]
        bases += [(1.0 - beta2 * msg[m, i] * msg[l, i], tw)
                  for m, l, tw in tris[i] if j not in (m, l)]
        prod = 1.0
        for base, power in bases:
            prod *= base ** power
        return prod, any(base == 0.0 for base, _ in bases)

    cav = [escape(i, j) for i, j in pairs]
    full = [escape(i, None) for i in range(view.num_nodes)]
    return (np.array([p for p, _ in cav]), np.array([p for p, _ in full]),
            np.array([z for _, z in cav], dtype=bool), np.array([z for _, z in full], dtype=bool))


def brute_collective_influence(num_nodes, hyperedges, beta1, gamma):
    """Triple-loop influence scores straight off the dense adjacency.

    Integer accumulation with a single final float multiply, mirroring
    the order of operations the package promises, so equality can be
    asserted bitwise.
    """
    a = pairwise_adjacency(num_nodes, hyperedges)
    deg = (a > 0).sum(axis=1)
    scores = np.zeros(num_nodes)
    for i in range(num_nodes):
        total = 0
        for j in range(num_nodes):
            if a[i, j] == 0:
                continue
            z = 0
            for k in range(num_nodes):
                if a[j, k] > 0:
                    z += a[i, k]
            total += int(a[i, j]) * z * (int(deg[j]) - 1)
        scores[i] = (beta1 * gamma) ** 2 * total
    return scores


def enumerate_small_hypergraphs(num_nodes=4, max_edges=3):
    """Isomorphism classes of hypergraphs on num_nodes labeled nodes.

    Edge multisets of 1..max_edges hyperedges with sizes in
    [2, num_nodes], deduplicated under node relabeling; each class is
    returned as its lexicographically smallest representative.  Size-1
    hyperedges are omitted: they touch neither adjacency channel, so
    every dynamics trajectory is identical with or without them.
    """
    universe = list(range(num_nodes))
    pool = []
    for size in range(2, num_nodes + 1):
        pool.extend(combinations(universe, size))
    perms = list(permutations(universe))
    seen = set()
    reps = []
    for m in range(1, max_edges + 1):
        for combo in combinations_with_replacement(range(len(pool)), m):
            edges = [pool[k] for k in combo]
            canon = min(
                tuple(sorted(tuple(sorted(p[v] for v in e)) for e in edges))
                for p in perms
            )
            if canon in seen:
                continue
            seen.add(canon)
            reps.append([list(e) for e in canon])
    return reps
