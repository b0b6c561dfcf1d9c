"""Independent reference implementations backing the test suite.

Everything here recomputes target quantities from first principles by
direct scans over the raw hyperedge list, without touching the package's
derived structures, so agreement between package and oracle is a real
check rather than a tautology.
"""

from __future__ import annotations

import numbers
from collections import Counter, defaultdict
from itertools import combinations, combinations_with_replacement, permutations, product
from math import ceil, comb, log, sqrt

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components
from scipy.sparse.linalg import eigsh


def normalize_hyperedges(num_nodes, hyperedges):
    """Sorted member tuples, validated edge by edge in input order.

    Raises ValueError naming the first hyperedge that holds a node id
    which is not an integer (a bool is none), before any other fault;
    else the first bad hyperedge and, within it, the first failed test:
    empty, node id out of range, repeated node id.
    """
    for pos, edge in enumerate(hyperedges):
        if not all(isinstance(v, numbers.Integral) and not isinstance(v, bool) for v in edge):
            raise ValueError(f"hyperedge {pos} has a non-integer node id")
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


def brute_two_simplices(num_nodes, hyperedges, size_cap=25):
    """Every field of a two-simplex set, by a dict over per-edge 3-subsets.

    Returns {name: value} with the field names, values, row order and
    dtypes of ``hypersir.TwoSimplexSet``; see that class for the meaning
    of each.
    """
    counts = {}
    for e in hyperedges:
        e = tuple(sorted(e))
        if 3 <= len(e) <= size_cap:
            for t in combinations(e, 3):
                counts[t] = counts.get(t, 0) + 1
    node_triple_weight = np.zeros(num_nodes, dtype=np.int64)
    rows = []  # (pair, center, weight), one per triple member
    for t, w in counts.items():
        for member in range(3):
            node_triple_weight[t[member]] += w
            rows.append((t[:member] + t[member + 1:], t[member], w))
    rows.sort()
    rows_per_pair = Counter(pair for pair, _, _ in rows)
    pairs = sorted(rows_per_pair)
    return {
        "pair_weight": np.array([w for _, _, w in rows], dtype=np.int64),
        "pair_center": np.array([c for _, c, _ in rows], dtype=np.int32),
        "pair_ptr": np.cumsum([0] + [rows_per_pair[p] for p in pairs]).astype(np.int32),
        "pair_a": np.array([a for a, _ in pairs], dtype=np.int64),
        "pair_b": np.array([b for _, b in pairs], dtype=np.int64),
        "node_triple_weight": node_triple_weight,
    }


def triples_of(simplices):
    """{sorted triple: weight} decoded from the pair-major rows of a
    two-simplex set, in ascending triple order.

    Asserts that every triple has exactly three rows, one per member as
    the center, and that the three carry the same weight.
    """
    rows = defaultdict(list)
    ptr, centers, weights = (simplices.pair_ptr.tolist(), simplices.pair_center.tolist(),
                             simplices.pair_weight.tolist())
    for p, (a, b) in enumerate(zip(simplices.pair_a.tolist(), simplices.pair_b.tolist())):
        for c, w in zip(centers[ptr[p]:ptr[p + 1]], weights[ptr[p]:ptr[p + 1]]):
            rows[tuple(sorted((a, b, c)))].append(w)
    for t, ws in rows.items():
        assert len(set(t)) == 3 and len(ws) == 3 and len(set(ws)) == 1, (t, ws)
    return {t: rows[t][0] for t in sorted(rows)}


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


def reference_advance(status, age, view, simplices, beta1, beta2, gamma, rng):
    """One synchronous SIR step, in place, on (R, N) status/age arrays.

    The plain runs-batched kernel: a dense float product for the pairwise
    pressure, a scatter of the expanded triangle rows whose other two
    members are both infected for the triangle pressure, and the power
    form (1 - beta)^pressure.  The rows are expanded here from the
    triples and weights of :func:`triples_of`, one per member as the
    center.  It draws
    one (R, N) block of uniforms per step, so the package kernel, which
    reads the same block, must match it bit for bit.
    """
    runs, n = status.shape
    infected = status == 1
    escape = (1.0 - beta1) ** (infected.astype(np.float64) @ view.weighted)
    if beta2 > 0.0 and simplices is not None and simplices.num_triples:
        tw = triples_of(simplices)
        t = np.array(list(tw), dtype=np.int64)
        centers, other_a, other_b = (np.concatenate(t[:, cols].T) for cols in
                                     ([0, 1, 2], [1, 0, 0], [2, 2, 1]))
        row, k = np.nonzero(infected[:, other_a] & infected[:, other_b])
        tri = np.bincount(row * n + centers[k], weights=np.tile(list(tw.values()), 3)[k],
                          minlength=runs * n)
        escape *= (1.0 - beta2) ** tri.reshape(runs, n)
    newly = (status == 0) & (rng.random((runs, n)) < 1.0 - escape)
    recover = infected & (age >= gamma - 1)
    age += infected & ~recover
    age[newly] = 0
    status += newly | recover


def reference_run_sir(view, simplices, seeds, params, runs):
    """(final sizes, absorbed flags) of ``runs`` runs stepped together.

    Every run stays in the state until the last one ends or t_max is
    reached, one ``reference_advance`` per step from a generator seeded
    with params.rng_seed.
    """
    n = view.num_nodes
    t_max = params.t_max if params.t_max is not None else 10 * n
    rng = np.random.default_rng(params.rng_seed)
    status = np.zeros((runs, n), dtype=np.int8)
    age = np.zeros((runs, n), dtype=np.int64)
    status[:, list(seeds)] = 1
    t = 0
    while t < t_max and (status == 1).any():
        reference_advance(status, age, view, simplices,
                          params.beta1, params.beta2, params.gamma, rng)
        t += 1
    return np.count_nonzero(status == 2, axis=1), ~(status == 1).any(axis=1)


def percolation_final_sizes(view, seeds, beta1, gamma, samples, rng):
    """Final sizes of the beta2 = 0 process, sampled by bond percolation.

    With a fixed infectious period of gamma steps, an infected node makes
    gamma attempts on each neighbor j, each failing with probability
    (1 - beta1)^A_ij.  Exploring the outbreak from the seeds tests each
    pair {i, j} at most once, so the final infected set is distributed
    as the union of the seeds' clusters when each pair is kept
    independently with probability T_ij = 1 - (1 - beta1)^(gamma A_ij)
    (Kenah & Robins, PRE 76:036113, 2007).  One connected_components
    call per sample.
    """
    pairs = sp.triu(view.weighted, k=1).tocoo()
    keep_p = 1.0 - (1.0 - beta1) ** (gamma * pairs.data.astype(np.float64))
    seeds = np.asarray(list(seeds), dtype=np.int64)
    sizes = np.empty(samples, dtype=np.int64)
    for s in range(samples):
        kept = rng.random(len(keep_p)) < keep_p
        graph = sp.coo_matrix((np.ones(int(kept.sum())), (pairs.row[kept], pairs.col[kept])),
                              shape=view.weighted.shape)
        _, labels = connected_components(graph, directed=False)
        sizes[s] = np.count_nonzero(np.isin(labels, labels[seeds]))
    return sizes


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
    ``triples_of(simplices)`` with j not in {m, l}, of
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
    for (a, b, c), tw in triples_of(simplices).items():
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


def reference_plumb(links, simplices):
    """Cavity plumbing arrays by a dict from node pair to link id.

    For every expanded triple row, in the pair-major order of the set,
    the ids of the in-links (other -> center) and of their reverses, its
    center and its weight as a float; KeyError when a pair is no link.
    """
    link_id = {(s, d): e for e, (s, d) in enumerate(zip(links.src.tolist(), links.dst.tolist()))}
    tlink_a, tlink_b = [], []
    for p, (a, b) in enumerate(zip(simplices.pair_a.tolist(), simplices.pair_b.tolist())):
        for c in simplices.pair_center[simplices.pair_ptr[p]:simplices.pair_ptr[p + 1]].tolist():
            tlink_a.append(link_id[a, c])
            tlink_b.append(link_id[b, c])
    tlink_a, tlink_b = np.array(tlink_a, dtype=np.int64), np.array(tlink_b, dtype=np.int64)
    return {"tlink_a": tlink_a, "tlink_b": tlink_b,
            "excl_a": links.reverse[tlink_a], "excl_b": links.reverse[tlink_b],
            "centers": simplices.pair_center,
            "center_power": simplices.pair_weight.astype(np.float64)}


def nb_operator(view, beta1, gamma) -> np.ndarray:
    """Dense weighted non-backtracking link operator, from its definition.

    Links are the nonzeros (i, j) of ``view.weighted`` in row-major
    order, which is the package's link order; entry ((i -> j), (k -> i))
    is ``beta1 * gamma * A_ki`` for every k != j (Karrer & Newman, PRE
    82:016101, 2010) and every other entry is 0.  Reads only
    ``view.weighted``, never the link index.
    """
    a = view.weighted.toarray()
    links = list(zip(*(ids.tolist() for ids in np.nonzero(a))))
    link_id = {link: e for e, link in enumerate(links)}
    scale = beta1 * gamma
    mat = np.zeros((len(links), len(links)))
    for row, (i, j) in enumerate(links):
        for k in np.nonzero(a[:, i])[0].tolist():
            if k != j:
                mat[row, link_id[k, i]] = scale * a[k, i]
    return mat


def ihara_bass_radius(view) -> float:
    """Spectral radius of the skeleton link operator, from the node level.

    The weighted Ihara-Bass identity (Watanabe & Fukumizu, NIPS 2009)
    reads ``det(I - zB) = prod_edges (1 - z^2 w^2) * det(I - K(z))`` for
    the operator ``B[(i->j), (k->i)] = w_ki`` (k != j), where ``K(z)`` is
    the symmetric N x N matrix with off-diagonal entries
    ``z w_ij / (1 - z^2 w_ij^2)`` and diagonal entries
    ``-sum_j z^2 w_ij^2 / (1 - z^2 w_ij^2)``.  B is nonnegative, so
    ``1 / rho`` is the smallest z > 0 at which ``det(I - zB)`` vanishes;
    below it the top eigenvalue of ``K(z)`` stays under 1 (it is 0 at
    z = 0), so ``1 / rho`` is where that eigenvalue first reaches 1.
    A secant on z, kept inside a bracket (Illinois rule), finds it from
    ``1 / max row sum <= 1 / rho``.  The factor ``1 - z w`` has a pole at
    ``z = 1 / max w``; when the root does not come clearly before it (a
    unicyclic graph with unit weights has it at the pole, and forests
    have none), ValueError is raised rather than a guess.  Reads only
    ``view.weighted``, never the link index.
    """
    a = view.weighted.tocoo()
    n = view.num_nodes
    rows, cols, w = a.row, a.col, a.data.astype(np.float64)
    strength = np.bincount(rows, weights=w, minlength=n)
    max_row = float((strength[rows] - w).max(initial=0.0))  # row (i->j) sums s_i - w_ij
    if max_row == 0.0:
        raise ValueError("B is zero: the radius is 0 and has no root")
    pole = 1.0 / w.max()

    def excess(z):
        """Top eigenvalue of K(z), minus 1."""
        zw = z * w
        den = 1.0 - zw * zw
        k = sp.csr_matrix((zw / den, (rows, cols)), shape=(n, n))
        k = k + sp.diags(-np.bincount(rows, weights=zw * zw / den, minlength=n))
        if n <= 64:
            return float(np.linalg.eigvalsh(k.toarray())[-1]) - 1.0
        top = eigsh(k, k=1, which="LA", v0=np.ones(n), tol=1e-15, return_eigenvectors=False)
        return float(top[0]) - 1.0

    lo = 1.0 / max_row
    if not lo < pole:
        raise ValueError(f"pole z = {pole!r} at or below the start {lo!r}")
    f_lo = excess(lo)
    if f_lo >= 0.0:  # rho is the largest row sum (a regular graph), up to rounding
        return 1.0 / lo
    hi, f_hi = lo, f_lo
    while f_hi < 0.0:  # march toward the pole until the top eigenvalue passes 1
        lo, f_lo = hi, f_hi
        hi = min(2.0 * hi, 0.5 * (hi + pole))
        if pole - hi <= 1e-6 * pole:  # K(z) grows as 1 / (1 - z max w) there
            raise ValueError(f"no root clearly before the pole z = {pole!r}")
        f_hi = excess(hi)
    side = 0
    for _ in range(200):
        z = hi - f_hi * (hi - lo) / (f_hi - f_lo)
        f = excess(z)
        if f == 0.0 or min(z - lo, hi - z) <= 1e-15 * z:
            return 1.0 / z
        if f < 0.0:
            lo, f_lo = z, f
            if side == -1:
                f_hi *= 0.5
            side = -1
        else:
            hi, f_hi = z, f
            if side == 1:
                f_lo *= 0.5
            side = 1
    raise ValueError("secant on z did not converge")


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


def _selection_order(view, primary):
    """Node ids by primary desc, weighted degree desc, id asc."""
    n = view.num_nodes
    return np.lexsort((np.arange(n), -view.weighted_degree, -np.asarray(primary)))


def reference_cia_select(view, scores, k):
    """CIA picks by a walk of the ranked list, then a second pass that
    admits the set-aside neighbours of chosen seeds in rank order."""
    order = _selection_order(view, scores)
    binary = view.binary
    blocked = np.zeros(view.num_nodes, dtype=bool)
    chosen, skipped = [], []
    for v in order:
        if len(chosen) == k:
            break
        v = int(v)
        if blocked[v]:
            skipped.append(v)
            continue
        chosen.append(v)
        blocked[binary.indices[binary.indptr[v]: binary.indptr[v + 1]]] = True
    for v in skipped:
        if len(chosen) == k:
            break
        chosen.append(v)
    return tuple(chosen)


def reference_adaptive_select(view, k, method):
    """hadp / hsdp picks by a full re-sort of every node before each pick.

    hsdp takes 1 off each neighbour of the pick; hadp takes the number of
    neighbours it shares with the pick, plus 1, floored at 0.
    """
    binary = view.binary
    d = view.node_degree.astype(np.int64).copy()
    available = np.ones(view.num_nodes, dtype=bool)
    chosen = []
    for _ in range(k):
        order = _selection_order(view, d)
        pick = next(int(v) for v in order if available[v])
        chosen.append(pick)
        available[pick] = False
        nbrs = binary.indices[binary.indptr[pick]: binary.indptr[pick + 1]]
        if method == "hsdp":
            d[nbrs] -= 1
        else:
            row = np.zeros(view.num_nodes, dtype=np.int64)
            row[nbrs] = 1
            shared = binary[nbrs] @ row
            d[nbrs] = np.maximum(0, d[nbrs] - (shared + 1))
    return tuple(chosen)


def reference_top_overlap(view, scores, n_percent):
    """Mean over the top max(1, round(n% of N)) ranked nodes of the share of
    each one's neighbours that are top nodes too, accumulated node by node
    in rank order; nodes without neighbours add zero."""
    order = _selection_order(view, scores)
    m = max(1, int(round(n_percent / 100.0 * view.num_nodes)))
    top = order[:m]
    in_top = np.zeros(view.num_nodes, dtype=bool)
    in_top[top] = True
    binary = view.binary
    total = 0.0
    for v in top:
        nbrs = binary.indices[binary.indptr[v]: binary.indptr[v + 1]]
        if len(nbrs):
            total += in_top[nbrs].mean()
    return total / m


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


def reference_sf_chunglu(spec):
    """Hyperedges of the scale-free generator, one scalar uniform per draw.

    The Chung-Lu skip walk as first written: numpy scalars, one
    ``rng.random()`` call per uniform, one member list per hyperedge.
    Returns the kept hyperedges (two or more members) in walk order and
    the number of steps taken at p >= 1, which draw no skip uniform.
    """
    n, m = spec.num_nodes, spec.num_hyperedges
    rng = np.random.default_rng(spec.rng_seed)
    cutoff = max(1, ceil(sqrt(n * m)))
    (d_lo, d_hi), (s_lo, s_hi) = spec.degree_range, spec.size_range
    d_hi, s_hi = (cutoff if d_hi is None else d_hi), (cutoff if s_hi is None else s_hi)

    def power_law(low, high, size):
        support = np.arange(low, high + 1, dtype=np.float64)
        pmf = support ** (-spec.exponent)
        pmf /= pmf.sum()
        return rng.choice(np.arange(low, high + 1), size=size, p=pmf)

    degree_target = power_law(d_lo, d_hi, n).astype(np.float64)
    size_target = power_law(s_lo, s_hi, m).astype(np.float64)
    total_weight = degree_target.sum()
    order = np.argsort(-degree_target, kind="stable")
    w_sorted = degree_target[order]
    edges, saturated = [], 0
    for s in size_target:
        members = []
        i = 0
        p = min(1.0, w_sorted[0] * s / total_weight)
        while i < n and p > 0.0:
            if p < 1.0:
                i += int(log(rng.random()) / log(1.0 - p))
            else:
                saturated += 1
            if i >= n:
                break
            q = min(1.0, w_sorted[i] * s / total_weight)
            if rng.random() < q / p:
                members.append(int(order[i]))
            p = q
            i += 1
        if len(members) >= 2:
            edges.append(members)
    return edges, saturated
