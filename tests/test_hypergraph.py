"""Core structure tests: adjacency algebra, triangles, links, components."""

import collections
import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp

import hypersir as hs
import oracles


def random_hypergraph(rng, num_nodes, num_edges, max_size):
    edges = []
    for _ in range(num_edges):
        size = int(rng.integers(1, max_size + 1))
        size = min(size, num_nodes)
        edges.append(sorted(int(v) for v in rng.choice(num_nodes, size, replace=False)))
    return hs.Hypergraph(num_nodes, edges)


# ---------------------------------------------------------------------------
# construction and validation

def test_hyperedge_member_out_of_range_rejected():
    with pytest.raises(ValueError):
        hs.Hypergraph(3, [(0, 3)])
    with pytest.raises(ValueError):
        hs.Hypergraph(3, [(-1, 0)])


def test_duplicate_member_within_edge_rejected():
    with pytest.raises(ValueError):
        hs.Hypergraph(3, [(0, 0, 1)])


def test_empty_hyperedge_rejected():
    with pytest.raises(ValueError):
        hs.Hypergraph(3, [()])


def test_duplicate_hyperedges_are_kept():
    h = hs.Hypergraph(3, [(0, 1, 2), (0, 1, 2)])
    assert h.num_hyperedges == 2
    v = hs.build_adjacency(h)
    assert v.weighted[0, 1] == 2
    assert v.binary[0, 1] == 1


@pytest.mark.parametrize("edges", [
    [(0, 1), ()],
    [(0, 1), (0, 3)],
    [(0, 1), (-1, 0)],
    [(1, 1, 2)],
    [(0, 1), (2, 2, 5), ()],   # out of range and repeated: range is tested first
    [(0, 0), (5,), ()],        # the first bad hyperedge is named, whatever its fault
    [(2, 1, 0), (0,), (1, 2), (2, 2)],
    [(0, 1.5)],                         # a non-integer id is refused, not truncated
    [(0, 1), (), (2, 0.5)],             # and named before any other fault
    [(0, 1), (1, float("nan"))],
    [(True, False)],
    [(0, True)],                        # a bool among ints is no id either
    [(0, 1), (2, np.True_)],
    [(0, 1), (2.0,)],                   # nor a whole-valued float among ints
])
def test_invalid_hyperedge_names_same_position_as_per_edge_oracle(edges):
    with pytest.raises(ValueError) as want:
        oracles.normalize_hyperedges(3, edges)
    with pytest.raises(ValueError) as got:
        hs.Hypergraph(3, edges)
    assert str(got.value) == str(want.value)
    flat = [v for e in edges for v in e]
    with pytest.raises(ValueError) as got:
        hs.Hypergraph.from_arrays(3, [len(e) for e in edges], flat)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("num_nodes", [3.7, 3.0, True, -1, "3", None])
def test_non_integer_node_count_refused(num_nodes):
    for make in (lambda: hs.Hypergraph(num_nodes, [[0]]),
                 lambda: hs.Hypergraph.from_arrays(num_nodes, [1], [0])):
        with pytest.raises(ValueError, match="num_nodes must be an integer >= 0"):
            make()


def test_whole_float_ids_refused_by_dtype():
    # 2.0 cannot be told from 2 once the ids share one float array; a list
    # is checked entry by entry, so there the hyperedge is named
    with pytest.raises(ValueError, match="^hyperedge 1 has a non-integer node id$"):
        hs.Hypergraph(3, [(0, 1), (2.0,)])
    with pytest.raises(ValueError, match="node ids must be integers, not float64"):
        hs.Hypergraph.from_arrays(3, [2], np.array([0.0, 1.0]))
    h = hs.Hypergraph.from_arrays(np.int64(3), [2], np.array([0, 2], dtype=np.uint8))
    assert h.num_nodes == 3 and h.members.tolist() == [0, 2]


@pytest.mark.parametrize("make, message", [
    (lambda: hs.Hypergraph(4, [[1], [0, 2**64]]), r"^hyperedge 1 has node id outside \[0, 4\)$"),
    (lambda: hs.Hypergraph(4, [[0, 2**63]]), r"^hyperedge 0 has node id outside \[0, 4\)$"),
    (lambda: hs.Hypergraph(4, [[-2**63 - 1]]), r"^hyperedge 0 has node id outside \[0, 4\)$"),
    (lambda: hs.Hypergraph.from_arrays(4, [2**64], [0]), "^hyperedge sizes must be nonnegative"),
], ids=["2**64", "2**63", "-2**63-1", "size_2**64"])
def test_integers_beyond_int64_are_out_of_range(make, message):
    # numpy widens such a list to float64, uint64 or object; no entry is a non-integer
    with pytest.raises(ValueError, match=message):
        make()
    # unsigned ids in range, which numpy also stores in another dtype, are kept
    h = hs.Hypergraph(3, [[np.uint64(2), np.uint8(0)], [1]])
    assert h.hyperedges == ((0, 2), (1,))


@pytest.mark.parametrize("sizes, message", [
    ([2.7], "^hyperedge 0 has a non-integer size$"),   # once truncated to 2
    ([1, 1.0], "^hyperedge 1 has a non-integer size$"),
    ([1, True], "^hyperedge 1 has a non-integer size$"),
    (np.array([1.5, 0.5]), "^hyperedge 0 has a non-integer size$"),
    (np.array([1.0, 1.0]), "^sizes must be integers, not float64$"),
])
def test_non_integer_hyperedge_size_refused(sizes, message):
    with pytest.raises(ValueError, match=message):
        hs.Hypergraph.from_arrays(3, sizes, [0, 1])
    h = hs.Hypergraph.from_arrays(3, (np.int32(1), 1), [0, 1])
    assert h.hyperedges == ((0,), (1,))


def test_array_core_matches_per_edge_oracle():
    rng = np.random.default_rng(2024)
    seen = collections.Counter()
    for trial in range(40):
        n = int(rng.integers(1, 30))
        edges = [rng.choice(n, int(rng.integers(1, min(8, n) + 1)), replace=False).tolist()
                 for _ in range(0 if trial < 2 else int(rng.integers(1, 20)))]
        edges += [edges[i] for i in rng.integers(0, len(edges), len(edges) // 3)] if edges else []
        h = hs.Hypergraph(n, edges)
        want = oracles.normalize_hyperedges(n, edges)
        assert h.hyperedges == want
        assert np.array_equal(h.incidence().toarray(), oracles.dense_incidence(n, want))
        assert np.array_equal(np.diff(h.edge_ptr), [len(e) for e in want])
        assert h.edge_ptr.dtype == h.members.dtype == np.int64
        g, remap = hs.giant_component(h)
        kept, gcc_edges, want_remap = oracles.giant_component_by_remap(n, want)
        assert (g.num_nodes, g.hyperedges) == (kept, gcc_edges)
        assert np.array_equal(remap, want_remap) and remap.dtype == np.int64
        seen["no hyperedges"] += not edges
        seen["duplicates"] += len(set(want)) < len(want)
        seen["size 8"] += any(len(e) == 8 for e in want)
        seen["isolated node"] += len({v for e in want for v in e}) < n
        seen["emptied by gcc"] += len(gcc_edges) < len(want)
    assert min(seen.values()) >= 2 and len(seen) == 5, seen


def test_members_are_read_only():
    h = hs.Hypergraph(3, [(2, 0), (1, 2)])
    assert h.members.tolist() == [0, 2, 1, 2] and h.edge_ptr.tolist() == [0, 2, 4]
    with pytest.raises(ValueError):
        h.members[0] = 1
    with pytest.raises(ValueError):
        h.edge_ptr[1] = 1


# ---------------------------------------------------------------------------
# adjacency

def test_single_triangle_edge_adjacency():
    h = hs.Hypergraph(3, [(0, 1, 2)])
    v = hs.build_adjacency(h)
    a = v.weighted.toarray()
    assert np.array_equal(a, np.ones((3, 3), dtype=np.int64) - np.eye(3, dtype=np.int64))
    assert np.array_equal(v.node_degree, [2, 2, 2])
    assert np.array_equal(v.hyperdegree, [1, 1, 1])
    assert np.array_equal(np.diff(h.edge_ptr), [3])


def test_two_overlapping_edges_adjacency():
    h = hs.Hypergraph(4, [(0, 1, 2), (1, 2, 3)])
    v = hs.build_adjacency(h)
    assert v.weighted[1, 2] == 2
    assert v.binary[1, 2] == 1
    assert v.node_degree[1] == 3
    assert v.hyperdegree[1] == 2


def test_edgeless_hypergraph_adjacency():
    h = hs.Hypergraph(4, [])
    v = hs.build_adjacency(h)
    assert v.weighted.nnz == 0
    assert np.array_equal(v.node_degree, np.zeros(4, dtype=np.int64))
    assert hs.simplex_densities(h) == (0.0, 0.0)
    assert hs.simplex_densities(hs.Hypergraph(0)) == (0.0, 0.0)


def test_adjacency_equals_incidence_identity_and_oracle():
    rng = np.random.default_rng(42)
    for trial in range(20):
        n = int(rng.integers(2, 15))
        h = random_hypergraph(rng, n, int(rng.integers(1, 12)), 5)
        v = hs.build_adjacency(h)
        # identity: A = I I^T - diag(hyperdegree)
        inc = h.incidence()
        gram = (inc @ inc.T).toarray()
        np.fill_diagonal(gram, 0)
        assert np.array_equal(v.weighted.toarray(), gram)
        # independent pairwise-count oracle
        assert np.array_equal(v.weighted.toarray(), oracles.pairwise_adjacency(n, h.hyperedges))
        # symmetry, zero diagonal, binary support
        a = v.weighted.toarray()
        assert np.array_equal(a, a.T)
        assert not a.diagonal().any()
        assert np.array_equal(v.binary.toarray(), (a >= 1).astype(np.int64))
        assert np.array_equal(v.node_degree, (a >= 1).sum(axis=1))
        assert np.array_equal(v.weighted_degree, a.sum(axis=1))


def test_incidence_double_count():
    rng = np.random.default_rng(7)
    for _ in range(10):
        h = random_hypergraph(rng, 12, 8, 6)
        v = hs.build_adjacency(h)
        assert v.hyperdegree.sum() == np.diff(h.edge_ptr).sum()


# ---------------------------------------------------------------------------
# two-simplices

def test_single_edge_single_triple():
    ts = hs.enumerate_two_simplices(hs.Hypergraph(3, [(0, 1, 2)]))
    assert oracles.triples_of(ts) == {(0, 1, 2): 1}
    assert ts.num_triples == 1


def test_duplicate_edge_doubles_triple_weight():
    ts = hs.enumerate_two_simplices(hs.Hypergraph(3, [(0, 1, 2), (0, 1, 2)]))
    assert oracles.triples_of(ts) == {(0, 1, 2): 2}


def test_pairwise_edges_make_no_triple():
    ts = hs.enumerate_two_simplices(hs.Hypergraph(3, [(0, 1), (1, 2), (0, 2)]))
    assert ts.num_triples == 0
    assert ts.node_triple_weight.tolist() == [0, 0, 0]


def test_triples_match_brute_force_scan():
    rng = np.random.default_rng(3)
    for _ in range(15):
        n = int(rng.integers(3, 25))
        h = random_hypergraph(rng, n, int(rng.integers(1, 10)), 7)
        ts = hs.enumerate_two_simplices(h)
        assert oracles.triples_of(ts) == oracles.brute_triples_by_scan(n, h.hyperedges)


def test_size_cap_skips_and_reports():
    big = list(range(30))
    h = hs.Hypergraph(30, [big, (0, 1, 2)])
    ts = hs.enumerate_two_simplices(h, size_cap=25)
    assert hs.oversized_hyperedges(h, 25).tolist() == [True, False]
    assert oracles.triples_of(ts) == {(0, 1, 2): 1}
    # capped edge still contributes to the pairwise channel
    v = hs.build_adjacency(h)
    assert v.weighted[28, 29] == 1
    full = hs.enumerate_two_simplices(h, size_cap=30)
    assert not hs.oversized_hyperedges(h, 30).any()
    # hyperedges too small for a triangle are never oversized
    assert hs.oversized_hyperedges(hs.Hypergraph(3, [(0,), (1, 2)]), 0).tolist() == [False, False]
    assert sum(oracles.triples_of(full).values()) == 4060 + 1


def assert_two_simplices_match_oracle(h, **kw):
    ts = hs.enumerate_two_simplices(h, **kw)
    ref = oracles.brute_two_simplices(h.num_nodes, h.hyperedges, **kw)
    assert {f.name for f in dataclasses.fields(hs.TwoSimplexSet)} == ref.keys()
    for name, want in ref.items():
        got = getattr(ts, name)
        assert got.dtype == want.dtype, name
        assert got.shape == want.shape and np.array_equal(got, want), name


@pytest.mark.parametrize("kw", [{}, {"size_cap": 4}], ids=["containment", "size_cap_4"])
def test_two_simplices_match_dict_oracle(kw):
    rng = np.random.default_rng(11)
    for _ in range(40):
        n = int(rng.integers(3, 30))
        h = random_hypergraph(rng, n, int(rng.integers(1, 25)), 8)
        dupes = [h.hyperedges[i] for i in rng.integers(0, h.num_hyperedges, 5)]
        assert_two_simplices_match_oracle(hs.Hypergraph(n, [*h.hyperedges, *dupes]), **kw)
    assert_two_simplices_match_oracle(hs.Hypergraph(0), **kw)
    assert_two_simplices_match_oracle(hs.Hypergraph(6), **kw)
    assert_two_simplices_match_oracle(hs.Hypergraph(6, [(0,), (1, 2), (3, 4), (1, 2)]), **kw)
    # one hyperedge 300 times: weights past 255, one of them summed with a 3-node edge
    assert_two_simplices_match_oracle(hs.Hypergraph(6, [(1, 2, 4, 5)] * 300 + [(2, 4, 5)]), **kw)


def test_two_simplices_with_node_ids_past_packed_key_range():
    # (i*N + j)*N + k overflows int64 once N > 2,097,151; here it wraps
    # negative for i = 1,500,000, which would sort those triples first
    n = 3_000_000
    h = hs.Hypergraph(n, [(5, 2_500_000, 2_999_999),
                          (1_500_000, 2_097_152, 2_500_000, 2_999_999),
                          (5, 2_500_000, 2_999_999), (0, 2_999_998)])
    assert_two_simplices_match_oracle(h)
    tri = oracles.triples_of(hs.enumerate_two_simplices(h))
    assert list(tri)[0] == (5, 2_500_000, 2_999_999)
    assert list(tri)[-1] == (2_097_152, 2_500_000, 2_999_999)
    assert list(tri.values()) == [2, 1, 1, 1, 1]


def test_triple_center_index_consistency():
    rng = np.random.default_rng(5)
    h = random_hypergraph(rng, 12, 8, 6)
    ts = hs.enumerate_two_simplices(h)
    n = h.num_nodes
    # expanded arrays: every triple appears once per member as center
    per_center = {i: [] for i in range(n)}
    for t, w in oracles.triple_weights(h.hyperedges)[0].items():
        for c in t:
            rest = tuple(x for x in t if x != c)
            per_center[c].append((rest[0], rest[1], w))
    # the pair-major rows hold the same (center, other, other, weight) rows
    got = {i: [] for i in range(n)}
    for p, (a, b) in enumerate(zip(ts.pair_a.tolist(), ts.pair_b.tolist())):
        lo, hi = ts.pair_ptr[p], ts.pair_ptr[p + 1]
        assert lo < hi and a < b
        for c, w in zip(ts.pair_center[lo:hi].tolist(), ts.pair_weight[lo:hi].tolist()):
            got[c].append((a, b, w))
    for i in range(n):
        assert sorted(got[i]) == sorted(per_center[i])
    want_ntw = np.array([sum(w for _, _, w in per_center[i]) for i in range(n)])
    assert np.array_equal(ts.node_triple_weight, want_ntw)


# ---------------------------------------------------------------------------
# link index

def test_single_link_index():
    v = hs.build_adjacency(hs.Hypergraph(2, [(0, 1)]))
    li = hs.build_link_index(v)
    assert li.num_links == 2
    assert list(zip(li.src.tolist(), li.dst.tolist())) == [(0, 1), (1, 0)]


def test_triangle_has_six_directed_links():
    v = hs.build_adjacency(hs.Hypergraph(3, [(0, 1, 2)]))
    li = hs.build_link_index(v)
    assert li.num_links == 6


def test_link_index_bijection_and_reverse():
    rng = np.random.default_rng(9)
    graphs = [random_hypergraph(rng, 14, 9, 5) for _ in range(10)]
    # a repeated hyperedge lifts pair weights above 1; node 5 stays isolated
    graphs.append(hs.Hypergraph(6, [(0, 1, 2), (0, 1, 2), (2, 3), (3, 4), (2, 3)]))
    weights = []
    for h in graphs:
        v = hs.build_adjacency(h)
        li = hs.build_link_index(v)
        assert li.num_links == v.binary.nnz
        ids = set()
        for e in range(li.num_links):
            i, j = int(li.src[e]), int(li.dst[e])
            assert li.link_ids(i, j) == e
            r = int(li.reverse[e])
            assert (int(li.src[r]), int(li.dst[r])) == (j, i)
            assert int(li.reverse[r]) == e
            assert li.weight[e] == v.weighted[i, j]
            ids.add(e)
        assert ids == set(range(li.num_links))
        for i in range(h.num_nodes):
            outs = slice(li.out_ptr[i], li.out_ptr[i + 1])
            assert (li.src[outs] == i).all()
            into = [e for e in range(li.num_links) if li.dst[e] == i]
            into.sort(key=lambda e: li.src[e])
            assert li.reverse[outs].tolist() == into
        assert np.diff(li.out_ptr).sum() == li.num_links
        weights.extend(li.weight.tolist())
    assert max(weights) > 1


def test_reverse_equals_the_sorted_form():
    # reverse is read off a CSC conversion; it must be the (dst, src) lexsort of the ids
    rng = np.random.default_rng(28)
    graphs = [random_hypergraph(rng, int(rng.integers(2, 60)), int(rng.integers(1, 80)), 6)
              for _ in range(30)]
    graphs += [hs.Hypergraph(0), hs.Hypergraph(5), hs.Hypergraph(5, [(0,), (3,)]),
               hs.Hypergraph(9, [(1, 4, 6), (1, 4, 6), (6, 7)])]  # isolated nodes 0, 2, 3, 5, 8
    for h in graphs:
        li = hs.build_link_index(hs.build_adjacency(h))
        want = np.lexsort((li.src, li.dst))
        assert li.reverse.dtype == want.dtype and np.array_equal(li.reverse, want)
    assert sum(hs.build_link_index(hs.build_adjacency(h)).num_links == 0 for h in graphs) >= 3


def test_link_id_of_absent_pair_raises():
    li = hs.build_link_index(hs.build_adjacency(hs.Hypergraph(4, [(0, 1, 2)])))
    # (0, 4) is out of range; its key 0 * 4 + 4 equals that of link (1, 0)
    for i, j in ((0, 0), (0, 3), (3, 0), (0, 4), (-1, 2)):
        with pytest.raises(KeyError):
            li.link_ids(i, j)


# ---------------------------------------------------------------------------
# connectivity

def test_gcc_drops_isolated_node():
    g, remap = hs.giant_component(hs.Hypergraph(4, [(0, 1, 2)]))
    assert g.num_nodes == 3
    assert remap.tolist() == [0, 1, 2, -1]


def test_gcc_prefers_larger_component():
    g, remap = hs.giant_component(hs.Hypergraph(5, [(0, 1), (1, 2), (3, 4)]))
    assert g.num_nodes == 3
    assert sorted(e for e in g.hyperedges) == [(0, 1), (1, 2)]
    assert remap.tolist() == [0, 1, 2, -1, -1]


def test_gcc_empty_hypergraph():
    g, remap = hs.giant_component(hs.Hypergraph(0, []))
    assert g.num_nodes == 0
    assert remap.size == 0


def test_gcc_is_maximal_and_connected():
    rng = np.random.default_rng(12)
    for _ in range(10):
        h = random_hypergraph(rng, 30, 10, 4)
        v = hs.build_adjacency(h)
        g, remap = hs.giant_component(h)
        kept = np.flatnonzero(remap >= 0)
        dropped = np.flatnonzero(remap < 0)
        # maximality: no dropped node adjacent to a kept node
        if kept.size and dropped.size:
            assert v.binary[np.ix_(dropped, kept)].nnz == 0
        # connectivity of the result
        gv = hs.build_adjacency(g)
        ncomp, _ = sp.csgraph.connected_components(gv.binary, directed=False)
        assert ncomp <= 1 or g.num_nodes == 0
        # size really is the max component size
        _, labels = sp.csgraph.connected_components(v.binary, directed=False)
        assert g.num_nodes == np.bincount(labels).max()


# ---------------------------------------------------------------------------
# densities

def test_density_single_triangle():
    h = hs.Hypergraph(3, [(0, 1, 2)])
    assert hs.simplex_densities(h) == (2.0, 1.0)


def test_density_weighted_by_multiplicity():
    h = hs.Hypergraph(4, [(0, 1, 2), (1, 2, 3)])
    k1, k2 = hs.simplex_densities(h)
    assert k1 == pytest.approx(3.0)
    assert k2 == pytest.approx(1.5)


@pytest.mark.parametrize("size_cap", [0, 3, 25])
def test_densities_from_sizes_equal_the_means_bitwise(size_cap):
    # the means of the two structures the sizes stand in for, on graphs with
    # repeated hyperedges and, for the caps, hyperedges of up to 30 nodes
    rng = np.random.default_rng(19)
    for trial in range(40):
        n = int(rng.integers(3, 40))
        h = random_hypergraph(rng, n, int(rng.integers(1, 15)), 30 if trial % 4 == 0 else 6)
        dupes = [h.hyperedges[i] for i in rng.integers(0, h.num_hyperedges, 4)]
        for g in (hs.Hypergraph(n, [*h.hyperedges, *dupes]),
                  hs.giant_component(hs.Hypergraph(n, [*h.hyperedges, *dupes]))[0]):
            want_k1 = float(hs.build_adjacency(g).weighted_degree.mean())
            want_k2 = float(oracles.brute_two_simplices(
                g.num_nodes, g.hyperedges, size_cap)["node_triple_weight"].mean())
            assert hs.simplex_densities(g, size_cap) == (want_k1, want_k2)
