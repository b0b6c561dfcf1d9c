"""Influence scores, seed selection strategies, and the overlap diagnostic."""

import numpy as np
import pytest

import hypersir as hs
from hypersir.cli import KNOWN_METHODS, select_seeds
from oracles import (brute_collective_influence, reference_adaptive_select,
                     reference_cia_select, reference_top_overlap)

HUB_FORK = [[0, 1], [0, 2], [0, 3], [0, 4], [0, 5],
            [1, 2], [1, 3], [1, 4],
            [6, 5], [6, 7], [6, 8], [6, 9]]


def view_of(num_nodes, edges):
    return hs.build_adjacency(hs.Hypergraph(num_nodes, edges))


def random_view(rng, n, m, s_hi=4):
    edges = []
    for _ in range(m):
        s = int(rng.integers(2, s_hi + 1))
        edges.append(sorted(rng.choice(n, size=s, replace=False).tolist()))
    return hs.Hypergraph(n, edges)


def test_star_scores_are_zero():
    v = view_of(4, [[0, 1], [0, 2], [0, 3]])
    ci = hs.collective_influence(v, 0.5, 1)
    assert np.array_equal(ci, np.zeros(4))


def test_single_triple_hand_value():
    v = view_of(3, [[0, 1, 2]])
    ci = hs.collective_influence(v, 0.5, 1.0)
    assert np.allclose(ci, 0.5)


def test_triangle_free_expansions_score_zero():
    path = view_of(5, [[0, 1], [1, 2], [2, 3], [3, 4]])
    assert np.array_equal(hs.collective_influence(path, 0.9, 2), np.zeros(5))
    cycle4 = view_of(4, [[0, 1], [1, 2], [2, 3], [0, 3]])
    assert np.array_equal(hs.collective_influence(cycle4, 0.9, 2), np.zeros(4))


def test_matches_brute_force_exactly():
    rng = np.random.default_rng(420)
    for _ in range(30):
        n = int(rng.integers(5, 50))
        g = random_view(rng, n, int(rng.integers(2, 3 * n // 2)))
        v = hs.build_adjacency(g)
        b1 = float(rng.uniform(0.05, 1.0))
        gam = int(rng.integers(1, 4))
        ci = hs.collective_influence(v, b1, gam)
        brute = brute_collective_influence(n, g.hyperedges, b1, gam)
        assert np.array_equal(ci, brute)


def seeded_multigraph(seed):
    """Hyperedges on a random subset of the nodes (the rest isolated), a few
    of them repeated many times so that link weights pass 255."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(20, 45))
    live = rng.choice(n, size=n - 4, replace=False)
    edges = [sorted(rng.choice(live, size=int(rng.integers(2, 5)), replace=False).tolist())
             for _ in range(int(rng.integers(n, 2 * n)))]
    edges += [edges[0]] * 300 + [edges[1]] * 2
    return hs.Hypergraph(n, edges)


def hub_graph():
    """Node 0 shares a triangle with each consecutive pair of 1..29; nodes
    30..59 form ten separate triangles."""
    edges = [[0, i, i + 1] for i in range(1, 29)]
    edges += [[i, i + 1, i + 2] for i in range(30, 60, 3)]
    return hs.Hypergraph(60, edges)


BLOCK_GRAPHS = {
    **{f"multigraph{seed}": seeded_multigraph(seed) for seed in (11, 12, 13)},
    "hub": hub_graph(),
    "edge_free": hs.Hypergraph(6, []),
    "empty": hs.Hypergraph(0, []),
}


@pytest.mark.parametrize("name", BLOCK_GRAPHS)
@pytest.mark.parametrize("cells", [1, 7, 64, 500])
def test_row_blocks_match_one_block_and_brute_force(monkeypatch, name, cells):
    g = BLOCK_GRAPHS[name]
    v = hs.build_adjacency(g)
    monkeypatch.setattr(hs.influence, "_BLOCK_CELLS", 2**62)
    one_block = hs.collective_influence(v, 0.3, 2)
    monkeypatch.setattr(hs.influence, "_BLOCK_CELLS", cells)
    blocked = hs.collective_influence(v, 0.3, 2)
    assert np.array_equal(blocked, one_block)
    assert np.array_equal(blocked, brute_collective_influence(g.num_nodes, g.hyperedges, 0.3, 2))


def test_hub_graph_puts_one_row_over_budget():
    # at 64 cells the hub row alone exceeds the budget (a block of its
    # own), while the separate triangles' rows share blocks, four or more
    # at a time
    v = hs.build_adjacency(hub_graph())
    fill = v.binary @ v.node_degree
    assert fill[0] > 64 > fill[1:].max() and fill[30:].max() <= 64 // 4


def test_ranking_invariant_to_rates():
    rng = np.random.default_rng(7)
    g = random_view(rng, 40, 70)
    v = hs.build_adjacency(g)
    a = hs.collective_influence(v, 0.1, 1)
    b = hs.collective_influence(v, 0.9, 3)
    assert np.array_equal(hs.ranked_nodes(v, a), hs.ranked_nodes(v, b))
    ratio = (0.9 * 3 / 0.1) ** 2
    assert np.allclose(b, ratio * a)


def test_cia_k1_is_argmax():
    rng = np.random.default_rng(3)
    g = random_view(rng, 25, 40)
    v = hs.build_adjacency(g)
    ci = hs.collective_influence(v, 0.3, 1)
    pick = hs.cia_select(v, ci, 1)
    assert pick == (int(hs.ranked_nodes(v, ci)[0]),)


def test_cia_spreads_across_components():
    # heavy triangle (doubled hyperedge) and a light one: the runner-up
    # sits inside the heavy triangle and is skipped
    v = view_of(6, [[0, 1, 2], [0, 1, 2], [3, 4, 5]])
    ci = hs.collective_influence(v, 0.5, 1)
    seeds = hs.cia_select(v, ci, 2)
    assert seeds[0] in (0, 1, 2)
    assert seeds[1] in (3, 4, 5)


def test_cia_fallback_on_zero_score_path():
    v = view_of(5, [[0, 1], [1, 2], [2, 3], [3, 4]])
    ci = hs.collective_influence(v, 0.5, 1)
    assert np.all(ci == 0)
    # tie order: middle nodes by weighted degree, then ids
    assert hs.cia_select(v, ci, 2) == (1, 3)
    assert hs.cia_select(v, ci, 4) == (1, 3, 2, 0)


def test_cia_seeds_nonadjacent_when_possible():
    rng = np.random.default_rng(88)
    for _ in range(10):
        g = random_view(rng, 30, 25)
        v = hs.build_adjacency(g)
        ci = hs.collective_influence(v, 0.25, 1)
        seeds = hs.cia_select(v, ci, 3)
        dense = v.binary.toarray()
        for a in seeds:
            for b in seeds:
                if a != b:
                    assert dense[a, b] == 0


def test_cia_argument_validation():
    v = view_of(3, [[0, 1, 2]])
    ci = hs.collective_influence(v, 0.5, 1)
    with pytest.raises(ValueError):
        hs.cia_select(v, ci, 4)
    with pytest.raises(ValueError):
        hs.cia_select(v, ci, -1)
    assert hs.cia_select(v, ci, 0) == ()


NAN = float("nan")


@pytest.mark.parametrize("beta1, gamma, match", [
    (NAN, 1, "beta1 must be nonnegative"),
    (-0.1, 1, "beta1 must be nonnegative"),
    (0.5, NAN, "gamma must be at least 1"),
    (0.5, 0.5, "gamma must be at least 1"),
    (0.5, 0, "gamma must be at least 1"),
    (float("inf"), 1, "beta1 must be nonnegative"),
    (0.5, float("inf"), "gamma must be at least 1"),
    (True, 1, "beta1 must be nonnegative"),
], ids=["nan_beta1", "negative_beta1", "nan_gamma", "gamma_half", "gamma_0", "inf_beta1",
        "inf_gamma", "bool_beta1"])
def test_collective_influence_refuses_what_build_wnb_refuses(beta1, gamma, match):
    v = view_of(3, [[0, 1, 2]])
    for call in (lambda: hs.collective_influence(v, beta1, gamma),
                 lambda: hs.build_wnb(v, beta1, gamma)):
        with pytest.raises(ValueError, match=match):
            call()


@pytest.mark.parametrize("k", [2.5, 2.0, True, -1, "2", None])
def test_selection_refuses_a_k_that_is_no_count(k):
    v = view_of(4, [[0, 1, 2], [2, 3]])
    ci = hs.collective_influence(v, 0.5, 1)
    calls = [lambda: hs.cia_select(v, ci, k)]
    calls += [lambda m=m: hs.baseline_select(v, k, m) for m in hs.BASELINE_METHODS]
    for call in calls:
        with pytest.raises(ValueError, match="k must be an integer >= 0"):
            call()
    assert hs.baseline_select(v, np.int64(2), "degree") == hs.baseline_select(v, 2, "degree")


def test_degree_and_hyperdegree_baselines():
    star = view_of(4, [[0, 1], [0, 2], [0, 3]])
    assert hs.baseline_select(star, 1, "degree") == (0,)
    assert hs.baseline_select(star, 1, "hyperdegree") == (0,)
    assert hs.baseline_select(star, 2, "degree") == (0, 1)


def test_ci_naive_scoring():
    v = view_of(4, [[0, 1], [0, 2], [0, 3], [1, 2]])
    # d_H = [3, 2, 2, 1]; score(i) = (d_H(i)-1) * sum of neighbor excesses
    excess = v.hyperdegree - 1
    expect = excess * (v.binary @ excess)
    assert np.array_equal(expect, np.array([4, 3, 3, 0]))
    assert hs.baseline_select(v, 2, "ci_naive") == (0, 1)


def test_hsdp_shifts_second_pick_away():
    v = view_of(10, HUB_FORK)
    assert hs.baseline_select(v, 2, "degree") == (0, 1)
    # -1 on the hub's neighborhood drops node 1 below the far fork
    assert hs.baseline_select(v, 2, "hsdp") == (0, 6)


def test_hadp_penalty_separates_forks():
    v = view_of(10, HUB_FORK)
    seeds = hs.baseline_select(v, 3, "hadp")
    # node 1 shares 3 neighbors with seed 0, so the |shared|+1 penalty wipes
    # its degree and the far hub wins the second pick; by the third pick
    # every candidate sits at zero and weighted degree breaks the tie
    assert seeds == (0, 6, 1)
    assert hs.baseline_select(v, 2, "degree") == (0, 1)


def test_random_baseline_reproducible():
    rng = np.random.default_rng(5)
    g = random_view(rng, 30, 40)
    v = hs.build_adjacency(g)
    a = hs.baseline_select(v, 5, "random", rng_seed=11)
    b = hs.baseline_select(v, 5, "random", rng_seed=11)
    c = hs.baseline_select(v, 5, "random", rng_seed=12)
    assert a == b
    assert len(set(a)) == 5
    assert a != c


def test_unknown_method_rejected():
    v = view_of(3, [[0, 1, 2]])
    with pytest.raises(ValueError):
        hs.baseline_select(v, 1, "pagerank")


def test_selection_is_deterministic():
    rng = np.random.default_rng(17)
    g = random_view(rng, 40, 60)
    v = hs.build_adjacency(g)
    ci = hs.collective_influence(v, 0.2, 2)
    for method in ("degree", "hyperdegree", "ci_naive", "hadp", "hsdp"):
        assert hs.baseline_select(v, 6, method) == hs.baseline_select(v, 6, method)
    assert hs.cia_select(v, ci, 6) == hs.cia_select(v, ci, 6)


def test_top_overlap_everything_is_one():
    rng = np.random.default_rng(2)
    g = random_view(rng, 20, 30)
    v = hs.build_adjacency(g)
    ci = hs.collective_influence(v, 0.5, 1)
    assert hs.top_overlap_probability(v, ci, 100) == 1.0


def test_top_overlap_segregated_components():
    # dense 4-clique vs a long zero-score path; top 20% of 20 nodes = the clique
    edges = [[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]]
    edges += [[i, i + 1] for i in range(4, 19)]
    v = view_of(20, edges)
    ci = hs.collective_influence(v, 0.5, 1)
    assert hs.top_overlap_probability(v, ci, 20) == 1.0


def test_top_overlap_validates_percent():
    v = view_of(3, [[0, 1, 2]])
    ci = hs.collective_influence(v, 0.5, 1)
    with pytest.raises(ValueError):
        hs.top_overlap_probability(v, ci, 0)
    with pytest.raises(ValueError):
        hs.top_overlap_probability(v, ci, 101)
    with pytest.raises(ValueError):
        hs.top_overlap_curve(v, ci, [5.0, 101])
    with pytest.raises(ValueError):
        hs.top_overlap_curve(v, ci, [True])


def test_removing_top_scorer_deflates_threshold_more():
    rng = np.random.default_rng(31)
    diffs = []
    for _ in range(20):
        n = int(rng.integers(12, 60))
        g = random_view(rng, n, int(rng.integers(n, 2 * n)))
        v = hs.build_adjacency(g)
        ci = hs.collective_influence(v, 0.4, 1)
        top = int(hs.ranked_nodes(v, ci)[0])
        others = [u for u in range(n) if u != top]
        rand = int(rng.choice(others))

        def radius_without(node):
            pruned = [[u for u in e if u != node] for e in g.hyperedges]
            pruned = [e for e in pruned if len(e) >= 2]
            sub = hs.Hypergraph(n, pruned)
            return hs.leading_eigen(
                hs.build_wnb(hs.build_adjacency(sub), 1.0, 1.0)
            ).lambda_c

        diffs.append(radius_without(rand) - radius_without(top))
    assert np.mean(diffs) >= 0.0


def tie_heavy_view(rng, n):
    """Up to 2n hyperedges of 2-4 nodes, each doubled with probability 0.3, so
    many nodes tie on degree and weighted degree and some stay isolated."""
    edges = []
    for _ in range(int(rng.integers(0, 2 * n + 1))):
        s = int(rng.integers(2, min(n, 4) + 1))
        edges.append(sorted(rng.choice(n, size=s, replace=False).tolist()))
        if rng.random() < 0.3:
            edges.append(list(edges[-1]))
    return view_of(n, edges)


def assert_selection_matches_oracles(v, scores, ks):
    for k in ks:
        for method in ("hadp", "hsdp"):
            assert (hs.baseline_select(v, k, method)
                    == reference_adaptive_select(v, k, method)), (method, k)
        assert hs.cia_select(v, scores, k) == reference_cia_select(v, scores, k)
        for method in KNOWN_METHODS:
            seeds = select_seeds(v, method, k, rng_seed=k)
            assert type(seeds) is tuple and len(set(seeds)) == k, (method, k)
            assert all(type(u) is int and 0 <= u < v.num_nodes for u in seeds), (method, k)
    pcts = (0.5, 5.0, 12.5, 33.0, 50.0, 99.0, 100.0)
    assert (hs.top_overlap_curve(v, scores, pcts)
            == [reference_top_overlap(v, scores, pct) for pct in pcts])


@pytest.mark.parametrize("seed", range(4))
def test_selection_equals_oracles_on_tie_heavy_graphs(seed):
    rng = np.random.default_rng([5150, seed])
    for case in range(60):
        n = int(rng.integers(0, 2)) if case < 4 else int(rng.integers(2, 40))
        v = tie_heavy_view(rng, n) if n >= 2 else view_of(n, [])
        if case % 2:
            scores = rng.integers(0, 3, n).astype(float)
        else:
            scores = hs.collective_influence(v, 1.0, 1.0)
        ks = range(n + 1) if case < 10 else sorted({0, int(rng.integers(0, n + 1)), n})
        assert_selection_matches_oracles(v, scores, ks)


def test_selection_equals_oracles_on_sweep_gcc():
    # the benchmark's scale-free instance: GCC of 4,488 nodes, k = 3%
    spec = hs.GenSpec("scale_free", 5000, 10000, exponent=2.0, size_range=(2, 4),
                      degree_range=(2, 60), rng_seed=1)
    v = hs.build_adjacency(hs.giant_component(hs.generate(spec))[0])
    assert v.num_nodes == 4488
    assert_selection_matches_oracles(v, hs.collective_influence(v, 1.0, 1.0), [135])
