"""Cavity dynamics, operator structure, and spectral threshold tests."""

import itertools
import json
import math

import numpy as np
import pytest

import hypersir as hs
from hypersir import message_passing
from hypersir.data_io import write_json
from hypersir.generators import GenSpec, generate
from oracles import (exact_final_marginals, ihara_bass_radius, leave_one_out_escape, nb_operator,
                     reference_plumb)

PATH5 = [[0, 1], [1, 2], [2, 3], [3, 4]]
STAR_LEG = [[0, 1], [0, 2], [0, 3], [0, 4], [4, 5]]


def views(num_nodes, edges):
    g = hs.Hypergraph(num_nodes, edges)
    v = hs.build_adjacency(g)
    ts = hs.enumerate_two_simplices(g)
    return v, ts


def random_hypergraph(rng, n_lo=4, n_hi=9, m_lo=2, m_hi=6, s_hi=4):
    n = int(rng.integers(n_lo, n_hi))
    m = int(rng.integers(m_lo, m_hi))
    edges = []
    for _ in range(m):
        s = int(rng.integers(2, min(s_hi, n) + 1))
        edges.append(sorted(rng.choice(n, size=s, replace=False).tolist()))
    return hs.Hypergraph(n, edges)


def extreme_hypergraph(rng, **kw):
    """A random hypergraph whose first hyperedge recurs up to 300 times."""
    h = random_hypergraph(rng, **kw)
    edges = [list(e) for e in h.hyperedges]
    edges += [edges[0]] * int(rng.choice([0, 1, 49, 299]))
    return hs.Hypergraph(h.num_nodes, edges)


EXTREME_BETAS = (0.0, 0.3, 1.0 - 1e-6, 1.0)


def test_trivial_point_is_fixed():
    v, ts = views(5, [[0, 1, 2], [2, 3], [3, 4]])
    st = hs.initial_messages(v, ts, [])
    par = hs.EpidemicParams(beta1=0.6, beta2=0.8, gamma=2)
    nxt = hs.mp_step(st, par)
    assert np.array_equal(nxt.s_msg, st.s_msg)
    assert np.array_equal(nxt.i_msg, st.i_msg)
    assert np.array_equal(nxt.node_s, st.node_s)


def test_zero_rates_pure_decay():
    v, ts = views(4, [[0, 1], [1, 2], [2, 3]])
    par = hs.EpidemicParams(beta1=0.0, beta2=0.0, gamma=2)
    st = hs.initial_messages(v, ts, [1])
    s0 = st.s_msg.copy()
    cur = st
    expect = 1.0
    for _ in range(4):
        cur = hs.mp_step(cur, par)
        expect *= 0.5
        assert np.array_equal(cur.s_msg, s0)
        assert np.allclose(cur.i_msg[cur.links.src == 1], expect)
    # gamma = 1 clears the infected pool in a single step
    par1 = hs.EpidemicParams(beta1=0.0, beta2=0.0, gamma=1)
    one = hs.mp_step(hs.initial_messages(v, ts, [1]), par1)
    assert np.all(one.i_msg == 0.0)
    assert np.all(one.r_msg[one.links.src == 1] == 1.0)


def test_single_link_hand_values():
    v, ts = views(2, [[0, 1]])
    p = 0.37
    st = hs.initial_messages(v, ts, [0])
    st1 = hs.mp_step(st, hs.EpidemicParams(beta1=p, beta2=0.0, gamma=1))
    li = st1.links
    # cavity at node 0 removes node 1's only infector
    assert st1.i_msg[li.link_ids(1, 0)] == 0.0
    assert st1.r_msg[li.link_ids(0, 1)] == 1.0
    assert st1.node_i[1] == pytest.approx(p, abs=0.0)
    st1.validate()


def test_certain_chain_downstream_recovery():
    v, ts = views(4, [[0, 1], [1, 2], [2, 3]])
    par = hs.EpidemicParams(beta1=1.0, beta2=0.0, gamma=1)
    st = hs.mp_solve(v, ts, par, [0])
    assert st.converged
    li = st.links
    ones = {(0, 1), (1, 2), (2, 3)}
    for e in range(li.num_links):
        pair = (int(li.src[e]), int(li.dst[e]))
        want = 1.0 if pair in ones else 0.0
        assert st.r_msg[e] == want, pair
    # every node is reached in the full (non-cavity) dynamics
    assert np.array_equal(st.node_r, np.ones(4))


def test_path_cavity_matches_enumeration():
    v, ts = views(5, PATH5)
    par = hs.EpidemicParams(beta1=0.3, beta2=0.0, gamma=1)
    st = hs.mp_solve(v, ts, par, [2])
    assert st.converged
    li = st.links
    for e in range(li.num_links):
        i, j = int(li.src[e]), int(li.dst[e])
        cav_edges = [ed for ed in PATH5 if j not in ed]
        if j == 2:
            expect = 0.0  # removing the seed kills all spread
        else:
            expect = exact_final_marginals(5, cav_edges, [2], 0.3, 0.0, 1)[i]
        assert st.r_msg[e] == pytest.approx(expect, abs=1e-6)


@pytest.mark.parametrize("edges,seed,b1", [(PATH5, 2, 0.3), (STAR_LEG, 1, 0.45)])
def test_tree_marginals_match_enumeration(edges, seed, b1):
    n = max(max(e) for e in edges) + 1
    v, ts = views(n, edges)
    exact = exact_final_marginals(n, edges, [seed], b1, 0.0, 1)
    st = hs.mp_solve(v, ts, hs.EpidemicParams(beta1=b1, beta2=0.0, gamma=1), [seed])
    assert np.abs(st.node_r - exact).max() < 1e-9
    assert np.allclose(st.node_s + st.node_i + st.node_r, 1.0)


def test_forest_marginals_match_enumeration_at_unit_gamma():
    # the cavity solver's exactness domain: pairwise forests with unit
    # multiplicities, gamma = 1 and at most one seed per tree, where a
    # node can only be infected at one step
    rng = np.random.default_rng(2010)
    for _ in range(120):
        n = int(rng.integers(5, 10))
        tree = list(range(n))
        edges = []
        for i in range(1, n):
            if rng.random() < 0.8:  # else node i roots a new tree
                j = int(rng.integers(i))
                edges.append([j, i])
                tree[i] = tree[j]
        roots = np.unique(tree)
        seeded = rng.choice(roots, size=int(rng.integers(1, len(roots) + 1)), replace=False)
        seeds = [int(rng.choice(np.flatnonzero(np.equal(tree, r)))) for r in seeded]
        v, ts = views(n, edges)
        for b1 in (float(rng.uniform(0.05, 0.95)), 1.0):
            st = hs.mp_solve(v, ts, hs.EpidemicParams(beta1=b1, beta2=0.0, gamma=1), seeds)
            exact = exact_final_marginals(n, edges, seeds, b1, 0.0, 1)
            assert np.abs(st.node_r - exact).max() <= 1e-9, (edges, seeds, b1)


def test_tree_outbreak_size_matches_monte_carlo():
    v, ts = views(6, STAR_LEG)
    par = hs.EpidemicParams(beta1=0.45, beta2=0.0, gamma=1, rng_seed=33)
    st = hs.mp_solve(v, ts, par, [1])
    predicted = float(st.node_r.sum())
    stats = hs.run_sir(v, ts, [1], par, runs=20_000)
    spread = stats.sigma_samples.std(ddof=1) / np.sqrt(len(stats.sigma_samples))
    assert abs(stats.sigma_mean - predicted) < 3.0 * spread + 1e-9


def test_solve_without_seeds_returns_trivial():
    v, ts = views(5, [[0, 1, 2], [2, 3, 4]])
    st = hs.mp_solve(v, ts, hs.EpidemicParams(beta1=0.7, beta2=0.9, gamma=1), [])
    assert st.converged
    assert st.iterations == 1
    assert st.residual == 0.0
    assert np.all(st.s_msg == 1.0)
    assert np.all(st.node_r == 0.0)


def test_unconverged_solve_is_flagged():
    v, ts = views(3, [[0, 1], [1, 2], [0, 2]])
    par = hs.EpidemicParams(beta1=0.9, beta2=0.0, gamma=3)
    st = hs.mp_solve(v, ts, par, [0], tol=1e-12, max_iters=2)
    assert st.converged is False
    assert st.iterations == 2
    assert st.residual > 0.0
    assert len(st.trace) == 2


def test_triangle_channel_excludes_target():
    v, ts = views(3, [[0, 1, 2]])
    b1, b2 = 0.3, 0.8
    st = hs.initial_messages(v, ts, [1, 2])
    st1 = hs.mp_step(st, hs.EpidemicParams(beta1=b1, beta2=b2, gamma=1))
    li = st1.links
    # toward an infected member the triangle drops out of the cavity
    assert st1.i_msg[li.link_ids(0, 1)] == pytest.approx(b1, abs=1e-15)
    assert st1.i_msg[li.link_ids(0, 2)] == pytest.approx(b1, abs=1e-15)
    full = 1.0 - (1.0 - b1) ** 2 * (1.0 - b2)
    assert st1.node_i[0] == pytest.approx(full, abs=1e-15)


def test_perturbation_decay_and_growth_track_threshold():
    v, ts = views(5, [[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3], [3, 4]])
    bstar = hs.critical_beta1(v, gamma=1)
    assert bstar == pytest.approx(0.5, abs=1e-9)
    for factor, grows in ((0.8, False), (1.25, True)):
        par = hs.EpidemicParams(beta1=factor * bstar, beta2=0.0, gamma=1)
        st = hs.initial_messages(v, ts, [])
        st.i_msg[0] = 1e-8
        st.s_msg[0] = 1.0 - 1e-8
        start = st.i_msg.max()
        for _ in range(50):
            st = hs.mp_step(st, par)
        if grows:
            assert st.i_msg.max() > 10 * start
        else:
            assert st.i_msg.max() < 0.1 * start


def test_operator_triangle_structure():
    v, _ = views(3, [[0, 1], [1, 2], [0, 2]])
    op = hs.build_wnb(v, beta1=0.5, gamma=1.0)
    mat = nb_operator(v, 0.5, 1.0)
    li = op.links
    assert op.num_links == 6
    # one continuation per link, weight 0.5, no backtracking
    assert np.count_nonzero(mat) == 6
    assert set(np.unique(mat)) == {0.0, 0.5}
    for e in range(6):
        i, j = int(li.src[e]), int(li.dst[e])
        cols = np.nonzero(mat[e])[0]
        assert len(cols) == 1
        k = int(li.src[cols[0]])
        assert int(li.dst[cols[0]]) == i and k != j
    res = hs.leading_eigen(op)
    assert res.lambda_c == pytest.approx(0.5, abs=1e-10)
    assert res.residual <= 1e-10


def test_operator_row_counts_match_in_degrees():
    rng = np.random.default_rng(106)
    graphs = [random_hypergraph(rng) for _ in range(25)]
    # duplicate hyperedges lift pair weights above 1
    graphs.append(hs.Hypergraph(5, [[0, 1, 2], [0, 1, 2], [1, 2, 3], [2, 3, 4], [2, 3, 4]]))
    for g in graphs:
        v = hs.build_adjacency(g)
        op = hs.build_wnb(v, 0.4, 2)
        li = op.links
        nnz_per_row = np.diff(op.skeleton.indptr)
        in_deg = np.diff(li.out_ptr)
        assert np.array_equal(nnz_per_row, in_deg[li.src] - 1)
        # the matrix-free product against the operator's definition
        x = rng.standard_normal(li.num_links)
        assert np.abs(op.matvec(x) - nb_operator(v, 0.4, 2) @ x).max(initial=0.0) <= 1e-12
    assert li.weight.max() > 1


def test_operator_weighted_entries_from_repeated_hyperedge():
    v, _ = views(3, [[0, 1, 2], [0, 1, 2]])
    op = hs.build_wnb(v, beta1=0.25, gamma=2.0)
    assert np.all(op.skeleton.data == 2.0)
    mat = nb_operator(v, 0.25, 2.0)
    assert np.all(mat[mat != 0.0] == 2 * 0.25 * 2.0)
    res = hs.leading_eigen(op)
    assert res.lambda_c == pytest.approx(1.0, abs=1e-10)


def test_operator_build_is_deterministic():
    # the triangle channel has no seat in the linearization, so two
    # builds from the same views agree bit for bit
    rng = np.random.default_rng(41)
    g = random_hypergraph(rng)
    v = hs.build_adjacency(g)
    a = hs.build_wnb(v, 0.3, 2)
    b = hs.build_wnb(v, 0.3, 2)
    assert np.array_equal(a.skeleton.indptr, b.skeleton.indptr)
    assert np.array_equal(a.skeleton.indices, b.skeleton.indices)
    assert np.array_equal(a.skeleton.data, b.skeleton.data)
    assert np.array_equal(a.scaled_weight, b.scaled_weight)


def test_lambda_scales_linearly_in_beta1_and_gamma():
    rng = np.random.default_rng(7)
    g = random_hypergraph(rng, 5, 9, 3, 6)
    v = hs.build_adjacency(g)
    base = hs.leading_eigen(hs.build_wnb(v, 0.2, 1), tol=1e-12)
    doubled = hs.leading_eigen(hs.build_wnb(v, 0.4, 1), tol=1e-12)
    gam = hs.leading_eigen(hs.build_wnb(v, 0.2, 3), tol=1e-12)
    if base.lambda_c == 0.0:
        pytest.skip("sampled a forest")
    assert doubled.lambda_c == pytest.approx(2 * base.lambda_c, rel=1e-9)
    assert gam.lambda_c == pytest.approx(3 * base.lambda_c, rel=1e-9)


def test_power_iteration_matches_dense_on_small_operators():
    rng = np.random.default_rng(2024)
    checked = 0
    while checked < 10:
        g = random_hypergraph(rng, 3, 5, 1, 4, s_hi=3)
        v = hs.build_adjacency(g)
        b1, gamma = float(rng.uniform(0.1, 1.0)), int(rng.integers(1, 3))
        op = hs.build_wnb(v, b1, gamma)
        if op.num_links == 0 or op.num_links > 12:
            continue
        res = hs.leading_eigen(op, tol=1e-12)
        dense = np.max(np.abs(np.linalg.eigvals(nb_operator(v, b1, gamma))))
        assert abs(res.lambda_c - dense) <= 1e-8
        assert res.converged
        checked += 1


def test_eigvec_is_stochastic_and_residual_small():
    v, _ = views(4, [[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]])
    res = hs.leading_eigen(hs.build_wnb(v, 1.0, 1.0))
    assert res.lambda_c == pytest.approx(2.0, abs=1e-10)
    assert np.all(res.eigvec >= 0)
    assert res.eigvec.sum() == pytest.approx(1.0, abs=1e-12)
    assert res.residual <= 1e-10


def test_unconverged_residual_belongs_to_returned_eigvec():
    # a doubled pair on a triangle reached lambda's tolerance at an earlier
    # iterate, whose residual (0.0278 at max_iters 5) was once reported
    rng = np.random.default_rng(5)
    cases = [views(3, [[0, 1], [0, 1, 2]])[0]]
    cases += [hs.build_adjacency(random_hypergraph(rng, 3, 12, 2, 12)) for _ in range(30)]
    unconverged = 0
    for v in cases:
        op = hs.build_wnb(v, 1.0, 1)
        for max_iters in (1, 2, 3, 5, 8):
            res = hs.leading_eigen(op, max_iters=max_iters)
            if res.converged:
                continue
            unconverged += 1
            assert res.iterations == max_iters
            want = np.abs(op.matvec(res.eigvec) - res.lambda_c * res.eigvec).sum()
            assert res.residual == want, (v.num_nodes, max_iters)
    assert unconverged >= 50


def hub_with_four_cycles(cycles):
    """Hub 0 joined to one node of each of ``cycles`` disjoint 4-cycles."""
    edges = []
    for c in range(cycles):
        a, b, d, e = range(1 + 4 * c, 5 + 4 * c)
        edges += [[0, a], [a, b], [b, d], [d, e], [e, a]]
    return hs.Hypergraph(1 + 4 * cycles, edges)


def grid(side):
    ids = np.arange(side * side).reshape(side, side)
    edges = np.concatenate([np.stack([ids[:-1].ravel(), ids[1:].ravel()], axis=1),
                            np.stack([ids[:, :-1].ravel(), ids[:, 1:].ravel()], axis=1)])
    return hs.Hypergraph(side * side, edges.tolist())


# All four graphs are bipartite, so -rho is an eigenvalue too; the step
# counts a shift of half the largest row sum took are 565, 80, 52 and 52.
@pytest.mark.parametrize("h, max_iters", [
    (hub_with_four_cycles(50), 250),
    (hs.Hypergraph(202, [[i, j] for i in (0, 1) for j in range(2, 202)]), 40),  # K_{2,200}
    (grid(4), 60),
    (hs.Hypergraph(8, [[i, (i + 1) % 8] for i in range(8)] + [[0, 3], [4, 7]]), 60),
], ids=["hub_50_four_cycles", "K_2_200", "grid_4x4", "ring_8_two_chords"])
def test_half_estimate_shift_matches_dense_and_converges_fast(h, max_iters):
    v = hs.build_adjacency(h)
    op = hs.build_wnb(v, 1.0, 1)
    res = hs.leading_eigen(op)
    assert res.converged and res.iterations <= max_iters
    eig = np.linalg.eigvals(nb_operator(v, 1.0, 1))
    rho = np.abs(eig).max()
    assert abs(res.lambda_c - rho) <= 1e-9 * rho
    assert np.abs(eig + rho).min() <= 1e-9 * rho


# leading_eigen takes about 1/gap steps, and a lattice's gap closes like
# 1/side^2; the counts pin that documented cost, so a solver change shows.
@pytest.mark.parametrize("side, steps", [(30, 709), (60, 2554)])
def test_grid_step_count_follows_the_gap(side, steps):
    res = hs.leading_eigen(hs.build_wnb(hs.build_adjacency(grid(side)), 1.0, 1))
    assert res.converged and res.iterations == steps


def test_half_estimate_shift_on_hub_at_scale():
    # 2,000 links: the radius comes from the node-level oracle, not eigvals
    v = hs.build_adjacency(hub_with_four_cycles(200))
    res = hs.leading_eigen(hs.build_wnb(v, 1.0, 1))
    assert res.converged and res.iterations <= 250  # a row-sum shift took 1,715
    rho = ihara_bass_radius(v)
    assert abs(res.lambda_c - rho) <= 1e-9 * rho


def test_ihara_bass_oracle_matches_dense():
    rng = np.random.default_rng(14)
    outcomes = {"root": 0, "pole": 0}
    for _ in range(80):
        n = int(rng.integers(4, 10))
        edges = [rng.choice(n, size=int(rng.integers(2, 4)), replace=False).tolist()
                 for _ in range(int(rng.integers(2, 2 * n)))]
        edges += [edges[0]] * int(rng.integers(0, 3))  # repeats raise pair weights
        v = hs.build_adjacency(hs.Hypergraph(n, edges))
        op = hs.build_wnb(v, 1.0, 1)
        if op.num_links == 0:
            continue
        rho = np.abs(np.linalg.eigvals(nb_operator(v, 1.0, 1))).max()
        max_w = v.weighted.data.max()
        try:
            got = ihara_bass_radius(v)
        except ValueError:
            # refused only when 1 / rho is not clearly below the pole 1 / max w
            assert rho <= max_w * (1 + 1e-6)
            outcomes["pole"] += 1
            continue
        assert abs(got - rho) <= 1e-10 * rho
        outcomes["root"] += 1
    assert outcomes["root"] >= 30 and outcomes["pole"] >= 10, outcomes


@pytest.mark.parametrize("spec", [
    GenSpec("scale_free", 5000, 10000, exponent=2.0, size_range=(2, 4),
            degree_range=(2, 60), rng_seed=1),   # the benchmark's threshold instance
    GenSpec("erdos_renyi", 2000, 1500, membership_p=0.0015, rng_seed=1),
], ids=["scale_free_4.5k", "erdos_renyi_1.8k"])
def test_critical_beta1_matches_ihara_bass_at_scale(spec):
    gcc, _ = hs.giant_component(generate(spec))
    v = hs.build_adjacency(gcc)
    rho = ihara_bass_radius(v)
    assert abs(hs.critical_beta1(v, gamma=1) * rho - 1.0) <= 1e-9


def test_max_iters_must_be_a_count():
    v, ts = views(3, [[0, 1, 2]])
    op = hs.build_wnb(v, 0.5, 1)
    par = hs.EpidemicParams(beta1=0.5, beta2=0.0, gamma=1)
    # 0 once read as the exact forest result, -3 as -3 iterations, True as 1
    for bad in (0, -3, 2.5, True, 3.0, None, "5"):
        for solve in (lambda: hs.leading_eigen(op, max_iters=bad),
                      lambda: hs.mp_solve(v, ts, par, [0], max_iters=bad)):
            with pytest.raises(ValueError, match="max_iters must be an integer >= 1"):
                solve()
    assert hs.leading_eigen(op, max_iters=np.int64(1)).iterations == 1
    assert hs.mp_solve(v, ts, par, [0], max_iters=np.int32(1)).iterations == 1


def test_critical_beta1_examples():
    tri, _ = views(3, [[0, 1], [1, 2], [0, 2]])
    assert hs.critical_beta1(tri, gamma=1) == pytest.approx(1.0, abs=1e-9)
    k4, _ = views(4, [[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]])
    assert hs.critical_beta1(k4, gamma=1) == pytest.approx(0.5, abs=1e-9)
    assert hs.critical_beta1(k4, gamma=2) == pytest.approx(0.25, abs=1e-9)
    path, _ = views(4, [[0, 1], [1, 2], [2, 3]])
    assert hs.critical_beta1(path, gamma=1) == np.inf


def test_forest_radius_is_exactly_zero():
    v, _ = views(6, [[0, 1], [1, 2], [1, 3], [3, 4], [3, 5]])
    res = hs.leading_eigen(hs.build_wnb(v, 0.9, 1.0))
    assert res.lambda_c == 0.0
    assert res.residual == 0.0
    assert res.converged
    assert res.eigvec.sum() == pytest.approx(1.0)
    # single undirected link: the operator has no entries at all
    v2, _ = views(2, [[0, 1]])
    res2 = hs.leading_eigen(hs.build_wnb(v2, 0.9, 1.0))
    assert res2.lambda_c == 0.0 and res2.converged
    # two trees plus isolated nodes 7 and 8
    v3, _ = views(9, [[0, 1], [1, 2], [3, 4], [4, 5], [4, 6]])
    res3 = hs.leading_eigen(hs.build_wnb(v3, 0.9, 1.0))
    assert res3.lambda_c == 0.0 and res3.residual == 0.0 and res3.converged
    assert res3.eigvec.sum() == pytest.approx(1.0)
    # one cycle among a tree and an isolated node is no forest
    v4, _ = views(6, [[0, 1], [1, 2], [0, 2], [3, 4]])
    assert hs.leading_eigen(hs.build_wnb(v4, 0.9, 1.0)).lambda_c == pytest.approx(0.9)
    # beta1 = 0 on a graph with cycles: the operator itself is zero
    res5 = hs.leading_eigen(hs.build_wnb(v4, 0.0, 1.0))
    assert res5.lambda_c == 0.0 and res5.residual == 0.0 and res5.converged
    assert np.isfinite(res5.eigvec).all() and res5.eigvec.sum() == pytest.approx(1.0)


@pytest.mark.parametrize("h", [hs.Hypergraph(3), hs.Hypergraph(0), hs.Hypergraph(3, [[0]])],
                         ids=["isolated", "empty", "singleton"])
def test_graphs_without_links(h):
    # np.bincount of no links is int64, which in-place float updates refused
    v, ts = hs.build_adjacency(h), hs.enumerate_two_simplices(h)
    res = hs.leading_eigen(hs.build_wnb(v, 0.9, 2))
    assert (res.lambda_c, res.residual, res.converged) == (0.0, 0.0, True)
    assert res.eigvec.dtype == np.float64 and len(res.eigvec) == 0
    assert hs.critical_beta1(v, gamma=2) == math.inf
    seeds = list(range(min(h.num_nodes, 2)))
    st = hs.mp_solve(v, ts, hs.EpidemicParams(beta1=0.9, beta2=0.9, gamma=2), seeds)
    assert st.converged and st.residual == 0.0
    np.testing.assert_allclose(st.node_r, np.isin(np.arange(h.num_nodes), seeds), atol=1e-9)
    st.validate()


def test_spectral_json_and_coo_dump(tmp_path):
    v, _ = views(3, [[0, 1], [1, 2], [0, 2]])
    op = hs.build_wnb(v, 0.5, 1.0)
    res = hs.leading_eigen(op)
    p = tmp_path / "spec.json"
    write_json(p, res.to_dict())
    loaded = json.loads(p.read_text())
    assert loaded["lambda_c"] == pytest.approx(0.5)
    assert loaded["converged"] is True
    assert loaded["num_links"] == len(res.eigvec) == 6
    dump = tmp_path / "op.txt"
    op.dump_coo(dump)
    rows = []
    for line in dump.read_text().splitlines():
        if line.startswith("#"):
            continue
        r, c, val = line.split()
        rows.append((int(r), int(c), float(val)))
    mat = nb_operator(v, 0.5, 1.0)
    assert rows == [(r, c, mat[r, c]) for r, c in zip(*np.nonzero(mat))]


def test_foreign_two_simplex_set_rejected():
    v, _ = views(4, PATH5[:3])
    # (0, 6) keys as 0 * 4 + 6 = 1 * 4 + 2, the link (1 -> 2)
    for other in ([[0, 1, 3]], [[3, 4, 5]], [[0, 1, 6]], [[1, 2, 6]]):
        _, foreign = views(7, other)
        with pytest.raises(ValueError, match="absent from the link index"):
            hs.initial_messages(v, foreign, [0])
    empty, _ = views(3, [])
    _, triangle = views(3, [[0, 1, 2]])
    with pytest.raises(ValueError, match="absent from the link index"):
        hs.initial_messages(empty, triangle, [0])


def random_multigraph(rng, n, isolated):
    """Hyperedges of 2-5 of the first n - isolated nodes, some repeated."""
    edges = [sorted(rng.choice(n - isolated, size=int(rng.integers(2, min(5, n - isolated) + 1)),
                               replace=False).tolist())
             for _ in range(int(rng.integers(1, 12)))]
    edges += [edges[int(rng.integers(len(edges)))] for _ in range(int(rng.integers(0, 4)))]
    return hs.Hypergraph(n, edges)


def test_plumb_matches_link_id_lookups():
    rng = np.random.default_rng(16)
    checked = rejected = 0
    for _ in range(200):
        n = int(rng.integers(3, 16))
        h = random_multigraph(rng, n, isolated=int(rng.integers(0, n - 2)))
        links = hs.build_link_index(hs.build_adjacency(h))
        # the view's own triangles, a subset of its hyperedges, or a foreign set
        pick = int(rng.integers(3))
        if pick == 0:
            other = h
        elif pick == 1:
            keep = [e for e in h.hyperedges if rng.random() < 0.6]
            other = hs.Hypergraph(n, keep)
        else:
            other = random_multigraph(rng, n + int(rng.integers(0, 3)), isolated=0)
        ts = hs.enumerate_two_simplices(other)
        try:
            want = reference_plumb(links, ts)
        except KeyError:
            with pytest.raises(ValueError, match="absent from the link index"):
                message_passing._CavityPlumb(links, ts)
            rejected += 1
            continue
        got = message_passing._CavityPlumb(links, ts)
        for name, arr in want.items():
            np.testing.assert_array_equal(getattr(got, name), arr, err_msg=name)
        np.testing.assert_array_equal(got.link_power, links.weight.astype(np.float64))
        checked += int(ts.num_triples > 0)
    assert checked > 50 and rejected > 20, (checked, rejected)


def test_triangle_rows_built_only_when_a_step_reads_them():
    v, ts = views(5, [[0, 1, 2], [1, 2, 3, 4]])
    rows = {"tlink_a", "tlink_b", "excl_a", "excl_b", "center_power"}
    pairwise = hs.mp_solve(v, ts, hs.EpidemicParams(0.3, 0.0), [0])
    assert not rows & set(vars(pairwise.plumb))
    both = hs.mp_solve(v, ts, hs.EpidemicParams(0.3, 0.4), [0])
    assert rows <= set(vars(both.plumb))
    want = reference_plumb(both.links, ts)
    for name in rows:
        np.testing.assert_array_equal(getattr(pairwise.plumb, name), want[name], err_msg=name)


def test_message_state_validation_rejects_bad_sums():
    v, ts = views(3, [[0, 1, 2]])
    st = hs.initial_messages(v, ts, [0])
    st.validate()
    st.i_msg[0] += 0.5
    with pytest.raises(ValueError):
        st.validate()
    # each share in [0, 1] but their sum above 1: the derived R share is negative
    for s_name, i_name, r_name in (("s_msg", "i_msg", "r_msg"), ("node_s", "node_i", "node_r")):
        st = hs.initial_messages(v, ts, [])
        getattr(st, s_name)[0] = getattr(st, i_name)[0] = 0.6
        with pytest.raises(ValueError, match=f"{r_name} leaves"):
            st.validate()


def test_solve_argument_validation():
    v, ts = views(3, [[0, 1, 2]])
    par = hs.EpidemicParams(beta1=0.5, beta2=0.0, gamma=1)
    with pytest.raises(ValueError):
        hs.mp_solve(v, ts, par, [0], tol=0.0)
    with pytest.raises(ValueError):
        hs.mp_solve(v, ts, par, [0], max_iters=0)
    for tol in (math.nan, math.inf, True):
        with pytest.raises(ValueError, match="tol must be positive"):
            hs.mp_solve(v, ts, par, [0], tol=tol)
        with pytest.raises(ValueError, match="tol must be positive"):
            hs.leading_eigen(hs.build_wnb(v, 0.5, 1), tol=tol)
    with pytest.raises(ValueError, match="beta1 must be nonnegative"):
        hs.build_wnb(v, math.nan, 1)
    for gamma in (0, -1, 0.5, math.nan):
        for build in (lambda: hs.build_wnb(v, 0.5, gamma), lambda: hs.critical_beta1(v, gamma)):
            with pytest.raises(ValueError, match="gamma must be at least 1"):
                build()
    for seeds in ([7], [0, -1]):
        with pytest.raises(ValueError, match="seed id out of range"):
            hs.initial_messages(v, ts, seeds)


def test_escape_products_match_leave_one_out_oracle():
    rng = np.random.default_rng(90)
    seen = {"exact zero": 0, "underflow": 0, "multiplicity 300": 0}
    for _ in range(40):
        h = extreme_hypergraph(rng, n_hi=13, m_hi=9)
        v, ts = hs.build_adjacency(h), hs.enumerate_two_simplices(h)
        st = hs.initial_messages(v, ts, [])
        # exact 0s, exact 1s and interior values in about equal shares
        st.i_msg = np.choose(rng.integers(0, 3, st.links.num_links),
                             [0.0, 1.0, rng.uniform(size=st.links.num_links)])
        seen["multiplicity 300"] += int(v.weighted.data.max() >= 300)
        for b1, b2 in itertools.product(EXTREME_BETAS, EXTREME_BETAS):
            got = message_passing._escape_products(st, hs.EpidemicParams(beta1=b1, beta2=b2))
            cav, full, cav_zero, full_zero = leave_one_out_escape(v, ts, st.i_msg, b1, b2)
            for g, want, zero in zip(got, (cav, full), (cav_zero, full_zero)):
                assert np.all(g[zero] == 0.0), (b1, b2)
                np.testing.assert_allclose(g[~zero], want[~zero], rtol=1e-9, atol=1e-300)
                seen["exact zero"] += int(zero.sum())
                seen["underflow"] += int(np.count_nonzero((want == 0.0) & ~zero))
    assert min(seen.values()) > 0, seen


def test_extreme_beta_solve_stays_finite():
    # Products that underflow to 0 on both sides of a division gave NaN
    # messages here, reported as converged.
    rng = np.random.default_rng(7)
    for _ in range(60):
        h = extreme_hypergraph(rng, n_lo=6, n_hi=25, m_lo=4, m_hi=30)
        v, ts = hs.build_adjacency(h), hs.enumerate_two_simplices(h)
        gamma = int(rng.integers(1, 4))
        par = hs.EpidemicParams(beta1=1.0 - 1e-6, beta2=1.0 - 1e-6, gamma=gamma)
        st = hs.mp_solve(v, ts, par, rng.choice(h.num_nodes, size=3, replace=False))
        for arr in (st.s_msg, st.i_msg, st.r_msg, st.node_s, st.node_i, st.node_r):
            assert np.isfinite(arr).all()
        assert math.isfinite(st.residual)
        st.validate()


def test_nan_state_is_not_converged(monkeypatch):
    v, ts = views(3, [[0, 1, 2]])

    def nan_escape(msgs, params):
        return np.full(msgs.links.num_links, np.nan), np.full(msgs.links.num_nodes, np.nan)

    monkeypatch.setattr(message_passing, "_escape_products", nan_escape)
    st = hs.mp_solve(v, ts, hs.EpidemicParams(beta1=0.5, beta2=0.5, gamma=2), [0])
    assert st.converged is False
    assert math.isnan(st.trace[-1])


@pytest.mark.parametrize("name", ["s_msg", "node_i"])
def test_message_state_validation_rejects_non_finite(name):
    v, ts = views(3, [[0, 1, 2]])
    st = hs.initial_messages(v, ts, [0])
    getattr(st, name)[0] = np.nan
    with pytest.raises(ValueError, match=f"{name} has non-finite entries"):
        st.validate()
