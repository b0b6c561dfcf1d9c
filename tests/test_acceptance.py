"""Acceptance suite: one test per numbered release criterion.

Each test prints a single CRITERION line with the measured quantities
before asserting, so a failing run still reports what was observed.
Budgets are asserted where a criterion pins one.
"""

import inspect
import itertools
import time
from pathlib import Path
from statistics import NormalDist

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

import hypersir as hs
from hypersir.cli import (
    ExperimentConfig,
    _bench_instance,
    fit_loglog_slope,
    resolve_seed_counts,
    select_seeds,
)
from hypersir.message_passing import build_link_index
from oracles import (brute_collective_influence, exact_sigma_distribution, multinomial_violations,
                     nb_operator)

DATA_DIR = Path(__file__).resolve().parent.parent / "data"


def _line(num, ok, detail):
    print(f"CRITERION {num:02d} {'PASS' if ok else 'FAIL'} {detail}")


def _views(num_nodes, edges):
    h = hs.Hypergraph(num_nodes, [list(e) for e in edges])
    v = hs.build_adjacency(h)
    return v, hs.enumerate_two_simplices(h)


# -- 1: Monte-Carlo final-size distributions vs exhaustive enumeration ------

def _enumerate_small_instances():
    """Rooted-isomorphism classes of <=3 hyperedges on 4 nodes, seed at 0."""
    subsets = [s for r in (2, 3, 4) for s in itertools.combinations(range(4), r)]
    perms = list(itertools.permutations(range(1, 4)))

    def canon(edges):
        best = None
        for perm in perms:
            mp = {0: 0, 1: perm[0], 2: perm[1], 3: perm[2]}
            form = tuple(sorted(tuple(sorted(mp[v] for v in e)) for e in edges))
            if best is None or form < best:
                best = form
        return best

    seen = {}
    for r in (1, 2, 3):
        for combo in itertools.combinations_with_replacement(subsets, r):
            seen.setdefault(canon(combo), combo)
    return list(seen.values())


def _criterion_01_cases():
    """(edges, beta1, beta2, gamma, rng_seed, exact distribution) per case."""
    instances = _enumerate_small_instances()
    cases = [(edges, 0.3, 0.6, 1, 23000 + idx) for idx, edges in enumerate(instances)]
    # second parameter set with a two-step infectious period, on a slice
    cases += [(edges, 0.25, 0.5, 2, 71000 + idx)
              for idx, edges in enumerate(instances[::5])]
    return [(*case, exact_sigma_distribution(4, [list(e) for e in case[0]], [0], *case[1:4]))
            for case in cases]


def _check_distribution(edges, beta1, beta2, gamma, rng_seed, exact, z,
                        runs=100_000):
    v, ts = _views(4, edges)
    par = hs.EpidemicParams(beta1=beta1, beta2=beta2, gamma=gamma,
                            rng_seed=rng_seed)
    st = hs.run_sir(v, ts, [0], par, runs=runs)
    assert st.non_absorbed == 0
    bad = multinomial_violations(st.sigma_samples, exact, z=z)
    assert not bad, f"{edges} b1={beta1} b2={beta2} g={gamma}: {bad}"
    counts = np.bincount(st.sigma_samples, minlength=5)
    return max((abs(counts[s] - runs * p) / np.sqrt(runs * p * (1.0 - p))
                for s, p in exact.items() if 0.0 < p < 1.0), default=0.0)


def test_criterion_01_dynamics_match_exact_enumeration():
    t0 = time.time()
    cases = _criterion_01_cases()
    # Bonferroni over the random bins (p = 1 bins are checked exactly):
    # an exact kernel passes every bin of every case with probability >= 0.999
    bins = sum(1 for case in cases for p in case[-1].values() if 0.0 < p < 1.0)
    z = NormalDist().inv_cdf(1.0 - 1e-3 / (2 * bins))
    worst = max(_check_distribution(*case, z=z) for case in cases)
    elapsed = time.time() - t0
    ok = elapsed < 120.0
    _line(1, ok, f"{len(cases)} cases, {bins} bins, bound z={z:.2f}, "
                 f"worst z={worst:.2f}, {elapsed:.1f}s (< 120s)")
    assert ok


# -- 2: power-iteration eigenvalue vs dense solver ---------------------------

def test_criterion_02_spectral_radius_matches_dense_solver():
    t0 = time.time()
    rng = np.random.default_rng(202)
    checked = 0
    worst_dense = 0.0
    worst_lin = 0.0
    while checked < 50:
        n = int(rng.integers(6, 16))
        m = int(rng.integers(max(2, n // 2), 2 * n))
        edges = [list(rng.choice(n, size=int(rng.integers(2, 4)), replace=False))
                 for _ in range(m)]
        v, _ = _views(n, edges)
        if not 0 < build_link_index(v).num_links <= 200:
            continue
        b1 = float(rng.uniform(0.1, 0.9))
        g = int(rng.integers(1, 4))
        op = hs.build_wnb(v, b1, g)
        res = hs.leading_eigen(op, tol=1e-12)
        assert res.converged
        want = nb_operator(v, b1, g)
        dense = float(np.abs(np.linalg.eigvals(want)).max())
        worst_dense = max(worst_dense, abs(res.lambda_c - dense))
        assert abs(res.lambda_c - dense) <= 1e-8
        res2 = hs.leading_eigen(hs.build_wnb(v, 2.0 * b1, g), tol=1e-12)
        worst_lin = max(worst_lin, abs(res2.lambda_c - 2.0 * res.lambda_c))
        assert abs(res2.lambda_c - 2.0 * res.lambda_c) <= 1e-8
        # the triangle channel cannot enter the operator: no such parameter
        # exists, and every build equals the definition bit for bit
        assert "beta2" not in inspect.signature(hs.build_wnb).parameters
        for built in (op, hs.build_wnb(v, b1, g)):
            assert np.array_equal((b1 * g) * built.skeleton.toarray(), want)
        checked += 1
    elapsed = time.time() - t0
    ok = elapsed < 60.0
    _line(2, ok, f"50 instances, worst |dL|={worst_dense:.2e}, "
                 f"worst linearity dev={worst_lin:.2e}, {elapsed:.1f}s (< 60s)")
    assert ok


# -- 3: finite differences of one message update vs operator entries ---------

FD_INSTANCES = [
    (4, [[0, 1], [1, 2], [2, 3]], 1),
    (4, [[0, 1], [1, 2], [2, 3], [3, 0]], 2),
    (3, [[0, 1, 2]], 1),
    (5, [[0, 1, 2], [2, 3], [3, 4], [4, 0]], 2),
    (5, [[0, 1], [0, 2], [0, 3], [0, 4]], 1),
    (6, [[0, 1, 2], [3, 4, 5], [2, 3]], 2),
    (4, [[0, 1], [0, 1], [1, 2], [2, 3]], 1),
    (6, [[0, 1], [1, 2], [0, 2], [2, 3], [3, 4], [4, 5], [3, 5]], 2),
    (5, [[0, 1, 2, 3], [3, 4]], 1),
    (7, [[0, 1, 2], [2, 3, 4], [4, 5, 6], [6, 0]], 2),
]


def test_criterion_03_finite_differences_recover_operator():
    eps = 1e-8
    worst_rel = 0.0
    worst_zero = 0.0
    for n, edges, gamma in FD_INSTANCES:
        v, ts = _views(n, edges)
        b1 = 0.35
        op = hs.build_wnb(v, b1, gamma)
        mat = nb_operator(v, b1, gamma)
        num_links = op.num_links
        par = hs.EpidemicParams(beta1=b1, beta2=0.4, gamma=gamma)
        jac = np.zeros((num_links, num_links))
        for col in range(num_links):
            st = hs.initial_messages(v, ts, [])
            st.i_msg[col] = eps
            st.s_msg[col] = 1.0 - eps
            st1 = hs.mp_step(st, par)
            jac[:, col] = st1.i_msg / eps
        recovered = gamma * (jac - (1.0 - 1.0 / gamma) * np.eye(num_links))
        nz = mat != 0.0
        if nz.any():
            rel = np.abs(recovered[nz] - mat[nz]) / np.abs(mat[nz])
            worst_rel = max(worst_rel, float(rel.max()))
        if (~nz).any():
            worst_zero = max(worst_zero, float(np.abs(recovered[~nz]).max()))
    ok = worst_rel <= 1e-4 and worst_zero <= 1e-6
    _line(3, ok, f"{len(FD_INSTANCES)} instances, worst rel err={worst_rel:.2e},"
                 f" worst zero-entry leak={worst_zero:.2e}")
    assert ok


# -- 4: fast influence scores equal brute-force evaluation -------------------

def test_criterion_04_influence_scores_equal_brute_force():
    rng = np.random.default_rng(404)
    for _ in range(100):
        n = int(rng.integers(5, 51))
        m = int(rng.integers(max(2, n // 2), 2 * n))
        edges = [list(rng.choice(n, size=int(rng.integers(2, 5)), replace=False))
                 for _ in range(m)]
        v, _ = _views(n, edges)
        b1 = float(rng.uniform(0.05, 1.0))
        g = int(rng.integers(1, 5))
        fast = hs.collective_influence(v, b1, g)
        brute = brute_collective_influence(n, edges, b1, g)
        assert np.array_equal(fast, brute)
    _line(4, True, "100 instances bitwise equal")


# -- 5: bistable region shows two separated outcome modes --------------------

def test_criterion_05_bistable_absorbing_fraction_and_gap():
    t0 = time.time()
    spec = hs.GenSpec("scale_free", 1000, 2000, exponent=2.0,
                      size_range=(2, 3), degree_range=(6, 80), rng_seed=0)
    g, _ = hs.giant_component(hs.generate(spec))
    v = hs.build_adjacency(g)
    ts = hs.enumerate_two_simplices(g)
    k1, k2 = hs.simplex_densities(g)
    b1, b2 = hs.rescale_params(1.0, 2.5, k1, k2, gamma=1)
    gcc = g.num_nodes
    runs = 300
    node_rng = np.random.default_rng(1000)
    seed_nodes = node_rng.integers(0, gcc, runs)
    sizes = np.empty(runs)
    for r in range(runs):
        par = hs.EpidemicParams(beta1=b1, beta2=b2, gamma=1,
                                rng_seed=77000 + r)
        sizes[r] = hs.run_sir(v, ts, [int(seed_nodes[r])], par,
                              runs=1).sigma_samples[0]
    stats = hs.OutbreakStats(runs=runs, sigma_samples=sizes,
                             absorbed=np.ones(runs, dtype=bool), gcc_size=gcc)
    absorbing, _ = hs.classify_bistable(stats)
    frac = np.sort(sizes / gcc)
    gaps = np.diff(frac)
    gi = int(np.argmax(gaps))
    gap = float(gaps[gi])
    below = int(np.sum(frac <= frac[gi]))
    above = runs - below
    elapsed = time.time() - t0
    gap_ok = gap >= 0.20 and below >= 10 and above >= 10
    band_ok = 0.24 <= absorbing <= 0.44
    ok = gap_ok and band_ok and elapsed < 600.0
    _line(5, ok, f"absorbing={absorbing:.3f} (band [0.24, 0.44]), "
                 f"gap={gap:.3f} at ({frac[gi]:.3f}, {frac[gi + 1]:.3f}) "
                 f"with {below}/{above} runs per mode, {elapsed:.1f}s (< 600s)")
    assert gap_ok, f"no empty 20%-wide gap: widest={gap:.3f}"
    assert band_ok, f"absorbing fraction {absorbing:.3f} outside [0.24, 0.44]"
    assert elapsed < 600.0


# -- 6: adaptive influence seeding beats random, ties no baseline ------------

C6_METHODS = ("cia", "random", "degree", "hyperdegree", "ci_naive",
              "hadp", "hsdp")


def test_criterion_06_adaptive_seeding_dominates():
    t0 = time.time()
    per_seed = []
    for gseed in (0, 1, 2):
        spec = hs.GenSpec("scale_free", 1000, 320, exponent=2.0,
                          size_range=(2, 3), degree_range=(1, 6),
                          rng_seed=gseed)
        g, _ = hs.giant_component(hs.generate(spec))
        v = hs.build_adjacency(g)
        ts = hs.enumerate_two_simplices(g)
        k = max(1, int(np.floor(0.03 * g.num_nodes + 0.5)))
        out = {}
        for method in C6_METHODS:
            seeds = select_seeds(v, method, k, rng_seed=12345)
            par = hs.EpidemicParams(beta1=0.25, beta2=0.2, gamma=1,
                                    rng_seed=777)
            out[method] = hs.run_sir(v, ts, list(seeds), par,
                                     runs=100).fraction_of_gcc
        per_seed.append(out)
    avg = {m: float(np.mean([p[m] for p in per_seed])) for m in C6_METHODS}
    lead = avg["cia"] - avg["random"]
    others = {m: s for m, s in avg.items() if m != "cia"}
    best = max(others, key=others.get)
    gap = avg["cia"] - others[best]
    elapsed = time.time() - t0
    ok = lead >= 0.04 and gap >= -0.01 and elapsed < 900.0
    _line(6, ok, f"lead over random={100 * lead:.1f}pp (>= 4), "
                 f"margin vs best baseline ({best})={100 * gap:+.1f}pp "
                 f"(>= -1), {elapsed:.1f}s (< 900s)")
    assert lead >= 0.04
    assert gap >= -0.01
    assert elapsed < 900.0


# -- 7: real catalogue ingestion (skipped unless the files are present) ------

NDC_NVERTS = DATA_DIR / "NDC-classes-nverts.txt"
NDC_SIMPLICES = DATA_DIR / "NDC-classes-simplices.txt"


@pytest.mark.skipif(not (NDC_NVERTS.exists() and NDC_SIMPLICES.exists()),
                    reason="dataset files not present under data/")
def test_criterion_07_catalogue_ingestion():
    h = hs.load_benson(NDC_NVERTS, NDC_SIMPLICES, collapse_duplicates=False)
    candidates = {
        "retained": hs.dataset_stats(h),
        "dedup": hs.dataset_stats(h, dedup=True),
    }
    target = (1161, 1088, 628)
    match = None
    for name, st in candidates.items():
        if (st.n, st.m, st.gcc_size) == target:
            match = name, st
            break
    counts = {name: (st.n, st.m, st.gcc_size)
              for name, st in candidates.items()}
    assert match is not None, f"no convention yields {target}: {counts}"
    name, st = match
    dev = abs(st.mean_node_degree - 17.42) / 17.42
    ok = dev <= 0.02
    _line(7, ok, f"convention={name} (n, m, gcc)={target} "
                 f"mean degree={st.mean_node_degree:.2f} "
                 f"(within {100 * dev:.2f}% of 17.42)")
    assert ok


# -- 8: end-to-end seeding cost grows at most mildly superlinearly -----------

def test_criterion_08_seeding_runtime_scaling():
    t0 = time.time()
    cfg = ExperimentConfig(methods=["cia"], sizes=[1000, 2000, 4000, 8000],
                           mean_degree=3.5, rng_seed=0)
    timings = []
    for n in cfg.sizes:
        inp = _bench_instance(cfg, n)
        k = resolve_seed_counts(cfg, inp.work.num_nodes)[0]
        select_seeds(inp.view, "cia", k, 1)
        best = np.inf
        for _ in range(3):
            t1 = time.perf_counter()
            select_seeds(inp.view, "cia", k, 1)
            best = min(best, time.perf_counter() - t1)
        timings.append(best)
    slope, _ = fit_loglog_slope(cfg.sizes, timings)
    elapsed = time.time() - t0
    ok = slope <= 1.6 and elapsed < 1200.0
    _line(8, ok, f"slope={slope:.2f} (<= 1.6), times="
                 f"{['%.4fs' % t for t in timings]}, {elapsed:.1f}s (< 1200s)")
    assert slope <= 1.6
    assert elapsed < 1200.0


# -- 9: named invariants re-asserted in one place -----------------------------

def _random_instance(seed, n=60, m=100, max_size=4):
    rng = np.random.default_rng(seed)
    edges = [list(rng.choice(n, size=int(rng.integers(2, max_size + 1)),
                             replace=False))
             for _ in range(m)]
    return hs.Hypergraph(n, edges), edges


def test_criterion_09_invariant_suite():
    # conservation: statuses partition the nodes, recovery is monotone
    h, edges = _random_instance(91)
    v = hs.build_adjacency(h)
    ts = hs.enumerate_two_simplices(h)
    par = hs.EpidemicParams(beta1=0.2, beta2=0.3, gamma=2)
    state = hs.initial_state(h.num_nodes, [0, 1])
    rng = np.random.default_rng(5)

    def s_count(st):
        return int(np.count_nonzero(st.status == 0))

    prev_r, prev_s = state.num_recovered, s_count(state)
    for _ in range(30):
        state = hs.step(state, v, ts, par, rng)
        total = s_count(state) + state.num_infected + state.num_recovered
        assert total == h.num_nodes
        assert state.num_recovered >= prev_r
        assert s_count(state) <= prev_s
        prev_r, prev_s = state.num_recovered, s_count(state)
    assert state.num_infected == 0

    # monotonicity: mean outbreak grows with the link infectivity
    means = []
    for b1 in (0.05, 0.3, 0.8):
        stats = hs.run_sir(v, ts, [0, 1, 2],
                           hs.EpidemicParams(beta1=b1, beta2=0.1, gamma=1,
                                             rng_seed=11), runs=200)
        means.append(stats.sigma_mean)
    assert means[0] < means[1] < means[2]

    # determinism: identical inputs give identical sample arrays
    a = hs.run_sir(v, ts, [3], hs.EpidemicParams(beta1=0.4, beta2=0.2,
                                                 gamma=2, rng_seed=7), runs=50)
    b = hs.run_sir(v, ts, [3], hs.EpidemicParams(beta1=0.4, beta2=0.2,
                                                 gamma=2, rng_seed=7), runs=50)
    assert np.array_equal(a.sigma_samples, b.sigma_samples)
    assert np.array_equal(a.absorbed, b.absorbed)

    # component maximality: the kept component is the largest one
    h2, _ = _random_instance(92, n=80, m=60)
    g2, remap = hs.giant_component(h2)
    v2 = hs.build_adjacency(h2)
    _, labels = connected_components(v2.binary, directed=False)
    largest = int(np.bincount(labels).max())
    assert g2.num_nodes == largest
    assert int(np.sum(remap >= 0)) == largest

    # adjacency identity: pairwise counts equal incidence product minus
    # the hyperdegree diagonal
    rows = [node for e in edges for node in e]
    cols = [j for j, e in enumerate(edges) for _ in e]
    inc = sp.coo_matrix((np.ones(len(rows)), (rows, cols)),
                        shape=(h.num_nodes, len(edges))).tocsr()
    prod = (inc @ inc.T).toarray()
    manual = prod - np.diag(np.diag(prod))
    assert np.array_equal(np.diag(prod), v.hyperdegree)
    assert np.array_equal(manual, v.weighted.toarray())

    # ranking invariance: the influence order ignores the rate scaling
    base = hs.ranked_nodes(v, hs.collective_influence(v, 0.3, 1))
    for b1, g in ((0.05, 4), (1.0, 2), (0.7, 3)):
        other = hs.ranked_nodes(v, hs.collective_influence(v, b1, g))
        assert np.array_equal(base, other)

    _line(9, True, "conservation, monotonicity, determinism, component "
                   "maximality, adjacency identity, ranking invariance")


# -- 10: top-ranked nodes neighbor each other more than chance ----------------

C10_FAMILIES = (
    ("scale_free", lambda s: hs.GenSpec("scale_free", 1000, 320, exponent=2.0,
                                        size_range=(2, 3), degree_range=(1, 6),
                                        rng_seed=s)),
    ("erdos_renyi", lambda s: hs.GenSpec("erdos_renyi", 1000, 1000,
                                         membership_p=0.003, rng_seed=s)),
    ("d_uniform", lambda s: hs.GenSpec("d_uniform", 1000, 1200,
                                       uniform_size=3, rng_seed=s)),
)


def test_criterion_10_top_rank_neighbor_overlap():
    details = []
    ok = True
    for name, mk in C10_FAMILIES:
        vals = []
        for s in range(10):
            g, _ = hs.giant_component(hs.generate(mk(s)))
            v = hs.build_adjacency(g)
            scores = hs.collective_influence(v, 1.0, 1.0)
            vals.append(hs.top_overlap_probability(v, scores, 5.0))
        arr = np.array(vals)
        stat = arr.mean() - 3.0 * arr.std(ddof=1) / np.sqrt(len(arr))
        details.append(f"{name}: mean={arr.mean():.3f} lower={stat:.3f}")
        ok = ok and stat > 0.05
    _line(10, ok, "; ".join(details) + " (null 0.05)")
    assert ok
