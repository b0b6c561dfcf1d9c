"""Contagion process tests: exact oracles, conservation, statistics."""

import itertools
import json

import numpy as np
import pytest
from scipy.stats import chi2

import hypersir as hs
from hypersir.data_io import write_json
import oracles


def views(num_nodes, edges):
    h = hs.Hypergraph(num_nodes, edges)
    return hs.build_adjacency(h), hs.enumerate_two_simplices(h)


def test_params_validation():
    with pytest.raises(ValueError):
        hs.EpidemicParams(beta1=1.5)
    with pytest.raises(ValueError):
        hs.EpidemicParams(beta1=0.5, beta2=-0.1)
    for key in ("beta1", "beta2"):
        with pytest.raises(ValueError, match=f"{key} must lie in"):
            hs.EpidemicParams(**{"beta1": 0.5, key: True})
    with pytest.raises(ValueError):
        hs.EpidemicParams(beta1=0.5, gamma=0)
    for t_max in (-3, 2.5, 2.0, True):
        with pytest.raises(ValueError, match="t_max must be None or an integer >= 0"):
            hs.EpidemicParams(beta1=0.5, t_max=t_max)
    assert hs.EpidemicParams(beta1=0.5, t_max=np.int64(0)).t_max == 0
    for gamma in (0, 2.0, 1.5, True, 10**400):
        with pytest.raises(ValueError, match="gamma must be an integer >= 1"):
            hs.EpidemicParams(beta1=0.5, gamma=gamma)
    assert hs.EpidemicParams(beta1=0.5, gamma=2**63 - 1).gamma == 2**63 - 1  # int64's largest
    for rng_seed in (-1, 1.5, 2.0, True, None):
        with pytest.raises(ValueError, match="rng_seed must be an integer >= 0"):
            hs.EpidemicParams(beta1=0.5, rng_seed=rng_seed)
    par = hs.EpidemicParams(beta1=0.5, gamma=np.int64(2), rng_seed=np.uint32(7))
    assert (par.gamma, par.rng_seed) == (2, 7)


def test_run_sir_rejects_malformed_runs():
    v, ts = views(4, [(0, 1, 2), (2, 3)])
    params = hs.EpidemicParams(beta1=0.5)
    for runs in (0, -1, 2.0, True, "3"):
        with pytest.raises(ValueError, match="runs must be an integer >= 1"):
            hs.run_sir(v, ts, [0], params, runs=runs)
    assert hs.run_sir(v, ts, [0], params, runs=np.int64(3)).runs == 3


def test_run_sir_rejects_out_of_range_seeds():
    v, ts = views(4, [(0, 1, 2), (2, 3)])
    params = hs.EpidemicParams(beta1=0.5)
    for seeds in ([4], [0, -1], [2**63], [0, -2**70], [2**64]):  # int64 holds none of the last
        with pytest.raises(ValueError, match="seed id out of range"):
            hs.run_sir(v, ts, seeds, params, runs=3)
        with pytest.raises(ValueError, match="seed id out of range"):
            hs.mp_solve(v, ts, params, seeds)


def test_seed_ids_must_be_integers():
    v, ts = views(4, [(0, 1, 2), (2, 3)])
    params = hs.EpidemicParams(beta1=0.5)
    for seeds in ([1.7], [0, 2.0], [True], [0, np.float64(1.0)], [None], ["1"]):
        with pytest.raises(ValueError, match="is not an integer"):
            hs.run_sir(v, ts, seeds, params, runs=2)
        with pytest.raises(ValueError, match="is not an integer"):
            hs.initial_messages(v, ts, seeds)
        with pytest.raises(ValueError, match="is not an integer"):
            hs.mp_solve(v, ts, params, seeds)
    assert hs.initial_state(4, np.array([1, 3])).num_infected == 2
    assert hs.initial_state(4, (np.int32(2),)).num_infected == 1


def test_zero_infectivity_recovers_seeds_only():
    v, ts = views(5, [(0, 1, 2), (2, 3, 4)])
    for gamma in (1, 3):
        params = hs.EpidemicParams(beta1=0.0, beta2=0.0, gamma=gamma)
        stats = hs.run_sir(v, ts, [0, 3], params, runs=10)
        assert (stats.sigma_samples == 2).all()
        assert stats.sigma_mean == 2.0
        # seeds take exactly gamma steps to clear
        rng = np.random.default_rng(0)
        state = hs.initial_state(5, [0, 3])
        for _ in range(gamma):
            assert state.num_infected == 2
            state = hs.step(state, v, ts, params, rng)
        assert state.num_infected == 0
        assert state.num_recovered == 2


def test_deterministic_front_advances_one_hop_per_step():
    # path 0-1-2-3, beta1=1, gamma=1: one new ring per step, sigma = 4
    v, ts = views(4, [(0, 1), (1, 2), (2, 3)])
    params = hs.EpidemicParams(beta1=1.0, gamma=1)
    rng = np.random.default_rng(0)
    state = hs.initial_state(4, [0])
    seen = [state.status.tolist()]
    for _ in range(4):
        state = hs.step(state, v, ts, params, rng)
        seen.append(state.status.tolist())
    assert seen == [
        [1, 0, 0, 0],
        [2, 1, 0, 0],
        [2, 2, 1, 0],
        [2, 2, 2, 1],
        [2, 2, 2, 2],
    ]
    stats = hs.run_sir(v, ts, [0], params, runs=5)
    assert (stats.sigma_samples == 4).all()


def test_single_link_mean_matches_binomial():
    v, ts = views(2, [(0, 1)])
    p = 0.37
    runs = 20000
    stats = hs.run_sir(v, ts, [0], hs.EpidemicParams(beta1=p, rng_seed=3),
                       runs=runs)
    hits = int((stats.sigma_samples == 2).sum())
    assert abs(hits - runs * p) <= 3.0 * np.sqrt(runs * p * (1 - p))


def test_triangle_channel_needs_two_infected():
    v, ts = views(3, [(0, 1, 2)])
    params = hs.EpidemicParams(beta1=0.0, beta2=1.0)
    one = hs.run_sir(v, ts, [0], params, runs=10)
    assert (one.sigma_samples == 1).all()
    two = hs.run_sir(v, ts, [0, 1], params, runs=10)
    assert (two.sigma_samples == 3).all()


def test_sigma_distribution_matches_exact_enumeration():
    cases = [
        (4, [[0, 1, 2], [1, 2, 3]], 0.4, 0.7, 1),
        (4, [[0, 1], [1, 2], [2, 3]], 0.5, 0.0, 1),
        (4, [[0, 1, 2, 3]], 0.3, 0.6, 2),
        (3, [[0, 1, 2], [0, 1, 2]], 0.2, 0.5, 1),
    ]
    for n, edges, b1, b2, gamma in cases:
        seeds = [min(min(e) for e in edges)]
        probs = oracles.exact_sigma_distribution(n, edges, seeds, b1, b2, gamma)
        v, ts = views(n, edges)
        params = hs.EpidemicParams(beta1=b1, beta2=b2, gamma=gamma, rng_seed=17)
        stats = hs.run_sir(v, ts, seeds, params, runs=20000)
        bad = oracles.multinomial_violations(stats.sigma_samples, probs)
        assert not bad, f"{edges}: {bad}"


def test_conservation_and_age_bounds():
    rng = np.random.default_rng(8)
    h = hs.generate(hs.GenSpec("erdos_renyi", 60, 40, membership_p=0.05,
                               rng_seed=2))
    v = hs.build_adjacency(h)
    ts = hs.enumerate_two_simplices(h)
    params = hs.EpidemicParams(beta1=0.3, beta2=0.5, gamma=3)
    state = hs.initial_state(60, [0, 1, 2])
    prev_r = 0
    prev_s = 57
    for _ in range(40):
        state = hs.step(state, v, ts, params, rng)
        counts = np.bincount(state.status, minlength=3)
        assert counts.sum() == 60
        assert counts[2] >= prev_r
        assert counts[0] <= prev_s
        assert (state.age[state.status == 1] < 3).all()
        prev_r, prev_s = counts[2], counts[0]


def test_gamma_one_means_one_step_infectious():
    rng = np.random.default_rng(1)
    v, ts = views(5, [(0, 1, 2, 3, 4)])
    params = hs.EpidemicParams(beta1=0.5, gamma=1)
    state = hs.initial_state(5, [0])
    infected_total_steps = np.zeros(5, dtype=int)
    for _ in range(20):
        infected_total_steps += state.status == 1
        state = hs.step(state, v, ts, params, rng)
    assert infected_total_steps.max() <= 1


def test_mean_outbreak_monotone_in_infectivity():
    h = hs.generate(hs.GenSpec("scale_free", 300, 300, exponent=2.0,
                               size_range=(2, 8), rng_seed=6))
    v = hs.build_adjacency(h)
    ts = hs.enumerate_two_simplices(h)
    means = []
    for b1 in (0.02, 0.08, 0.3):
        stats = hs.run_sir(v, ts, [int(v.node_degree.argmax())],
                           hs.EpidemicParams(beta1=b1, rng_seed=9), runs=150)
        means.append(stats.sigma_mean)
    assert means[0] <= means[1] <= means[2]
    means2 = []
    for b2 in (0.0, 0.9):
        stats = hs.run_sir(v, ts, [int(v.node_degree.argmax())],
                           hs.EpidemicParams(beta1=0.05, beta2=b2, rng_seed=9),
                           runs=150)
        means2.append(stats.sigma_mean)
    assert means2[0] <= means2[1] + 1e-9


def test_triangle_channel_shifts_curve_nonnegatively():
    """Raising the triangle pressure from 0 cannot shrink outbreaks."""
    h = hs.generate(hs.GenSpec("scale_free", 400, 400, exponent=2.0,
                               size_range=(2, 10), rng_seed=13))
    g, _ = hs.giant_component(h)
    v = hs.build_adjacency(g)
    ts = hs.enumerate_two_simplices(g)
    k1, k2 = hs.simplex_densities(g)
    seeds = [int(v.node_degree.argmax())]
    base = []
    for lam2 in (0.0, 0.8):
        b1, b2 = hs.rescale_params(0.8, lam2, k1, k2, gamma=1)
        stats = hs.run_sir(v, ts, seeds,
                           hs.EpidemicParams(beta1=b1, beta2=b2, rng_seed=21),
                           runs=600)
        base.append(stats.fraction_of_gcc)
    assert base[1] >= base[0] - 0.01


def test_runs_truncated_at_t_max_are_flagged():
    v, ts = views(2, [(0, 1)])
    params = hs.EpidemicParams(beta1=0.0, gamma=10, t_max=3)
    stats = hs.run_sir(v, ts, [0], params, runs=5)
    assert stats.non_absorbed == 5
    assert (~stats.absorbed).all()
    assert (stats.sigma_samples == 0).all()


def test_ensemble_stream_reproducible():
    v, ts = views(6, [(0, 1, 2), (2, 3, 4), (4, 5, 0)])
    params = hs.EpidemicParams(beta1=0.4, beta2=0.3, rng_seed=33)
    a = hs.run_sir(v, ts, [0], params, runs=30)
    b = hs.run_sir(v, ts, [0], params, runs=30)
    assert np.array_equal(a.sigma_samples, b.sigma_samples)
    assert np.array_equal(a.absorbed, b.absorbed)


def test_single_run_equals_stepping_with_same_seed():
    v, ts = views(6, [(0, 1, 2), (2, 3, 4), (4, 5, 0), (1, 3)])
    for s in range(20):
        params = hs.EpidemicParams(beta1=0.3, beta2=0.6, gamma=2, rng_seed=s)
        sigma = hs.run_sir(v, ts, [0], params, runs=1).sigma_samples[0]
        rng = np.random.default_rng(s)
        state = hs.initial_state(6, [0])
        while state.num_infected:
            state = hs.step(state, v, ts, params, rng)
        assert sigma == state.num_recovered


@pytest.mark.parametrize("dtype", [np.int8, np.uint8, np.int64])
def test_step_resets_the_age_of_a_caller_built_state(dtype):
    # a caller may hand step nonzero ages on susceptible and recovered nodes: a newly
    # infected node restarts at age 0, the others keep or advance theirs, as the
    # reference; the status keeps the caller's dtype
    v, ts = views(5, [(0, 1, 2), (2, 3), (3, 4)])
    params = hs.EpidemicParams(beta1=1.0, beta2=1.0, gamma=3)
    state = hs.EpidemicState(status=np.array([1, 0, 0, 2, 0], dtype=dtype),
                             age=np.array([2, 5, 7, 9, 4]), t=6)
    status, age = state.status[None].copy(), state.age[None].copy()
    got = hs.step(state, v, ts, params, np.random.default_rng(0))
    oracles.reference_advance(status, age, v, ts, params.beta1, params.beta2, params.gamma,
                              np.random.default_rng(0))
    assert got.status.dtype == dtype
    assert got.status.tolist() == status[0].tolist() == [2, 1, 1, 2, 0]
    assert got.age.tolist() == age[0].tolist() == [2, 0, 0, 9, 4]
    assert got.t == 7


def test_rescale_params_formula_and_errors():
    assert hs.rescale_params(1.0, 0.0, 2.0, 0.0) == (0.5, 0.0)
    b1, b2 = hs.rescale_params(1.1, 0.0, 239.07, 0.0, gamma=1)
    assert b1 == pytest.approx(0.0046, abs=5e-5)
    assert b2 == 0.0
    b1, b2 = hs.rescale_params(1.0, 2.5, 4.0, 5.0, gamma=2)
    assert b1 == pytest.approx(0.125)
    assert b2 == pytest.approx(0.25)
    with pytest.raises(ValueError):
        hs.rescale_params(0.5, 1.0, 3.0, 0.0)
    with pytest.warns(UserWarning):
        b1, _ = hs.rescale_params(10.0, 0.0, 0.5, 0.0)
    assert b1 == 1.0
    for lam1, lam2 in ((-0.5, 0.0), (0.0, -1.0), (float("nan"), 0.0), (0.0, float("nan"))):
        with pytest.raises(ValueError, match="must be nonnegative"):
            hs.rescale_params(lam1, lam2, 2.0, 2.0)


NAN = float("nan")


@pytest.mark.parametrize("args, kw, match", [
    ((1.0, 0.0, 2.0, 0.0), {"gamma": 0}, "gamma must be an integer >= 1"),
    ((1.0, 0.0, 2.0, 0.0), {"gamma": -1}, "gamma must be an integer >= 1"),
    ((1.0, 0.0, 2.0, 0.0), {"gamma": 1.5}, "gamma must be an integer >= 1"),
    ((1.0, 0.0, 2.0, 0.0), {"gamma": True}, "gamma must be an integer >= 1"),
    ((1.0, 0.0, NAN, 1.0), {}, "k1 must not be NaN"),
    ((0.0, 0.0, NAN, 1.0), {}, "k1 must not be NaN"),
    ((1.0, 0.0, -2.0, 1.0), {}, "k1 must be positive"),
    ((0.0, 1.0, 1.0, NAN), {}, "k2 must not be NaN"),
    ((0.0, 1.0, 1.0, -1.0), {}, "no triangles"),
    ((float("inf"), 0.0, 2.0, 1.0), {}, "lambda1 and lambda2 must be nonnegative"),
    ((True, 0.0, 2.0, 1.0), {}, "lambda1 and lambda2 must be nonnegative"),
    ((1.0, 0.0, float("inf"), 1.0), {}, "k1 must not be NaN"),
], ids=["gamma_0", "gamma_negative", "gamma_float", "gamma_bool", "nan_k1", "nan_k1_unused",
        "negative_k1", "nan_k2", "negative_k2", "inf_lambda1", "bool_lambda1", "inf_k1"])
def test_rescale_params_refuses(args, kw, match):
    with pytest.raises(ValueError, match=match):
        hs.rescale_params(*args, **kw)


def test_classify_bistable_edges():
    stats = hs.OutbreakStats(runs=4, sigma_samples=np.array([1, 1, 2, 1]),
                             absorbed=np.ones(4, dtype=bool), gcc_size=100)
    assert hs.classify_bistable(stats) == (1.0, 0.0)
    stats2 = hs.OutbreakStats(runs=4, sigma_samples=np.array([90, 95, 80, 99]),
                              absorbed=np.ones(4, dtype=bool), gcc_size=100)
    assert hs.classify_bistable(stats2) == (0.0, 1.0)
    mixed = hs.OutbreakStats(runs=4, sigma_samples=np.array([1, 95, 80, 2]),
                             absorbed=np.ones(4, dtype=bool), gcc_size=100)
    assert hs.classify_bistable(mixed) == (0.5, 0.5)


def test_outbreak_stats_serialization(tmp_path):
    v, ts = views(3, [(0, 1, 2)])
    stats = hs.run_sir(v, ts, [0], hs.EpidemicParams(beta1=0.5, rng_seed=2),
                       runs=12)
    csv_path = tmp_path / "runs.csv"
    stats.write_csv(csv_path)
    assert b"\r" not in csv_path.read_bytes()  # one line ending throughout
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "# schema=run_detail.v1"
    assert lines[1] == "run,sigma,absorbed"
    assert len(lines) == 2 + 12
    json_path = tmp_path / "summary.json"
    write_json(json_path, stats.summary())
    summary = json.loads(json_path.read_text())
    assert summary["runs"] == 12
    assert summary["non_absorbed"] == 0
    assert summary["sigma_mean"] == pytest.approx(stats.sigma_mean)


def kernel_cases():
    """64 seeded random instances plus the empty and edge-free graphs."""
    rng = np.random.default_rng(808)
    for case in range(64):
        n = int(rng.integers(5, 301))
        edges = [sorted(rng.choice(n, size=int(rng.integers(2, 6)), replace=False).tolist())
                 for _ in range(int(rng.integers(1, 2 * n)))]
        edges += [edges[0]] * int(rng.integers(1, 4))  # multiplicities above 1
        beta1 = (0.0, 1.0, float(rng.random()))[case % 3]
        beta2 = (0.0, 1.0, float(rng.random()))[case // 3 % 3]
        seeds = rng.choice(n, size=int(rng.integers(0, 6)), replace=False).tolist() if case % 7 else []
        params = hs.EpidemicParams(beta1, beta2, gamma=1 + case % 3, rng_seed=case,
                                   t_max=2 if case % 5 == 0 else None)
        yield hs.Hypergraph(n, edges), seeds, params, int(rng.integers(1, 30))
    for h in (hs.Hypergraph(0), hs.Hypergraph(7)):
        yield h, [], hs.EpidemicParams(0.5, 0.5, rng_seed=1), 4
    yield hs.Hypergraph(7), [2, 5], hs.EpidemicParams(0.5, 0.5, gamma=2, rng_seed=1), 4
    yield path_switching_case()


def path_switching_case():
    """300 nodes, one seed, beta2 > 0: the kernel's steps change path mid-run."""
    rng = np.random.default_rng(1)
    edges = [sorted(rng.choice(300, size=int(rng.integers(2, 5)), replace=False).tolist())
             for _ in range(450)]
    seeds = [int(rng.integers(300))]
    return hs.Hypergraph(300, edges), seeds, hs.EpidemicParams(0.3, 0.5, gamma=2, rng_seed=1), 6


def test_path_switching_case_takes_both_paths(monkeypatch):
    # while few nodes are infected in any run the kernel reads only the infected
    # sources, and the first such steps have no pair of two infected nodes
    h, seeds, params, runs = path_switching_case()
    v, ts = hs.build_adjacency(h), hs.enumerate_two_simplices(h)
    shares, pairless, advance = [], 0, hs.sir._advance

    def spy(status, *args):
        nonlocal pairless
        hot = (status == hs.sir.I).any(axis=0)
        shares.append(hot.mean())
        pairless += hot.mean() < hs.sir._SOURCE_SHARE and not (hot[ts.pair_a] & hot[ts.pair_b]).any()
        advance(status, *args)

    monkeypatch.setattr(hs.sir, "_advance", spy)
    hs.run_sir(v, ts, seeds, params, runs=runs)
    assert min(shares) < hs.sir._SOURCE_SHARE <= max(shares)
    assert pairless > 0


def test_kernel_matches_reference_bit_for_bit():
    non_absorbed = 0
    for h, seeds, params, runs in kernel_cases():
        v, ts = hs.build_adjacency(h), hs.enumerate_two_simplices(h)
        got = hs.run_sir(v, ts, seeds, params, runs=runs)
        sigma, absorbed = oracles.reference_run_sir(v, ts, seeds, params, runs)
        assert got.sigma_samples.dtype == sigma.dtype and np.array_equal(got.sigma_samples, sigma)
        assert np.array_equal(got.absorbed, absorbed)
        non_absorbed += got.non_absorbed
        # step runs the same kernel on one row: same states from the same stream
        state = hs.initial_state(h.num_nodes, seeds)
        status, age = state.status[None].copy(), state.age[None].copy()
        rng_a, rng_b = np.random.default_rng(params.rng_seed), np.random.default_rng(params.rng_seed)
        for _ in range(4):
            state = hs.step(state, v, ts, params, rng_a)
            oracles.reference_advance(status, age, v, ts, params.beta1, params.beta2,
                                      params.gamma, rng_b)
            assert np.array_equal(state.status, status[0]) and np.array_equal(state.age, age[0])
    assert non_absorbed > 0  # the t_max = 2 cases stop runs that are still infectious


@pytest.mark.parametrize("block_cells", [7, 64, 1024])
def test_kernel_matches_reference_in_small_row_blocks(monkeypatch, block_cells):
    # small blocks give these graphs multi-block steps and blocks with no live run
    monkeypatch.setattr(hs.sir, "_BLOCK_CELLS", block_cells)
    test_kernel_matches_reference_bit_for_bit()


@pytest.mark.parametrize("share", [0.0, 2.0], ids=["full_products", "infected_sources"])
def test_kernel_matches_reference_on_either_path(monkeypatch, share):
    # 0 keeps every step on the full products; 2 makes every step read only
    # the infected sources, in run_sir and in step
    monkeypatch.setattr(hs.sir, "_SOURCE_SHARE", share)
    test_kernel_matches_reference_bit_for_bit()


@pytest.mark.parametrize("block_rows", [None, 4], ids=["one_block", "blocks_of_4_rows"])
def test_seed_sets_on_one_stream_match_separate_runs(monkeypatch, block_rows):
    # each set of one run_sir_sets call equals its own run_sir call and the
    # reference, bit for bit; 12 runs in 4-row blocks give steps of three
    # blocks whose runs end at different steps
    h, seeds, _, _ = path_switching_case()
    v, ts = hs.build_adjacency(h), hs.enumerate_two_simplices(h)
    if block_rows:
        monkeypatch.setattr(hs.sir, "_BLOCK_CELLS", block_rows * h.num_nodes)
    block_sizes, advance = [], hs.sir._advance

    def spy(status, *args):
        block_sizes.append(len(status))
        advance(status, *args)

    monkeypatch.setattr(hs.sir, "_advance", spy)
    sets, runs, non_absorbed = [seeds, [], [0, 1, 2], [int(v.weighted_degree.argmax())]], 12, 0
    for t_max, beta2 in itertools.product((None, 3), (0.0, 0.5)):
        params = hs.EpidemicParams(0.3, beta2, gamma=3, t_max=t_max, rng_seed=4)
        got = hs.run_sir_sets(v, ts, sets, params, runs=runs)
        assert len(got) == len(sets)
        for set_seeds, stats in zip(sets, got):
            alone = hs.run_sir(v, ts, set_seeds, params, runs=runs)
            sigma, absorbed = oracles.reference_run_sir(v, ts, set_seeds, params, runs)
            for want_sigma, want_absorbed in ((alone.sigma_samples, alone.absorbed),
                                              (sigma, absorbed)):
                assert stats.sigma_samples.dtype == want_sigma.dtype
                assert np.array_equal(stats.sigma_samples, want_sigma)
                assert np.array_equal(stats.absorbed, want_absorbed)
            non_absorbed += stats.non_absorbed
        one = hs.run_sir_sets(v, ts, sets[2:3], params, runs=runs)[0]
        assert np.array_equal(one.sigma_samples, got[2].sigma_samples)
        assert np.array_equal(one.absorbed, got[2].absorbed)
    assert non_absorbed > 0  # t_max = 3 stops runs that are still infectious
    if block_rows:
        assert any(0 < size < block_rows for size in block_sizes)  # a partly ended block
    assert hs.run_sir_sets(v, ts, [], params, runs=runs) == []


@pytest.mark.parametrize("gamma, t_max, cut", [(2, None, False), (2, 3, True),
                                               (300, 1300, False), (300, 302, True)])
def test_tall_ensembles_match_reference(monkeypatch, gamma, t_max, cut):
    # 2,000 runs on 4 nodes with a triangle, in 300-row blocks: a tall state's drops,
    # uniform gathers and row counts, bit for bit; at gamma 300 the ages pass 255
    h = hs.Hypergraph(4, [(0, 1, 2), (2, 3)])
    v, ts = hs.build_adjacency(h), hs.enumerate_two_simplices(h)
    rows, runs = 300, 2000
    monkeypatch.setattr(hs.sir, "_BLOCK_CELLS", rows * h.num_nodes)
    block_sizes, age_types, advance = [], set(), hs.sir._advance

    def spy(status, age, *args):
        block_sizes.append(len(status))
        age_types.add(age.dtype)
        advance(status, age, *args)

    monkeypatch.setattr(hs.sir, "_advance", spy)
    non_absorbed = []
    for beta2 in (0.0, 1.2 / gamma):
        params = hs.EpidemicParams(0.6 / gamma, beta2, gamma=gamma, t_max=t_max, rng_seed=28)
        got = hs.run_sir(v, ts, [0], params, runs=runs)
        sigma, absorbed = oracles.reference_run_sir(v, ts, [0], params, runs)
        assert got.sigma_samples.dtype == sigma.dtype and np.array_equal(got.sigma_samples, sigma)
        assert np.array_equal(got.absorbed, absorbed)
        assert len(np.unique(sigma)) > 1
        non_absorbed.append(got.non_absorbed)
    assert any(0 < size < rows for size in block_sizes)  # a partly ended block
    assert age_types == {np.dtype(np.uint8 if gamma < 256 else np.uint16)}
    if cut:  # t_max leaves some runs infectious and ends others
        assert all(0 < count < runs for count in non_absorbed)
    else:
        assert non_absorbed == [0, 0]


def test_final_sizes_match_bond_percolation_at_scale():
    # beta2 = 0 outbreaks on ~1.8k scale-free nodes against the percolation
    # oracle, by a two-sample chi-square over 10 pooled-quantile bins.
    # Bonferroni over the cases: an exact kernel fails with probability
    # <= 1e-3 in all.
    h, _ = hs.giant_component(hs.generate(hs.GenSpec(
        "scale_free", 2000, 4000, exponent=2.0, size_range=(2, 4), degree_range=(2, 60), rng_seed=3)))
    h = hs.Hypergraph(h.num_nodes, [*h.hyperedges, *h.hyperedges[:200]])
    v, ts = hs.build_adjacency(h), hs.enumerate_two_simplices(h)
    assert v.weighted.data.max() > 2  # multiplicities above 1 enter T_ij
    beta_c = hs.critical_beta1(v)
    seeds = np.random.default_rng(5).choice(v.num_nodes, 3, replace=False).tolist()
    # (gamma, beta1 as a multiple of the gamma-scaled threshold); 1.0 is near it
    cases = [(1, 1.0), (1, 2.0), (3, 1.5), (3, 3.0)]
    samples = 300
    for gamma, factor in cases:
        beta1 = factor * beta_c / gamma
        sir = hs.run_sir(v, ts, seeds, hs.EpidemicParams(beta1, 0.0, gamma, rng_seed=11),
                         runs=samples)
        assert sir.non_absorbed == 0
        perc = oracles.percolation_final_sizes(v, seeds, beta1, gamma, samples,
                                               np.random.default_rng(12))
        pooled = np.concatenate([sir.sigma_samples, perc])
        cuts = np.unique(np.quantile(pooled, np.linspace(0.0, 1.0, 11)[1:-1]))
        a, b = (np.bincount(cuts.searchsorted(x, side="right"), minlength=len(cuts) + 1)
                for x in (sir.sigma_samples, perc))
        used = a + b > 0
        stat = float(((a - b)[used] ** 2 / (a + b)[used]).sum())  # equal sample sizes
        p = chi2.sf(stat, int(used.sum()) - 1)
        assert p > 1e-3 / len(cases), (gamma, factor, stat, p)
