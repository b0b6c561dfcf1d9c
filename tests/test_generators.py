"""Generator tests: determinism, distributions, invariants, rejections."""

import numpy as np
import pytest

import hypersir as hs


def hill_discrete(samples, xmin):
    # max-likelihood tail exponent for discrete power-law samples >= xmin
    s = np.asarray(samples, dtype=float)
    tail = s[s >= xmin]
    return 1.0 + len(tail) / np.log(tail / (xmin - 0.5)).sum()


def test_genspec_validation():
    with pytest.raises(ValueError):
        hs.GenSpec("nope", 10, 5)
    with pytest.raises(ValueError):
        hs.GenSpec("scale_free", 10, 5, exponent=1.0)
    with pytest.raises(ValueError):
        hs.GenSpec("erdos_renyi", 10, 5, membership_p=1.5)
    with pytest.raises(ValueError):
        hs.GenSpec("d_uniform", 10, 5, uniform_size=1)
    with pytest.raises(ValueError):
        hs.GenSpec("d_uniform", 10, 5, uniform_size=11)


@pytest.mark.parametrize("family, kw, match", [
    ("erdos_renyi", {"num_hyperedges": 2.5}, "num_hyperedges must be an integer >= 1"),
    ("d_uniform", {"num_hyperedges": 2.5}, "num_hyperedges must be an integer >= 1"),
    ("scale_free", {"num_hyperedges": 0}, "num_hyperedges must be an integer >= 1"),
    ("d_uniform", {"num_hyperedges": True}, "num_hyperedges must be an integer >= 1"),
    ("scale_free", {"num_nodes": 10.0}, "num_nodes must be an integer >= 1"),
    ("scale_free", {"num_nodes": 0}, "num_nodes must be an integer >= 1"),
    ("erdos_renyi", {"num_nodes": 10**23}, "num_nodes must be an integer >= 1"),
    ("scale_free", {"rng_seed": 1.5}, "rng_seed must be an integer >= 0"),
    ("scale_free", {"rng_seed": -1}, "rng_seed must be an integer >= 0"),
    ("d_uniform", {"uniform_size": 3.0}, "uniform_size must be an integer >= 2"),
    ("scale_free", {"degree_range": (2.5, 4)}, "degree_range must be two integers"),
    ("scale_free", {"degree_range": (0, 4)}, "degree_range must be two integers"),
    ("scale_free", {"size_range": (3, 2)}, "size_range must be two integers"),
    ("scale_free", {"size_range": (2, 4.0)}, "size_range must be two integers"),
    ("scale_free", {"size_range": (2, 4, 6)}, "size_range must be two integers"),
    ("scale_free", {"exponent": float("nan")}, "exponent must be > 1"),
    ("erdos_renyi", {"membership_p": float("nan")}, "membership_p must lie in"),
    ("scale_free", {"exponent": float("inf")}, "exponent must be > 1"),
    ("erdos_renyi", {"membership_p": True}, "membership_p must lie in"),
], ids=["er_float_m", "uniform_float_m", "zero_m", "bool_m", "float_n", "zero_n", "huge_n",
        "float_seed", "negative_seed", "float_uniform_size", "float_degree_low",
        "zero_degree_low", "size_range_reversed", "float_size_high", "three_bounds",
        "nan_exponent", "nan_membership_p", "inf_exponent", "bool_membership_p"])
def test_genspec_refuses_malformed_fields(family, kw, match):
    fields = {"num_nodes": 10, "num_hyperedges": 5, **kw}
    with pytest.raises(ValueError, match=match):
        hs.GenSpec(family, **fields)


def test_determinism_all_families():
    specs = [
        hs.GenSpec("scale_free", 300, 300, exponent=2.2, rng_seed=5),
        hs.GenSpec("erdos_renyi", 300, 200, membership_p=0.01, rng_seed=5),
        hs.GenSpec("d_uniform", 300, 150, uniform_size=3, rng_seed=5),
    ]
    for spec in specs:
        a = hs.generate(spec)
        b = hs.generate(spec)
        assert a.num_nodes == b.num_nodes
        assert a.hyperedges == b.hyperedges


def test_generated_outputs_satisfy_structural_invariants():
    rng = np.random.default_rng(0)
    for spec in [
        hs.GenSpec("scale_free", 200, 250, exponent=2.0, rng_seed=3),
        hs.GenSpec("erdos_renyi", 200, 150, membership_p=0.02, rng_seed=3),
        hs.GenSpec("d_uniform", 200, 100, uniform_size=4, rng_seed=3),
    ]:
        h = hs.generate(spec)
        for e in h.hyperedges:
            assert len(set(e)) == len(e)
            assert all(0 <= v < h.num_nodes for v in e)
            assert len(e) >= 2 or spec.family == "erdos_renyi"
        v = hs.build_adjacency(h)
        assert (v.weighted.toarray() == v.weighted.toarray().T).all()


def test_sf_tail_exponent_near_target():
    """Realized hyperdegree tail of alpha=2 draws fits exponent 2 +- 0.3."""
    pooled = []
    for seed in range(5):
        h = hs.gen_sf_chunglu(
            hs.GenSpec("scale_free", 1000, 1000, exponent=2.0, rng_seed=seed))
        v = hs.build_adjacency(h)
        pooled.append(v.hyperdegree[v.hyperdegree > 0])
    est = hill_discrete(np.concatenate(pooled), xmin=4.0)
    assert abs(est - 2.0) <= 0.3


def test_sf_heavier_tail_at_lower_exponent():
    """Median max hyperdegree over 20 seeds drops when alpha rises 2 -> 3."""
    def med_max(alpha):
        tops = []
        for seed in range(20):
            h = hs.gen_sf_chunglu(
                hs.GenSpec("scale_free", 1000, 1000, exponent=alpha, rng_seed=seed))
            tops.append(hs.build_adjacency(h).hyperdegree.max())
        return np.median(tops)
    assert med_max(3.0) < med_max(2.0)


def test_sf_infeasible_spec_rejected():
    # forced size targets exceed the available membership slots
    spec = hs.GenSpec("scale_free", 3, 10, exponent=2.0,
                      size_range=(4, 4), rng_seed=0)
    with pytest.raises(ValueError):
        hs.gen_sf_chunglu(spec)


def test_sf_explicit_cutoffs_steer_realized_sizes():
    # cutoffs bound the sampled target sequences; realized sizes fluctuate
    # around the targets, so check the shift in means plus the >= 2 floor
    def mean_size(lo, hi):
        h = hs.gen_sf_chunglu(hs.GenSpec("scale_free", 500, 500, exponent=2.0,
                                         size_range=(lo, hi), rng_seed=1))
        sizes = np.array([len(e) for e in h.hyperedges])
        assert sizes.min() >= 2
        return sizes.mean()

    assert mean_size(2, 3) < mean_size(6, 8)
    # target mean for p(s) ~ s^-2 on [6, 8] is 6.81
    assert abs(mean_size(6, 8) - 6.81) < 1.0


def test_er_mean_hyperdegree():
    """Mp = 3.5 target; sample mean within 3 sigma."""
    h = hs.gen_er_bipartite(
        hs.GenSpec("erdos_renyi", 1000, 1000, membership_p=0.0035, rng_seed=1))
    v = hs.build_adjacency(h)
    sigma3 = 3.0 * np.sqrt(1000 * 0.0035 / 1000)
    assert abs(v.hyperdegree.mean() - 3.5) <= sigma3


def test_er_mean_edge_size():
    """Np = 8 target; kept-edge mean size within 3 sigma."""
    h = hs.gen_er_bipartite(
        hs.GenSpec("erdos_renyi", 4000, 2000, membership_p=8 / 4000, rng_seed=2))
    sigma3 = 3.0 * np.sqrt(8.0 / 2000)
    assert abs(np.diff(h.edge_ptr).mean() - 8.0) <= sigma3


def test_er_p_zero_and_one():
    empty = hs.gen_er_bipartite(
        hs.GenSpec("erdos_renyi", 50, 20, membership_p=0.0, rng_seed=0))
    assert empty.num_hyperedges == 0
    full = hs.gen_er_bipartite(
        hs.GenSpec("erdos_renyi", 20, 5, membership_p=1.0, rng_seed=0))
    assert all(e == tuple(range(20)) for e in full.hyperedges)
    v = hs.build_adjacency(full)
    assert (v.node_degree == 19).all()


def test_d_uniform_sizes_and_distinctness():
    h = hs.gen_d_uniform(
        hs.GenSpec("d_uniform", 100, 200, uniform_size=3, rng_seed=4))
    assert h.num_hyperedges == 200
    assert all(len(e) == 3 for e in h.hyperedges)
    assert len(set(h.hyperedges)) == 200


def test_d_uniform_full_edge():
    h = hs.gen_d_uniform(
        hs.GenSpec("d_uniform", 10, 1, uniform_size=10, rng_seed=0))
    assert h.hyperedges == (tuple(range(10)),)


def test_d_uniform_too_many_edges_rejected():
    with pytest.raises(ValueError):
        hs.gen_d_uniform(hs.GenSpec("d_uniform", 5, 11, uniform_size=4, rng_seed=0))


def test_d_uniform_mean_degree_near_target():
    """M = N with d = 3 puts mean degree near 6 (within 5% over 10 seeds)."""
    means = []
    for seed in range(10):
        h = hs.gen_d_uniform(
            hs.GenSpec("d_uniform", 10000, 10000, uniform_size=3, rng_seed=seed))
        means.append(hs.build_adjacency(h).node_degree.mean())
    assert abs(np.mean(means) - 6.0) / 6.0 <= 0.05
