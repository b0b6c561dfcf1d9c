"""The SIR kernel and the cavity solver against the closed form on forests."""

import numpy as np
import pytest

import hypersir as hs
from oracles import forest_infection_probability


def recursive_tree(n, doubled):
    """A seeded random recursive tree on n nodes (node v joins a uniform
    earlier node), with ``doubled`` of its edges repeated."""
    rng = np.random.default_rng(19)
    edges = [[int(rng.integers(v)), v] for v in range(1, n)]
    edges += [edges[e] for e in rng.choice(n - 1, doubled, replace=False).tolist()]
    g = hs.Hypergraph(n, edges)
    return hs.build_adjacency(g), hs.enumerate_two_simplices(g)


@pytest.mark.parametrize("beta1, gamma", [(0.6, 1), (0.3, 2), (0.2, 3)])
def test_kernel_final_size_matches_forest_closed_form(beta1, gamma):
    # 200 of 999 edges at multiplicity 2: the closed form holds at any
    # gamma and multiplicity, so only sampling error separates the two
    view, simplices = recursive_tree(1000, doubled=200)
    assert view.weighted.max() == 2
    want = forest_infection_probability(view, 0, beta1, gamma).sum()
    runs = 2000
    sir = hs.run_sir(view, simplices, [0], hs.EpidemicParams(beta1, 0.0, gamma, rng_seed=5),
                     runs=runs)
    assert sir.non_absorbed == 0
    z = (sir.sigma_mean - want) / (sir.sigma_samples.std() / np.sqrt(runs))
    assert abs(z) < 4.0, (sir.sigma_mean, want, z)


@pytest.mark.parametrize("beta1", [0.6, 0.3])
def test_mp_solve_exact_on_forest(beta1):
    # the solver's exact regime: unit multiplicities, gamma 1, one seed
    view, simplices = recursive_tree(1000, doubled=0)
    st = hs.mp_solve(view, simplices, hs.EpidemicParams(beta1, 0.0, 1), [0])
    assert st.converged
    want = forest_infection_probability(view, 0, beta1, 1)
    np.testing.assert_allclose(st.node_r, want, rtol=0, atol=1e-12)
