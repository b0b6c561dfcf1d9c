"""The SIR kernel's absorbing fraction against the message-passing outbreak
probability on a loopy scale-free giant component."""

import numpy as np
import pytest

import hypersir as hs
from hypersir.sir import ABSORBING_CUT
from oracles import outbreak_probability


@pytest.fixture(scope="module")
def scale_free_gcc():
    """Criterion 05's instance: a scale-free giant component of 910 nodes."""
    spec = hs.GenSpec("scale_free", 1000, 2000, exponent=2.0, size_range=(2, 3),
                      degree_range=(6, 80), rng_seed=0)
    g, _ = hs.giant_component(hs.generate(spec))
    return g, hs.build_adjacency(g), hs.enumerate_two_simplices(g)


@pytest.mark.parametrize("scale, gamma", [(1.0, 1), (0.6, 2), (1.0, 3)])
def test_kernel_absorbing_fraction_matches_outbreak_oracle(scale_free_gcc, scale, gamma):
    # beta1 is scale x the rescaled beta1 of lambda1 = 1 at gamma 1, beta2 is 0.
    # The oracle treats the branches at a node as independent, which this
    # graph's loops break, and counts finite outbreaks where the kernel
    # counts runs under its 5% cut: 0.03 is the model error allowed for
    # both, on top of 3 standard errors of the sampled fraction.  Run r of
    # every seed set reads the same uniforms, so the seeds' outcomes in one
    # run are correlated: the independent samples are the runs, and the
    # standard error is that of the mean over runs of each run's fraction.
    g, view, simplices = scale_free_gcc
    k1, k2 = hs.simplex_densities(g)
    beta1 = scale * hs.rescale_params(1.0, 0.0, k1, k2)[0]
    seeds = np.random.default_rng(8).choice(g.num_nodes, 40, replace=False)
    runs = 50
    ensembles = hs.run_sir_sets(view, simplices, [[int(s)] for s in seeds],
                                hs.EpidemicParams(beta1, 0.0, gamma, rng_seed=3), runs=runs)
    per_run = np.mean([e.sigma_samples < ABSORBING_CUT * e.gcc_size for e in ensembles], axis=0)
    absorbing = per_run.mean()
    se = per_run.std(ddof=1) / np.sqrt(runs)
    want = 1.0 - outbreak_probability(view, beta1, gamma)[seeds].mean()
    assert abs(absorbing - want) <= 0.03 + 3.0 * se, (absorbing, want, se)
