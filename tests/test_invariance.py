"""Metamorphic relabelling tests on generated scale-free giant components.

Relabel the nodes by a fixed-seed permutation P, shuffle the hyperedge
order, and every structural output must permute exactly:
``Y(P·H) = P·Y(H)`` (Chen et al., "Metamorphic testing: a review of
challenges and opportunities", ACM Comput. Surv. 51(1):4, 2018).  This
reaches sizes that the brute-force oracles do not, and guards the fast
paths that lean on label order: the ``a*N + b`` pair keys of the
triangle expansion, the ``src*N + dst`` link keys, ``reverse`` by
lexsort, and the in-link lookups of the cavity plumbing.

Not covered: a fault that is the same under every labelling (one that
depends on the values, not on the ids, such as swapping the two cavity
exclusion lists, which are summed alike); the order of a pair's rows,
which the triangle set decodes as a set and which moves the cavity sums
only by rounding (that order now comes from scipy's canonical CSC form,
so there is no longer a hand-written stable sort for a mutation to make
non-stable); the id tie-breaks of ``hadp`` / ``hsdp`` and of
``cia_select`` on tied scores; and ``run_sir``, whose uniforms are drawn
per (run, node) column, so a relabel changes the samples and only a
statistical comparison would remain.
"""

import numpy as np
import pytest
from oracles import triples_of

import hypersir as hs
from hypersir.hypergraph import build_link_index, enumerate_two_simplices, giant_component
from hypersir.influence import cia_select, collective_influence
from hypersir.message_passing import critical_beta1, mp_solve
from hypersir.sir import EpidemicParams


class Pair:
    """A GCC, its relabelled and reshuffled copy, and their derived views.

    Node i of ``h`` is node ``perm[i]`` of ``hp``.
    """

    def __init__(self, seed):
        spec = hs.GenSpec("scale_free", 2000, 4000, exponent=2.0, size_range=(2, 4),
                          degree_range=(2, 60), rng_seed=seed)
        self.h = giant_component(hs.generate(spec))[0]
        rng = np.random.default_rng([seed, 2018])
        self.perm = rng.permutation(self.h.num_nodes)
        edges = self.h.hyperedges
        order = rng.permutation(len(edges))
        self.hp = hs.Hypergraph.from_arrays(
            self.h.num_nodes, [len(edges[a]) for a in order],
            self.perm[[v for a in order for v in edges[a]]])
        self.view, self.view_p = hs.build_adjacency(self.h), hs.build_adjacency(self.hp)
        self.simplices = enumerate_two_simplices(self.h)
        self.simplices_p = enumerate_two_simplices(self.hp)


@pytest.fixture(scope="module", params=[0, 1], ids=["seed0", "seed1"])
def pair(request):
    return Pair(request.param)


def test_adjacency_permutes(pair):
    p, view, view_p = pair.perm, pair.view, pair.view_p
    assert pair.hp.num_hyperedges == pair.h.num_hyperedges
    for name in ("weighted", "binary"):
        assert (getattr(view_p, name)[p][:, p] != getattr(view, name)).nnz == 0, name
    for name in ("node_degree", "hyperdegree", "weighted_degree"):
        assert np.array_equal(getattr(view_p, name)[p], getattr(view, name)), name


def test_triangle_set_permutes(pair):
    p = pair.perm
    moved = {tuple(sorted(p[list(t)].tolist())): w for t, w in triples_of(pair.simplices).items()}
    assert len(moved) == pair.simplices.num_triples > 0
    assert moved == triples_of(pair.simplices_p)
    assert np.array_equal(pair.simplices_p.node_triple_weight[p],
                          pair.simplices.node_triple_weight)


def test_link_index_permutes(pair):
    def as_set(links, relabel):
        return set(zip(relabel[links.src].tolist(), relabel[links.dst].tolist(),
                       links.weight.tolist()))

    links, links_p = build_link_index(pair.view), build_link_index(pair.view_p)
    assert links.num_links == links_p.num_links > 0
    assert as_set(links, pair.perm) == as_set(links_p, np.arange(pair.h.num_nodes))


def test_collective_influence_permutes(pair):
    ci = collective_influence(pair.view, 0.3, 2)
    assert np.array_equal(collective_influence(pair.view_p, 0.3, 2)[pair.perm], ci)


def test_threshold_and_marginals_agree(pair):
    bstar = critical_beta1(pair.view)
    assert critical_beta1(pair.view_p) == pytest.approx(bstar, rel=1e-12, abs=0)
    params = EpidemicParams(beta1=1.5 * bstar, beta2=0.3, gamma=2)
    seeds = [0, 1, 2]
    st = mp_solve(pair.view, pair.simplices, params, seeds)
    st_p = mp_solve(pair.view_p, pair.simplices_p, params, pair.perm[seeds].tolist())
    assert st.converged and st_p.converged
    assert st_p.iterations == st.iterations
    for name in ("node_s", "node_i"):
        np.testing.assert_allclose(getattr(st_p, name)[pair.perm], getattr(st, name),
                                   rtol=0, atol=1e-12, err_msg=name)


def test_cia_select_permutes_on_tie_free_scores(pair):
    # unit-rate scores are whole numbers; a fraction below 1/2 splits
    # every tie without reordering distinct scores
    ci = collective_influence(pair.view, 1.0, 1.0)
    scores = ci + np.random.default_rng(7).random(len(ci)) / 2
    assert len(np.unique(scores)) == len(scores)
    scores_p = np.empty_like(scores)
    scores_p[pair.perm] = scores
    k = round(0.03 * pair.h.num_nodes)
    chosen = cia_select(pair.view, scores, k)
    assert len(chosen) == k
    assert cia_select(pair.view_p, scores_p, k) == tuple(pair.perm[list(chosen)].tolist())


def test_relabelled_hyperedge_list_round_trips(pair, tmp_path):
    path = tmp_path / "relabelled.txt"
    hs.save_hyperedge_list(pair.hp, path)
    loaded = hs.load_hyperedge_list(path)
    labels = [int(lab) for lab in loaded.node_labels]
    assert sorted(labels) == list(range(pair.hp.num_nodes))
    assert [tuple(sorted(labels[v] for v in e)) for e in loaded.hyperedges] == \
        list(pair.hp.hyperedges)
