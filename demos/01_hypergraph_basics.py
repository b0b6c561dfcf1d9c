"""
Building a hypergraph and reading its pairwise structure
========================================================

A hypergraph is a node set plus arbitrary-size node subsets.  Every
pair inside a hyperedge becomes a weighted pairwise link, so group
interactions project down to an ordinary sparse adjacency matrix.
"""

import numpy as np

import hypersir as hs

# four working groups over seven people; person 6 sits alone with 5
groups = [[0, 1, 2], [1, 2, 3], [3, 4], [0, 1], [5, 6]]
h = hs.Hypergraph(7, groups)
view = hs.build_adjacency(h)

print("nodes:", view.num_nodes)
print("hyperedges:", h.num_hyperedges)
print("pairwise adjacency (multiplicity counts):")
print(view.weighted.toarray())

# the 1-2 pair appears in two groups, so its entry is 2
assert view.weighted[1, 2] == 2

print("\nnode degree (distinct partners):", view.node_degree)
print("hyperdegree (groups per person): ", view.hyperdegree)
print("weighted degree (partner slots): ", view.weighted_degree)

# triangles are the second contagion channel; only fully contained
# triples count
tris = hs.enumerate_two_simplices(h)
print("\ntriangles:", tris.num_triples)

# the 5-6 pair is its own component, so the giant component drops it
giant, remap = hs.giant_component(h)
print("\ngiant component keeps", giant.num_nodes, "of", h.num_nodes)
print("old->new id map:", remap)

# both means follow from the hyperedge sizes alone
k1, k2 = hs.simplex_densities(giant)
print(f"mean weighted degree k1={k1:.3f}, mean triangle weight k2={k2:.3f}")

# identity behind the projection: incidence product minus hyperdegree
inc = np.zeros((7, len(groups)))
for j, e in enumerate(groups):
    inc[e, j] = 1.0
identity = inc @ inc.T - np.diag(view.hyperdegree)
assert np.array_equal(identity, view.weighted.toarray())
print("\nincidence identity holds")
