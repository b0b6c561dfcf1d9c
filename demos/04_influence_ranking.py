"""Ranking spreaders: collective influence against plain degree.

The influence score of a node weighs its neighbors' remaining
out-degrees, which is what the epidemic threshold actually responds
to.  On heavy-tailed instances the two rankings agree at the very
top and then diverge.
"""

import numpy as np

import hypersir as hs

spec = hs.GenSpec("scale_free", 1000, 320, exponent=2.0,
                  size_range=(2, 3), degree_range=(1, 6), rng_seed=1)
g, _ = hs.giant_component(hs.generate(spec))
view = hs.build_adjacency(g)

# the ranking does not depend on the rates, so unit rates are fine
scores = hs.collective_influence(view, 1.0, 1.0)
order = hs.ranked_nodes(view, scores)

print("rank  node  score      weighted degree")
for r, node in enumerate(order[:10]):
    print(f"{r:4d}  {node:4d}  {scores[node]:9.1f}  "
          f"{view.weighted_degree[node]:d}")

by_degree = np.argsort(-view.weighted_degree, kind="stable")
top = max(1, g.num_nodes // 20)
shared = len(set(order[:top]) & set(by_degree[:top]))
print(f"\ntop-5% sets share {shared}/{top} nodes with the degree ranking")

# high-influence nodes sit next to each other far above the 5% chance
# rate, which is why adaptive selection has to spread seeds out
p = hs.top_overlap_probability(view, scores, 5.0)
print(f"chance a top node's neighbor is also top-5%: {p:.3f}")

# invariance check: rescaling the rates leaves the order untouched
other = hs.ranked_nodes(view, hs.collective_influence(view, 0.05, 3))
assert np.array_equal(order, other)
print("ranking unchanged under rate rescaling")
