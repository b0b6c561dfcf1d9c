"""
Seeding an outbreak: adaptive influence against six baselines
=============================================================

Every method picks the same budget of seed nodes on the same
instance, then the same paired simulation streams measure the mean
outbreak each set produces.
"""

import numpy as np

import hypersir as hs

spec = hs.GenSpec("scale_free", 1000, 320, exponent=2.0,
                  size_range=(2, 3), degree_range=(1, 6), rng_seed=0)
g, _ = hs.giant_component(hs.generate(spec))
view = hs.build_adjacency(g)
tris = hs.enumerate_two_simplices(g)
k = max(1, int(np.floor(0.03 * g.num_nodes + 0.5)))
print(f"giant component {g.num_nodes} nodes, budget k={k}")

par = hs.EpidemicParams(beta1=0.25, beta2=0.2, gamma=1, rng_seed=777)

def outbreak(seeds):
    return hs.run_sir(view, tris, seeds, par, runs=100).fraction_of_gcc

results = {}

# adaptive selection: walk the influence ranking, skip neighbors of
# already chosen seeds so the budget is not wasted on one hub cluster
scores = hs.collective_influence(view, 1.0, 1.0)
results["cia"] = outbreak(hs.cia_select(view, scores, k))

for method in hs.BASELINE_METHODS:
    results[method] = outbreak(hs.baseline_select(view, k, method, rng_seed=12345))

print("\nmethod       mean outbreak fraction")
for method, frac in sorted(results.items(), key=lambda kv: -kv[1]):
    bar = "#" * int(60 * frac)
    print(f"{method:12s} {frac:.3f} {bar}")

lead = results["cia"] - results["random"]
print(f"\nadaptive selection leads random by {100 * lead:.1f} points")
