"""Monte-Carlo contagion on a heavy-tailed hypergraph.

Runs the two-channel SIR process over a sweep of link infectivities
and prints the mean final outbreak size.  Near the threshold the
final-size histogram splits into two well-separated modes; the ASCII
histogram at the end makes that visible without any plotting backend.
"""

import numpy as np

import hypersir as hs

spec = hs.GenSpec("scale_free", 1000, 2000, exponent=2.0,
                  size_range=(2, 3), degree_range=(6, 80), rng_seed=0)
g, _ = hs.giant_component(hs.generate(spec))
view = hs.build_adjacency(g)
tris = hs.enumerate_two_simplices(g)
k1, k2 = hs.simplex_densities(g)
print(f"giant component: {g.num_nodes} nodes, k1={k1:.2f}, k2={k2:.2f}")

# sweep the rescaled link infectivity at fixed triangle infectivity
print("\nlambda1  mean outbreak fraction")
for lam1 in (0.4, 0.8, 1.0, 1.2, 1.6):
    b1, b2 = hs.rescale_params(lam1, 2.5, k1, k2, gamma=1)
    par = hs.EpidemicParams(beta1=b1, beta2=b2, gamma=1, rng_seed=42)
    stats = hs.run_sir(view, tris, [0], par, runs=60)
    print(f"  {lam1:4.1f}   {stats.fraction_of_gcc:.3f}")

# histogram at the bistable point: runs either die out or take off
b1, b2 = hs.rescale_params(1.0, 2.5, k1, k2, gamma=1)
rng = np.random.default_rng(7)
sizes = []
for r in range(200):
    seed = int(rng.integers(0, g.num_nodes))
    par = hs.EpidemicParams(beta1=b1, beta2=b2, gamma=1, rng_seed=900 + r)
    sizes.append(hs.run_sir(view, tris, [seed], par, runs=1).sigma_samples[0])
frac = np.array(sizes) / g.num_nodes

stats = hs.OutbreakStats(runs=len(frac), sigma_samples=np.array(sizes),
                         absorbed=np.ones(len(frac), dtype=bool),
                         gcc_size=g.num_nodes)
absorbing, endemic = hs.classify_bistable(stats)
print(f"\nat lambda1=1.0: {absorbing:.2f} of runs die out, "
      f"{endemic:.2f} reach a macroscopic outbreak")

counts, edges_ = np.histogram(frac, bins=20, range=(0.0, 0.5))
print("\nfinal size fraction histogram (200 runs)")
for c, lo in zip(counts, edges_[:-1]):
    print(f"  {lo:4.2f} {'#' * int(c)}")
