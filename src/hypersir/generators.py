"""Synthetic hypergraph ensembles: scale-free, Erdos-Renyi, d-uniform.

All generators are deterministic given their spec and seed (single PCG64
stream per call).  The scale-free family samples hyperdegree and
hyperedge-size sequences from truncated discrete power laws and matches
node-edge memberships Chung-Lu style, by a skip walk over the nodes in
decreasing weight (Miller & Hagberg, WAW 2011) that reads its uniforms
in blocks and emits one flat member list; the ER family fills the bipartite
node-edge membership matrix with iid coin flips; the d-uniform family
draws distinct uniformly random d-subsets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hypergraph import Hypergraph, _check_count, _is_count, _is_real

__all__ = ["GenSpec", "generate", "gen_sf_chunglu", "gen_er_bipartite", "gen_d_uniform"]

SCALE_FREE = "scale_free"
ERDOS_RENYI = "erdos_renyi"
D_UNIFORM = "d_uniform"


@dataclass
class GenSpec:
    """Parameters for one synthetic hypergraph draw.

    family selects the model and the fields it reads; every count and
    range bound is an integer in any family.  For the scale-free family,
    degree_range / size_range bound the power-law supports; a None upper
    bound means the structural cutoff ceil(sqrt(N*M)), which keeps
    Chung-Lu membership probabilities <= 1.
    """

    family: str
    num_nodes: int
    num_hyperedges: int
    exponent: float = 2.0          # scale-free: p(d) ~ d^-exponent
    membership_p: float = 0.0      # ER: P(node in hyperedge)
    uniform_size: int = 3          # d-uniform hyperedge size
    degree_range: tuple[int, int | None] = (1, None)
    size_range: tuple[int, int | None] = (1, None)
    rng_seed: int = 0

    def __post_init__(self):
        if self.family not in (SCALE_FREE, ERDOS_RENYI, D_UNIFORM):
            raise ValueError(f"unknown family: {self.family!r}")
        for key, low in (("num_nodes", 1), ("num_hyperedges", 1), ("uniform_size", 2),
                         ("rng_seed", 0)):
            _check_count(key, getattr(self, key), low)
        for key in ("degree_range", "size_range"):
            bounds = getattr(self, key)
            if not (len(bounds) == 2 and _is_count(bounds[0], 1)
                    and (bounds[1] is None or _is_count(bounds[1], bounds[0]))):
                raise ValueError(f"{key} must be two integers 1 <= low <= high (high may be "
                                 f"None), got {bounds!r}")
        if self.family == SCALE_FREE and not (_is_real(self.exponent) and self.exponent > 1.0):
            raise ValueError(f"power-law exponent must be > 1 and finite, got {self.exponent!r}")
        if self.family == ERDOS_RENYI and not (_is_real(self.membership_p)
                                               and 0.0 <= self.membership_p <= 1.0):
            raise ValueError("membership_p must lie in [0, 1]")
        if self.family == D_UNIFORM and self.uniform_size > self.num_nodes:
            raise ValueError("uniform_size must lie in [2, num_nodes]")


def generate(spec: GenSpec) -> Hypergraph:
    """Dispatch to the family-specific generator."""
    if spec.family == SCALE_FREE:
        return gen_sf_chunglu(spec)
    if spec.family == ERDOS_RENYI:
        return gen_er_bipartite(spec)
    return gen_d_uniform(spec)


def _power_law_sample(rng: np.random.Generator, exponent: float,
                      low: int, high: int, size: int) -> np.ndarray:
    """Sample iid from p(d) ~ d^-exponent on integers [low, high]."""
    support = np.arange(low, high + 1, dtype=np.float64)
    pmf = support ** (-exponent)
    pmf /= pmf.sum()
    return rng.choice(np.arange(low, high + 1), size=size, p=pmf)


def gen_sf_chunglu(spec: GenSpec) -> Hypergraph:
    """Scale-free hypergraph via bipartite Chung-Lu stub matching.

    Hyperdegree targets w_i and hyperedge-size targets s_a are drawn from
    truncated power laws; node i then joins hyperedge a with probability
    min(1, w_i * s_a / sum(w)).  Memberships are sampled per hyperedge
    with the sorted-weight skipping trick, so the cost is proportional to
    realized memberships rather than N*M; the walk reads blocks of
    uniforms, the same doubles as one draw per step.  Hyperedges left with
    fewer than 2 members are dropped (they carry no interaction).
    """
    n, m = spec.num_nodes, spec.num_hyperedges
    rng = np.random.default_rng(spec.rng_seed)
    cutoff = max(1, math.ceil(math.sqrt(n * m)))  # the structural cutoff
    d_lo, d_hi = spec.degree_range
    s_lo, s_hi = spec.size_range
    d_hi = cutoff if d_hi is None else d_hi
    s_hi = cutoff if s_hi is None else s_hi
    if d_lo > d_hi or s_lo > s_hi:
        raise ValueError(f"degenerate power-law support: a low bound above the cutoff {cutoff}")

    degree_target = _power_law_sample(rng, spec.exponent, d_lo, d_hi, n).astype(np.float64)
    size_target = _power_law_sample(rng, spec.exponent, s_lo, s_hi, m).astype(np.float64)
    total_weight = float(degree_target.sum())
    if size_target.sum() > n * m:
        raise ValueError(
            f"infeasible spec: total target size {size_target.sum():.0f} "
            f"exceeds {n} x {m} membership slots"
        )

    # Nodes sorted by decreasing weight; membership probabilities along the
    # sorted order are non-increasing, enabling geometric skips.  The walk
    # runs on Python floats and ints (the same doubles) and reads its
    # uniforms in blocks; it is the stream's last reader, so the unread
    # tail of the last block changes nothing.
    order = np.argsort(-degree_target, kind="stable")
    w_sorted = degree_target[order].tolist()
    order = order.tolist()
    uniform = _uniforms(rng)

    sizes, members = [], []
    for s in size_target.tolist():
        start = len(members)
        i = 0
        p = min(1.0, w_sorted[0] * s / total_weight)
        while i < n and p > 0.0:
            if p < 1.0:
                i += int(math.log(uniform()) / math.log(1.0 - p))
            if i >= n:
                break
            q = min(1.0, w_sorted[i] * s / total_weight)
            if uniform() < q / p:
                members.append(order[i])
            p = q
            i += 1
        if len(members) - start >= 2:
            sizes.append(len(members) - start)
        else:
            del members[start:]
    return Hypergraph.from_arrays(n, sizes, members)


def _uniforms(rng: np.random.Generator, block: int = 4096):
    """The next uniform of ``rng`` per call, drawn ``block`` at a time;
    the same doubles, in the same order, as one ``rng.random()`` per call."""
    def draws():
        while True:
            yield from rng.random(block).tolist()
    return draws().__next__


def gen_er_bipartite(spec: GenSpec) -> Hypergraph:
    """ER hypergraph: each (node, hyperedge) membership is iid Bernoulli(p).

    Sampled per hyperedge as Binomial(N, p) member count plus a uniform
    distinct-node draw, which is distribution-identical to the Bernoulli
    field.  Empty hyperedges are dropped.
    """
    n, m = spec.num_nodes, spec.num_hyperedges
    rng = np.random.default_rng(spec.rng_seed)
    p = spec.membership_p
    counts = rng.binomial(n, p, size=m)
    return Hypergraph(n, [rng.choice(n, size=int(c), replace=False) for c in counts if c])


def gen_d_uniform(spec: GenSpec) -> Hypergraph:
    """M distinct uniformly random d-subsets of the node set."""
    n, m, d = spec.num_nodes, spec.num_hyperedges, spec.uniform_size
    if m > math.comb(n, d):
        raise ValueError(f"cannot draw {m} distinct size-{d} subsets of {n} nodes")
    rng = np.random.default_rng(spec.rng_seed)
    seen: set[tuple[int, ...]] = set()
    edges = []
    while len(edges) < m:
        cand = tuple(sorted(int(v) for v in rng.choice(n, size=d, replace=False)))
        if cand in seen:
            continue
        seen.add(cand)
        edges.append(cand)
    return Hypergraph(n, edges)
