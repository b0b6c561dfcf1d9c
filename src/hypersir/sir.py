"""Discrete-time SIR contagion with pairwise and triangle channels.

Synchronous Monte-Carlo process on a hypergraph's derived structures: a
susceptible node i escapes infection in one step with probability

    (1 - beta1)^(sum of A_ij over infected j)
      * (1 - beta2)^(sum of B_ikl over triangles with k, l both infected)

and otherwise becomes infectious.  Infectious nodes recover exactly
``gamma`` steps after infection.  One kernel advances the (runs, N)
state of a whole ensemble per step, in row blocks that bound its memory:
a gather of the triangles' member pairs and two sparse products, which
read only the infected sources while they are few, escape-table lookups
and the block's uniforms.  Ended runs leave the state; ``step`` runs it on one row.
``run_sir_sets`` runs the ensembles of several seed sets on one stream:
each block of uniforms is drawn once and read by every set's live rows,
so the sets see common random numbers and each equals its own ``run_sir``.
"""

from __future__ import annotations

import numbers
import warnings
from dataclasses import dataclass
from itertools import count

import numpy as np
import scipy.sparse as sp

from .hypergraph import AdjacencyView, TwoSimplexSet, _check_count, _fits

__all__ = [
    "EpidemicParams",
    "EpidemicState",
    "initial_state",
    "OutbreakStats",
    "step",
    "run_sir",
    "run_sir_sets",
    "rescale_params",
    "classify_bistable",
]

S, I, R = 0, 1, 2

# a run whose final size is under this fraction of the component is absorbing
ABSORBING_CUT = 0.05

# run_sir_sets advances the live runs in row blocks of about this many (run, node) cells
_BLOCK_CELLS = 2**19

# a step reads only the infected sources while under this share of nodes is infected
_SOURCE_SHARE = 0.25


@dataclass
class EpidemicParams:
    """Channel infectivities, recovery period, step cap, and rng seed.

    gamma is the deterministic infectious period in steps; the rescaled
    recovery rate used elsewhere is mu = 1/gamma.  t_max of None means
    10 * num_nodes, applied when a run starts.
    """

    beta1: float
    beta2: float = 0.0
    gamma: int = 1
    t_max: int | None = None
    rng_seed: int = 0

    def __post_init__(self):
        for key, beta in (("beta1", self.beta1), ("beta2", self.beta2)):
            if not (_fits(beta, float) and 0.0 <= beta <= 1.0):
                raise ValueError(f"{key} must lie in [0, 1]")
        _check_count("gamma", self.gamma, 1)
        if not (self.t_max is None or _fits(self.t_max, int) and self.t_max >= 0):
            raise ValueError(f"t_max must be None or an integer >= 0, got {self.t_max!r}")
        _check_count("rng_seed", self.rng_seed, 0)


@dataclass
class EpidemicState:
    """Per-node status (0=S, 1=I, 2=R), infection age for I nodes, clock."""

    status: np.ndarray
    age: np.ndarray
    t: int = 0

    @property
    def num_infected(self) -> int:
        return int(np.count_nonzero(self.status == I))

    @property
    def num_recovered(self) -> int:
        return int(np.count_nonzero(self.status == R))


def initial_state(num_nodes: int, seeds) -> EpidemicState:
    """All-susceptible state with the seed nodes infectious at age 0."""
    status = np.zeros(num_nodes, dtype=np.int8)
    age = np.zeros(num_nodes, dtype=np.int64)
    seeds = list(seeds)
    for seed in seeds:  # checked before the int64 conversion, which may overflow
        if not (_fits(seed, int) and 0 <= seed < num_nodes):
            integral = isinstance(seed, numbers.Integral) and not isinstance(seed, bool)
            raise ValueError("seed id out of range" if integral
                             else f"seed id {seed!r} is not an integer")
    status[np.asarray(seeds, dtype=np.int64)] = I
    return EpidemicState(status=status, age=age, t=0)


@dataclass
class OutbreakStats:
    """Final-size samples over independent runs, plus absorption flags: a run is
    absorbed when no node is infectious at its end, and ``non_absorbed`` counts the
    runs still infectious at t_max.  Not :func:`classify_bistable`'s absorbing
    fraction, the runs whose final size is under ABSORBING_CUT of the component."""

    runs: int
    sigma_samples: np.ndarray
    absorbed: np.ndarray
    gcc_size: int

    @property
    def sigma_mean(self) -> float:
        return float(self.sigma_samples.mean()) if self.runs else 0.0

    @property
    def sigma_std(self) -> float:
        return float(self.sigma_samples.std()) if self.runs else 0.0

    @property
    def fraction_of_gcc(self) -> float:
        return self.sigma_mean / self.gcc_size if self.gcc_size else 0.0

    @property
    def non_absorbed(self) -> int:
        return int(self.runs - np.count_nonzero(self.absorbed))


# ---------------------------------------------------------------------------
# kernel

def _channels(view: AdjacencyView, simplices: TwoSimplexSet, beta1: float, beta2: float):
    """(operator, escape table) of each channel; the triangle one is None if off.

    The operator is the N x S CSC matrix whose column s lists the nodes
    that source s (a node, or a triangle's member pair) presses on.
    Pressures are integer sums of integer multiplicities, exact in any
    order, so (1 - beta)^pressure is a table lookup; entry 0 is exactly 1.
    """
    def channel(data, indices, indptr, width, bounds, beta):
        top = int(bounds.max(initial=0))
        data = data.astype(np.promote_types(np.int32, np.min_scalar_type(top)))
        return (sp.csc_matrix((data, indices, indptr), shape=(view.num_nodes, width)),
                (1.0 - beta) ** np.arange(top + 1.0))
    w = view.weighted  # symmetric, so its CSR arrays are its CSC arrays too
    pairwise = channel(w.data, w.indices, w.indptr, w.shape[1], view.weighted_degree, beta1)
    if not (beta2 > 0.0 and simplices.num_triples):
        return pairwise, None
    return pairwise, channel(simplices.pair_weight, simplices.pair_center, simplices.pair_ptr,
                             len(simplices.pair_a), simplices.node_triple_weight, beta2)


def _advance(phase, u, channels, simplices, gamma):
    """One synchronous update, in place, of (R, N) phases, given uniforms u.

    A cell's phase is 0 (S), 1 + its age (I, 1 to gamma) or gamma + 1 (R).
    Infections are decided from the pre-step state: one gather of the
    distinct member pairs with both members infected, one sparse product
    per channel for the pressures, and escape-table lookups.  While under
    _SOURCE_SHARE of the nodes are infected in any run, the gather and the
    products read only those nodes and the pairs of two of them.
    """
    infected = (phase > S) & (phase <= gamma)
    by_node = np.ascontiguousarray(infected.T)  # (N, R), the layout sparse products take
    # any() along short rows costs per row, so reduce the layout with the longer rows
    hot = infected.any(axis=0) if len(infected) <= len(by_node) else by_node.any(axis=1)
    few = np.count_nonzero(hot) < _SOURCE_SHARE * len(hot)
    (adjacency, escape1), triangle = channels
    escape = escape1.take(adjacency[:, hot] @ by_node[hot] if few else adjacency @ by_node)
    if triangle is not None:
        by_pair, escape2 = triangle
        a, b = simplices.pair_a, simplices.pair_b
        pairs = np.flatnonzero(hot.take(a) & hot.take(b)) if few else slice(None)
        both = by_node.take(a[pairs], axis=0) & by_node.take(b[pairs], axis=0)
        escape *= escape2.take(by_pair[:, pairs] @ both if few else by_pair @ both)
    p_inf = 1.0 - escape
    infected |= (phase == S) & (u < p_inf.T)
    phase += infected


# ---------------------------------------------------------------------------
# public API

def step(state: EpidemicState, view: AdjacencyView,
         simplices: TwoSimplexSet, params: EpidemicParams,
         rng: np.random.Generator) -> EpidemicState:
    """Advance one synchronous step; returns a new state at t + 1 whose status keeps
    its dtype and whose ages are int64.  Infectious nodes of age gamma - 1 or more recover."""
    status, age, gamma = np.asarray(state.status), np.asarray(state.age), int(params.gamma)
    for key, field in (("status", status), ("age", age)):
        if field.shape != (view.num_nodes,):
            raise ValueError(f"{key} must have shape ({view.num_nodes},), got {field.shape}")
    if not np.isin(status, (S, I, R)).all():
        raise ValueError("status must hold only 0 (S), 1 (I) and 2 (R)")
    if not (np.issubdtype(age.dtype, np.integer) and (age.astype(np.int64) >= 0).all()):
        raise ValueError("age must hold integers in [0, 2**63)")  # 2**63 and up cast below 0
    age = age.astype(np.int64)  # a copy, which this step writes
    phase, infectious = np.zeros(view.num_nodes, np.min_scalar_type(gamma + 1)), status == I
    phase[status == R] = gamma + 1
    phase[infectious] = np.minimum(age[infectious], gamma - 1) + 1
    _advance(phase[None], rng.random((1, view.num_nodes)),
             _channels(view, simplices, params.beta1, params.beta2), simplices, gamma)
    infectious = (phase > S) & (phase <= gamma)
    age[infectious] = phase[infectious] - 1
    return EpidemicState(np.where(phase > gamma, R, infectious).astype(status.dtype), age, state.t + 1)


def run_sir(view: AdjacencyView, simplices: TwoSimplexSet, seeds,
            params: EpidemicParams, runs: int = 100) -> OutbreakStats:
    """Independent Monte-Carlo runs from a fixed seed set.

    The one-set case of :func:`run_sir_sets`: the same inputs, seed and
    number of runs give the same samples.
    """
    return run_sir_sets(view, simplices, [seeds], params, runs)[0]


@dataclass
class _Ensemble:
    """One seed set's ensemble: the ids and (live, N) phases of its live
    runs, and the final size and absorption flag of each run that ended."""

    phase: np.ndarray
    live: np.ndarray
    sigma: np.ndarray
    absorbed: np.ndarray

    def drop_ended(self, gamma: int) -> None:
        going = _by_row(np.any, (self.phase > S) & (self.phase <= gamma))
        if not going.all():
            ended = self.live.compress(~going)
            # an ended run has no infectious node: its nonzero phases are its recovered ones
            self.sigma[ended] = _by_row(np.count_nonzero, self.phase.compress(~going, axis=0))
            self.absorbed[ended] = True
            self.phase, self.live = (a.compress(going, axis=0) for a in (self.phase, self.live))

    def stats(self, gcc_size: int, gamma: int) -> OutbreakStats:
        """The samples, once the runs still live (infectious at t_max) are counted."""
        self.sigma[self.live] = _by_row(np.count_nonzero, self.phase > gamma)
        return OutbreakStats(runs=len(self.sigma), sigma_samples=self.sigma,
                             absorbed=self.absorbed, gcc_size=gcc_size)


def _by_row(reduce, cells: np.ndarray) -> np.ndarray:
    """``reduce`` (np.any or np.count_nonzero) of each row of a 2-D array.
    Reducing along short rows costs per row, so a tall array is reduced
    down its transpose."""
    if len(cells) > cells.shape[1]:
        return reduce(np.ascontiguousarray(cells.T), axis=0)
    return reduce(cells, axis=1)


def run_sir_sets(view: AdjacencyView, simplices: TwoSimplexSet, seed_sets,
                 params: EpidemicParams, runs: int = 100) -> list[OutbreakStats]:
    """Independent Monte-Carlo runs from each of several seed sets, one stream.

    Each set's runs advance together as the rows of one (runs, N) state.
    Per step one (runs, N) array of uniforms is drawn from a single
    generator seeded with params.rng_seed, in row blocks of about
    _BLOCK_CELLS cells; each block is drawn once and every set's live rows
    read it, set by set, so each step's temporaries stay within one
    block's bound.  Set i's stats therefore equal ``run_sir`` on set i:
    the same inputs, seed and number of runs give the same samples.  Ended
    runs leave their set's state, and the draws go on while any set has a
    live run; runs still infectious at t_max are flagged non-absorbed.
    The state held is one byte per (run, node) cell per set while gamma is
    under 255, its phase (see ``_advance``), which starts as its initial status.
    """
    _check_count("runs", runs, 1)
    n, gamma = view.num_nodes, int(params.gamma)
    t_max = params.t_max if params.t_max is not None else 10 * n

    rng = np.random.default_rng(params.rng_seed)
    channels = _channels(view, simplices, params.beta1, params.beta2)
    phase_type = np.min_scalar_type(gamma + 1)
    ensembles = [_Ensemble(np.tile(initial_state(n, seeds).status.astype(phase_type), (runs, 1)),
                           np.arange(runs), np.zeros(runs, dtype=np.intp),
                           np.zeros(runs, dtype=bool)) for seeds in seed_sets]
    rows = max(1, min(runs, _BLOCK_CELLS // max(n, 1)))
    u = np.empty((rows, n))
    for t in count():
        for ens in ensembles:
            ens.drop_ended(gamma)
        if t >= t_max or not any(ens.live.size for ens in ensembles):
            break
        for r0 in range(0, runs, rows):  # consecutive row blocks give the same doubles
            block = rng.random(out=u[:min(rows, runs - r0)])
            for ens in ensembles:
                live = ens.live
                lo, hi = live.searchsorted([r0, r0 + rows])
                if lo < hi:  # a block whose runs are all live is used as drawn
                    mine = (block if hi - lo == len(block)
                            else block.take(live[lo:hi] - r0, axis=0))
                    _advance(ens.phase[lo:hi], mine, channels, simplices, gamma)
    return [ens.stats(n, gamma) for ens in ensembles]


def rescale_params(lambda1: float, lambda2: float, k1: float, k2: float,
                   gamma: int = 1) -> tuple[float, float]:
    """Convert rescaled infectivities to per-contact probabilities.

    beta1 = lambda1 * mu / k1 and beta2 = lambda2 * mu / k2 with
    mu = 1/gamma, where k1 is the mean weighted degree and k2 the mean
    per-node triangle weight.  gamma is an integer >= 1, as in
    :class:`EpidemicParams`; a non-finite lambda or k, or a k <= 0 under a
    positive lambda, is refused.  Values above 1 are clamped with a warning.
    """
    _check_count("gamma", gamma, 1)
    if not all(_fits(lam, float) and lam >= 0.0 for lam in (lambda1, lambda2)):
        raise ValueError(f"lambda1 and lambda2 must be nonnegative and finite, "
                         f"got {lambda1}, {lambda2}")
    mu, betas = 1.0 / gamma, []
    for c, lam, k, fault in ((1, lambda1, k1, "k1 must be positive when lambda1 > 0"),
                             (2, lambda2, k2, "no triangles to carry lambda2 > 0")):
        if not _fits(k, float):
            raise ValueError(f"k{c} must not be NaN or infinite, got {k!r}")
        if lam > 0.0 and not k > 0.0:
            raise ValueError(fault)
        beta = lam * mu / k if lam > 0.0 else 0.0
        if beta > 1.0:
            warnings.warn(f"beta{c} = {beta:.4g} clamped to 1")
        betas.append(min(beta, 1.0))
    return betas[0], betas[1]


def classify_bistable(stats: OutbreakStats) -> tuple[float, float]:
    """Fraction of runs ending below vs at-or-above the outbreak threshold.

    A run is absorbing when its final size is under ABSORBING_CUT of the
    component size; the two returned fractions sum to 1.
    """
    if stats.runs < 1:
        raise ValueError("need at least one run")
    cut = ABSORBING_CUT * stats.gcc_size
    absorbing = int(np.count_nonzero(stats.sigma_samples < cut))
    return absorbing / stats.runs, (stats.runs - absorbing) / stats.runs
