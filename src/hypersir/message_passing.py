"""Cavity (message-passing) dynamics and spectral threshold analysis.

Messages live on directed links of the binary adjacency: the value for
link (i -> j) is the state distribution of node i computed with node j
virtually removed, which suppresses backtracking infection.  Escape
products are taken in the log domain: one sum per node, the cavity as
that sum minus the link's own factors, and exact-zero factors counted
as integers beside it, so neither underflow nor certain transmission
can divide 0 by 0.  The factors of a neighbour's per-step infection
marginal are multiplied as if independent across steps and contacts,
so the final marginals are exact only where a node can be infected at
one step by one contact: pairwise forests with unit multiplicities,
gamma = 1 and at most one seed per tree.  Elsewhere they approximate: a
doubled edge (1, 2) on the path 0-1-2 at beta1 0.45 gives node 2 0.364
against an exact 0.314, and gamma = 2 on 5-9-node trees errs by up to
0.07 per node.  Linearizing the infected block of the update around the
all-susceptible point yields the weighted non-backtracking operator
beta1 * gamma * A_NB (Karrer & Newman, PRE 82:016101, 2010), which
defines the threshold, so those limits do not reach it: its spectral
radius decides whether a vanishing infection seed grows or dies, and
influence scoring reuses it.  It is applied matrix-free; its CSR form
exists only for ``--dump-operator``, the benchmark tracer's
``operator_bytes`` count, and tests.
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from .hypergraph import (AdjacencyView, LinkIndex, TwoSimplexSet, _check_count, _check_rates,
                         _fits, build_link_index)
from .sir import I, EpidemicParams, initial_state

__all__ = [
    "MessageState",
    "WnbOperator",
    "SpectralResult",
    "initial_messages",
    "mp_step",
    "mp_solve",
    "build_wnb",
    "leading_eigen",
    "critical_beta1",
]


_TriangleRows = namedtuple("_TriangleRows", "tlink_a tlink_b excl_a excl_b center_power")


class _CavityPlumb:
    """Index arrays tying triangles to the link index.

    ``link_power`` is the link weights as floats, the pairwise channel's
    exponents.  ``rows`` is the triangle channel's table, per expanded
    triple row (center i, others m and l): ``tlink_a`` and ``tlink_b``
    give the ids of links (m -> i) and (l -> i) whose infection messages
    feed the triangle factor, ``excl_a`` and ``excl_b`` the ids of their
    reverses (i -> m) and (i -> l), the two links whose cavity products
    leave that row out, and ``center_power`` the row weights as floats.
    The table is looked up on first read, which only a step with
    beta2 > 0 makes, so a pairwise solve never builds it.
    """

    def __init__(self, links: LinkIndex, simplices: TwoSimplexSet):
        # each pair of a triangle is a column of the set, so a set whose
        # pairs are all links has rows that are all links
        _link_ids(links, simplices.pair_a, simplices.pair_b)
        self._links, self._simplices = links, simplices
        self.centers = simplices.pair_center
        self.link_power = links.weight.astype(np.float64)

    @functools.cached_property
    def rows(self) -> _TriangleRows:
        links, ts = self._links, self._simplices
        per_pair = np.diff(ts.pair_ptr)
        # the links (other -> center) of every row, in the pair-major order of the set
        tlink_a, tlink_b = (_link_ids(links, np.repeat(other, per_pair), self.centers)
                            for other in (ts.pair_a, ts.pair_b))
        return _TriangleRows(tlink_a, tlink_b, links.reverse.take(tlink_a),
                             links.reverse.take(tlink_b), ts.pair_weight.astype(np.float64))


def _link_ids(links: LinkIndex, src, dst) -> np.ndarray:
    try:
        return links.link_ids(src, dst)
    except KeyError:
        raise ValueError("two-simplex set references pairs absent from the link index") from None


@dataclass
class MessageState:
    """Per-link cavity state plus node marginals, advanced in lockstep.

    ``s_msg/i_msg[e]`` for link e = (i -> j) hold the susceptible and
    infected probabilities of i with j removed; the recovered share
    ``r_msg`` is the rest.  Node marginals integrate the full (non-cavity)
    escape product alongside the messages, so the final recovered
    marginal ``node_r`` is available without a separate history pass.
    :func:`initial_messages` builds ``plumb``; :func:`mp_solve` fills
    in the solver metadata, whose ``iterations`` counts the steps taken.
    """

    links: LinkIndex
    s_msg: np.ndarray
    i_msg: np.ndarray
    node_s: np.ndarray
    node_i: np.ndarray
    plumb: _CavityPlumb = field(repr=False, compare=False)
    converged: bool | None = None
    iterations: int | None = None
    residual: float | None = None
    trace: list[float] | None = field(default=None, repr=False)

    @property
    def r_msg(self) -> np.ndarray:
        return 1.0 - self.s_msg - self.i_msg

    @property
    def node_r(self) -> np.ndarray:
        return 1.0 - self.node_s - self.node_i

    def validate(self, tol: float = 1e-9) -> None:
        for name in ("s_msg", "i_msg", "r_msg", "node_s", "node_i", "node_r"):
            arr = getattr(self, name)
            if not np.isfinite(arr).all():
                raise ValueError(f"{name} has non-finite entries")
            if arr.size and (arr.min() < -tol or arr.max() > 1.0 + tol):
                raise ValueError(f"{name} leaves [0, 1]")


def initial_messages(view: AdjacencyView, simplices: TwoSimplexSet, seeds) -> MessageState:
    """Seeded start state: out-messages and marginals of seeds are infected.

    Seeds are checked by :func:`sir.initial_state`, as in the SIR process.
    """
    links = build_link_index(view)
    node_i = (initial_state(links.num_nodes, seeds).status == I).astype(np.float64)
    i_msg = node_i[links.src]
    return MessageState(
        links=links,
        s_msg=1.0 - i_msg,
        i_msg=i_msg,
        node_s=1.0 - node_i,
        node_i=node_i,
        plumb=_CavityPlumb(links, simplices),
    )


def _log_factors(x: np.ndarray, power: np.ndarray):
    """``power * log(1 - x)``, in place over x, and the mask of exact-zero
    factors (x >= 1).

    Zero factors enter the log sums as log 1 (``log1p(-1) * 0`` is NaN)
    and are counted by the caller instead; the mask is None when there
    are none.
    """
    zero = x >= 1.0
    if zero.any():
        x[zero] = 0.0
    else:
        zero = None
    np.negative(x, out=x)
    np.log1p(x, out=x)
    x *= power
    return x, zero


def _escape_products(msgs: MessageState, params: EpidemicParams):
    """Cavity and full per-step no-infection probabilities.

    Returns (esc_cav, esc_full): esc_cav[e] is the probability that the
    source of link e escapes infection this step with the link's target
    removed; esc_full[i] is the same without any removal.  Factors are
    summed as logs: the full sum per node by one ``bincount`` per
    channel, the cavity as that sum minus the link's own factors (its
    reverse link's pairwise factor and the triangle rows holding its
    target).  Factors equal to 0 (certain transmission) are counted as
    integers the same way and force an exact 0 after the ``exp``.
    """
    links, plumb = msgs.links, msgs.plumb
    n, num_links = links.num_nodes, links.num_links

    logf, zf = _log_factors(params.beta1 * msgs.i_msg, plumb.link_power)
    # bincount of no links is int64; the cast copies nothing otherwise
    full = np.bincount(links.dst, logf, minlength=n).astype(np.float64, copy=False)
    own = logf.take(links.reverse)
    # (per-node, per-link own) counts of exact-zero factors, one pair per channel
    zero_counts = [] if zf is None else [(np.bincount(links.dst[zf], minlength=n),
                                          zf.take(links.reverse))]
    if params.beta2 > 0.0 and len(plumb.centers):
        tlink_a, tlink_b, excl_a, excl_b, center_power = plumb.rows
        x = msgs.i_msg.take(tlink_a)
        x *= params.beta2
        x *= msgs.i_msg.take(tlink_b)
        logg, zg = _log_factors(x, center_power)
        full += np.bincount(plumb.centers, logg, minlength=n)
        own += np.bincount(excl_a, logg, minlength=num_links)
        own += np.bincount(excl_b, logg, minlength=num_links)
        if zg is not None:
            zero_counts.append((np.bincount(plumb.centers[zg], minlength=n),
                                np.bincount(excl_a[zg], minlength=num_links)
                                + np.bincount(excl_b[zg], minlength=num_links)))
    esc_cav = full.take(links.src)
    esc_cav -= own
    np.exp(esc_cav, out=esc_cav)
    esc_full = np.exp(full)
    for node_zeros, own_zeros in zero_counts:
        esc_cav[node_zeros[links.src] > own_zeros] = 0.0
        esc_full[node_zeros > 0] = 0.0
    return esc_cav, esc_full


def mp_step(msgs: MessageState, params: EpidemicParams) -> MessageState:
    """One synchronous cavity update.

    Susceptible mass is multiplied by the cavity escape product, the
    freshly infected share joins the infected pool, and a 1/gamma share
    of the infected pool retires each step.
    """
    esc_cav, esc_full = _escape_products(msgs, params)
    keep = 1.0 - 1.0 / params.gamma
    return replace(
        msgs,
        s_msg=msgs.s_msg * esc_cav,
        i_msg=msgs.s_msg * (1.0 - esc_cav) + msgs.i_msg * keep,
        node_s=msgs.node_s * esc_full,
        node_i=msgs.node_s * (1.0 - esc_full) + msgs.node_i * keep,
    )


def _check_stopping(tol: float, max_iters: int) -> None:
    if not (_fits(tol, float) and tol > 0):
        raise ValueError(f"tol must be positive and finite, got {tol!r}")
    _check_count("max_iters", max_iters, 1)


def mp_solve(
    view: AdjacencyView,
    simplices: TwoSimplexSet,
    params: EpidemicParams,
    seeds,
    tol: float = 1e-10,
    max_iters: int = 10_000,
) -> MessageState:
    """Iterate :func:`mp_step` from the seeded start to a fixed point.

    Stops when the largest per-entry change falls below ``tol``, after
    ``max_iters`` steps, or at a NaN change, which counts as not
    converged since a NaN state never recovers; the returned state
    carries the convergence flag, iteration count, per-step change
    trace, and the stationarity residual at the final point (largest
    violation of the steady-state balance for the S and I messages).
    """
    _check_stopping(tol, max_iters)
    state = initial_messages(view, simplices, seeds)
    trace: list[float] = []
    delta = 0.0
    iterations = 0
    for iterations in range(1, max_iters + 1):
        nxt = mp_step(state, params)
        # np.max keeps a NaN change (Python's max drops it)
        delta = float(np.max([np.abs(a - b).max(initial=0.0) for a, b in (
            (state.s_msg, nxt.s_msg), (state.i_msg, nxt.i_msg),
            (state.node_s, nxt.node_s), (state.node_i, nxt.node_i),
        )]))
        trace.append(delta)
        state = nxt
        if delta < tol or math.isnan(delta):
            break
    esc_cav, _ = _escape_products(state, params)
    gain = state.s_msg * (1.0 - esc_cav)
    r_s = float(np.max(np.abs(gain), initial=0.0))
    r_i = float(np.max(np.abs(state.i_msg - params.gamma * gain), initial=0.0))
    state.converged = delta < tol
    state.iterations = iterations
    state.residual = max(r_s, r_i)
    state.trace = trace
    return state


@dataclass
class WnbOperator:
    """Linearization of the infected-message update at zero infection.

    Entry (row = link i -> j, col = link k -> i, k != j) equals
    ``beta1 * gamma * A_ki``; triangle terms are quadratic in the
    infection messages and vanish at this point, so no triangle
    parameter appears.  :meth:`matvec` applies it matrix-free.  The
    rate-free CSR ``skeleton`` (entries A_ki) is built per read, only for
    :meth:`dump_coo`, the benchmark tracer's ``operator_bytes`` and tests.
    ``scaled_weight`` holds ``beta1 * gamma * weight`` per link.
    """

    beta1: float
    gamma: float
    links: LinkIndex = field(repr=False)
    scaled_weight: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.scaled_weight = (self.beta1 * self.gamma) * self.links.weight

    @property
    def num_links(self) -> int:
        return self.links.num_links

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """(Bx)[i -> j] = sum_{k -> i} w A_ki x[k -> i] - w A_ji x[j -> i]."""
        links = self.links
        wx = self.scaled_weight * x
        # bincount of no links is int64; the cast copies nothing otherwise
        out = np.bincount(links.dst, weights=wx, minlength=links.num_nodes)
        out = out.astype(np.float64, copy=False).take(links.src)
        out -= wx.take(links.reverse)
        return out

    @property
    def skeleton(self) -> sp.csr_matrix:
        """Rate-free CSR (entries A_ki): row (i -> j) is row i of ``into``,
        the weighted links into i, minus the backtracking link (j -> i)."""
        links = self.links
        num_links = links.num_links
        # row i lists the links (k -> i) into i, reverse over i's out-link
        # range; a pair's weight is the same both ways, so weight gives A_ki
        weight = links.weight.astype(np.float64)
        into = sp.csr_matrix((weight, links.reverse, links.out_ptr),
                             shape=(links.num_nodes, num_links))
        back = sp.csr_matrix((weight, links.reverse, np.arange(num_links + 1)),
                             shape=(num_links, num_links))
        return into[links.src] - back  # drops the cancelled entries

    def dump_coo(self, path) -> None:
        """Write the scaled operator as 'row col value' text lines."""
        coo = ((self.beta1 * self.gamma) * self.skeleton).tocoo()
        with open(path, "w") as fh:
            fh.write(f"# shape {coo.shape[0]} {coo.shape[1]} nnz {coo.nnz}\n")
            for r, c, v in zip(coo.row, coo.col, coo.data):
                fh.write(f"{r} {c} {v:.17g}\n")


def build_wnb(view: AdjacencyView, beta1: float, gamma: float) -> WnbOperator:
    """The non-backtracking operator over the directed links of ``view``."""
    _check_rates(beta1, gamma)
    return WnbOperator(beta1=beta1, gamma=gamma, links=build_link_index(view))


@dataclass
class SpectralResult:
    """Leading-eigenpair estimate of a link operator."""

    lambda_c: float
    eigvec: np.ndarray
    iterations: int
    residual: float  # L1 residual |B v - lambda_c v| at the returned eigvec
    converged: bool

    def to_dict(self) -> dict:
        return {
            "lambda_c": self.lambda_c,
            "iterations": self.iterations,
            "residual": self.residual,
            "converged": self.converged,
            "num_links": int(len(self.eigvec)),
        }


def _residual(op: WnbOperator, v: np.ndarray, lam: float) -> float:
    """L1 residual |B v - lam v| of an eigenpair estimate."""
    return float(np.abs(op.matvec(v) - lam * v).sum())


def leading_eigen(
    op: WnbOperator,
    tol: float = 1e-10,
    max_iters: int = 100_000,
) -> SpectralResult:
    """Power iteration for the spectral radius of the link operator.

    Each step applies ``B + shift * I`` to the L1-normalised positive
    iterate ``v``, so the rotating spectra of cycle-like graphs still mix
    toward the leading eigenvector; the eigenvalue estimate is
    ``lam = sum(B v)``, which removes the shift.  The first shift is half
    the largest row sum; after every step it becomes ``lam / 2``.  In the
    limit every other eigenvalue ``mu`` then decays at the ratio
    ``|mu + rho/2| / (1.5 rho)``, which is below 1 for every ``mu != rho``
    and 1/3 for ``mu = -rho`` (bipartite graphs), without the slack that
    a fixed row-sum shift takes on from heavy-tailed degrees.  A solve
    takes about ``1 / gap`` matvecs, gap = 1 - the largest such ratio:
    34 on the benchmark's 4.5k-node scale-free GCCs, but a lattice's gap
    closes like ``1 / side**2`` (709 steps on a 30 x 30 grid, 2,554 on
    60 x 60), so there the cost grows about quadratically in N.  The
    operator is nilpotent exactly when the node graph is a forest
    (links / 2 == nodes - components), and zero when beta1 * gamma is 0;
    both cases short-circuit to an exact zero radius with an exact
    kernel vector.
    """
    _check_stopping(tol, max_iters)
    links = op.links
    num_links = links.num_links
    n_comp, _ = connected_components(
        sp.csr_matrix((np.ones(num_links), links.dst, links.out_ptr),
                      shape=(links.num_nodes, links.num_nodes)),
        directed=False,
    )
    if num_links // 2 == links.num_nodes - n_comp:
        # Links pointing into a degree-1 node are never read by any row,
        # so their indicator spans an exact kernel direction.
        deg = np.diff(links.out_ptr)  # in-degree equals out-degree
        v = (deg[links.dst] == 1).astype(np.float64)
        v /= v.sum()
        return SpectralResult(0.0, v, 0, _residual(op, v, 0.0), True)

    v = np.full(num_links, 1.0 / num_links)
    # Entries are nonnegative, so a zero row-sum maximum means a zero
    # operator (beta1 = 0): every vector is an exact kernel vector.
    shift = 0.5 * float(np.max(op.matvec(np.ones(num_links))))
    if shift == 0.0:
        return SpectralResult(0.0, v, 0, 0.0, True)
    lam_prev = math.inf
    lam = 0.0
    for it in range(1, max_iters + 1):
        w = op.matvec(v)
        w += shift * v
        nrm = float(w.sum())
        w /= nrm
        v = w
        lam = nrm - shift
        if abs(lam - lam_prev) < tol * max(1.0, abs(lam)):
            resid = _residual(op, v, lam)
            if resid <= tol * max(1.0, abs(lam)):
                return SpectralResult(lam, v, it, resid, True)
        lam_prev = lam
        shift = 0.5 * lam
    return SpectralResult(lam, v, max_iters, _residual(op, v, lam), False)


def critical_beta1(view: AdjacencyView, gamma: float = 1) -> float:
    """Pairwise infectivity where the zero-infection point loses stability.

    The operator scales linearly in beta1 * gamma, so the threshold is
    the reciprocal of gamma times the skeleton's spectral radius.
    Graphs without a non-backtracking cycle have radius 0 and no finite
    threshold; the result is then infinite.
    """
    _check_rates(1.0, gamma)  # the operator below is built at unit beta1
    rho = leading_eigen(build_wnb(view, beta1=1.0, gamma=1.0)).lambda_c
    if rho <= 0.0:
        return math.inf
    return 1.0 / (gamma * rho)
