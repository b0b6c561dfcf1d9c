"""Cavity (message-passing) dynamics and spectral threshold analysis.

Messages live on directed links of the binary adjacency: the value for
link (i -> j) is the state distribution of node i computed with node j
virtually removed, which suppresses backtracking infection and makes
the scheme exact on pairwise trees.  Escape products are taken in the
log domain: one sum per node, the cavity as that sum minus the link's
own factors, and exact-zero factors counted as integers beside it, so
neither underflow nor certain transmission can divide 0 by 0.
Linearizing the infected block of the update around the
all-susceptible point yields a weighted non-backtracking operator; its
spectral radius decides whether a vanishing infection seed grows or
dies, and downstream influence scoring reuses the same operator.  It
is applied matrix-free; a CSR form is built only for small-instance
oracles and ``--dump-operator``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from .hypergraph import (
    AdjacencyView,
    Hypergraph,
    LinkIndex,
    TwoSimplexSet,
    build_link_index,
    enumerate_two_simplices,
)
from .sir import EpidemicParams

__all__ = [
    "MessageState",
    "WnbOperator",
    "SpectralResult",
    "initial_messages",
    "mp_step",
    "mp_solve",
    "node_marginals",
    "build_wnb",
    "leading_eigen",
    "critical_beta1",
]


@dataclass
class _CavityPlumb:
    """Precomputed index arrays tying triangles to the link index.

    Per expanded triple row (center i, others m and l), ``tlink_a`` and
    ``tlink_b`` give the ids of links (m -> i) and (l -> i) whose
    infection messages feed the triangle factor, and ``excl_a`` and
    ``excl_b`` the ids of their reverses (i -> m) and (i -> l), the two
    links whose cavity products leave that row out.
    """

    tlink_a: np.ndarray
    tlink_b: np.ndarray
    excl_a: np.ndarray
    excl_b: np.ndarray
    centers: np.ndarray
    center_weight: np.ndarray


def _build_plumb(links: LinkIndex, simplices: TwoSimplexSet | None) -> _CavityPlumb:
    if simplices is None:
        simplices = enumerate_two_simplices(Hypergraph(links.num_nodes))
    try:
        tlink_a = links.link_ids(simplices.other_a, simplices.centers)
        tlink_b = links.link_ids(simplices.other_b, simplices.centers)
    except KeyError:
        raise ValueError("two-simplex set references pairs absent from the link index") from None
    return _CavityPlumb(
        tlink_a=tlink_a,
        tlink_b=tlink_b,
        excl_a=links.reverse[tlink_a],
        excl_b=links.reverse[tlink_b],
        centers=simplices.centers,
        center_weight=simplices.center_weight,
    )


@dataclass
class MessageState:
    """Per-link cavity state plus node marginals, advanced in lockstep.

    ``s_msg/i_msg/r_msg[e]`` for link e = (i -> j) hold the state
    distribution of i with j removed.  Node marginals integrate the full
    (non-cavity) escape product alongside the messages, so the final
    recovered marginal is available without a separate history pass.
    Solver metadata is filled in by :func:`mp_solve`.
    """

    links: LinkIndex
    s_msg: np.ndarray
    i_msg: np.ndarray
    r_msg: np.ndarray
    node_s: np.ndarray
    node_i: np.ndarray
    node_r: np.ndarray
    step: int = 0
    converged: bool | None = None
    iterations: int | None = None
    residual: float | None = None
    trace: list[float] | None = field(default=None, repr=False)
    _plumb: _CavityPlumb | None = field(default=None, repr=False, compare=False)

    @property
    def num_links(self) -> int:
        return len(self.s_msg)

    @property
    def num_nodes(self) -> int:
        return len(self.node_s)

    def validate(self, tol: float = 1e-9) -> None:
        for name, lo in (("s_msg", self.s_msg), ("i_msg", self.i_msg),
                         ("r_msg", self.r_msg), ("node_s", self.node_s),
                         ("node_i", self.node_i), ("node_r", self.node_r)):
            if not np.isfinite(lo).all():
                raise ValueError(f"{name} has non-finite entries")
            if lo.size and (lo.min() < -tol or lo.max() > 1.0 + tol):
                raise ValueError(f"{name} leaves [0, 1]")
        link_sum = self.s_msg + self.i_msg + self.r_msg
        node_sum = self.node_s + self.node_i + self.node_r
        if link_sum.size and np.abs(link_sum - 1.0).max() > tol:
            raise ValueError("link state sums deviate from 1")
        if node_sum.size and np.abs(node_sum - 1.0).max() > tol:
            raise ValueError("node state sums deviate from 1")

    def solver_summary(self) -> dict:
        return {
            "converged": self.converged,
            "iterations": self.iterations,
            "residual": self.residual,
            "steps": self.step,
            "trace": list(self.trace) if self.trace is not None else None,
        }


def initial_messages(
    view: AdjacencyView,
    simplices: TwoSimplexSet | None,
    seeds,
    links: LinkIndex | None = None,
) -> MessageState:
    """Seeded start state: out-messages and marginals of seeds are infected."""
    if links is None:
        links = build_link_index(view)
    n = links.num_nodes
    num_links = links.num_links
    i_msg = np.zeros(num_links)
    node_i = np.zeros(n)
    for s in seeds:
        s = int(s)
        if not 0 <= s < n:
            raise ValueError(f"seed {s} out of range")
        i_msg[links.out_links(s)] = 1.0
        node_i[s] = 1.0
    state = MessageState(
        links=links,
        s_msg=1.0 - i_msg,
        i_msg=i_msg,
        r_msg=np.zeros(num_links),
        node_s=1.0 - node_i,
        node_i=node_i,
        node_r=np.zeros(n),
        _plumb=_build_plumb(links, simplices),
    )
    return state


def _log_factors(x: np.ndarray, power: np.ndarray):
    """``power * log(1 - x)`` and the mask of exact-zero factors (x >= 1).

    Zero factors enter the log sums as log 1 (``log1p(-1) * 0`` is NaN)
    and are counted by the caller instead; the mask is None when there
    are none.
    """
    zero = x >= 1.0
    if not zero.any():
        return power * np.log1p(-x), None
    return power * np.log1p(-np.where(zero, 0.0, x)), zero


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
    links = msgs.links
    plumb = msgs._plumb
    if plumb is None:
        raise ValueError("message state lacks cavity plumbing; build it via initial_messages")
    n, num_links = links.num_nodes, links.num_links

    logf, zf = _log_factors(params.beta1 * msgs.i_msg, links.weight)
    full = np.bincount(links.dst, logf, minlength=n)
    own = logf[links.reverse]
    # (per-node, per-link own) counts of exact-zero factors, one pair per channel
    zero_counts = [] if zf is None else [(np.bincount(links.dst[zf], minlength=n),
                                          zf[links.reverse])]
    if params.beta2 > 0.0 and len(plumb.centers):
        x = params.beta2 * msgs.i_msg[plumb.tlink_a] * msgs.i_msg[plumb.tlink_b]
        logg, zg = _log_factors(x, plumb.center_weight)
        full += np.bincount(plumb.centers, logg, minlength=n)
        own += np.bincount(plumb.excl_a, logg, minlength=num_links)
        own += np.bincount(plumb.excl_b, logg, minlength=num_links)
        if zg is not None:
            zero_counts.append((np.bincount(plumb.centers[zg], minlength=n),
                                np.bincount(plumb.excl_a[zg], minlength=num_links)
                                + np.bincount(plumb.excl_b[zg], minlength=num_links)))
    esc_cav = np.exp(full[links.src] - own)
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
    new_s = msgs.s_msg * esc_cav
    new_i = msgs.s_msg * (1.0 - esc_cav) + msgs.i_msg * keep
    new_r = msgs.r_msg + msgs.i_msg / params.gamma
    node_s = msgs.node_s * esc_full
    node_i = msgs.node_s * (1.0 - esc_full) + msgs.node_i * keep
    node_r = msgs.node_r + msgs.node_i / params.gamma
    return replace(
        msgs,
        s_msg=new_s,
        i_msg=new_i,
        r_msg=new_r,
        node_s=node_s,
        node_i=node_i,
        node_r=node_r,
        step=msgs.step + 1,
    )


def mp_solve(
    view: AdjacencyView,
    simplices: TwoSimplexSet | None,
    params: EpidemicParams,
    seeds,
    tol: float = 1e-10,
    max_iters: int = 10_000,
    links: LinkIndex | None = None,
) -> MessageState:
    """Iterate :func:`mp_step` from the seeded start to a fixed point.

    Stops when the largest per-entry change falls below ``tol``, after
    ``max_iters`` steps, or at a NaN change, which counts as not
    converged since a NaN state never recovers; the returned state
    carries the convergence flag, iteration count, per-step change
    trace, and the stationarity residual at the final point (largest
    violation of the steady-state balance for the S and I messages).
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if max_iters < 1:
        raise ValueError("max_iters must be at least 1")
    state = initial_messages(view, simplices, seeds, links=links)
    trace: list[float] = []
    delta = 0.0
    iterations = 0
    for iterations in range(1, max_iters + 1):
        nxt = mp_step(state, params)
        # np.max keeps a NaN change (Python's max drops it)
        delta = float(np.max([np.abs(a - b).max(initial=0.0) for a, b in (
            (state.s_msg, nxt.s_msg), (state.i_msg, nxt.i_msg),
            (state.r_msg, nxt.r_msg), (state.node_s, nxt.node_s),
            (state.node_i, nxt.node_i), (state.node_r, nxt.node_r),
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


def node_marginals(msgs: MessageState) -> np.ndarray:
    """Stacked (N, 3) array of per-node (S, I, R) probabilities."""
    return np.stack([msgs.node_s, msgs.node_i, msgs.node_r], axis=1)


@dataclass
class WnbOperator:
    """Linearization of the infected-message update at zero infection.

    Entry (row = link i -> j, col = link k -> i, k != j) equals
    ``beta1 * gamma * A_ki``; triangle terms are quadratic in the
    infection messages and vanish at this point, so no triangle
    parameter appears.  :meth:`matvec` applies it matrix-free; the CSR
    forms ``skeleton`` (entries A_ki) and ``matrix`` are built per read.
    """

    beta1: float
    gamma: float
    links: LinkIndex = field(repr=False)

    @property
    def num_links(self) -> int:
        return self.links.num_links

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """(Bx)[i -> j] = sum_{k -> i} w A_ki x[k -> i] - w A_ji x[j -> i]."""
        links = self.links
        wx = (self.beta1 * self.gamma) * links.weight * x
        into = np.bincount(links.dst, weights=wx, minlength=links.num_nodes)
        return into[links.src] - wx[links.reverse]

    @property
    def skeleton(self) -> sp.csr_matrix:
        """Rate-free CSR: link -> source incidence times the weighted
        in-links of each node, minus the weighted backtracking step."""
        links = self.links
        num_links, n = links.num_links, links.num_nodes
        ids = np.arange(num_links + 1)
        weight = links.weight.astype(np.float64)
        to_src = sp.csr_matrix((np.ones(num_links), links.src, ids), shape=(num_links, n))
        from_dst = sp.csr_matrix((weight[links.in_ids], links.in_ids, links.in_ptr),
                                 shape=(n, num_links))
        back = sp.csr_matrix((weight[links.reverse], links.reverse, ids),
                             shape=(num_links, num_links))
        skeleton = to_src @ from_dst - back  # drops the cancelled entries
        skeleton.sort_indices()
        return skeleton

    @property
    def matrix(self) -> sp.csr_matrix:
        return (self.beta1 * self.gamma) * self.skeleton

    def dump_coo(self, path) -> None:
        """Write the scaled operator as 'row col value' text lines."""
        coo = self.matrix.tocoo()
        with open(path, "w") as fh:
            fh.write(f"# shape {coo.shape[0]} {coo.shape[1]} nnz {coo.nnz}\n")
            for r, c, v in zip(coo.row, coo.col, coo.data):
                fh.write(f"{r} {c} {v:.17g}\n")


def build_wnb(
    view: AdjacencyView,
    beta1: float,
    gamma: float,
    links: LinkIndex | None = None,
) -> WnbOperator:
    """The non-backtracking operator over the directed links of ``view``."""
    if beta1 < 0:
        raise ValueError("beta1 must be nonnegative")
    if gamma < 1:
        raise ValueError("gamma must be at least 1")
    if links is None:
        links = build_link_index(view)
    return WnbOperator(beta1=beta1, gamma=gamma, links=links)


@dataclass
class SpectralResult:
    """Leading-eigenpair estimate of a link operator."""

    lambda_c: float
    eigvec: np.ndarray
    iterations: int
    residual: float
    converged: bool

    def to_dict(self, include_eigvec: bool = False) -> dict:
        out = {
            "lambda_c": self.lambda_c,
            "iterations": self.iterations,
            "residual": self.residual,
            "converged": self.converged,
            "num_links": int(len(self.eigvec)),
        }
        if include_eigvec:
            out["eigvec"] = [float(x) for x in self.eigvec]
        return out

    def write_json(self, path, include_eigvec: bool = False) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(include_eigvec=include_eigvec), fh, indent=2)
            fh.write("\n")


def leading_eigen(
    op: WnbOperator,
    tol: float = 1e-10,
    max_iters: int = 100_000,
    seed: int | None = None,
) -> SpectralResult:
    """Power iteration for the spectral radius of the link operator.

    The iteration runs on the diagonally shifted operator so that the
    rotating spectra of cycle-like graphs still mix toward the leading
    eigenvector; the reported eigenvalue removes the shift.  The
    operator is nilpotent exactly when the node graph is a forest
    (links / 2 == nodes - components), and zero when beta1 * gamma is 0;
    both cases short-circuit to an exact zero radius with an exact
    kernel vector.
    """
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
        in_deg = np.diff(links.in_ptr)
        v = (in_deg[links.dst] == 1).astype(np.float64)
        v /= v.sum()
        resid = float(np.abs(op.matvec(v)).sum())
        return SpectralResult(0.0, v, 0, resid, True)

    if seed is None:
        v = np.full(num_links, 1.0 / num_links)
    else:
        rng = np.random.default_rng(seed)
        v = rng.uniform(0.5, 1.5, size=num_links)
        v /= v.sum()
    # Entries are nonnegative, so a zero row-sum maximum means a zero
    # operator (beta1 = 0): every vector is an exact kernel vector.
    shift = 0.5 * float(np.max(op.matvec(np.ones(num_links))))
    if shift == 0.0:
        return SpectralResult(0.0, v, 0, 0.0, True)
    lam_prev = math.inf
    lam = 0.0
    resid = math.inf
    for it in range(1, max_iters + 1):
        w = op.matvec(v) + shift * v
        nrm = float(w.sum())
        v = w / nrm
        lam = nrm - shift
        if abs(lam - lam_prev) < tol * max(1.0, abs(lam)):
            r = op.matvec(v)
            resid = float(np.abs(r - lam * v).sum())
            if resid <= tol * max(1.0, abs(lam)):
                return SpectralResult(lam, v, it, resid, True)
        lam_prev = lam
    if not math.isfinite(resid):
        r = op.matvec(v)
        resid = float(np.abs(r - lam * v).sum())
    return SpectralResult(lam, v, max_iters, resid, False)


def critical_beta1(
    view: AdjacencyView,
    gamma: float = 1,
    tol: float = 1e-10,
    links: LinkIndex | None = None,
) -> float:
    """Pairwise infectivity where the zero-infection point loses stability.

    The operator scales linearly in beta1 * gamma, so the threshold is
    the reciprocal of gamma times the skeleton's spectral radius.
    Graphs without a non-backtracking cycle have radius 0 and no finite
    threshold; the result is then infinite.
    """
    op = build_wnb(view, beta1=1.0, gamma=1.0, links=links)
    rho = leading_eigen(op, tol=tol).lambda_c
    if rho <= 0.0:
        return math.inf
    return 1.0 / (gamma * rho)
