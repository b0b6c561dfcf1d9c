"""Hypergraph structure, incidence algebra, and derived sparse views.

A hypergraph is a set of N nodes plus an ordered multiset of hyperedges
(node subsets), stored as one CSR incidence (``edge_ptr``, ``members``)
with the node labels of a loaded dataset as a field.  Everything
downstream -- the contagion kernel, message passing, influence scores --
works off derived structure built here from those arrays: the weighted
adjacency matrix (shared-hyperedge counts), its binary skeleton, the
triangle (2-simplex) tensor, and the directed-link index.

Duplicate hyperedges are allowed and meaningful: they raise the entries
of the weighted adjacency and of the triangle tensor.
"""

from __future__ import annotations

import math
import numbers
import types
from dataclasses import dataclass
from itertools import chain, combinations, compress, pairwise, repeat
from typing import Iterable, Sequence, get_args, get_origin

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

__all__ = [
    "DEFAULT_TRIPLE_EDGE_CAP",
    "Hypergraph",
    "AdjacencyView",
    "build_adjacency",
    "TwoSimplexSet",
    "oversized_hyperedges",
    "enumerate_two_simplices",
    "LinkIndex",
    "build_link_index",
    "giant_component",
    "simplex_densities",
]

DEFAULT_TRIPLE_EDGE_CAP = 25


def _fits(value, tp) -> bool:
    """Whether ``value`` has the type ``tp``, by the package's one number rule:
    an ``int`` is an integer that fits int64, a ``float`` a real that is finite
    as a float, and a bool is neither; ``X | None``, ``list[T]`` and
    ``tuple[A, B]`` (exactly an A and a B) read as written."""
    if tp is int:
        return (isinstance(value, numbers.Integral) and not isinstance(value, bool)
                and -2**63 <= value < 2**63)
    if tp is float:
        try:
            return (isinstance(value, numbers.Real) and not isinstance(value, bool)
                    and math.isfinite(value))
        except OverflowError:  # an int too large for a float
            return False
    origin, args = get_origin(tp), get_args(tp)
    if origin is types.UnionType:
        return any(_fits(value, arg) for arg in args)
    if origin in (list, tuple):
        return (isinstance(value, (list, tuple)) and (origin is list or len(value) == len(args))
                and all(map(_fits, value, args * len(value) if origin is list else args)))
    return isinstance(value, tp)


def _check_count(name: str, value, low: int) -> None:
    """ValueError naming ``name`` unless value is an ``int`` of at least low."""
    if not (_fits(value, int) and value >= low):
        raise ValueError(f"{name} must be an integer >= {low} and below 2**63, got {value!r}")


def _check_rates(beta1: float, gamma: float) -> None:
    """The rates of the link operator: beta1 >= 0 and gamma >= 1, both finite."""
    if not (_fits(beta1, float) and beta1 >= 0):
        raise ValueError(f"beta1 must be nonnegative and finite, got {beta1!r}")
    if not (_fits(gamma, float) and gamma >= 1):
        raise ValueError(f"gamma must be at least 1 and finite, got {gamma!r}")


def _int64_array(values, what: str, owner) -> np.ndarray:
    """``values`` as an int64 array; ValueError if an entry is not an integer.

    The message names hyperedge ``owner(k)`` for the first bad entry k.  A
    sequence is checked by the types of its entries, in C, so a bool or a
    whole-valued float among ints is found before numpy promotes it to
    their dtype.  An array is checked by its dtype: a fractional or NaN
    entry of a float array is named, and whole values are refused by the
    dtype, since 2.0 cannot be told from 2 there.
    """
    if not isinstance(values, np.ndarray):
        values = list(values)
        bad = tuple(t for t in set(map(type, values))
                    if not issubclass(t, numbers.Integral) or issubclass(t, bool))
        if bad:
            odd = np.fromiter(map(isinstance, values, repeat(bad)), dtype=bool, count=len(values))
            raise ValueError(f"hyperedge {owner(odd.argmax())} has a non-integer {what}")
        ints = np.asarray(values)
        # numpy widens the dtype for an integer outside int64; -1 takes its
        # place, which every caller refuses as out of range
        values = ints if ints.dtype.kind == "i" else np.array(
            [v if _fits(v, int) else -1 for v in values], dtype=np.int64)
    if values.dtype.kind not in "iu" and len(values):
        odd = (values != np.trunc(values) if values.dtype.kind == "f"
               else np.ones(len(values), dtype=bool))
        raise ValueError(f"hyperedge {owner(odd.argmax())} has a non-integer {what}"
                         if odd.any() else f"{what}s must be integers, not {values.dtype}")
    return values.astype(np.int64, copy=False)


@dataclass(eq=False, init=False)
class Hypergraph:
    """Node set plus hyperedge multiset, stored as a CSR incidence.

    Node ids are dense integers in [0, num_nodes); a node count, node id
    or hyperedge size that is not an integer (a bool is none) is refused,
    never truncated.  Hyperedge ``a`` is
    ``members[edge_ptr[a]:edge_ptr[a + 1]]``, sorted; the multiset order
    is preserved as given.  ``node_labels[i]``, when present, names node i.
    """

    num_nodes: int
    edge_ptr: np.ndarray   # (M+1,) int64, read-only
    members: np.ndarray    # (edge_ptr[-1],) int64, sorted within each hyperedge, read-only
    node_labels: tuple | None

    def __init__(self, num_nodes: int, hyperedges: Iterable[Sequence[int]] = (),
                 node_labels: Sequence | None = None):
        edges = list(hyperedges)
        sizes = np.fromiter(map(len, edges), dtype=np.int64, count=len(edges))
        self._store(num_nodes, sizes, list(chain.from_iterable(edges)), node_labels)

    @classmethod
    def from_arrays(cls, num_nodes: int, sizes, members, node_labels: Sequence | None = None):
        """Hypergraph whose hyperedge ``a`` is the next ``sizes[a]`` entries of ``members``."""
        h = cls.__new__(cls)
        h._store(num_nodes, sizes, members, node_labels)
        return h

    def _store(self, num_nodes, sizes, members, node_labels) -> None:
        _check_count("num_nodes", num_nodes, 0)
        sizes = _int64_array(sizes, "size", int)
        if (sizes < 0).any() or sizes.sum() != len(members):
            raise ValueError("hyperedge sizes must be nonnegative and sum to the member count")
        if node_labels is not None and len(node_labels) != num_nodes:
            raise ValueError(f"{len(node_labels)} node labels for {num_nodes} nodes")
        edge_of = np.repeat(np.arange(len(sizes)), sizes)
        members = _int64_array(members, "node id", edge_of.__getitem__)
        members = members[np.lexsort((members, edge_of))]
        texts = ("is empty", f"has node id outside [0, {num_nodes})", "contains a duplicate node id")
        bad = np.zeros((len(texts), len(sizes)), dtype=bool)  # per hyperedge, test by test
        bad[0] = sizes == 0
        bad[1, edge_of[(members < 0) | (members >= num_nodes)]] = True
        bad[2, edge_of[1:][(members[1:] == members[:-1]) & (edge_of[1:] == edge_of[:-1])]] = True
        if bad.any():
            pos = int(bad.any(axis=0).argmax())
            raise ValueError(f"hyperedge {pos} {texts[bad[:, pos].argmax()]}")
        self.num_nodes = int(num_nodes)
        self.edge_ptr = np.concatenate(([0], sizes.cumsum()))
        self.members = members
        self.edge_ptr.flags.writeable = self.members.flags.writeable = False
        self.node_labels = None if node_labels is None else tuple(node_labels)

    @property
    def num_hyperedges(self) -> int:
        return len(self.edge_ptr) - 1

    @property
    def hyperedges(self) -> tuple[tuple[int, ...], ...]:
        """The hyperedges as sorted tuples of node ids, in multiset order."""
        flat = self.members.tolist()
        return tuple(tuple(flat[a:b]) for a, b in pairwise(self.edge_ptr.tolist()))

    def incidence(self) -> sp.csc_matrix:
        """N x M incidence matrix (1 where node belongs to hyperedge)."""
        ones = np.ones(len(self.members), dtype=np.int64)
        return sp.csr_matrix((ones, self.members, self.edge_ptr),
                             shape=(self.num_hyperedges, self.num_nodes)).T


@dataclass
class AdjacencyView:
    """Cached adjacency structure of a hypergraph.

    weighted[i, j] counts hyperedges shared by i and j (zero diagonal);
    binary is its 0/1 skeleton.  Degree vectors: node_degree counts
    binary neighbors, hyperdegree counts incident hyperedges,
    weighted_degree sums shared-hyperedge counts over neighbors.
    """

    num_nodes: int
    weighted: sp.csr_matrix
    binary: sp.csr_matrix
    node_degree: np.ndarray
    hyperdegree: np.ndarray
    weighted_degree: np.ndarray


def build_adjacency(h: Hypergraph) -> AdjacencyView:
    """Build the weighted/binary adjacency view of ``h``.

    The weighted matrix equals inc @ inc.T with the diagonal (the
    hyperdegrees) removed, i.e. entry (i, j) is the number of hyperedges
    containing both i and j.
    """
    inc = h.incidence()
    gram = (inc @ inc.T).tocsr()
    gram.setdiag(0)
    gram.eliminate_zeros()
    gram.sort_indices()
    weighted = gram.astype(np.int64)
    binary = sp.csr_matrix(
        (np.ones_like(weighted.data), weighted.indices, weighted.indptr),
        shape=weighted.shape,
    )
    node_degree = np.diff(weighted.indptr).astype(np.int64)
    hyperdegree = np.bincount(h.members, minlength=h.num_nodes)
    weighted_degree = np.asarray(weighted.sum(axis=1)).ravel().astype(np.int64)
    return AdjacencyView(
        num_nodes=h.num_nodes,
        weighted=weighted,
        binary=binary,
        node_degree=node_degree,
        hyperdegree=hyperdegree,
        weighted_degree=weighted_degree,
    )


@dataclass
class TwoSimplexSet:
    """The 2-simplices (node triples) of a hypergraph, as the SIR kernel and
    message passing read them.

    A triple is present iff at least one hyperedge contains all three
    nodes; its weight counts such hyperedges.  The set is the N x P
    center-by-pair count matrix in scipy's canonical CSC form
    (pair_weight, pair_center, pair_ptr): column p is the distinct pair
    ``pair_a[p] < pair_b[p]``, pairs in ascending order, and its entries
    are the third members (the centers) of the triples holding that pair,
    ascending, each with its triple's weight.  Each triple is held once
    per member, so the matrix has 3 entries per triple.
    """

    pair_weight: np.ndarray      # (3T,) triple weight per entry, grouped by pair
    pair_center: np.ndarray      # (3T,) center per entry, ascending per pair; int32 if it fits
    pair_ptr: np.ndarray         # (P+1,) CSC pointer by pair, of pair_center's dtype
    pair_a: np.ndarray           # (P,) first member of each distinct pair
    pair_b: np.ndarray           # (P,) second member, pair_a < pair_b
    node_triple_weight: np.ndarray  # (N,) sum of weights of triples containing the node

    @property
    def num_triples(self) -> int:
        return len(self.pair_center) // 3


def oversized_hyperedges(h: Hypergraph, size_cap: int) -> np.ndarray:
    """Mask of the hyperedges with a 3-subset that ``size_cap`` leaves out of
    the triangle set: those larger than the cap (C(s,3) blow-up)."""
    sizes = np.diff(h.edge_ptr)
    return (sizes >= 3) & (sizes > size_cap)


def enumerate_two_simplices(
    h: Hypergraph,
    size_cap: int = DEFAULT_TRIPLE_EDGE_CAP,
) -> TwoSimplexSet:
    """Enumerate weighted 2-simplices of ``h``.

    Every 3-subset of every hyperedge is a triple, except in the
    hyperedges :func:`oversized_hyperedges` marks; those still
    contribute pairwise adjacency elsewhere.  The set is built as the
    center-by-pair count matrix: each (hyperedge, 3-subset) row adds a 1
    at (center, pair of the other two) for each of its three members, and
    scipy's canonical CSC form sums those duplicates into the triple
    weights and sorts each pair's centers.
    """
    sizes = np.diff(h.edge_ptr)
    counted = (sizes >= 3) & ~oversized_hyperedges(h, size_cap)
    starts = h.edge_ptr[:-1]
    # One row per (hyperedge, 3-subset); edges are sorted, so each row is too.
    rows = [h.members[starts[counted & (sizes == s)][:, None] + np.arange(s)]
            .take(list(combinations(range(s), 3)), axis=1).reshape(-1, 3)
            for s in np.unique(sizes[counted]).tolist()]
    rows = np.concatenate(rows) if rows else np.empty((0, 3), dtype=np.int64)
    # Each row (i, j, k) gives three entries, member-major: center i with
    # the pair (j, k), then j with (i, k) and k with (i, j), each pair
    # a < b < N keyed by the order-preserving a*N + b (int64 holds it for N
    # up to 3e9).  The keys hold the rows, so the rows are freed before
    # np.unique sets the peak memory and the centers are read back after.
    span = max(h.num_nodes, 1)
    keys = np.ravel(rows.T[[1, 0, 0]] * span + rows.T[[2, 2, 1]])
    del rows
    pairs, pair = np.unique(keys, return_inverse=True)
    quot, rem = np.divmod(keys.reshape(3, -1)[:2], span)  # [j, i] and [k, k]
    centers = np.concatenate((quot[1], quot[0], rem[0]))
    del keys, quot, rem
    # the duplicate entries, one per hyperedge holding a triple, sum to its weight
    counts = sp.csc_matrix((np.ones(len(centers), dtype=np.int64), (centers, pair)),
                           shape=(h.num_nodes, len(pairs)))
    pair_a, pair_b = np.divmod(pairs, span)

    return TwoSimplexSet(
        pair_weight=counts.data,
        pair_center=counts.indices,
        pair_ptr=counts.indptr,
        pair_a=pair_a,
        pair_b=pair_b,
        # a node's triple weight counts the (hyperedge, 3-subset) rows holding it
        node_triple_weight=np.bincount(centers, minlength=h.num_nodes),
    )


@dataclass
class LinkIndex:
    """Enumeration of the directed binary links (i -> j), Atilde_ij = 1.

    Links are sorted by (src, dst), so the links out of node i are the
    id range ``out_ptr[i]:out_ptr[i + 1]`` and :meth:`link_ids` finds
    ids by binary search.  ``reverse[e]`` is the id of the opposite
    link, and ``weight[e]`` the shared-hyperedge count of the underlying
    pair.  The adjacency is symmetric, so
    ``reverse[out_ptr[i]:out_ptr[i + 1]]`` lists the links into i in
    ascending source order.
    """

    num_nodes: int
    src: np.ndarray        # (2M_L,) source node per link
    dst: np.ndarray        # (2M_L,) destination node per link
    weight: np.ndarray     # (2M_L,) weighted-adjacency value of the pair
    out_ptr: np.ndarray    # (N+1,) CSR pointer: out-links of node i
    reverse: np.ndarray    # (2M_L,) id of link (j -> i) for link (i -> j)

    @property
    def num_links(self) -> int:
        return len(self.src)

    def link_ids(self, src, dst) -> np.ndarray:
        """Ids of links (src[k] -> dst[k]); KeyError if any pair is no link."""
        src, dst = np.asarray(src, dtype=np.int64), np.asarray(dst, dtype=np.int64)
        ids = np.searchsorted(self.src * self.num_nodes + self.dst, src * self.num_nodes + dst)
        # compare the pairs, not the keys: an out-of-range dst aliases another key
        if not ((ids < self.num_links).all() and np.array_equal(self.src[ids], src)
                and np.array_equal(self.dst[ids], dst)):
            raise KeyError("node pairs absent from the link index")
        return ids


def build_link_index(view: AdjacencyView) -> LinkIndex:
    """Enumerate directed links from the binary adjacency of ``view``."""
    binary = view.binary
    n = view.num_nodes
    dst = binary.indices.astype(np.int64)
    src = np.repeat(np.arange(n, dtype=np.int64), np.diff(binary.indptr))
    return LinkIndex(
        num_nodes=n,
        src=src,
        dst=dst,
        weight=view.weighted.data.astype(np.int64),  # same sparsity pattern as binary
        out_ptr=binary.indptr.astype(np.int64),
        # the adjacency is symmetric, so the k-th link in (dst, src) order reverses link k;
        # the CSC form of the link ids lists them in that order, without a sort
        reverse=sp.csr_matrix((np.arange(len(dst)), binary.indices, binary.indptr),
                              shape=(n, n)).tocsc().data,
    )


def giant_component(h: Hypergraph) -> tuple[Hypergraph, np.ndarray]:
    """Extract the largest connected component under binary adjacency.

    Returns the component as a hypergraph with nodes relabeled
    contiguously (ascending old id), plus the old-to-new id map
    (-1 for dropped nodes).  A hyperedge never spans two components, so
    the component's hyperedges are kept whole and the others dropped.
    """
    sizes = np.diff(h.edge_ptr)
    first = h.members[h.edge_ptr[:-1]]
    # each hyperedge's star, member -> first member; bool sums of duplicates never wrap to 0
    star = sp.csr_matrix((np.ones(len(h.members), dtype=bool),
                          (h.members, np.repeat(first, sizes))), shape=(h.num_nodes,) * 2)
    comp = connected_components(star, directed=False)[1]
    keep = comp == np.bincount(comp, minlength=1).argmax()  # minlength for a graph of no nodes
    remap = np.where(keep, keep.cumsum() - 1, -1)
    kept = keep[first]
    names = None if h.node_labels is None else tuple(compress(h.node_labels, keep))
    members = remap[h.members[np.repeat(kept, sizes)]]
    return Hypergraph.from_arrays(int(keep.sum()), sizes[kept], members, names), remap


def simplex_densities(h: Hypergraph,
                      size_cap: int = DEFAULT_TRIPLE_EDGE_CAP) -> tuple[float, float]:
    """Mean 1-simplex and 2-simplex degrees per node, <k1> and <k2>, from
    the hyperedge sizes s: N<k1> = sum s(s-1), and N<k2> = 3 sum C(s,3)
    over the hyperedges not :func:`oversized_hyperedges`.  These are the
    means of ``build_adjacency(h).weighted_degree`` and of
    ``enumerate_two_simplices(h, size_cap).node_triple_weight``, bit for
    bit, without building either."""
    if h.num_nodes == 0:
        return 0.0, 0.0
    sizes = np.diff(h.edge_ptr)
    kept = sizes[~oversized_hyperedges(h, size_cap)]
    k1 = int((sizes * (sizes - 1)).sum())
    k2 = int((kept * (kept - 1) * (kept - 2)).sum()) // 2
    return k1 / h.num_nodes, k2 / h.num_nodes
