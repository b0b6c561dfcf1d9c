"""Independent references and the per-op correctness checks.

Every check returns a list of problems; an empty list means the op's
output is correct.  The references are built without the package code
path they check: the spectral radius comes from ARPACK on a matrix-free
non-backtracking operator assembled here from the adjacency view, and
the tiny final-size distributions come from exhaustive enumeration in
``tests/oracles.py``.
"""

from __future__ import annotations

import csv
import itertools
import math
from collections import defaultdict

import numpy as np
import scipy.sparse.linalg as spla
from scipy.special import gammaln

# Relative agreement required between the package's power iteration
# (tolerance 1e-10) and ARPACK on the same operator.
LAMBDA_RTOL = 1e-7

# Two-sided binomial tail probability below which a final-size count is
# rejected.  About 6 sigma: with at most four bins per op and a few
# thousand ops per run, a correct kernel fails well under once in 1e4 runs.
TAIL_ALPHA = 1e-9


# -- threshold: spectral radius of the non-backtracking operator -------------

def nb_spectral_radius(view) -> float:
    """Leading eigenvalue of B[(i->j), (k->i)] = A_ki for k != j.

    Matrix-free: (Bx)[i->j] = sum_k A_ki x[k->i] - A_ji x[j->i], one
    bincount over link targets and two gathers.
    """
    a = view.weighted.tocoo()
    src = a.row.astype(np.int64)
    dst = a.col.astype(np.int64)
    w = a.data.astype(np.float64)
    n = view.num_nodes
    key = src * n + dst
    order = np.argsort(key)
    src, dst, w, key = src[order], dst[order], w[order], key[order]
    rev = np.searchsorted(key, dst * n + src)
    if not np.array_equal(key[rev], dst * n + src):
        raise ValueError("weighted adjacency is not symmetric")

    def matvec(x):
        x = np.asarray(x).ravel()
        into = np.bincount(dst, weights=w * x, minlength=n)
        return into[src] - w[rev] * x[rev]

    op = spla.LinearOperator((len(src), len(src)), matvec=matvec, dtype=np.float64)
    vals = spla.eigs(op, k=1, which="LM", return_eigenvectors=False,
                     v0=np.ones(len(src)), tol=1e-12, maxiter=100_000)
    return float(abs(vals[0]))


def check_spectrum(doc: dict, rho_ref: float, gcc_size: int) -> list[str]:
    bad = []
    if not doc.get("converged"):
        bad.append("leading_eigen did not converge")
    lam = float(doc.get("lambda_c", math.nan))
    if not abs(lam - rho_ref) <= LAMBDA_RTOL * rho_ref:
        bad.append(f"lambda_c {lam!r} vs ARPACK {rho_ref!r}")
    if doc.get("num_nodes") != gcc_size:
        bad.append(f"num_nodes {doc.get('num_nodes')} vs gcc {gcc_size}")
    return bad


def check_messages(state) -> list[str]:
    bad = []
    if not state.converged:
        bad.append(f"mp_solve did not converge after {state.iterations} iterations")
    try:
        state.validate()
    except ValueError as err:
        bad.append(f"MessageState.validate: {err}")
    return bad


# -- sweep: results.csv of one experiment ------------------------------------

def read_results(path) -> list[dict]:
    with open(path, newline="") as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    return list(csv.DictReader(lines))


def check_sweep(rows: list[dict], expected_rows: int) -> list[str]:
    """Row count, no errors, all runs absorbed, fraction in (0, 1] and
    non-decreasing in lambda1 within each (method, lambda2)."""
    bad = []
    if len(rows) != expected_rows:
        bad.append(f"{len(rows)} result rows, expected {expected_rows}")
    groups = defaultdict(list)
    for r in rows:
        if r.get("error"):
            bad.append(f"cell {r.get('cell')} {r.get('method')}: {r['error']}")
            continue
        if r.get("non_absorbed") != "0":
            bad.append(f"cell {r['cell']} {r['method']}: non_absorbed={r.get('non_absorbed')}")
        frac = float(r["fraction_of_gcc"])
        if not 0.0 < frac <= 1.0:
            bad.append(f"cell {r['cell']} {r['method']}: fraction_of_gcc={frac}")
        groups[(r["method"], r["lambda2"])].append((float(r["lambda1"]), frac))
    for (method, lam2), pts in groups.items():
        pts.sort()
        for (l_lo, f_lo), (l_hi, f_hi) in zip(pts, pts[1:]):
            if f_hi < f_lo:
                bad.append(f"{method} lambda2={lam2}: fraction falls from {f_lo} "
                           f"at lambda1={l_lo} to {f_hi} at lambda1={l_hi}")
    return bad


# -- tiny_mc: final-size histogram vs exhaustive enumeration ----------------

def rooted_classes() -> list[tuple]:
    """Rooted-isomorphism classes of <= 3 hyperedges on 4 nodes, seed at 0.

    Node 0 stays fixed while nodes 1-3 are relabelled; each class is
    kept as the first multiset of hyperedges (sizes 2-4) that reaches it.
    The same list as acceptance criterion 01 builds, kept here so the
    benchmark does not depend on a test module's private helper.
    """
    subsets = [s for r in (2, 3, 4) for s in itertools.combinations(range(4), r)]
    perms = list(itertools.permutations(range(1, 4)))

    def canon(edges):
        forms = []
        for perm in perms:
            relabel = (0,) + perm
            forms.append(tuple(sorted(tuple(sorted(relabel[v] for v in e)) for e in edges)))
        return min(forms)

    seen = {}
    for r in (1, 2, 3):
        for combo in itertools.combinations_with_replacement(subsets, r):
            seen.setdefault(canon(combo), combo)
    return list(seen.values())


def count_bounds(probs: dict, runs: int) -> list[tuple[int, int]]:
    """Accepted [lo, hi] count of each final size 1..4 over ``runs`` runs.

    A count is accepted unless one of its binomial tails has probability
    below TAIL_ALPHA / 2.  Impossible sizes accept only 0.
    """
    ks = np.arange(runs + 1)
    out = []
    for size in range(1, 5):
        p = float(probs.get(size, 0.0))
        if p <= 0.0:
            out.append((0, 0))
            continue
        if p >= 1.0:
            out.append((runs, runs))
            continue
        logpmf = (gammaln(runs + 1) - gammaln(ks + 1) - gammaln(runs - ks + 1)
                  + ks * math.log(p) + (runs - ks) * math.log1p(-p))
        pmf = np.exp(logpmf)
        cdf = np.cumsum(pmf)
        sf = np.cumsum(pmf[::-1])[::-1]
        ok = np.flatnonzero((cdf > TAIL_ALPHA / 2) & (sf > TAIL_ALPHA / 2))
        out.append((int(ok[0]), int(ok[-1])))
    return out


def check_histogram(stats, bounds: list[tuple[int, int]]) -> list[str]:
    bad = []
    if stats.non_absorbed:
        bad.append(f"{stats.non_absorbed} runs not absorbed")
    counts = np.bincount(stats.sigma_samples, minlength=5)
    if len(counts) > 5 or counts[0]:
        bad.append(f"final sizes outside 1..4: {counts.tolist()}")
    for size, (lo, hi) in zip(range(1, 5), bounds):
        c = int(counts[size])
        if not lo <= c <= hi:
            bad.append(f"size {size}: {c} runs, accepted [{lo}, {hi}]")
    return bad
