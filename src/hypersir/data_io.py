"""Loading, saving, and summarizing hypergraph datasets; the file writers.

Two text formats are supported: a plain hyperedge list (one edge per
line, whitespace- or comma-separated labels) and the paired
nverts/simplices layout used by several public hypergraph repositories.
Node labels are remapped to dense ids in first-appearance order and kept
in the hypergraph's ``node_labels`` field, which ``giant_component`` and
deduplication carry along.  Every package CSV goes through ``write_csv``
and every JSON document through ``write_json``.
"""

from __future__ import annotations

import csv
import json
from dataclasses import asdict, dataclass, fields

from .hypergraph import (
    DEFAULT_TRIPLE_EDGE_CAP,
    Hypergraph,
    build_adjacency,
    giant_component,
    oversized_hyperedges,
    simplex_densities,
)

__all__ = [
    "DatasetStats",
    "load_hyperedge_list",
    "load_benson",
    "save_hyperedge_list",
    "dataset_stats",
    "write_csv",
    "write_json",
    "write_stats_table",
]


def _build_labeled(edge_labels: list[list[str]]) -> Hypergraph:
    ids: dict[str, int] = {}  # dense ids in first-appearance order
    flat = [ids.setdefault(lab, len(ids)) for edge in edge_labels for lab in edge]
    return Hypergraph.from_arrays(len(ids), [len(e) for e in edge_labels], flat, tuple(ids))


def load_hyperedge_list(path) -> Hypergraph:
    """Read one hyperedge per line; blank lines and ``#`` comments skipped.

    Labels may be separated by whitespace or commas.  A label repeated
    within one line, or a comma-separated label holding whitespace
    (which :func:`save_hyperedge_list` could not write back), is
    rejected with its line number.
    """
    edge_labels: list[list[str]] = []
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "," in line:
                toks = [t.strip() for t in line.split(",")]
            else:
                toks = line.split()
            if any(not t for t in toks):
                raise ValueError(f"{path}: line {lineno}: empty label")
            # each label is one word iff splitting on commas and whitespace adds none
            if "," in line and len(line.replace(",", " ").split()) != len(toks):
                raise ValueError(f"{path}: line {lineno}: whitespace inside a comma-separated label")
            if len(set(toks)) != len(toks):
                raise ValueError(
                    f"{path}: line {lineno}: duplicate label within hyperedge"
                )
            edge_labels.append(toks)
    return _build_labeled(edge_labels)


def load_benson(nverts_path, simplices_path, collapse_duplicates: bool = True) -> Hypergraph:
    """Read the paired size-sequence / flattened-member format.

    ``nverts_path`` holds one integer per hyperedge (its size);
    ``simplices_path`` holds the member labels in order, partitioned by
    that size sequence.  Total label count must match the size sum.
    ``collapse_duplicates`` drops repeated labels inside one hyperedge
    (some published files list a member twice) instead of erroring.
    """
    sizes = []
    with open(nverts_path, encoding="utf-8") as fh:
        for tok in fh.read().split():
            try:
                sizes.append(int(tok))
            except ValueError:
                raise ValueError(
                    f"{nverts_path}: hyperedge size {tok!r} is not an integer") from None
    if any(s < 1 for s in sizes):
        raise ValueError(f"{nverts_path}: hyperedge sizes must be positive")
    with open(simplices_path, encoding="utf-8") as fh:
        stream = fh.read().split()
    total = sum(sizes)
    if len(stream) != total:
        raise ValueError(
            f"{simplices_path}: expected {total} member labels "
            f"(sum of sizes in {nverts_path}), found {len(stream)}"
        )
    edge_labels: list[list[str]] = []
    at = 0
    for s in sizes:
        toks = stream[at:at + s]
        at += s
        if collapse_duplicates:
            toks = list(dict.fromkeys(toks))
        edge_labels.append(toks)
    return _build_labeled(edge_labels)


def save_hyperedge_list(h: Hypergraph, path) -> None:
    """Write one space-separated line per hyperedge.

    Uses the hypergraph's ``node_labels`` table when present, dense ids
    otherwise, so a loaded dataset round-trips with its original names.
    A label that :func:`load_hyperedge_list` would read back differently
    (empty, holding a comma or whitespace, or starting with ``#``) raises
    ``ValueError`` before anything is written.
    """
    names = range(h.num_nodes) if h.node_labels is None else h.node_labels
    for lab in map(str, h.node_labels or ()):
        if not lab or lab.startswith("#") or "," in lab or any(c.isspace() for c in lab):
            raise ValueError(f"node label {lab!r} does not survive a hyperedge-list round trip")
    with open(path, "w", encoding="utf-8") as fh:
        for edge in h.hyperedges:
            fh.write(" ".join(str(names[v]) for v in edge) + "\n")


def write_csv(path, tag: str, columns: tuple[str, ...], rows) -> None:
    """Write ``# schema=<tag>.v1``, a header row, then one row per mapping in
    ``rows``; floats as ``.10g``, None as an empty cell, and a cell holding a
    comma, quote or newline quoted as ``csv`` does."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(f"# schema={tag}.v1\n")
        out = csv.writer(fh, lineterminator="\n")
        out.writerow(columns)
        out.writerows([f"{row[c]:.10g}" if isinstance(row[c], float) else row[c]
                       for c in columns] for row in rows)


def write_json(path, doc) -> None:
    """Write ``doc`` as UTF-8 JSON: two-space indent, sorted keys, trailing newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


@dataclass(frozen=True)
class DatasetStats:
    """Summary table row: full-set counts plus giant-component means."""

    n: int
    m: int
    gcc_size: int
    mean_node_degree: float
    mean_hyperdegree: float
    k1_mean: float
    k2_mean: float
    skipped_large_hyperedges: int
    deduplicated: bool = False

    def __post_init__(self):
        if self.gcc_size > self.n:
            raise ValueError("gcc_size cannot exceed n")
        for name in ("mean_node_degree", "mean_hyperdegree", "k1_mean", "k2_mean"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")


STATS_COLUMNS = ("dataset", *(f.name for f in fields(DatasetStats)))


def write_stats_table(rows: dict[str, DatasetStats], path) -> None:
    """Write named stats as CSV, one dataset per row."""
    write_csv(path, "dataset_stats", STATS_COLUMNS,
              ({"dataset": name, **asdict(st)} for name, st in rows.items()))


def dataset_stats(
    h: Hypergraph,
    size_cap: int = DEFAULT_TRIPLE_EDGE_CAP,
    dedup: bool = False,
) -> DatasetStats:
    """Full-set n and m, plus degree and simplex means over the GCC.

    ``dedup`` collapses repeated hyperedges first; source multiplicity
    is kept by default.  Means are averages over giant-component nodes:
    distinct-neighbor count, incident-hyperedge count, weighted pair
    degree, and total triangle weight; the last two come from the
    hyperedge sizes (:func:`simplex_densities`), so no triangle is
    enumerated.
    """
    work = Hypergraph(h.num_nodes, dict.fromkeys(h.hyperedges), h.node_labels) if dedup else h
    gcc, _ = giant_component(work)
    if gcc.num_nodes == 0:
        return DatasetStats(work.num_nodes, work.num_hyperedges, 0,
                            0.0, 0.0, 0.0, 0.0, 0, dedup)
    view = build_adjacency(gcc)
    k1, k2 = simplex_densities(gcc, size_cap)
    return DatasetStats(
        n=work.num_nodes,
        m=work.num_hyperedges,
        gcc_size=gcc.num_nodes,
        mean_node_degree=float(view.node_degree.mean()),
        mean_hyperdegree=float(view.hyperdegree.mean()),
        k1_mean=k1,
        k2_mean=k2,
        skipped_large_hyperedges=int(oversized_hyperedges(gcc, size_cap).sum()),
        deduplicated=dedup,
    )
