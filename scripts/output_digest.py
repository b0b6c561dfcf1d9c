#!/usr/bin/env python3
"""Run a fixed set of ``hypersir`` commands and print a digest of their outputs.

Usage (from the root of the tree to digest):

    PYTHONPATH=src python3 scripts/output_digest.py OUTDIR

Every command goes through ``hypersir.cli.main`` with its outputs under
OUTDIR: ``generate`` (a scale-free instance, N=2000, seed 3),
``experiment`` on the benchmark's sweep config at seeds 1 and 2027 with
all seven selection methods, and at seed 1 again with ``--workers 2``,
``experiment`` on the generated instance at ``--lambda1 1.2``,
``--lambda2`` 0 and 2.5, ``--gamma 3`` and 300 runs with all seven
methods (each cell's seven seed sets share one stream that splits into
row blocks, some of whose runs end before others),
``experiment`` on the generated instance at ``--beta1`` 0.02 and 0.05
with ``--lambda2`` 0 and 2.5, and at ``--lambda1`` 0.8 and 500 (whose
rescaled beta1 is clamped to 1 with a warning) with ``--beta2`` 0 and
0.3, and at ``--beta1`` 0.5 and 1.5 (whose second cell fails, exit 1,
with an error row that holds a comma), all three at 30 runs and
``--rng-seed 4`` with ``cia`` and ``random``,
``spectrum --dump-operator`` at unit rates and at ``--beta1 0.37
--gamma 3`` (the scaled dump), ``spectrum --size-cap 3``, ``fig3`` with
and without ``--beta1 0``, and ``stats``, the last five on the generated
instance.  The script then prints ``md5 relpath`` for every output file
except ``provenance.json`` (it records paths), sorted by path, each
``spectrum.json`` line followed by its ``lambda_c`` repr and
``iterations``, so a change of digits can be read off; for every
``provenance.json`` its ``size_cap`` and ``skipped_hyperedges`` (absent
ones read None), and for the ``experiment`` ones also the reprs of
``k1_mean`` and ``k2_mean``; and
twelve library lines no command writes: ``library/giant_component``
(``edge_ptr``, ``members``, the id map and ``node_labels`` of the
giant component of a labelled Erdos-Renyi instance, N=3000, M=1500,
with 1,543 components), ``library/enumerate_two_simplices``
(the six array fields of the triangle set with their dtypes),
``library/enumerate_two_simplices_multi`` (the same at ``size_cap`` 25
and 3 on a seeded multigraph of 300 nodes and 600 hyperedges of 2 to 6
nodes, five of them repeated 300 times and twenty of them twice, so
that triple weights run past 255),
``library/collective_influence`` (the md5 of the scores at beta1 0.3
and gamma 2 on the generated instance's giant component, then on the
multigraph, whose link weights pass 255),
``library/leading_eigen`` (``lambda_c`` repr, ``iterations``,
``residual`` and the eigenvector's md5 of the operator at beta1 0.3 and
gamma 2), ``library/mp_solve`` (the six state arrays,
``iterations`` and ``residual`` of a seeded solve), ``library/mp_solve_pairwise``
(the same at beta2 0, where no step reads the triangle rows),
``library/mp_solve_certain`` (the same at beta1 1, beta2 1 and gamma 2,
seeded at the two members of one pair of the triangle set, so both
channels hold factors equal to exactly 0, then at beta1 0.5, where only
the triangle channel's zeros decide which cavity products vanish),
``library/run_sir`` (``sigma_samples`` and ``absorbed`` of a
300-run ensemble, about 540k cells, which ``run_sir`` splits into row
blocks) and ``library/run_sir_one_seed`` (the same of a 20-run ensemble
from the top-degree node with the triangle channel on, whose steps read
only the infected sources until more than a quarter of the nodes are
infected in some run), those eight on the generated instance's giant
component (the multigraph aside), and ``library/run_sir_tall`` (the same
of three 5,000-run ensembles on 4 nodes with a triangle, a state far
taller than wide: at ``gamma`` 2, at ``gamma`` 300, whose ages pass 255,
and at ``gamma`` 2 cut by ``t_max`` 3, all with the triangle channel on),
and ``library/run_sir_tall_255`` (the same of one such ensemble at
``gamma`` 255 whose runs all recover, so that the SIR kernel's phases,
``1 + age`` while infectious and ``gamma + 1`` once recovered, pass 255).
Two trees produce the same outputs when their digests are equal:

    diff <(cd old && PYTHONPATH=src python3 /path/to/output_digest.py /tmp/a) \\
         <(cd new && PYTHONPATH=src python3 /path/to/output_digest.py /tmp/b)
"""

import argparse
import contextlib
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from hypersir import (EpidemicParams, GenSpec, Hypergraph, build_adjacency, build_wnb,
                      collective_influence, enumerate_two_simplices, generate,
                      giant_component, leading_eigen, load_hyperedge_list, mp_solve, run_sir)
from hypersir.cli import KNOWN_METHODS, main

INSTANCE = ["--family", "scale_free", "--num-nodes", "2000", "--num-hyperedges", "4000",
            "--exponent", "2.0", "--size-range", "2", "4", "--degree-range", "2", "60",
            "--gen-seed", "3"]


# run flags of the experiments on a raw beta grid, paired with a lambda grid or alone
MIXED_RUNS = ["--runs", "30", "--rng-seed", "4", "--methods", "cia", "random"]


def sweep_args(seed: int) -> list[str]:
    """The benchmark's sweep experiment (N=5000) at ``seed``, with every method."""
    return ["experiment", "--family", "scale_free", "--num-nodes", "5000",
            "--num-hyperedges", "10000", "--exponent", "2.0", "--size-range", "2", "4",
            "--degree-range", "2", "60", "--gen-seed", str(seed),
            "--lambda1", "0.8", "1.2", "1.6", "--lambda2", "0", "2", "--k-percent", "3",
            "--runs", "20", "--rng-seed", str(seed), "--methods", *KNOWN_METHODS]


def run_commands(outdir: Path) -> None:
    data = str(outdir / "generate" / "instance.txt")
    commands = {
        "generate": ["generate", *INSTANCE, "--name", "instance"],
        "experiment-s1": sweep_args(1),
        "experiment-s2027": sweep_args(2027),
        "experiment-s1-workers2": [*sweep_args(1), "--workers", "2"],
        "spectrum": ["spectrum", "--dataset", data, "--dump-operator"],
        "spectrum-scaled": ["spectrum", "--dataset", data, "--dump-operator",
                            "--beta1", "0.37", "--gamma", "3"],
        "spectrum-cap3": ["spectrum", "--dataset", data, "--size-cap", "3"],
        "fig3": ["fig3", "--dataset", data],
        "fig3-beta1-0": ["fig3", "--dataset", data, "--beta1", "0"],
        "stats": ["stats", "--dataset", data],
        "experiment-blocks": ["experiment", "--dataset", data, "--lambda1", "1.2",
                              "--lambda2", "0", "2.5", "--gamma", "3", "--runs", "300",
                              "--rng-seed", "7", "--methods", *KNOWN_METHODS],
        "experiment-mixed": ["experiment", "--dataset", data, "--beta1", "0.02", "0.05",
                             "--lambda2", "0", "2.5", *MIXED_RUNS],
        "experiment-clamped": ["experiment", "--dataset", data, "--lambda1", "0.8", "500",
                               "--beta2", "0", "0.3", *MIXED_RUNS],
        "experiment-error-row": ["experiment", "--dataset", data, "--beta1", "0.5", "1.5",
                                 *MIXED_RUNS],
    }
    for sub, argv in commands.items():
        with contextlib.redirect_stdout(sys.stderr):
            code = main([*argv, "--output-dir", str(outdir / sub)])
        if code != (1 if sub == "experiment-error-row" else 0):
            raise SystemExit(f"{sub}: hypersir {argv[0]} exited {code}")


def digest(outdir: Path) -> list[str]:
    """``md5  relpath`` of every output but provenance.json; a spectrum.json
    line also carries its ``lambda_c`` repr and ``iterations``."""
    lines = []
    for p in sorted(outdir.rglob("*")):
        if not p.is_file() or p.name == "provenance.json":
            continue
        line = f"{hashlib.md5(p.read_bytes()).hexdigest()}  {p.relative_to(outdir).as_posix()}"
        if p.name == "spectrum.json":
            doc = json.loads(p.read_text())
            line += f"  lambda_c {doc['lambda_c']!r} iterations {doc['iterations']}"
        lines.append(line)
    return lines


def provenance_lines(outdir: Path) -> list[str]:
    """``size_cap skipped_hyperedges  relpath`` of every provenance.json, then
    ``k1_mean k2_mean  relpath`` (reprs) of those holding the densities."""
    lines = []
    for p in sorted(outdir.rglob("provenance.json")):
        doc = json.loads(p.read_text())
        rel = p.relative_to(outdir).as_posix()
        lines.append(f"{doc.get('size_cap')} {doc.get('skipped_hyperedges')}  {rel}")
        if "k1_mean" in doc:
            lines.append(f"{doc['k1_mean']!r} {doc['k2_mean']!r}  {rel} k1_mean k2_mean")
    return lines


def md5_of(*parts) -> str:
    md5 = hashlib.md5()
    for part in parts:
        md5.update(np.ascontiguousarray(part).tobytes() if isinstance(part, np.ndarray)
                   else repr(part).encode())
    return md5.hexdigest()


TRIANGLE_FIELDS = ("pair_weight", "pair_center", "pair_ptr", "pair_a", "pair_b",
                   "node_triple_weight")


def triangle_md5(simplices) -> str:
    """md5 of the six array fields of a triangle set and their dtypes."""
    tri = [getattr(simplices, name) for name in TRIANGLE_FIELDS]
    return md5_of(*tri, *(a.dtype.str for a in tri))


def multigraph() -> Hypergraph:
    """300 nodes, 600 seeded hyperedges of 2-6 nodes, five of them repeated
    300 times and twenty twice."""
    rng = np.random.default_rng(25)
    edges = [rng.choice(300, int(rng.integers(2, 7)), replace=False).tolist()
             for _ in range(600)]
    edges += [edges[i] for i in range(5) for _ in range(299)]
    edges += [edges[i] for i in range(5, 25)]
    return Hypergraph(300, edges)


TALL_CASES = (EpidemicParams(0.3, 0.6, gamma=2, rng_seed=7),
              EpidemicParams(0.002, 0.004, gamma=300, t_max=1300, rng_seed=7),
              EpidemicParams(0.3, 0.6, gamma=2, t_max=3, rng_seed=7))


def tall_sir_md5(*cases: EpidemicParams) -> str:
    """md5 of the samples of a 5,000-run ensemble per case on a 4-node instance."""
    h = Hypergraph(4, [(0, 1, 2), (2, 3)])
    view, simplices = build_adjacency(h), enumerate_two_simplices(h)
    samples = [run_sir(view, simplices, [0], params, runs=5000) for params in cases]
    return md5_of(*(a for x in samples for a in (x.sigma_samples, x.absorbed)))


def library_digest(outdir: Path) -> list[str]:
    """Digests of a labelled instance's giant component, then of the triangle
    set, the influence scores, a ``leading_eigen`` result, three ``mp_solve``
    states and two ``run_sir`` ensembles on the generated instance's GCC,
    with a multigraph's triangle sets and scores beside the GCC's, and the
    tall ensembles of :func:`tall_sir_md5`."""
    er = generate(GenSpec("erdos_renyi", 3000, 1500, membership_p=0.0006, rng_seed=4))
    labels = [f"v{i:04d}" for i in range(er.num_nodes)][::-1]  # label order is not id order
    part, remap = giant_component(Hypergraph.from_arrays(
        er.num_nodes, np.diff(er.edge_ptr), er.members, labels))
    gcc, _ = giant_component(load_hyperedge_list(outdir / "generate" / "instance.txt"))
    view, simplices = build_adjacency(gcc), enumerate_two_simplices(gcc)
    eig = leading_eigen(build_wnb(view, 0.3, 2))
    seeds = np.argsort(-view.node_degree, kind="stable")[:20].tolist()
    st = mp_solve(view, simplices, EpidemicParams(0.05, 0.1), seeds)
    pairwise = mp_solve(view, simplices, EpidemicParams(0.05, 0.0), seeds)
    pair = [int(simplices.pair_a[0]), int(simplices.pair_b[0])]
    certain, certain_triangle = (mp_solve(view, simplices, EpidemicParams(beta1, 1.0, gamma=2),
                                          pair) for beta1 in (1.0, 0.5))
    sir = run_sir(view, simplices, seeds, EpidemicParams(0.05, 0.1, gamma=2, rng_seed=7),
                  runs=300)
    sparse = run_sir(view, simplices, seeds[:1], EpidemicParams(0.03, 0.1, gamma=2, rng_seed=7),
                     runs=20)
    state, pairwise_state, certain_state, certain_triangle_state = (
        (x.s_msg, x.i_msg, x.r_msg, x.node_s, x.node_i, x.node_r, x.iterations, x.residual)
        for x in (st, pairwise, certain, certain_triangle))
    multi = multigraph()
    parts = (part.edge_ptr, part.members, remap)
    return [f"{md5_of(*parts, *(a.dtype.str for a in parts), part.node_labels)}  "
            "library/giant_component",
            f"{triangle_md5(simplices)}  library/enumerate_two_simplices",
            f"{triangle_md5(enumerate_two_simplices(multi))} "
            f"{triangle_md5(enumerate_two_simplices(multi, size_cap=3))}  "
            "library/enumerate_two_simplices_multi",
            f"{md5_of(collective_influence(view, 0.3, 2))} "
            f"{md5_of(collective_influence(build_adjacency(multi), 0.3, 2))}  "
            "library/collective_influence",
            f"{eig.lambda_c!r} {eig.iterations} {eig.residual!r} {md5_of(eig.eigvec)}  "
            "library/leading_eigen",
            f"{md5_of(*state)}  library/mp_solve",
            f"{md5_of(*pairwise_state)}  library/mp_solve_pairwise",
            f"{md5_of(*certain_state)} {md5_of(*certain_triangle_state)}  "
            "library/mp_solve_certain",
            f"{md5_of(sir.sigma_samples, sir.absorbed)}  library/run_sir",
            f"{md5_of(sparse.sigma_samples, sparse.absorbed)}  library/run_sir_one_seed",
            f"{tall_sir_md5(*TALL_CASES)}  library/run_sir_tall",
            f"{tall_sir_md5(EpidemicParams(0.0024, 0.0047, gamma=255, t_max=1100, rng_seed=7))}"
            "  library/run_sir_tall_255"]


def cli() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("outdir", type=Path, help="directory for the command outputs")
    outdir = parser.parse_args().outdir.resolve()
    run_commands(outdir)
    print("\n".join(digest(outdir) + provenance_lines(outdir) + library_digest(outdir)))


if __name__ == "__main__":
    cli()
