"""Experiment harness behind the ``hypersir`` console command.

Configuration is a single JSON document; every command-line flag maps
onto a config key of the same name and overrides the file value
(generator flags write into the nested ``generator`` block).  Outputs
are CSV with a schema comment line plus a header row, or JSON, and each
invocation drops a ``provenance.json`` next to its outputs.  When the
``HYPERSIR_OUTPUT_ROOT`` environment variable is set, relative output
directories are created under it, and may not climb out of it.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import itertools
import json
import math
import os
import re
import sys
import time
import types
import typing
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .data_io import (dataset_stats, load_benson, load_hyperedge_list, save_hyperedge_list,
                      write_csv, write_json, write_stats_table)
from .generators import GenSpec, generate
from .hypergraph import (
    DEFAULT_TRIPLE_EDGE_CAP,
    AdjacencyView,
    Hypergraph,
    TwoSimplexSet,
    _check_count,
    _fits,
    build_adjacency,
    enumerate_two_simplices,
    giant_component,
    oversized_hyperedges,
    simplex_densities,
)
from .influence import (
    BASELINE_METHODS,
    baseline_select,
    cia_select,
    collective_influence,
    top_overlap_curve,
)
from .message_passing import build_wnb, critical_beta1, leading_eigen
# run_sir stays bound here: perfbench's tracer wraps cli.run_sir
from .sir import EpidemicParams, rescale_params, run_sir, run_sir_sets  # noqa: F401

__all__ = [
    "ExperimentConfig",
    "KNOWN_METHODS",
    "fit_loglog_slope",
    "load_config",
    "main",
]

KNOWN_METHODS = ("cia",) + BASELINE_METHODS

OUTPUT_ROOT_ENV = "HYPERSIR_OUTPUT_ROOT"

# the number rule of ``_fits``, as a type error states it
NUMBER_TERMS = {"int": "an int is an integer at least -2**63 and below 2**63",
                "float": "a float is a finite real number"}

RESULT_COLUMNS = (
    "cell", "method", "lambda1", "lambda2", "beta1", "beta2", "gamma",
    "k", "runs", "sigma_mean", "sigma_std", "fraction_of_gcc",
    "non_absorbed", "error",
)


@dataclass
class ExperimentConfig:
    """One JSON document driving every command, checked when built; unused keys are inert."""

    generator: dict | None = None
    dataset: str | None = None
    nverts: str | None = None
    simplices: str | None = None
    lambda1: list[float] | None = None
    lambda2: list[float] | None = None
    beta1: list[float] | None = None
    beta2: list[float] | None = None
    gamma: int = 1
    k_absolute: list[int] | None = None
    k_percent: list[float] | None = None
    methods: list[str] = field(default_factory=lambda: ["cia", "random"])
    runs: int = 100
    rng_seed: int = 0
    output_dir: str = "."
    name: str | None = None
    size_cap: int = DEFAULT_TRIPLE_EDGE_CAP
    workers: int = 1
    sizes: list[int] = field(default_factory=lambda: [1000, 2000, 4000, 8000])
    mean_degree: float = 3.5
    bench_repeats: int = 3
    n_grid: list[float] = field(default_factory=lambda: [float(v) for v in range(1, 21)])
    dump_operator: bool = False

    def __post_init__(self):
        _check_types(ExperimentConfig, vars(self))
        for key, low in (("runs", 1), ("gamma", 1), ("workers", 1), ("bench_repeats", 1),
                         ("rng_seed", 0), ("size_cap", 0)):
            _check_count(key, getattr(self, key), low)
        rate = (lambda v: v >= 0, "finite numbers >= 0")
        percent = (lambda v: 0 < v <= 100, "numbers in (0, 100]")
        for key, (ok, what) in (("lambda1", rate), ("lambda2", rate), ("beta1", rate),
                                ("beta2", rate), ("k_percent", percent), ("n_grid", percent),
                                ("k_absolute", (lambda k: k >= 0, "integers >= 0")),
                                ("sizes", (lambda n: n >= 2, "integers >= 2")),
                                ("methods", (KNOWN_METHODS.__contains__,
                                             f"known methods {list(KNOWN_METHODS)}"))):
            vals = getattr(self, key)
            if vals is None:
                continue  # an optional grid left out
            if not vals or not all(map(ok, vals)):
                raise ValueError(f"{key} must be a non-empty list of {what}, got {vals!r}")
        if not self.mean_degree > 0:
            raise ValueError(f"mean_degree must be positive and finite, got {self.mean_degree!r}")
        for key in ("methods", "sizes"):  # a repeat would duplicate rows or a fit point
            vals = getattr(self, key)
            if len(set(vals)) < len(vals):
                raise ValueError(f"{key} must not repeat entries, got {vals!r}")
        for a, b in (("lambda1", "beta1"), ("lambda2", "beta2"), ("k_absolute", "k_percent")):
            if getattr(self, a) is not None and getattr(self, b) is not None:
                raise ValueError(f"give {a} or {b}, not both")
        if self.generator is not None:
            GenSpec(**self.generator)


CONFIG_KEYS = frozenset(f.name for f in dataclasses.fields(ExperimentConfig))

# CLI flag dest -> key inside the generator block; --gen-seed keeps clear of --rng-seed
GEN_FLAG_KEYS = {("gen_seed" if f.name == "rng_seed" else f.name): f.name
                 for f in dataclasses.fields(GenSpec)}


def load_config(path=None, overrides: dict | None = None) -> ExperimentConfig:
    """Read a JSON config file, check its types, and apply explicit overrides on top."""
    data: dict = {}
    try:
        if path is not None:
            with open(path, encoding="utf-8") as fh:
                data = json.load(fh)
            _check_types(ExperimentConfig, data)  # before the merge, which reads the block
        given = {k: v for k, v in (overrides or {}).items() if v is not None}
        gen = {key: given[flag] for flag, key in GEN_FLAG_KEYS.items() if flag in given}
        if gen:
            data["generator"] = {**(data.get("generator") or {}), **gen}
        data.update((k, v) for k, v in given.items() if k in CONFIG_KEYS and k != "generator")
        cfg = ExperimentConfig(**data)
    except TypeError as err:
        raise ValueError(f"malformed config: {err}") from None
    return cfg


def _load_raw(cfg: ExperimentConfig) -> Hypergraph:
    given = [cfg.generator is not None, cfg.dataset is not None,
             cfg.nverts is not None or cfg.simplices is not None]
    if sum(given) != 1:
        raise ValueError("give exactly one input: generator, dataset, or nverts+simplices")
    if cfg.generator is not None:
        return generate(GenSpec(**cfg.generator))
    if cfg.dataset is not None:
        return load_hyperedge_list(cfg.dataset)
    if cfg.nverts is None or cfg.simplices is None:
        raise ValueError("the paired format needs both nverts and simplices paths")
    return load_benson(cfg.nverts, cfg.simplices)


@dataclass
class PreparedInput:
    """The working hypergraph and its adjacency view.

    The triangle set is enumerated on the first read of ``simplices``,
    which only ``experiment`` makes.
    """

    work: Hypergraph
    view: AdjacencyView
    size_cap: int

    @functools.cached_property
    def simplices(self) -> TwoSimplexSet:
        return enumerate_two_simplices(self.work, size_cap=self.size_cap)

    def triangle_provenance(self) -> dict:
        """The cap and the count of hyperedges it leaves out of the triangle set."""
        skipped = np.count_nonzero(oversized_hyperedges(self.work, self.size_cap))
        return {"size_cap": self.size_cap, "skipped_hyperedges": int(skipped)}


def prepare_input(cfg: ExperimentConfig) -> PreparedInput:
    h = _load_raw(cfg)
    work = giant_component(h)[0]
    return PreparedInput(work, build_adjacency(work), cfg.size_cap)


def resolve_seed_counts(cfg: ExperimentConfig, gcc_size: int) -> list[int]:
    """Seed schedule as absolute counts; percent rounds half-up, floor 1."""
    if cfg.k_absolute is not None:
        return [int(k) for k in cfg.k_absolute]
    percents = cfg.k_percent if cfg.k_percent is not None else [3.0]
    return [max(1, int(math.floor(p / 100.0 * gcc_size + 0.5))) for p in percents]


def _outdir(cfg: ExperimentConfig) -> Path:
    path = Path(cfg.output_dir)
    root = os.environ.get(OUTPUT_ROOT_ENV)
    if root and not path.is_absolute():
        path = Path(root) / path
        # compared lexically, links unresolved: a ".." may not climb out of the root
        if not Path(os.path.abspath(path)).is_relative_to(os.path.abspath(root)):
            raise ValueError(f"output_dir {cfg.output_dir!r} leads outside {OUTPUT_ROOT_ENV}")
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write_provenance(outdir: Path, command: str, cfg: ExperimentConfig,
                      outputs: list[str], extra: dict | None = None) -> None:
    write_json(outdir / "provenance.json", {"command": command, "package_version": __version__,
                                            "config": dataclasses.asdict(cfg), "outputs": outputs,
                                            **(extra or {})})


def select_seeds(view: AdjacencyView, method: str, k: int, rng_seed: int) -> tuple[int, ...]:
    """Pick k seeds; the adaptive method scores at unit rates since its
    ranking does not depend on them."""
    if method == "cia":
        return cia_select(view, collective_influence(view, 1.0, 1.0), k)
    return baseline_select(view, k, method, rng_seed=rng_seed)


def cmd_generate(cfg: ExperimentConfig) -> int:
    if cfg.generator is None:
        raise ValueError("generate needs a generator block")
    spec = GenSpec(**cfg.generator)
    name = cfg.name or f"{spec.family}_n{spec.num_nodes}_m{spec.num_hyperedges}_s{spec.rng_seed}"
    if Path(name).name != name:  # the file must land in output_dir
        raise ValueError(f"name must be a bare file name, got {name!r}")
    h = generate(spec)
    outdir = _outdir(cfg)
    path = outdir / f"{name}.txt"
    save_hyperedge_list(h, path)
    if h.num_hyperedges == 0:
        print("warning: generated hypergraph has no hyperedges", file=sys.stderr)
    _write_provenance(outdir, "generate", cfg, [path.name],
                      extra={"generator_spec": dataclasses.asdict(spec),
                             "num_nodes": h.num_nodes,
                             "num_hyperedges": h.num_hyperedges})
    print(f"wrote {path} ({h.num_nodes} nodes, {h.num_hyperedges} hyperedges)")
    return 0


def _experiment_cells(cfg: ExperimentConfig, inp: PreparedInput):
    """Every (channel 1, channel 2, k) cell; a channel is a (lambda, beta)
    pair holding the lambda to rescale or the raw beta, the other None."""
    def grid(lambdas, betas):
        if betas is not None:
            return [(None, float(v)) for v in betas]
        return None if lambdas is None else [(float(v), None) for v in lambdas]

    grid1 = grid(cfg.lambda1, cfg.beta1)
    if grid1 is None:
        raise ValueError("experiment needs a lambda1 or beta1 grid")
    grid2 = grid(cfg.lambda2, cfg.beta2) or [(None, 0.0)]  # a given grid is never empty
    return list(itertools.product(grid1, grid2, resolve_seed_counts(cfg, inp.work.num_nodes)))


def _run_cell(cfg: ExperimentConfig, inp: PreparedInput, densities, cell_idx: int, cell,
              select):
    """All methods of one parameter cell, at rates rescaled by ``densities``
    (k1, k2) and seeded by ``select(method, k, rng_seed)``; any failure
    aborts the cell.  Every seed set is selected first, then one
    ``run_sir_sets`` call runs them all on the cell's one SIR stream."""
    (lam1, b1), (lam2, b2), k = cell
    ss = np.random.SeedSequence([cfg.rng_seed, cell_idx])
    sim_seed, sel_seed = (int(x) for x in ss.generate_state(2))
    shared = {"cell": cell_idx, "lambda1": lam1, "lambda2": lam2, "gamma": cfg.gamma, "k": k,
              "runs": cfg.runs}
    method = "-"
    try:
        # a rescaling fault is reported with method "-"; a raw beta is kept as given
        rescaled = rescale_params(lam1 or 0.0, lam2 or 0.0, *densities, cfg.gamma)
        b1 = rescaled[0] if b1 is None else b1
        b2 = rescaled[1] if b2 is None else b2
        seed_sets = []
        for method in cfg.methods:  # a selection fault is reported on its method
            # only random reads sel_seed; the other methods select once per k
            seed_sets.append(select(method, k, sel_seed if method == "random" else 0))
        method = cfg.methods[0]  # a raw beta outside [0, 1], or a run fault, on the first method
        params = EpidemicParams(beta1=b1, beta2=b2, gamma=cfg.gamma, rng_seed=sim_seed)
        details = list(zip(cfg.methods, run_sir_sets(inp.view, inp.simplices, seed_sets,
                                                     params, runs=cfg.runs)))
    except Exception as err:  # noqa: BLE001 - cell isolation is the contract
        # a failed cell has no statistics: every column but the shared ones stays empty
        return [{**dict.fromkeys(RESULT_COLUMNS), **shared, "method": method,
                 "error": f"{type(err).__name__}: {err}"}], []
    return [dict(shared, method=method, beta1=b1, beta2=b2, sigma_mean=stats.sigma_mean,
                 sigma_std=stats.sigma_std, fraction_of_gcc=stats.fraction_of_gcc,
                 non_absorbed=stats.non_absorbed, error="")
            for method, stats in details], details


def cmd_experiment(cfg: ExperimentConfig) -> int:
    inp = prepare_input(cfg)
    k1, k2 = simplex_densities(inp.work, inp.size_cap)
    # enumerate here, once: the cells share inp, and a failure exits before any cell runs
    inp.simplices  # noqa: B018
    cells = _experiment_cells(cfg, inp)
    outdir = _outdir(cfg)
    # one selection per (method, k, seed) across this call's cells; a
    # failure is not cached, so every cell needing that set fails alike
    select = functools.cache(functools.partial(select_seeds, inp.view))
    with ThreadPoolExecutor(max_workers=cfg.workers) as pool:
        results = list(pool.map(
            lambda item: _run_cell(cfg, inp, (k1, k2), item[0], item[1], select),
            enumerate(cells)))

    rows = [row for cell_rows, _ in results for row in cell_rows]
    detail_dir = outdir / "details"
    detail_dir.mkdir(exist_ok=True)
    outputs = ["results.csv"]
    for cell_idx, (_, details) in enumerate(results):
        for method, stats in details:
            dpath = detail_dir / f"cell{cell_idx:03d}_{method}.csv"
            write_csv(dpath, "run_detail", ("run", "sigma", "absorbed"),
                      ({"run": r, "sigma": int(s), "absorbed": int(a)}
                       for r, (s, a) in enumerate(zip(stats.sigma_samples, stats.absorbed))))
            outputs.append(f"details/{dpath.name}")
    write_csv(outdir / "results.csv", "experiment_results", RESULT_COLUMNS, rows)
    errors = [r for r in rows if r["error"]]
    _write_provenance(outdir, "experiment", cfg, outputs,
                      extra={"cells": len(cells), "failed_cells": len(errors),
                             "gcc_size": inp.work.num_nodes,
                             "k1_mean": k1, "k2_mean": k2,
                             **inp.triangle_provenance()})
    print(f"wrote {outdir / 'results.csv'}: {len(cells)} cells, "
          f"{len(rows)} rows, {len(errors)} failed")
    return 1 if errors else 0


def fit_loglog_slope(sizes, seconds) -> tuple[float, float]:
    """Least-squares slope and intercept of log(seconds) vs log(size)."""
    xs = np.log(np.asarray(sizes, dtype=float))
    ys = np.log(np.asarray(seconds, dtype=float))
    if len(xs) < 2:
        raise ValueError("need at least two sizes to fit a slope")
    slope, intercept = np.polyfit(xs, ys, 1)
    return float(slope), float(intercept)


def _bench_instance(cfg: ExperimentConfig, n: int) -> PreparedInput:
    """Giant component of an n-node, n-hyperedge ER draw of mean degree ~cfg.mean_degree."""
    p = math.sqrt(cfg.mean_degree / (n * (n - 1)))
    seed = int(np.random.SeedSequence([cfg.rng_seed, n]).generate_state(1)[0])
    h = generate(GenSpec("erdos_renyi", n, n, membership_p=p, rng_seed=seed))
    work = giant_component(h)[0]
    return PreparedInput(work, build_adjacency(work), cfg.size_cap)


def cmd_bench(cfg: ExperimentConfig) -> int:
    if len(cfg.sizes) < 2:  # checked before any timing, since the fit needs two points
        raise ValueError(f"bench needs at least two sizes to fit a slope, got {cfg.sizes}")
    n = min(cfg.sizes)  # the draw's membership probability must not exceed 1
    if cfg.mean_degree > n * (n - 1):
        raise ValueError(f"mean_degree must be at most n(n-1) = {n * (n - 1)} at size {n}, "
                         f"got {cfg.mean_degree!r}")
    rows = []
    for n in cfg.sizes:
        inp = _bench_instance(cfg, n)
        k = resolve_seed_counts(cfg, inp.work.num_nodes)[0]
        sel_seed = int(np.random.SeedSequence([cfg.rng_seed, n, 1]).generate_state(1)[0])
        for method in cfg.methods:
            select_seeds(inp.view, method, k, sel_seed)  # warmup
            best = math.inf
            for _ in range(cfg.bench_repeats):
                t0 = time.perf_counter()
                select_seeds(inp.view, method, k, sel_seed)
                best = min(best, time.perf_counter() - t0)
            rows.append({"method": method, "n": n, "k": k, "seconds": best})
    fit_rows = []
    for method in cfg.methods:
        slope, intercept = fit_loglog_slope(
            cfg.sizes, [r["seconds"] for r in rows if r["method"] == method])
        fit_rows.append({"method": method, "slope": slope, "intercept": intercept})
    outdir = _outdir(cfg)
    write_csv(outdir / "bench.csv", "bench_times",
               ("method", "n", "k", "seconds"), rows)
    write_csv(outdir / "bench_fit.csv", "bench_fit",
               ("method", "slope", "intercept"), fit_rows)
    _write_provenance(outdir, "bench", cfg, ["bench.csv", "bench_fit.csv"],
                      extra={"fits": {r["method"]: r["slope"] for r in fit_rows}})
    for r in fit_rows:
        print(f"{r['method']}: slope {r['slope']:.3f}")
    return 0


def cmd_spectrum(cfg: ExperimentConfig) -> int:
    if cfg.beta1 is not None and len(cfg.beta1) > 1:
        raise ValueError(f"spectrum takes one beta1 value, got {cfg.beta1}")
    b1 = 1.0 if cfg.beta1 is None else float(cfg.beta1[0])
    inp = prepare_input(cfg)
    op = build_wnb(inp.view, b1, cfg.gamma)
    res = leading_eigen(op)
    bstar = critical_beta1(inp.view, gamma=cfg.gamma)
    outdir = _outdir(cfg)
    doc = {"lambda_c": res.lambda_c, "iterations": res.iterations, "residual": res.residual,
           "converged": res.converged, "num_links": len(res.eigvec), "beta1": b1,
           "gamma": cfg.gamma, "beta1_star": bstar if math.isfinite(bstar) else "inf",
           "num_nodes": inp.work.num_nodes}
    write_json(outdir / "spectrum.json", doc)
    outputs = ["spectrum.json"]
    if cfg.dump_operator:
        op.dump_coo(outdir / "operator.txt")
        outputs.append("operator.txt")
    _write_provenance(outdir, "spectrum", cfg, outputs, extra=inp.triangle_provenance())
    print(f"lambda_c={res.lambda_c:.10g} beta1_star={doc['beta1_star']}")
    return 0


def cmd_fig3(cfg: ExperimentConfig) -> int:
    """Top-overlap curve of the CI ranking, scored at unit rates since the
    ranking does not depend on them."""
    inp = prepare_input(cfg)
    curve = top_overlap_curve(inp.view, collective_influence(inp.view, 1.0, 1.0), cfg.n_grid)
    rows = [{"n_percent": float(nn), "overlap_probability": p}
            for nn, p in zip(cfg.n_grid, curve)]
    outdir = _outdir(cfg)
    write_csv(outdir / "fig3.csv", "overlap_sweep",
               ("n_percent", "overlap_probability"), rows)
    _write_provenance(outdir, "fig3", cfg, ["fig3.csv"],
                      extra={"gcc_size": inp.work.num_nodes, **inp.triangle_provenance()})
    print(f"wrote {outdir / 'fig3.csv'} ({len(rows)} rows)")
    return 0


def cmd_stats(cfg: ExperimentConfig) -> int:
    h = _load_raw(cfg)
    name = cfg.name or Path(cfg.dataset or cfg.nverts or "generated").stem
    retained = dataset_stats(h, size_cap=cfg.size_cap)
    deduped = dataset_stats(h, size_cap=cfg.size_cap, dedup=True)
    outdir = _outdir(cfg)
    write_stats_table({name: retained, f"{name}/dedup": deduped},
                      outdir / "stats.csv")
    write_json(outdir / "stats.json",
               {"name": name, "retained": dataclasses.asdict(retained),
                "dedup": dataclasses.asdict(deduped)})
    _write_provenance(outdir, "stats", cfg, ["stats.csv", "stats.json"])
    print(f"{name}: n={retained.n} m={retained.m} gcc={retained.gcc_size} "
          f"mean_node_degree={retained.mean_node_degree:.4g}")
    return 0


COMMANDS = {
    "generate": cmd_generate,
    "experiment": cmd_experiment,
    "bench": cmd_bench,
    "spectrum": cmd_spectrum,
    "fig3": cmd_fig3,
    "stats": cmd_stats,
}


def _flag_kwargs(tp) -> dict:
    """argparse keywords for a field annotated ``tp``: ``X | None`` reads
    as X, ``bool`` as --x/--no-x, ``list[T]`` as one or more T and
    ``tuple[T, ...]`` as exactly that many T."""
    if typing.get_origin(tp) is types.UnionType:
        tp = next(arg for arg in typing.get_args(tp) if arg is not type(None))
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if tp is bool:
        return {"action": argparse.BooleanOptionalAction}
    if origin in (list, tuple):
        return {"nargs": "+" if origin is list else len(args), "type": args[0]}
    return {"type": tp}


def _check_types(cls, doc, what: str = "config") -> None:
    """ValueError naming the key unless ``doc`` maps fields of ``cls`` to values
    of their annotated types (``_fits``); a generator block against ``GenSpec``."""
    hints = typing.get_type_hints(cls)
    if not isinstance(doc, dict):
        raise ValueError(f"{what} must be a JSON object, got {doc!r}")
    if set(doc) - set(hints):
        raise ValueError(f"unknown {what} keys {sorted(set(doc) - set(hints))}")
    for key, value in doc.items():
        if not _fits(value, hints[key]):
            ann = cls.__annotations__[key]
            gloss = "; ".join(t for w, t in NUMBER_TERMS.items() if w in re.findall(r"\w+", ann))
            raise ValueError(f"{key} must be {ann}{gloss and f' ({gloss})'}, got {value!r}")
    if doc.get("generator") is not None:
        _check_types(GenSpec, doc["generator"], "generator")


def build_parser() -> argparse.ArgumentParser:
    """One parser for every command: a ``command`` positional, then one
    flag per config field and per generator field, in field order."""
    parser = argparse.ArgumentParser(
        prog="hypersir", usage="%(prog)s {" + ",".join(COMMANDS) + "} [flags]",
        description="Contagion, thresholds, and seed selection on hypergraphs.",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", help="JSON config file; flags override its keys")
    for key, tp in typing.get_type_hints(ExperimentConfig).items():
        if key != "generator":
            parser.add_argument("--" + key.replace("_", "-"), dest=key, **_flag_kwargs(tp))
    gen_hints = typing.get_type_hints(GenSpec)
    gen = parser.add_argument_group("generator block overrides")
    for dest, key in GEN_FLAG_KEYS.items():
        gen.add_argument("--" + dest.replace("_", "-"), dest=dest, **_flag_kwargs(gen_hints[key]))
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    overrides = {k: v for k, v in vars(args).items() if k not in ("command", "config")}
    try:
        cfg = load_config(args.config, overrides)
        with warnings.catch_warnings():  # one clamp warning per clamped cell, not per message
            warnings.filterwarnings("always", r"beta[12] = .* clamped to 1")
            return COMMANDS[args.command](cfg)
    except (ValueError, OSError, json.JSONDecodeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
