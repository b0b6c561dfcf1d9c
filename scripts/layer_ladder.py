#!/usr/bin/env python3
"""Time every pipeline layer on scale-free instances of the given sizes.

Usage (from the root of the tree to measure):

    PYTHONPATH=src python3 scripts/layer_ladder.py N [N ...]

The instance is ``GenSpec("scale_free", N, 2N, exponent=2.0,
size_range=(2, 4), degree_range=(2, 60), rng_seed=0)``.  The layers run
on its giant component in this order: ``generate``, ``giant_component``,
``build_adjacency``, ``enumerate_two_simplices``, ``build_link_index``,
``leading_eigen`` (the rate-free operator on those links, whose radius
gives ``beta1* = 1 / rho``), ``mp_solve`` at ``beta1 = 1.5 beta1*``,
``beta2 = 0``, seeds ``[0, 1, 2]`` and ``rng_seed`` 1,
``collective_influence`` at unit rates, ``cia_select``, ``hadp`` and
``hsdp`` at k = 3% of the GCC, and last ``run_sir`` (20 runs, same
rates, seeds and stream).  ``run_sir`` goes last because its sample
arrays would otherwise raise the memory high-water mark read after
every later layer.

It prints one JSON object keyed by N.  Per layer: ``s``, the best of
``REPEATS`` calls in seconds, and ``rss_mb``, the process's RSS
high-water mark after the layer.  Each call starts with the previous
repeat's result released, so the mark reads as after one call of the
layer on top of the earlier layers' results.  The mark only grows, so
run one N per process for a clean memory reading of each size.  Beside
them: the solvers' iteration counts and the GCC node, directed-link and
triple counts.
"""

import argparse
import json
import math
import resource
import time

from hypersir import (EpidemicParams, GenSpec, baseline_select, build_adjacency,
                      build_link_index, cia_select, collective_influence,
                      enumerate_two_simplices, generate, giant_component, leading_eigen,
                      mp_solve, run_sir)
from hypersir.message_passing import WnbOperator

SEEDS = [0, 1, 2]
REPEATS = 3


def ladder(n: int) -> dict:
    layers = {}

    def layer(name, fn, *args, **kwargs):
        best = math.inf
        for _ in range(REPEATS):
            out = None  # release the previous repeat's result before the call
            t0 = time.perf_counter()
            out = fn(*args, **kwargs)
            best = min(best, time.perf_counter() - t0)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        layers[name] = {"s": round(best, 6), "rss_mb": round(rss_mb, 1)}
        return out

    spec = GenSpec("scale_free", n, 2 * n, exponent=2.0, size_range=(2, 4),
                   degree_range=(2, 60), rng_seed=0)
    h = layer("generate", generate, spec)
    gcc = layer("giant_component", giant_component, h)[0]
    view = layer("build_adjacency", build_adjacency, gcc)
    simplices = layer("enumerate_two_simplices", enumerate_two_simplices, gcc)
    links = layer("build_link_index", build_link_index, view)
    eig = layer("leading_eigen", leading_eigen, WnbOperator(beta1=1.0, gamma=1.0, links=links))
    params = EpidemicParams(beta1=1.5 / eig.lambda_c, beta2=0.0, gamma=1, rng_seed=1)
    state = layer("mp_solve", mp_solve, view, simplices, params, SEEDS)
    scores = layer("collective_influence", collective_influence, view, 1.0, 1.0)
    k = max(1, math.floor(0.03 * gcc.num_nodes + 0.5))
    layer("cia_select", cia_select, view, scores, k)
    for method in ("hadp", "hsdp"):
        layer(method, baseline_select, view, k, method)
    layer("run_sir", run_sir, view, simplices, SEEDS, params, runs=20)
    return {
        "layers": layers,
        "iterations": {"leading_eigen": eig.iterations, "mp_solve": state.iterations},
        "gcc_nodes": gcc.num_nodes,
        "links": links.num_links,
        "triples": simplices.num_triples,
        "k": k,
    }


def cli() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("sizes", type=int, nargs="+", metavar="N", help="node counts")
    args = parser.parse_args()
    print(json.dumps({str(n): ladder(n) for n in args.sizes}, indent=1))


if __name__ == "__main__":
    cli()
