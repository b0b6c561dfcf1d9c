"""The three benchmark workloads.

Each workload turns the workload seed into inputs, builds what the
program needs before its first op (``build``, timed as set-up), computes
its reference once (``reference``, not timed), and then runs ops: one
``op`` call is one user-visible unit of work, and ``check`` compares its
output with the reference.  Every file an op writes goes under the
workload's scratch directory and is removed once checked.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
from pathlib import Path

import numpy as np

import hypersir.cli
import hypersir.message_passing
import hypersir.sir
from hypersir import EpidemicParams, GenSpec, Hypergraph, build_adjacency, enumerate_two_simplices
from hypersir.cli import load_config, prepare_input
from hypersir.data_io import save_hyperedge_list
from hypersir.generators import generate

import reference
from oracles import exact_sigma_distribution


def instance_spec(seed: int) -> GenSpec:
    """The scale-free instance shared by ``sweep`` and ``threshold``."""
    return GenSpec("scale_free", 5000, 10000, exponent=2.0, size_range=(2, 4),
                   degree_range=(2, 60), rng_seed=seed)


def _quiet_main(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return hypersir.cli.main(argv)


class Workload:
    name = ""
    cycle = 1  # ops rotate over this many inputs

    def __init__(self, seed: int, workdir: Path):
        self.seed = int(seed)
        self.workdir = Path(workdir)
        self.workdir.mkdir(parents=True, exist_ok=True)

    def build(self) -> None:
        raise NotImplementedError

    def reference(self) -> None:
        raise NotImplementedError

    def op(self, i: int):
        raise NotImplementedError

    def check(self, i: int, result) -> list[str]:
        raise NotImplementedError

    def inputs(self) -> bytes:
        """Every generated input, serialized; equal seeds give equal bytes."""
        raise NotImplementedError

    def _outdir(self, i: int) -> Path:
        return self.workdir / f"{self.name}-{i}"

    def discard(self, i: int) -> None:
        shutil.rmtree(self._outdir(i), ignore_errors=True)


class Sweep(Workload):
    """One in-process ``hypersir experiment`` on the scale-free instance."""

    name = "sweep"
    LAMBDA1 = [0.8, 1.2, 1.6]
    LAMBDA2 = [0.0, 2.0]
    METHODS = ["cia", "hadp", "random"]
    ROWS = len(LAMBDA1) * len(LAMBDA2) * len(METHODS)

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self.workers = 1  # the traced run also times --workers 2
        self.config_path = self.workdir / "sweep.json"

    def config(self) -> dict:
        spec = instance_spec(self.seed)
        return {
            "generator": {
                "family": spec.family, "num_nodes": spec.num_nodes,
                "num_hyperedges": spec.num_hyperedges, "exponent": spec.exponent,
                "size_range": list(spec.size_range),
                "degree_range": list(spec.degree_range), "rng_seed": spec.rng_seed,
            },
            "lambda1": self.LAMBDA1,
            "lambda2": self.LAMBDA2,
            "methods": self.METHODS,
            "k_percent": [3],
            "runs": 20,
            "rng_seed": self.seed,
            "workers": 1,
        }

    def inputs(self) -> bytes:
        return json.dumps(self.config(), sort_keys=True).encode()

    def build(self) -> None:
        self.config_path.write_bytes(self.inputs())

    def reference(self) -> None:
        pass  # the sweep check is self-contained (see reference.check_sweep)

    def op(self, i: int):
        out = self._outdir(i)
        code = _quiet_main(["experiment", "--config", str(self.config_path),
                            "--output-dir", str(out), "--workers", str(self.workers)])
        return code, out

    def check(self, i: int, result) -> list[str]:
        code, out = result
        bad = [] if code == 0 else [f"experiment exited {code}"]
        return bad + reference.check_sweep(reference.read_results(out / "results.csv"),
                                           self.ROWS)


class Threshold(Workload):
    """``hypersir spectrum`` on a hyperedge-list file, then ``mp_solve``."""

    name = "threshold"
    BETA1_FACTOR = 1.5
    BETA2 = 0.1
    NUM_SEEDS = 3

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self.dataset = self.workdir / "instance.txt"
        self.rho_ref: float | None = None

    def inputs(self) -> bytes:
        return self.dataset.read_bytes()

    def build(self) -> None:
        save_hyperedge_list(generate(instance_spec(self.seed)), self.dataset)
        self.inp = prepare_input(load_config(None, {"dataset": str(self.dataset)}))
        rng = np.random.default_rng(self.seed)
        n = self.inp.work.num_nodes
        self.seeds = sorted(int(v) for v in rng.choice(n, size=self.NUM_SEEDS, replace=False))

    def reference(self) -> None:
        self.rho_ref = reference.nb_spectral_radius(self.inp.view)
        self.params = EpidemicParams(beta1=self.BETA1_FACTOR / self.rho_ref,
                                     beta2=self.BETA2, gamma=1)

    def op(self, i: int):
        out = self._outdir(i)
        code = _quiet_main(["spectrum", "--dataset", str(self.dataset),
                            "--output-dir", str(out)])
        state = hypersir.message_passing.mp_solve(
            self.inp.view, self.inp.simplices, self.params, self.seeds)
        return code, out, state

    def check(self, i: int, result) -> list[str]:
        code, out, state = result
        bad = [] if code == 0 else [f"spectrum exited {code}"]
        with open(out / "spectrum.json") as fh:
            doc = json.load(fh)
        bad += reference.check_spectrum(doc, self.rho_ref, self.inp.work.num_nodes)
        return bad + reference.check_messages(state)


class TinyMC(Workload):
    """One ``run_sir`` ensemble on one 4-node instance per op."""

    name = "tiny_mc"
    RUNS = 2000
    # (beta1, beta2, gamma, every n-th rooted class), as in acceptance criterion 01
    PARAM_SETS = ((0.3, 0.6, 1, 1), (0.25, 0.5, 2, 5))

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        classes = reference.rooted_classes()
        cases = [(edges, b1, b2, g)
                 for b1, b2, g, stride in self.PARAM_SETS
                 for edges in classes[::stride]]
        order = np.random.default_rng(self.seed).permutation(len(cases))
        self.cases = [cases[k] for k in order]
        self.cycle = len(self.cases)
        self.bounds: list | None = None

    def rng_seed(self, i: int) -> int:
        return int(np.random.SeedSequence([self.seed, i]).generate_state(1)[0])

    def inputs(self) -> bytes:
        return json.dumps([[c, self.rng_seed(i)] for i, c in enumerate(self.cases)]).encode()

    def build(self) -> None:
        self.views = []
        for edges, *_ in self.cases:
            h = Hypergraph(4, [list(e) for e in edges])
            self.views.append((build_adjacency(h), enumerate_two_simplices(h)))

    def reference(self) -> None:
        self.bounds = [
            reference.count_bounds(
                exact_sigma_distribution(4, [list(e) for e in edges], [0], b1, b2, gamma=g),
                self.RUNS)
            for edges, b1, b2, g in self.cases]

    def op(self, i: int):
        k = i % len(self.cases)
        _, b1, b2, g = self.cases[k]
        view, simplices = self.views[k]
        params = EpidemicParams(beta1=b1, beta2=b2, gamma=g, rng_seed=self.rng_seed(i))
        return hypersir.sir.run_sir(view, simplices, [0], params, runs=self.RUNS)

    def check(self, i: int, result) -> list[str]:
        return reference.check_histogram(result, self.bounds[i % len(self.cases)])


WORKLOADS = {w.name: w for w in (Sweep, Threshold, TinyMC)}
