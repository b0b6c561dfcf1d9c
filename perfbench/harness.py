"""Measurement loop of the benchmark: set-up, timed ops, and the traced run."""

from __future__ import annotations

import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from layers import PER_LAYER, layer_metrics
from tracing import Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

SETUP_REPEATS = 3
IMPORT_PROBE = ("import time; t = time.perf_counter(); import hypersir, hypersir.cli; "
                "print(time.perf_counter() - t)")

E2E_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "latency_p50_s": "s", "peak_rss_mb": "MB"}


def import_seconds() -> float:
    """Import time of the package in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1")
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, env=env,
                         capture_output=True, text=True, timeout=120, check=True)
    return float(out.stdout.strip())


class Runner:
    """Runs ops of one workload and keeps every latency and failure."""

    def __init__(self, wl):
        self.wl = wl
        self.next_op = 0
        self.attempted = 0
        self.failed = 0

    def run_op(self, tracer=None) -> float:
        i = self.next_op
        self.next_op += 1
        t0 = time.perf_counter()
        try:
            if tracer is None:
                result = self.wl.op(i)
            else:
                with tracer.op(i):
                    result = self.wl.op(i)
            elapsed = time.perf_counter() - t0
            problems = self.wl.check(i, result)
        except Exception as err:  # noqa: BLE001 - a failed op is counted, not fatal
            elapsed = time.perf_counter() - t0
            problems = [f"{type(err).__name__}: {err}"]
        finally:
            self.wl.discard(i)
        self.attempted += 1
        if problems:
            self.failed += 1
            print(f"op {i} failed: {'; '.join(problems)}", file=sys.stderr)
        return elapsed

    def run_for(self, seconds: float, tracer=None) -> list[float]:
        """Closed loop, one op at a time, until ``seconds`` have passed and
        the ops cover each of the workload's ``cycle`` inputs equally often."""
        end = time.perf_counter() + seconds
        lat = [self.run_op(tracer)]
        while time.perf_counter() < end or len(lat) % self.wl.cycle:
            lat.append(self.run_op(tracer))
        return lat

    def setup(self, repeats: int) -> list[float]:
        """Build inputs and run one warm-up op, ``repeats`` times.

        The reference is computed once, after the first build, and is not
        part of the returned set-up seconds.
        """
        secs = []
        for k in range(repeats):
            t0 = time.perf_counter()
            self.wl.build()
            built = time.perf_counter() - t0
            if k == 0:
                self.wl.reference()
            secs.append(built + self.run_op())
        return secs


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(len(ordered) * q / 100) - 1)]


def end_to_end(wl, seconds: float) -> tuple[dict, list[str], Runner]:
    runner = Runner(wl)
    imports = [import_seconds() for _ in range(SETUP_REPEATS)]
    builds = runner.setup(SETUP_REPEATS)
    lat = runner.run_for(seconds)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    values = {
        "setup_s": (statistics.median(imports) + statistics.median(builds), SETUP_REPEATS),
        "ops_per_s": (len(lat) / sum(lat), len(lat)),
        "latency_p50_s": (statistics.median(lat), len(lat)),
        "peak_rss_mb": (rss_mb, 1),
    }
    metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, (v, _) in values.items()}
    lines = [f"  {k:<16} {v:.6g} {E2E_UNITS[k]} (n={n})" for k, (v, n) in values.items()]
    if len(lat) >= 100:
        lines.append(f"  {'latency_p90_s':<16} {percentile(lat, 90):.6g} s (n={len(lat)})")
    return metrics, lines, runner


def per_layer(wl, seconds: float) -> tuple[dict, list[str], Runner]:
    runner = Runner(wl)
    runner.setup(1)
    phases = 3 if wl.name == "sweep" else 2
    plain = runner.run_for(seconds / phases)
    tracer = Tracer()
    with tracer.patched():
        traced = runner.run_for(seconds / phases, tracer)
    pooled = None
    if wl.name == "sweep":
        wl.workers = 2
        pooled = runner.run_for(seconds / phases)
        wl.workers = 1
    values = layer_metrics(tracer.per_op(), plain, pooled)
    metrics = {k: {"value": values[k], "unit": PER_LAYER[k][0]} for k in PER_LAYER}
    lines = [f"  medians over {len(traced)} traced ops"]
    lines += [f"  {k:<42} {values[k]:.6g} {PER_LAYER[k][0]}" for k in PER_LAYER]
    return metrics, lines, runner


def run_one(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        wl = WORKLOADS[name](seed, workdir)
        measure = per_layer if trace else end_to_end
        metrics, lines, runner = measure(wl, seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"{name} seed={seed} trace={int(trace)}: {runner.attempted} ops, "
          f"{runner.failed} failed")
    print("\n".join(lines))
    print(f"  {'error_rate':<16} {runner.failed / runner.attempted:.6g} "
          f"({runner.failed}/{runner.attempted})")
    return {"correct": runner.failed == 0, "attempted": runner.attempted,
            "failed": runner.failed, "metrics": metrics}
