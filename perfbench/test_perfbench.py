"""Tests of the benchmark itself: deterministic inputs, checks that can
fail, trace accounting, and the metric names promised in BENCHMARK.json.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import reference
from harness import E2E_UNITS, Runner
from layers import PER_LAYER
from oracles import exact_sigma_distribution
from tracing import Tracer
from workloads import Sweep, Threshold, TinyMC

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _failures(wl, ops: int) -> int:
    runner = Runner(wl)
    runner.next_op = 1000  # clear of the ops other runners in a test used
    for _ in range(ops):
        runner.run_op()
    return runner.failed


@pytest.fixture(scope="module")
def threshold(tmp_path_factory):
    wl = Threshold(7, tmp_path_factory.mktemp("threshold"))
    wl.build()
    wl.reference()
    return wl


@pytest.mark.parametrize("cls", [Sweep, Threshold, TinyMC])
def test_same_seed_gives_same_inputs(cls, tmp_path):
    def inputs(seed, sub):
        wl = cls(seed, tmp_path / sub)
        wl.build()
        return wl.inputs()

    first = inputs(11, "a")
    assert inputs(11, "b") == first
    assert inputs(12, "c") != first


def test_tiny_mc_passes_its_oracle_and_fails_a_wrong_one(tmp_path):
    wl = TinyMC(3, tmp_path)
    wl.build()
    wl.reference()
    assert _failures(wl, 20) == 0
    wl.bounds = [
        reference.count_bounds(
            exact_sigma_distribution(4, [list(e) for e in edges], [0], b1 + 0.2, b2, gamma=g),
            wl.RUNS)
        for edges, b1, b2, g in wl.cases]
    assert _failures(wl, 20) > 0


def test_count_bounds_cover_the_bulk_and_reject_the_tails():
    lo, hi = reference.count_bounds({1: 0.5, 2: 0.5}, 2000)[0]
    assert lo < 1000 < hi
    assert 1000 - lo < 6 * (2000 * 0.25) ** 0.5 + 2
    assert reference.count_bounds({1: 1.0}, 2000)[1] == (0, 0)


def test_threshold_matches_arpack_and_fails_a_wrong_reference(threshold):
    assert _failures(threshold, 1) == 0
    rho = threshold.rho_ref
    try:
        threshold.rho_ref = rho * (1 + 10 * reference.LAMBDA_RTOL)
        assert _failures(threshold, 1) == 1
    finally:
        threshold.rho_ref = rho


def test_message_check_flags_an_unconverged_or_invalid_state(threshold):
    state = threshold.op(0)[2]
    shutil.rmtree(threshold._outdir(0))
    assert reference.check_messages(state) == []
    state.converged = False
    assert reference.check_messages(state)
    state.converged = True
    state.node_s = state.node_s + 0.5
    assert reference.check_messages(state)


def test_sweep_rows_pass_and_each_defect_fails(tmp_path):
    wl = Sweep(5, tmp_path)
    wl.build()
    code, out = wl.op(0)
    rows = reference.read_results(out / "results.csv")
    assert code == 0
    assert reference.check_sweep(rows, Sweep.ROWS) == []

    def mutated(**changes):
        bad = [dict(r) for r in rows]
        bad[0].update(changes)
        return reference.check_sweep(bad, Sweep.ROWS)

    assert reference.check_sweep(rows[1:], Sweep.ROWS)
    assert mutated(error="ValueError: boom")
    assert mutated(non_absorbed="1")
    assert mutated(fraction_of_gcc="0")
    group = [r for r in rows if (r["method"], r["lambda2"]) == (rows[0]["method"], rows[0]["lambda2"])]
    top = max(group, key=lambda r: float(r["lambda1"]))
    falling = [dict(r, fraction_of_gcc="1e-9") if r is top else r for r in rows]
    assert reference.check_sweep(falling, Sweep.ROWS)


def test_trace_self_times_account_for_the_op_and_patches_are_undone(tmp_path):
    import hypersir.cli
    import hypersir.message_passing

    original = hypersir.message_passing.build_link_index
    tracer = Tracer()
    with tracer.patched():
        assert hypersir.message_passing.build_link_index is not original
        with tracer.op(0):
            hypersir.cli.main(["spectrum", "--num-nodes", "60", "--num-hyperedges", "120",
                               "--family", "erdos_renyi", "--membership-p", "0.05",
                               "--output-dir", str(tmp_path)])
    assert hypersir.message_passing.build_link_index is original
    row = tracer.per_op()[0]
    selfs = sum(v for k, v in row.items() if k.endswith(".self_s"))
    assert selfs == pytest.approx(row["op_s"], rel=1e-9)
    assert row["hypergraph.build_link_index.calls"] == 2
    assert row["message_passing.leading_eigen.calls"] == 2


def test_benchmark_json_names_the_metrics_the_harness_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == E2E_UNITS
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == ["sweep", "threshold", "tiny_mc"]


def test_refuses_to_run_without_the_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "tiny_mc",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
