"""Experiment harness: config handling, subcommands, output contracts."""

import argparse
import collections
import csv
import json
import os
import shlex
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import hypersir as hs
import hypersir.cli as cli
from hypersir.cli import (
    ExperimentConfig,
    fit_loglog_slope,
    load_config,
    main,
    resolve_seed_counts,
)

ROOT = Path(__file__).resolve().parent.parent

SF_FLAGS = ["--family", "scale_free", "--num-nodes", "120",
            "--num-hyperedges", "200", "--exponent", "2",
            "--size-range", "2", "3", "--degree-range", "1", "15",
            "--gen-seed", "4"]


def triangle_file(tmp_path):
    p = tmp_path / "tri.txt"
    p.write_text("0 1 2\n")
    return p


def sf_file(tmp_path):
    out = tmp_path / "gen"
    assert main(["generate", *SF_FLAGS, "--output-dir", str(out)]) == 0
    return out / "scale_free_n120_m200_s4.txt"


def test_generate_round_trip(tmp_path):
    path = sf_file(tmp_path)
    assert path.exists()
    spec = hs.GenSpec("scale_free", 120, 200, exponent=2.0,
                      size_range=(2, 3), degree_range=(1, 15), rng_seed=4)
    direct = hs.generate(spec)
    loaded = hs.load_hyperedge_list(path)
    # nodes in no hyperedge are invisible to the text format; everything
    # else survives the round trip unchanged
    covered = {v for e in direct.hyperedges for v in e}
    assert loaded.num_nodes == len(covered)
    a, b = hs.dataset_stats(loaded), hs.dataset_stats(direct)
    for f in ("m", "gcc_size", "mean_node_degree", "mean_hyperdegree",
              "k1_mean", "k2_mean"):
        assert getattr(a, f) == getattr(b, f)
    prov = json.loads((tmp_path / "gen" / "provenance.json").read_text())
    assert prov["command"] == "generate"
    assert prov["generator_spec"]["rng_seed"] == 4
    assert path.name in prov["outputs"]


def test_generate_same_seed_byte_identical(tmp_path):
    a = sf_file(tmp_path / "a")
    b = sf_file(tmp_path / "b")
    assert a.read_bytes() == b.read_bytes()


def test_generate_empty_warns(tmp_path, capsys):
    code = main(["generate", "--family", "erdos_renyi", "--num-nodes", "20",
                 "--num-hyperedges", "10", "--membership-p", "0",
                 "--output-dir", str(tmp_path)])
    assert code == 0
    assert "no hyperedges" in capsys.readouterr().err
    name = "erdos_renyi_n20_m10_s0.txt"
    assert (tmp_path / name).read_text() == ""


def test_experiment_zero_rates_gives_seed_count(tmp_path):
    data = sf_file(tmp_path)
    out = tmp_path / "exp"
    code = main(["experiment", "--dataset", str(data), "--beta1", "0",
                 "--beta2", "0", "--k-absolute", "4", "--methods", "cia",
                 "random", "degree", "--runs", "10",
                 "--output-dir", str(out)])
    assert code == 0
    rows = [r for r in (out / "results.csv").read_text().splitlines()[2:]]
    assert len(rows) == 3
    for row in rows:
        cells = row.split(",")
        assert cells[9] == "4" and cells[10] == "0"   # sigma_mean, sigma_std
        assert cells[13] == ""                         # no error


def test_experiment_deterministic_and_parallel_equal(tmp_path):
    data = sf_file(tmp_path)
    texts = []
    for i, workers in enumerate(("1", "1", "2")):
        out = tmp_path / f"run{i}"
        code = main(["experiment", "--dataset", str(data),
                     "--lambda1", "0.8", "1.1", "--lambda2", "1.0",
                     "--k-percent", "3", "--methods", "cia", "random",
                     "--runs", "10", "--rng-seed", "9",
                     "--workers", workers, "--output-dir", str(out)])
        assert code == 0
        texts.append((out / "results.csv").read_bytes())
    assert texts[0] == texts[1] == texts[2]


def test_experiment_seed_sets_shared_by_more_workers_than_cores(tmp_path):
    # cells share one seed-set dict; frequent thread switches must not
    # change any output byte
    data = sf_file(tmp_path)
    outputs = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for workers in ("1", "6"):
            out = tmp_path / f"w{workers}"
            assert main(["experiment", "--dataset", str(data),
                         "--lambda1", "0.6", "0.9", "1.2", "--lambda2", "0", "1",
                         "--k-absolute", "2", "3", "--methods", "cia", "hadp", "degree",
                         "random", "--runs", "2", "--workers", workers,
                         "--output-dir", str(out)]) == 0
            outputs.append({p.relative_to(out): p.read_bytes()
                            for p in sorted(out.rglob("*.csv"))})
    finally:
        sys.setswitchinterval(interval)
    assert len(outputs[0]) == 1 + 12 * 4
    assert outputs[0] == outputs[1]


def test_experiment_cell_errors_isolated(tmp_path):
    p = tmp_path / "path.txt"
    p.write_text("0 1\n1 2\n2 3\n")
    out = tmp_path / "exp"
    code = main(["experiment", "--dataset", str(p), "--lambda1", "0.5",
                 "--lambda2", "0", "2.0", "--k-absolute", "1",
                 "--methods", "degree", "--runs", "5",
                 "--output-dir", str(out)])
    assert code == 1
    lines = (out / "results.csv").read_text().splitlines()
    assert lines[0].startswith("# schema=experiment_results")
    good = [l for l in lines[2:] if l.endswith(",")]
    bad = [l for l in lines[2:] if "no triangles" in l]
    assert len(good) == 1 and len(bad) == 1
    # a rescaling fault comes before any method runs, so it names none
    assert good[0].split(",")[1] == "degree" and bad[0].split(",")[1] == "-"
    assert (out / "details" / "cell000_degree.csv").exists()
    assert not (out / "details" / "cell001_degree.csv").exists()


def test_experiment_detail_files_match_summary(tmp_path):
    data = sf_file(tmp_path)
    out = tmp_path / "exp"
    assert main(["experiment", "--dataset", str(data), "--beta1", "0.1",
                 "--k-absolute", "3", "--methods", "hyperdegree",
                 "--runs", "7", "--output-dir", str(out)]) == 0
    detail = (out / "details" / "cell000_hyperdegree.csv").read_text().splitlines()
    assert detail[1] == "run,sigma,absorbed"
    sigmas = [int(l.split(",")[1]) for l in detail[2:]]
    assert len(sigmas) == 7
    summary = (out / "results.csv").read_text().splitlines()[2].split(",")
    assert float(summary[9]) == pytest.approx(np.mean(sigmas))


def test_seed_count_resolution():
    cfg = ExperimentConfig(k_percent=[3.0])
    assert resolve_seed_counts(cfg, 50) == [2]      # 1.5 rounds half-up
    assert resolve_seed_counts(cfg, 175) == [5]     # 5.25 rounds down
    assert resolve_seed_counts(ExperimentConfig(k_percent=[0.1]), 50) == [1]
    assert resolve_seed_counts(ExperimentConfig(k_absolute=[7, 2]), 50) == [7, 2]
    assert resolve_seed_counts(ExperimentConfig(), 100) == [3]


def test_config_validation():
    with pytest.raises(ValueError, match="known"):
        ExperimentConfig(methods=["pagerank"])
    with pytest.raises(ValueError, match="0, 100"):
        ExperimentConfig(k_percent=[0.0])
    for pair in (("lambda1", "beta1"), ("lambda2", "beta2"), ("k_absolute", "k_percent")):
        with pytest.raises(ValueError, match=f"give {pair[0]} or {pair[1]}, not both"):
            ExperimentConfig(**dict.fromkeys(pair, [1]))
    with pytest.raises(ValueError, match="non-empty"):
        ExperimentConfig(lambda1=[])
    ExperimentConfig(k_percent=[100.0])


def test_config_file_and_flag_override(tmp_path):
    cfgp = tmp_path / "c.json"
    cfgp.write_text(json.dumps({
        "dataset": "unused.txt", "lambda1": [0.5], "runs": 4,
        "methods": ["degree"], "k_absolute": [2],
    }))
    cfg = load_config(cfgp, {"lambda1": [0.7], "runs": None})
    assert cfg.lambda1 == [0.7]
    assert cfg.runs == 4
    assert cfg.methods == ["degree"]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"lambda_one": [0.5]}))
    with pytest.raises(ValueError, match="unknown config keys"):
        load_config(bad)


def test_parser_has_one_flag_per_config_field():
    parser = cli.build_parser()
    assert not any(isinstance(a, argparse._SubParsersAction) for a in parser._actions)
    (command,) = [a for a in parser._actions if not a.option_strings]
    assert command.dest == "command" and list(command.choices) == list(cli.COMMANDS)
    want = sorted((cli.CONFIG_KEYS - {"generator"}) | set(cli.GEN_FLAG_KEYS) | {"config"})
    assert "gen_seed" in want and "rng_seed" in want and "family" in want
    flags = [a for a in parser._actions if a.option_strings and a.dest != "help"]
    assert sorted(a.dest for a in flags) == want
    for a in flags:
        assert a.option_strings[0] == "--" + a.dest.replace("_", "-"), a.dest
    with pytest.raises(SystemExit):  # a tuple field takes exactly its length
        parser.parse_args(["generate", "--size-range", "2", "3", "4"])


def test_main_builds_one_parser(monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__
    monkeypatch.setattr(argparse.ArgumentParser, "__init__",
                        lambda self, *a, **kw: built.append(1) or init(self, *a, **kw))
    monkeypatch.setitem(cli.COMMANDS, "stats", lambda cfg: 0)
    assert main(["stats", "--dataset", "unused.txt"]) == 0
    assert built == [1]


EVERY_FLAG = [
    "--dataset", "d.txt", "--nverts", "nv.txt", "--simplices", "sx.txt", "--gamma", "3",
    "--methods", "degree", "hadp", "--runs", "9", "--rng-seed", "11", "--output-dir", "o",
    "--name", "nm", "--size-cap", "6", "--workers", "2", "--sizes", "10", "20",
    "--mean-degree", "4.5", "--bench-repeats", "5", "--n-grid", "2.5", "50", "--dump-operator",
    "--family", "d_uniform", "--num-nodes", "30", "--num-hyperedges", "40", "--exponent", "2.5",
    "--membership-p", "0.25", "--uniform-size", "4", "--degree-range", "1", "9",
    "--size-range", "2", "5", "--gen-seed", "13",
]


@pytest.mark.parametrize("rates, want", [
    (["--lambda1", "0.5", "1.5", "--lambda2", "2", "--k-absolute", "4", "7"],
     {"lambda1": [0.5, 1.5], "lambda2": [2.0], "k_absolute": [4, 7]}),
    (["--beta1", "0.25", "--beta2", "0.5", "0.75", "--k-percent", "1.5"],
     {"beta1": [0.25], "beta2": [0.5, 0.75], "k_percent": [1.5]}),
], ids=["lambda_grid", "beta_grid"])
def test_every_flag_reaches_the_config(tmp_path, monkeypatch, rates, want):
    # the file's values are all overridden; lambda/beta and the two k
    # forms exclude each other, so the two argvs split them
    cfgp = tmp_path / "c.json"
    cfgp.write_text(json.dumps({"runs": 1, "generator": {"family": "scale_free", "num_nodes": 5}}))
    argv = ["experiment", "--config", str(cfgp), *EVERY_FLAG, *rates]
    grids = {"lambda1", "lambda2", "beta1", "beta2", "k_absolute", "k_percent"}
    args = vars(cli.build_parser().parse_args(argv))
    assert {dest for dest, val in args.items() if val is None} == grids - set(want)
    seen = []
    monkeypatch.setitem(cli.COMMANDS, "experiment", lambda cfg: seen.append(cfg) or 0)
    assert main(argv) == 0
    assert seen == [ExperimentConfig(
        generator={"family": "d_uniform", "num_nodes": 30, "num_hyperedges": 40,
                   "exponent": 2.5, "membership_p": 0.25, "uniform_size": 4,
                   "degree_range": [1, 9], "size_range": [2, 5], "rng_seed": 13},
        dataset="d.txt", nverts="nv.txt", simplices="sx.txt", gamma=3,
        methods=["degree", "hadp"], runs=9, rng_seed=11, output_dir="o", name="nm",
        size_cap=6, workers=2, sizes=[10, 20], mean_degree=4.5,
        bench_repeats=5, n_grid=[2.5, 50.0], dump_operator=True, **want)]


def test_spectrum_takes_one_beta1(tmp_path, capsys):
    tri = str(triangle_file(tmp_path))
    out = tmp_path / "spectrum"
    assert main(["spectrum", "--dataset", tri, "--beta1", "0.2", "0.4",
                 "--output-dir", str(out)]) == 2
    assert "beta1" in capsys.readouterr().err
    assert not (out / "spectrum.json").exists()
    assert main(["spectrum", "--dataset", tri, "--beta1", "0.4", "--output-dir", str(out)]) == 0


def test_cli_dispatch_exit_codes(capsys):
    for argv in ([], ["nosuch"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert all(cmd in out for cmd in cli.COMMANDS)


def test_cli_error_exit_codes(tmp_path):
    assert main(["experiment", "--lambda1", "1.0"]) == 2        # no input
    assert main(["experiment", "--dataset", "x", "--methods", "nope"]) == 2
    assert main(["stats", "--dataset", str(tmp_path / "missing.txt")]) == 2
    spaced = tmp_path / "spaced.txt"
    spaced.write_text("x y,z\nz,w\n")
    assert main(["stats", "--dataset", str(spaced)]) == 2  # label "x y" cannot be saved
    assert main(["bench", "--sizes", "1", "2", "--output-dir", str(tmp_path / "b")]) == 2
    assert main(["bench", "--sizes", "60", "60", "--output-dir", str(tmp_path / "b")]) == 2
    assert main(["bench", "--methods", "cia", "cia", "--output-dir", str(tmp_path / "b")]) == 2
    assert main(["generate", "--family", "bogus", "--num-nodes", "5"]) == 2
    assert main(["generate", "--family", "erdos_renyi", "--num-nodes", str(10 ** 23),
                 "--num-hyperedges", "5", "--membership-p", "0.1",
                 "--output-dir", str(tmp_path / "g")]) == 2  # a count past int64
    assert not (tmp_path / "g").exists()


@pytest.mark.parametrize("doc", [
    {"generator": {"family": "scale_free", "num_nodes": 50, "num_hyperedges": 60, "bogus": 1}},
    {"runs": "10"},
    {"runs": 10.5},
    {"gamma": 1.5},
    {"runs": True},
    {"beta1": None, "lambda1": [-0.5]},
    {"lambda2": [float("nan")]},
    {"beta1": [0.5, -0.1]},
    {"beta2": [float("inf")]},
    {"k_absolute": [1.7]},
    {"k_absolute": [True]},
    {"sizes": [1, 2]},
    {"mean_degree": 0.0},
    {"mean_degree": -3.5},
    {"methods": ["cia", "degree", "cia"]},
    {"sizes": [60, 60]},
    {"generator": {"family": "erdos_renyi", "num_nodes": 50, "membership_p": 0.1,
                   "num_hyperedges": 2.5}},
    {"generator": {"family": "d_uniform", "num_nodes": 50, "num_hyperedges": 2.5}},
    {"generator": {"family": "scale_free", "num_nodes": 50, "num_hyperedges": 60,
                   "rng_seed": 1.5}},
    {"generator": {"family": "scale_free", "num_nodes": 50, "num_hyperedges": 60,
                   "degree_range": [2.5, 4]}},
    {"generator": {"family": "scale_free", "num_nodes": 50, "num_hyperedges": 60,
                   "exponent": float("nan")}},
    {"use_gcc": False},  # removed: every command works on the giant component
    {"beta1": None, "lambda1": [True]},
    {"k_absolute": None, "k_percent": [True]},
    {"n_grid": [True]},
    {"mean_degree": True},
    {"beta1": None, "lambda1": [10 ** 400]},  # too large for a float
    {"gamma": 10 ** 400},
    {"runs": 10 ** 23},  # counts must fit int64
], ids=["unknown_generator_key", "string_runs", "float_runs", "float_gamma", "bool_runs",
        "negative_lambda1", "nan_lambda2", "negative_beta1", "infinite_beta2",
        "float_k_absolute", "bool_k_absolute", "size_below_2", "zero_mean_degree",
        "negative_mean_degree", "repeated_methods", "repeated_sizes", "er_float_hyperedges",
        "uniform_float_hyperedges", "float_gen_seed", "float_degree_range", "nan_exponent",
        "removed_use_gcc", "bool_lambda1", "bool_k_percent", "bool_n_grid", "bool_mean_degree",
        "huge_int_lambda1", "huge_int_gamma", "huge_int_runs"])
def test_malformed_config_exits_2(tmp_path, capsys, doc):
    # the other keys are valid and the dataset is readable, so only the
    # malformed value can make the run exit 2; the error names it (the
    # last key of a generator block), and generate refuses it alike
    base = {"dataset": str(triangle_file(tmp_path)), "beta1": [0.5], "k_absolute": [1],
            "runs": 2, "output_dir": str(tmp_path / "out")}
    cfgp = tmp_path / "c.json"
    cfgp.write_text(json.dumps(doc if "generator" in doc else {**base, **doc}))
    for cmd in ("experiment", "generate") if "generator" in doc else ("experiment",):
        assert main([cmd, "--config", str(cfgp), "--output-dir", str(tmp_path / "gen")]) == 2
        err = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
        assert err and list(doc.get("generator", doc))[-1] in err[0], cmd
    assert not (tmp_path / "gen").exists()


@pytest.mark.parametrize("doc", [
    {"name": [0.5, 0.5]},
    {"output_dir": [1]},
    {"dataset": 0},
    {"dataset": 5},
    {"dataset": None, "simplices": "s.txt", "nverts": 3},
    {"dump_operator": "no"},
    {"methods": "cia"},
    {"generator": [1]},
    {"generator": {"num_nodes": 50, "num_hyperedges": 60, "family": ["scale_free"]}},
], ids=["list_name", "list_output_dir", "dataset_fd_0", "dataset_fd_5", "nverts_fd_3",
        "string_dump_operator", "string_methods", "list_generator", "list_family"])
def test_value_of_another_type_exits_2(tmp_path, monkeypatch, capsys, no_stdin, doc):
    # no --output-dir flag, which would hide a bad output_dir: outputs
    # would land in the working directory, and none may be written
    monkeypatch.chdir(tmp_path)
    base = {"dataset": str(triangle_file(tmp_path)), "beta1": [0.5], "k_absolute": [1],
            "runs": 2, "sizes": [20, 30], "bench_repeats": 1}
    cfgp = tmp_path / "c.json"
    cfgp.write_text(json.dumps(doc if "generator" in doc else {**base, **doc}))
    gen = doc.get("generator")
    key = list(gen if isinstance(gen, dict) else doc)[-1]
    for cmd in cli.COMMANDS:
        assert main([cmd, "--config", str(cfgp)]) == 2, cmd
        err = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
        assert err and err[0].startswith(f"error: {key} must be "), (cmd, err)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json", "tri.txt"]


@pytest.mark.parametrize("text", ["[]", "[1]", '"runs"', "1", "null"])
def test_config_file_must_hold_an_object(tmp_path, capsys, text):
    cfgp = tmp_path / "c.json"
    cfgp.write_text(text)
    assert main(["stats", "--config", str(cfgp), "--output-dir", str(tmp_path / "o")]) == 2
    assert "config must be a JSON object" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("name", ["../escaped", "sub/escaped"])
def test_generate_name_is_a_bare_file_name(tmp_path, capsys, name):
    out = tmp_path / "gen"
    assert main(["generate", *SF_FLAGS, "--name", name, "--output-dir", str(out)]) == 2
    assert "name must be a bare file name" in capsys.readouterr().err
    assert sorted(tmp_path.rglob("*")) == []


def test_csv_cells_holding_commas_read_back(tmp_path):
    tri = str(triangle_file(tmp_path))
    out = tmp_path / "exp"
    assert main(["experiment", "--dataset", tri, "--beta1", "0.5", "1.5", "--k-absolute", "1",
                 "--methods", "degree", "--runs", "2", "--output-dir", str(out)]) == 1
    with open(out / "results.csv", newline="") as fh:
        rows = list(csv.DictReader(fh.readlines()[1:]))
    assert [r["error"] for r in rows] == ["", "ValueError: beta1 must lie in [0, 1]"]
    assert all(len(r) == len(cli.RESULT_COLUMNS) and None not in r for r in rows)
    assert main(["stats", "--dataset", tri, "--name", 'a,"b"', "--output-dir", str(out)]) == 0
    with open(out / "stats.csv", newline="") as fh:
        rows = list(csv.DictReader(fh.readlines()[1:]))
    assert [r["dataset"] for r in rows] == ['a,"b"', 'a,"b"/dedup']
    assert rows[0]["n"] == "3"


def test_rates_above_one_fail_per_cell_but_not_in_spectrum(tmp_path):
    tri = str(triangle_file(tmp_path))
    out = tmp_path / "exp"
    assert main(["experiment", "--dataset", tri, "--beta1", "0.5", "1.5", "--k-absolute", "1",
                 "--methods", "degree", "random", "--runs", "2",
                 "--output-dir", str(out)]) == 1
    rows = (out / "results.csv").read_text().splitlines()[2:]
    assert len(rows) == 3 and rows[0].endswith(",") and rows[1].endswith(",")
    assert "beta1 must lie in [0, 1]" in rows[2]
    assert rows[2].split(",")[1] == "degree"  # a raw beta fault lands on the first method
    assert main(["spectrum", "--dataset", tri, "--beta1", "1.5",
                 "--output-dir", str(tmp_path / "spec")]) == 0


def test_failed_cell_row_fills_every_column(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "RESULT_COLUMNS", (*cli.RESULT_COLUMNS, "extra"))
    out = tmp_path / "exp"
    assert main(["experiment", "--dataset", str(triangle_file(tmp_path)), "--beta1", "1.5",
                 "--runs", "2", "--output-dir", str(out)]) == 1
    with open(out / "results.csv", newline="") as fh:
        (row,) = csv.DictReader(fh.readlines()[1:])
    assert (row["method"], row["k"]) == ("cia", "1")
    assert row["error"] == "ValueError: beta1 must lie in [0, 1]"
    for key in ("beta1", "beta2", "sigma_mean", "sigma_std", "fraction_of_gcc",
                "non_absorbed", "extra"):
        assert row[key] == "", key


def run_cli(args, cwd, **env):
    """``python -m hypersir.cli ARGS`` in a child process whose environment is
    this one's with ``env`` on top and this tree's ``src`` on the path."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "hypersir.cli", *args], cwd=cwd,
                          env={**os.environ, "PYTHONPATH": path, **env},
                          capture_output=True, text=True, errors="replace", timeout=120)


@pytest.mark.parametrize("form", ["hyperedge_list", "paired", "config"])
def test_text_inputs_are_read_as_utf8_in_any_locale(tmp_path, form):
    edges = tmp_path / "edges.txt"
    edges.write_text("café 1 2\n1 2\n", encoding="utf-8")
    (tmp_path / "nverts.txt").write_text("3\n2\n")
    (tmp_path / "simplices.txt").write_text("café 1 2\n1 2\n", encoding="utf-8")
    (tmp_path / "cfg.json").write_text(json.dumps({"dataset": str(edges), "name": "café"},
                                                  ensure_ascii=False), encoding="utf-8")
    args = {"hyperedge_list": ["stats", "--dataset", str(edges)],
            "paired": ["stats", "--nverts", "nverts.txt", "--simplices", "simplices.txt"],
            "config": ["spectrum", "--config", "cfg.json"]}[form]
    done = run_cli([*args, "--output-dir", "out"], tmp_path,
                   LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0", PYTHONIOENCODING="")
    assert done.returncode == 0, done.stderr
    doc = json.loads((tmp_path / "out" / "provenance.json").read_text(encoding="utf-8"))
    if form == "config":
        assert doc["config"]["name"] == "café"
    else:
        assert " n=3 m=2 " in done.stdout


def test_every_clamped_cell_prints_its_warning(tmp_path):
    # k1 = 2 on the triangle, so lambda1 500 reads beta1 250 in both cells
    done = run_cli(["experiment", "--dataset", str(triangle_file(tmp_path)), "--lambda1", "500",
                    "--lambda2", "0", "1", "--k-absolute", "1", "--methods", "degree",
                    "--runs", "2", "--output-dir", "out"], tmp_path)
    assert done.returncode == 0, done.stderr
    assert done.stderr.count("UserWarning: beta1 = 250 clamped to 1") == 2, done.stderr


def test_output_root_env(tmp_path, monkeypatch):
    monkeypatch.setenv("HYPERSIR_OUTPUT_ROOT", str(tmp_path))
    tri = triangle_file(tmp_path)
    assert main(["stats", "--dataset", str(tri), "--output-dir", "nested/out"]) == 0
    assert (tmp_path / "nested" / "out" / "stats.csv").exists()


def test_output_root_keeps_relative_dirs_inside(tmp_path, monkeypatch, capsys):
    root = tmp_path / "root"
    monkeypatch.setenv("HYPERSIR_OUTPUT_ROOT", str(root))
    monkeypatch.chdir(tmp_path)
    tri = str(triangle_file(tmp_path))
    for out in ("../outside", "a/../../outside"):
        assert main(["stats", "--dataset", tri, "--output-dir", out]) == 2
        assert "leads outside HYPERSIR_OUTPUT_ROOT" in capsys.readouterr().err
    assert not (tmp_path / "outside").exists() and not root.exists()
    # a ".." that stays under the root is kept, and an absolute dir is used as given
    assert main(["stats", "--dataset", tri, "--output-dir", "a/../inside"]) == 0
    assert (root / "inside" / "stats.csv").exists()
    assert main(["stats", "--dataset", tri, "--output-dir", str(tmp_path / "abs")]) == 0
    assert (tmp_path / "abs" / "stats.csv").exists()


def test_spectrum_triangle_and_forest(tmp_path):
    tri = triangle_file(tmp_path)
    out = tmp_path / "spec"
    assert main(["spectrum", "--dataset", str(tri), "--beta1", "0.5",
                 "--output-dir", str(out), "--dump-operator"]) == 0
    doc = json.loads((out / "spectrum.json").read_text())
    assert doc["lambda_c"] == pytest.approx(0.5, abs=1e-9)
    assert doc["beta1_star"] == pytest.approx(1.0, abs=1e-9)
    assert (out / "operator.txt").exists()
    p = tmp_path / "forest.txt"
    p.write_text("0 1\n1 2\n")
    out2 = tmp_path / "spec2"
    assert main(["spectrum", "--dataset", str(p), "--output-dir", str(out2)]) == 0
    assert json.loads((out2 / "spectrum.json").read_text())["beta1_star"] == "inf"
    # singleton lines only: a graph without links
    p.write_text("a\nb\n")
    assert main(["spectrum", "--dataset", str(p), "--output-dir", str(out2)]) == 0
    doc = json.loads((out2 / "spectrum.json").read_text())
    assert (doc["lambda_c"], doc["beta1_star"]) == (0.0, "inf")


def test_spectrum_scales_with_beta1(tmp_path):
    data = sf_file(tmp_path)
    vals = []
    for i, b in enumerate(("0.4", "0.8")):
        out = tmp_path / f"s{i}"
        assert main(["spectrum", "--dataset", str(data), "--beta1", b,
                     "--output-dir", str(out)]) == 0
        vals.append(json.loads((out / "spectrum.json").read_text())["lambda_c"])
    assert vals[1] == pytest.approx(2 * vals[0], rel=1e-7)


def test_fig3_sweep(tmp_path):
    data = sf_file(tmp_path)
    out = tmp_path / "f"
    assert main(["fig3", "--dataset", str(data), "--n-grid", "5", "100",
                 "--output-dir", str(out)]) == 0
    lines = (out / "fig3.csv").read_text().splitlines()
    assert lines[1] == "n_percent,overlap_probability"
    last = lines[-1].split(",")
    assert float(last[0]) == 100 and float(last[1]) == 1.0
    out2 = tmp_path / "f2"
    main(["fig3", "--dataset", str(data), "--n-grid", "5", "100",
          "--output-dir", str(out2)])
    assert (out / "fig3.csv").read_bytes() == (out2 / "fig3.csv").read_bytes()


def test_fig3_is_rate_free(tmp_path):
    # the CI ranking is scored at unit rates, so --beta1 0 no longer zeroes it
    data = str(sf_file(tmp_path))
    curves = []
    for i, rates in enumerate(([], ["--beta1", "0"], ["--beta1", "0.3", "--gamma", "3"])):
        out = tmp_path / f"f{i}"
        assert main(["fig3", "--dataset", data, *rates, "--output-dir", str(out)]) == 0
        curves.append((out / "fig3.csv").read_bytes())
    assert curves[1] == curves[0] and curves[2] == curves[0]


def test_stats_command_reports_both_conventions(tmp_path):
    p = tmp_path / "dup.txt"
    p.write_text("0 1 2\n0 1 2\n")
    out = tmp_path / "st"
    assert main(["stats", "--dataset", str(p), "--name", "dup",
                 "--output-dir", str(out)]) == 0
    lines = (out / "stats.csv").read_text().splitlines()
    assert len(lines) == 4 and lines[0] == "# schema=dataset_stats.v1"
    retained = lines[2].split(",")
    deduped = lines[3].split(",")
    assert retained[0] == "dup" and deduped[0] == "dup/dedup"
    assert retained[2] == "2" and deduped[2] == "1"
    doc = json.loads((out / "stats.json").read_text())
    assert doc["retained"]["m"] == 2 and doc["dedup"]["m"] == 1


def test_stats_single_triple_values(tmp_path):
    tri = triangle_file(tmp_path)
    out = tmp_path / "st"
    assert main(["stats", "--dataset", str(tri), "--name", "tri",
                 "--output-dir", str(out)]) == 0
    doc = json.loads((out / "stats.json").read_text())["retained"]
    assert (doc["n"], doc["m"], doc["gcc_size"]) == (3, 1, 3)
    assert doc["mean_node_degree"] == 2.0
    assert doc["k2_mean"] == 1.0


def test_bench_smoke(tmp_path):
    out = tmp_path / "b"
    code = main(["bench", "--sizes", "60", "120", "--methods", "cia",
                 "degree", "--k-percent", "5", "--bench-repeats", "1",
                 "--output-dir", str(out)])
    assert code == 0
    lines = (out / "bench.csv").read_text().splitlines()
    assert len(lines) == 2 + 4   # schema, header, 2 methods x 2 sizes
    fits = (out / "bench_fit.csv").read_text().splitlines()
    assert fits[1] == "method,slope,intercept"
    assert len(fits) == 4


def test_bench_refuses_one_size_before_timing(tmp_path, monkeypatch):
    calls = []
    monkeypatch.setattr(cli, "select_seeds", lambda *args: calls.append(args))
    out = tmp_path / "b"
    assert main(["bench", "--sizes", "200", "--output-dir", str(out)]) == 2
    assert calls == [] and not out.exists()


def test_bench_refuses_mean_degree_above_smallest_size_before_timing(tmp_path, monkeypatch,
                                                                     capsys):
    calls = count_calls(monkeypatch, "select_seeds", lambda view, method, k, seed: method)
    out = tmp_path / "b"
    assert main(["bench", "--mean-degree", "200", "--sizes", "10", "20",
                 "--output-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert "mean_degree must be at most n(n-1) = 90 at size 10, got 200.0" in err
    assert not calls and not out.exists()
    # at n(n-1) the draw's membership probability is exactly 1, which is legal
    assert main(["bench", "--mean-degree", "90", "--sizes", "10", "20", "--methods", "degree",
                 "--bench-repeats", "1", "--output-dir", str(out)]) == 0
    assert calls == {"degree": 2 * 2}  # per size, the warm-up and one repeat


def test_loglog_fit_sanity():
    ns = np.array([100, 200, 400, 800])
    slope, intercept = fit_loglog_slope(ns, 2.5e-6 * ns)
    assert slope == pytest.approx(1.0, abs=0.01)
    slope2, _ = fit_loglog_slope(ns, 3e-9 * ns ** 1.5)
    assert slope2 == pytest.approx(1.5, abs=0.01)
    with pytest.raises(ValueError):
        fit_loglog_slope([100], [1.0])


def test_provenance_alongside_outputs(tmp_path):
    tri = triangle_file(tmp_path)
    out = tmp_path / "o"
    assert main(["fig3", "--dataset", str(tri), "--n-grid", "100",
                 "--output-dir", str(out)]) == 0
    prov = json.loads((out / "provenance.json").read_text())
    assert prov["outputs"] == ["fig3.csv"]
    assert prov["config"]["dataset"] == str(tri)
    assert "package_version" in prov


def count_calls(monkeypatch, name, key):
    """Wrap ``hypersir.cli.<name>`` so each call tallies ``key(*args, **kw)``."""
    real = getattr(cli, name)
    calls = collections.Counter()

    def counted(*args, **kw):
        calls[key(*args, **kw)] += 1
        return real(*args, **kw)

    monkeypatch.setattr(cli, name, counted)
    return calls


@pytest.mark.parametrize("channel2", ["lambda2", "beta2", None])
@pytest.mark.parametrize("channel1", ["lambda1", "beta1"])
def test_experiment_cells_follow_one_channel_rule(channel1, channel2):
    doc = {channel1: [0.5, 1.5], "k_absolute": [2, 3]}
    if channel2 is not None:
        doc[channel2] = [0.25]
    inp = cli.PreparedInput(hs.Hypergraph(3, [[0, 1, 2]]), None, 25)
    grid1 = {"lambda1": [(0.5, None), (1.5, None)], "beta1": [(None, 0.5), (None, 1.5)]}
    grid2 = {"lambda2": [(0.25, None)], "beta2": [(None, 0.25)], None: [(None, 0.0)]}
    assert cli._experiment_cells(ExperimentConfig(**doc), inp) == [
        (c1, c2, k) for c1 in grid1[channel1] for c2 in grid2[channel2] for k in (2, 3)]


def test_experiment_without_channel_1_grid_exits_2(tmp_path, capsys):
    out = tmp_path / "exp"
    assert main(["experiment", "--dataset", str(triangle_file(tmp_path)), "--lambda2", "1",
                 "--output-dir", str(out)]) == 2
    assert "error: experiment needs a lambda1 or beta1 grid" in capsys.readouterr().err
    assert not out.exists()


def test_experiment_selects_deterministic_seed_sets_once(tmp_path, monkeypatch):
    data = sf_file(tmp_path)
    ci_calls = count_calls(monkeypatch, "collective_influence", lambda view, b1, g: "cia")
    baseline_calls = count_calls(monkeypatch, "baseline_select",
                                 lambda view, k, method, rng_seed=0: (method, k, rng_seed))
    run_seeds = []
    real_run_sir_sets = cli.run_sir_sets

    def recording_run_sir_sets(view, simplices, seed_sets, params, runs):
        run_seeds.extend(tuple(seeds) for seeds in seed_sets)
        return real_run_sir_sets(view, simplices, seed_sets, params, runs=runs)

    monkeypatch.setattr(cli, "run_sir_sets", recording_run_sir_sets)
    assert main(["experiment", "--dataset", str(data), "--lambda1", "0.8", "1.2", "1.6",
                 "--lambda2", "0", "1", "--k-absolute", "2", "4",
                 "--methods", "cia", "hadp", "random", "--runs", "3", "--rng-seed", "5",
                 "--output-dir", str(tmp_path / "exp")]) == 0

    cfg = load_config(None, {"dataset": str(data), "lambda1": [0.8, 1.2, 1.6],
                             "lambda2": [0.0, 1.0], "k_absolute": [2, 4], "rng_seed": 5})
    inp = cli.prepare_input(cfg)
    cells = cli._experiment_cells(cfg, inp)
    assert len(cells) == 12
    hadp_per_k = collections.Counter()
    random_per_cell = collections.Counter()
    for (method, k, rng_seed), c in baseline_calls.items():
        if method == "hadp":
            hadp_per_k[k] += c
        else:
            random_per_cell[k, rng_seed] += c
    assert ci_calls == {"cia": 2}
    assert hadp_per_k == {2: 1, 4: 1}
    expected_random, expected_seeds = collections.Counter(), []
    for idx, (_, _, k) in enumerate(cells):
        sel_seed = int(np.random.SeedSequence([5, idx]).generate_state(2)[1])
        expected_random[k, sel_seed] += 1
        expected_seeds += [cli.select_seeds(inp.view, m, k, sel_seed)
                           for m in ("cia", "hadp", "random")]
    assert random_per_cell == expected_random
    assert run_seeds == expected_seeds


def test_bench_selects_afresh_on_every_repeat(tmp_path, monkeypatch):
    ci_calls = count_calls(monkeypatch, "collective_influence",
                           lambda view, b1, g: ("cia", view.num_nodes))
    baseline_calls = count_calls(monkeypatch, "baseline_select",
                                 lambda view, k, method, rng_seed=0: (method, view.num_nodes))
    assert main(["bench", "--sizes", "60", "120", "--methods", "cia", "degree",
                 "--k-percent", "5", "--bench-repeats", "2",
                 "--output-dir", str(tmp_path / "b")]) == 0
    counts = ci_calls + baseline_calls
    assert len(counts) == 4                     # 2 methods x 2 sizes
    assert set(counts.values()) == {2 + 1}      # repeats plus the warm-up


def test_provenance_reports_triangle_size_cap(tmp_path):
    p = tmp_path / "capped.txt"
    p.write_text("0 1 2 3 4\n0 1 2\n2 5\n")
    for cmd, extra in (("experiment", ["--beta1", "0.2", "--k-absolute", "1",
                                       "--methods", "degree", "--runs", "2"]),
                       ("spectrum", []), ("fig3", ["--n-grid", "50"])):
        out = tmp_path / cmd
        assert main([cmd, "--dataset", str(p), "--size-cap", "4",
                     "--output-dir", str(out), *extra]) == 0
        prov = json.loads((out / "provenance.json").read_text())
        assert (prov["size_cap"], prov["skipped_hyperedges"]) == (4, 1), cmd


def test_only_experiment_enumerates_triangles(tmp_path, monkeypatch):
    p = tmp_path / "capped.txt"
    p.write_text("0 1 2 3 4\n0 1 2\n2 5\n")

    def refuse(*args, **kw):
        raise AssertionError("triangle set enumerated")

    monkeypatch.setattr(cli, "enumerate_two_simplices", refuse)
    monkeypatch.setattr(hs.TwoSimplexSet, "__init__", refuse)  # whatever name builds one
    for cmd, extra in (("spectrum", []), ("fig3", ["--n-grid", "50"])):
        out = tmp_path / cmd
        assert main([cmd, "--dataset", str(p), "--size-cap", "4",
                     "--output-dir", str(out), *extra]) == 0
        prov = json.loads((out / "provenance.json").read_text())
        assert (prov["size_cap"], prov["skipped_hyperedges"]) == (4, 1), cmd
    # stats reads k2 off the hyperedge sizes: one kept triangle, 3 rows over 6 nodes
    assert main(["stats", "--dataset", str(p), "--size-cap", "4",
                 "--output-dir", str(tmp_path / "stats")]) == 0
    stats = json.loads((tmp_path / "stats" / "stats.json").read_text())["retained"]
    assert (stats["k2_mean"], stats["skipped_large_hyperedges"]) == (0.5, 1)
    assert main(["bench", "--sizes", "60", "120", "--methods", "degree", "--k-percent", "5",
                 "--bench-repeats", "1", "--output-dir", str(tmp_path / "bench")]) == 0


def test_experiment_enumerates_once_before_the_pool(tmp_path, monkeypatch):
    data = sf_file(tmp_path)
    threads = []
    real = cli.enumerate_two_simplices

    def recording(*args, **kw):
        threads.append(threading.current_thread())
        return real(*args, **kw)

    monkeypatch.setattr(cli, "enumerate_two_simplices", recording)
    assert main(["experiment", "--dataset", str(data), "--lambda1", "0.8", "1.2",
                 "--lambda2", "0", "1", "--k-absolute", "2", "--methods", "degree", "random",
                 "--runs", "2", "--workers", "2", "--output-dir", str(tmp_path / "exp")]) == 0
    assert threads == [threading.main_thread()]

    def broken(*args, **kw):
        raise ValueError("no triangles today")

    monkeypatch.setattr(cli, "enumerate_two_simplices", broken)
    assert main(["experiment", "--dataset", str(data), "--lambda1", "0.8", "--workers", "2",
                 "--output-dir", str(tmp_path / "exp2")]) == 2
    assert not (tmp_path / "exp2" / "results.csv").exists()


def test_readme_generate_and_spectrum_lines_run(tmp_path, monkeypatch, capsys):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    lines = [ln for ln in readme.replace("\\\n", " ").splitlines()
             if ln.startswith(("hypersir generate ", "hypersir spectrum "))]
    assert [ln.split()[1] for ln in lines] == ["generate", "spectrum"]
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("HYPERSIR_OUTPUT_ROOT", str(tmp_path))
    for ln in lines:
        assert main(shlex.split(ln)[1:]) == 0, (ln, capsys.readouterr().err)
    assert (tmp_path / "spectrum.json").exists()


def canonical_json(path) -> bool:
    text = path.read_text(encoding="utf-8")
    return text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"


def test_every_json_output_is_canonical(tmp_path):
    data = sf_file(tmp_path)
    assert canonical_json(data.parent / "provenance.json")  # generate's
    for cmd, extra, docs in (("spectrum", [], ["provenance.json", "spectrum.json"]),
                             ("stats", [], ["provenance.json", "stats.json"]),
                             ("experiment", ["--beta1", "0.3", "--runs", "3"],
                              ["provenance.json"])):
        out = tmp_path / cmd
        assert main([cmd, "--dataset", str(data), "--output-dir", str(out), *extra]) == 0
        assert sorted(p.name for p in out.glob("*.json")) == docs, cmd
        for name in docs:
            assert canonical_json(out / name), (cmd, name)


def test_spectrum_and_stats_reruns_byte_identical(tmp_path):
    data = sf_file(tmp_path)
    for cmd, extra in (("spectrum", ["--dump-operator"]), ("stats", [])):
        files = []
        for run in range(2):
            out = tmp_path / f"{cmd}{run}"
            assert main([cmd, "--dataset", str(data), "--output-dir", str(out), *extra]) == 0
            files.append({p.name: p.read_bytes() for p in sorted(out.iterdir())
                          if p.name != "provenance.json"})
        assert files[0] == files[1] and len(files[0]) == 2
