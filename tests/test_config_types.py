"""The config type rule: every field's annotation is its type, and a seeded
fuzz pass over every command finds no exit outside 0, 1 and 2."""

import csv
import dataclasses
import json
import types
import typing

import numpy as np
import pytest

import hypersir.cli as cli
import hypersir.hypergraph as hypergraph
from hypersir.cli import ExperimentConfig, main
from hypersir.generators import GenSpec

# values for the fields that have no default
REQUIRED = {"family": "scale_free", "num_nodes": 5, "num_hyperedges": 5}

# one value of each JSON type; each field refuses at least one of another type
JSON_SAMPLES = (None, True, 3, 0.5, "x", [1], {"a": 1})


def _default(f):
    if f.default is not dataclasses.MISSING:
        return f.default
    if f.default_factory is not dataclasses.MISSING:
        return f.default_factory()
    return REQUIRED[f.name]


@pytest.mark.parametrize("cls, f", [(cls, f) for cls in (ExperimentConfig, GenSpec)
                                    for f in dataclasses.fields(cls)],
                         ids=lambda x: getattr(x, "__name__", getattr(x, "name", None)))
def test_type_rule_reads_every_field(cls, f):
    # a field whose annotation the rule cannot read fails here
    default = _default(f)
    cli._check_types(cls, {f.name: default})
    refused = []
    for value in JSON_SAMPLES:
        if type(value) is not type(default):
            try:
                cli._check_types(cls, {f.name: value})
            except ValueError as err:
                refused.append(str(err))
    assert any(err.startswith(f"{f.name} must be ") for err in refused), (f.name, refused)


def test_type_rule_forms():
    fits = cli._fits
    assert fits is hypergraph._fits  # the library's rule, not a copy
    assert fits(2, float) and fits(2.5, float) and not fits(True, float)
    assert fits(np.int64(2), int) and not fits(2.0, int) and not fits(False, int)
    assert fits(2**63 - 1, int) and fits(-2**63, int) and fits(np.int64(5), int)
    assert not fits(2**63, int) and not fits(-2**63 - 1, int) and not fits(np.uint64(2**63), int)
    assert not any(fits(v, float) for v in (float("nan"), float("inf"), -np.inf, 10**400))
    assert fits(np.float64(1e308), float) and fits(10**300, float)
    assert fits(True, bool) and not fits(1, bool) and not fits("no", bool)
    assert fits(None, str | None) and not fits(0, str | None)
    assert fits([1, 2.5], list[float]) and not fits("ab", list[str]) and not fits([[1]], list[int])
    assert fits([1, None], tuple[int, int | None]) and fits((1, 2), tuple[int, int | None])
    assert not fits([1], tuple[int, int | None]) and not fits([1, 2, 3], tuple[int, int | None])
    assert fits({}, dict | None) and not fits([1], dict | None)


def _out_of_rule(tp):
    """A value of the form ``tp`` whose every int is 2**63 and float NaN, which
    the number rule refuses; None if ``tp`` holds something else."""
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if tp in (int, float):
        return 2**63 if tp is int else float("nan")
    if origin is types.UnionType:  # X | None
        return _out_of_rule(args[0])
    if origin in (list, tuple):
        inner = [_out_of_rule(arg) for arg in (args[:1] if origin is list else args)]
        return inner if None not in inner else None
    return None


NUMBER_FIELDS = [(cls, key, _out_of_rule(tp)) for cls in (ExperimentConfig, GenSpec)
                 for key, tp in typing.get_type_hints(cls).items()
                 if _out_of_rule(tp) is not None]


@pytest.mark.parametrize("cls, key, value", NUMBER_FIELDS,
                         ids=[f"{cls.__name__}.{key}" for cls, key, _ in NUMBER_FIELDS])
def test_number_outside_the_rule_exits_2(tmp_path, capsys, cls, key, value):
    # the generator's family reads neither exponent nor membership_p
    gen = {"family": "d_uniform", "num_nodes": 6, "num_hyperedges": 5}
    doc = ({"generator": {**gen, key: value}} if cls is GenSpec
           else {"generator": gen, key: value})
    (tmp_path / "c.json").write_text(json.dumps(doc))
    out = str(tmp_path / "out")
    assert main(["generate", "--config", str(tmp_path / "c.json"), "--output-dir", out]) == 2
    (err,) = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
    assert err.startswith(f"error: {key} must be ")
    assert ("finite" if "nan" in repr(value) else "below 2**63") in err, err
    assert not (tmp_path / "out").exists()


# The fuzz pass: seed and case count were fixed before its first run.
FUZZ_SEED = 31
FUZZ_CASES = 300

GEN = {"family": "d_uniform", "num_nodes": 6, "num_hyperedges": 5, "uniform_size": 3,
       "rng_seed": 1}
BASE = {"beta1": [0.3], "k_absolute": [1], "runs": 2, "methods": ["cia", "random"],
        "sizes": [8, 12], "bench_repeats": 1, "n_grid": [50.0], "output_dir": "out"}

# bounded: a scalar count is at most 2 (so workers is), a listed one at
# most 3, and no path names a real file but the tiny instance
POOL = (None, True, False, -1, 0, 1, 2, 0.0, 0.5, 1.5, float("nan"), float("inf"), "",
        "x", "cia", "scale_free", "../up", "a,b", [], [0], [1], [2, 3], [3, 2], [0.5],
        [1.5, 0.5], [-1], [True], [None], [1, None], ["cia"], ["random", "degree"], ["x"],
        [[1]], {}, {"a": 1})
# key -> annotation; "generator.<field>" keys mutate inside the block
HINTS = {**typing.get_type_hints(ExperimentConfig), "bogus": None,
         **{f"generator.{k}": tp for k, tp in typing.get_type_hints(GenSpec).items()}}


def _mutated(rng, tiny: str) -> tuple[str, object]:
    """A command and a config for it: a valid tiny one with up to three keys
    set to pool values (half the time one of the key's annotated type, so
    the range rules and the commands are reached), or rarely a pool value
    in place of the whole document."""
    cmd = str(rng.choice(list(cli.COMMANDS)))
    doc = (dict(BASE, generator=dict(GEN)) if cmd == "generate" or rng.random() < 0.5
           else dict(BASE, dataset=tiny))
    if cmd == "experiment" and rng.random() < 0.5:
        doc["beta1"] = [0.3, 1.5]  # a cell that fails: experiment exits 1
    if rng.random() < 0.03:
        return cmd, POOL[rng.integers(len(POOL))]
    for key in rng.choice(list(HINTS), size=int(rng.integers(0, 4)), replace=False):
        typed = [v for v in POOL if HINTS[key] is not None and cli._fits(v, HINTS[key])]
        pool = typed if typed and rng.random() < 0.5 else POOL
        value = pool[rng.integers(len(pool))]
        head, _, sub = str(key).partition(".")
        if not sub:
            doc[head] = value
        elif isinstance(doc.get(head), dict):
            doc[head][sub] = value
    return cmd, doc


def test_fuzzed_configs_exit_through_main(tmp_path, monkeypatch, capsys, no_stdin):
    monkeypatch.delenv(cli.OUTPUT_ROOT_ENV, raising=False)
    tiny = tmp_path / "tiny.txt"
    tiny.write_text("0 1 2\n1 2 3\n3 4\n4 5 0\n2 4\n")
    rng = np.random.default_rng(FUZZ_SEED)
    codes = []
    for case in range(FUZZ_CASES):
        cmd, doc = _mutated(rng, str(tiny))
        case_dir = tmp_path / f"case{case:03d}"
        case_dir.mkdir()
        monkeypatch.chdir(case_dir)  # relative outputs and paths stay in the case
        (case_dir / "c.json").write_text(json.dumps(doc))
        try:
            code = main([cmd, "--config", "c.json"])
        except Exception as err:
            raise AssertionError(f"case {case}: {cmd} {doc!r} raised") from err
        assert code in (0, 1, 2), (case, cmd, doc)
        if cmd == "experiment" and code in (0, 1):
            with open(case_dir / doc["output_dir"] / "results.csv", newline="") as fh:
                errors = [row["error"] for row in csv.DictReader(fh.readlines()[1:])]
            assert (code == 1) == any(errors), (case, doc, errors)
        else:
            assert code != 1, (case, cmd, doc)
        codes.append(code)
    capsys.readouterr()
    assert set(codes) == {0, 1, 2}  # the pool reaches each outcome
