"""The compute modules do no file I/O: every output file is written by the
command in ``cli`` that names it, through the writers in ``data_io``."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "hypersir"
IO_MODULES = {"data_io", "csv", "json"}

# compute module -> the functions in it that may still open a file
COMPUTE = {
    "hypergraph": (),
    "generators": (),
    "sir": (),
    "influence": (),
    "message_passing": ("dump_coo",),  # until operator.txt is written from the link arrays
}


@pytest.mark.parametrize("module", COMPUTE)
def test_compute_module_does_no_file_io(module):
    tree = ast.parse((SRC / f"{module}.py").read_text())
    exempt = [f for f in ast.walk(tree)
              if isinstance(f, ast.FunctionDef) and f.name in COMPUTE[module]]
    assert len(exempt) == len(COMPUTE[module]), "an exemption names no function"
    allowed = {id(node) for f in exempt for node in ast.walk(f)}
    faults = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [a.name for a in node.names] + [getattr(node, "module", None) or ""]
            faults += [f"line {node.lineno}: imports {name}" for name in names
                       if IO_MODULES & set(name.split("."))]
        elif isinstance(node, ast.Call) and id(node) not in allowed:
            func = node.func
            if getattr(func, "id", None) == "open" or getattr(func, "attr", None) == "open":
                faults.append(f"line {node.lineno}: calls open")
    assert not faults, f"{module}: " + "; ".join(faults)
