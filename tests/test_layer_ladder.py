"""scripts/layer_ladder.py runs every layer and reports what it promises."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

LAYERS = ["generate", "giant_component", "build_adjacency", "enumerate_two_simplices",
          "build_link_index", "leading_eigen", "mp_solve", "collective_influence",
          "cia_select", "hadp", "hsdp", "run_sir"]


def test_layer_ladder_smoke(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / "layer_ladder.py"), "300"],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    (size,) = json.loads(done.stdout).values()
    assert list(size["layers"]) == LAYERS
    assert size["layers"]["generate"]["rss_mb"] > 0
    assert all(layer["s"] >= 0 for layer in size["layers"].values())
    assert set(size["iterations"]) == {"leading_eigen", "mp_solve"}
    assert all(it >= 1 for it in size["iterations"].values())
    assert 0 < size["gcc_nodes"] <= 300 and size["links"] > 0 and size["triples"] > 0
    assert size["k"] == math.floor(0.03 * size["gcc_nodes"] + 0.5)  # 3%, half-up
