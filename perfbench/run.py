"""hypersir benchmark: one workload per invocation, one JSON line of results.

Usage, from the repository root:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all          # every workload, each in its own process

``--trace 0`` measures the end-to-end metrics with nothing patched;
``--trace 1`` is the separate traced run that gives the per-layer
metrics.  The package is imported from ``src/`` next to this directory,
and every file the program writes goes to a scratch directory under
the repository root that is removed on exit.  See README.md here for the
workloads, the metrics and what each layer metric should move.
"""

from __future__ import annotations

import os

# Pin native thread pools before numpy is imported, here and in children.
THREAD_ENV = {k: "1" for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}
os.environ.update(THREAD_ENV)
os.environ.pop("HYPERSIR_OUTPUT_ROOT", None)

import argparse  # noqa: E402
import json  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
ORACLES = ROOT / "tests"

DEFAULT_SEED = 1
HELDOUT_SEED = 2027


def _require_sources() -> None:
    missing = [p for p in (SRC / "hypersir" / "__init__.py", ORACLES / "oracles.py")
               if not p.is_file()]
    if missing:
        sys.exit(f"perfbench: missing {', '.join(str(p.relative_to(ROOT)) for p in missing)}; "
                 "run from a full checkout")
    sys.path[:0] = [str(SRC), str(ORACLES)]


def run_all(args) -> int:
    """Every workload in a fresh process of its own; summary as last line."""
    from workloads import WORKLOADS

    summary = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"{name}: exited {proc.returncode}", file=sys.stderr)
            return 1
        summary[name] = json.loads(lines[-1])
    print(json.dumps(summary))
    return 0 if all(r["correct"] for r in summary.values()) else 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=["sweep", "threshold", "tiny_mc", "all"])
    p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                   help=f"workload seed (default {DEFAULT_SEED}; held-out {HELDOUT_SEED})")
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    _require_sources()
    if args.workload == "all":
        return run_all(args)
    from harness import run_one

    result = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
