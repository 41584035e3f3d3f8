"""Fold perfbench's untraced run records into one ``BENCH_<pr>.json``.

Run the benchmark on every workload with one seed, then fold, from the
root of a checkout:

    for w in cache-resident memory-bound halo-bound; do
        python3 perfbench/run.py --workload $w --seed 1 --seconds 28 --trace 0
    done
    python3 tools/fold_bench.py --seed 1 --pr 16

It reads ``perfbench/out/<workload>_seed<seed>_trace0.json`` for every
workload and writes ``BENCH_<pr>.json`` at the root: the seed, every
metric's n, median, q1 and q3 per workload, each run's outcome (correct,
attempted, failed), the machine facts, ``git rev-parse HEAD`` (and
whether ``src/`` differs from it), and the package's ``BACKEND`` and
``BUILD_FLAGS``: the flags its C library was built with, or null under
numpy.  A ``--tiny`` record has the same name as a full one, so it
is refused.  The records must come from the tree the revision names;
nothing here can tell.  Standard library only: the backend is read from
a child interpreter that imports the package from ``src/``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
WORKLOADS = ("cache-resident", "memory-bound", "halo-bound")
FIELDS = ("unit", "n", "median", "q1", "q3")    # kept per metric
_BUILD = ("import json; from stencilpipe import kernel; "
          "print(json.dumps([kernel.BACKEND, kernel.BUILD_FLAGS]))")


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                          text=True, check=True).stdout.strip()


def build() -> tuple[str, list[str] | None]:
    """The package's kernel backend and the flags of the C library it
    loaded, as its import finds them."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", _BUILD], env=env,
                         capture_output=True, text=True, check=True).stdout
    return tuple(json.loads(out.splitlines()[-1]))


def fold(seed: int, out: Path = OUT) -> dict:
    """The ``BENCH_*.json`` object of the records in ``out``."""
    runs, machine = {}, None
    for w in WORKLOADS:
        path = out / f"{w}_seed{seed}_trace0.json"
        if not path.exists():
            raise SystemExit(f"fold_bench: no run record {path}")
        rec = json.loads(path.read_text())
        if rec["args"].get("tiny"):
            raise SystemExit(f"fold_bench: {path.name} is a --tiny run")
        if machine not in (None, rec["machine"]):
            raise SystemExit(f"fold_bench: {path.name} ran on another machine")
        machine = rec["machine"]
        runs[w] = {
            "seconds": rec["args"]["seconds"], "workers": rec["workers"],
            "dims": rec["dims"], "correct": rec["correct"],
            "attempted": rec["attempted"], "failed": rec["failed"],
            "metrics": {k: {f: m[f] for f in FIELDS}
                        for k, m in rec["metrics"].items()},
        }
    backend, cflags = build()
    return {"seed": seed, "git_rev": git("rev-parse", "HEAD"),
            "src_modified": bool(git("status", "--porcelain", "--", "src")),
            "backend": backend, "cflags": cflags, "machine": machine,
            "workloads": runs}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pr", type=int, required=True,
                    help="number in the output name BENCH_<pr>.json")
    args = ap.parse_args(argv)
    path = ROOT / f"BENCH_{args.pr}.json"
    path.write_text(json.dumps(fold(args.seed), indent=1) + "\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
