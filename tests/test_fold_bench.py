import importlib.util
import json
from pathlib import Path

import pytest

from stencilpipe import kernel

_PATH = Path(__file__).resolve().parent.parent / "tools" / "fold_bench.py"
_SPEC = importlib.util.spec_from_file_location("fold_bench", _PATH)
fold_bench = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(fold_bench)

MACHINE = {"cores": 2, "python": "3.11.7"}


def _record(workload, seed, median):
    return {"machine": MACHINE, "workers": 7, "dims": [8, 8, 8],
            "args": {"workload": workload, "seed": seed, "seconds": 28.0,
                     "tiny": False},
            "correct": True, "attempted": 70, "failed": 0,
            "failures": [], "samples": {}, "calls": [],
            "metrics": {"pipeline_mlups": {"n": 7, "median": median,
                                           "q1": median - 1,
                                           "q3": median + 1,
                                           "unit": "MLUP/s"}}}


def test_fold_keeps_medians_quartiles_and_build(tmp_path, monkeypatch):
    answers = {"rev-parse": "f" * 40, "status": ""}    # a clean checkout
    monkeypatch.setattr(fold_bench, "git", lambda cmd, *args: answers[cmd])
    for k, w in enumerate(fold_bench.WORKLOADS):
        (tmp_path / f"{w}_seed5_trace0.json").write_text(
            json.dumps(_record(w, 5, 100.0 + k)))
    bench = fold_bench.fold(5, tmp_path)
    assert bench["seed"] == 5 and bench["machine"] == MACHINE
    assert bench["backend"] == kernel.BACKEND
    flags = kernel.BUILD_FLAGS
    assert bench["cflags"] == (None if flags is None else list(flags))
    assert bench["git_rev"] == "f" * 40 and bench["src_modified"] is False
    for k, w in enumerate(fold_bench.WORKLOADS):
        run = bench["workloads"][w]
        assert run["metrics"] == {"pipeline_mlups": {
            "unit": "MLUP/s", "n": 7, "median": 100.0 + k,
            "q1": 99.0 + k, "q3": 101.0 + k}}
        assert (run["correct"], run["attempted"], run["failed"]) == (True, 70, 0)


def test_fold_refuses_a_missing_workload(tmp_path):
    w = fold_bench.WORKLOADS[0]
    (tmp_path / f"{w}_seed5_trace0.json").write_text(
        json.dumps(_record(w, 5, 1.0)))
    with pytest.raises(SystemExit, match="no run record"):
        fold_bench.fold(5, tmp_path)


def test_fold_refuses_a_tiny_record(tmp_path):
    # perfbench names a --tiny record like a full run of the same seed.
    for w in fold_bench.WORKLOADS:
        rec = _record(w, 5, 1.0)
        rec["args"]["tiny"] = w == fold_bench.WORKLOADS[1]
        (tmp_path / f"{w}_seed5_trace0.json").write_text(json.dumps(rec))
    with pytest.raises(SystemExit, match="--tiny"):
        fold_bench.fold(5, tmp_path)
