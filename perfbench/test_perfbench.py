"""Self-tests of the benchmark: its reference, its checks, and a tiny run of
every workload.  Run from the root of a checkout:

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import ast
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import layers
from common import ROOT, import_stencilpipe, observe, problems
from reference import JacobiReference, initial_box, reference_digests
from run import WORKLOADS
from tracer import Tracer

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"),
                           *args], cwd=cwd, capture_output=True, text=True,
                          timeout=170)


def test_reference_matches_package_oracle_bitwise():
    # Cross-check only: the benchmark itself never calls the package's oracle.
    m = import_stencilpipe()
    verify = __import__("stencilpipe.verify", fromlist=["oracle"])
    dims = (9, 7, 5)
    ref = JacobiReference(initial_box(dims, 3))
    for _ in range(4):
        ref.sweep()
    oracle = verify.oracle(m["grid"].GridDims(*dims),
                           m["grid"].FillPattern.random(3), 4)
    assert np.array_equal(ref.interior().view(np.uint64),
                          oracle.interior().view(np.uint64))


def test_reference_uses_neither_kernel_nor_verify():
    tree = ast.parse((HERE / "reference.py").read_text())
    doc = ast.get_docstring(tree, clean=False)
    words = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            words.add(node.id)
        elif isinstance(node, ast.Attribute):
            words.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value != doc:
                words.add(node.value)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            words.update(a.name for a in node.names)
            words.add(getattr(node, "module", None) or "")
    assert not [w for w in words if "kernel" in w or "verify" in w]


def test_one_ulp_perturbation_fails_the_check():
    dims = (8, 6, 4)
    want = reference_digests(dims, 5, [3])
    ref = JacobiReference(initial_box(dims, 5))
    for _ in range(3):
        ref.sweep()
    field = ref.interior().copy()
    assert problems(observe(field), want["digests"][3], want["lo"],
                    want["hi"]) == []
    field[2, 3, 4] = np.nextafter(field[2, 3, 4], np.inf)
    assert problems(observe(field), want["digests"][3], want["lo"],
                    want["hi"]) == ["differs bitwise from the reference"]


def test_maximum_principle_violation_fails_the_check():
    field = np.full((2, 2, 2), 0.5)
    obs = observe(field)
    assert problems(obs, obs.digest, 0.0, 1.0) == []
    field[1, 1, 1] = 1.5
    found = problems(observe(field), observe(field).digest, 0.0, 1.0)
    assert len(found) == 1 and "leave the initial range" in found[0]


def test_tracer_restores_every_binding():
    m = import_stencilpipe()
    bindings = [(m["pipeline"], "update_region"), (m["pipeline"], "may_proceed"),
                (m["decomp"], "exchange_halos"), (m["transport"].Endpoint, "recv"),
                (m["grid"].FillPattern, "evaluate")]
    before = [o.__dict__[a] for o, a in bindings]
    tracer = Tracer()
    tracer.install(m)
    assert all(o.__dict__[a] is not f for (o, a), f in zip(bindings, before))
    tracer.uninstall()
    assert all(o.__dict__[a] is f for (o, a), f in zip(bindings, before))


def test_benchmark_json_names_every_metric():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert [(p["name"], p["unit"], p["better"])
            for p in BENCHMARK["per_layer"]] == list(layers.SPEC)


@pytest.mark.parametrize("workload", list(WORKLOADS))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_run(workload, trace):
    proc = _run("--workload", workload, "--seed", "7", "--seconds", "0.5",
                "--trace", trace, "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] % len(layers.ENGINES) == 0
    spec = BENCHMARK["per_layer" if trace == "1" else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec}


def test_fails_without_the_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("--workload", "cache-resident", "--seed", "1", "--seconds",
                "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_run_leaves_no_process_behind():
    # The run gets a session of its own; once it has exited, nothing it
    # started (worker, reference, or a helper of theirs) may remain in it.
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "run.py"), "--workload", "cache-resident",
         "--seed", "2", "--seconds", "0.5", "--tiny"],
        cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        start_new_session=True)
    assert proc.wait(timeout=170) == 0
    ps = subprocess.run(["ps", "-eo", "sid=,pid=,stat=,args="],
                        capture_output=True, text=True, check=True).stdout
    left = [line for line in ps.splitlines()
            if line.split()[0] == str(proc.pid)]
    assert left == []
