"""Acceptance suite: one criterion per test, one printed verdict line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the verdict lines.
Two cost-model bounds in criterion 5 are strict expected failures; see the
notes in the corresponding tests and the README.
"""

import itertools
import math
import random
import time

import numpy as np
import pytest

from stencilpipe import decomp
from stencilpipe.bench import COLUMNS, cli_main
from stencilpipe.decomp import run_distributed
from stencilpipe.grid import FillPattern, GridDims, allocate
from stencilpipe.kernel import sweep_naive
from stencilpipe.model import (MachineParams, NetworkParams, baseline_perf,
                               efficiency, multihalo_ratio, pipelined_speedup)
from stencilpipe.pipeline import (PipelineConfig, audit_trace,
                                  instrumented_run, run_node_sweeps)
from stencilpipe.verify import check_maximum_principle, compare

DIMS48 = GridDims(48, 48, 48)
PATTERN = FillPattern.random(11)
NET = NetworkParams()


@pytest.fixture(scope="module")
def trajectory48():
    # naive-sweep snapshots 0..32 shared by criteria 1 and 2
    grid = allocate(DIMS48, "twogrid", PATTERN)
    states = [grid.interior().copy()]
    for _ in range(32):
        sweep_naive(grid)
        states.append(grid.interior().copy())
    return states


def _verdict(n, name, ok, extra=""):
    tag = "PASS" if ok else "FAIL"
    print(f"criterion {n} ({name}): {tag}{extra}")
    assert ok, f"criterion {n} ({name}) failed{extra}"


def test_criterion_1_oracle_equivalence_matrix(trajectory48):
    start = time.monotonic()
    count = 0
    for storage, sync, n, t, T, du, dt in itertools.product(
            ("twogrid", "compressed"), ("barrier", "relaxed"),
            (1, 2), (1, 2, 4), (1, 2), (1, 2, 4), (0, 8)):
        cfg = PipelineConfig(teams=n, team_size=t, updates_per_thread=T,
                             min_dist=1, max_dist=du, team_delay=dt,
                             sync=sync, storage=storage, block=(48, 16, 16))
        slack = cfg.levels_per_sweep if storage == "compressed" else 0
        grid = allocate(DIMS48, storage, PATTERN, slack=slack)
        run_node_sweeps(grid, cfg, 2)
        cmp = compare(trajectory48[2 * cfg.levels_per_sweep], grid.interior())
        assert cmp.passed, (storage, sync, n, t, T, du, dt, str(cmp))
        count += 1
    elapsed = time.monotonic() - start
    assert count == 288
    _verdict(1, "oracle-equivalence matrix", elapsed < 120.0,
             f" [288 configs, all bitwise, {elapsed:.1f}s]")


def test_criterion_2_distributed_equivalence(trajectory48, monkeypatch):
    for layout in ((2, 1, 1), (1, 2, 2), (2, 2, 2)):
        for n, t, T in ((1, 2, 1), (2, 2, 2), (2, 4, 2)):
            cfg = PipelineConfig(teams=n, team_size=t, updates_per_thread=T)
            gathered, _ = run_distributed(DIMS48, PATTERN, layout, cfg,
                                          outer_steps=2)
            cmp = compare(trajectory48[2 * cfg.levels_per_sweep], gathered)
            assert cmp.passed, (layout, n, t, T, str(cmp))
    # negative control: breaking the canonical x->y->z phase order must
    # corrupt corner-fed cells detectably
    serial = PipelineConfig(updates_per_thread=2)
    good, _ = run_distributed(DIMS48, PATTERN, (2, 2, 1), serial,
                              outer_steps=2)
    monkeypatch.setattr(decomp, "_ORDER", ("z", "y", "x"))
    bad, _ = run_distributed(DIMS48, PATTERN, (2, 2, 1), serial,
                             outer_steps=2)
    ref = trajectory48[4]
    negative_ok = compare(ref, good).passed and not compare(ref, bad).passed
    _verdict(2, "distributed equivalence", negative_ok,
             f" [9 layouts/configs, all bitwise, negative test "
             f"{'detected' if negative_ok else 'MISSED'}]")


def test_criterion_3_relaxed_sync_safety():
    rng = random.Random(20260824)
    violations = 0
    for _ in range(100):
        n = rng.choice([1, 2])
        t = rng.choice([1, 2, 3, 4])
        T = rng.choice([1, 2])
        U = n * t * T
        ext = rng.randrange(max(12, U + 2), 25)
        cfg = PipelineConfig(
            teams=n, team_size=t, updates_per_thread=T,
            min_dist=1, max_dist=rng.randrange(1, 9),
            team_delay=rng.choice([0, 1, 2, 4, 8]),
            block=(ext, rng.randrange(max(4, U), ext + 1),
                   rng.randrange(max(4, U), ext + 1)))
        d = GridDims(ext, ext, ext)
        g = allocate(d, "twogrid", FillPattern.random(rng.randrange(1 << 30)))
        trace = instrumented_run(g, cfg, 2)
        violations += len(audit_trace(trace, cfg))
    _verdict(3, "relaxed-synchronization safety", violations == 0,
             f" [100 runs, {violations} distance violations]")


def test_criterion_4_model_point_values():
    machine = MachineParams()
    checks = [
        math.isclose(baseline_perf(37.0e9), 2.3125e9, rel_tol=1e-9),
        math.isclose(pipelined_speedup(machine, 4, 1), 16.0 / 11.0,
                     rel_tol=1e-12),
    ]
    for T in (1, 2, 4):
        checks.append(math.isclose(pipelined_speedup(machine, 4, T),
                                   16.0 * T / (7.0 + 4.0 * T), rel_tol=1e-12))
    big = pipelined_speedup(machine, 1000, 1000)
    checks.append(abs(big - 4.0) / 4.0 < 1e-3)
    _verdict(4, "model point values", all(checks),
             f" [speedup(10^6)={big:.5f}]")


def test_criterion_5_multihalo_model_properties():
    ok = all(multihalo_ratio(L, 1, NET) == 1.0 for L in (8, 64, 512))
    for h in (2, 4, 8, 16):
        ok = ok and abs(multihalo_ratio(10_000, h, NET) - 1.0) < 5e-3
    ok = ok and multihalo_ratio(64, 32, NET) < 1.0
    # aggregation wins at small L for moderate halo depths
    ok = ok and multihalo_ratio(8, 4, NET) > 1.0
    for h in (2, 4, 8, 16, 32):
        effs = [efficiency(L, h, NET) for L in (8, 16, 32, 64, 128, 512)]
        ok = ok and all(a < b for a, b in zip(effs, effs[1:]))
    # golden-table regression lives in tests/test_model.py::test_golden_table
    _verdict(5, "multi-halo model properties", ok)


@pytest.mark.xfail(strict=True, reason=(
    "unattainable bound: the shrinking updates add about 3*(h-1)/L of extra "
    "face work per cell, which is 0.93% at h=32, L=10^4; no communication "
    "term can cancel it, so a 0.5% band around 1 cannot hold"))
def test_criterion_5_deep_halo_band_at_large_L():
    dev = abs(multihalo_ratio(10_000, 32, NET) - 1.0)
    print(f"criterion 5 (ratio(10^4, 32) within 0.5%): FAIL "
          f"[deviation {dev:.3%}, bound 0.5%]")
    assert dev < 5e-3


@pytest.mark.xfail(strict=True, reason=(
    "unattainable bound: at L=10, h=16 the extended updates perform 22x the "
    "useful work (sum of (10+2m)^3 = 352000 vs 16000 cells), costing more "
    "than the entire single-layer step including all its message latencies; "
    "aggregation does win at L=10 for h <= 8, but not at h=16"))
def test_criterion_5_aggregation_wins_at_tiny_L_deep_halo():
    r = multihalo_ratio(10, 16, NET)
    print(f"criterion 5 (ratio(10, 16) > 1): FAIL [ratio={r:.3f}]")
    assert r > 1.0


def test_criterion_6_bench_harness_reports(capsys):
    rc = cli_main(["bench", "--size", "20", "--variant", "naive",
                   "--variant", "blocked", "--variant", "pipeline",
                   "--teams", "1", "--team-size", "2", "-T", "2",
                   "--sweeps", "2", "--reps", "2"])
    out = capsys.readouterr().out
    lines = out.strip().split("\n")
    ok = rc == 0 and lines[0] == ",".join(COLUMNS) and len(lines) == 4
    rates = {}
    for line in lines[1:]:
        row = dict(zip(COLUMNS, line.split(",")))
        ok = ok and row["verified"] == "yes" and float(row["mlups"]) > 0
        rates[row["variant"]] = float(row["mlups"])
    with capsys.disabled():
        # relative orderings are informational only, never asserted
        _verdict(6, "bench harness reports", ok,
                 " [" + ", ".join(f"{v}={r:.0f} MLUP/s"
                                  for v, r in rates.items()) + "]")


def test_criterion_7_kernel_micro_properties():
    d = GridDims(16, 16, 16)
    ok = True
    for pattern in (FillPattern.constant(2.5), FillPattern.linear()):
        g = allocate(d, "twogrid", pattern)
        start = g.interior().copy()
        for _ in range(64):
            sweep_naive(g)
        ok = ok and np.array_equal(g.interior(), start)
    rng = random.Random(7)
    holds = 0
    for _ in range(50):
        g = allocate(GridDims(8, 8, 8), "twogrid",
                     FillPattern.random(rng.randrange(1 << 30)))
        before = g.full_view().copy()
        sweep_naive(g)
        holds += check_maximum_principle(before, g.interior())
    _verdict(7, "kernel micro-properties", ok and holds == 50,
             f" [fixed points bitwise over 64 levels, "
             f"maximum principle {holds}/50]")
