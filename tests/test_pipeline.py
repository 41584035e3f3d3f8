import random

import numpy as np
import pytest

from stencilpipe.grid import FillPattern, GridDims, allocate
from stencilpipe.pipeline import (PipelineConfig, ScheduleError, ThreadCounters,
                                  audit_trace, build_schedule,
                                  default_block_size, effective_bounds,
                                  instrumented_run, may_proceed,
                                  run_node_sweeps, trace_csv)
from stencilpipe.verify import compare, oracle


def _set(counters: ThreadCounters, values) -> None:
    for i, v in enumerate(values):
        counters._c[i, 0] = v


def test_effective_bounds_team_delay():
    cfg = PipelineConfig(teams=2, team_size=2, min_dist=1, max_dist=4,
                         team_delay=3)
    # team fronts (threads 0, 2) carry the delay on d_l, rears (1, 3) on d_u
    assert effective_bounds(cfg, 0) == (4, 4)
    assert effective_bounds(cfg, 1) == (1, 7)
    assert effective_bounds(cfg, 2) == (4, 4)
    assert effective_bounds(cfg, 3) == (1, 7)


def test_may_proceed_min_distance():
    cfg = PipelineConfig(teams=2, team_size=1, min_dist=1, max_dist=4)
    c = ThreadCounters(2)
    _set(c, [3, 2])
    assert may_proceed(c, 1, cfg)
    _set(c, [2, 2])
    assert not may_proceed(c, 1, cfg)


def test_may_proceed_max_distance():
    cfg = PipelineConfig(teams=2, team_size=1, min_dist=1, max_dist=4)
    c = ThreadCounters(2)
    _set(c, [6, 2])
    assert may_proceed(c, 0, cfg)
    _set(c, [7, 2])
    assert not may_proceed(c, 0, cfg)


def test_may_proceed_team_delay_threshold():
    cfg = PipelineConfig(teams=2, team_size=1, min_dist=1, max_dist=16,
                         team_delay=8)
    c = ThreadCounters(2)
    _set(c, [10, 1])
    assert may_proceed(c, 1, cfg)  # lead 9 == d_l + d_t
    _set(c, [9, 1])
    assert not may_proceed(c, 1, cfg)


def test_may_proceed_saturates_at_sweep_end():
    # A predecessor that finished all blocks cannot race, whatever the lead.
    cfg = PipelineConfig(teams=2, team_size=1, min_dist=1, max_dist=16,
                         team_delay=8)
    c = ThreadCounters(2)
    _set(c, [9, 6])
    assert not may_proceed(c, 1, cfg, n_blocks=12)
    assert may_proceed(c, 1, cfg, n_blocks=9)


def test_edge_threads_skip_one_condition():
    cfg = PipelineConfig(teams=1, team_size=3, min_dist=1, max_dist=2)
    c = ThreadCounters(3)
    _set(c, [0, 0, 0])
    assert may_proceed(c, 0, cfg)       # no predecessor
    assert not may_proceed(c, 1, cfg)   # needs a lead of 1
    assert not may_proceed(c, 2, cfg)
    _set(c, [5, 4, 3])
    assert may_proceed(c, 2, cfg)       # no successor to overrun
    _set(c, [9, 6, 3])
    assert not may_proceed(c, 1, cfg)   # middle thread still bounded above


def test_config_validation():
    with pytest.raises(ValueError):
        PipelineConfig(teams=0)
    with pytest.raises(ValueError):
        PipelineConfig(min_dist=0)
    with pytest.raises(ValueError):
        PipelineConfig(min_dist=3, max_dist=2)
    with pytest.raises(ValueError):
        PipelineConfig(sync="spin")


def test_schedule_single_block_is_full_region():
    d = GridDims(8, 8, 8)
    cfg = PipelineConfig(teams=1, team_size=2, updates_per_thread=2)
    sched = build_schedule(d, cfg)
    assert sched.n_blocks == 1
    for tau in range(1, 5):
        assert sched.region((0, 0, 0), tau) == ((0, 0, 0), (8, 8, 8))


def test_schedule_partitions_every_level():
    d = GridDims(12, 12, 12)
    cfg = PipelineConfig(teams=1, team_size=2, updates_per_thread=1,
                         block=(12, 4, 4))
    sched = build_schedule(d, cfg)
    assert sched.n_blocks == 9
    for tau in range(1, cfg.levels_per_sweep + 1):
        sched.check_partition(tau)


def test_schedule_shifts_and_clamps():
    d = GridDims(12, 12, 12)
    cfg = PipelineConfig(teams=1, team_size=2, updates_per_thread=1,
                         block=(12, 4, 4))
    sched = build_schedule(d, cfg)
    # level 2 shifts by -1; the first block absorbs the freed low edge
    lo, hi = sched.region((0, 0, 0), 2)
    assert lo == (0, 0, 0) and hi == (3, 3, 12)
    lo, hi = sched.region((2, 2, 0), 2)
    assert lo == (7, 7, 0) and hi == (12, 12, 12)


def test_schedule_rejects_degenerate_pipeline():
    d = GridDims(4, 4, 4)
    cfg = PipelineConfig(teams=1, team_size=5, updates_per_thread=1)
    with pytest.raises(ScheduleError):
        build_schedule(d, cfg)


def test_schedule_rejects_thin_blocks():
    d = GridDims(16, 16, 16)
    cfg = PipelineConfig(teams=2, team_size=2, updates_per_thread=2,
                         block=(16, 2, 2))  # U=8 shifts overrun 2-wide blocks
    with pytest.raises(ScheduleError):
        build_schedule(d, cfg)


def test_reverse_order_for_forward_shift():
    d = GridDims(8, 8, 8)
    cfg = PipelineConfig(teams=1, team_size=1, updates_per_thread=1,
                         block=(8, 4, 4))
    fwd = build_schedule(d, cfg, direction=-1)
    rev = build_schedule(d, cfg, direction=1)
    assert rev.order == list(reversed(fwd.order))


def test_single_thread_pipeline_matches_oracle():
    d = GridDims(10, 10, 10)
    pat = FillPattern.random(21)
    cfg = PipelineConfig(teams=1, team_size=1, updates_per_thread=1)
    g = allocate(d, "twogrid", pat)
    run_node_sweeps(g, cfg, 5)
    assert compare(oracle(d, pat, 5), g).bitwise


def test_team_pipeline_matches_oracle():
    d = GridDims(24, 24, 24)
    pat = FillPattern.random(11)
    cfg = PipelineConfig(teams=2, team_size=4, updates_per_thread=2,
                         block=(24, 16, 16))
    g = allocate(d, "twogrid", pat)
    run_node_sweeps(g, cfg, 1)
    assert compare(oracle(d, pat, 16), g).bitwise


def test_barrier_and_relaxed_agree():
    d = GridDims(16, 16, 16)
    pat = FillPattern.random(31)
    base = dict(teams=2, team_size=2, updates_per_thread=1, team_delay=1,
                block=(16, 4, 4))
    a = allocate(d, "twogrid", pat)
    b = allocate(d, "twogrid", pat)
    run_node_sweeps(a, PipelineConfig(sync="barrier", **base), 2)
    run_node_sweeps(b, PipelineConfig(sync="relaxed", **base), 2)
    assert compare(a, b).bitwise


def test_compressed_pipeline_matches_oracle():
    d = GridDims(16, 16, 16)
    pat = FillPattern.random(41)
    cfg = PipelineConfig(teams=1, team_size=2, updates_per_thread=2,
                         block=(16, 8, 8), storage="compressed")
    g = allocate(d, "compressed", pat, slack=cfg.levels_per_sweep)
    run_node_sweeps(g, cfg, 3)  # odd sweep count exercises both directions
    assert compare(oracle(d, pat, 12), g).bitwise


def test_compressed_ghost_refresh_needs_no_pattern(monkeypatch):
    # The boundary shell comes from faces cached at allocation: once the
    # grid exists, a run must not evaluate the fill pattern again.
    d = GridDims(12, 12, 12)
    pat = FillPattern.random(47)
    cfg = PipelineConfig(teams=1, team_size=1, updates_per_thread=2,
                         block=(12, 4, 4), storage="compressed")
    ref = oracle(d, pat, 4)
    g = allocate(d, "compressed", pat, slack=cfg.levels_per_sweep)

    def refuse(self, lo, hi):
        raise AssertionError("FillPattern.evaluate called after allocation")

    monkeypatch.setattr(FillPattern, "evaluate", refuse)
    run_node_sweeps(g, cfg, 2)
    assert compare(ref, g).bitwise


def test_storage_mismatch_rejected():
    d = GridDims(8, 8, 8)
    g = allocate(d, "twogrid", FillPattern.constant(0.0))
    cfg = PipelineConfig(storage="compressed")
    with pytest.raises(ValueError):
        run_node_sweeps(g, cfg, 1)


def test_compressed_needs_slack():
    d = GridDims(8, 8, 8)
    cfg = PipelineConfig(teams=1, team_size=2, updates_per_thread=2,
                         storage="compressed")
    g = allocate(d, "compressed", FillPattern.constant(0.0), slack=2)
    with pytest.raises(ScheduleError):
        run_node_sweeps(g, cfg, 1)


def test_instrumented_trace_obeys_distances():
    d = GridDims(16, 16, 16)
    cfg = PipelineConfig(teams=2, team_size=2, updates_per_thread=1,
                         min_dist=1, max_dist=3, team_delay=2,
                         block=(16, 4, 4))
    g = allocate(d, "twogrid", FillPattern.random(1))
    trace = instrumented_run(g, cfg, 2)
    sched_blocks = 16  # 4x4 blocks in y, z
    assert len(trace) == 2 * cfg.n_threads * sched_blocks
    assert audit_trace(trace, cfg, n_blocks=sched_blocks) == []


def test_tight_distances_pin_the_window():
    # With d_l = d_u = 1 a successor starts a block only at lead exactly 1;
    # the snapshot is taken just after the gate, during which the
    # predecessor may legally finish one more block, so the observed lead
    # is 1 or 2 until the predecessor saturates.
    d = GridDims(16, 16, 16)
    cfg = PipelineConfig(teams=1, team_size=3, updates_per_thread=1,
                         min_dist=1, max_dist=1, block=(16, 4, 4))
    g = allocate(d, "twogrid", FillPattern.random(2))
    trace = instrumented_run(g, cfg, 1)
    n_blocks = 16
    assert audit_trace(trace, cfg, n_blocks=n_blocks) == []
    for ev in trace:
        if ev.thread > 0 and ev.c_prev < n_blocks:
            assert 1 <= ev.c_prev - ev.c_self <= 2


def test_trace_csv_format():
    d = GridDims(8, 8, 8)
    cfg = PipelineConfig(teams=1, team_size=1, updates_per_thread=1)
    g = allocate(d, "twogrid", FillPattern.constant(0.0))
    trace = instrumented_run(g, cfg, 1)
    text = trace_csv(trace)
    lines = text.strip().split("\n")
    assert lines[0] == "sweep,thread,block,c_prev,c_self,c_next"
    assert lines[1] == "0,0,0,-1,0,-1"


def test_randomized_runs_audit_clean():
    rng = random.Random(1234)
    for _ in range(15):
        n = rng.choice([1, 2])
        t = rng.choice([1, 2, 3])
        T = rng.choice([1, 2])
        U = n * t * T
        ext = rng.randrange(max(12, U + 2), 25)
        du = rng.randrange(1, 9)
        dt = rng.randrange(0, 3)
        by = rng.randrange(max(4, U), ext + 1)
        bz = rng.randrange(max(4, U), ext + 1)
        cfg = PipelineConfig(teams=n, team_size=t, updates_per_thread=T,
                             min_dist=1, max_dist=du, team_delay=dt,
                             block=(ext, by, bz))
        d = GridDims(ext, ext, ext)
        pat = FillPattern.random(rng.randrange(1 << 30))
        g = allocate(d, "twogrid", pat)
        trace = instrumented_run(g, cfg, 2)
        sched = build_schedule(d, cfg)
        assert audit_trace(trace, cfg, n_blocks=sched.n_blocks) == []
        assert compare(oracle(d, pat, 2 * U), g).bitwise


def test_default_block_size_valid():
    for ext in (8, 16, 33, 48):
        for t, T in ((1, 1), (2, 2), (4, 2)):
            d = GridDims(ext, ext, ext)
            cfg = PipelineConfig(teams=1, team_size=t, updates_per_thread=T)
            if cfg.levels_per_sweep > ext:
                continue
            bs = default_block_size(d, cfg)
            build_schedule(d, PipelineConfig(
                teams=1, team_size=t, updates_per_thread=T, block=bs))
