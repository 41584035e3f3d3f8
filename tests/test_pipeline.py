import random
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stencilpipe import pipeline
from stencilpipe.decomp import decompose, level_domains_for_rank
from stencilpipe.grid import FillPattern, GridDims, allocate
from stencilpipe.pipeline import (BlockSchedule, PipelineConfig,
                                  PipelineError, PipelineTimeout,
                                  ScheduleError, audit_trace, build_schedule,
                                  default_block_size, effective_bounds,
                                  instrumented_run, may_proceed,
                                  run_node_sweeps, trace_csv)
from stencilpipe.verify import compare, oracle


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
    assert may_proceed([3, 2], 1, cfg)
    assert not may_proceed([2, 2], 1, cfg)


def test_may_proceed_max_distance():
    cfg = PipelineConfig(teams=2, team_size=1, min_dist=1, max_dist=4)
    assert may_proceed([6, 2], 0, cfg)
    assert not may_proceed([7, 2], 0, cfg)


def test_may_proceed_team_delay_threshold():
    cfg = PipelineConfig(teams=2, team_size=1, min_dist=1, max_dist=16,
                         team_delay=8)
    assert may_proceed([10, 1], 1, cfg)  # lead 9 == d_l + d_t
    assert not may_proceed([9, 1], 1, cfg)


def test_may_proceed_saturates_at_sweep_end():
    # A predecessor that finished all blocks cannot race, whatever the lead.
    cfg = PipelineConfig(teams=2, team_size=1, min_dist=1, max_dist=16,
                         team_delay=8)
    c = [9, 6]
    assert not may_proceed(c, 1, cfg, n_blocks=12)
    assert may_proceed(c, 1, cfg, n_blocks=9)


def test_edge_threads_skip_one_condition():
    cfg = PipelineConfig(teams=1, team_size=3, min_dist=1, max_dist=2)
    c = [0, 0, 0]
    assert may_proceed(c, 0, cfg)       # no predecessor
    assert not may_proceed(c, 1, cfg)   # needs a lead of 1
    assert not may_proceed(c, 2, cfg)
    assert may_proceed([5, 4, 3], 2, cfg)       # no successor to overrun
    assert not may_proceed([9, 6, 3], 1, cfg)   # middle thread still bounded above


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


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_schedule_partitions_every_level(data):
    dims = data.draw(st.tuples(*[st.integers(1, 12)] * 3), label="(nx, ny, nz)")
    block = tuple(data.draw(st.integers(1, n + 2), label="block") for n in dims)
    U = data.draw(st.integers(1, 4), label="U")
    direction = data.draw(st.sampled_from([-1, 1]), label="direction")
    gd = GridDims(*dims)
    if data.draw(st.booleans(), label="rank domains"):
        # Split only axes that leave every rank at least U cells.
        layout = tuple(data.draw(st.integers(1, max(1, min(3, n // U))),
                                 label="layout") for n in dims)
        decomp = decompose(gd, layout[0] * layout[1] * layout[2], layout, U)
        rank = data.draw(st.integers(0, decomp.n_ranks - 1), label="rank")
        domains = level_domains_for_rank(decomp, rank, U)
    else:
        domains = [((0, 0, 0), gd.shape)] * U

    base_lo, base_hi = domains[0]
    cuts = [range(l + b, h, b) for l, h, b in zip(base_lo, base_hi, block[::-1])]
    try:
        sched = BlockSchedule(domains, block, direction)
    except ScheduleError:
        assert any(not lo[d] <= c + direction * (tau - 1) <= hi[d]
                   for tau, (lo, hi) in enumerate(domains, 1)
                   for d in range(3) for c in cuts[d])
        return
    assert sched.n_blocks == np.prod([len(c) + 1 for c in cuts])
    for tau, (dom_lo, dom_hi) in enumerate(domains, 1):
        cover = np.zeros([h - l for l, h in zip(dom_lo, dom_hi)], dtype=np.int32)
        for blk in sched.order:
            lo, hi = sched.region(blk, tau)
            assert all(dl <= l <= h <= dh for dl, l, h, dh
                       in zip(dom_lo, lo, hi, dom_hi)), (blk, tau)
            cover[tuple(slice(l - o, h - o) for l, h, o in zip(lo, hi, dom_lo))] += 1
        assert (cover == 1).all(), tau


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


@pytest.mark.parametrize("storage", ["twogrid", "compressed"])
@pytest.mark.parametrize("sync", ["barrier", "relaxed"])
def test_one_block_pipeline_deeper_than_grid_matches_oracle(sync, storage):
    # U = 5 levels exceed every 4-cell extent; one block per axis still
    # tiles every level, so the run is valid and exact.
    d = GridDims(4, 4, 4)
    pat = FillPattern.random(59)
    cfg = PipelineConfig(teams=1, team_size=5, updates_per_thread=1,
                         sync=sync, storage=storage)
    g = allocate(d, storage, pat, slack=cfg.levels_per_sweep)
    run_node_sweeps(g, cfg, 2)
    assert compare(oracle(d, pat, 10), g).bitwise


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


def test_stalled_thread_times_out(monkeypatch):
    # Thread 1's gate never opens: the run must end soon after the spin
    # timeout with an error naming the thread, and leave no worker behind.
    monkeypatch.setattr(pipeline._Runner, "_SPIN_TIMEOUT", 0.2)
    monkeypatch.setattr(pipeline, "may_proceed", lambda c, i, *a: i != 1)
    d = GridDims(8, 8, 8)
    cfg = PipelineConfig(teams=1, team_size=2, updates_per_thread=1,
                         block=(8, 4, 4))
    g = allocate(d, "twogrid", FillPattern.random(61))
    errors = []

    def run():
        try:
            run_node_sweeps(g, cfg, 1)
        except PipelineTimeout as exc:
            errors.append(exc)

    caller = threading.Thread(target=run, daemon=True)
    caller.start()
    caller.join(timeout=5.0)
    assert not caller.is_alive()
    assert len(errors) == 1 and "thread 1 " in str(errors[0])
    assert not [th for th in threading.enumerate()
                if th.name.startswith("pipe-")]


@pytest.mark.parametrize("storage", ["twogrid", "compressed"])
@pytest.mark.parametrize("sync", ["barrier", "relaxed"])
def test_worker_failure_names_the_thread(monkeypatch, run_bounded, sync,
                                         storage):
    # pipe-1 raises on its third block: thread 0 runs ahead and thread 2
    # waits behind it, and both must be torn down, not reported.
    boom = FloatingPointError("boom in worker")
    apply_levels = pipeline._apply_levels
    calls = []

    def failing(grid, sched, blk, levels):
        if threading.current_thread().name == "pipe-1":
            calls.append(blk)
            if len(calls) == 3:
                raise boom
        apply_levels(grid, sched, blk, levels)

    monkeypatch.setattr(pipeline, "_apply_levels", failing)
    d = GridDims(8, 8, 8)
    cfg = PipelineConfig(teams=1, team_size=3, updates_per_thread=1,
                         block=(8, 4, 4), sync=sync, storage=storage)
    g = allocate(d, storage, FillPattern.random(67),
                 slack=cfg.levels_per_sweep)
    err = run_bounded(lambda: run_node_sweeps(g, cfg, 2))
    assert isinstance(err, PipelineError)
    assert str(err).startswith("pipe 1 failed: FloatingPointError")
    assert err.__cause__ is boom


def test_storage_mismatch_rejected():
    d = GridDims(8, 8, 8)
    g = allocate(d, "twogrid", FillPattern.constant(0.0))
    cfg = PipelineConfig(storage="compressed")
    with pytest.raises(ValueError):
        run_node_sweeps(g, cfg, 1)


def test_compressed_rerun_at_slack_u_matches_oracle():
    # A sweep moves the origin down while it has U layers of room below,
    # else up, so slack U serves any sequence of calls.
    d = GridDims(12, 12, 12)
    pat = FillPattern.random(53)
    ref = oracle(d, pat, 32)
    for sync in ("barrier", "relaxed"):
        cfg = PipelineConfig(teams=1, team_size=2, updates_per_thread=2,
                             sync=sync, storage="compressed")
        g = allocate(d, "compressed", pat, slack=cfg.levels_per_sweep)
        for sweeps in (2, 1, 2, 1, 2):
            run_node_sweeps(g, cfg, sweeps)
        assert compare(ref, g).bitwise, sync


def test_compressed_needs_slack():
    d = GridDims(8, 8, 8)
    cfg = PipelineConfig(teams=1, team_size=2, updates_per_thread=2,
                         storage="compressed")
    g = allocate(d, "compressed", FillPattern.random(7), slack=2)
    before = g.data.copy()
    with pytest.raises(ScheduleError):
        run_node_sweeps(g, cfg, 1)
    assert g.data.tobytes() == before.tobytes()


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
