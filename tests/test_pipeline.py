import random
import threading
import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import (HealthCheck, assume, given, settings,
                        strategies as st)

from stencilpipe import kernel, pipeline
from stencilpipe.decomp import (decompose, level_domains_for_rank, local_grid,
                                run_distributed)
from stencilpipe.grid import FillPattern, GridDims, GridError, allocate
from stencilpipe.pipeline import (BlockSchedule, PipelineConfig,
                                  PipelineError, PipelineTimeout,
                                  ScheduleError, TraceEvent, _first_step,
                                  audit_trace, build_schedule,
                                  default_block_size, effective_bounds,
                                  instrumented_run, may_proceed,
                                  run_node_sweeps, trace_csv)
from stencilpipe.kernel import update_region
from stencilpipe.transport import Aborted
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
    assert may_proceed([3, 2], 1, cfg, n_blocks=10)
    assert not may_proceed([2, 2], 1, cfg, n_blocks=10)


def test_may_proceed_max_distance():
    cfg = PipelineConfig(teams=2, team_size=1, min_dist=1, max_dist=4)
    assert may_proceed([6, 2], 0, cfg, n_blocks=10)
    assert not may_proceed([7, 2], 0, cfg, n_blocks=10)


def test_may_proceed_team_delay_threshold():
    cfg = PipelineConfig(teams=2, team_size=1, min_dist=1, max_dist=16,
                         team_delay=8)
    assert may_proceed([10, 1], 1, cfg, n_blocks=20)  # lead 9 == d_l + d_t
    assert not may_proceed([9, 1], 1, cfg, n_blocks=20)


def test_may_proceed_saturates_at_sweep_end():
    # A predecessor that finished all blocks cannot race, whatever the lead.
    cfg = PipelineConfig(teams=2, team_size=1, min_dist=1, max_dist=16,
                         team_delay=8)
    c = [9, 6]
    assert not may_proceed(c, 1, cfg, n_blocks=12)
    assert may_proceed(c, 1, cfg, n_blocks=9)


def test_edge_threads_skip_one_condition():
    cfg = PipelineConfig(teams=1, team_size=3, min_dist=1, max_dist=2)
    c, nb = [0, 0, 0], 10
    assert may_proceed(c, 0, cfg, nb)       # no predecessor
    assert not may_proceed(c, 1, cfg, nb)   # needs a lead of 1
    assert not may_proceed(c, 2, cfg, nb)
    assert may_proceed([5, 4, 3], 2, cfg, nb)       # no successor to overrun
    assert not may_proceed([9, 6, 3], 1, cfg, nb)   # middle still bounded above


def test_may_proceed_follows_barrier_sync():
    # Under the barrier thread 2 waits for thread 0 too: its block 0 is
    # step 2, which starts once thread 0 has done steps 0 and 1.
    cfg = PipelineConfig(teams=1, team_size=3, sync="barrier")
    assert not may_proceed([1, 1, 0], 2, cfg, n_blocks=10)
    assert may_proceed([2, 1, 0], 2, cfg, n_blocks=10)
    assert may_proceed([1, 1, 0], 2, replace(cfg, sync="relaxed"), n_blocks=10)


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
def test_one_block_pipeline_deeper_than_grid_matches_oracle(sync, storage,
                                                            backends):
    # U = 5 levels exceed every 4-cell extent; one block per axis still
    # tiles every level, so the run is valid and exact.
    d = GridDims(4, 4, 4)
    pat = FillPattern.random(59)
    cfg = PipelineConfig(teams=1, team_size=5, updates_per_thread=1,
                         sync=sync, storage=storage)
    ref = oracle(d, pat, 10)
    for backend in backends:
        g = allocate(d, storage, pat, slack=cfg.levels_per_sweep)
        run_node_sweeps(g, cfg, 2)
        assert compare(ref, g).bitwise, backend


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
    assert rev.order == tuple(reversed(fwd.order))


def test_build_schedule_shares_one_immutable_object():
    # A schedule depends on the level domains, the block and the direction
    # alone: sync mode, storage, team shape and the domains' container
    # do not make a new one.
    d = GridDims(12, 12, 12)
    relaxed = PipelineConfig(team_size=2, updates_per_thread=1,
                             block=(12, 4, 4))
    interior = ((0, 0, 0), (12, 12, 12))
    sched = build_schedule(d, relaxed)
    for cfg, domains in (
            (relaxed, [interior] * 2),
            (relaxed, ([[0, 0, 0], [12, 12, 12]],) * 2),
            (PipelineConfig(team_size=2, updates_per_thread=1,
                            block=[12, 4, 4]), None),
            (PipelineConfig(updates_per_thread=2, sync="barrier",
                            block=(12, 4, 4)), (interior,) * 2),
            (PipelineConfig(team_size=2, updates_per_thread=1,
                            block=(12, 4, 4), storage="compressed"), None)):
        assert build_schedule(d, cfg, domains) is sched, (cfg, domains)
    up = build_schedule(d, relaxed, direction=1)
    assert up is not sched and up is build_schedule(d, relaxed, None, 1)
    assert type(sched.order) is tuple and type(sched._cuts) is tuple
    assert all(type(level) is tuple and type(chain) is tuple
               for level in sched._cuts for chain in level)


def test_invalid_schedule_raises_on_every_call():
    # Errors are not memoized: a repeat of a bad geometry raises again.
    d = GridDims(16, 16, 16)
    cfg = PipelineConfig(teams=2, team_size=2, updates_per_thread=2,
                         block=(16, 2, 2))
    for _ in range(2):
        with pytest.raises(ScheduleError):
            build_schedule(d, cfg)
        with pytest.raises(ScheduleError):
            run_node_sweeps(allocate(d, "twogrid", FillPattern.constant(0.0)),
                            cfg, 1)


def test_engines_share_schedules_and_stay_bitwise(monkeypatch, backends):
    # pipeline, pipeline_barrier and compressed on one grid size, back to
    # back, as perfbench runs them: the three down sweeps share one
    # schedule, and sharing changes no bit.  Then two distributed runs in
    # a row, whose ranks reuse the first run's domains and schedules.
    d = GridDims(20, 20, 20)
    pat = FillPattern.random(83)
    relaxed = PipelineConfig(team_size=2, updates_per_thread=2)
    relaxed = replace(relaxed, block=default_block_size(d, relaxed))
    U = relaxed.levels_per_sweep
    built = []
    real = pipeline.build_schedule

    def record(*args, **kwargs):
        built.append(real(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(pipeline, "build_schedule", record)
    ref = oracle(d, pat, 2 * U)
    for backend in backends:
        for cfg in (relaxed, replace(relaxed, sync="barrier"),
                    replace(relaxed, storage="compressed")):
            del built[:]
            g = allocate(d, cfg.storage, pat, slack=U)
            run_node_sweeps(g, cfg, 2)
            assert compare(ref, g).bitwise, (backend, cfg)
            assert built[0] is real(d, relaxed), (backend, cfg)
    d = GridDims(12, 10, 18)
    cfg = PipelineConfig(team_size=2, updates_per_thread=1, block=(12, 4, 4))
    for backend in backends:
        for seed in (5, 6):
            pat = FillPattern.random(seed)
            gathered, _ = run_distributed(d, pat, (1, 1, 3), cfg, 2)
            ref = oracle(d, pat, 2 * cfg.levels_per_sweep).interior()
            assert compare(ref, gathered).bitwise, (backend, seed)


def test_single_thread_pipeline_matches_oracle(backends):
    d = GridDims(10, 10, 10)
    pat = FillPattern.random(21)
    cfg = PipelineConfig(teams=1, team_size=1, updates_per_thread=1)
    ref = oracle(d, pat, 5)
    for backend in backends:
        g = allocate(d, "twogrid", pat)
        run_node_sweeps(g, cfg, 5)
        assert compare(ref, g).bitwise, backend


def test_team_pipeline_matches_oracle(backends):
    d = GridDims(24, 24, 24)
    pat = FillPattern.random(11)
    cfg = PipelineConfig(teams=2, team_size=4, updates_per_thread=2,
                         block=(24, 16, 16))
    ref = oracle(d, pat, 16)
    for backend in backends:
        g = allocate(d, "twogrid", pat)
        run_node_sweeps(g, cfg, 1)
        assert compare(ref, g).bitwise, backend


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


def test_compressed_pipeline_matches_oracle(backends):
    d = GridDims(16, 16, 16)
    pat = FillPattern.random(41)
    cfg = PipelineConfig(teams=1, team_size=2, updates_per_thread=2,
                         block=(16, 8, 8), storage="compressed")
    ref = oracle(d, pat, 12)
    for backend in backends:
        g = allocate(d, "compressed", pat, slack=cfg.levels_per_sweep)
        run_node_sweeps(g, cfg, 3)  # odd sweep count runs both directions
        assert compare(ref, g).bitwise, backend


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


def test_stalled_thread_times_out(monkeypatch, backends):
    # Thread 1's gate never opens: the run must end in bounded time with an
    # error naming the thread, and leave no worker behind.  Under numpy the
    # gate refuses thread 1, and once thread 0 is done no thread can go on:
    # the deadlock is raised at once, at the default spin timeout of 30 s.
    # Under c the gate reads only counters, and any bounds that keep thread
    # 1 waiting keep thread 0 spinning too, which could then time out
    # first; so thread 0 never delivers a block, waiting outside the sweep
    # loop until the run is aborted, and thread 1 spins on a predecessor
    # count that stays 0 until the spin timeout, shortened to 0.2 s.
    d = GridDims(8, 8, 8)
    cfg = PipelineConfig(teams=1, team_size=2, updates_per_thread=1,
                         block=(8, 4, 4))
    run_sweep_c, gate = pipeline._Runner._run_sweep_c, pipeline._gate

    def idle_front(self, i, sweep, sched):
        if i == 0:
            while not self.stop.value:
                time.sleep(0.001)
            raise Aborted
        run_sweep_c(self, i, sweep, sched)

    def refuse_1(counters, pairs, i, b, n_blocks):
        return None if i == 1 else gate(counters, pairs, i, b, n_blocks)

    for backend in backends:
        g = allocate(d, "twogrid", FillPattern.random(61))
        errors = []

        def run():
            try:
                run_node_sweeps(g, cfg, 1)
            except PipelineTimeout as exc:
                errors.append(exc)

        with monkeypatch.context() as mp:
            if backend == "c":
                mp.setattr(pipeline._Runner, "_SPIN_TIMEOUT", 0.2)
                mp.setattr(pipeline._Runner, "_run_sweep_c", idle_front)
            else:
                mp.setattr(pipeline, "_gate", refuse_1)
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
                                         storage, backends):
    # Thread 1 fails while thread 0 waits ahead of it (d_u = 1, or the
    # barrier) and thread 2 behind it; neither may be reported.  Under
    # numpy thread 1, the one that applies level 2 (T=1), raises on its
    # third block.  Under c its whole sweep is one call, which is replaced
    # by one that raises once thread 0 has done a block, so that the others
    # spin inside C and only the abort flag can free them.
    boom = FloatingPointError("boom in worker")
    apply_levels = pipeline._apply_levels
    calls = []

    def failing(grid, sched, blk, levels):
        if levels[0] == 2:
            calls.append(blk)
            if len(calls) == 3:
                raise boom
        apply_levels(grid, sched, blk, levels)

    run_sweep_c = pipeline._Runner._run_sweep_c

    def failing_call(self, i, sweep, sched):
        if i == 1:
            while self.counters[0] == 0:
                time.sleep(0.001)
            time.sleep(0.02)
            raise boom
        run_sweep_c(self, i, sweep, sched)

    d = GridDims(8, 8, 8)
    cfg = PipelineConfig(teams=1, team_size=3, updates_per_thread=1,
                         max_dist=1, block=(8, 4, 4), sync=sync,
                         storage=storage)
    for backend in backends:
        calls.clear()
        g = allocate(d, storage, FillPattern.random(67),
                     slack=cfg.levels_per_sweep)
        with monkeypatch.context() as mp:
            if backend == "c":
                mp.setattr(pipeline._Runner, "_run_sweep_c", failing_call)
            else:
                mp.setattr(pipeline, "_apply_levels", failing)
            err = run_bounded(lambda: run_node_sweeps(g, cfg, 2))
        assert isinstance(err, PipelineError)
        assert str(err).startswith("pipe 1 failed: FloatingPointError")
        assert err.__cause__ is boom


def test_numpy_sweep_runs_on_the_calling_thread(monkeypatch):
    # Under numpy a three-thread node sweep forms no thread group: the
    # calling thread runs every block.
    def refuse(*args):
        raise AssertionError("run_group called under numpy")

    monkeypatch.setattr(kernel, "_c_sweep", None)
    monkeypatch.setattr(pipeline, "run_group", refuse)
    d = GridDims(12, 12, 12)
    pat = FillPattern.random(89)
    cfg = PipelineConfig(teams=1, team_size=3, updates_per_thread=1,
                         block=(12, 4, 4))
    g = allocate(d, "twogrid", pat)
    run_node_sweeps(g, cfg, 2)
    assert compare(oracle(d, pat, 6), g).bitwise


def test_storage_mismatch_rejected():
    # Each (grid storage, config storage, level domains) the runner refuses
    # before any thread writes.
    d = GridDims(8, 8, 8)
    U = PipelineConfig().levels_per_sweep
    cases = [("twogrid", "compressed", None,
              "config expects compressed storage"),
             ("compressed", "twogrid", None,
              "config expects two-grid storage"),
             ("compressed", "compressed", [((0, 0, 0), d.shape)] * U,
              "interior domains only")]
    for storage, wanted, domains, message in cases:
        g = allocate(d, storage, FillPattern.random(3), slack=U)
        arrays = (g.a, g.b) if storage == "twogrid" else (g.data,)
        before = [a.tobytes() for a in arrays]
        with pytest.raises(ValueError, match=message):
            run_node_sweeps(g, PipelineConfig(storage=wanted), 1, domains)
        assert [a.tobytes() for a in arrays] == before, message


def test_compressed_run_refused_when_its_up_sweep_is_invalid(backends):
    # Slack U: the first sweep runs down and the second up.  The down
    # schedule is valid, but the up one pushes level 3's z edges past the
    # high end, so the run is refused before its first sweep writes.
    d = GridDims(9, 9, 9)
    cfg = PipelineConfig(team_size=1, updates_per_thread=3, block=(9, 4, 4),
                         storage="compressed")
    build_schedule(d, cfg, direction=-1)
    for backend in backends:
        g = allocate(d, "compressed", FillPattern.random(71), slack=3)
        before = g.data.tobytes()
        with pytest.raises(ScheduleError,
                           match=r"level 3: shifted block edges escape "
                                 r"domain \(dim 0, shift 2\)"):
            run_node_sweeps(g, cfg, 2)
        assert g.data.tobytes() == before and g.offset == 3, backend


def test_compressed_rerun_at_slack_u_matches_oracle(backends):
    # A sweep moves the origin down while it has U layers of room below,
    # else up, so slack U serves any sequence of calls.
    d = GridDims(12, 12, 12)
    pat = FillPattern.random(53)
    ref = oracle(d, pat, 32)
    for backend in backends:
        for sync in ("barrier", "relaxed"):
            cfg = PipelineConfig(teams=1, team_size=2, updates_per_thread=2,
                                 sync=sync, storage="compressed")
            g = allocate(d, "compressed", pat, slack=cfg.levels_per_sweep)
            for sweeps in (2, 1, 2, 1, 2):
                run_node_sweeps(g, cfg, sweeps)
            assert compare(ref, g).bitwise, (backend, sync)


def test_compressed_needs_slack():
    d = GridDims(8, 8, 8)
    cfg = PipelineConfig(teams=1, team_size=2, updates_per_thread=2,
                         storage="compressed")
    g = allocate(d, "compressed", FillPattern.random(7), slack=2)
    before = g.data.copy()
    with pytest.raises(ScheduleError):
        run_node_sweeps(g, cfg, 1)
    assert g.data.tobytes() == before.tobytes()


def test_instrumented_trace_obeys_distances(backends):
    d = GridDims(16, 16, 16)
    cfg = PipelineConfig(teams=2, team_size=2, updates_per_thread=1,
                         min_dist=1, max_dist=3, team_delay=2,
                         block=(16, 4, 4))
    sched_blocks = 16  # 4x4 blocks in y, z
    for backend in backends:
        g = allocate(d, "twogrid", FillPattern.random(1))
        trace = instrumented_run(g, cfg, 2)
        assert len(trace) == 2 * cfg.n_threads * sched_blocks, backend
        assert audit_trace(trace, cfg) == [], backend


@pytest.mark.parametrize("team_delay", [0, 2])
@pytest.mark.parametrize("d_l", [2, 3])
def test_barrier_runs_audit_clean_whatever_min_dist(d_l, team_delay,
                                                    backends):
    # Barrier lockstep keeps a thread one block behind its predecessor,
    # plus the team delay at a team's front, whatever d_l is; the audit
    # checks the barrier's pairs, which do not read d_l.
    d = GridDims(16, 24, 24)
    cfg = PipelineConfig(teams=2, team_size=3, updates_per_thread=1,
                         min_dist=d_l, team_delay=team_delay,
                         sync="barrier", block=(16, 8, 8))
    pat = FillPattern.random(37)
    for backend in backends:
        g = allocate(d, "twogrid", pat)
        trace = instrumented_run(g, cfg, 2)
        assert len(trace) == 2 * cfg.n_threads * 9, backend
        assert audit_trace(trace, cfg) == [], backend
        assert compare(oracle(d, pat, 2 * cfg.levels_per_sweep),
                       g).bitwise, backend


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
    assert audit_trace(trace, cfg) == []
    for ev in trace:
        if ev.thread > 0 and ev.c_prev < n_blocks:
            assert 1 <= ev.c_prev - ev.c_self <= 2


def test_audit_takes_the_block_count_from_the_trace():
    # Two teams of one thread with team delay 4, three blocks each: the
    # successor needs a lead of D_l = 5, which it can only have once its
    # predecessor has finished all three blocks.  The trace's highest
    # block ordinal tells the audit that three blocks finish a sweep.
    cfg = PipelineConfig(teams=2, team_size=1, team_delay=4)
    first = [TraceEvent(0, 0, b, -1, b, 0) for b in range(3)]
    early = TraceEvent(0, 1, 0, 2, 0, -1)
    late = [TraceEvent(0, 1, b, 3, b, -1) for b in (1, 2)]
    assert audit_trace([*first, early, *late], cfg) == [early]
    assert audit_trace([], cfg) == []


def test_audit_flags_a_broken_barrier_lockstep():
    # A lockstep sweep of three threads over four blocks: thread i does
    # block b at barrier step i + b, so its predecessor has done b + 1
    # blocks and its successor b - 1.  Thread 1 starting block 1 with its
    # predecessor at 1 breaks the lockstep under either sync mode; thread
    # 0 starting block 2 while thread 1 has done none runs two ahead,
    # which only the barrier forbids (d_u is 4).
    cfg = PipelineConfig(teams=1, team_size=3, sync="barrier")
    n = 4
    lockstep = [TraceEvent(0, i, b, min(n, b + 1) if i else -1, b,
                           max(0, b - 1) if i < 2 else -1)
                for i in range(3) for b in range(n)]
    assert audit_trace(lockstep, cfg) == []
    behind = TraceEvent(0, 1, 1, 1, 1, 0)
    ahead = TraceEvent(0, 0, 2, -1, 2, 0)
    assert audit_trace([*lockstep, behind, ahead], cfg) == [behind, ahead]
    assert audit_trace([*lockstep, behind, ahead],
                       replace(cfg, sync="relaxed")) == [behind]


def test_trace_csv_format(backends):
    d = GridDims(8, 8, 8)
    cfg = PipelineConfig(teams=1, team_size=1, updates_per_thread=1)
    for backend in backends:
        g = allocate(d, "twogrid", FillPattern.constant(0.0))
        trace = instrumented_run(g, cfg, 1)
        text = trace_csv(trace)
        lines = text.strip().split("\n")
        assert lines[0] == "sweep,thread,block,c_prev,c_self,c_next"
        assert lines[1] == "0,0,0,-1,0,-1", backend


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
        assert audit_trace(trace, cfg) == []
        assert compare(oracle(d, pat, 2 * U), g).bitwise


def _levelwise(grid, domains, sweeps: int):
    """Two-grid ``grid`` after ``sweeps`` node sweeps over ``domains``, each
    level applied over its whole domain at once: no schedule at all."""
    for _ in range(sweeps):
        for tau, (lo, hi) in enumerate(domains, 1):
            _, src, dst = pipeline._level_views(grid, -1, tau)
            update_region(src, dst, grid.dims.ghost, lo, hi)
        if len(domains) % 2:
            grid.swap()
    return grid


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_random_pipelines_audit_clean_and_bitwise(data, backends,
                                                  monkeypatch):
    # The compiled gate against _gate, through audit_trace, and every
    # storage and sync mode against a reference, on both backends.  Under
    # numpy a seeded chooser picks which ready thread does its next block,
    # so every example also runs one more order of the blocks the gate
    # allows.  A two-grid example may run one rank of a two-rank z split,
    # whose level domains reach into the ghost shell.
    teams = data.draw(st.integers(1, 2), label="teams")
    t = data.draw(st.integers(1, 3), label="team size")
    T = data.draw(st.integers(1, 2), label="T")
    sync = data.draw(st.sampled_from(["barrier", "relaxed"]), label="sync")
    storage = data.draw(st.sampled_from(["twogrid", "compressed"]),
                        label="storage")
    d_l = data.draw(st.integers(1, 3), label="d_l")
    d_u = data.draw(st.integers(d_l, d_l + 4), label="d_u")
    delay = data.draw(st.integers(0, 3), label="team delay")
    U = teams * t * T
    dims = data.draw(st.tuples(*[st.integers(1, 12)] * 3), label="(nx, ny, nz)")
    ranked = (storage == "twogrid"
              and data.draw(st.booleans(), label="rank domains"))
    if ranked:
        dims = (*dims[:2], data.draw(st.integers(2 * U, 2 * U + 4),
                                     label="global nz"))
    block = tuple(data.draw(st.integers(max(1, min(U, n)), n + 2),
                            label="block") for n in dims)
    cfg = PipelineConfig(teams=teams, team_size=t, updates_per_thread=T,
                         min_dist=d_l, max_dist=d_u, team_delay=delay,
                         sync=sync, storage=storage, block=block)
    gd = GridDims(*dims)
    pat = FillPattern.random(data.draw(st.integers(0, 1 << 30), label="seed"))
    if ranked:
        decomp = decompose(gd, 2, (1, 1, 2), U)
        rank = data.draw(st.integers(0, 1), label="rank")
        domains = level_domains_for_rank(decomp, rank, U)
        gd = decomp.local_dims(rank)
        fresh = lambda: local_grid(decomp, rank, pat)   # noqa: E731
        ref = _levelwise(fresh(), domains, 2).current
    else:
        domains = None
        fresh = lambda: allocate(gd, storage, pat, slack=U)   # noqa: E731
        ref = oracle(gd, pat, 2 * U)
    directions = (-1, 1) if storage == "compressed" else (-1,)
    try:
        scheds = [build_schedule(gd, cfg, domains, s) for s in directions]
    except ScheduleError:
        assume(False)
    n_blocks = scheds[0].n_blocks
    # Only the numpy sweep picks; the c threads race for real.
    pick_seed = data.draw(st.integers(0, 2**32 - 1), label="pick seed")
    monkeypatch.setattr(pipeline._Runner, "_pick",
                        random.Random(pick_seed).choice)
    for backend in backends:
        g = fresh()         # compressed: one sweep down, one up
        trace = []
        pipeline._Runner(g, cfg, 2, level_domains=domains, trace=trace).run()
        assert len(trace) == 2 * cfg.n_threads * n_blocks, backend
        assert audit_trace(trace, cfg) == [], backend
        if sync == "barrier":
            # Lockstep: thread i's block b is barrier step first_i + b.  It
            # starts once every thread has finished the step before, so its
            # predecessor has done b + lead blocks, and the predecessor can
            # then start at most the step after it.
            for ev in trace:
                if ev.thread > 0:
                    lead = (_first_step(cfg, ev.thread)
                            - _first_step(cfg, ev.thread - 1))
                    assert (min(n_blocks, ev.block + lead) <= ev.c_prev
                            <= min(n_blocks, ev.block + lead + 1)), (backend, ev)
        assert compare(ref, g.current if ranked else g).bitwise, backend


@pytest.mark.parametrize("reach", ["low", "high"])
@pytest.mark.parametrize("sync", ["barrier", "relaxed"])
def test_domain_past_the_ghost_shell_refused_before_any_write(reach, sync,
                                                              backends):
    # Level 2, thread 1's, reaches two layers past the interior of a grid
    # whose ghost shell is one deep.  The check runs per sweep, before
    # thread 0 writes any block of level 1, which is valid.  Compressed
    # storage takes no level domains at all.
    d = GridDims(8, 8, 8)
    cfg = PipelineConfig(teams=1, team_size=2, updates_per_thread=1,
                         block=(8, 4, 4), sync=sync)
    inside = ((0, 0, 0), d.shape)
    beyond = (((-2, 0, 0), d.shape) if reach == "low"
              else ((0, 0, 0), (8, 8, 10)))
    for backend in backends:
        g = allocate(d, "twogrid", FillPattern.random(83))
        before = (g.a.tobytes(), g.b.tobytes())
        with pytest.raises(GridError):
            run_node_sweeps(g, cfg, 2, level_domains=[inside, beyond])
        assert (g.a.tobytes(), g.b.tobytes()) == before, backend


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
