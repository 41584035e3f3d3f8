"""Pipelined temporal blocking: thread teams, block shifting, relaxed sync.

Threads are split into teams; global thread i applies time levels
i*T+1 .. (i+1)*T to every block of the domain, trailing its predecessor
through the block list.  A node sweep applies U = teams * team_size * T
levels.  Synchronization is either a global barrier after each block
update or relaxed spin-gating on per-thread progress counters:

    c[i-1] - c[i] >= d_l   and   c[i] - c[i+1] <= d_u

with the team delay added to d_l on a team's front thread and to d_u on
its rear thread; the overall front and rear threads skip the first and
second condition respectively.  Counter increments happen after the
block's writes (release on increment under the interpreter lock), so an
observed counter value implies the corresponding data is visible.

Every engine turns a time level into storage through ``_apply_levels`` and
ends a sweep through ``_end_sweep``.  ``run_schedule``, the serial
executor, runs the spatially blocked sweep and the serial distributed
outer step; the thread pipeline calls the same two helpers.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

import numpy as np

from .grid import CompressedGrid, GridDims, TwoGrid
from .kernel import block_edges, update_region, update_region_compressed


class ScheduleError(ValueError):
    """Block/shift geometry cannot tile the domain at every time level."""


class PipelineTimeout(RuntimeError):
    """A thread spun past the configured timeout (deadlock guard)."""


@dataclass(frozen=True)
class PipelineConfig:
    teams: int = 1
    team_size: int = 1
    updates_per_thread: int = 2
    min_dist: int = 1          # d_l, blocks
    max_dist: int = 4          # d_u, blocks
    team_delay: int = 0        # d_t, extra blocks between teams
    sync: str = "relaxed"      # "barrier" | "relaxed"
    block: tuple[int, int, int] | None = None   # (bx, by, bz); None = whole domain
    storage: str = "twogrid"   # "twogrid" | "compressed"
    spin_timeout: float = 30.0

    def __post_init__(self):
        if min(self.teams, self.team_size, self.updates_per_thread) < 1:
            raise ValueError("teams, team_size, updates_per_thread must be >= 1")
        if self.min_dist < 1 or self.max_dist < self.min_dist or self.team_delay < 0:
            raise ValueError("need d_l >= 1, d_u >= d_l, d_t >= 0")
        if self.sync not in ("barrier", "relaxed"):
            raise ValueError(f"unknown sync mode {self.sync!r}")
        if self.storage not in ("twogrid", "compressed"):
            raise ValueError(f"unknown storage mode {self.storage!r}")

    @property
    def n_threads(self) -> int:
        return self.teams * self.team_size

    @property
    def levels_per_sweep(self) -> int:
        """U = n * t * T, time levels applied by one node sweep."""
        return self.teams * self.team_size * self.updates_per_thread


class ThreadCounters:
    """Per-thread monotone block counters, one writer each.

    Each counter occupies its own 128-byte row of the backing array so
    writers never share a cache line.
    """

    _PAD = 16  # int64 slots per row

    def __init__(self, n_threads: int):
        self._c = np.zeros((n_threads, self._PAD), dtype=np.int64)

    def __len__(self) -> int:
        return self._c.shape[0]

    def get(self, i: int) -> int:
        return int(self._c[i, 0])

    def increment(self, i: int) -> None:
        self._c[i, 0] += 1

    def reset(self) -> None:
        self._c[:, 0] = 0

    def snapshot(self) -> list[int]:
        return [int(v) for v in self._c[:, 0]]


def effective_bounds(cfg: PipelineConfig, i: int) -> tuple[int, int]:
    """(D_l, D_u) for global thread i, including the team delay."""
    pos = i % cfg.team_size
    d_l = cfg.min_dist + (cfg.team_delay if pos == 0 else 0)
    d_u = cfg.max_dist + (cfg.team_delay if pos == cfg.team_size - 1 else 0)
    return d_l, d_u


def may_proceed(counters: ThreadCounters, i: int, cfg: PipelineConfig,
                n_blocks: int | None = None) -> bool:
    """True iff thread i may start its next block under the distance rules.

    The race-avoidance condition saturates at the end of a sweep: once the
    predecessor has completed all ``n_blocks`` blocks, every value thread i
    could read exists, so a lead smaller than D_l cannot race.  Without
    this, a team delay larger than the predecessor's remaining blocks would
    deadlock the pipeline.
    """
    d_l, d_u = effective_bounds(cfg, i)
    if i > 0:
        c_prev = counters.get(i - 1)
        done = n_blocks is not None and c_prev >= n_blocks
        if not done and c_prev - counters.get(i) < d_l:
            return False
    if i < cfg.n_threads - 1 and counters.get(i) - counters.get(i + 1) > d_u:
        return False
    return True


class BlockSchedule:
    """Per-time-level shifted block regions tiling per-level domains.

    The region for time level tau on a base block is the block translated
    by direction*(tau-1) per dimension and clamped to that level's domain;
    cells pushed past the low edge fold into the first block of the row,
    cells past the high edge into the last, preserving the exact partition.
    Block order is lexicographic (z outer, y middle, x inner), reversed
    when direction is +1.
    """

    def __init__(self, level_domains, edges, direction: int):
        if direction not in (-1, 1):
            raise ScheduleError(f"direction must be -1 or +1, got {direction}")
        self.level_domains = [tuple(map(tuple, d)) for d in level_domains]
        self.edges = [list(e) for e in edges]
        self.direction = direction
        counts = [len(e) - 1 for e in self.edges]
        self.blocks = [(iz, iy, ix)
                       for iz in range(counts[0])
                       for iy in range(counts[1])
                       for ix in range(counts[2])]
        self.order = list(self.blocks)
        if direction == 1:
            self.order.reverse()
        self.n_levels = len(self.level_domains)
        self._regions = [
            {blk: self._region(blk, tau) for blk in self.blocks}
            for tau in range(1, self.n_levels + 1)
        ]
        self._validate()

    @property
    def n_blocks(self) -> int:
        return len(self.blocks)

    def _region(self, blk, tau: int):
        shift = self.direction * (tau - 1)
        dom_lo, dom_hi = self.level_domains[tau - 1]
        lo = []
        hi = []
        for d in range(3):
            j = blk[d]
            e = self.edges[d]
            m = len(e) - 1
            l = e[j] + shift
            h = e[j + 1] + shift
            if j == 0:
                l = dom_lo[d]
            if j == m - 1:
                h = dom_hi[d]
            lo.append(l)
            hi.append(h)
        return tuple(lo), tuple(hi)

    def region(self, blk, tau: int):
        return self._regions[tau - 1][blk]

    def _validate(self) -> None:
        for tau in range(1, self.n_levels + 1):
            shift = self.direction * (tau - 1)
            dom_lo, dom_hi = self.level_domains[tau - 1]
            for d in range(3):
                e = self.edges[d]
                m = len(e) - 1
                if m == 1:
                    continue
                # Interior edges must stay inside the clamped domain so the
                # shifted 1D intervals still chain into an exact partition.
                if e[1] + shift < dom_lo[d] or e[m - 1] + shift > dom_hi[d]:
                    raise ScheduleError(
                        f"level {tau}: shifted block edges escape domain "
                        f"(dim {d}, shift {shift}); shrink U or enlarge blocks")

    def check_partition(self, tau: int) -> None:
        """Exhaustive cell-count check that level tau's regions tile the domain."""
        dom_lo, dom_hi = self.level_domains[tau - 1]
        shape = tuple(h - l for l, h in zip(dom_lo, dom_hi))
        cover = np.zeros(shape, dtype=np.int32)
        for blk in self.blocks:
            lo, hi = self.region(blk, tau)
            sl = tuple(slice(l - dl, h - dl) for l, h, dl in zip(lo, hi, dom_lo))
            cover[sl] += 1
        if not np.array_equal(cover, np.ones(shape, dtype=np.int32)):
            raise ScheduleError(f"level {tau} regions do not partition the domain")


def build_schedule(dims: GridDims, cfg: PipelineConfig,
                   level_domains=None, direction: int = -1) -> BlockSchedule:
    """Schedule for one node sweep.

    ``level_domains`` (one (lo, hi) pair per time level, array axis order)
    defaults to the plain interior at every level; distributed outer steps
    pass the shrinking extended domains instead.
    """
    U = cfg.levels_per_sweep
    shape = dims.shape
    if U > min(shape):
        raise ScheduleError(
            f"U={U} updates per node sweep exceed the smallest interior "
            f"extent {min(shape)}; degenerate pipeline")
    if level_domains is None:
        level_domains = [((0, 0, 0), shape)] * U
    elif len(level_domains) != U:
        raise ScheduleError(f"need {U} level domains, got {len(level_domains)}")
    base_lo, base_hi = level_domains[0]
    if cfg.block is None:
        edges = [[base_lo[d], base_hi[d]] for d in range(3)]
    else:
        bx, by, bz = cfg.block
        edges = []
        for d, b in zip(range(3), (bz, by, bx)):
            ext = base_hi[d] - base_lo[d]
            edges.append([base_lo[d] + e for e in block_edges(ext, b)])
    return BlockSchedule(level_domains, edges, direction)


@dataclass
class TraceEvent:
    sweep: int
    thread: int
    block: int            # processing ordinal within the sweep
    c_prev: int
    c_self: int
    c_next: int


def audit_trace(events, cfg: PipelineConfig,
                n_blocks: int | None = None) -> list[TraceEvent]:
    """Events violating the distance conditions at block start.

    ``n_blocks`` enables the same end-of-sweep saturation as
    :func:`may_proceed`: a predecessor that finished the sweep satisfies
    the race-avoidance condition regardless of distance.
    """
    bad = []
    for ev in events:
        d_l, d_u = effective_bounds(cfg, ev.thread)
        prev_done = n_blocks is not None and ev.c_prev >= n_blocks
        if ev.thread > 0 and not prev_done and ev.c_prev - ev.c_self < d_l:
            bad.append(ev)
        elif ev.thread < cfg.n_threads - 1 and ev.c_self - ev.c_next > d_u:
            bad.append(ev)
    return bad


def trace_csv(events) -> str:
    lines = ["sweep,thread,block,c_prev,c_self,c_next"]
    for ev in events:
        lines.append(f"{ev.sweep},{ev.thread},{ev.block},"
                     f"{ev.c_prev},{ev.c_self},{ev.c_next}")
    return "\n".join(lines) + "\n"


def _apply_levels(grid, sched: BlockSchedule, blk, levels) -> None:
    """Apply ``levels`` of ``sched`` to base block ``blk`` of ``grid``.

    The one place a time level becomes storage: two-grid level tau reads
    array (tau-1) % 2 of the pair current at sweep start and writes the
    other; compressed level tau reads at the sweep-start origin moved
    tau-1 layers in the schedule's direction and writes one layer further.
    The grid swaps or shifts only in :func:`_end_sweep`, after every level
    of the sweep is done, so the sweep-start state is the grid's state.
    """
    if grid.storage == "twogrid":
        arrays = grid.arrays()
        g = grid.dims.ghost
        for tau in levels:
            lo, hi = sched.region(blk, tau)
            update_region(arrays[(tau - 1) % 2], arrays[tau % 2], g, lo, hi)
    else:
        o0, direction = grid.offset, sched.direction
        for tau in levels:
            lo, hi = sched.region(blk, tau)
            update_region_compressed(grid, lo, hi, o0 + direction * (tau - 1),
                                     direction)


def _end_sweep(grid, sched: BlockSchedule) -> None:
    """Advance ``grid`` past a finished sweep of all of ``sched``'s levels."""
    U = sched.n_levels
    if grid.storage == "twogrid":
        if U % 2 == 1:
            grid.swap()
    else:
        grid.shift_origin(sched.direction * U)


def run_schedule(grid, sched: BlockSchedule) -> None:
    """One sweep on the calling thread: every level of each block in
    schedule order, then the sweep's swap or origin shift."""
    levels = range(1, sched.n_levels + 1)
    for blk in sched.order:
        _apply_levels(grid, sched, blk, levels)
    _end_sweep(grid, sched)


class _Runner:
    """Owns worker threads for one multi-sweep pipelined run."""

    _SPIN_BUDGET = 64

    def __init__(self, grid, cfg: PipelineConfig, sweeps: int,
                 level_domains=None, trace=None):
        self.grid = grid
        self.cfg = cfg
        self.sweeps = sweeps
        self.trace = trace
        self.counters = ThreadCounters(cfg.n_threads)
        self.barrier = threading.Barrier(cfg.n_threads)
        self.abort = threading.Event()
        self.errors: list[BaseException] = []
        self._err_lock = threading.Lock()

        if cfg.storage == "twogrid":
            if not isinstance(grid, TwoGrid):
                raise ValueError("config expects two-grid storage")
            self.schedules = {-1: build_schedule(grid.dims, cfg, level_domains, -1)}
        else:
            if not isinstance(grid, CompressedGrid):
                raise ValueError("config expects compressed storage")
            if grid.slack < cfg.levels_per_sweep:
                raise ScheduleError(
                    f"compressed slack {grid.slack} < U={cfg.levels_per_sweep}")
            if level_domains is not None:
                raise ScheduleError("compressed storage supports interior domains only")
            self.schedules = {
                -1: build_schedule(grid.dims, cfg, None, -1),
                1: build_schedule(grid.dims, cfg, None, 1),
            }

    # -- worker plumbing ---------------------------------------------------

    def _fail(self, exc: BaseException) -> None:
        with self._err_lock:
            self.errors.append(exc)
        self.abort.set()
        self.barrier.abort()

    def _sync(self) -> bool:
        """Barrier wait; False means the run is being torn down."""
        try:
            self.barrier.wait()
            return True
        except threading.BrokenBarrierError:
            return False

    def run(self) -> None:
        cfg = self.cfg
        if cfg.n_threads == 1:
            self._worker(0)
        else:
            threads = [threading.Thread(target=self._worker, args=(i,),
                                        name=f"pipe-{i}", daemon=True)
                       for i in range(cfg.n_threads)]
            for th in threads:
                th.start()
            for th in threads:
                th.join()
        if self.errors:
            raise self.errors[0]

    def _worker(self, i: int) -> None:
        try:
            for sweep in range(self.sweeps):
                direction = -1
                if self.cfg.storage == "compressed" and sweep % 2 == 1:
                    direction = 1
                sched = self.schedules[direction]
                self._run_sweep(i, sweep, sched)
                if self.abort.is_set():
                    return
                if not self._sync():
                    return
                if i == 0:
                    _end_sweep(self.grid, sched)
                    self.counters.reset()
                if not self._sync():
                    return
        except threading.BrokenBarrierError:
            pass
        except BaseException as exc:  # noqa: BLE001 - propagated to caller
            self._fail(exc)

    # -- per-sweep work ----------------------------------------------------

    def _levels(self, i: int):
        T = self.cfg.updates_per_thread
        return range(i * T + 1, (i + 1) * T + 1)

    def _record(self, sweep: int, i: int, ordinal: int) -> None:
        if self.trace is None:
            return
        c = self.counters
        self.trace.append(TraceEvent(
            sweep=sweep, thread=i, block=ordinal,
            c_prev=c.get(i - 1) if i > 0 else -1,
            c_self=c.get(i),
            c_next=c.get(i + 1) if i < len(c) - 1 else -1))

    def _run_sweep(self, i: int, sweep: int, sched: BlockSchedule) -> None:
        if self.cfg.sync == "barrier":
            self._run_sweep_barrier(i, sweep, sched)
        else:
            self._run_sweep_relaxed(i, sweep, sched)

    def _run_sweep_barrier(self, i: int, sweep: int, sched: BlockSchedule) -> None:
        cfg = self.cfg
        levels = self._levels(i)
        offset = i + (i // cfg.team_size) * cfg.team_delay
        last = (cfg.n_threads - 1) + (cfg.teams - 1) * cfg.team_delay
        for step in range(sched.n_blocks + last):
            b = step - offset
            if 0 <= b < sched.n_blocks:
                self._record(sweep, i, b)
                _apply_levels(self.grid, sched, sched.order[b], levels)
                self.counters.increment(i)
            if not self._sync():
                raise threading.BrokenBarrierError()

    def _run_sweep_relaxed(self, i: int, sweep: int, sched: BlockSchedule) -> None:
        cfg = self.cfg
        levels = self._levels(i)
        for b in range(sched.n_blocks):
            spins = 0
            deadline = time.monotonic() + cfg.spin_timeout
            while not may_proceed(self.counters, i, cfg, sched.n_blocks):
                if self.abort.is_set():
                    raise threading.BrokenBarrierError()
                spins += 1
                if spins > self._SPIN_BUDGET:
                    time.sleep(0)
                    if time.monotonic() > deadline:
                        raise PipelineTimeout(
                            f"thread {i} stalled at block {b} "
                            f"(counters {self.counters.snapshot()})")
            self._record(sweep, i, b)
            _apply_levels(self.grid, sched, sched.order[b], levels)
            self.counters.increment(i)


def run_node_sweeps(grid, cfg: PipelineConfig, sweeps: int,
                    level_domains=None) -> None:
    """Run ``sweeps`` node sweeps; the grid ends sweeps*U time levels ahead."""
    _Runner(grid, cfg, sweeps, level_domains=level_domains).run()


def instrumented_run(grid, cfg: PipelineConfig, sweeps: int,
                     level_domains=None) -> list[TraceEvent]:
    """Like :func:`run_node_sweeps` but records a counter snapshot at every
    block start; feed the result to :func:`audit_trace`."""
    trace: list[TraceEvent] = []
    _Runner(grid, cfg, sweeps, level_domains=level_domains, trace=trace).run()
    trace.sort(key=lambda ev: (ev.sweep, ev.thread, ev.block))
    return trace


def default_block_size(dims: GridDims, cfg: PipelineConfig) -> tuple[int, int, int]:
    """Long-x blocks (full row) with y/z extents that keep the shifted
    schedule valid: the interior edges must survive a shift of U-1."""
    U = cfg.levels_per_sweep
    by = dims.ny if dims.ny < 2 * U else max(U, min(16, dims.ny))
    bz = dims.nz if dims.nz < 2 * U else max(U, min(16, dims.nz))
    return (dims.nx, by, bz)
