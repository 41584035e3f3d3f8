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

``_Runner`` is the one executor of a schedule: it turns a time level into
storage through ``_apply_levels`` and ends a sweep through ``_end_sweep``.
With one thread, one team and T levels a node sweep is the serial
temporally blocked update, so the spatially blocked sweep (T=1) and the
serial distributed outer step (T=h) are one-thread runs of it.  Its
threads run as a :func:`~stencilpipe.transport.run_group`: a thread that
fails aborts the others and the run raises :class:`PipelineError` naming
that thread.
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass, field

from .grid import CompressedGrid, GridDims, TwoGrid
from .kernel import update_region
from .transport import Aborted, run_group

update_region_compressed = None  # never called; perfbench/tracer.py patches it


class ScheduleError(ValueError):
    """Block/shift geometry cannot tile the domain at every time level."""


class PipelineError(RuntimeError):
    """A pipeline thread failed; the message names it."""


class PipelineTimeout(PipelineError):
    """A thread spun past ``_Runner._SPIN_TIMEOUT`` (deadlock guard)."""


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


def effective_bounds(cfg: PipelineConfig, i: int) -> tuple[int, int]:
    """(D_l, D_u) for global thread i, including the team delay."""
    pos = i % cfg.team_size
    d_l = cfg.min_dist + (cfg.team_delay if pos == 0 else 0)
    d_u = cfg.max_dist + (cfg.team_delay if pos == cfg.team_size - 1 else 0)
    return d_l, d_u


def may_proceed(counters, i: int, cfg: PipelineConfig,
                n_blocks: int | None = None) -> bool:
    """True iff thread i may start its next block under the distance rules.

    D_l is the rule that keeps the pipeline race-free: thread i starts a
    block only once its predecessor has written every cell it reads and
    no longer reads a cell it overwrites.  D_u only bounds the spread
    between threads, for cache reuse; no result depends on it.

    Only ``counters[i-1]``, ``counters[i]`` and ``counters[i+1]`` are read,
    so a mapping of those three threads serves as well as the full list.
    The race-avoidance condition saturates at the end of a sweep: once the
    predecessor has completed all ``n_blocks`` blocks, every value thread i
    could read exists, so a lead smaller than D_l cannot race.  Without
    this, a team delay larger than the predecessor's remaining blocks would
    deadlock the pipeline.
    """
    d_l, d_u = effective_bounds(cfg, i)
    if i > 0:
        c_prev = counters[i - 1]
        done = n_blocks is not None and c_prev >= n_blocks
        if not done and c_prev - counters[i] < d_l:
            return False
    if i < cfg.n_threads - 1 and counters[i] - counters[i + 1] > d_u:
        return False
    return True


class BlockSchedule:
    """Per-time-level shifted block regions tiling per-level domains.

    ``block`` is ``(bx, by, bz)``, or None for one block per axis.  Along
    each axis the base blocks start at the first level's low edge; level
    tau moves their interior edges by direction*(tau-1) and bounds each row
    by that level's domain, so cells pushed past the low edge fold into the
    first block of the row and cells past the high edge into the last.
    Each (level, axis) keeps that chain of cuts.  A level is partitioned
    exactly when every chain is non-decreasing, which the constructor
    checks.  Block order is lexicographic (z outer, y middle, x inner),
    reversed when direction is +1.
    """

    def __init__(self, level_domains, block, direction: int):
        if direction not in (-1, 1):
            raise ScheduleError(f"direction must be -1 or +1, got {direction}")
        if block is not None and min(block) < 1:
            raise ScheduleError(f"block extents must be >= 1, got {block}")
        self.direction = direction
        self.n_levels = len(level_domains)
        base_lo, base_hi = level_domains[0]
        sizes = (None,) * 3 if block is None else block[::-1]  # array order
        interior = [range(base_lo[d] + b, base_hi[d], b) if b else ()
                    for d, b in enumerate(sizes)]
        self._cuts = []
        for tau, (dom_lo, dom_hi) in enumerate(level_domains, 1):
            shift = direction * (tau - 1)
            chains = tuple([dom_lo[d], *(e + shift for e in interior[d]), dom_hi[d]]
                           for d in range(3))
            for d, c in enumerate(chains):
                if c != sorted(c):
                    raise ScheduleError(
                        f"level {tau}: shifted block edges escape domain "
                        f"(dim {d}, shift {shift}); shrink U or enlarge blocks")
            self._cuts.append(chains)
        self.order = list(itertools.product(*(range(len(e) + 1) for e in interior)))
        if direction == 1:
            self.order.reverse()

    @property
    def n_blocks(self) -> int:
        return len(self.order)

    def region(self, blk, tau: int):
        """(lo, hi) of base block ``blk`` = (iz, iy, ix) at time level tau."""
        z, y, x = self._cuts[tau - 1]
        iz, iy, ix = blk
        return (z[iz], y[iy], x[ix]), (z[iz + 1], y[iy + 1], x[ix + 1])


def build_schedule(dims: GridDims, cfg: PipelineConfig,
                   level_domains=None, direction: int = -1) -> BlockSchedule:
    """Schedule for one node sweep.

    ``level_domains`` (one (lo, hi) pair per time level, array axis order)
    defaults to the plain interior at every level; distributed outer steps
    pass the shrinking extended domains instead.
    """
    U = cfg.levels_per_sweep
    if level_domains is None:
        level_domains = [((0, 0, 0), dims.shape)] * U
    elif len(level_domains) != U:
        raise ScheduleError(f"need {U} level domains, got {len(level_domains)}")
    return BlockSchedule(level_domains, cfg.block, direction)


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
    """Events whose counter snapshot :func:`may_proceed` would refuse.

    ``n_blocks`` enables the end-of-sweep saturation of :func:`may_proceed`.
    """
    return [ev for ev in events
            if not may_proceed({ev.thread - 1: ev.c_prev, ev.thread: ev.c_self,
                                ev.thread + 1: ev.c_next},
                               ev.thread, cfg, n_blocks)]


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
    other; compressed level tau restores the ghost faces at read offset r
    (the sweep-start origin moved tau-1 layers in direction s), then
    updates the view of ``grid.data`` at r into the view at r + s.  The
    grid swaps or shifts only in :func:`_end_sweep`, after every level of
    the sweep is done, so the sweep-start state is the grid's state.
    """
    g, s = grid.dims.ghost, sched.direction
    for tau in levels:
        lo, hi = sched.region(blk, tau)
        if grid.storage == "twogrid":
            pair = (grid.current, grid.other)
            src, dst = pair[(tau - 1) % 2], pair[tau % 2]
        else:
            r = grid.offset + s * (tau - 1)
            grid.restore_ghosts(lo, hi, r)
            src, dst = grid.data[r:, r:, r:], grid.data[r + s:, r + s:, r + s:]
        update_region(src, dst, g, lo, hi)


def _end_sweep(grid, sched: BlockSchedule) -> None:
    """Advance ``grid`` past a finished sweep of all of ``sched``'s levels."""
    U = sched.n_levels
    if grid.storage == "twogrid":
        if U % 2 == 1:
            grid.swap()
    else:
        grid.shift_origin(sched.direction * U)


class _Runner:
    """The one schedule executor: runs ``sweeps`` node sweeps of ``cfg``,
    on the calling thread when ``cfg`` has one thread, else on workers."""

    _SPIN_BUDGET = 64        # gate checks before a spinning thread yields
    _SPIN_TIMEOUT = 30.0     # seconds a refused thread may spin

    def __init__(self, grid, cfg: PipelineConfig, sweeps: int,
                 level_domains=None, trace=None):
        self.grid = grid
        self.cfg = cfg
        self.sweeps = sweeps
        self.trace = trace
        self.counters = [0] * cfg.n_threads
        # One thread has nothing to wait for or to wake.
        self.barrier = (threading.Barrier(cfg.n_threads)
                        if cfg.n_threads > 1 else None)
        self.aborted = False

        if cfg.storage == "twogrid":
            if not isinstance(grid, TwoGrid):
                raise ValueError("config expects two-grid storage")
            self.schedules = {-1: build_schedule(grid.dims, cfg, level_domains, -1)}
        else:
            if not isinstance(grid, CompressedGrid):
                raise ValueError("config expects compressed storage")
            # A sweep moves the origin U layers down, or up when there is no
            # room below; once the first sweep fits, every later one does.
            U = cfg.levels_per_sweep
            if grid.offset < U and grid.offset + U > grid.slack:
                raise ScheduleError(f"compressed origin offset {grid.offset} "
                                    f"has no room for U={U} in slack "
                                    f"{grid.slack}")
            if level_domains is not None:
                raise ScheduleError("compressed storage supports interior domains only")
            self.schedules = {
                -1: build_schedule(grid.dims, cfg, None, -1),
                1: build_schedule(grid.dims, cfg, None, 1),
            }

    # -- worker plumbing ---------------------------------------------------

    def run(self) -> None:
        run_group(self.cfg.n_threads, self._worker, "pipe", self._abort,
                  PipelineError)

    def _abort(self) -> None:
        self.aborted = True
        if self.barrier is not None:
            self.barrier.abort()

    def _sync(self) -> None:
        """Barrier wait; raises :class:`Aborted` once the run is torn down."""
        if self.barrier is None:
            return
        try:
            self.barrier.wait()
        except threading.BrokenBarrierError:
            raise Aborted from None

    def _schedule(self) -> BlockSchedule:
        """Two-grid sweeps run down.  Compressed sweeps move the origin U
        layers down while it has that room below, else up."""
        if (self.grid.storage == "compressed"
                and self.grid.offset < self.cfg.levels_per_sweep):
            return self.schedules[1]
        return self.schedules[-1]

    def _worker(self, i: int) -> None:
        for sweep in range(self.sweeps):
            # Thread 0 moves the origin between the two barriers, so every
            # thread reads the same offset here.
            sched = self._schedule()
            self._run_sweep(i, sweep, sched)
            self._sync()
            if i == 0:
                _end_sweep(self.grid, sched)
                self.counters[:] = [0] * len(self.counters)
            self._sync()

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
            c_prev=c[i - 1] if i > 0 else -1,
            c_self=c[i],
            c_next=c[i + 1] if i < len(c) - 1 else -1))

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
                self.counters[i] += 1
            self._sync()

    def _run_sweep_relaxed(self, i: int, sweep: int, sched: BlockSchedule) -> None:
        cfg = self.cfg
        levels = self._levels(i)
        for b in range(sched.n_blocks):
            spins = 0
            while not may_proceed(self.counters, i, cfg, sched.n_blocks):
                if self.aborted:
                    raise Aborted
                if spins == 0:
                    deadline = time.monotonic() + self._SPIN_TIMEOUT
                spins += 1
                if spins > self._SPIN_BUDGET:
                    time.sleep(0)
                    if time.monotonic() > deadline:
                        raise PipelineTimeout(
                            f"thread {i} stalled at block {b} "
                            f"(counters {list(self.counters)})")
            self._record(sweep, i, b)
            _apply_levels(self.grid, sched, sched.order[b], levels)
            self.counters[i] += 1


def run_node_sweeps(grid, cfg: PipelineConfig, sweeps: int,
                    level_domains=None) -> None:
    """Run ``sweeps`` node sweeps; the grid ends sweeps*U time levels ahead."""
    _Runner(grid, cfg, sweeps, level_domains=level_domains).run()


def instrumented_run(grid, cfg: PipelineConfig, sweeps: int) -> list[TraceEvent]:
    """Like :func:`run_node_sweeps` but records a counter snapshot at every
    block start; feed the result to :func:`audit_trace`."""
    trace: list[TraceEvent] = []
    _Runner(grid, cfg, sweeps, trace=trace).run()
    trace.sort(key=lambda ev: (ev.sweep, ev.thread, ev.block))
    return trace


def default_block_size(dims: GridDims, cfg: PipelineConfig) -> tuple[int, int, int]:
    """Long-x blocks (full row) with y/z extents that keep the shifted
    schedule valid: the interior edges must survive a shift of U-1."""
    U = cfg.levels_per_sweep
    by = dims.ny if dims.ny < 2 * U else max(U, min(16, dims.ny))
    bz = dims.nz if dims.nz < 2 * U else max(U, min(16, dims.nz))
    return (dims.nx, by, bz)
