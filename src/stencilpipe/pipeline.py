"""Pipelined temporal blocking: thread teams, block shifting, relaxed sync.

Threads are split into teams; global thread i applies time levels
i*T+1 .. (i+1)*T to every block of the domain, trailing its predecessor
through the block list.  A node sweep applies U = teams * team_size * T
levels.  Thread i counts the blocks it has done in c[i], and both sync
modes are one rule on those counts, data built once per run by
:func:`_rules`: thread i may start block b once, for each of its pairs
(j, lead), thread j has finished its sweep or

    c[j] - b >= lead

Relaxed sync pairs thread i with its predecessor at lead D_l and with its
successor at lead -D_u, D_l and D_u being d_l and d_u with the team delay
added at a team's front and rear (:func:`effective_bounds`).  Barrier
sync, a global barrier after each block step, pairs it with every other
thread j at lead f_i - f_j, where thread i's block b is barrier step
f_i + b (:func:`_first_step`).  :func:`_gate` evaluates the pairs in
Python, and its mirror, the compiled ``gate``, in C.

Under the ``c`` backend each node sweep is one
:func:`~stencilpipe.transport.run_group` whose thread 0 is the calling
thread, and each thread's sweep is one call of the compiled
``sweep_thread`` (:mod:`.kernel`), which holds no interpreter lock and
gates, updates and counts every block in C.  A thread publishes its count
with a release store after the block's writes and a gating thread reads
it with an acquire load, so it sees every cell the block wrote.  A thread
that fails aborts the others, and the run raises :class:`PipelineError`
naming it.

Spinning.  A refused C thread checks its gate ``_SPIN_BUDGET`` times,
then yields before each further check, and ``_SPIN_TIMEOUT`` s after its
first refusal raises :class:`PipelineTimeout` naming the thread and the
block.  Every check polls the run's ``int32`` abort flag, so a failure
elsewhere frees spinning threads.

Under ``numpy`` the calling thread runs the whole sweep
(``_run_sweep_py``): while blocks are left, ``_Runner._pick`` chooses a
thread whose :func:`_gate` passes on its next block, by default the
lowest, and that thread applies its levels to the block and counts it.  A sweep in which no thread may go on raises
:class:`PipelineTimeout` at once, and a level that raises becomes a
:class:`PipelineError` naming its thread.  Both backends apply the same
levels to the same regions through :func:`_level_views`, so they give
the same bits.

``_Runner`` is the one executor of a schedule.  Its constructor builds,
and so checks, the schedule of every direction its sweeps can take.  Each
sweep then checks every level's domain against its views before any
block is written, runs on one compiled :class:`~.kernel.Sweep` or in the
numpy loop, and ends in :func:`_end_sweep`.  With one thread, one team
and T levels a node sweep is the serial temporally blocked update, so
the spatially blocked sweep (T=1) and the serial distributed outer step
(T=h) are one-thread runs of it, which start no thread.
"""

from __future__ import annotations

import ctypes
import functools
import itertools
from array import array
from dataclasses import astuple, dataclass

from . import kernel
from .grid import CompressedGrid, GridDims, TwoGrid
from .kernel import _check_region, update_region
from .transport import Aborted, run_group

update_region_compressed = None  # never called; perfbench/tracer.py patches it


class ScheduleError(ValueError):
    """Block/shift geometry cannot tile the domain at every time level."""


class PipelineError(RuntimeError):
    """A pipeline thread failed; the message names it."""


class PipelineTimeout(PipelineError):
    """Deadlock guard: a C thread spun past ``_Runner._SPIN_TIMEOUT``, or
    under ``numpy`` no thread could start its next block."""


@dataclass(frozen=True)
class PipelineConfig:
    """One node pipeline: ``teams`` teams of ``team_size`` threads, each
    thread applying ``updates_per_thread`` (T) levels per block, so a node
    sweep applies U = teams * team_size * T levels.

    ``min_dist`` (d_l) is the fewest blocks a thread stays behind its
    predecessor and ``max_dist`` (d_u) the most it may run ahead of its
    successor; ``team_delay`` (d_t) adds blocks to both across each boundary
    between teams (:func:`effective_bounds`).  ``sync`` is ``"relaxed"``,
    where each thread gates on its neighbors' counters, or ``"barrier"``,
    where all threads meet at one barrier after each block step; both are
    the gate of :func:`_rules`.  Lockstep under barrier sync keeps each
    thread exactly one block behind its predecessor, plus the team delay
    at a team's front, so ``min_dist`` and ``max_dist`` act only under
    relaxed sync.  ``block`` is (bx, by, bz), or None for the whole domain;
    ``storage`` is ``"twogrid"`` or ``"compressed"``.
    """

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


def _first_step(cfg: PipelineConfig, i: int) -> int:
    """The barrier step at which global thread i updates its first block:
    one step behind its predecessor, plus the team delay at a team's
    front."""
    return i + (i // cfg.team_size) * cfg.team_delay


def _rules(cfg: PipelineConfig, i: int) -> list[tuple[int, int]]:
    """Thread i's gate as (j, lead) pairs: it may start block b once each
    thread j has finished its sweep or has ``c[j] - b >= lead``.

    The predecessor's lead (D_l when relaxed) keeps the pipeline
    race-free: thread i starts a block only once its predecessor has
    written every cell it reads and no longer reads a cell it overwrites.
    The successor's -D_u only bounds the spread, for cache reuse.  A
    finished thread satisfies every pair, since every value it could be
    read for exists; else a team delay larger than the predecessor's
    remaining blocks would deadlock the pipeline.
    """
    if cfg.sync == "barrier":
        f = _first_step(cfg, i)
        return [(j, f - _first_step(cfg, j))
                for j in range(cfg.n_threads) if j != i]
    d_l, d_u = effective_bounds(cfg, i)
    return [(j, lead) for j, lead in ((i - 1, d_l), (i + 1, -d_u))
            if 0 <= j < cfg.n_threads]


def _gate(counters, pairs, i: int, b: int, n_blocks: int):
    """The compiled ``gate``, in Python: the (c_prev, c_self, c_next) on
    which thread i may start block b under ``pairs`` (from :func:`_rules`),
    with -1 for a neighbour it does not wait on; None while it must wait.
    Only the counters of the threads in ``pairs`` are read."""
    snap = [-1, b, -1]
    for j, lead in pairs:
        cj = counters[j]
        if cj < n_blocks and cj - b < lead:
            return None
        if abs(j - i) == 1:
            snap[j - i + 1] = cj
    return snap


def may_proceed(counters, i: int, cfg: PipelineConfig, n_blocks: int) -> bool:
    """True iff thread i may start its next block under ``cfg``'s gate.
    Relaxed sync reads only ``counters[i-1]``, ``counters[i]`` and
    ``counters[i+1]``, so a mapping of those three serves; barrier sync
    reads every thread's counter."""
    return _gate(counters, _rules(cfg, i), i, counters[i], n_blocks) is not None


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

    A schedule is immutable: ``order`` and every chain are tuples, and the
    flat arrays the compiled sweep reads are never written after
    ``__init__``, so :func:`build_schedule` can share one object between
    runs and threads.
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
        cuts = []
        for tau, (dom_lo, dom_hi) in enumerate(level_domains, 1):
            shift = direction * (tau - 1)
            chains = tuple((dom_lo[d], *(e + shift for e in interior[d]), dom_hi[d])
                           for d in range(3))
            for d, c in enumerate(chains):
                if list(c) != sorted(c):
                    raise ScheduleError(
                        f"level {tau}: shifted block edges escape domain "
                        f"(dim {d}, shift {shift}); shrink U or enlarge blocks")
            cuts.append(chains)
        self._cuts = tuple(cuts)
        order = tuple(itertools.product(*(range(len(e) + 1) for e in interior)))
        self.order = order[::-1] if direction == 1 else order
        # The same schedule as flat int64 arrays, for the compiled sweep:
        # every chain's cuts end to end, where each (level, axis) chain
        # starts in them, and the block order as rows of (iz, iy, ix).
        chains = [c for level in self._cuts for c in level]
        self.cut_array = array("q", itertools.chain.from_iterable(chains))
        self.chain_starts = array("q", itertools.accumulate(
            (len(c) for c in chains[:-1]), initial=0))
        self.order_array = array("q", itertools.chain.from_iterable(self.order))

    @property
    def n_blocks(self) -> int:
        return len(self.order)

    def region(self, blk, tau: int):
        """(lo, hi) of base block ``blk`` = (iz, iy, ix) at time level tau."""
        z, y, x = self._cuts[tau - 1]
        iz, iy, ix = blk
        return (z[iz], y[iy], x[ix]), (z[iz + 1], y[iy + 1], x[ix + 1])

    def domain(self, tau: int):
        """(lo, hi) of time level tau's domain, which its blocks partition."""
        chains = self._cuts[tau - 1]
        return tuple(c[0] for c in chains), tuple(c[-1] for c in chains)


_SCHEDULES = 256     # distinct schedules kept per process


@functools.lru_cache(maxsize=_SCHEDULES)
def _schedule(level_domains, block, direction: int) -> BlockSchedule:
    """The one shared schedule of a geometry; a geometry that raises is
    not cached, so it raises again on every call."""
    return BlockSchedule(level_domains, block, direction)


def build_schedule(dims: GridDims, cfg: PipelineConfig,
                   level_domains=None, direction: int = -1) -> BlockSchedule:
    """Schedule for one node sweep.

    ``level_domains`` (one (lo, hi) pair per time level, array axis order)
    defaults to the plain interior at every level; distributed outer steps
    pass the shrinking extended domains instead.  Each distinct (domains,
    ``cfg.block``, ``direction``) is built once per process and shared.
    """
    U = cfg.levels_per_sweep
    if level_domains is None:
        level_domains = (((0, 0, 0), dims.shape),) * U
    elif len(level_domains) != U:
        raise ScheduleError(f"need {U} level domains, got {len(level_domains)}")
    else:
        level_domains = tuple((tuple(lo), tuple(hi)) for lo, hi in level_domains)
    block = None if cfg.block is None else tuple(cfg.block)
    return _schedule(level_domains, block, direction)


@dataclass
class TraceEvent:
    sweep: int
    thread: int
    block: int            # processing ordinal within the sweep
    c_prev: int
    c_self: int
    c_next: int


def audit_trace(events, cfg: PipelineConfig) -> list[TraceEvent]:
    """Events whose counter snapshot :func:`_gate` refuses, under the pairs
    of :func:`_rules` on the thread's neighbours, which the snapshot holds.

    ``events`` hold whole sweeps, as :func:`instrumented_run` records them,
    so the highest block ordinal gives the block count for the end-of-sweep
    saturation of the gate.

    A snapshot holds only c_prev, c_self and c_next, so under barrier sync
    a broken pair between threads that are not neighbours passes the
    audit.  The footprint checker (``tests/test_gate_footprint.py``) and
    the numpy explorer, whose gates read every counter, cover those pairs.
    """
    n_blocks = 1 + max((ev.block for ev in events), default=-1)
    return [ev for ev in events
            if _gate({ev.thread - 1: ev.c_prev, ev.thread + 1: ev.c_next},
                     [(j, lead) for j, lead in _rules(cfg, ev.thread)
                      if abs(j - ev.thread) == 1],
                     ev.thread, ev.c_self, n_blocks) is None]


def trace_csv(events) -> str:
    lines = ["sweep,thread,block,c_prev,c_self,c_next"]
    lines += [",".join(map(str, astuple(ev))) for ev in events]
    return "\n".join(lines) + "\n"


def _level_views(grid, direction: int, tau: int):
    """(read offset, src view, dst view) of time level tau in ``grid``.

    The one place a time level becomes storage: two-grid level tau reads
    array (tau-1) % 2 of the pair current at sweep start and writes the
    other, and has no read offset (None); compressed level tau reads the
    view of ``grid.data`` at offset r (the sweep-start origin moved tau-1
    layers in ``direction``) and writes the view at r + direction.  The
    grid swaps or shifts only in :func:`_end_sweep`, after every level of
    the sweep is done, so the sweep-start state is the grid's state.
    """
    if grid.storage == "twogrid":
        pair = (grid.current, grid.other)
        return None, pair[(tau - 1) % 2], pair[tau % 2]
    r, s = grid.offset + direction * (tau - 1), direction
    return r, grid.data[r:, r:, r:], grid.data[r + s:, r + s:, r + s:]


def _levels(cfg: PipelineConfig, i: int) -> range:
    """The time levels global thread i applies: i*T+1 .. (i+1)*T."""
    T = cfg.updates_per_thread
    return range(i * T + 1, (i + 1) * T + 1)


def _apply_levels(grid, sched: BlockSchedule, blk, levels) -> None:
    """Apply ``levels`` of ``sched`` to base block ``blk`` of ``grid``; a
    compressed level restores the ghost faces at its read offset first."""
    g = grid.dims.ghost
    for tau in levels:
        lo, hi = sched.region(blk, tau)
        r, src, dst = _level_views(grid, sched.direction, tau)
        if r is not None:
            grid.restore_ghosts(lo, hi, r)
        update_region(src, dst, g, lo, hi)


def _end_sweep(grid, sched: BlockSchedule) -> None:
    """Advance ``grid`` past a finished sweep of all of ``sched``'s levels."""
    if grid.storage == "compressed":
        grid.shift_origin(sched.direction * sched.n_levels)
    elif sched.n_levels % 2 == 1:
        grid.swap()


def _direction(grid, U: int) -> int:
    """Two-grid sweeps of U levels run down (-1); compressed ones move the
    origin U layers down while it has that room below, else up (+1)."""
    return 1 if grid.storage == "compressed" and grid.offset < U else -1


class _Runner:
    """The one schedule executor: runs ``sweeps`` node sweeps of ``cfg``,
    each under ``c`` as one thread group whose thread 0 is the calling
    thread, and under ``numpy`` on the calling thread alone."""

    _SPIN_BUDGET = 64        # gate checks before a spinning C thread yields
    _SPIN_TIMEOUT = 30.0     # seconds a refused C thread may spin
    _pick = staticmethod(lambda ready: ready[0])   # numpy: the lowest goes

    def __init__(self, grid, cfg: PipelineConfig, sweeps: int,
                 level_domains=None, trace=None):
        self.grid, self.cfg, self.sweeps, self.trace = grid, cfg, sweeps, trace
        n = cfg.n_threads
        self.counters = (ctypes.c_int64 * n)()
        self.stop = ctypes.c_int32()      # abort flag, polled by C spins
        self.rules = [_rules(cfg, i) for i in range(n)]

        if cfg.storage == "twogrid":
            if not isinstance(grid, TwoGrid):
                raise ValueError("config expects two-grid storage")
            self.schedules = {-1: build_schedule(grid.dims, cfg, level_domains, -1)}
        else:
            if not isinstance(grid, CompressedGrid):
                raise ValueError("config expects compressed storage")
            # A sweep moves the origin U layers down, or up when there is no
            # room below; once the first sweep fits, every later one does.
            # Both schedules are built, and so checked, before any write.
            U = cfg.levels_per_sweep
            if grid.offset < U and grid.offset + U > grid.slack:
                raise ScheduleError(f"compressed origin offset {grid.offset} has "
                                    f"no room for U={U} in slack {grid.slack}")
            if level_domains is not None:
                raise ScheduleError("compressed storage supports interior domains only")
            self.schedules = {s: build_schedule(grid.dims, cfg, None, s)
                              for s in (-1, 1)}

    def run(self) -> None:
        """Every sweep in order, each level's domain and its one-cell
        neighbourhood checked against both of its views before any block is
        written; a level's blocks partition it, so no block update leaves."""
        g, U = self.grid.dims.ghost, self.cfg.levels_per_sweep
        # Not kept on self, where it would make a cycle that holds the grid
        # until a collection; the numpy sweep takes its views per block.
        execute = self._run_group if kernel._c_sweep is not None else (
            lambda sweep, sched, views: self._run_sweep_py(sweep, sched))
        for sweep in range(self.sweeps):
            sched = self.schedules[_direction(self.grid, U)]
            views = [_level_views(self.grid, sched.direction, tau)[1:]
                     for tau in range(1, U + 1)]
            for tau, (src, dst) in enumerate(views, 1):
                lo, hi = sched.domain(tau)
                if all(h > l for l, h in zip(lo, hi)):
                    _check_region(src, dst, g, lo, hi)
            ctypes.memset(self.counters, 0, ctypes.sizeof(self.counters))
            execute(sweep, sched, views)
            _end_sweep(self.grid, sched)

    def _run_group(self, sweep: int, sched: BlockSchedule, views) -> None:
        """The sweep as one thread group of compiled calls on one
        :class:`kernel.Sweep`, whose arrays are locals here or held by
        ``sched``, ``self`` and the grid, so they outlive the group."""
        cfg, grid, U = self.cfg, self.grid, sched.n_levels
        # Every level's source base, then every level's destination base.
        bases = (ctypes.c_void_p * (2 * U))(
            *(v.ctypes.data for side in zip(*views) for v in side))
        # Every thread's pairs end to end, and each thread's first pair.
        rule = array("q", itertools.accumulate(map(len, self.rules), initial=0))
        pairs = array("q", itertools.chain.from_iterable(
            itertools.chain.from_iterable(self.rules)))
        # The grid's faces, which np.take made contiguous, or NULL.
        faces = None if grid.storage == "twogrid" else (ctypes.c_void_p * 6)(
            *(f.ctypes.data for pair in grid.faces for f in pair))
        sz, sy, _ = views[0][0].strides
        args = kernel.Sweep(
            n_blocks=sched.n_blocks, T=cfg.updates_per_thread,
            ghost=grid.dims.ghost, sz=sz // 8, sy=sy // 8,
            n=(ctypes.c_int64 * 3)(*grid.dims.shape),
            order=sched.order_array.buffer_info()[0],
            cuts=sched.cut_array.buffer_info()[0],
            chain=sched.chain_starts.buffer_info()[0],
            src=ctypes.addressof(bases), dst=ctypes.addressof(bases) + 8 * U,
            faces=faces and ctypes.addressof(faces),
            rule=rule.buffer_info()[0], rules=pairs.buffer_info()[0],
            counters=ctypes.addressof(self.counters),
            abort=ctypes.addressof(self.stop),
            spin_budget=self._SPIN_BUDGET, timeout=self._SPIN_TIMEOUT)
        run_group(cfg.n_threads, lambda i: self._run_sweep_c(i, sweep, args),
                  "pipe", lambda: setattr(self.stop, "value", 1), PipelineError)

    def _stalled(self, i: int, b: int) -> PipelineTimeout:
        return PipelineTimeout(f"thread {i} stalled at block {b} "
                               f"(counters {self.counters[:]})")

    def _run_sweep_c(self, i: int, sweep: int, args) -> None:
        """Thread i's sweep as one compiled call on ``args``, the sweep's
        :class:`kernel.Sweep`, which holds no GIL.  A trace gets one event
        per block, the (c_prev, c_self, c_next) its gate passed on."""
        record = (None if self.trace is None
                  else (ctypes.c_int64 * (3 * args.n_blocks))())
        where = ctypes.c_int64()
        status = kernel._c_sweep(ctypes.byref(args), i, record,
                                 ctypes.byref(where))
        if status == kernel.SWEEP_ABORTED:
            raise Aborted
        if status == kernel.SWEEP_TIMEOUT:
            raise self._stalled(i, where.value)
        if record is not None:
            self.trace.extend(TraceEvent(sweep, i, b, *record[3 * b:3 * b + 3])
                              for b in range(args.n_blocks))

    def _run_sweep_py(self, sweep: int, sched: BlockSchedule) -> None:
        """One node sweep on the calling thread: of the threads whose gate
        passes, the one ``_pick`` chooses does its next block and counts it."""
        c, n_blocks = self.counters, sched.n_blocks
        left = list(range(self.cfg.n_threads))
        while left:
            ready = [(i, snap) for i in left if (snap := _gate(
                c, self.rules[i], i, c[i], n_blocks)) is not None]
            if not ready:
                raise self._stalled(left[0], c[left[0]])
            i, snap = self._pick(ready)
            if self.trace is not None:
                self.trace.append(TraceEvent(sweep, i, c[i], *snap))
            try:
                _apply_levels(self.grid, sched, sched.order[c[i]],
                              _levels(self.cfg, i))
            except Exception as exc:
                raise PipelineError(f"pipe {i} failed: {exc!r}") from exc
            c[i] += 1
            if c[i] == n_blocks:
                left.remove(i)


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
