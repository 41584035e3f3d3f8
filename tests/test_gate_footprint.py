"""Race-freedom of the gate, as a specification.

A start/finish model of a node sweep: a thread starts its next block when
the gate lets it, and bumps its counter when the block is done; which
enabled step comes next is drawn at random.  Every block that starts is
checked against every block still in flight on another thread.  Its reads
are the stencil cross of each region at the read level; its writes are the
region at the write level, plus the ghost faces a compressed level
restores.  Two blocks clash when one writes a cell that the other reads or
writes.

The footprints come from the package's own ``_apply_levels``, run against
a shadow grid that names each storage view, over the real
``BlockSchedule`` and ``_levels``; the gate is the package's ``_gate``
over the (j, lead) pairs of ``_rules``, under either sync mode.
Once the kernel runs without the interpreter lock, two block updates
really overlap, so no interleaving the gate allows may clash.
"""

import itertools
import random

from hypothesis import assume, given, settings, strategies as st

from stencilpipe import pipeline
from stencilpipe.grid import GridDims
from stencilpipe.pipeline import (PipelineConfig, ScheduleError, _rules,
                                  build_schedule)


class _Shadow:
    """Stands in for a grid under ``_apply_levels``: a storage view comes
    back as (array, offset) and each ghost restore is recorded."""

    def __init__(self, storage, dims, offset, ops):
        self.storage, self.dims, self.offset = storage, dims, offset
        self.current, self.other = ("a", 0), ("b", 0)
        self.data = self
        self._ops = ops

    def __getitem__(self, key):          # grid.data[r:, r:, r:]
        return ("data", key[0].start)

    def restore_ghosts(self, lo, hi, o):
        self._ops.append(("ghosts", ("data", o), lo, hi))


def _box(view, ghost, lo, hi, axis=None, step=0):
    """(array, lo, hi) in the array's own indices of the logical box
    [lo, hi) of ``view``, moved ``step`` cells along ``axis``."""
    array, o = view
    move = [step if d == axis else 0 for d in range(3)]
    return (array, tuple(o + ghost + l + m for l, m in zip(lo, move)),
            tuple(o + ghost + h + m for h, m in zip(hi, move)))


def _footprint(storage, dims, offset, sched, blk, levels):
    """(reads, writes) of one block's levels, as lists of boxes."""
    ops = []
    saved = pipeline.update_region
    pipeline.update_region = lambda *args: ops.append(("update", *args))
    try:
        pipeline._apply_levels(_Shadow(storage, dims, offset, ops), sched,
                               blk, levels)
    finally:
        pipeline.update_region = saved
    reads, writes = [], []
    for op in ops:
        if op[0] == "update":
            _, src, dst, g, lo, hi = op
            reads += [_box(src, g, lo, hi, d, e) for d in range(3)
                      for e in (-1, 1)]
            writes.append(_box(dst, g, lo, hi))
        else:
            # restore_ghosts writes the face layer at index 0 or n + 1 of
            # every axis the box touches, across the box on the others.
            _, view, lo, hi = op
            for d, n in enumerate(dims.shape):
                for at, touches in ((-1, lo[d] == 0), (n, hi[d] == n)):
                    if touches:
                        flo, fhi = list(lo), list(hi)
                        flo[d], fhi[d] = at, at + 1
                        writes.append(_box(view, 1, flo, fhi))
    return reads, writes


def _overlap(a, b) -> bool:
    return a[0] == b[0] and all(max(l1, l2) < min(h1, h2) for l1, h1, l2, h2
                                in zip(a[1], a[2], b[1], b[2]))


def _clash(p, q) -> bool:
    (pr, pw), (qr, qw) = p, q
    return (any(_overlap(w, x) for w in pw for x in qr + qw)
            or any(_overlap(w, x) for w in qw for x in pr))


def _rules_without_predecessor(cfg, i):
    """``_rules`` with the pair on thread i - 1 dropped: a negative
    control."""
    return [(j, lead) for j, lead in _rules(cfg, i) if j != i - 1]


def _count_clashes(cfg, dims, direction, rng, rules=_rules) -> int:
    """Clashes over one random gate-allowed interleaving of a node sweep."""
    sched = build_schedule(dims, cfg, direction=direction)
    counters = [0] * cfg.n_threads
    pairs = [rules(cfg, i) for i in range(cfg.n_threads)]
    offset = cfg.levels_per_sweep if direction == -1 else 0
    nb, n = sched.n_blocks, cfg.n_threads
    foot = {(i, b): _footprint(cfg.storage, dims, offset, sched,
                               sched.order[b],
                               pipeline._levels(cfg, i))
            for i in range(n) for b in range(nb)}
    flying, clashes = {}, 0
    while True:
        steps = [(i, False) for i in flying] + [
            (i, True) for i in range(n) if i not in flying and counters[i] < nb
            and pipeline._gate(counters, pairs[i], i, counters[i], nb)
            is not None]
        if not steps:
            break
        i, start = rng.choice(steps)
        if start:
            b = counters[i]
            clashes += sum(_clash(foot[i, b], foot[j, flying[j]])
                           for j in flying)
            flying[i] = b
        else:
            del flying[i]
            counters[i] += 1
    assert counters == [nb] * n, "the gate deadlocked"
    return clashes


@st.composite
def _sweeps(draw):
    """(config, dims, direction) of a valid node sweep."""
    cfg = dict(teams=draw(st.integers(1, 2)),
               team_size=draw(st.integers(1, 3)),
               updates_per_thread=draw(st.integers(1, 2)),
               min_dist=draw(st.integers(1, 2)),
               team_delay=draw(st.integers(0, 2)),
               sync=draw(st.sampled_from(["barrier", "relaxed"])),
               storage=draw(st.sampled_from(["twogrid", "compressed"])))
    cfg["max_dist"] = cfg["min_dist"] + draw(st.integers(0, 3))
    shape = [draw(st.integers(2, 10)) for _ in range(3)]      # (x, y, z)
    cfg["block"] = tuple(draw(st.integers(1, n)) for n in shape)
    return (PipelineConfig(**cfg), GridDims(*shape),
            draw(st.sampled_from([-1, 1])))


@settings(max_examples=150, deadline=None)
@given(sweep=_sweeps(), seed=st.integers(0, 2**32 - 1))
def test_gate_allows_no_clash(sweep, seed):
    cfg, dims, direction = sweep
    try:
        build_schedule(dims, cfg, direction=direction)
    except ScheduleError:
        assume(False)
    rng = random.Random(seed)
    for _ in range(3):
        assert _count_clashes(cfg, dims, direction, rng) == 0


def test_dropping_d_l_lets_blocks_clash():
    rng = random.Random(5)
    for storage, sync, team_delay in itertools.product(
            ("twogrid", "compressed"), ("barrier", "relaxed"), (0, 2)):
        cfg = PipelineConfig(teams=2, team_size=2, updates_per_thread=1,
                             team_delay=team_delay, block=(8, 4, 4),
                             sync=sync, storage=storage)
        dims = GridDims(8, 8, 8)
        for direction in (-1, 1):
            real = sum(_count_clashes(cfg, dims, direction, rng)
                       for _ in range(10))
            dropped = sum(_count_clashes(cfg, dims, direction, rng,
                                         _rules_without_predecessor)
                          for _ in range(10))
            assert real == 0 and dropped > 0, (storage, sync, team_delay,
                                               direction, dropped)
