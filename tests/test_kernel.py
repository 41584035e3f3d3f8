import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stencilpipe.grid import FillPattern, GridDims, GridError, allocate
from stencilpipe.kernel import stencil_region, sweep_naive, sweep_spatial_blocked
from stencilpipe.pipeline import (BlockSchedule, PipelineConfig, ScheduleError,
                                  run_node_sweeps)
from stencilpipe.verify import check_maximum_principle, compare, oracle


def _point(xm, xp, ym, yp, zm, zp) -> float:
    """stencil_region at the center of a 3x3x3 array of the six neighbors."""
    a = np.full((3, 3, 3), np.nan)
    a[1, 1, 0], a[1, 1, 2] = xm, xp
    a[1, 0, 1], a[1, 2, 1] = ym, yp
    a[0, 1, 1], a[2, 1, 1] = zm, zp
    return stencil_region(a, (slice(1, 2),) * 3)[0, 0, 0]


def test_point_update_examples():
    assert _point(5.0, 5.0, 5.0, 5.0, 5.0, 5.0) == 5.0
    # linear field: neighbor pairs average to the center value
    assert _point(2.0, 4.0, 2.0, 4.0, 2.0, 4.0) == 3.0
    assert _point(1.0, 2.0, 3.0, 4.0, 0.0, 5.0) == 15.0 / 6.0


def test_constant_is_fixed_point():
    g = allocate(GridDims(6, 6, 6), "twogrid", FillPattern.constant(3.5))
    start = g.interior().copy()
    for _ in range(8):
        sweep_naive(g)
    assert np.array_equal(g.interior(), start)


def test_linear_is_fixed_point():
    g = allocate(GridDims(6, 6, 6), "twogrid", FillPattern.linear())
    start = g.interior().copy()
    for _ in range(8):
        sweep_naive(g)
    assert np.array_equal(g.interior(), start)


def test_hotplate_first_sweep_golden():
    # By hand: one sweep of the all-cold grid with a hot low-x ghost plane;
    # only cells touching that plane (i = 0) pick up heat, exactly 1/6 each.
    g = allocate(GridDims(4, 4, 4), "twogrid", FillPattern.hotplate())
    sweep_naive(g)
    expected = np.zeros((4, 4, 4))
    expected[:, :, 0] = 1.0 / 6.0
    assert np.array_equal(g.interior(), expected)


def test_hotplate_monotone_heating():
    g = allocate(GridDims(4, 4, 4), "twogrid", FillPattern.hotplate())
    prev = g.interior().copy()
    for _ in range(20):
        sweep_naive(g)
        cur = g.interior()
        assert np.all(cur >= prev)
        assert cur.max() < 1.0
        prev = cur.copy()


def test_block_edges():
    def x_cuts(extent, b):
        sched = BlockSchedule([((0, 0, 0), (1, 1, extent))], (b, 1, 1), -1)
        regions = [sched.region(blk, 1) for blk in sched.order]
        return [lo[2] for lo, _ in regions] + [regions[-1][1][2]]

    assert x_cuts(10, 4) == [0, 4, 8, 10]
    assert x_cuts(8, 8) == [0, 8]
    assert x_cuts(3, 5) == [0, 3]
    with pytest.raises(ScheduleError):
        x_cuts(10, 0)


def test_blocked_matches_naive_bitwise():
    d = GridDims(32, 32, 32)
    pat = FillPattern.random(7)
    ref = allocate(d, "twogrid", pat)
    blk = allocate(d, "twogrid", pat)
    for _ in range(4):
        sweep_naive(ref)
        sweep_spatial_blocked(blk, (32, 8, 8))
    assert compare(ref, blk).bitwise


def test_blocked_unit_blocks_bitwise():
    d = GridDims(8, 8, 8)
    pat = FillPattern.random(5)
    ref = allocate(d, "twogrid", pat)
    blk = allocate(d, "twogrid", pat)
    for _ in range(2):
        sweep_naive(ref)
        sweep_spatial_blocked(blk, (1, 1, 1))
    assert compare(ref, blk).bitwise


def test_blocked_full_domain_block_bitwise():
    d = GridDims(9, 7, 5)
    pat = FillPattern.random(2)
    ref = allocate(d, "twogrid", pat)
    blk = allocate(d, "twogrid", pat)
    sweep_naive(ref)
    sweep_spatial_blocked(blk, (9, 7, 5))
    assert compare(ref, blk).bitwise


def test_blocked_rejects_oversized_blocks():
    g = allocate(GridDims(4, 4, 4), "twogrid", FillPattern.constant(0.0))
    with pytest.raises(GridError):
        sweep_spatial_blocked(g, (5, 4, 4))


def _whole(g, levels: int, sweeps: int = 1):
    """Run ``sweeps`` one-thread sweeps of ``levels`` levels over one block."""
    cfg = PipelineConfig(updates_per_thread=levels, storage=g.storage)
    run_node_sweeps(g, cfg, sweeps)


def test_update_block_full_interior_equals_sweep():
    d = GridDims(6, 6, 6)
    pat = FillPattern.random(11)
    ref = allocate(d, "twogrid", pat)
    g = allocate(d, "twogrid", pat)
    sweep_naive(ref)
    _whole(g, 1)
    assert compare(ref, g).bitwise


def test_update_block_level_parity():
    # Two levels over one block == two naive sweeps.
    d = GridDims(6, 6, 6)
    pat = FillPattern.random(13)
    ref = oracle(d, pat, 2)
    g = allocate(d, "twogrid", pat)
    _whole(g, 2)
    # U = 2 is even: the result lands in the array that was current, no swap
    assert g.active == 0
    assert compare(ref, g).bitwise


def test_update_block_compressed_one_level():
    d = GridDims(8, 8, 8)
    pat = FillPattern.random(3)
    ref = oracle(d, pat, 1)
    g = allocate(d, "compressed", pat, slack=1)
    _whole(g, 1)
    assert g.offset == 0
    assert compare(ref, g).bitwise


def test_update_block_compressed_round_trip():
    # Forward sweep (shift -1) then reverse sweep (shift +1) == 2 levels.
    d = GridDims(8, 8, 8)
    pat = FillPattern.random(29)
    ref = oracle(d, pat, 2)
    g = allocate(d, "compressed", pat, slack=1)
    _whole(g, 1, sweeps=2)
    assert g.offset == 1
    assert compare(ref, g).bitwise


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_maximum_principle_random(seed):
    g = allocate(GridDims(6, 6, 6), "twogrid", FillPattern.random(seed))
    before = g.full_view().copy()
    sweep_naive(g)
    assert check_maximum_principle(before, g.interior())


def test_summation_order_is_pairwise():
    # The fixed order ((x-)+(x+)) + ((y-)+(y+)) + ((z-)+(z+)) differs in the
    # last bit from a left-to-right sum for some inputs; pin the former.
    vals = (0.1, 0.7, 1e-17, 0.3, 0.9, 1.1)
    expected = (((vals[0] + vals[1]) + (vals[2] + vals[3]))
                + (vals[4] + vals[5])) * (1.0 / 6.0)
    assert _point(*vals) == expected
