import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from stencilpipe import kernel
from stencilpipe.grid import FillPattern, GridDims, GridError, allocate
from stencilpipe.kernel import (sweep_naive, sweep_spatial_blocked,
                                update_region)
from stencilpipe.pipeline import (BlockSchedule, PipelineConfig, ScheduleError,
                                  run_node_sweeps)
from stencilpipe.verify import check_maximum_principle, compare, oracle


def _point(xm, xp, ym, yp, zm, zp) -> float:
    """One level of a 1x1x1 two-grid whose six neighbours are given, run
    from each array of the pair; both runs must agree.  ``b`` lies past
    ``a`` in memory, so under ``c`` the run a -> b takes the region loop in
    reverse and b -> a takes it forward."""
    g = allocate(GridDims(1, 1, 1), "twogrid", FillPattern.constant(np.nan))
    for arr in (g.a, g.b):
        arr[1, 1, 0], arr[1, 1, 2] = xm, xp
        arr[1, 0, 1], arr[1, 2, 1] = ym, yp
        arr[0, 1, 1], arr[2, 1, 1] = zm, zp
    got = []
    for _ in range(2):
        run_node_sweeps(g, PipelineConfig(updates_per_thread=1), 1)
        got.append(g.current[1, 1, 1])
    assert got[0] == got[1], got
    return got[0]


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


def test_oracle_goes_through_update_region(monkeypatch):
    # perfbench's tracer counts the oracle's region calls by wrapping
    # kernel.update_region, so sweep_naive must look it up there.
    calls = []
    region = kernel.update_region

    def counting(src, dst, ghost, lo, hi):
        calls.append((lo, hi))
        region(src, dst, ghost, lo, hi)

    monkeypatch.setattr(kernel, "update_region", counting)
    d = GridDims(5, 4, 3)
    g = allocate(d, "twogrid", FillPattern.random(4))
    for _ in range(2):
        sweep_naive(g)
    assert calls == [((0, 0, 0), d.shape)] * 2


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


@st.composite
def _compressed_levels(draw):
    """(array-order shape, block (bx, by, bz), slack, read offset)."""
    shape = tuple(draw(st.integers(1, 6)) for _ in range(3))
    block = tuple(draw(st.integers(1, n)) for n in shape[::-1])
    slack = draw(st.integers(1, 3))
    return shape, block, slack, draw(st.integers(0, slack))


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=_compressed_levels(), seed=st.integers(0, 10_000))
@example(case=((4, 5, 6), (6, 5, 4), 1, 1), seed=1)
@example(case=((4, 5, 6), (3, 2, 4), 2, 0), seed=2)
def test_compressed_level_matches_twogrid_update(case, seed, backends):
    # One one-thread, one-level compressed sweep from read offset r, with
    # all of the array but the interior at r wiped, equals one naive
    # two-grid sweep of the same field.  It runs down from r >= 1 and up
    # from r = 0, so both region loop directions and every ghost face
    # restore are reached.
    shape, block, slack, r = case
    dims = GridDims(*shape[::-1])
    pat = FillPattern.random(seed)
    ref = oracle(dims, pat, 1)
    cfg = PipelineConfig(updates_per_thread=1, block=block,
                         storage="compressed")
    for backend in backends:
        g = allocate(dims, "compressed", pat, slack=slack)
        field = g.interior().copy()
        g.data[...] = np.nan
        g.shift_origin(r - g.offset)
        g.interior()[...] = field
        run_node_sweeps(g, cfg, 1)
        assert g.offset == r + (-1 if r >= 1 else 1), backend
        assert compare(ref, g).bitwise, backend


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_maximum_principle_random(seed):
    g = allocate(GridDims(6, 6, 6), "twogrid", FillPattern.random(seed))
    before = g.full_view().copy()
    sweep_naive(g)
    assert check_maximum_principle(before, g.interior())


def test_summation_order_is_pairwise(backends):
    # The fixed order ((x-)+(x+)) + ((y-)+(y+)) + ((z-)+(z+)) differs in the
    # last bit from a left-to-right sum for some inputs; pin the former.
    # Together the last two inputs tell this order apart from every other
    # grouping and ordering of the six terms.
    for vals in ((0.1, 0.7, 1e-17, 0.3, 0.9, 1.1),
                 (0.7, 1.6, 0.4, 1.5, 0.2, 1.6),
                 (1.2, 0.6, 1.7, 0.1, 1.9, 0.9)):
        expected = (((vals[0] + vals[1]) + (vals[2] + vals[3]))
                    + (vals[4] + vals[5])) * (1.0 / 6.0)
        for backend in backends:
            assert _point(*vals) == expected, (backend, vals)


@pytest.mark.parametrize("lo, hi", [
    ((-1, 0, 0), (4, 4, 4)),      # low z neighbours before the array
    ((0, 0, 0), (4, 4, 5)),       # high x neighbours past the row
    ((0, 0, 0), (5, 4, 4)),       # high z neighbours past the array
    ((0, -1, 2), (1, 1, 3)),
    ((0, 0, 9), (1, 1, 11)),      # wholly outside
])
def test_out_of_range_box_raises_before_any_write(lo, hi):
    g = allocate(GridDims(4, 4, 4), "twogrid", FillPattern.random(5))
    before = (g.a.tobytes(), g.b.tobytes())
    with pytest.raises(GridError):
        update_region(g.current, g.other, 1, lo, hi)
    assert (g.a.tobytes(), g.b.tobytes()) == before


def _refused_views(case):
    """A (src, dst) pair that the region update must refuse."""
    src = np.random.default_rng(3).random((6, 6, 6))
    return {
        "x-strides-differ": (src, np.zeros((6, 6, 12))[:, :, ::2]),
        "y-strides-differ": (src, np.zeros((6, 7, 6))[:, :6, :]),
        "reversed-x": (src[:, :, ::-1], np.zeros((6, 6, 6))[:, :, ::-1]),
        "float32": (src.astype(np.float32), np.zeros((6, 6, 6), np.float32)),
    }[case]


@pytest.mark.parametrize("case", ["x-strides-differ", "y-strides-differ",
                                  "reversed-x", "float32"])
def test_mismatched_views_raise_before_any_write(case):
    src, dst = _refused_views(case)
    before = (src.tobytes(), dst.tobytes())
    with pytest.raises(GridError):
        update_region(src, dst, 1, (0, 0, 0), (4, 4, 4))
    assert (src.tobytes(), dst.tobytes()) == before


def test_empty_box_is_a_no_op():
    g = allocate(GridDims(4, 4, 4), "twogrid", FillPattern.random(9))
    before = g.other.tobytes()
    for lo, hi in (((0, 0, 0), (0, 4, 4)), ((2, 2, 2), (2, 1, 4)),
                   ((9, 9, 9), (9, 9, 9))):
        update_region(g.current, g.other, 1, lo, hi)
    assert g.other.tobytes() == before
