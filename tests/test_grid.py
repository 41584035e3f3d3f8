import io

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from stencilpipe.decomp import Decomposition, decompose, local_grid
from stencilpipe.grid import (CompressedGrid, FillPattern, GridDims, GridError,
                              TwoGrid, allocate, dump_field, extract_layers,
                              inject_layers)
from stencilpipe.kernel import sweep_naive


def load_field(fh):
    """Inverse of ``dump_field``: (dims, values over the dumped box)."""
    nx, ny, nz, ghost = (int(t) for t in fh.readline().split())
    dims = GridDims(nx, ny, nz, ghost)
    flat = np.array([float(line) for line in fh], dtype=np.float64)
    assert flat.size == np.prod(dims.alloc_shape)
    return dims, flat.reshape(dims.alloc_shape)


def test_dims_validation():
    with pytest.raises(GridError):
        GridDims(0, 4, 4)
    with pytest.raises(GridError):
        GridDims(4, -1, 4)
    with pytest.raises(GridError):
        GridDims(4, 4, 4, ghost=0)


def test_constant_fill_covers_all_cells():
    g = allocate(GridDims(4, 4, 4), "twogrid", FillPattern.constant(0.0))
    assert g.current.shape == (6, 6, 6)
    assert g.current.size == 216
    assert np.all(g.current == 0.0)


def test_linear_fill():
    g = allocate(GridDims(2, 2, 2), "twogrid", FillPattern.linear())
    assert g.value_at(1, 1, 1) == 3.0
    assert g.value_at(0, 0, 0) == 0.0
    # ghost cells follow the same linear function
    assert g.value_at(-1, 0, 0) == -1.0


def test_random_fill_reproducible():
    d = GridDims(8, 8, 8)
    a = allocate(d, "twogrid", FillPattern.random(42))
    b = allocate(d, "twogrid", FillPattern.random(42))
    assert np.array_equal(a.current, b.current)
    c = allocate(d, "twogrid", FillPattern.random(43))
    assert not np.array_equal(a.current, c.current)


def test_random_fill_is_coordinate_addressed():
    # A subdomain box sees the same values as the full grid.
    pat = FillPattern.random(7)
    full = pat.evaluate((-1, -1, -1), (9, 9, 9))
    box = pat.evaluate((3, 2, 1), (6, 5, 4))
    assert np.array_equal(full[4:7, 3:6, 2:5], box)


def _same_bits(got: np.ndarray, want: np.ndarray) -> bool:
    return got.shape == want.shape and np.array_equal(
        got.view(np.uint64), want.view(np.uint64))


# Seeds that wrap: the pattern masks them to 64 bits.
_SEEDS = st.sampled_from([0, -1, -2 ** 63, 2 ** 63, 2 ** 64 - 1, 2 ** 64 + 3])


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_fill_is_the_pattern(data, backends):
    # Every grid fills through FillPattern.fill, one C call for random under
    # the c backend; its arrays must equal evaluate, the numpy definition
    # that the oracle's and the benchmark's starting fields come from.
    seed = data.draw(_SEEDS | st.integers(-2 ** 70, 2 ** 70), label="seed")
    pat = data.draw(st.sampled_from([
        FillPattern.random(seed), FillPattern.linear(),
        FillPattern.hotplate(), FillPattern.constant(0.5)]), label="pattern")
    n = data.draw(st.tuples(*[st.integers(1, 6)] * 3), label="(nz, ny, nx)")
    ghost = data.draw(st.integers(1, 3), label="ghost")
    slack = data.draw(st.integers(0, 3), label="slack")
    layout = data.draw(st.sampled_from([(2, 1, 1), (1, 1, 2), (2, 2, 1)]),
                       label="layout")
    nz, ny, nx = n
    dims = GridDims(nx, ny, nz, ghost)
    # Each rank owns at least ghost cells per split axis.
    split = (layout[2], layout[1], layout[0])
    gd = GridDims(*[p * max(m, ghost) for p, m in zip(split, n)][::-1])
    dec = decompose(gd, layout[0] * layout[1] * layout[2], layout, ghost)
    for backend in backends:
        g = TwoGrid(dims, pat)
        want = pat.evaluate((-ghost,) * 3, tuple(m + ghost for m in n))
        assert _same_bits(g.a, want) and _same_bits(g.b, want), backend

        c = CompressedGrid(GridDims(nx, ny, nz), pat, slack)
        box = pat.evaluate((-1,) * 3, tuple(m + 1 for m in n))
        assert c.offset == slack
        assert _same_bits(c.full_view(), box), backend
        rest = np.ones(c.data.shape, dtype=bool)
        rest[tuple(slice(slack, slack + m + 2) for m in n)] = False
        assert not c.data[rest].any(), backend   # the slack stays zero
        for d, (low, high) in enumerate(c.faces):
            assert _same_bits(low, np.take(box, [0], axis=d)), backend
            assert _same_bits(high, np.take(box, [-1], axis=d)), backend

        # A view strided on every axis, x included, at an arbitrary origin.
        buf = np.zeros((2 * nz, 2 * ny, 3 * nx))
        lo = (-ghost, 5, -7)
        pat.fill(buf[::2, ::2, 1::3], lo)
        want = pat.evaluate(lo, tuple(l + m for l, m in zip(lo, n)))
        assert _same_bits(buf[::2, ::2, 1::3], want), backend
        buf[::2, ::2, 1::3] = 0.0
        assert not buf.any(), backend

        for rank in range(dec.n_ranks):
            origin = [r[0] - ghost for r in dec.ranges(rank)]
            shape = dec.local_dims(rank).alloc_shape
            want = pat.evaluate(origin, [o + m for o, m in zip(origin, shape)])
            assert _same_bits(local_grid(dec, rank, pat).a, want), (backend,
                                                                   rank)


def test_constant_value_at_everywhere():
    g = allocate(GridDims(3, 3, 3), "twogrid", FillPattern.constant(5.0))
    for idx in [(-1, -1, -1), (0, 0, 0), (2, 1, 0), (3, 3, 3)]:
        assert g.value_at(*idx) == 5.0


def test_value_at_bounds_checked():
    g = allocate(GridDims(3, 3, 3), "twogrid", FillPattern.constant(1.0))
    with pytest.raises(IndexError):
        g.value_at(4, 0, 0)
    with pytest.raises(IndexError):
        g.value_at(0, 0, -2)


def test_compressed_offset_identity():
    d = GridDims(5, 5, 5)
    g = allocate(d, "compressed", FillPattern.random(9), slack=2)
    before = g.value_at(2, 3, 4)
    g.shift_origin(-1)
    g.shift_origin(+1)
    assert g.value_at(2, 3, 4) == before


def test_compressed_requires_room():
    d = GridDims(4, 4, 4)
    g = allocate(d, "compressed", FillPattern.constant(0.0), slack=1)
    with pytest.raises(GridError):
        g.shift_origin(-2)
    with pytest.raises(GridError):
        CompressedGrid(d, FillPattern.constant(0.0), slack=-1)


def test_compressed_overflow_rejected():
    with pytest.raises(GridError):
        CompressedGrid(GridDims(2, 2, 2), FillPattern.constant(0.0),
                       slack=2 ** 22)


def test_extract_constant_face():
    g = allocate(GridDims(4, 4, 4), "twogrid", FillPattern.constant(7.0))
    buf = extract_layers(g, "+x", 1)
    assert buf.shape == (16,)
    assert np.all(buf == 7.0)


def test_extract_linear_face_values():
    d = GridDims(4, 4, 4)
    g = allocate(d, "twogrid", FillPattern.linear())
    buf = extract_layers(g, "+x", 1).reshape(4, 4)
    for k in range(4):
        for j in range(4):
            assert buf[k, j] == (d.nx - 1) + j + k


def test_extract_depth_exceeding_ghost():
    g = allocate(GridDims(4, 4, 4), "twogrid", FillPattern.constant(0.0))
    with pytest.raises(GridError):
        extract_layers(g, "+x", 2)


@settings(max_examples=60, deadline=None)
@given(face=st.sampled_from(["-x", "+x", "-y", "+y", "-z", "+z"]),
       depth=st.integers(1, 3),
       ext=st.integers(0, 2),
       seed=st.integers(0, 100))
def test_pack_unpack_round_trip(face, depth, ext, seed):
    d = GridDims(5, 6, 7, ghost=3)
    src = allocate(d, "twogrid", FillPattern.random(seed))
    dst = allocate(d, "twogrid", FillPattern.constant(-1.0))
    exts = tuple((ext, ext) for _ in range(3))
    buf = extract_layers(src, face, depth, exts)
    opposite = {"-": "+", "+": "-"}[face[0]] + face[1]
    inject_layers(dst, opposite, depth, buf, exts)
    # the buffer must land in the ghost slab of the opposite face, bitwise
    axis = {"x": 2, "y": 1, "z": 0}[face[1]]
    g = d.ghost
    sl = [slice(g - e, d.shape[i] + g + e) if i != axis else None
          for i, e in enumerate([ext] * 3)]
    if opposite[0] == "-":
        sl[axis] = slice(g - depth, g)
    else:
        sl[axis] = slice(g + d.shape[axis], g + d.shape[axis] + depth)
    assert np.array_equal(dst.current[tuple(sl)].ravel(), buf)


def test_ghost_cells_never_written_by_sweeps():
    d = GridDims(6, 6, 6)
    g = allocate(d, "twogrid", FillPattern.random(3))
    guard_a = g.a.copy()
    guard_b = g.b.copy()
    for _ in range(4):
        sweep_naive(g)
    mask = np.ones(d.alloc_shape, dtype=bool)
    mask[1:-1, 1:-1, 1:-1] = False
    assert np.array_equal(g.a[mask], guard_a[mask])
    assert np.array_equal(g.b[mask], guard_b[mask])


def _assert_staggered(grid, want):
    """``a`` and ``b`` never alias in caches and both hold ``want`` bitwise."""
    a, b = grid.a, grid.b
    gap = b.ctypes.data - a.ctypes.data
    assert gap % 64 == 0 and (gap // 64) % 2 == 1
    assert gap >= a.nbytes + 4096
    assert not np.shares_memory(a, b)
    assert a.tobytes() == want.tobytes()
    assert b.tobytes() == want.tobytes()


@pytest.mark.parametrize("ghost", [1, 4])
@pytest.mark.parametrize("shape", [(1, 1, 1), (5, 7, 3), (16, 16, 16),
                                   (31, 8, 17), (48, 48, 48)])
def test_twogrid_arrays_are_staggered(shape, ghost):
    d = GridDims(*shape, ghost=ghost)
    pat = FillPattern.random(5)
    want = pat.evaluate((-ghost,) * 3, tuple(n + ghost for n in d.shape))
    _assert_staggered(TwoGrid(d, pat), want)


def test_local_grid_arrays_are_staggered():
    dec = Decomposition(GridDims(20, 12, 9), (2, 1, 1), halo=3)
    pat = FillPattern.random(8)
    lo = [r[0] - 3 for r in dec.ranges(1)]
    hi = [r[1] + 3 for r in dec.ranges(1)]
    _assert_staggered(local_grid(dec, 1, pat), pat.evaluate(lo, hi))


def test_dump_load_round_trip():
    d = GridDims(4, 3, 5)
    g = allocate(d, "twogrid", FillPattern.random(17))
    sweep_naive(g)
    buf = io.StringIO()
    dump_field(g, buf)
    buf.seek(0)
    dims, arr = load_field(buf)
    assert dims == d
    assert np.array_equal(arr, g.current)


def test_dump_compressed_logical_view():
    d = GridDims(3, 3, 3)
    g = allocate(d, "compressed", FillPattern.linear(), slack=2)
    buf = io.StringIO()
    dump_field(g, buf)
    buf.seek(0)
    dims, arr = load_field(buf)
    assert dims.ghost == 1
    assert arr[1, 1, 1] == 0.0
    assert arr[3, 3, 3] == 6.0


def test_unknown_storage_mode():
    with pytest.raises(GridError):
        allocate(GridDims(2, 2, 2), "tape", FillPattern.linear())
