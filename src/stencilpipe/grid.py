"""3D scalar fields with ghost shells.

Two storage modes:

* ``TwoGrid`` -- classic ping-pong pair of arrays, one holding the current
  time level and one receiving the next.
* ``CompressedGrid`` -- a single array where every update lands at a
  diagonal offset from its read position, so only one grid plus some slack
  layers is needed.

Arrays are C-ordered with axes (z, y, x), i.e. x is the contiguous
direction.  Logical coordinates are zero-based interior indices; ghost
cells sit at negative indices and at indices >= the interior extent.
The public API uses (i, j, k) = (x, y, z); internal lo/hi vectors follow
the array axis order (z, y, x).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class GridError(ValueError):
    """Invalid grid geometry or storage request."""


@dataclass(frozen=True)
class GridDims:
    nx: int
    ny: int
    nz: int
    ghost: int = 1

    def __post_init__(self):
        if min(self.nx, self.ny, self.nz) < 1:
            raise GridError(f"interior extents must be >= 1, got "
                            f"{(self.nx, self.ny, self.nz)}")
        if self.ghost < 1:
            raise GridError(f"ghost width must be >= 1, got {self.ghost}")

    @property
    def shape(self) -> tuple[int, int, int]:
        """Interior extents in array axis order (z, y, x)."""
        return (self.nz, self.ny, self.nx)

    @property
    def alloc_shape(self) -> tuple[int, int, int]:
        g = self.ghost
        return tuple(n + 2 * g for n in self.shape)


# Splitmix64-style finalizer constants for the coordinate-hash pattern.
_H1 = np.uint64(0x9E3779B97F4A7C15)
_H2 = np.uint64(0xBF58476D1CE4E5B9)
_H3 = np.uint64(0x94D049BB133111EB)


def _mix64(h: np.ndarray) -> np.ndarray:
    h = (h ^ (h >> np.uint64(30))) * _H2
    h = (h ^ (h >> np.uint64(27))) * _H3
    return h ^ (h >> np.uint64(31))


@dataclass(frozen=True)
class FillPattern:
    """Initial-value field, evaluable over any logical index box.

    Ghost indices evaluate too, which is what freezes the Dirichlet
    boundary values: the boundary is simply the pattern restricted to the
    ghost shell.  ``random`` hashes global coordinates, so subdomains of a
    decomposed run see exactly the same values as the undecomposed grid.
    """

    kind: str
    value: float = 0.0
    seed: int = 0

    @classmethod
    def constant(cls, v: float) -> "FillPattern":
        return cls("constant", value=float(v))

    @classmethod
    def linear(cls) -> "FillPattern":
        return cls("linear")

    @classmethod
    def hotplate(cls) -> "FillPattern":
        return cls("hotplate")

    @classmethod
    def random(cls, seed: int) -> "FillPattern":
        return cls("random", seed=int(seed))

    def evaluate(self, lo, hi) -> np.ndarray:
        """Values over the logical box [lo, hi) given in (z, y, x) order."""
        shape = tuple(int(h - l) for l, h in zip(lo, hi))
        if self.kind == "constant":
            return np.full(shape, self.value, dtype=np.float64)
        z = np.arange(lo[0], hi[0], dtype=np.int64).reshape(-1, 1, 1)
        y = np.arange(lo[1], hi[1], dtype=np.int64).reshape(1, -1, 1)
        x = np.arange(lo[2], hi[2], dtype=np.int64).reshape(1, 1, -1)
        if self.kind == "linear":
            return (z + y + x).astype(np.float64) + np.zeros(shape)
        if self.kind == "hotplate":
            # Hot face is the low-x ghost plane; everything else is cold.
            return np.where(x < 0, 1.0, 0.0) + np.zeros(shape)
        if self.kind == "random":
            with np.errstate(over="ignore"):
                h = (z.astype(np.uint64) * _H1
                     ^ y.astype(np.uint64) * _H2
                     ^ x.astype(np.uint64) * _H3)
                h = h + np.uint64(self.seed & 0xFFFFFFFFFFFFFFFF)
                h = _mix64(_mix64(h))
            return (h >> np.uint64(11)).astype(np.float64) * 2.0 ** -53 \
                + np.zeros(shape)
        raise GridError(f"unknown fill pattern {self.kind!r}")

    def fill(self, out: np.ndarray, lo) -> None:
        """Write the values over the logical box at ``lo`` with ``out``'s
        shape into the float64 view ``out``.

        Under the ``c`` backend ``random`` is one call of the compiled
        ``fill_random``, which releases the interpreter lock; every other
        case writes :meth:`evaluate` in eighths of z, which bounds its
        temporaries.
        """
        # Looked up per call: kernel imports this module.
        from . import kernel

        fn = kernel._c_fill
        if out.dtype != np.float64 or out.ndim != 3 or not out.flags.writeable:
            raise GridError("a fill needs a writeable 3-D float64 view")
        if self.kind == "random" and fn is not None:
            fn(out.ctypes.data, *out.shape, *(s // 8 for s in out.strides),
               *lo, self.seed & 0xFFFFFFFFFFFFFFFF)
            return
        nz = out.shape[0]
        step = -(-nz // 8)
        for z in range(0, nz, step):
            e = min(z + step, nz)
            out[z:e] = self.evaluate(
                (lo[0] + z, *lo[1:]),
                (lo[0] + e, *(l + n for l, n in zip(lo[1:], out.shape[1:]))))


class TwoGrid:
    """Ping-pong pair of arrays; ``active`` selects the current level.

    ``a`` and ``b`` share one buffer: ``b`` starts at least a page past
    ``a``'s end, an odd number of 64-byte lines from ``a``'s start, so
    their distance is never a large power of two that aliases in caches.
    """

    storage = "twogrid"

    def __init__(self, dims: GridDims, pattern: FillPattern):
        self.dims = dims
        g = dims.ghost
        shape = dims.alloc_shape
        size = shape[0] * shape[1] * shape[2]
        # In lines of 8 doubles: a, then a page, rounded up to odd.
        start = 8 * ((-(-size // 8) + 64) | 1)
        buf = np.empty(start + size)
        self.a = buf[:size].reshape(shape)
        self.b = buf[start:].reshape(shape)
        pattern.fill(self.a, (-g,) * 3)
        self.b[...] = self.a
        self.active = 0

    @property
    def current(self) -> np.ndarray:
        return self.a if self.active == 0 else self.b

    @property
    def other(self) -> np.ndarray:
        return self.b if self.active == 0 else self.a

    def swap(self) -> None:
        self.active ^= 1

    def interior(self) -> np.ndarray:
        g = self.dims.ghost
        return self.current[tuple(slice(g, g + n) for n in self.dims.shape)]

    def full_view(self) -> np.ndarray:
        return self.current

    def value_at(self, i: int, j: int, k: int) -> float:
        g = self.dims.ghost
        _check_index(self.dims, i, j, k, g)
        return float(self.current[k + g, j + g, i + g])


class CompressedGrid:
    """Single array; the logical box lives at ``offset`` within the slack.

    Every update writes one layer diagonally off its read position, so a
    node sweep of U updates shifts the origin by -U while the offset is at
    least U, else by +U.  ``slack`` must cover one full node sweep.
    """

    storage = "compressed"

    def __init__(self, dims: GridDims, pattern: FillPattern, slack: int):
        if dims.ghost != 1:
            raise GridError("compressed storage uses a one-layer ghost shell")
        if slack < 0:
            raise GridError(f"slack must be >= 0, got {slack}")
        extents = tuple(n + 2 + slack for n in dims.shape)
        if max(extents) ** 3 > np.iinfo(np.int64).max // 8:
            raise GridError("compressed allocation overflows address arithmetic")
        self.dims = dims
        self.slack = slack
        self.offset = slack
        self.data = np.zeros(extents, dtype=np.float64)
        box = self.full_view()
        pattern.fill(box, (-1, -1, -1))
        # Dirichlet ghost faces (low, high) per array axis, each one layer
        # thick along its axis; ``restore_ghosts`` copies from these.
        self.faces = [(np.take(box, [0], axis=d), np.take(box, [-1], axis=d))
                      for d in range(3)]

    def restore_ghosts(self, lo, hi, o: int) -> None:
        """Rewrite the Dirichlet ghost faces next to [lo, hi) of the logical
        box at offset ``o``.  The ghost ring travels with the origin, so a
        level update that touches the domain edge needs them restored first.
        """
        view = self.data[o:, o:, o:]
        box = [slice(l + 1, h + 1) for l, h in zip(lo, hi)]
        for d, n in enumerate(self.dims.shape):
            for face, at, touches in ((self.faces[d][0], 0, lo[d] == 0),
                                      (self.faces[d][1], n + 1, hi[d] == n)):
                if touches:
                    dst, src = box.copy(), box.copy()
                    dst[d], src[d] = slice(at, at + 1), slice(0, 1)
                    view[tuple(dst)] = face[tuple(src)]

    def shift_origin(self, delta: int) -> None:
        new = self.offset + delta
        if not 0 <= new <= self.slack:
            raise GridError(f"origin offset {new} escapes slack [0, {self.slack}]")
        self.offset = new

    def interior(self) -> np.ndarray:
        o = self.offset
        return self.data[tuple(slice(o + 1, o + 1 + n) for n in self.dims.shape)]

    def full_view(self) -> np.ndarray:
        o = self.offset
        return self.data[tuple(slice(o, o + n + 2) for n in self.dims.shape)]

    def value_at(self, i: int, j: int, k: int) -> float:
        _check_index(self.dims, i, j, k, 1)
        o = self.offset
        return float(self.data[k + 1 + o, j + 1 + o, i + 1 + o])


def _check_index(dims: GridDims, i: int, j: int, k: int, g: int) -> None:
    for idx, n in zip((i, j, k), (dims.nx, dims.ny, dims.nz)):
        if not -g <= idx < n + g:
            raise IndexError(f"index {(i, j, k)} outside interior+ghost range")


def allocate(dims: GridDims, mode: str, pattern: FillPattern, slack: int = 0):
    """Allocate and initialize a grid; ``mode`` is 'twogrid' or 'compressed'."""
    if mode == "twogrid":
        return TwoGrid(dims, pattern)
    if mode == "compressed":
        return CompressedGrid(dims, pattern, slack)
    raise GridError(f"unknown storage mode {mode!r}")


# Faces map to (array axis, high side?).
_FACES = {
    "-x": (2, False), "+x": (2, True),
    "-y": (1, False), "+y": (1, True),
    "-z": (0, False), "+z": (0, True),
}


def _slab(grid: TwoGrid, face: str, depth: int, ext, ghost: bool) -> np.ndarray:
    """View of the ``depth`` layers next to ``face``: the interior layers
    inside it, or with ``ghost`` the ghost layers beyond it.  ``ext`` widens
    the slab into the ghost shell per tangential axis, in array order."""
    axis, high = _FACES[face]
    g = grid.dims.ghost
    if not 1 <= depth <= g:
        raise GridError(f"depth {depth} exceeds ghost width {g}")
    sl = [None, None, None]
    for d, n in enumerate(grid.dims.shape):
        el, eh = (0, 0) if ext is None or d == axis else ext[d]
        if el > g or eh > g:
            raise GridError("tangential extension exceeds ghost width")
        sl[d] = slice(g - el, g + n + eh)
    # The face plane sits at g (low) or g + n (high); the high interior
    # layers and the low ghost layers lie below it.
    at = g + grid.dims.shape[axis] if high else g
    start = at - depth if high != ghost else at
    sl[axis] = slice(start, start + depth)
    return grid.current[tuple(sl)]


def extract_layers(grid: TwoGrid, face: str, depth: int, ext=None) -> np.ndarray:
    """Pack ``depth`` interior layers adjacent to ``face`` into a flat buffer.

    ``ext`` optionally widens the slab into the ghost shell per tangential
    axis, given as ((zlo, zhi), (ylo, yhi), (xlo, xhi)); the face axis entry
    is ignored.  Layout is row-major with x fastest.
    """
    return np.ascontiguousarray(_slab(grid, face, depth, ext, False)).ravel()


def inject_layers(grid: TwoGrid, face: str, depth: int, buf: np.ndarray,
                  ext=None) -> None:
    """Unpack a buffer from :func:`extract_layers` into the ghost slab at ``face``."""
    target = _slab(grid, face, depth, ext, True)
    if buf.size != target.size:
        raise GridError(f"buffer size {buf.size} != slab size {target.size}")
    target[...] = buf.reshape(target.shape)


def dump_field(grid, fh) -> None:
    """Text dump: header ``nx ny nz ghost`` then values, x fastest, one per line.

    %.17g round-trips doubles exactly.  Compressed grids dump their logical
    interior-plus-one-ghost box resolved through the origin offset.
    """
    d = grid.dims
    ghost = 1 if grid.storage == "compressed" else d.ghost
    fh.write(f"{d.nx} {d.ny} {d.nz} {ghost}\n")
    for v in grid.full_view().ravel():
        fh.write("%.17g\n" % v)

