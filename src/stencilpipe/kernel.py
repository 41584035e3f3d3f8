"""The Jacobi region update and the serial sweep variants.

``update_region`` is the one entry point that evaluates the stencil over a
box.  It runs a compiled C function when one loads (``BACKEND == "c"``) and
the numpy body otherwise (``BACKEND == "numpy"``).  The C source below is
compiled at import with the system ``gcc`` (``-O3 -ffp-contract=off``, no
fast-math) and cached as ``stencilpipe/region-<hash>.so`` under
``$XDG_CACHE_HOME``, or ``~/.cache`` when that is unset; the hash covers the
source and the flags.  When the cache directory cannot be used safely the
library is built in a private temporary directory for this process only.
Any failure to build or load leaves the numpy backend in place.  ``ctypes``
releases the interpreter lock for the call, so pipeline threads overlap
their block updates.

A compressed level passes two overlapping views of one array.  The C loop
follows the ``memmove`` rule: it runs forward when ``dst <= src`` and in
reverse on all three axes otherwise, so every cell is read before the
write that lands on it; the numpy body builds its right-hand side before
it writes.

``sweep_naive`` calls the numpy body directly: it is the correctness oracle
for every other engine in the package, whatever the backend.
``sweep_spatial_blocked`` is one node sweep of a one-thread, one-level
pipeline.  All variants share one per-cell summation order, ((x-)+(x+))
+ ((y-)+(y+)) + ((z-)+(z+)) then * 1/6, so results agree bitwise whenever
only the traversal order differs.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import tempfile

import numpy as np

from .grid import GridError, TwoGrid

ONE_SIXTH = 1.0 / 6.0

_SOURCE = r"""
#include <stddef.h>
#include <stdint.h>

/* dst = stencil(src) over nz*ny*nx cells, the first at element off of both
   views, whose z and y strides are sz and sy elements. */
void update_region(const double *src, double *dst, ptrdiff_t off,
                   ptrdiff_t nz, ptrdiff_t ny, ptrdiff_t nx,
                   ptrdiff_t sz, ptrdiff_t sy)
{
    const double sixth = 1.0 / 6.0;
    src += off;
    dst += off;
    if ((uintptr_t)dst <= (uintptr_t)src) {
        for (ptrdiff_t z = 0; z < nz; z++)
            for (ptrdiff_t y = 0; y < ny; y++) {
                const double *c = src + z * sz + y * sy;
                double *d = dst + z * sz + y * sy;
                for (ptrdiff_t x = 0; x < nx; x++)
                    d[x] = ((c[x - 1] + c[x + 1]) + (c[x - sy] + c[x + sy])
                            + (c[x - sz] + c[x + sz])) * sixth;
            }
    } else {
        for (ptrdiff_t z = nz - 1; z >= 0; z--)
            for (ptrdiff_t y = ny - 1; y >= 0; y--) {
                const double *c = src + z * sz + y * sy;
                double *d = dst + z * sz + y * sy;
                for (ptrdiff_t x = nx - 1; x >= 0; x--)
                    d[x] = ((c[x - 1] + c[x + 1]) + (c[x - sy] + c[x + sy])
                            + (c[x - sz] + c[x + sz])) * sixth;
            }
    }
}
"""

_CFLAGS = ("-O3", "-ffp-contract=off", "-fPIC", "-shared")
_COMPILE_TIMEOUT = 60.0   # seconds


def _cache_dir() -> str | None:
    """The per-user cache directory, or None when it is not ours alone."""
    root = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(root):
        root = os.path.join(os.path.expanduser("~"), ".cache")
    path = os.path.join(root, "stencilpipe")
    try:
        os.makedirs(path, mode=0o700, exist_ok=True)
        st = os.stat(path)
    except OSError:
        return None
    if (st.st_uid != os.getuid() or st.st_mode & 0o022
            or not os.access(path, os.W_OK | os.X_OK)):
        return None
    return path


def _compile(directory: str, name: str) -> str:
    """Build the library into ``directory`` under a temporary name and
    rename it to ``name``, so a reader never sees a partial file."""
    fd, tmp = tempfile.mkstemp(prefix=f".{name}.", suffix=".tmp",
                               dir=directory)
    os.close(fd)
    try:
        subprocess.run(["gcc", *_CFLAGS, "-x", "c", "-", "-o", tmp],
                       input=_SOURCE, text=True, capture_output=True,
                       timeout=_COMPILE_TIMEOUT, check=True)
        path = os.path.join(directory, name)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
    return path


def _load():
    """The compiled region function, or None when it cannot be built or
    loaded."""
    digest = hashlib.sha256("\0".join((_SOURCE, *_CFLAGS)).encode())
    name = f"region-{digest.hexdigest()[:24]}.so"
    try:
        directory = _cache_dir()
        if directory is not None:
            path = os.path.join(directory, name)
            if not os.path.exists(path):
                path = _compile(directory, name)
            lib = ctypes.CDLL(path)
        else:
            # The mapping outlives the file, so the directory can go.
            with tempfile.TemporaryDirectory(prefix="stencilpipe-") as tmp:
                lib = ctypes.CDLL(_compile(tmp, name))
    except (OSError, subprocess.SubprocessError):
        return None
    fn = lib.update_region
    fn.argtypes = [ctypes.c_void_p, ctypes.c_void_p] + [ctypes.c_ssize_t] * 6
    fn.restype = None
    return fn


_c_update = _load()
BACKEND = "numpy" if _c_update is None else "c"


def _sh(s: slice, d: int) -> slice:
    return slice(s.start + d, s.stop + d)


def _update_region_numpy(src: np.ndarray, dst: np.ndarray, ghost: int,
                         lo, hi) -> None:
    """The numpy body: the right-hand side is built before it is written."""
    cz, cy, cx = center = tuple(slice(l + ghost, h + ghost)
                                for l, h in zip(lo, hi))
    dst[center] = (
        (src[cz, cy, _sh(cx, -1)] + src[cz, cy, _sh(cx, 1)])
        + (src[cz, _sh(cy, -1), cx] + src[cz, _sh(cy, 1), cx])
        + (src[_sh(cz, -1), cy, cx] + src[_sh(cz, 1), cy, cx])
    ) * ONE_SIXTH


def _check_region(src: np.ndarray, dst: np.ndarray, ghost: int, lo, hi) -> None:
    if src.dtype != np.float64 or dst.dtype != np.float64:
        raise GridError("region update needs float64 arrays")
    if src.strides != dst.strides or src.ndim != 3 or src.strides[2] != 8:
        raise GridError(f"region update needs equal strides with unit x "
                        f"stride, got {src.strides} and {dst.strides}")
    if not dst.flags.writeable:
        raise GridError("region update destination is read-only")
    for l, h, ns, nd in zip(lo, hi, src.shape, dst.shape):
        if l + ghost < 1 or h + ghost + 1 > min(ns, nd):
            raise GridError(f"box {tuple(lo)}..{tuple(hi)} with ghost {ghost} "
                            f"and its stencil neighbours leave arrays of "
                            f"shape {src.shape} and {dst.shape}")


def update_region(src: np.ndarray, dst: np.ndarray, ghost: int, lo, hi) -> None:
    """dst[region] = stencil(src) for the logical box [lo, hi) in (z,y,x) order.

    An empty box is a no-op.  Otherwise the arrays must hold float64 with
    equal strides and unit x stride, and the box plus its one-cell
    neighbourhood must lie inside both; a violation raises
    :class:`GridError` before anything is written.
    """
    nz, ny, nx = (h - l for l, h in zip(lo, hi))
    if min(nz, ny, nx) <= 0:
        return
    _check_region(src, dst, ghost, lo, hi)
    fn = _c_update
    if fn is None:
        _update_region_numpy(src, dst, ghost, lo, hi)
        return
    sz, sy = src.strides[0] // 8, src.strides[1] // 8
    off = (lo[0] + ghost) * sz + (lo[1] + ghost) * sy + lo[2] + ghost
    fn(src.ctypes.data, dst.ctypes.data, off, nz, ny, nx, sz, sy)


def sweep_naive(grid: TwoGrid) -> None:
    """One full Jacobi sweep: non-current <- stencil(current), then swap.

    Always the numpy body: the oracle does not depend on the backend.
    """
    d = grid.dims
    _update_region_numpy(grid.current, grid.other, d.ghost, (0, 0, 0), d.shape)
    grid.swap()


def sweep_spatial_blocked(grid: TwoGrid, bs: tuple[int, int, int]) -> None:
    """Spatially blocked sweep; block size given as (bx, by, bz).

    Runs one node sweep of a one-thread pipeline with T=1, which visits the
    blocks z outer, y middle, x inner.  Bitwise equal to ``sweep_naive``
    because the per-cell arithmetic is unchanged.
    """
    # Imported here because pipeline imports this module.
    from .pipeline import PipelineConfig, run_node_sweeps

    d = grid.dims
    for b, n in zip(bs, (d.nx, d.ny, d.nz)):
        if not 1 <= b <= n:
            raise GridError(f"block size {bs} outside interior extents")
    run_node_sweeps(grid, PipelineConfig(updates_per_thread=1, block=bs), 1)
