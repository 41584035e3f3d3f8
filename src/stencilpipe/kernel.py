"""The Jacobi region update and the serial sweep variants.

``update_region`` is the one function that evaluates the stencil; a
compressed level passes it two overlapping views of one array, which is
safe because the right-hand side is materialized first.  ``sweep_naive``
is the correctness oracle for every other engine in the package;
``sweep_spatial_blocked`` is one node sweep of a one-thread, one-level
pipeline.  All variants share one per-cell summation order, ((x-)+(x+))
+ ((y-)+(y+)) + ((z-)+(z+)) then * 1/6, so results agree bitwise whenever
only the traversal order differs.
"""

from __future__ import annotations

import numpy as np

from .grid import GridError, TwoGrid

ONE_SIXTH = 1.0 / 6.0


def _sh(s: slice, d: int) -> slice:
    return slice(s.start + d, s.stop + d)


def stencil_region(src: np.ndarray, center) -> np.ndarray:
    """Evaluate the stencil for every cell addressed by ``center`` slices."""
    cz, cy, cx = center
    return (
        (src[cz, cy, _sh(cx, -1)] + src[cz, cy, _sh(cx, 1)])
        + (src[cz, _sh(cy, -1), cx] + src[cz, _sh(cy, 1), cx])
        + (src[_sh(cz, -1), cy, cx] + src[_sh(cz, 1), cy, cx])
    ) * ONE_SIXTH


def update_region(src: np.ndarray, dst: np.ndarray, ghost: int, lo, hi) -> None:
    """dst[region] = stencil(src) for the logical box [lo, hi) in (z,y,x) order."""
    center = tuple(slice(l + ghost, h + ghost) for l, h in zip(lo, hi))
    dst[center] = stencil_region(src, center)


def sweep_naive(grid: TwoGrid) -> None:
    """One full Jacobi sweep: non-current <- stencil(current), then swap."""
    d = grid.dims
    update_region(grid.current, grid.other, d.ghost, (0, 0, 0), d.shape)
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
