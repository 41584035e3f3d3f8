"""Jacobi region updates and the serial sweep variants.

``sweep_naive`` is the correctness oracle for every other engine in the
package; ``sweep_spatial_blocked`` is one node sweep of a one-thread,
one-level pipeline.  All variants share one per-cell summation order,
((x-)+(x+)) + ((y-)+(y+)) + ((z-)+(z+)) then * 1/6, so results agree
bitwise whenever only the traversal order differs.
"""

from __future__ import annotations

import numpy as np

from .grid import CompressedGrid, GridError, TwoGrid

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


def _refresh_compressed_ghosts(grid: CompressedGrid, lo, hi, o_read: int) -> None:
    """Rewrite Dirichlet ghost faces adjacent to [lo, hi) at the read level.

    The ghost ring travels with the shifting origin, and a given array cell
    serves different logical boundary cells at different levels, so the
    boundary values must be restored right before each block update that
    touches the domain edge.  They are copied from the faces the grid
    cached at allocation.
    """
    n = grid.dims.shape
    base = o_read + 1
    for d in range(3):
        low, high = grid.faces[d]
        for face, boundary, touches in ((low, -1, lo[d] == 0),
                                        (high, n[d], hi[d] == n[d])):
            if not touches:
                continue
            src = [slice(l + 1, h + 1) for l, h in zip(lo, hi)]
            dst = [slice(l + base, h + base) for l, h in zip(lo, hi)]
            src[d] = slice(0, 1)
            dst[d] = slice(boundary + base, boundary + base + 1)
            grid.data[tuple(dst)] = face[tuple(src)]


def update_region_compressed(grid: CompressedGrid, lo, hi, o_read: int,
                             direction: int) -> None:
    """One time level over [lo, hi), reading at offset ``o_read`` and writing
    one layer off in ``direction`` (-1 on odd node sweeps, +1 on even ones).

    The right-hand side is materialized before assignment, which matches the
    sequential monotone-traversal semantics (forward with shift -1, reverse
    with shift +1): no cell that a later update reads is overwritten early.
    """
    if direction not in (-1, 1):
        raise GridError(f"direction must be -1 or +1, got {direction}")
    _refresh_compressed_ghosts(grid, lo, hi, o_read)
    base = o_read + 1
    center = tuple(slice(l + base, h + base) for l, h in zip(lo, hi))
    dst = tuple(slice(l + base + direction, h + base + direction)
                for l, h in zip(lo, hi))
    grid.data[dst] = stencil_region(grid.data, center)
