"""Oracle runs and field comparison shared by all engines and tests."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import FillPattern, GridDims, TwoGrid
from .kernel import sweep_naive


def oracle(dims: GridDims, pattern: FillPattern, levels: int) -> TwoGrid:
    """``levels`` naive sweeps from the given initial pattern."""
    grid = TwoGrid(dims, pattern)
    for _ in range(levels):
        sweep_naive(grid)
    return grid


@dataclass(frozen=True)
class Comparison:
    bitwise: bool
    max_abs: float
    location: tuple[int, int, int]   # of the largest differing value

    @property
    def passed(self) -> bool:
        return self.bitwise

    def __str__(self):
        if self.bitwise:
            return "PASS (bitwise)"
        return f"FAIL at {self.location} (max_abs={self.max_abs:.3e})"


def _as_array(field) -> np.ndarray:
    if isinstance(field, np.ndarray):
        return field
    return field.interior()


def compare(a, b) -> Comparison:
    """Bitwise comparison of two equal-extent fields; the largest absolute
    difference among differing values and its location are diagnostics."""
    av = _as_array(a)
    bv = _as_array(b)
    if av.shape != bv.shape:
        raise ValueError(f"extent mismatch {av.shape} vs {bv.shape}")
    differs = av.view(np.uint64) != bv.view(np.uint64)
    diff = np.abs(av - bv)
    flat = int(np.argmax(np.where(differs, diff, -1.0)))
    loc = tuple(int(c) for c in np.unravel_index(flat, diff.shape))
    return Comparison(bitwise=not differs.any(), max_abs=float(diff[loc]),
                      location=loc)


def check_maximum_principle(before: np.ndarray, after: np.ndarray,
                            ghost_shell: np.ndarray | None = None) -> bool:
    """Updated interior values must lie within the previous level's range
    (interior plus boundary shell)."""
    lo = float(before.min())
    hi = float(before.max())
    if ghost_shell is not None:
        lo = min(lo, float(ghost_shell.min()))
        hi = max(hi, float(ghost_shell.max()))
    return bool(after.min() >= lo and after.max() <= hi)
