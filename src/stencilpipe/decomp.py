"""Domain decomposition with multi-layer halo exchange.

Each rank owns a disjoint box of the global interior and keeps a ghost
shell of depth h = n*t*T.  One outer step exchanges all h layers per
direction and then applies h local time levels, where level s updates a
region h-s layers larger than the interior on every side that has a
neighbor, so the interior ends exactly h global sweeps ahead.

Halos travel consecutively along x, then y, then z; the y and z slabs
include the ghost extensions of the directions already exchanged, which
delivers edge and corner data transitively without diagonal messages.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import FillPattern, GridDims, TwoGrid, extract_layers, inject_layers
from .pipeline import PipelineConfig, run_node_sweeps
# Not called here: perfbench/tracer.py patches decomp.update_region, so the
# name stays bound.
from .kernel import update_region  # noqa: F401
from .transport import Endpoint, MessageHeader, PHASE_CODES, spawn_world


class DecompositionError(ValueError):
    """Layout incompatible with the grid or the halo width."""


def _split(extent: int, parts: int) -> list[tuple[int, int]]:
    """Near-equal 1D split; remainder cells go to low-coordinate ranks."""
    base, rem = divmod(extent, parts)
    ranges = []
    start = 0
    for p in range(parts):
        size = base + (1 if p < rem else 0)
        ranges.append((start, start + size))
        start += size
    return ranges


@dataclass(frozen=True)
class Decomposition:
    global_dims: GridDims
    layout: tuple[int, int, int]          # (px, py, pz)
    halo: int

    def __post_init__(self):
        px, py, pz = self.layout
        if min(px, py, pz) < 1:
            raise DecompositionError(f"bad layout {self.layout}")
        if self.halo < 1:
            raise DecompositionError(f"halo width must be >= 1, got {self.halo}")
        for p, n, name in ((px, self.global_dims.nx, "x"),
                           (py, self.global_dims.ny, "y"),
                           (pz, self.global_dims.nz, "z")):
            if p > 1 and n // p < self.halo:
                raise DecompositionError(
                    f"{name}-split gives ranks only {n // p} cells, "
                    f"below the halo width {self.halo}")

    @property
    def n_ranks(self) -> int:
        px, py, pz = self.layout
        return px * py * pz

    def coords(self, rank: int) -> tuple[int, int, int]:
        """(cx, cy, cz) for a rank; x varies fastest."""
        px, py, _ = self.layout
        return (rank % px, (rank // px) % py, rank // (px * py))

    def rank_of(self, cx: int, cy: int, cz: int) -> int:
        px, py, _ = self.layout
        return (cz * py + cy) * px + cx

    def ranges(self, rank: int):
        """Owned global index ranges in array axis order (z, y, x)."""
        cx, cy, cz = self.coords(rank)
        d = self.global_dims
        return (_split(d.nz, self.layout[2])[cz],
                _split(d.ny, self.layout[1])[cy],
                _split(d.nx, self.layout[0])[cx])

    def neighbor(self, rank: int, array_axis: int, high: bool) -> int | None:
        """Neighbor rank across a face, or None at a physical boundary."""
        cx, cy, cz = self.coords(rank)
        c = [cz, cy, cx]  # array axis order
        p = [self.layout[2], self.layout[1], self.layout[0]]
        c[array_axis] += 1 if high else -1
        if not 0 <= c[array_axis] < p[array_axis]:
            return None
        return self.rank_of(c[2], c[1], c[0])

    def local_dims(self, rank: int) -> GridDims:
        (z0, z1), (y0, y1), (x0, x1) = self.ranges(rank)
        return GridDims(x1 - x0, y1 - y0, z1 - z0, ghost=self.halo)


def decompose(global_dims: GridDims, ranks: int, layout: tuple[int, int, int],
              halo: int) -> Decomposition:
    px, py, pz = layout
    if px * py * pz != ranks:
        raise DecompositionError(f"layout {layout} does not factor {ranks} ranks")
    return Decomposition(global_dims, layout, halo)


class _ShiftedPattern:
    """Pattern evaluated in global coordinates for a subdomain origin."""

    def __init__(self, pattern: FillPattern, origin):
        self._pattern = pattern
        self._origin = tuple(origin)  # (z, y, x)

    def evaluate(self, lo, hi) -> np.ndarray:
        glo = tuple(l + o for l, o in zip(lo, self._origin))
        ghi = tuple(h + o for h, o in zip(hi, self._origin))
        return self._pattern.evaluate(glo, ghi)


def local_grid(decomp: Decomposition, rank: int, pattern: FillPattern) -> TwoGrid:
    origin = tuple(r[0] for r in decomp.ranges(rank))
    return TwoGrid(decomp.local_dims(rank), _ShiftedPattern(pattern, origin))


# Phases in canonical exchange order with their array axes.
_PHASES = (("x", 2), ("y", 1), ("z", 0))
_FACE = {2: ("-x", "+x"), 1: ("-y", "+y"), 0: ("-z", "+z")}


@dataclass(frozen=True)
class HaloPhase:
    name: str
    axis: int                       # array axis
    ext: tuple                      # tangential ghost extensions, array order


def build_halo_plan(halo: int) -> list[HaloPhase]:
    """Fixed slab geometry: each phase's slab includes the ghost
    extensions of the canonically earlier directions."""
    plan = []
    done: set[int] = set()
    for name, axis in _PHASES:
        ext = tuple((halo, halo) if d in done else (0, 0) for d in range(3))
        plan.append(HaloPhase(name, axis, ext))
        done.add(axis)
    return plan


def exchange_halos(grid: TwoGrid, decomp: Decomposition, rank: int,
                   endpoint: Endpoint, sweep: int,
                   order: tuple[str, ...] = ("x", "y", "z")) -> None:
    """One exchange round: all ghost shells of depth h filled from neighbors.

    ``order`` exists so tests can demonstrate that corner delivery depends
    on executing the canonical x -> y -> z sequence; the slab geometry
    itself stays fixed.
    """
    h = decomp.halo
    plan = {p.name: p for p in build_halo_plan(h)}
    for name in order:
        phase = plan[name]
        lo_face, hi_face = _FACE[phase.axis]
        low = decomp.neighbor(rank, phase.axis, high=False)
        high = decomp.neighbor(rank, phase.axis, high=True)
        code = PHASE_CODES[name]
        if low is not None:
            buf = extract_layers(grid, lo_face, h, phase.ext)
            endpoint.send(low, MessageHeader(sweep, code, 0, h, 8 * buf.size), buf)
        if high is not None:
            buf = extract_layers(grid, hi_face, h, phase.ext)
            endpoint.send(high, MessageHeader(sweep, code, 1, h, 8 * buf.size), buf)
        if low is not None:
            expect = MessageHeader(sweep, code, 1, h,
                                   8 * _slab_cells(grid.dims, phase, h))
            inject_layers(grid, lo_face, h, endpoint.recv(low, expect), phase.ext)
        if high is not None:
            expect = MessageHeader(sweep, code, 0, h,
                                   8 * _slab_cells(grid.dims, phase, h))
            inject_layers(grid, hi_face, h, endpoint.recv(high, expect), phase.ext)


def _slab_cells(dims: GridDims, phase: HaloPhase, h: int) -> int:
    cells = h
    for d in range(3):
        if d == phase.axis:
            continue
        el, eh = phase.ext[d]
        cells *= dims.shape[d] + el + eh
    return cells


def level_domains_for_rank(decomp: Decomposition, rank: int,
                           h: int) -> list[tuple[tuple, tuple]]:
    """Shrinking extended domains: level s reaches h-s layers into the
    ghost shell on every side with a neighbor, clamped at physical walls."""
    shape = decomp.local_dims(rank).shape
    has_low = [decomp.neighbor(rank, d, high=False) is not None for d in range(3)]
    has_high = [decomp.neighbor(rank, d, high=True) is not None for d in range(3)]
    domains = []
    for s in range(1, h + 1):
        m = h - s
        lo = tuple(-m if has_low[d] else 0 for d in range(3))
        hi = tuple(shape[d] + (m if has_high[d] else 0) for d in range(3))
        domains.append((lo, hi))
    return domains


def outer_step(grid: TwoGrid, decomp: Decomposition, rank: int,
               cfg: PipelineConfig) -> None:
    """Apply h = ``decomp.halo`` local time levels between exchanges.

    The per-level extended domains become the node-sweep domains of the
    pipeline ``cfg``, which must apply U = h levels.  A serial step is
    ``PipelineConfig(updates_per_thread=h)``: one thread running one block.
    """
    h = decomp.halo
    if cfg.storage != "twogrid":
        raise DecompositionError("distributed runs use two-grid storage")
    if cfg.levels_per_sweep != h:
        raise DecompositionError(
            f"pipeline applies U={cfg.levels_per_sweep} levels, halo is {h}")
    run_node_sweeps(grid, cfg, 1,
                    level_domains=level_domains_for_rank(decomp, rank, h))


def run_distributed(global_dims: GridDims, pattern: FillPattern,
                    layout: tuple[int, int, int], cfg: PipelineConfig,
                    outer_steps: int,
                    order: tuple[str, ...] = ("x", "y", "z")):
    """Loopback multi-rank run; returns (gathered global field, rank fields).

    Every outer step exchanges halos of width h = ``cfg.levels_per_sweep``
    and runs one node sweep of ``cfg`` on each rank, so the gathered
    interior equals outer_steps * h naive sweeps of the undecomposed
    problem (within the package's relative tolerance).
    """
    h = cfg.levels_per_sweep
    px, py, pz = layout
    decomp = decompose(global_dims, px * py * pz, layout, h)

    def program(rank: int, endpoint: Endpoint) -> np.ndarray:
        grid = local_grid(decomp, rank, pattern)
        for step in range(outer_steps):
            exchange_halos(grid, decomp, rank, endpoint, step, order)
            outer_step(grid, decomp, rank, cfg)
        return grid.interior().copy()

    rank_fields = spawn_world(decomp.n_ranks, program)
    gathered = np.empty(global_dims.shape, dtype=np.float64)
    for rank, field in enumerate(rank_fields):
        sl = tuple(slice(lo, hi) for lo, hi in decomp.ranges(rank))
        gathered[sl] = field
    return gathered, rank_fields
