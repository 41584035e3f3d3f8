"""Domain decomposition with multi-layer halo exchange.

Each rank owns a disjoint box of the global interior and keeps a ghost
shell of depth h = n*t*T.  One outer step exchanges all h layers per
direction and then applies h local time levels, where level s updates a
region h-s layers larger than the interior on every side that has a
neighbor, so the interior ends exactly h global sweeps ahead.

Halos travel consecutively along x, then y, then z.  The phase on array
axis a (z=0, y=1, x=2) extends its slab by (h, h) ghost layers on every
array axis d > a and by (0, 0) elsewhere, so the y slab spans the x ghosts
and the z slab the x and y ghosts.  That delivers edge and corner data
transitively without diagonal messages.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace

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
    """Hashable, so per-rank geometry can be memoized on it; a list
    ``layout`` is stored as a tuple."""

    global_dims: GridDims
    layout: tuple[int, int, int]          # (px, py, pz)
    halo: int

    def __post_init__(self):
        object.__setattr__(self, "layout", tuple(self.layout))
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
    """Pattern filled in global coordinates for a subdomain origin."""

    def __init__(self, pattern: FillPattern, origin):
        self._pattern = pattern
        self._origin = tuple(origin)  # (z, y, x)

    def fill(self, out: np.ndarray, lo) -> None:
        self._pattern.fill(out, tuple(l + o for l, o in zip(lo, self._origin)))


def local_grid(decomp: Decomposition, rank: int, pattern: FillPattern) -> TwoGrid:
    origin = tuple(r[0] for r in decomp.ranges(rank))
    return TwoGrid(decomp.local_dims(rank), _ShiftedPattern(pattern, origin))


# Canonical phase order.  A phase's slab carries the ghost layers that the
# phases before it filled, so corners arrive only in this order.
_ORDER = ("x", "y", "z")


def exchange_halos(grid: TwoGrid, decomp: Decomposition, rank: int,
                   endpoint: Endpoint, sweep: int) -> None:
    """One exchange round: all ghost shells of depth h filled from neighbors.

    Each phase sends to both neighbors, then receives from both.  A peer's
    slab has the same tangential extents as ours, so the message expected
    from a peer is the one sent to it, seen from the other side.
    """
    h = decomp.halo
    for name in _ORDER:
        axis = "zyx".index(name)
        ext = tuple((h, h) if d > axis else (0, 0) for d in range(3))
        peers = [(side, peer) for side in (0, 1) if (peer := decomp.neighbor(
            rank, axis, high=bool(side))) is not None]
        sent = {}
        for side, peer in peers:
            buf = extract_layers(grid, "-+"[side] + name, h, ext)
            sent[side] = MessageHeader(sweep, PHASE_CODES[name], side, h,
                                       8 * buf.size)
            endpoint.send(peer, sent[side], buf)
        for side, peer in peers:
            buf = endpoint.recv(peer, replace(sent[side], side=1 - side))
            inject_layers(grid, "-+"[side] + name, h, buf, ext)


_DOMAINS = 256       # distinct (decomposition, rank, h) kept per process


@functools.lru_cache(maxsize=_DOMAINS)
def level_domains_for_rank(decomp: Decomposition, rank: int,
                           h: int) -> tuple[tuple[tuple, tuple], ...]:
    """Shrinking extended domains: level s reaches h-s layers into the
    ghost shell on every side with a neighbor, clamped at physical walls.

    Computed once per process for each (decomp, rank, h); every call
    returns the same tuple."""
    shape = decomp.local_dims(rank).shape
    has_low = [decomp.neighbor(rank, d, high=False) is not None for d in range(3)]
    has_high = [decomp.neighbor(rank, d, high=True) is not None for d in range(3)]
    domains = []
    for s in range(1, h + 1):
        m = h - s
        lo = tuple(-m if has_low[d] else 0 for d in range(3))
        hi = tuple(shape[d] + (m if has_high[d] else 0) for d in range(3))
        domains.append((lo, hi))
    return tuple(domains)


def _check_config(cfg: PipelineConfig, h: int) -> None:
    if cfg.storage != "twogrid":
        raise DecompositionError("distributed runs use two-grid storage")
    if cfg.levels_per_sweep != h:
        raise DecompositionError(
            f"pipeline applies U={cfg.levels_per_sweep} levels, halo is {h}")


def outer_step(grid: TwoGrid, decomp: Decomposition, rank: int,
               cfg: PipelineConfig) -> None:
    """Apply h = ``decomp.halo`` local time levels between exchanges.

    The per-level extended domains become the node-sweep domains of the
    pipeline ``cfg``, which must apply U = h levels.  A serial step is
    ``PipelineConfig(updates_per_thread=h)``: one thread running one block.
    """
    h = decomp.halo
    _check_config(cfg, h)
    run_node_sweeps(grid, cfg, 1,
                    level_domains=level_domains_for_rank(decomp, rank, h))


def run_distributed(global_dims: GridDims, pattern: FillPattern,
                    layout: tuple[int, int, int], cfg: PipelineConfig,
                    outer_steps: int):
    """Loopback multi-rank run; returns (gathered global field, rank fields).

    Each rank field is a view of its owned box in the gathered field, into
    which the rank writes its interior once its steps are done.  Every
    outer step exchanges halos of width h = ``cfg.levels_per_sweep``
    and runs one node sweep of ``cfg`` on each rank, so the gathered
    interior equals outer_steps * h naive sweeps of the undecomposed
    problem, bit for bit.  A config the outer step cannot run raises
    :class:`DecompositionError` before any rank starts.
    """
    h = cfg.levels_per_sweep
    _check_config(cfg, h)
    decomp = Decomposition(global_dims, layout, h)
    gathered = np.empty(global_dims.shape, dtype=np.float64)

    def program(rank: int, endpoint: Endpoint) -> np.ndarray:
        grid = local_grid(decomp, rank, pattern)
        for step in range(outer_steps):
            exchange_halos(grid, decomp, rank, endpoint, step)
            outer_step(grid, decomp, rank, cfg)
        field = gathered[tuple(slice(*r) for r in decomp.ranges(rank))]
        field[...] = grid.interior()
        return field

    return gathered, spawn_world(decomp.n_ranks, program)
