"""The Jacobi region update and the serial sweep variants.

``update_region`` evaluates the stencil over a box in numpy; the oracle
(``sweep_naive``) and the numpy backend's node sweep, which runs every
block on the calling thread, call it.
Under the ``c`` backend (``BACKEND == "c"``) the blocks of every other
engine go through a compiled library instead.  The C source below is
compiled at import with the system ``gcc`` for the host CPU
(``-march=native -O3 -ffp-contract=off``, no fast-math) and cached as
``stencilpipe/region-<hash>.so`` under ``$XDG_CACHE_HOME``, or ``~/.cache``
when that is unset.  The hash covers the source, the flags and the host
CPU's identity (the ``vendor_id``, ``cpu family``, ``model`` and ``flags``
lines of the first processor in ``/proc/cpuinfo``), so a cache shared
between hosts never hands one a library built for another CPU.  A build
already in the cache loads before any is compiled, so a native build that
failed once is not retried while the portable library is cached.  When
the cache directory cannot be used safely the library is built in a
private temporary directory for this process only.  When the native build
fails, or the CPU's identity cannot be read, the library is built with the
portable flags (``-O3 -ffp-contract=off``); when that fails too, a missing
symbol included, the numpy backend stays in place.  ``BUILD_FLAGS`` records
the flags of the library that loaded, or None under numpy.  No flag lets
gcc contract or reorder floating-point operations, so every build gives the
same bits.  ``ctypes`` releases the interpreter lock for each call.

The library exports two functions.  ``sweep_thread`` runs one pipeline
thread's whole node sweep: it walks the thread's blocks in the schedule's
order, gates each on the counters of the threads its rules name, restores
a compressed level's ghost faces and applies each of the thread's levels
with the ``static`` region body ``region``, the only C stencil loop, then
publishes its count; see :mod:`.pipeline` for the rules and :class:`Sweep`
for its arguments.  ``fill_random`` writes the ``random`` fill pattern's
hash into a strided view for any logical box; ``FillPattern.fill`` calls
it, while ``FillPattern.evaluate`` stays the numpy definition of the
pattern.

A compressed level passes two overlapping views of one array.  The C loop
follows the ``memmove`` rule: it runs forward when ``dst <= src`` and in
reverse on all three axes otherwise, so every cell is read before the
write that lands on it; ``update_region`` builds its right-hand side
before it writes.

``sweep_naive`` is the correctness oracle for every other engine in the
package; it runs ``update_region`` whatever the backend.
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
#include <sched.h>
#include <stddef.h>
#include <stdint.h>
#include <time.h>

/* dst = stencil(src) over nz*ny*nx cells, the first at element off of both
   views, whose z and y strides are sz and sy elements. */
static void region(const double *src, double *dst, ptrdiff_t off,
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

/* One node sweep, shared by its threads; kernel.Sweep mirrors it. */
struct sweep {
    int64_t n_blocks, T, ghost, sz, sy;
    int64_t n[3];                /* interior extents (z, y, x) */
    const int64_t *order;        /* n_blocks rows of base block (iz, iy, ix) */
    const int64_t *cuts;         /* every (level, axis) chain of cuts */
    const int64_t *chain;        /* (level, axis) -> its first cut in cuts */
    double *const *src;          /* per level: base of the read view */
    double *const *dst;          /* per level: base of the write view */
    const double *const *faces;  /* z low, z high, y low, ..., or NULL */
    const int64_t *rule;         /* per thread and one past: its first pair */
    const int64_t *rules;        /* (j, lead) pairs, from pipeline._rules */
    int64_t *counters;           /* per thread: blocks done */
    const int32_t *abort;
    int64_t spin_budget;
    double timeout;              /* seconds */
};

enum { SWEEP_DONE, SWEEP_ABORTED, SWEEP_TIMEOUT };

static int64_t acquire(const int64_t *p)
{
    return __atomic_load_n(p, __ATOMIC_ACQUIRE);
}

static void release(int64_t *p, int64_t v)
{
    __atomic_store_n(p, v, __ATOMIC_RELEASE);
}

static double seconds(void)
{
    struct timespec t;
    clock_gettime(CLOCK_MONOTONIC, &t);
    return (double)t.tv_sec + 1e-9 * (double)t.tv_nsec;
}

/* CompressedGrid.restore_ghosts on the view at base: the Dirichlet face
   layers next to the logical box [lo, hi) on every domain edge it touches.
   A face array has the box's shape, one layer thick along its axis d, so
   its d stride is taken as 0. */
static void restore_ghosts(const struct sweep *s, double *base,
                           const int64_t *lo, const int64_t *hi)
{
    for (int d = 0; d < 3; d++)
        for (int side = 0; side < 2; side++) {
            if (side ? hi[d] != s->n[d] : lo[d] != 0)
                continue;
            const double *f = s->faces[2 * d + side];
            ptrdiff_t a[3], e[3], fs[3];
            for (int k = 0; k < 3; k++) {
                a[k] = lo[k] + 1;
                e[k] = hi[k] + 1;
            }
            a[d] = side ? s->n[d] + 1 : 0;
            e[d] = a[d] + 1;
            fs[2] = 1;
            fs[1] = d == 2 ? 1 : s->n[2] + 2;
            fs[0] = fs[1] * (d == 1 ? 1 : s->n[1] + 2);
            fs[d] = 0;
            for (ptrdiff_t z = a[0]; z < e[0]; z++)
                for (ptrdiff_t y = a[1]; y < e[1]; y++)
                    for (ptrdiff_t x = a[2]; x < e[2]; x++)
                        base[z * s->sz + y * s->sy + x] =
                            f[z * fs[0] + y * fs[1] + x * fs[2]];
        }
}

/* Thread i's levels i*T+1 .. (i+1)*T on base block blk. */
static void apply_levels(const struct sweep *s, int64_t i, const int64_t *blk)
{
    const ptrdiff_t g = s->ghost;
    for (int64_t l = i * s->T; l < (i + 1) * s->T; l++) {
        int64_t lo[3], hi[3];
        for (int d = 0; d < 3; d++) {
            const int64_t *c = s->cuts + s->chain[3 * l + d];
            lo[d] = c[blk[d]];
            hi[d] = c[blk[d] + 1];
        }
        if (s->faces)
            restore_ghosts(s, s->src[l], lo, hi);
        if (hi[0] > lo[0] && hi[1] > lo[1] && hi[2] > lo[2])
            region(s->src[l], s->dst[l],
                   (lo[0] + g) * s->sz + (lo[1] + g) * s->sy + lo[2] + g,
                   hi[0] - lo[0], hi[1] - lo[1], hi[2] - lo[2],
                   s->sz, s->sy);
    }
}

/* Whether thread i may start block b: for each of its (j, lead) pairs,
   thread j has finished its sweep or has c_j - b >= lead.  On success
   snap holds (c_prev, c_self, c_next), -1 for a neighbour it does not
   wait on. */
static int gate(const struct sweep *s, int64_t i, int64_t b, int64_t *snap)
{
    snap[0] = snap[2] = -1;
    for (int64_t k = s->rule[i]; k < s->rule[i + 1]; k++) {
        const int64_t j = s->rules[2 * k], c = acquire(&s->counters[j]);
        if (c < s->n_blocks && c - b < s->rules[2 * k + 1])
            return 0;
        if (j == i - 1 || j == i + 1)
            snap[j - i + 1] = c;
    }
    snap[1] = b;
    return 1;
}

/* Spin on the gate: spin_budget checks, then sched_yield before each
   further one, until timeout seconds after the first refusal. */
static int wait_gate(const struct sweep *s, int64_t i, int64_t b, int64_t *snap)
{
    int64_t spins = 0;
    double deadline = 0.0;
    while (!gate(s, i, b, snap)) {
        if (__atomic_load_n(s->abort, __ATOMIC_RELAXED))
            return SWEEP_ABORTED;
        if (spins == 0)
            deadline = seconds() + s->timeout;
        if (++spins > s->spin_budget) {
            sched_yield();
            if (seconds() > deadline)
                return SWEEP_TIMEOUT;
        }
    }
    return SWEEP_DONE;
}

/* Thread i's whole sweep: every block in order, gated, its levels applied,
   and its count published with a release store after the block's writes.
   With record, row b gets the snapshot the gate passed on.  Returns a
   SWEEP_* status; *where is the block a thread stopped at. */
int64_t sweep_thread(const struct sweep *s, int64_t i, int64_t *record,
                     int64_t *where)
{
    for (int64_t b = 0; b < s->n_blocks; b++) {
        int64_t snap[3];
        int status = wait_gate(s, i, b, snap);
        if (status != SWEEP_DONE) {
            *where = b;
            return status;
        }
        if (record)
            for (int k = 0; k < 3; k++)
                record[3 * b + k] = snap[k];
        apply_levels(s, i, s->order + 3 * b);
        release(&s->counters[i], b + 1);
    }
    return SWEEP_DONE;
}

static uint64_t mix64(uint64_t h)
{
    h = (h ^ (h >> 30)) * 0xBF58476D1CE4E5B9ULL;
    h = (h ^ (h >> 27)) * 0x94D049BB133111EBULL;
    return h ^ (h >> 31);
}

/* grid.FillPattern.random over the logical box of nz*ny*nx cells whose
   first cell is (z0, y0, x0), written into dst with element strides sz,
   sy and sx.  Coordinates wrap to uint64 as numpy's casts do. */
void fill_random(double *dst, ptrdiff_t nz, ptrdiff_t ny, ptrdiff_t nx,
                 ptrdiff_t sz, ptrdiff_t sy, ptrdiff_t sx,
                 int64_t z0, int64_t y0, int64_t x0, uint64_t seed)
{
    for (ptrdiff_t z = 0; z < nz; z++) {
        const uint64_t hz = (uint64_t)(z0 + z) * 0x9E3779B97F4A7C15ULL;
        for (ptrdiff_t y = 0; y < ny; y++) {
            const uint64_t hy = hz ^ (uint64_t)(y0 + y) * 0xBF58476D1CE4E5B9ULL;
            double *d = dst + z * sz + y * sy;
            for (ptrdiff_t x = 0; x < nx; x++) {
                uint64_t h = (hy ^ (uint64_t)(x0 + x) * 0x94D049BB133111EBULL)
                             + seed;
                d[x * sx] = (double)(mix64(mix64(h)) >> 11) * 0x1p-53;
            }
        }
    }
}
"""

_PORTABLE_FLAGS = ("-O3", "-ffp-contract=off", "-fPIC", "-shared")
# The builds _load tries, in order.  None may contract or reorder
# floating-point operations, so every build gives the oracle's bits; only
# the first is specific to the host CPU.
_BUILDS = (("-march=native", *_PORTABLE_FLAGS), _PORTABLE_FLAGS)
_CPU_KEYS = ("vendor_id", "cpu family", "model", "flags")
_COMPILE_TIMEOUT = 60.0   # seconds


def _cpu_identity(path: str = "/proc/cpuinfo") -> str | None:
    """The ``vendor_id``, ``cpu family``, ``model`` and ``flags`` lines of
    the first processor in ``path``, or None when it cannot be read or
    lacks one of them.  Lines that vary at run time, such as the clock,
    are left out, so the identity is the same on every read."""
    found = {}
    try:
        with open(path, encoding="ascii", errors="replace") as fh:
            for line in fh:
                if not line.strip():
                    break   # the end of the first processor
                key, sep, value = line.partition(":")
                if sep and key.strip() in _CPU_KEYS:
                    found[key.strip()] = value.strip()
    except OSError:
        return None
    if len(found) != len(_CPU_KEYS):
        return None
    return "\n".join(f"{k}: {found[k]}" for k in _CPU_KEYS)


def _library_name(flags: tuple[str, ...], cpu: str) -> str:
    """The cache name of the library built from ``_SOURCE`` with ``flags``
    on a host whose CPU identity is ``cpu``."""
    digest = hashlib.sha256("\0".join((_SOURCE, *flags, cpu)).encode())
    return f"region-{digest.hexdigest()[:24]}.so"


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


def _compile(directory: str, name: str, flags: tuple[str, ...]) -> str:
    """Build the library with ``flags`` into ``directory`` under a
    temporary name and rename it to ``name``, so a reader never sees a
    partial file."""
    fd, tmp = tempfile.mkstemp(prefix=f".{name}.", suffix=".tmp",
                               dir=directory)
    os.close(fd)
    try:
        subprocess.run(["gcc", *flags, "-x", "c", "-", "-o", tmp],
                       input=_SOURCE, text=True, capture_output=True,
                       timeout=_COMPILE_TIMEOUT, check=True)
        path = os.path.join(directory, name)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
    return path


class Sweep(ctypes.Structure):
    """The C ``struct sweep``: one node sweep, shared by its threads.

    Pointer fields hold addresses of arrays that the filler keeps alive for
    the sweep; see ``pipeline._Runner``.
    """

    _fields_ = ([(f, ctypes.c_int64) for f in
                 ("n_blocks", "T", "ghost", "sz", "sy")]
                + [("n", ctypes.c_int64 * 3)]
                + [(f, ctypes.c_void_p) for f in
                   ("order", "cuts", "chain", "src", "dst", "faces", "rule",
                    "rules", "counters", "abort")]
                + [("spin_budget", ctypes.c_int64),
                   ("timeout", ctypes.c_double)])


# ``sweep_thread`` statuses; the C enum has the same order.
SWEEP_DONE, SWEEP_ABORTED, SWEEP_TIMEOUT = range(3)


def _open(flags: tuple[str, ...], cpu: str,
          directory: str | None) -> ctypes.CDLL:
    """The library built with ``flags``, from the cache ``directory`` or
    built now."""
    name = _library_name(flags, cpu)
    if directory is None:
        # The mapping outlives the file, so the directory can go.
        with tempfile.TemporaryDirectory(prefix="stencilpipe-") as tmp:
            return ctypes.CDLL(_compile(tmp, name, flags))
    path = os.path.join(directory, name)
    if not os.path.exists(path):
        path = _compile(directory, name, flags)
    return ctypes.CDLL(path)


def _load():
    """The compiled ``sweep_thread`` and ``fill_random`` functions and the
    flags they were built with, or three Nones when no build in ``_BUILDS``
    can be built and loaded.  The native build is tried only when the host
    CPU's identity is known, since it keys the cache name.  Builds already
    in the cache go first, in ``_BUILDS`` order, so gcc runs only when
    none is cached."""
    cpu = _cpu_identity() or ""
    builds = _BUILDS if cpu else _BUILDS[1:]
    directory = _cache_dir()

    def uncached(flags):
        return directory is None or not os.path.exists(
            os.path.join(directory, _library_name(flags, cpu)))

    for flags in sorted(builds, key=uncached):
        try:
            lib = _open(flags, cpu, directory)
            sweep, fill = lib.sweep_thread, lib.fill_random
        except (OSError, subprocess.SubprocessError, AttributeError):
            continue
        sweep.argtypes = [ctypes.POINTER(Sweep), ctypes.c_int64,
                          ctypes.c_void_p, ctypes.POINTER(ctypes.c_int64)]
        sweep.restype = ctypes.c_int64
        fill.argtypes = ([ctypes.c_void_p] + [ctypes.c_ssize_t] * 6
                         + [ctypes.c_int64] * 3 + [ctypes.c_uint64])
        fill.restype = None
        return sweep, fill, flags
    return None, None, None


_c_sweep, _c_fill, BUILD_FLAGS = _load()
BACKEND = "numpy" if _c_sweep is None else "c"


def _sh(s: slice, d: int) -> slice:
    return slice(s.start + d, s.stop + d)


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
    :class:`GridError` before anything is written.  The right-hand side is
    built before it is written, so overlapping views are safe.
    """
    if any(h <= l for l, h in zip(lo, hi)):
        return
    _check_region(src, dst, ghost, lo, hi)
    cz, cy, cx = center = tuple(slice(l + ghost, h + ghost)
                                for l, h in zip(lo, hi))
    dst[center] = (
        (src[cz, cy, _sh(cx, -1)] + src[cz, cy, _sh(cx, 1)])
        + (src[cz, _sh(cy, -1), cx] + src[cz, _sh(cy, 1), cx])
        + (src[_sh(cz, -1), cy, cx] + src[_sh(cz, 1), cy, cx])
    ) * ONE_SIXTH


def sweep_naive(grid: TwoGrid) -> None:
    """One full Jacobi sweep: non-current <- stencil(current), then swap.

    Always ``update_region``: the oracle does not depend on the backend.
    """
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
