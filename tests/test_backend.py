"""Loading the compiled kernel: its sweep and fill functions load
wherever ``gcc`` runs, and every way of failing to build or load it leaves
the Python block loop and the numpy fill in place.  The ctypes mirror
``kernel.Sweep`` has the C ``struct sweep``'s layout."""

import ctypes
import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from stencilpipe import kernel, pipeline
from stencilpipe.decomp import decompose, local_grid
from stencilpipe.grid import FillPattern, GridDims, allocate
from stencilpipe.pipeline import PipelineConfig, run_node_sweeps
from stencilpipe.verify import compare, oracle

SRC = Path(kernel.__file__).resolve().parents[1]
PROBE = "import stencilpipe.kernel as k; print(k.BACKEND)"
# Also prints the digest of a random grid's two arrays.
FILL_PROBE = PROBE + (
    "; import hashlib"
    "; from stencilpipe.grid import FillPattern, GridDims, TwoGrid"
    "; g = TwoGrid(GridDims(9, 7, 5, ghost=2), FillPattern.random(2**63 + 5))"
    "; print(hashlib.sha256(g.a.tobytes() + g.b.tobytes()).hexdigest())")
needs_gcc = pytest.mark.skipif(shutil.which("gcc") is None,
                               reason="no gcc on PATH")


def _importer(cache, probe=PROBE, **env):
    """A fresh interpreter that runs ``probe`` with ``cache`` as
    ``XDG_CACHE_HOME``; every probe first prints the backend it got."""
    return subprocess.Popen(
        [sys.executable, "-c", probe], stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True,
        env=dict(os.environ, PYTHONPATH=str(SRC), XDG_CACHE_HOME=str(cache),
                 **env))


def _backends_of(*procs) -> list[str]:
    try:
        outs = [p.communicate(timeout=120) for p in procs]
    finally:
        for p in procs:
            p.kill()
    assert all(p.returncode == 0 for p in procs), [err for _, err in outs]
    return [out.strip() for out, _ in outs]


def test_gcc_on_path_means_the_c_backend():
    # Every other test passes on numpy too, so without this a broken build
    # would go unnoticed; and every test passes on the portable build, so
    # a native build that fails where the CPU is known must show here.
    if shutil.which("gcc") is not None:
        assert kernel.BACKEND == "c"
        native = kernel._cpu_identity() is not None
        assert kernel.BUILD_FLAGS == kernel._BUILDS[0 if native else 1]


def test_no_build_may_change_the_bits():
    # Each lane of a vector must do the IEEE add and multiply the numpy
    # body does, so no build may contract into FMAs or reorder sums.
    for flags in kernel._BUILDS:
        assert "-ffp-contract=off" in flags, flags
        assert not {"-ffast-math", "-Ofast", "-ffp-contract=fast"} & set(flags)


CPUINFO = """processor\t: {n}
vendor_id\t: GenuineIntel
cpu family\t: 6
model\t\t: 143
model name\t: Intel(R) Xeon(R) Processor
cpu MHz\t\t: {mhz}
flags\t\t: fpu sse2 avx2 {extra}

"""


def test_cpu_identity_is_the_first_processors_fixed_lines(tmp_path):
    def identity(text):
        path = tmp_path / "cpuinfo"
        path.write_text(text)
        return kernel._cpu_identity(str(path))

    first = CPUINFO.format(n=0, mhz="2100.000", extra="avx512f")
    got = identity(first + CPUINFO.format(n=1, mhz="2100.000", extra=""))
    assert got == ("vendor_id: GenuineIntel\ncpu family: 6\nmodel: 143\n"
                   "flags: fpu sse2 avx2 avx512f")
    # The clock moves between reads; the identity must not.
    assert identity(CPUINFO.format(n=0, mhz="800.000", extra="avx512f")) == got
    assert identity(first.replace("vendor_id", "vendor")) is None
    assert kernel._cpu_identity(str(tmp_path / "missing")) is None


def test_library_name_keys_on_the_cpu():
    flags, cpu = kernel._BUILDS[0], "vendor_id: GenuineIntel\nflags: avx2"
    name = kernel._library_name(flags, cpu)
    assert kernel._library_name(flags, cpu) == name
    assert kernel._library_name(flags, cpu + " avx512f") != name
    assert kernel._library_name(kernel._BUILDS[1], cpu) != name


@needs_gcc
def test_gcc_on_path_means_the_compiled_sweep(monkeypatch):
    # Pipelines fall back to the Python block loop when the sweep function
    # is missing, and every other test passes there too; so it must load,
    # and a run must not enter the Python loop.
    assert kernel._c_sweep is not None

    def python_loop(*args):
        raise AssertionError("the Python block loop ran under the c backend")

    monkeypatch.setattr(pipeline, "_apply_levels", python_loop)
    d = GridDims(12, 12, 12)
    pat = FillPattern.random(89)
    for storage in ("twogrid", "compressed"):
        for sync in ("barrier", "relaxed"):
            cfg = PipelineConfig(team_size=2, block=(12, 6, 6), sync=sync,
                                 storage=storage)
            g = allocate(d, storage, pat, slack=cfg.levels_per_sweep)
            run_node_sweeps(g, cfg, 2)
            assert compare(oracle(d, pat, 8), g).bitwise, (storage, sync)


@needs_gcc
def test_gcc_on_path_means_the_compiled_fill(monkeypatch):
    # Grids fill through FillPattern.evaluate when fill_random is missing,
    # and every other test passes there too; so it must load, and a random
    # grid must not evaluate the pattern in any storage or in a rank.
    assert kernel._c_fill is not None

    def evaluate(*args):
        raise AssertionError("FillPattern.evaluate ran under the c backend")

    monkeypatch.setattr(FillPattern, "evaluate", evaluate)
    pat = FillPattern.random(89)
    allocate(GridDims(9, 7, 5, ghost=2), "twogrid", pat)
    allocate(GridDims(9, 7, 5), "compressed", pat, slack=2)
    local_grid(decompose(GridDims(12, 8, 8), 2, (2, 1, 1), 2), 1, pat)


def test_missing_compiler_falls_back_to_numpy(tmp_path):
    empty = tmp_path / "bin"
    empty.mkdir()
    got = _backends_of(_importer(tmp_path, FILL_PROBE, PATH=str(empty)))
    want = FillPattern.random(2**63 + 5).evaluate((-2,) * 3, (7, 9, 11))
    assert got[0].split() == [
        "numpy", hashlib.sha256(want.tobytes() * 2).hexdigest()]
    assert list((tmp_path / "stencilpipe").iterdir()) == []


@needs_gcc
def test_failed_native_build_falls_back_to_the_portable_flags(tmp_path):
    # A gcc that logs and refuses -march=native and runs the real one
    # otherwise.  The second import must load the cached portable library
    # without trying the native build again.
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    log = tmp_path / "native.log"
    wrapper = bin_dir / "gcc"
    wrapper.write_text(
        "#!/bin/sh\n"
        'for a in "$@"; do\n'
        f'  [ "$a" = -march=native ] && echo "$a" >> "{log}" && exit 1\n'
        "done\n"
        f'exec {shutil.which("gcc")} "$@"\n')
    wrapper.chmod(0o755)
    probe = PROBE + "; print(' '.join(k.BUILD_FLAGS))"
    path = os.pathsep.join((str(bin_dir), os.environ.get("PATH", "")))
    for _ in range(2):
        [got] = _backends_of(_importer(tmp_path, probe, PATH=path))
        assert got.splitlines() == ["c", " ".join(kernel._BUILDS[-1])]
    attempts = log.read_text().splitlines() if log.exists() else []
    assert len(attempts) == (kernel._cpu_identity() is not None)
    files = [p.name for p in (tmp_path / "stencilpipe").iterdir()]
    assert len(files) == 1 and files[0].endswith(".so"), files


@needs_gcc
@pytest.mark.parametrize("cache", ["not-a-directory", "world-writable"])
def test_unusable_cache_builds_in_a_private_directory(tmp_path, cache):
    root = tmp_path / "cache"
    if cache == "not-a-directory":
        root.write_text("")
    else:
        (root / "stencilpipe").mkdir(parents=True)
        (root / "stencilpipe").chmod(0o777)
    tmp = tmp_path / "tmp"
    tmp.mkdir()
    assert _backends_of(_importer(root, TMPDIR=str(tmp))) == ["c"]
    if cache == "world-writable":
        assert list((root / "stencilpipe").iterdir()) == []
    assert list(tmp.iterdir()) == []   # the private directory is gone


@needs_gcc
def test_concurrent_first_loads_leave_one_library(tmp_path):
    assert _backends_of(_importer(tmp_path), _importer(tmp_path)) == ["c", "c"]
    files = [p.name for p in (tmp_path / "stencilpipe").iterdir()]
    assert len(files) == 1 and files[0].endswith(".so"), files


@needs_gcc
def test_sweep_mirrors_the_c_struct(tmp_path):
    # ctypes lays kernel.Sweep out from its own field list, so a field
    # missing or moved on one side shifts the others and the compiled
    # sweep reads the wrong memory without any error.  The driver includes
    # the shipped source unchanged and prints the C layout of the fields
    # the mirror names.
    names = [name for name, _ in kernel.Sweep._fields_]
    driver = "\n".join(
        [kernel._SOURCE, "#include <stdio.h>", "int main(void)", "{",
         '    printf("%zu\\n", sizeof(struct sweep));',
         *(f'    printf("%zu\\n", offsetof(struct sweep, {name}));'
           for name in names),
         "    return 0;", "}"])
    exe = tmp_path / "layout"
    built = subprocess.run(["gcc", "-x", "c", "-", "-o", str(exe)],
                           input=driver, text=True, capture_output=True,
                           timeout=60)
    assert built.returncode == 0, built.stderr
    out = subprocess.run([str(exe)], capture_output=True, text=True,
                         timeout=60, check=True).stdout.split()
    assert [int(v) for v in out] == [ctypes.sizeof(kernel.Sweep)] + [
        getattr(kernel.Sweep, name).offset for name in names]
