"""Helpers shared by the benchmark (run.py) and its reference process.

The package is always imported from ``src/`` of the checkout that holds
this directory, never from an installed copy, so a checkout without the
sources fails instead of measuring some other build.
"""

from __future__ import annotations

import hashlib
import importlib
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = "stencilpipe"
MODULES = ("grid", "kernel", "pipeline", "decomp", "transport", "model")


class MissingSources(RuntimeError):
    """The checkout holds no ``src/stencilpipe`` to benchmark."""


def import_stencilpipe(fresh: bool = False) -> dict:
    """Import the package from ``src/`` and return its modules by name.

    ``fresh`` drops every cached ``stencilpipe`` module first, so the
    import is paid again; set-up time includes it.
    """
    if not (SRC / PACKAGE / "__init__.py").is_file():
        raise MissingSources(f"no {PACKAGE} package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    if fresh:
        for name in [m for m in sys.modules
                     if m == PACKAGE or m.startswith(PACKAGE + ".")]:
            del sys.modules[name]
    pkg = importlib.import_module(PACKAGE)
    if Path(pkg.__file__).resolve().parent != (SRC / PACKAGE).resolve():
        raise MissingSources(f"{PACKAGE} resolved to {pkg.__file__}, "
                             f"not to the checkout's sources")
    return {name: importlib.import_module(f"{PACKAGE}.{name}")
            for name in MODULES}


def field_digest(field: np.ndarray) -> str:
    """SHA-256 over the raw float64 bytes of a 3D field, plane by plane.

    Equal digests mean bitwise-equal fields; hashing plane by plane keeps
    the copy small when ``field`` is a strided view into a ghosted array.
    """
    h = hashlib.sha256()
    for plane in field:
        h.update(np.ascontiguousarray(plane, dtype=np.float64))
    return h.hexdigest()


@dataclass(frozen=True)
class Observation:
    """What the checks need from one engine output, taken right after the
    call so the field itself need not be kept."""
    digest: str
    fmin: float
    fmax: float


def observe(field: np.ndarray) -> Observation:
    return Observation(field_digest(field), float(field.min()),
                       float(field.max()))


def problems(obs: Observation, ref_digest: str, lo: float,
             hi: float) -> list[str]:
    """Reasons an output fails the checks; empty means it passes.

    Two checks: bitwise equality with the reference (through the digest) and
    the maximum principle, every value within [lo, hi] of the initial field
    and its Dirichlet shell.
    """
    found = []
    if obs.digest != ref_digest:
        found.append("differs bitwise from the reference")
    if not (lo <= obs.fmin and obs.fmax <= hi):
        found.append(f"values [{obs.fmin!r}, {obs.fmax!r}] leave the initial "
                     f"range [{lo!r}, {hi!r}]")
    return found
