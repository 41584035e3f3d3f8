"""Independent Jacobi reference for the benchmark's output checks.

Written against the package's documented arithmetic only: each interior
cell becomes ((x-)+(x+)) + ((y-)+(y+)) + ((z-)+(z+)), times 1/6, with the
Dirichlet shell frozen.  The starting field, interior plus shell, is one
``FillPattern.evaluate`` over the whole box.  Nothing here uses the
package's kernels or its verifier.

Run as a script it is the reference process: it reads a JSON request on
standard input, ``{"dims": [nx, ny, nz], "seed": s, "levels": [...]}``,
and prints ``{"digests": {level: sha256}, "lo": min, "hi": max}``, where
lo and hi bound the starting field and its shell.  ``run.py`` runs it in
a child process so its arrays never count in the benchmark's peak RSS.
"""

from __future__ import annotations

import json
import sys

import numpy as np

from common import field_digest, import_stencilpipe

ONE_SIXTH = 1.0 / 6.0


def initial_box(dims, seed: int) -> np.ndarray:
    """Interior plus one-cell shell, axes (z, y, x), from the random pattern."""
    grid = import_stencilpipe()["grid"]
    nx, ny, nz = dims
    return grid.FillPattern.random(seed).evaluate((-1, -1, -1),
                                                  (nz + 1, ny + 1, nx + 1))


class JacobiReference:
    """Ping-pong Jacobi sweeps over a ghosted box, reusing two work arrays."""

    def __init__(self, box: np.ndarray):
        self.cur = box.copy()
        self.nxt = box.copy()          # shares the frozen shell
        shape = tuple(n - 2 for n in box.shape)
        self._t1 = np.empty(shape)
        self._t2 = np.empty(shape)
        self.level = 0

    def interior(self) -> np.ndarray:
        return self.cur[1:-1, 1:-1, 1:-1]

    def sweep(self) -> None:
        s, t1, t2 = self.cur, self._t1, self._t2
        c, m, p = slice(1, -1), slice(0, -2), slice(2, None)
        np.add(s[c, c, m], s[c, c, p], out=t1)
        np.add(s[c, m, c], s[c, p, c], out=t2)
        np.add(t1, t2, out=t1)
        np.add(s[m, c, c], s[p, c, c], out=t2)
        np.add(t1, t2, out=t1)
        np.multiply(t1, ONE_SIXTH, out=self.nxt[c, c, c])
        self.cur, self.nxt = self.nxt, self.cur
        self.level += 1


def reference_digests(dims, seed: int, levels) -> dict:
    """Digest of the reference interior at each requested level."""
    box = initial_box(dims, seed)
    ref = JacobiReference(box)
    digests = {}
    for level in sorted(set(levels)):
        while ref.level < level:
            ref.sweep()
        digests[level] = field_digest(ref.interior())
    return {"digests": digests, "lo": float(box.min()), "hi": float(box.max())}


def main() -> int:
    req = json.load(sys.stdin)
    out = reference_digests(tuple(req["dims"]), int(req["seed"]),
                            [int(v) for v in req["levels"]])
    out["digests"] = {str(k): v for k, v in out["digests"].items()}
    json.dump(out, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
