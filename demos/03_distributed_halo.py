"""Distributed runs with multi-layer halo exchange on the loopback transport.

Each rank owns a box of the global grid plus a ghost shell of depth
h = teams * team_size * T.  One outer step exchanges all h layers in the
fixed x -> y -> z order (later phases carry the earlier directions'
ghost extensions, which delivers edge and corner data without diagonal
messages) and then applies h local levels on shrinking extended domains.

Ranks are threads of this process; messages use the binary wire format.
The final gathered field matches the undecomposed run bitwise.
"""

from stencilpipe import (FillPattern, GridDims, PipelineConfig, compare,
                         oracle)
from stencilpipe.decomp import run_distributed

dims = GridDims(24, 24, 24)
pattern = FillPattern.random(4711)
cfg = PipelineConfig(teams=1, team_size=2, updates_per_thread=2)
h = cfg.levels_per_sweep
steps = 3
ref = oracle(dims, pattern, steps * h).interior()

for layout in ((2, 1, 1), (2, 2, 1), (2, 2, 2)):
    gathered, _ = run_distributed(dims, pattern, layout, cfg, steps)
    print(f"layout {layout}, h={h}, {steps} outer steps:",
          compare(ref, gathered))
