"""Pipelined temporal blocking on one node.

Threads form teams; thread i applies time levels i*T+1 .. (i+1)*T to each
cache-sized block, trailing its predecessor through the block list under
relaxed counter synchronization.  One node sweep advances the grid by
U = teams * team_size * T levels while each block's data stays in cache.

The demo runs a 2-team x 2-thread x T=2 pipeline (U = 8 levels per node
sweep), audits the recorded counter distances, and checks the result
bitwise against naive sweeping.  It also shows the compressed storage
mode, which keeps a single array and shifts the origin diagonally.
"""

from stencilpipe import (FillPattern, GridDims, PipelineConfig, allocate,
                         audit_trace, compare,
                         instrumented_run, oracle, run_node_sweeps, trace_csv)

dims = GridDims(32, 32, 32)
pattern = FillPattern.random(99)
cfg = PipelineConfig(teams=2, team_size=2, updates_per_thread=2,
                     min_dist=1, max_dist=4, team_delay=2,
                     block=(32, 8, 8))
print(f"pipeline: {cfg.teams} teams x {cfg.team_size} threads x "
      f"T={cfg.updates_per_thread} -> U={cfg.levels_per_sweep} levels/sweep")

grid = allocate(dims, "twogrid", pattern)
trace = instrumented_run(grid, cfg, sweeps=2)
ref = oracle(dims, pattern, 2 * cfg.levels_per_sweep)
print("vs naive oracle:", compare(ref, grid))

bad = audit_trace(trace, cfg)
print(f"counter trace: {len(trace)} block starts, "
      f"{len(bad)} distance violations")
print("first trace rows:")
print("\n".join(trace_csv(trace[:4]).splitlines()))

# Same schedule on the single-array storage: half the memory, same bits.
ccfg = PipelineConfig(teams=2, team_size=2, updates_per_thread=2,
                      block=(32, 8, 8), storage="compressed")
cgrid = allocate(dims, "compressed", pattern, slack=ccfg.levels_per_sweep)
run_node_sweeps(cgrid, ccfg, 2)
print("compressed storage vs oracle:", compare(ref, cgrid))
