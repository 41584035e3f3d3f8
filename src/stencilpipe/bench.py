"""Benchmark and verification harness.

Subcommands: ``bench`` (time a solver variant), ``verify`` (oracle
equivalence for one configuration), ``model`` (emit model CSVs), and
``dist`` (loopback multi-rank run).  Exit code 0 means every requested
verification passed; 1 means a verification failed; argparse reports
usage errors with 2.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass, replace

from .decomp import run_distributed
from .grid import FillPattern, GridDims, allocate, dump_field
from .kernel import sweep_naive, sweep_spatial_blocked
from .model import (MachineParams, NetworkParams, efficiency, multihalo_ratio,
                    multihalo_time, pipelined_speedup)
from .pipeline import PipelineConfig, default_block_size, run_node_sweeps
from .verify import compare, oracle

COLUMNS = ("variant", "nx", "ny", "nz", "n", "t", "T", "dl", "du", "dt",
           "sync", "storage", "sweeps", "seconds", "mlups", "verified")


@dataclass
class BenchResult:
    variant: str
    dims: GridDims
    cfg: PipelineConfig
    sweeps: int
    seconds: float
    updates: int
    verified: str  # "yes" | "no" | "skipped"

    @property
    def mlups(self) -> float:
        return self.updates / self.seconds / 1e6

    def row(self) -> dict:
        d, c = self.dims, self.cfg
        return {
            "variant": self.variant, "nx": d.nx, "ny": d.ny, "nz": d.nz,
            "n": c.teams, "t": c.team_size, "T": c.updates_per_thread,
            "dl": c.min_dist, "du": c.max_dist, "dt": c.team_delay,
            "sync": c.sync, "storage": c.storage, "sweeps": self.sweeps,
            "seconds": f"{self.seconds:.6f}", "mlups": f"{self.mlups:.3f}",
            "verified": self.verified,
        }


def report(results, fmt: str = "csv") -> str:
    """Deterministic CSV (or JSON with the same fields) of bench rows."""
    rows = [r.row() for r in results]
    if fmt == "json":
        return json.dumps(rows, indent=2) + "\n"
    lines = [",".join(COLUMNS)]
    lines += [",".join(str(row[c]) for c in COLUMNS) for row in rows]
    return "\n".join(lines) + "\n"


def _parse_triple(text: str) -> tuple[int, int, int]:
    parts = text.lower().split("x")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expected AxBxC, got {text!r}")
    return tuple(int(p) for p in parts)


def _pattern(args) -> FillPattern:
    kind = args.pattern
    if kind == "constant":
        return FillPattern.constant(args.value)
    if kind == "linear":
        return FillPattern.linear()
    if kind == "hotplate":
        return FillPattern.hotplate()
    return FillPattern.random(args.seed)


def _dims(args, ghost: int = 1) -> GridDims:
    if args.dims is not None:
        nx, ny, nz = args.dims
    else:
        nx = ny = nz = args.size
    return GridDims(nx, ny, nz, ghost)


def _config(args, dims: GridDims | None = None) -> PipelineConfig:
    """The flags' pipeline config; given ``dims``, a missing block size is
    replaced by the default one for that grid."""
    cfg = PipelineConfig(
        teams=args.teams, team_size=args.team_size,
        updates_per_thread=args.updates_per_thread,
        min_dist=args.dl, max_dist=args.du, team_delay=args.dt,
        sync=args.sync, block=args.block, storage=args.storage)
    if dims is not None and cfg.block is None:
        cfg = replace(cfg, block=default_block_size(dims, cfg))
    return cfg


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--size", type=int, default=48, help="cubic interior extent")
    p.add_argument("--dims", type=_parse_triple, default=None,
                   help="interior extents NXxNYxNZ (overrides --size)")
    p.add_argument("--teams", type=int, default=1, help="thread teams (n)")
    p.add_argument("--team-size", type=int, default=4, help="threads per team (t)")
    p.add_argument("-T", "--updates-per-thread", type=int, default=2,
                   help="updates per thread per block (T); 2 is the sweet spot")
    p.add_argument("--dl", type=int, default=1, help="min neighbor distance, blocks")
    p.add_argument("--du", type=int, default=4, help="max neighbor distance, blocks")
    p.add_argument("--dt", type=int, default=0, help="team delay, blocks")
    p.add_argument("--block", type=_parse_triple, default=None,
                   help="block size BXxBYxBZ (default: derived, long x)")
    p.add_argument("--sync", choices=("barrier", "relaxed"), default="relaxed")
    p.add_argument("--storage", choices=("twogrid", "compressed"),
                   default="twogrid")
    p.add_argument("--pattern",
                   choices=("constant", "linear", "hotplate", "random"),
                   default="random")
    p.add_argument("--value", type=float, default=0.0,
                   help="value for --pattern constant")
    p.add_argument("--seed", type=int, default=42, help="seed for --pattern random")
    p.add_argument("--sweeps", type=int, default=2, help="node sweeps to run")


def _run_variant(variant: str, dims: GridDims, pattern: FillPattern,
                 cfg: PipelineConfig, sweeps: int) -> tuple[object, int, float]:
    """Allocate, warm up, run timed; returns (grid, updates, seconds).

    ``cfg.block`` must be set: the blocked and pipeline variants use it.
    """
    interior = dims.nx * dims.ny * dims.nz
    if variant == "pipeline":
        # Each compressed sweep moves the origin one node sweep down, or up
        # when there is no room below, so one node sweep of slack serves
        # the warmup and the timed call.
        slack = cfg.levels_per_sweep if cfg.storage == "compressed" else 0
        grid = allocate(dims, cfg.storage, pattern, slack=slack)
        run_node_sweeps(grid, cfg, 1)  # warmup, untimed
        start = time.monotonic()
        run_node_sweeps(grid, cfg, sweeps)
        levels = sweeps * cfg.levels_per_sweep
        return grid, interior * levels, time.monotonic() - start
    if variant == "naive":
        step = sweep_naive
    elif variant == "blocked":
        step = lambda g: sweep_spatial_blocked(g, cfg.block)
    else:
        raise ValueError(f"unknown variant {variant!r}")
    grid = allocate(dims, "twogrid", pattern)
    step(grid)  # warmup, untimed
    start = time.monotonic()
    for _ in range(sweeps):
        step(grid)
    return grid, interior * sweeps, time.monotonic() - start


def _verify_levels(variant: str, cfg: PipelineConfig, total_sweeps: int) -> int:
    # Warmup counts: every variant runs one untimed sweep before timing.
    if variant == "pipeline":
        return (total_sweeps + 1) * cfg.levels_per_sweep
    return total_sweeps + 1


def cmd_bench(args) -> int:
    dims = _dims(args)
    pattern = _pattern(args)
    cfg = _config(args, dims)
    results = []
    for variant in args.variant:
        runs = []
        grid = None
        for _ in range(args.reps):
            grid, updates, seconds = _run_variant(variant, dims, pattern, cfg,
                                                  args.sweeps)
            runs.append((seconds, updates, grid))
        seconds, updates, grid = sorted(runs)[len(runs) // 2]
        verified = "skipped"
        if not args.no_verify and max(dims.shape) <= 64:
            # Every rep starts from the same pattern, so one check covers all.
            levels = _verify_levels(variant, cfg, args.sweeps)
            ref = oracle(dims, pattern, levels)
            verified = "yes" if compare(ref, grid).passed else "no"
        results.append(BenchResult(variant, dims, cfg, args.sweeps,
                                   seconds, updates, verified))
        if args.dump:
            with open(args.dump, "w") as fh:
                dump_field(grid, fh)
    sys.stdout.write(report(results, args.format))
    return 1 if any(r.verified == "no" for r in results) else 0


def cmd_verify(args) -> int:
    dims = _dims(args)
    pattern = _pattern(args)
    cfg = _config(args, dims)
    slack = cfg.levels_per_sweep if cfg.storage == "compressed" else 0
    grid = allocate(dims, cfg.storage, pattern, slack=slack)
    run_node_sweeps(grid, cfg, args.sweeps)
    ref = oracle(dims, pattern, args.sweeps * cfg.levels_per_sweep)
    cmp = compare(ref, grid)
    print(f"verify {cfg.storage}/{cfg.sync} n={cfg.teams} t={cfg.team_size} "
          f"T={cfg.updates_per_thread} sweeps={args.sweeps}: {cmp}")
    return 0 if cmp.passed else 1


def cmd_model(args) -> int:
    out = sys.stdout
    if args.speedup:
        machine = MachineParams()
        out.write("t,T,speedup\n")
        for t in args.t:
            for T in args.T:
                out.write(f"{t},{T},{pipelined_speedup(machine, t, T):.12g}\n")
    if args.multihalo:
        net = NetworkParams()
        out.write("L,h,bulk_s,face_s,comm_s,ratio,efficiency\n")
        for L in args.L:
            for h in args.h:
                cost = multihalo_time(L, h, net)
                out.write(f"{L},{h},{cost.bulk_s:.12g},{cost.face_s:.12g},"
                          f"{cost.comm_s:.12g},"
                          f"{multihalo_ratio(L, h, net):.12g},"
                          f"{efficiency(L, h, net):.12g}\n")
    return 0


def cmd_dist(args) -> int:
    dims = _dims(args)
    pattern = _pattern(args)
    cfg = _config(args)
    gathered, _ = run_distributed(dims, pattern, args.layout, cfg,
                                  args.outer_steps)
    levels = args.outer_steps * cfg.levels_per_sweep
    ref = oracle(dims, pattern, levels)
    cmp = compare(ref.interior(), gathered)
    print(f"dist layout={'x'.join(map(str, args.layout))} "
          f"h={cfg.levels_per_sweep} steps={args.outer_steps}: {cmp}")
    return 0 if cmp.passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stencilpipe",
        description="Pipelined temporal blocking of the 3D Jacobi stencil")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bench", help="time solver variants and report MLUP/s")
    _add_config_flags(p)
    p.add_argument("--variant", action="append",
                   choices=("naive", "blocked", "pipeline"), default=None)
    p.add_argument("--reps", type=int, default=3, help="repetitions; median wins")
    p.add_argument("--no-verify", action="store_true",
                   help="skip the oracle check (use for large grids)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--dump", default=None, help="write the final field here")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("verify", help="oracle equivalence for one configuration")
    _add_config_flags(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("model", help="emit performance-model CSVs")
    p.add_argument("--speedup", action="store_true",
                   help="single-cache speedup sweep over t, T")
    p.add_argument("--multihalo", action="store_true",
                   help="multi-layer halo cost table over L, h")
    p.add_argument("--t", type=int, nargs="+", default=[4])
    p.add_argument("--T", type=int, nargs="+", default=[1, 2, 4])
    p.add_argument("--L", type=int, nargs="+",
                   default=[8, 16, 32, 64, 128, 512])
    p.add_argument("--h", type=int, nargs="+", default=[2, 4, 8, 16, 32])
    p.set_defaults(func=cmd_model)

    p = sub.add_parser("dist", help="loopback multi-rank run with verification")
    _add_config_flags(p)
    p.add_argument("--layout", type=_parse_triple, default=(2, 1, 1),
                   help="rank layout PXxPYxPZ")
    p.add_argument("--outer-steps", type=int, default=2)
    p.set_defaults(func=cmd_dist)
    return parser


def cli_main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if getattr(args, "variant", "sentinel") is None:
        args.variant = ["naive"]
    return args.func(args)


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
