"""Benchmark of the six stencilpipe engines on three grid workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload memory-bound --seed 1 --seconds 20 --trace 0

The package is imported from ``src/`` of that checkout.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  A run record (machine facts, seed,
operations, and count, median and quartiles of every metric) goes to
``perfbench/out/``, with the spans of a traced run beside it.

Each round makes one public call per engine, in a fixed order, and times
each call alone.  The checks are untimed: every output is hashed right
after its call and, once timing is over, compared bitwise with an
independent reference computed in a child process, and against the
maximum principle.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
import traceback
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Callable

import numpy as np

import layers
from common import (MissingSources, Observation, import_stencilpipe, observe,
                    problems)
from tracer import Tracer

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
WORKERS = 7           # processes per untraced run, each set up afresh
MIN_ROUNDS = 2        # per process
TEAM_SIZE, UPDATES = 2, 2   # pipeline engines: n=1, t=2, T=2, so U=4


@dataclass(frozen=True)
class Workload:
    dims: tuple[int, int, int]      # (nx, ny, nz)
    layout: tuple[int, int, int]    # dist rank layout (px, py, pz)
    halo: int                       # dist h: levels per outer step
    outer_steps: int                # outer steps per dist call
    tiny_dims: tuple[int, int, int]  # self-test size, same layout and h


WORKLOADS = {
    # Two ~1 MB arrays sit in one core's L2: per-call overhead sets the
    # rates; the x split makes halo packing strided.
    "cache-resident": Workload((48, 48, 48), (2, 1, 1), 4, 4, (16, 16, 16)),
    # 57 MB per array, 14x the L2: the naive sweep streams from memory.
    "memory-bound": Workload((192, 192, 192), (1, 1, 2), 4, 2, (24, 24, 24)),
    # Each rank owns 128x128x8 and ships whole planes for little compute.
    "halo-bound": Workload((128, 128, 16), (1, 1, 2), 2, 16, (32, 32, 8)),
}


@dataclass
class Engine:
    name: str
    call: Callable[[], object]          # one timed public call
    field: Callable[[object], np.ndarray]  # its output, to check
    levels: int                         # time levels one call delivers
    start: int                          # level reached by the warm-up
    restarts: bool = False              # each call starts from the pattern
    calls: int = 0

    def level(self) -> int:
        """Level the output of call number ``calls`` must match."""
        return self.levels if self.restarts else self.start + self.calls * self.levels


def build_engines(m: dict, wl: Workload, dims, seed: int) -> list[Engine]:
    """Allocate every engine's grid and make its warm-up call."""
    grid, kernel, pipeline, decomp = (m[k] for k in
                                      ("grid", "kernel", "pipeline", "decomp"))
    gd = grid.GridDims(*dims)
    pattern = grid.FillPattern.random(seed)
    base = pipeline.PipelineConfig(teams=1, team_size=TEAM_SIZE,
                                   updates_per_thread=UPDATES)
    relaxed = replace(base, block=pipeline.default_block_size(gd, base))
    U = relaxed.levels_per_sweep
    engines = []

    def stepping(name, g, warm, step, levels, start):
        warm()
        engines.append(Engine(name, step, lambda _: g.interior(), levels,
                              start))

    def twogrid():
        return grid.allocate(gd, "twogrid", pattern)

    g = twogrid()
    step = lambda g=g: kernel.sweep_naive(g)
    stepping("naive", g, step, step, 1, 1)
    g = twogrid()
    step = lambda g=g: kernel.sweep_spatial_blocked(g, relaxed.block)
    stepping("blocked", g, step, step, 1, 1)
    for name, cfg in (("pipeline", relaxed),
                      ("pipeline_barrier", replace(relaxed, sync="barrier"))):
        g = twogrid()
        step = lambda g=g, c=cfg: pipeline.run_node_sweeps(g, c, 1)
        stepping(name, g, step, step, U, U)
    # The warm-up sweep moves the origin down by U; each timed call makes an
    # even number of sweeps, which brings it back, so a slack of 2U suffices.
    comp = replace(relaxed, storage="compressed")
    g = grid.allocate(gd, "compressed", pattern, slack=2 * U)
    stepping("compressed", g,
             lambda g=g: pipeline.run_node_sweeps(g, comp, 1),
             lambda g=g: pipeline.run_node_sweeps(g, comp, 2), 2 * U, U)

    dec = decomp.decompose(gd, int(np.prod(wl.layout)), wl.layout, wl.halo)
    one = pipeline.PipelineConfig(teams=1, team_size=1,
                                  updates_per_thread=wl.halo)
    dcfg = replace(one, block=pipeline.default_block_size(dec.local_dims(0), one))
    decomp.run_distributed(gd, pattern, wl.layout, dcfg, 1)
    engines.append(Engine(
        "dist",
        lambda: decomp.run_distributed(gd, pattern, wl.layout, dcfg,
                                       wl.outer_steps),
        lambda res: res[0], wl.outer_steps * wl.halo, 0, restarts=True))
    return engines


def setup(wl: Workload, dims, seed: int, tracer: Tracer | None = None):
    """Import the package afresh and build every engine; returns
    (modules, engines, seconds)."""
    t0 = time.perf_counter()
    m = import_stencilpipe(fresh=True)
    if tracer is not None:
        tracer.install(m)
    try:
        engines = build_engines(m, wl, dims, seed)
    finally:
        if tracer is not None:
            tracer.uninstall()
    return m, engines, time.perf_counter() - t0


@dataclass
class Output:
    engine: str
    level: int
    obs: Observation
    call: int | None        # traced call id


@dataclass
class Ledger:
    """Every call made, what it returned, and what failed."""
    outputs: list[Output] = field(default_factory=list)
    failures: list[dict] = field(default_factory=list)
    attempted: int = 0


def run_rounds(engines, cells: int, seconds: float, ledger: Ledger,
               tracer: Tracer | None = None, peak: dict | None = None,
               min_rounds: int = MIN_ROUNDS):
    """Whole rounds until ``seconds`` have passed; returns per-engine MLUP/s
    samples, one per successful call.  With ``peak``, each call's peak
    numpy allocation is recorded there, by engine."""
    rates = {e.name: [] for e in engines}
    rounds = 0
    deadline = time.perf_counter() + seconds
    while rounds < min_rounds or time.perf_counter() < deadline:
        for e in engines:
            e.calls += 1
            ledger.attempted += 1
            cid = None
            if peak is not None:
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
            try:
                t0 = time.perf_counter()
                if tracer is None:
                    res = e.call()
                else:
                    res, cid = tracer.engine_call(e.name, e.call)
                dt = time.perf_counter() - t0
            except Exception as exc:  # a failed call is counted, not fatal
                ledger.failures.append({
                    "engine": e.name, "call": e.calls, "error": repr(exc),
                    "traceback": traceback.format_exc()})
                continue
            if peak is not None:
                peak.setdefault(e.name, []).append(
                    tracemalloc.get_traced_memory()[1] - base)
            rates[e.name].append(cells * e.levels / dt / 1e6)
            ledger.outputs.append(Output(e.name, e.level(), observe(e.field(res)),
                                         cid))
        rounds += 1
    return rates


def reference(dims, seed: int, levels) -> tuple[dict, float, float]:
    """Digests by level, and the initial range, from the reference process."""
    req = json.dumps({"dims": list(dims), "seed": seed,
                      "levels": sorted(set(levels))})
    proc = subprocess.run([sys.executable, str(HERE / "reference.py")],
                          input=req, capture_output=True, text=True,
                          timeout=150)
    if proc.returncode != 0:
        raise RuntimeError(f"reference process failed:\n{proc.stderr}")
    out = json.loads(proc.stdout)
    return ({int(k): v for k, v in out["digests"].items()},
            out["lo"], out["hi"])


def check(ledger: Ledger, dims, seed: int) -> set:
    """Check every output; failed ones join ``ledger.failures``.  Returns the
    traced call ids that passed."""
    digests, lo, hi = reference(dims, seed, [o.level for o in ledger.outputs])
    passed = set()
    for o in ledger.outputs:
        found = problems(o.obs, digests[o.level], lo, hi)
        if found:
            ledger.failures.append({"engine": o.engine, "level": o.level,
                                    "check": found})
        elif o.call is not None:
            passed.add(o.call)
    return passed


def machine() -> dict:
    return {"cores": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "platform": platform.platform(),
            "machine": platform.machine()}


def worker(workload: str, dims, seed: int, seconds: float) -> dict:
    """One worker process: a timed set-up, then rounds for ``seconds``."""
    _, engines, setup_s = setup(WORKLOADS[workload], tuple(dims), seed)
    ledger = Ledger()
    rates = run_rounds(engines, int(np.prod(dims)), seconds, ledger)
    return {
        "setup_s": setup_s, "rates": rates,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        * 1024 / 1e6,
        "outputs": [(o.engine, o.level, asdict(o.obs))
                    for o in ledger.outputs],
        "failures": ledger.failures, "attempted": ledger.attempted}


def in_worker(workload: str, dims, seed: int, seconds: float) -> dict:
    """Run ``worker`` in a child process of its own and wait for it.

    A plain subprocess rather than multiprocessing: the spawn start method
    leaves a resource-tracker process behind that outlives the benchmark.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--worker",
           "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--dims", *map(str, dims)]
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=seconds + 150)
    if proc.returncode != 0:
        raise RuntimeError(f"worker failed:\n{proc.stderr}")
    out = json.loads(proc.stdout.splitlines()[-1])
    out["outputs"] = [(e, level, Observation(**obs))
                      for e, level, obs in out["outputs"]]
    return out


def untraced(workload: str, dims, seed: int, seconds: float, ledger: Ledger):
    """End-to-end metrics from WORKERS fresh processes run one after
    another, each with its own set-up and a share of the seconds; one
    sample per worker of every metric.  Returns (samples, units, calls),
    ``calls`` being every worker's per-call rates.

    An engine's sample is its worker's best call rate, that is its least
    call time, as ``timeit`` advises: on a shared two-vCPU VM, host load
    slows calls and never speeds them up.  Bursts of CPU steal cut the
    two-thread engines' rates by a third to a half for tens of seconds
    while the one-thread engines held, and moved the upper quartile of
    per-call rates by up to 0.45 of its median between runs.  The median
    over workers keeps one odd process (page placement of the naive
    sweep's temporaries moved its rate between 35 and 48 MLUP/s) from
    setting the figure.
    """
    samples = {f"{e}_mlups": [] for e in layers.ENGINES}
    samples.update(setup_s=[], peak_rss_mb=[])
    calls = []
    for _ in range(WORKERS):
        out = in_worker(workload, dims, seed, seconds / WORKERS)
        samples["setup_s"].append(out["setup_s"])
        samples["peak_rss_mb"].append(out["rss_mb"])
        for e, v in out["rates"].items():
            if v:       # an engine whose every call failed has no sample
                samples[f"{e}_mlups"].append(max(v))
        calls.append(out["rates"])
        ledger.outputs += [Output(e, level, obs, None)
                           for e, level, obs in out["outputs"]]
        ledger.failures += out["failures"]
        ledger.attempted += out["attempted"]
    check(ledger, dims, seed)
    units = {k: "MLUP/s" for k in samples}
    units.update(setup_s="s", peak_rss_mb="MB")
    return samples, units, calls


def traced(workload: str, dims, seed: int, seconds: float, ledger: Ledger,
           tiny: bool):
    """Per-layer metrics from one process: calibration, a traced set-up,
    untraced rounds, one tracemalloc round, then traced rounds."""
    wl = WORKLOADS[workload]
    samples = layers.calibrate(tiny)
    set_up = Tracer()
    m, engines, _ = setup(wl, dims, seed, tracer=set_up)
    alloc_s = sum(s.dur for s in set_up.spans if s.name == "grid.allocate")
    cells = int(np.prod(dims))
    plain = run_rounds(engines, cells, seconds / 2, ledger)
    # One round under tracemalloc gives the peak allocations; it slows every
    # Python allocation, so the spans are timed in later rounds without it.
    peak = {}
    tracemalloc.start()
    try:
        run_rounds(engines, cells, 0, ledger, peak=peak, min_rounds=1)
    finally:
        tracemalloc.stop()
    tracer = Tracer()
    tracer.install(m)
    try:
        spanned = run_rounds(engines, cells, seconds / 2, ledger, tracer)
    finally:
        tracer.uninstall()
    ok = check(ledger, dims, seed)
    calls = {cid: eng for cid, eng in tracer.calls.items() if cid in ok}
    samples.update(layers.span_samples(tracer.spans, calls,
                                       tracer.gate_counts(),
                                       cells * wl.outer_steps * wl.halo))
    for e, v in peak.items():
        samples[f"kernel.peak_alloc_mb.{e}"] = [b / 1e6 for b in v]
    samples["grid.alloc_s"] = [alloc_s]
    med = lambda v: statistics.median(v) if v else 0.0
    for e in layers.ENGINES:
        samples[f"trace.overhead.{e}"] = [
            med(plain[e]) / med(spanned[e]) - 1 if spanned[e] else 0.0]
    bw = {k: med(samples[k]) for k in
          ("model.mem_bw_single_gbs", "model.mem_bw_saturated_gbs",
           "model.cache_bw_gbs")}
    for k, v in layers.model_metrics(m["model"], bw, med(plain["naive"]),
                                     med(plain["pipeline"]), TEAM_SIZE,
                                     UPDATES).items():
        samples[k] = [v]
    return samples, layers.UNITS, tracer.spans


def write_spans(path: Path, spans) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["sid", "name", "call", "start", "end", "thread", "parent",
                    "value"])
        for s in spans:
            w.writerow([s.sid, s.name, s.call, f"{s.start:.9f}",
                        f"{s.end:.9f}", s.thread, s.parent, s.value])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="length of the timed phase")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="self-test size: every workload in seconds")
    ap.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--dims", type=int, nargs=3, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.worker:     # one of the untraced run's child processes
        print(json.dumps(worker(args.workload, args.dims, args.seed,
                                args.seconds)))
        return 0
    try:
        import_stencilpipe()
    except MissingSources as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    dims = wl.tiny_dims if args.tiny else wl.dims
    ledger = Ledger()
    if args.trace:
        samples, units, spans = traced(args.workload, dims, args.seed,
                                       args.seconds, ledger, args.tiny)
        names = [name for name, _, _ in layers.SPEC]
        calls = None
    else:
        samples, units, calls = untraced(args.workload, dims, args.seed,
                                         args.seconds, ledger)
        names, spans = list(samples), None
    stats = {k: layers.summary(samples[k]) if samples.get(k) else None
             for k in names}
    failed = len(ledger.failures)
    correct = not any("check" in f for f in ledger.failures)
    result = {
        "correct": correct, "attempted": ledger.attempted, "failed": failed,
        "metrics": {k: {"value": stats[k]["median"] if stats[k] else 0.0,
                        "unit": units[k]} for k in names},
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    record = {"machine": machine(), "args": vars(args), "workload": asdict(wl),
              "dims": list(dims), "workers": WORKERS,
              "correct": correct, "attempted": ledger.attempted,
              "failed": failed, "failures": ledger.failures,
              "metrics": {k: dict(stats[k] or {}, unit=units[k])
                          for k in names}}
    if calls is not None:
        record["samples"] = samples     # one per worker
        record["calls"] = calls         # per-call rates, worker by worker
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if spans is not None:
        write_spans(OUT / f"{stem}_spans.csv", spans)
    for f in ledger.failures:
        print(f"perfbench: failed: {f.get('error') or f.get('check')} "
              f"({f['engine']})", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
