"""Per-layer metrics: the traced run's spans folded into figures per layer,
plus the bandwidth calibration that feeds the package's model.

Span-based figures are taken per engine call and reported as the median
over the traced calls, with the sample count and quartiles in the run
record.  Engine-specific names end in the engine's name; a figure exists
only for the engines that reach its layer.
"""

from __future__ import annotations

import statistics
import threading
import time
from collections import Counter, defaultdict

import numpy as np

ENGINES = ("naive", "blocked", "pipeline", "pipeline_barrier", "compressed",
           "dist")
PIPELINED = ("pipeline", "pipeline_barrier", "compressed", "dist")
GATED = ("pipeline", "compressed", "dist")        # relaxed sync: may_proceed
BYTES_PER_UPDATE = 16                             # one load, one store

# (name, unit, better) for every per-layer metric, in report order.
SPEC = (
    [(f"kernel.{m}.{e}", u, b) for e in ENGINES for m, u, b in (
        ("calls", "count/call", "lower"),
        ("cells", "cells/call", "lower"),
        ("busy_s", "s/call", "lower"),
        ("mlups", "MLUP/s", "higher"),
        ("bytes_computed", "B/call", "lower"),
        ("peak_alloc_mb", "MB", "lower"))]
    + [("grid.alloc_s", "s", "lower"),
       ("grid.evaluate_calls.compressed", "count/call", "lower"),
       ("grid.evaluate_s.compressed", "s/call", "lower"),
       ("grid.pack_s", "s/call", "lower"),
       ("grid.unpack_s", "s/call", "lower"),
       ("grid.halo_bytes", "B/call", "lower")]
    + [(f"pipeline.{m}.{e}", u, b) for e in PIPELINED for m, u, b in (
        ("runs", "count/call", "lower"),
        ("schedule_builds", "count/call", "lower"),
        ("schedule_s", "s/call", "lower"),
        ("wait_s", "s/call", "lower"),
        ("compute_share", "ratio", "higher"))]
    + [(f"pipeline.{m}.{e}", u, b) for e in GATED for m, u, b in (
        ("gate_checks", "count/call", "lower"),
        ("gate_pass_ratio", "ratio", "higher"))]
    + [("decomp.exchange_calls", "count/call", "lower"),
       ("decomp.exchange_s", "s/call", "lower"),
       ("decomp.outer_step_s", "s/call", "lower"),
       ("decomp.exchange_share", "ratio", "lower"),
       ("decomp.useful_ratio", "ratio", "higher")]
    + [("transport.messages", "count/call", "lower"),
       ("transport.bytes", "B/call", "lower"),
       ("transport.send_s", "s/call", "lower"),
       ("transport.encode_s", "s/call", "lower"),
       ("transport.decode_s", "s/call", "lower"),
       ("transport.recv_wait_s", "s/call", "lower")]
    + [("model.mem_bw_single_gbs", "GB/s", "higher"),
       ("model.mem_bw_saturated_gbs", "GB/s", "higher"),
       ("model.cache_bw_gbs", "GB/s", "higher"),
       ("model.baseline_pred_mlups", "MLUP/s", "higher"),
       ("model.pipeline_pred_speedup", "ratio", "higher"),
       ("model.pipeline_speedup_vs_pred", "ratio", "higher")]
    + [(f"trace.overhead.{e}", "ratio", "lower") for e in ENGINES]
)
UNITS = {name: unit for name, unit, _ in SPEC}


def summary(samples) -> dict:
    """Sample count, median and quartiles of one metric's samples."""
    v = sorted(float(x) for x in samples)
    med = statistics.median(v)
    q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (med, med, med)
    return {"n": len(v), "median": med, "q1": q1, "q3": q3}


def span_samples(spans, calls: dict, gates: Counter,
                 dist_updates: int) -> dict[str, list]:
    """Per-call samples of every span-based metric.

    ``calls`` maps each traced engine call that succeeded to its engine, and
    ``dist_updates`` is the interior updates one ``dist`` call delivers.
    """
    by_call = defaultdict(list)
    for s in spans:
        if s.call in calls and s.name != "engine.call":
            by_call[s.call].append(s)
    out = defaultdict(list)
    for call, e in calls.items():
        dur, count, value = defaultdict(float), Counter(), defaultdict(float)
        thread_s = 0.0
        for s in by_call[call]:
            dur[s.name] += s.dur
            count[s.name] += 1
            value[s.name] += s.value
            if s.name == "pipeline.run":
                thread_s += s.dur * s.value
        cells, busy = value["kernel.region"], dur["kernel.region"]
        add = lambda name, v: out[name].append(v)
        add(f"kernel.calls.{e}", count["kernel.region"])
        add(f"kernel.cells.{e}", cells)
        add(f"kernel.busy_s.{e}", busy)
        add(f"kernel.mlups.{e}", cells / busy / 1e6 if busy else 0.0)
        add(f"kernel.bytes_computed.{e}", BYTES_PER_UPDATE * cells)
        if e in PIPELINED:
            # Thread-seconds inside run_node_sweeps that are neither kernel
            # nor schedule construction: spins, barriers, thread start/join.
            add(f"pipeline.runs.{e}", count["pipeline.run"])
            add(f"pipeline.schedule_builds.{e}", count["pipeline.schedule"])
            add(f"pipeline.schedule_s.{e}", dur["pipeline.schedule"])
            add(f"pipeline.wait_s.{e}",
                thread_s - busy - dur["pipeline.schedule"])
            add(f"pipeline.compute_share.{e}",
                busy / thread_s if thread_s else 0.0)
        if e in GATED:
            passed, refused = gates[(call, True)], gates[(call, False)]
            add(f"pipeline.gate_checks.{e}", passed + refused)
            add(f"pipeline.gate_pass_ratio.{e}",
                passed / (passed + refused) if passed + refused else 0.0)
        if e == "compressed":
            add("grid.evaluate_calls.compressed", count["grid.evaluate"])
            add("grid.evaluate_s.compressed", dur["grid.evaluate"])
        if e == "dist":
            ex, step = dur["decomp.exchange"], dur["decomp.outer_step"]
            add("grid.pack_s", dur["grid.pack"])
            add("grid.unpack_s", dur["grid.unpack"])
            add("grid.halo_bytes", value["grid.pack"])
            add("decomp.exchange_calls", count["decomp.exchange"])
            add("decomp.exchange_s", ex)
            add("decomp.outer_step_s", step)
            add("decomp.exchange_share", ex / (ex + step) if ex + step else 0.0)
            add("decomp.useful_ratio", dist_updates / cells if cells else 0.0)
            add("transport.messages", count["transport.send"])
            add("transport.bytes", value["transport.encode"])
            add("transport.send_s", dur["transport.send"])
            add("transport.encode_s", dur["transport.encode"])
            add("transport.decode_s", dur["transport.decode"])
            add("transport.recv_wait_s",
                dur["transport.recv"] - dur["transport.decode"])
    return dict(out)


# -- model layer ---------------------------------------------------------

MEM_BYTES = 128 << 20     # per array: 32x the 4 MiB L2, past the copy knee
CACHE_BYTES = 1 << 20     # per array: source plus destination fit in L2


def _copy_gbs(nbytes: int, threads: int, inner: int, reps: int) -> list[float]:
    """STREAM-style copy rate, counting one read and one write per byte."""
    src = np.full(nbytes // 8, 1.0)
    dst = np.zeros_like(src)
    edges = [src.size * i // threads for i in range(threads + 1)]
    parts = [(src[a:b], dst[a:b]) for a, b in zip(edges, edges[1:])]

    def work(a, b):
        for _ in range(inner):
            np.copyto(b, a)

    work(src, dst)
    rates = []
    for _ in range(reps):
        t0 = time.perf_counter()
        if threads == 1:
            work(src, dst)
        else:
            ths = [threading.Thread(target=work, args=p) for p in parts]
            for th in ths:
                th.start()
            for th in ths:
                th.join()
        rates.append(2 * nbytes * inner / (time.perf_counter() - t0) / 1e9)
    return rates


def calibrate(tiny: bool = False) -> dict[str, list]:
    """Copy bandwidth samples in GB/s: one and two threads on arrays far
    beyond L2, and one thread inside L2."""
    mem = (8 << 20) if tiny else MEM_BYTES
    return {
        "model.mem_bw_single_gbs": _copy_gbs(mem, 1, 2, 9),
        "model.mem_bw_saturated_gbs": _copy_gbs(mem, 2, 2, 9),
        "model.cache_bw_gbs": _copy_gbs(CACHE_BYTES, 1, 256, 9),
    }


def model_metrics(model, bw: dict, naive_mlups: float,
                  pipeline_mlups: float, t: int, T: int) -> dict[str, float]:
    """The package's predictions from the calibrated bandwidths, next to the
    measured pipeline-over-naive speed-up."""
    params = model.MachineParams(
        mem_bw_saturated=bw["model.mem_bw_saturated_gbs"] * 1e9,
        mem_bw_single=bw["model.mem_bw_single_gbs"] * 1e9,
        cache_bw=bw["model.cache_bw_gbs"] * 1e9)
    pred = model.pipelined_speedup(params, t, T)
    return {
        "model.baseline_pred_mlups":
            model.baseline_perf(params.mem_bw_saturated) / 1e6,
        "model.pipeline_pred_speedup": pred,
        "model.pipeline_speedup_vs_pred": pipeline_mlups / naive_mlups / pred,
    }
