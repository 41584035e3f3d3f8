"""Analytic performance models.

Three families:

* the memory-bandwidth bound for the baseline Jacobi sweep
  (16 bytes of memory traffic per cell update),
* the single-cache diagnostic model for the pipelined scheme, where a
  team's t*T block updates cost one memory transit plus t*T - 1 cache
  transits,
* a latency/bandwidth cost model for multi-layer halo exchange on cubic
  subdomains, split into bulk updates, extra face updates, and the three
  sequential exchange phases (both faces of a phase costed one after the
  other, no duplex credit, no compute/communication overlap).

All functions are pure; bandwidths are bytes/s (decimal GB), times are
seconds, rates are cell updates per second.
"""

from __future__ import annotations

from dataclasses import dataclass

BYTES_PER_UPDATE = 16.0  # one 8-byte load + one 8-byte store per cell


@dataclass(frozen=True)
class MachineParams:
    """Memory/cache bandwidths of one shared-cache group.

    Defaults follow the saturated:single:cache = 2:1:8 ratios with a
    10 GB/s single-threaded memory bandwidth.
    """
    mem_bw_saturated: float = 20.0e9   # all cores streaming together
    mem_bw_single: float = 10.0e9      # one core streaming alone
    cache_bw: float = 80.0e9           # shared-cache transfer rate

    def __post_init__(self):
        if min(self.mem_bw_saturated, self.mem_bw_single, self.cache_bw) <= 0:
            raise ValueError("bandwidths must be positive")


@dataclass(frozen=True)
class NetworkParams:
    """Interconnect and node parameters; defaults model a QDR fabric."""
    bandwidth: float = 3.2e9       # unidirectional bytes/s
    latency: float = 1.8e-6        # seconds per message
    node_rate: float = 2.0e9       # cell updates/s, independent of subdomain size

    def __post_init__(self):
        if min(self.bandwidth, self.latency, self.node_rate) <= 0:
            raise ValueError("network parameters must be positive")


def baseline_perf(mem_bw_saturated: float) -> float:
    """Bandwidth-bound updates/s of the baseline sweep: saturated memory
    bandwidth divided by 16 bytes per update."""
    if mem_bw_saturated <= 0:
        raise ValueError("bandwidth must be positive")
    return mem_bw_saturated / BYTES_PER_UPDATE


def pipelined_speedup(params: MachineParams, t: int, T: int) -> float:
    """Expected speedup of pipelined blocking over the baseline sweep;
    approaches cache_bw / mem_bw_saturated for large t*T."""
    tt = t * T
    if tt < 1:
        raise ValueError("t*T must be >= 1")
    ratio = params.mem_bw_single / params.cache_bw
    return (params.mem_bw_single / params.mem_bw_saturated) * tt / (
        1.0 + (tt - 1) * ratio)


@dataclass(frozen=True)
class HaloCost:
    """Per-outer-step time breakdown for one cubic subdomain."""
    bulk_s: float        # h * L^3 interior updates
    face_s: float        # extra shrinking-update work beyond the interior
    comm_s: float        # three sequential exchange phases, both faces each

    @property
    def compute_s(self) -> float:
        return self.bulk_s + self.face_s

    @property
    def total_s(self) -> float:
        return self.bulk_s + self.face_s + self.comm_s


def _phase_areas(L: int, h: int) -> tuple[float, float, float]:
    # x slabs carry no extensions; y slabs include the x ghosts; z slabs both.
    return (float(L) * L, float(L + 2 * h) * L, float(L + 2 * h) ** 2)


def multihalo_time(L: int, h: int, net: NetworkParams) -> HaloCost:
    """Cost of one outer step (h time levels) on an L^3 subdomain."""
    if L < 1 or h < 1:
        raise ValueError("need L >= 1 and h >= 1")
    updates = sum(float(L + 2 * (h - s)) ** 3 for s in range(1, h + 1))
    bulk = h * float(L) ** 3 / net.node_rate
    face = updates / net.node_rate - bulk
    comm = sum(2.0 * (net.latency + 8.0 * h * area / net.bandwidth)
               for area in _phase_areas(L, h))
    return HaloCost(bulk_s=bulk, face_s=face, comm_s=comm)


def multihalo_ratio(L: int, h: int, net: NetworkParams) -> float:
    """Time for h sweeps with one-layer halos divided by the time with
    h-layer halos; values above 1 mean multi-layer exchange wins."""
    base = h * multihalo_time(L, 1, net).total_s
    return base / multihalo_time(L, h, net).total_s


def efficiency(L: int, h: int, net: NetworkParams) -> float:
    """Computation share of the total outer-step time, in (0, 1]."""
    cost = multihalo_time(L, h, net)
    return cost.compute_s / cost.total_s
