import math

import pytest

from stencilpipe.model import (BYTES_PER_UPDATE, MachineParams, NetworkParams,
                               baseline_perf, efficiency, multihalo_ratio,
                               multihalo_time, pipelined_speedup)

MACHINE = MachineParams()
NET = NetworkParams()


def team_block_time(params, t, T):
    """Seconds per cell for a team's t*T block updates: one memory transit
    plus t*T - 1 cache transits."""
    return (BYTES_PER_UPDATE / params.mem_bw_single) * (
        1.0 + (t * T - 1) * params.mem_bw_single / params.cache_bw)

# Golden (ratio, efficiency) table for the default network parameters,
# computed independently with plain-float arithmetic and frozen.
GOLDEN = {
    8: [(1.68210468622, 0.0517950123321), (2.1582278481, 0.131504922644),
        (1.60052151239, 0.281616688396), (0.62597521799, 0.459741981541),
        (0.155263673789, 0.627429156838)],
    16: [(1.3468108447, 0.194483623257), (1.39151554404, 0.289183937824),
         (1.00408926276, 0.397710012852), (0.47529242596, 0.52119569726),
         (0.148211383165, 0.654930822328)],
    32: [(1.06734023248, 0.441855902693), (0.990983606557, 0.494080145719),
         (0.769546306446, 0.546129636833), (0.460966542751, 0.613266397653),
         (0.194177442777, 0.701544309388)],
    64: [(0.985982610367, 0.660085507038), (0.92031350886, 0.676537054308),
         (0.787546715166, 0.695229105755), (0.578913373967, 0.723717870973),
         (0.330530494261, 0.76859467533)],
    128: [(0.982391940309, 0.805682430516), (0.942287757852, 0.809857411055),
          (0.864851508044, 0.815592481253), (0.72992436979, 0.825467245032),
          (0.527687875498, 0.843000283598)],
    512: [(0.994336605599, 0.944476701065), (0.983004352113, 0.944718595462),
          (0.960715582419, 0.945146754369), (0.917795562817, 0.945969521144),
          (0.83831619779, 0.947572240984)],
}
HALOS = (2, 4, 8, 16, 32)


def test_baseline_point_value():
    # 37 GB/s at 16 bytes per update -> 2.3125 GLUP/s exactly
    assert baseline_perf(37.0e9) == 2.3125e9
    assert baseline_perf(MACHINE.mem_bw_saturated) == 1.25e9


def test_baseline_rejects_nonpositive():
    with pytest.raises(ValueError):
        baseline_perf(0.0)


def test_speedup_closed_form():
    # with the 1:8 single:cache ratio, speedup(t*T) = 16*tT / (14 + 2*tT)
    for t, T in ((4, 1), (4, 2), (2, 4), (4, 4)):
        tt = t * T
        want = (MACHINE.mem_bw_single / MACHINE.mem_bw_saturated) * tt / (
            1.0 + (tt - 1) / 8.0)
        assert pipelined_speedup(MACHINE, t, T) == want


def test_speedup_point_values():
    assert math.isclose(pipelined_speedup(MACHINE, 4, 1), 16.0 / 11.0,
                        rel_tol=1e-12)
    assert math.isclose(pipelined_speedup(MACHINE, 4, 2), 32.0 / 15.0,
                        rel_tol=1e-12)
    assert math.isclose(pipelined_speedup(MACHINE, 4, 4), 64.0 / 23.0,
                        rel_tol=1e-12)


def test_speedup_asymptote():
    # large pipelines approach the cache:saturated bandwidth ratio (4x)
    limit = MACHINE.cache_bw / MACHINE.mem_bw_saturated
    assert abs(pipelined_speedup(MACHINE, 1000, 1000) - limit) < 1e-3
    assert pipelined_speedup(MACHINE, 1000, 1000) < limit


def test_speedup_monotone_in_pipeline_depth():
    prev = 0.0
    for tt in range(1, 65):
        cur = pipelined_speedup(MACHINE, tt, 1)
        assert cur > prev
        prev = cur


def test_block_time_and_speedup_identity():
    # time per update * speedup * baseline rate == t*T updates' worth
    for t, T in ((1, 1), (2, 2), (4, 2), (8, 4)):
        per_cell = team_block_time(MACHINE, t, T)
        s = pipelined_speedup(MACHINE, t, T)
        ident = per_cell * s / (t * T) * baseline_perf(MACHINE.mem_bw_saturated)
        assert math.isclose(ident, 1.0, rel_tol=1e-12)


def test_block_time_single_thread_is_memory_bound():
    # one thread, one level: a single-core memory transit against the
    # saturated baseline
    assert pipelined_speedup(MACHINE, 1, 1) == \
        MACHINE.mem_bw_single / MACHINE.mem_bw_saturated


def test_params_validation():
    with pytest.raises(ValueError):
        MachineParams(cache_bw=0.0)
    with pytest.raises(ValueError):
        NetworkParams(latency=-1.0)
    with pytest.raises(ValueError):
        pipelined_speedup(MACHINE, 0, 1)
    with pytest.raises(ValueError):
        multihalo_time(0, 2, NET)


def test_multihalo_update_counts():
    # by hand: h=2, L=4 -> levels update 6^3 and 4^3 cells, 280 total
    cost = multihalo_time(4, 2, NET)
    assert math.isclose(cost.compute_s, 280.0 / NET.node_rate, rel_tol=1e-12)
    assert math.isclose(cost.bulk_s, 128.0 / NET.node_rate, rel_tol=1e-12)
    # h=1 has no extra face work
    assert multihalo_time(64, 1, NET).face_s == 0.0


def test_multihalo_comm_terms():
    # per phase: both faces, latency plus h layers over the slab area;
    # later phases carry the ghost extensions of earlier ones
    L, h = 16, 4
    areas = (L * L, (L + 2 * h) * L, (L + 2 * h) ** 2)
    want = sum(2.0 * (NET.latency + 8.0 * h * a / NET.bandwidth)
               for a in areas)
    assert math.isclose(multihalo_time(L, h, NET).comm_s, want, rel_tol=1e-12)


def test_single_layer_ratio_is_one():
    for L in (8, 64, 512):
        assert multihalo_ratio(L, 1, NET) == 1.0


def test_large_domains_wash_out_halo_choice():
    # at L = 10^4 the ratio returns to 1 for moderate halo depths; deep
    # halos keep ~3(h-1)/L of extra face work, so h=32 sits just outside
    # a 0.5% band (0.991) -- checked in the acceptance suite
    for h in (2, 4, 8, 16):
        assert abs(multihalo_ratio(10_000, h, NET) - 1.0) < 5e-3


def test_small_domains_profit_from_aggregation():
    # latency dominates tiny messages; batching h layers wins for
    # moderate depths before the extra face work takes over
    assert multihalo_ratio(8, 4, NET) > 1.5
    assert multihalo_ratio(16, 2, NET) > 1.0
    assert multihalo_ratio(64, 32, NET) < 1.0


def test_efficiency_monotone_in_domain_size():
    for h in HALOS:
        effs = [efficiency(L, h, NET) for L in (8, 16, 32, 64, 128, 512)]
        assert all(a < b for a, b in zip(effs, effs[1:]))
        assert all(0.0 < e <= 1.0 for e in effs)


def test_face_share_vanishes_for_large_domains():
    cost = multihalo_time(4096, 4, NET)
    assert cost.face_s / cost.compute_s < 0.01


def test_golden_table():
    for L, rows in GOLDEN.items():
        for h, (ratio, eff) in zip(HALOS, rows):
            assert math.isclose(multihalo_ratio(L, h, NET), ratio,
                                rel_tol=1e-9), (L, h)
            assert math.isclose(efficiency(L, h, NET), eff,
                                rel_tol=1e-9), (L, h)
