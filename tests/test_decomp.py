import threading

import numpy as np
import pytest

from stencilpipe import pipeline
from stencilpipe.decomp import (Decomposition, DecompositionError,
                                build_halo_plan, decompose, exchange_halos,
                                level_domains_for_rank, local_grid, outer_step,
                                run_distributed)
from stencilpipe.grid import FillPattern, GridDims
from stencilpipe.pipeline import PipelineConfig
from stencilpipe.transport import TransportError, spawn_world
from stencilpipe.verify import compare, oracle


def test_split_examples():
    d = decompose(GridDims(48, 48, 48), 2, (2, 1, 1), halo=2)
    assert d.ranges(0)[2] == (0, 24)
    assert d.ranges(1)[2] == (24, 48)
    # remainder goes to low-coordinate ranks
    d = decompose(GridDims(49, 48, 48), 2, (2, 1, 1), halo=2)
    assert d.ranges(0)[2] == (0, 25)
    assert d.ranges(1)[2] == (25, 49)


def test_rank_numbering_x_fastest():
    d = decompose(GridDims(48, 48, 48), 8, (2, 2, 2), halo=2)
    assert d.coords(0) == (0, 0, 0)
    assert d.coords(1) == (1, 0, 0)
    assert d.coords(2) == (0, 1, 0)
    assert d.coords(4) == (0, 0, 1)
    for r in range(8):
        assert d.rank_of(*d.coords(r)) == r


def test_neighbors():
    d = decompose(GridDims(48, 48, 48), 8, (2, 2, 2), halo=2)
    # rank 0 sits at the low corner: only high-side neighbors
    assert d.neighbor(0, 2, high=False) is None
    assert d.neighbor(0, 2, high=True) == 1
    assert d.neighbor(0, 1, high=True) == 2
    assert d.neighbor(0, 0, high=True) == 4
    assert d.neighbor(7, 2, high=False) == 6
    assert d.neighbor(7, 0, high=True) is None


def test_layout_validation():
    with pytest.raises(DecompositionError):
        decompose(GridDims(16, 16, 16), 4, (1, 1, 4), halo=8)
    with pytest.raises(DecompositionError):
        decompose(GridDims(16, 16, 16), 3, (2, 1, 1), halo=1)
    with pytest.raises(DecompositionError):
        Decomposition(GridDims(16, 16, 16), (2, 1, 1), halo=0)
    # an unsplit direction may be shorter than the halo
    decompose(GridDims(16, 16, 4), 2, (2, 1, 1), halo=8)


def test_local_dims_carry_halo_ghosts():
    d = decompose(GridDims(48, 32, 16), 2, (2, 1, 1), halo=4)
    ld = d.local_dims(0)
    assert (ld.nx, ld.ny, ld.nz, ld.ghost) == (24, 32, 16, 4)


def test_halo_plan_geometry():
    plan = build_halo_plan(3)
    assert [p.name for p in plan] == ["x", "y", "z"]
    by_name = {p.name: p for p in plan}
    assert by_name["x"].ext == ((0, 0), (0, 0), (0, 0))
    assert by_name["y"].ext == ((0, 0), (0, 0), (3, 3))
    assert by_name["z"].ext == ((0, 0), (3, 3), (3, 3))


def test_local_grid_matches_global_pattern():
    pat = FillPattern.random(19)
    gd = GridDims(12, 12, 12)
    d = decompose(gd, 2, (2, 1, 1), halo=2)
    g = local_grid(d, 1, pat)
    # rank 1 owns x in [6, 12); its interior must equal that global slice
    whole = pat.evaluate((0, 0, 0), gd.shape)
    assert np.array_equal(g.interior(), whole[:, :, 6:])


def test_exchange_fills_ghosts_including_corners():
    pat = FillPattern.linear()
    gd = GridDims(12, 12, 12)
    d = decompose(gd, 4, (2, 2, 1), halo=2)

    def program(rank, ep):
        g = local_grid(d, rank, pat)
        exchange_halos(g, d, rank, ep, sweep=0)
        return g.full_view().copy()

    fields = spawn_world(4, program)
    # after the exchange, the window extending h layers toward every
    # neighbor (corner regions included) must hold the exact linear field
    for rank, field in enumerate(fields):
        (z0, z1), (y0, y1), (x0, x1) = d.ranges(rank)
        h = d.halo
        ylo = y0 - h if d.neighbor(rank, 1, high=False) is not None else y0
        yhi = y1 + h if d.neighbor(rank, 1, high=True) is not None else y1
        xlo = x0 - h if d.neighbor(rank, 2, high=False) is not None else x0
        xhi = x1 + h if d.neighbor(rank, 2, high=True) is not None else x1
        want = pat.evaluate((z0, ylo, xlo), (z1, yhi, xhi))
        got = field[h:h + (z1 - z0),
                    h + (ylo - y0):h + (yhi - y0),
                    h + (xlo - x0):h + (xhi - x0)]
        assert np.array_equal(got, want), rank


def test_single_rank_needs_no_messages():
    pat = FillPattern.random(23)
    gd = GridDims(10, 10, 10)
    d = decompose(gd, 1, (1, 1, 1), halo=2)

    def program(rank, ep):
        g = local_grid(d, rank, pat)
        exchange_halos(g, d, rank, ep, sweep=0)
        outer_step(g, d, rank, PipelineConfig(updates_per_thread=2))
        return g.interior().copy()

    field = spawn_world(1, program)[0]
    assert compare(oracle(gd, pat, 2), field).bitwise


def test_message_count_per_round():
    gd = GridDims(12, 12, 12)
    d = decompose(gd, 4, (2, 2, 1), halo=2)
    sent = []

    class CountingEndpoint:
        def __init__(self, inner):
            self._inner = inner

        def send(self, peer, header, payload):
            sent.append((self._inner.rank, peer))
            self._inner.send(peer, header, payload)

        def recv(self, peer, expect):
            return self._inner.recv(peer, expect)

    def program(rank, ep):
        g = local_grid(d, rank, FillPattern.constant(0.0))
        exchange_halos(g, d, rank, CountingEndpoint(ep), sweep=0)

    spawn_world(4, program)
    # 2x2x1: every rank has exactly one x and one y neighbor -> 2 sends each
    assert len(sent) == 8
    assert len(set(sent)) == 8


def test_level_domains_shrink_toward_interior():
    gd = GridDims(24, 24, 24)
    d = decompose(gd, 2, (2, 1, 1), halo=3)
    doms = level_domains_for_rank(d, 0, 3)
    # rank 0: neighbor only on the high-x side; x widens by h-s there
    assert doms[0] == ((0, 0, 0), (24, 24, 14))
    assert doms[1] == ((0, 0, 0), (24, 24, 13))
    assert doms[2] == ((0, 0, 0), (24, 24, 12))


def test_outer_step_requires_matching_halo():
    gd = GridDims(16, 16, 16)
    d = decompose(gd, 2, (2, 1, 1), halo=4)
    g = local_grid(d, 0, FillPattern.constant(0.0))
    with pytest.raises(DecompositionError):
        outer_step(g, d, 0, PipelineConfig(updates_per_thread=2))  # U=2


def test_distributed_serial_matches_oracle():
    gd = GridDims(16, 16, 16)
    pat = FillPattern.random(37)
    gathered, _ = run_distributed(gd, pat, (2, 2, 1),
                                  PipelineConfig(updates_per_thread=2),
                                  outer_steps=3)
    assert compare(oracle(gd, pat, 6).interior(), gathered).bitwise


def test_distributed_serial_thin_unsplit_axis():
    # h = 3 exceeds the 2-cell z extent, which is never split: one block
    # per axis still tiles every level, serial or pipelined.
    gd = GridDims(16, 16, 2)
    pat = FillPattern.random(3)
    ref = oracle(gd, pat, 3).interior()
    for cfg in (PipelineConfig(updates_per_thread=3),
                PipelineConfig(team_size=3, updates_per_thread=1)):
        gathered, _ = run_distributed(gd, pat, (2, 1, 1), cfg, outer_steps=1)
        assert compare(ref, gathered).bitwise, cfg


def test_distributed_pipelined_matches_oracle():
    gd = GridDims(24, 24, 24)
    pat = FillPattern.random(43)
    cfg = PipelineConfig(teams=1, team_size=2, updates_per_thread=2,
                         block=(24, 8, 8))
    gathered, _ = run_distributed(gd, pat, (2, 1, 2), cfg, outer_steps=2)
    assert compare(oracle(gd, pat, 8).interior(), gathered).bitwise


def test_distributed_hotplate_boundaries_survive():
    # physical Dirichlet walls must stay pinned on ranks without neighbors
    gd = GridDims(16, 16, 16)
    pat = FillPattern.hotplate()
    gathered, _ = run_distributed(gd, pat, (2, 1, 1),
                                  PipelineConfig(updates_per_thread=4),
                                  outer_steps=2)
    assert compare(oracle(gd, pat, 8).interior(), gathered).bitwise


def test_shuffled_phase_order_breaks_corners():
    gd = GridDims(16, 16, 16)
    pat = FillPattern.random(47)
    cfg = PipelineConfig(updates_per_thread=2)
    good, _ = run_distributed(gd, pat, (2, 2, 1), cfg, outer_steps=2,
                              order=("x", "y", "z"))
    bad, _ = run_distributed(gd, pat, (2, 2, 1), cfg, outer_steps=2,
                             order=("y", "x", "z"))
    ref = oracle(gd, pat, 4).interior()
    assert compare(ref, good).bitwise
    assert not compare(ref, bad).passed


def test_distributed_rejects_compressed_config():
    gd = GridDims(16, 16, 16)
    cfg = PipelineConfig(teams=1, team_size=2, updates_per_thread=1,
                         storage="compressed")
    with pytest.raises(Exception):
        run_distributed(gd, FillPattern.constant(0.0), (2, 1, 1), cfg,
                        outer_steps=1)


def test_pipeline_failure_in_a_rank_names_rank_and_thread(monkeypatch,
                                                          run_bounded):
    # A 17-cell x split gives rank 0 nine columns and rank 1 eight; pipe-1
    # of rank 1 raises, rank 0 is torn down waiting for its next halo.
    boom = FloatingPointError("boom in rank 1, thread 1")
    apply_levels = pipeline._apply_levels

    def failing(grid, sched, blk, levels):
        if (grid.dims.nx == 8
                and threading.current_thread().name == "pipe-1"):
            raise boom
        apply_levels(grid, sched, blk, levels)

    monkeypatch.setattr(pipeline, "_apply_levels", failing)
    cfg = PipelineConfig(team_size=2, updates_per_thread=1)
    err = run_bounded(lambda: run_distributed(
        GridDims(17, 8, 8), FillPattern.random(71), (2, 1, 1), cfg,
        outer_steps=2))
    assert isinstance(err, TransportError)
    assert str(err).startswith("rank 1 failed: PipelineError(")
    assert "pipe 1 failed: FloatingPointError" in str(err)
    assert err.__cause__.__cause__ is boom
