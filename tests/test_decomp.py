import struct
import threading
import time

import numpy as np
import pytest

from stencilpipe import decomp, pipeline, transport
from stencilpipe.decomp import (Decomposition, DecompositionError, decompose,
                                exchange_halos, level_domains_for_rank,
                                local_grid, outer_step, run_distributed)
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


def _sent_headers(d):
    """Every (sender, peer, header) of one exchange round over ``d``."""
    sent = []

    class RecordingEndpoint:
        def __init__(self, inner):
            self._inner = inner

        def send(self, peer, header, payload):
            sent.append((self._inner.rank, peer, header))
            self._inner.send(peer, header, payload)

        def recv(self, peer, expect):
            return self._inner.recv(peer, expect)

    def program(rank, ep):
        g = local_grid(d, rank, FillPattern.constant(0.0))
        exchange_halos(g, d, rank, RecordingEndpoint(ep), sweep=0)

    spawn_world(d.n_ranks, program)
    return sent


def test_halo_plan_geometry():
    # 6x5x7 cells per rank, h=2: the x slab is 2*5*7 cells, the y slab
    # spans the x ghosts (2*(6+4)*7) and the z slab the x and y ghosts
    # (2*(5+4)*(6+4)), 8 bytes a cell.
    d = decompose(GridDims(12, 10, 14), 8, (2, 2, 2), halo=2)
    sent = _sent_headers(d)
    assert len(sent) == 24
    for phase, nbytes in enumerate((560, 1120, 1440)):
        headers = [hd for _, _, hd in sent if hd.phase == phase]
        assert len(headers) == 8
        assert {hd.payload_len for hd in headers} == {nbytes}, phase
        assert {hd.depth for hd in headers} == {2}


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
        # local_grid fills the ghosts from the global pattern too: poison
        # them, so only the exchange can deliver the values checked below.
        interior = g.interior().copy()
        g.current[...] = np.nan
        g.interior()[...] = interior
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
    d = decompose(GridDims(12, 12, 12), 4, (2, 2, 1), halo=2)
    sent = [(rank, peer) for rank, peer, _ in _sent_headers(d)]
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


def test_level_domains_are_memoized():
    gd = GridDims(24, 24, 24)
    doms = level_domains_for_rank(decompose(gd, 2, (2, 1, 1), halo=3), 0, 3)
    again = level_domains_for_rank(decompose(gd, 2, (2, 1, 1), halo=3), 0, 3)
    assert type(doms) is tuple and again == doms and again is doms


def test_decomposition_with_a_list_layout(backends):
    gd = GridDims(12, 10, 8)
    d = Decomposition(gd, [2, 1, 1], 2)
    assert d.layout == (2, 1, 1)
    assert d == Decomposition(gd, (2, 1, 1), 2)
    assert hash(d) == hash(Decomposition(gd, (2, 1, 1), 2))
    assert level_domains_for_rank(d, 1, 2)[0] == ((0, 0, -1), (8, 10, 6))
    pat = FillPattern.random(61)
    ref = oracle(gd, pat, 4).interior()
    for backend in backends:
        gathered, _ = run_distributed(gd, pat, [2, 1, 1],
                                      PipelineConfig(updates_per_thread=2),
                                      outer_steps=2)
        assert compare(ref, gathered).bitwise, backend


def test_outer_step_requires_matching_halo():
    gd = GridDims(16, 16, 16)
    d = decompose(gd, 2, (2, 1, 1), halo=4)
    g = local_grid(d, 0, FillPattern.constant(0.0))
    with pytest.raises(DecompositionError):
        outer_step(g, d, 0, PipelineConfig(updates_per_thread=2))  # U=2


def test_distributed_serial_matches_oracle(backends):
    gd = GridDims(16, 16, 16)
    pat = FillPattern.random(37)
    ref = oracle(gd, pat, 6).interior()
    for backend in backends:
        gathered, _ = run_distributed(gd, pat, (2, 2, 1),
                                      PipelineConfig(updates_per_thread=2),
                                      outer_steps=3)
        assert compare(ref, gathered).bitwise, backend


def test_distributed_serial_thin_unsplit_axis(backends):
    # h = 3 exceeds the 2-cell z extent, which is never split: one block
    # per axis still tiles every level, serial or pipelined.
    gd = GridDims(16, 16, 2)
    pat = FillPattern.random(3)
    ref = oracle(gd, pat, 3).interior()
    for backend in backends:
        for cfg in (PipelineConfig(updates_per_thread=3),
                    PipelineConfig(team_size=3, updates_per_thread=1)):
            gathered, _ = run_distributed(gd, pat, (2, 1, 1), cfg,
                                          outer_steps=1)
            assert compare(ref, gathered).bitwise, (backend, cfg)


def test_distributed_pipelined_matches_oracle(backends):
    gd = GridDims(24, 24, 24)
    pat = FillPattern.random(43)
    cfg = PipelineConfig(teams=1, team_size=2, updates_per_thread=2,
                         block=(24, 8, 8))
    ref = oracle(gd, pat, 8).interior()
    for backend in backends:
        gathered, _ = run_distributed(gd, pat, (2, 1, 2), cfg, outer_steps=2)
        assert compare(ref, gathered).bitwise, backend


def test_distributed_hotplate_boundaries_survive(backends):
    # physical Dirichlet walls must stay pinned on ranks without neighbors
    gd = GridDims(16, 16, 16)
    pat = FillPattern.hotplate()
    ref = oracle(gd, pat, 8).interior()
    for backend in backends:
        gathered, _ = run_distributed(gd, pat, (2, 1, 1),
                                      PipelineConfig(updates_per_thread=4),
                                      outer_steps=2)
        assert compare(ref, gathered).bitwise, backend


def test_shuffled_phase_order_breaks_corners(monkeypatch):
    gd = GridDims(16, 16, 16)
    pat = FillPattern.random(47)
    cfg = PipelineConfig(updates_per_thread=2)
    ref = oracle(gd, pat, 4).interior()
    good, _ = run_distributed(gd, pat, (2, 2, 1), cfg, outer_steps=2)
    assert compare(ref, good).bitwise
    monkeypatch.setattr(decomp, "_ORDER", ("y", "x", "z"))
    bad, _ = run_distributed(gd, pat, (2, 2, 1), cfg, outer_steps=2)
    assert not compare(ref, bad).passed


@pytest.mark.parametrize("layout", [(2, 1, 1), (2, 2, 1)])
def test_rank_fields_are_views_of_the_gathered_field(layout):
    # Each rank writes its interior straight into its box of the gathered
    # field: no per-rank copy and no serial gather loop.
    gd = GridDims(12, 10, 8)
    pat = FillPattern.random(53)
    gathered, fields = run_distributed(gd, pat, layout,
                                       PipelineConfig(updates_per_thread=2),
                                       outer_steps=2)
    assert compare(oracle(gd, pat, 4).interior(), gathered).bitwise
    d = decompose(gd, len(fields), layout, 2)
    for rank, field in enumerate(fields):
        box = gathered[tuple(slice(lo, hi) for lo, hi in d.ranges(rank))]
        assert np.shares_memory(field, gathered), rank
        assert field.shape == box.shape and np.array_equal(field, box), rank


def test_distributed_rejects_compressed_config(monkeypatch):
    def no_world(*args):
        raise AssertionError("ranks started for a config that cannot run")

    monkeypatch.setattr(decomp, "spawn_world", no_world)
    gd = GridDims(16, 16, 16)
    cfg = PipelineConfig(teams=1, team_size=2, updates_per_thread=1,
                         storage="compressed")
    with pytest.raises(DecompositionError, match="two-grid storage"):
        run_distributed(gd, FillPattern.constant(0.0), (2, 1, 1), cfg,
                        outer_steps=1)


def test_mis_sized_halo_names_the_receiver(monkeypatch, run_bounded):
    # Rank 1's x slab loses one value.  Rank 0 expects the size of the
    # slab it sent to rank 1 and rejects the header.  Rank 1 rejects rank
    # 0's full-sized slab as well, and the lower rank is reported; the
    # pause lets rank 0 wait in recv first, so rank 1's abort cannot stop
    # rank 0 before it reads the short slab.
    extract = decomp.extract_layers

    def short(grid, face, depth, ext=None):
        buf = extract(grid, face, depth, ext)
        if threading.current_thread().name == "rank-1":
            time.sleep(0.05)
            return buf[:-1]
        return buf

    monkeypatch.setattr(decomp, "extract_layers", short)
    err = run_bounded(lambda: run_distributed(
        GridDims(16, 8, 8), FillPattern.random(5), (2, 1, 1),
        PipelineConfig(updates_per_thread=2), outer_steps=1))
    assert isinstance(err, TransportError)
    assert str(err).startswith("rank 0: header mismatch from 1:"), str(err)


def test_pipeline_failure_in_a_rank_names_rank_and_thread(monkeypatch,
                                                          run_bounded,
                                                          backends):
    # A 17-cell x split gives rank 0 nine columns and rank 1 eight; thread
    # 1 of rank 1 raises, rank 0 is torn down waiting for its next halo.
    # Under numpy thread 1 fails in its first block update, which applies
    # level 2 (T=1), under c in its per-sweep call.
    boom = FloatingPointError("boom in rank 1, thread 1")
    apply_levels = pipeline._apply_levels
    run_sweep_c = pipeline._Runner._run_sweep_c

    def failing(grid, sched, blk, levels):
        if grid.dims.nx == 8 and levels[0] == 2:
            raise boom
        apply_levels(grid, sched, blk, levels)

    def failing_call(self, i, sweep, sched):
        if self.grid.dims.nx == 8 and i == 1:
            raise boom
        run_sweep_c(self, i, sweep, sched)

    cfg = PipelineConfig(team_size=2, updates_per_thread=1)
    for backend in backends:
        with monkeypatch.context() as mp:
            if backend == "c":
                mp.setattr(pipeline._Runner, "_run_sweep_c", failing_call)
            else:
                mp.setattr(pipeline, "_apply_levels", failing)
            err = run_bounded(lambda: run_distributed(
                GridDims(17, 8, 8), FillPattern.random(71), (2, 1, 1), cfg,
                outer_steps=2))
        assert isinstance(err, TransportError)
        assert str(err).startswith("rank 1 failed: PipelineError(")
        assert "pipe 1 failed: FloatingPointError" in str(err)
        assert err.__cause__.__cause__ is boom


def test_rank_raising_between_halo_phases_names_the_rank(monkeypatch,
                                                         run_bounded):
    # Rank 1 fails while unpacking its y halo, after its x phase is done;
    # the ranks waiting on it are torn down and not reported.
    boom = FloatingPointError("boom in rank 1's y phase")
    inject = decomp.inject_layers

    def failing(grid, face, depth, buf, ext=None):
        if threading.current_thread().name == "rank-1" and face[1] == "y":
            raise boom
        inject(grid, face, depth, buf, ext)

    monkeypatch.setattr(decomp, "inject_layers", failing)
    err = run_bounded(lambda: run_distributed(
        GridDims(16, 16, 8), FillPattern.random(73), (2, 2, 1),
        PipelineConfig(updates_per_thread=2), outer_steps=2))
    assert isinstance(err, TransportError)
    assert str(err).startswith("rank 1 failed:"), str(err)
    assert err.__cause__ is boom


def _corrupt(raw: bytes, case: str) -> bytes:
    if case == "truncated":
        return raw[:10]
    bad = bytearray(raw)
    struct.pack_into("<I", bad, 0, 0xDEADBEEF)
    return bytes(bad)


@pytest.mark.parametrize("case, reason", [
    ("truncated", "truncated message header"),
    ("bad-magic", "bad magic 0xDEADBEEF"),
])
def test_corrupted_message_names_the_receiver(monkeypatch, run_bounded, case,
                                              reason):
    # Rank 1's first message, its x slab for rank 0, is corrupted on the
    # wire.  Rank 0 refuses it, naming itself and the sender; rank 1,
    # waiting for its next halo, is torn down and not reported.
    encode = transport.encode_message
    sent = []

    def corrupting(header, payload):
        raw = encode(header, payload)
        if threading.current_thread().name == "rank-1" and not sent:
            sent.append(header)
            return _corrupt(raw, case)
        return raw

    monkeypatch.setattr(transport, "encode_message", corrupting)
    err = run_bounded(lambda: run_distributed(
        GridDims(16, 8, 8), FillPattern.random(79), (2, 1, 1),
        PipelineConfig(updates_per_thread=2), outer_steps=2))
    assert isinstance(err, TransportError)
    assert str(err).startswith("rank 0: bad message from 1:"), str(err)
    assert str(err).endswith(reason)
