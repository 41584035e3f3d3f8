import os
import signal
import struct
import sys
import threading
import time

import numpy as np
import pytest

from stencilpipe.transport import (HEADER_SIZE, MAGIC, Aborted,
                                   MessageHeader, TransportError,
                                   decode_message, encode_message, run_group,
                                   spawn_world)


def test_header_layout():
    header = MessageHeader(sweep=3, phase=1, side=0, depth=4, payload_len=16)
    raw = encode_message(header, np.array([1.0, 2.0]))
    assert len(raw) == HEADER_SIZE + 16
    magic, sweep, phase, side, depth, plen = struct.unpack_from("<IIBBHQ", raw)
    assert (magic, sweep, phase, side, depth, plen) == (MAGIC, 3, 1, 0, 4, 16)
    # payload is little-endian f64, x fastest
    assert raw[HEADER_SIZE:] == struct.pack("<2d", 1.0, 2.0)


def test_encode_decode_round_trip():
    payload = np.linspace(-1.0, 1.0, 37)
    header = MessageHeader(sweep=9, phase=2, side=1, depth=2,
                           payload_len=payload.nbytes)
    got_header, got_payload = decode_message(encode_message(header, payload))
    assert got_header == header
    assert np.array_equal(got_payload, payload)
    assert got_payload.dtype == np.dtype("<f8")


_PAYLOADS = {
    "empty": np.zeros(0),
    "odd-length": np.linspace(-3.0, 5.0, 7),
    # An x face of a (z, y, x) block: every element a row apart.
    "strided-x-face": np.arange(60.0).reshape(3, 4, 5)[:, :, :1],
}


@pytest.mark.parametrize("payload", list(_PAYLOADS.values()),
                         ids=list(_PAYLOADS))
def test_wire_format_is_header_then_values(payload):
    header = MessageHeader(sweep=7, phase=2, side=1, depth=3,
                           payload_len=payload.nbytes)
    raw = encode_message(header, payload)
    assert raw == struct.pack("<IIBBHQ", MAGIC, 7, 2, 1, 3, payload.nbytes) \
        + np.ascontiguousarray(payload).tobytes()
    got_header, got = decode_message(raw)
    assert got_header == header
    assert got.tobytes() == np.ascontiguousarray(payload).tobytes()
    _, got = decode_message(bytes(raw))
    assert got.tobytes() == np.ascontiguousarray(payload).tobytes()


def test_decode_rejects_a_partial_value():
    raw = encode_message(MessageHeader(0, 0, 0, 1, 8), np.array([0.5]))[:-1]
    struct.pack_into("<Q", raw, HEADER_SIZE - 8, 7)
    with pytest.raises(TransportError, match="not whole f64s"):
        decode_message(raw)


def test_decode_rejects_bad_magic():
    header = MessageHeader(0, 0, 0, 1, 8)
    raw = bytearray(encode_message(header, np.array([0.5])))
    raw[0] ^= 0xFF
    with pytest.raises(TransportError):
        decode_message(bytes(raw))


def test_decode_rejects_truncation():
    header = MessageHeader(0, 0, 0, 1, 16)
    raw = encode_message(header, np.array([0.5, 1.5]))
    with pytest.raises(TransportError):
        decode_message(raw[:10])
    with pytest.raises(TransportError):
        decode_message(raw[:-4])


def test_encode_rejects_wrong_length():
    with pytest.raises(TransportError):
        encode_message(MessageHeader(0, 0, 0, 1, 9), np.array([0.5]))


def test_loopback_fifo_order():
    def program(rank, ep):
        if rank == 0:
            for sweep in range(5):
                h = MessageHeader(sweep, 0, 0, 1, 8)
                ep.send(1, h, np.array([float(sweep)]))
            return None
        return [ep.recv(0, MessageHeader(sweep, 0, 0, 1, 8))[0]
                for sweep in range(5)]

    assert spawn_world(2, program)[1] == [float(s) for s in range(5)]


def test_recv_validates_header():
    def program(rank, ep):
        if rank == 0:
            ep.send(1, MessageHeader(0, 0, 0, 1, 8), np.array([1.0]))
        else:
            ep.recv(0, MessageHeader(0, 0, 1, 1, 8))

    with pytest.raises(TransportError, match="rank 1: header mismatch"):
        spawn_world(2, program)


def test_no_self_channel():
    def program(rank, ep):
        ep.send(rank, MessageHeader(0, 0, 0, 1, 8), np.array([1.0]))

    with pytest.raises(TransportError, match="no channel 0 -> 0"):
        spawn_world(2, program)


def test_run_group_runs_member_0_on_the_caller():
    # Member 2 finishes first and member 0 last, so the results are in
    # member order, not in the order the members finished.
    # Names are read inside the member: a worker parks under another name.
    def member(i):
        time.sleep(0.01 * (2 - i))
        me = threading.current_thread()
        return i, me, me.name

    results = run_group(3, member, "grp", lambda: None, RuntimeError)
    assert [i for i, _, _ in results] == [0, 1, 2]
    assert results[0][1] is threading.current_thread()
    assert results[1][1] is not results[2][1]
    assert [name for _, _, name in results[1:]] == ["grp-1", "grp-2"]


def test_run_group_reuses_the_worker_of_a_failed_member():
    # A failing member does not kill its worker, and the worker parked
    # last is the first taken, so the next group's member 1 runs on it.
    failed = []

    def fail_1(i):
        if i == 1:
            failed.append(threading.current_thread())
            raise ValueError("boom in member 1")

    with pytest.raises(RuntimeError, match="grp 1 failed"):
        run_group(2, fail_1, "grp", lambda: None, RuntimeError)
    results = run_group(2, lambda i: threading.current_thread(), "grp",
                        lambda: None, RuntimeError)
    assert results[1] is failed[0]


def test_run_group_callers_share_the_pool():
    # Eight callers on two cores, switching threads every microsecond, run
    # groups whose five members meet at a barrier: a worker handed to two
    # groups at once would break a barrier.  The pool never needs more
    # than four workers per caller.
    callers, n = 8, 5

    def group(k):
        meet = threading.Barrier(n, timeout=5.0)

        def member(i):
            meet.wait()
            return k, i

        return run_group(n, member, "grp", meet.abort, RuntimeError)

    errors = []

    def caller():
        try:
            for k in range(300):
                assert group(k) == [(k, i) for i in range(n)]
        except Exception as exc:  # noqa: BLE001 - inspected below
            errors.append(exc)

    count = threading.active_count()
    threads = [threading.Thread(target=caller, daemon=True)
               for _ in range(callers)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=20.0)
    finally:
        sys.setswitchinterval(interval)
    assert not [th for th in threads if th.is_alive()]
    assert errors == []
    assert threading.active_count() <= count + callers * (n - 1)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_run_group_runs_in_a_forked_child():
    # Parked workers do not survive fork; the child must start its own
    # instead of waiting on the parent's.
    run_group(2, lambda i: i, "grp", lambda: None, RuntimeError)
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            signal.alarm(3)
            if run_group(2, lambda i: i, "grp", lambda: None,
                         RuntimeError) == [0, 1]:
                status = 0
        finally:
            os._exit(status)
    deadline = time.monotonic() + 5.0
    while time.monotonic() < deadline:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            break
        time.sleep(0.01)
    else:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        pytest.fail("the forked child's run_group did not return in 5 s")
    assert os.waitstatus_to_exitcode(status) == 0


def test_run_group_member_0_failure_aborts_the_others(run_bounded):
    # Members 1 and 2 wait until the abort; member 0, on the caller,
    # fails once both are waiting, and only its failure is reported.
    stop = threading.Event()
    waiting = []
    boom = ValueError("boom in member 0")

    def member(i):
        if i == 0:
            while len(waiting) < 2:
                time.sleep(0.001)
            raise boom
        waiting.append(i)
        if not stop.wait(timeout=5.0):
            return "not aborted"
        raise Aborted

    err = run_bounded(lambda: run_group(3, member, "pipe", stop.set,
                                        RuntimeError))
    assert type(err) is RuntimeError
    assert str(err) == "pipe 0 failed: ValueError('boom in member 0')"
    assert err.__cause__ is boom


def test_spawn_world_single_rank():
    assert spawn_world(1, lambda rank, ep: rank + 10) == [10]
    with pytest.raises(ValueError):
        spawn_world(0, lambda rank, ep: None)


def test_spawn_world_ping_pong():
    rounds = 200

    def program(rank, ep):
        peer = 1 - rank
        total = 0.0
        for r in range(rounds):
            h = MessageHeader(r, 0, rank, 1, 8)
            if rank == 0:
                ep.send(peer, h, np.array([float(r)]))
                total += ep.recv(peer, MessageHeader(r, 0, peer, 1, 8))[0]
            else:
                got = ep.recv(peer, MessageHeader(r, 0, peer, 1, 8))[0]
                ep.send(peer, h, np.array([got * 2.0]))
                total += got
        return total

    results = spawn_world(2, program)
    assert results[0] == sum(2.0 * r for r in range(rounds))
    assert results[1] == sum(float(r) for r in range(rounds))


def test_spawn_world_reports_lowest_failing_rank():
    def program(rank, ep):
        if rank >= 2:
            raise RuntimeError(f"boom {rank}")
        return rank

    with pytest.raises(TransportError, match="rank 2 failed"):
        spawn_world(4, program)


def test_abort_tears_down_blocked_ranks():
    # rank 1 blocks on a message that never comes; rank 0's failure must
    # abort the world instead of hanging the join
    def program(rank, ep):
        if rank == 0:
            raise RuntimeError("boom")
        ep.recv(0, MessageHeader(0, 0, 0, 1, 8))

    with pytest.raises(TransportError, match="rank 0 failed"):
        spawn_world(2, program)


def test_rank_failure_beats_the_receiver_it_aborts(run_bounded):
    # Rank 0 waits for a message rank 1 never sends: the abort that ends
    # rank 0's wait is not a failure of rank 0, so rank 1's error is the
    # one reported, with its cause attached.
    boom = ValueError("boom in rank 1")

    def program(rank, ep):
        if rank == 0:
            ep.recv(1, MessageHeader(0, 0, 0, 1, 8))
        time.sleep(0.05)
        raise boom

    err = run_bounded(lambda: spawn_world(2, program))
    assert isinstance(err, TransportError)
    assert str(err).startswith("rank 1 failed: ValueError")
    assert err.__cause__ is boom


def _bad_bytes_to_rank_1(raw: bytes):
    """A two-rank world where rank 0 puts ``raw`` on its channel to rank 1,
    which waits for one 8-byte message."""
    def program(rank, ep):
        if rank == 0:
            ep._world.channel(0, 1).put(raw)
        else:
            ep.recv(0, MessageHeader(0, 0, 0, 1, 8))

    return lambda: spawn_world(2, program)


def _bad_magic() -> bytes:
    raw = bytearray(encode_message(MessageHeader(0, 0, 0, 1, 8), np.array([1.0])))
    struct.pack_into("<I", raw, 0, 0xDEADBEEF)
    return bytes(raw)


@pytest.mark.parametrize("raw, reason", [
    (bytes(10), "truncated message header"),
    (_bad_magic(), "bad magic 0xDEADBEEF"),
], ids=["truncated", "bad-magic"])
def test_bad_message_names_the_receiver(run_bounded, raw, reason):
    err = run_bounded(_bad_bytes_to_rank_1(raw))
    assert isinstance(err, TransportError)
    assert str(err) == f"rank 1: bad message from 0: {reason}"
    assert str(err.__cause__) == reason


def test_mis_sized_send_names_the_sender(run_bounded):
    # Rank 1 waits in recv for the message rank 0 fails to encode.
    def program(rank, ep):
        if rank == 0:
            ep.send(1, MessageHeader(0, 0, 0, 1, 16), np.array([1.0]))
        else:
            ep.recv(0, MessageHeader(0, 0, 0, 1, 16))

    err = run_bounded(lambda: spawn_world(2, program))
    assert isinstance(err, TransportError)
    assert str(err) == ("rank 0: bad message to 1: "
                        "payload_len 16 != payload bytes 8")


def test_all_pairs_exchange():
    n = 8

    def program(rank, ep):
        h = MessageHeader(0, 0, 0, 1, 8)
        for peer in range(n):
            if peer != rank:
                ep.send(peer, h, np.array([float(rank)]))
        seen = sorted(ep.recv(peer, h)[0] for peer in range(n) if peer != rank)
        return seen

    for rank, seen in enumerate(spawn_world(n, program)):
        assert seen == [float(p) for p in range(n) if p != rank]
