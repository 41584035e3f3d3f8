"""Point-to-point message transport with an in-process loopback world.

Wire format (little-endian throughout):

    magic      u32   0x53464847
    sweep      u32   outer-step counter
    phase      u8    0=x, 1=y, 2=z
    side       u8    0=low face of the sender, 1=high face
    depth      u16   halo layer count
    payload_len u64  bytes of payload
    payload    payload_len bytes of f64 values, row-major (x fastest)

The loopback transport delivers byte-exact messages in FIFO order per
(sender, receiver) channel and runs every rank as a thread of one
process, which keeps multi-rank tests hermetic and deterministic.
:func:`run_group` is the one fail-fast runner of concurrent members:
the ranks of :func:`spawn_world` and the threads of a node pipeline.
"""

from __future__ import annotations

import queue
import struct
import threading
from dataclasses import dataclass

import numpy as np

MAGIC = 0x53464847
_HEADER = struct.Struct("<IIBBHQ")
HEADER_SIZE = _HEADER.size

PHASE_CODES = {"x": 0, "y": 1, "z": 2}


class TransportError(RuntimeError):
    """Protocol violation or peer failure."""


class Aborted(Exception):
    """A group member stopped because another member failed."""


def run_group(n: int, member, label: str, abort, error) -> list:
    """Run ``member(i)`` for every ``i < n``; returns the results in order.

    One member runs on the calling thread, more run on daemon threads
    named ``f"{label}-{i}"``.  The first failure calls ``abort()``, which
    must make every blocked member raise :class:`Aborted`; such members are
    not reported.  The lowest-index member that failed on its own raises
    ``error("<label> <i> failed: <exc>")`` chained to its exception, which
    passes through unchanged when it already is an ``error`` (or is not an
    ``Exception``, such as ``KeyboardInterrupt``).
    """
    results: list = [None] * n
    failures: dict[int, BaseException] = {}

    def run(i: int) -> None:
        try:
            results[i] = member(i)
        except Aborted:
            pass
        except BaseException as exc:  # noqa: BLE001 - reported below
            failures[i] = exc
            abort()

    if n == 1:
        run(0)
    else:
        threads = [threading.Thread(target=run, args=(i,),
                                    name=f"{label}-{i}", daemon=True)
                   for i in range(n)]
        for th in threads:
            th.start()
        for th in threads:
            th.join()
    if failures:
        i = min(failures)
        exc = failures[i]
        if isinstance(exc, error) or not isinstance(exc, Exception):
            raise exc
        raise error(f"{label} {i} failed: {exc!r}") from exc
    return results


@dataclass(frozen=True)
class MessageHeader:
    sweep: int
    phase: int
    side: int
    depth: int
    payload_len: int


def encode_message(header: MessageHeader, payload: np.ndarray) -> bytes:
    data = np.ascontiguousarray(payload, dtype="<f8").tobytes()
    if header.payload_len != len(data):
        raise TransportError(
            f"payload_len {header.payload_len} != payload bytes {len(data)}")
    return _HEADER.pack(MAGIC, header.sweep, header.phase, header.side,
                        header.depth, header.payload_len) + data


def decode_message(raw: bytes) -> tuple[MessageHeader, np.ndarray]:
    if len(raw) < HEADER_SIZE:
        raise TransportError("truncated message header")
    magic, sweep, phase, side, depth, payload_len = _HEADER.unpack_from(raw)
    if magic != MAGIC:
        raise TransportError(f"bad magic 0x{magic:08X}")
    body = raw[HEADER_SIZE:]
    if len(body) != payload_len:
        raise TransportError(f"payload length {len(body)} != header {payload_len}")
    header = MessageHeader(sweep, phase, side, depth, payload_len)
    return header, np.frombuffer(body, dtype="<f8")


class Endpoint:
    """One rank's handle into the loopback world."""

    _POLL = 0.1  # seconds between abort checks while blocked in recv

    def __init__(self, world: "_LoopbackWorld", rank: int):
        self._world = world
        self.rank = rank

    def send(self, peer: int, header: MessageHeader, payload: np.ndarray) -> None:
        try:
            raw = encode_message(header, payload)
        except TransportError as exc:
            raise TransportError(
                f"rank {self.rank}: bad message to {peer}: {exc}") from exc
        self._world.channel(self.rank, peer).put(raw)

    def recv(self, peer: int, expect: MessageHeader) -> np.ndarray:
        chan = self._world.channel(peer, self.rank)
        while True:
            if self._world.aborted.is_set():
                raise Aborted
            try:
                raw = chan.get(timeout=self._POLL)
                break
            except queue.Empty:
                continue
        try:
            header, payload = decode_message(raw)
        except TransportError as exc:
            raise TransportError(
                f"rank {self.rank}: bad message from {peer}: {exc}") from exc
        if header != expect:
            raise TransportError(
                f"rank {self.rank}: header mismatch from {peer}: "
                f"got {header}, expected {expect}")
        return payload


class _LoopbackWorld:
    def __init__(self, n_ranks: int):
        self.n_ranks = n_ranks
        self.aborted = threading.Event()
        self._channels = {(s, r): queue.SimpleQueue()
                          for s in range(n_ranks) for r in range(n_ranks)
                          if s != r}

    def channel(self, sender: int, receiver: int) -> queue.SimpleQueue:
        try:
            return self._channels[(sender, receiver)]
        except KeyError:
            raise TransportError(f"no channel {sender} -> {receiver}") from None

    def endpoint(self, rank: int) -> Endpoint:
        return Endpoint(self, rank)


def spawn_world(n_ranks: int, program):
    """Run ``program(rank, endpoint)`` on every rank concurrently.

    Returns the per-rank results in rank order.  A rank failure aborts the
    whole world and raises :class:`TransportError` naming the lowest rank
    that failed on its own (see :func:`run_group`).
    """
    if n_ranks < 1:
        raise ValueError(f"need at least one rank, got {n_ranks}")
    world = _LoopbackWorld(n_ranks)
    return run_group(n_ranks, lambda r: program(r, world.endpoint(r)),
                     "rank", world.aborted.set, TransportError)
