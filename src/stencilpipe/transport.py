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
It keeps its workers parked between calls, as an OpenMP runtime keeps its
team, and no thread runs a member once it returns.
"""

from __future__ import annotations

import collections
import functools
import os
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


# Parked workers, most recently parked last; each is the job queue its
# daemon thread blocks on in _park.  A deque's append and pop are atomic,
# so concurrent groups take and return workers without a lock.
_idle: collections.deque = collections.deque()
_IDLE_NAME = "group-idle"
if hasattr(os, "register_at_fork"):
    # Workers do not survive fork: a child that took a parent's parked
    # queue would wait for a thread it does not have.
    os.register_at_fork(after_in_child=_idle.clear)


def _park(jobs: queue.SimpleQueue) -> None:
    """Run jobs from ``jobs`` under their names, parking between them.

    A job is dropped and its worker re-listed before ``done`` is signalled,
    so a returned :func:`run_group` finds the worker idle and no parked
    worker keeps a member's closure, and with it a grid, alive."""
    me = threading.current_thread()
    while True:
        name, job, done = jobs.get()
        me.name = name
        # A job that raises all the same still releases the caller, and
        # its worker ends unlisted.
        try:
            job()
            del job
            me.name = _IDLE_NAME
            _idle.append(jobs)
        finally:
            done.put(None)


def run_group(n: int, member, label: str, abort, error) -> list:
    """Run ``member(i)`` for every ``i < n``; returns the results in order.

    Member 0 runs on the calling thread and members 1 .. n-1 on parked
    daemon workers, named ``f"{label}-{i}"`` while they run member i; a
    worker is started only when none is idle, and none runs a member once
    the call returns.  The first failure calls ``abort()``, which must
    make every blocked member raise :class:`Aborted`; such members are
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

    done: queue.SimpleQueue = queue.SimpleQueue()
    for i in range(1, n):
        try:
            jobs = _idle.pop()
        except IndexError:
            jobs = queue.SimpleQueue()
            threading.Thread(target=_park, args=(jobs,), name=_IDLE_NAME,
                             daemon=True).start()
        jobs.put((f"{label}-{i}", functools.partial(run, i), done))
    run(0)
    for _ in range(1, n):
        done.get()
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


def encode_message(header: MessageHeader, payload: np.ndarray) -> bytearray:
    """The header and the payload's values in one buffer, which receives
    the payload with one copy."""
    data = np.ascontiguousarray(payload, dtype="<f8")
    if header.payload_len != data.nbytes:
        raise TransportError(
            f"payload_len {header.payload_len} != payload bytes {data.nbytes}")
    raw = bytearray(_HEADER.pack(MAGIC, header.sweep, header.phase,
                                 header.side, header.depth, header.payload_len))
    # Appending grows the buffer without zeroing it first.
    raw += memoryview(data.reshape(-1)).cast("B")
    return raw


def decode_message(raw) -> tuple[MessageHeader, np.ndarray]:
    """The header and a view of the payload's values inside ``raw``."""
    if len(raw) < HEADER_SIZE:
        raise TransportError("truncated message header")
    magic, sweep, phase, side, depth, payload_len = _HEADER.unpack_from(raw)
    if magic != MAGIC:
        raise TransportError(f"bad magic 0x{magic:08X}")
    body = memoryview(raw)[HEADER_SIZE:]
    if len(body) != payload_len:
        raise TransportError(f"payload length {len(body)} != header {payload_len}")
    if payload_len % 8:
        raise TransportError(f"payload length {payload_len} is not whole f64s")
    header = MessageHeader(sweep, phase, side, depth, payload_len)
    return header, np.frombuffer(body, dtype="<f8")


class Endpoint:
    """One rank's handle into the loopback world."""

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
        if self._world.aborted.is_set():
            raise Aborted
        raw = chan.get()
        if raw is None:           # put there by _LoopbackWorld.abort
            raise Aborted
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

    def abort(self) -> None:
        """Make every ``recv``, blocked or to come, raise :class:`Aborted`:
        a ``None`` behind each channel's messages wakes a blocked one."""
        self.aborted.set()
        for chan in self._channels.values():
            chan.put(None)

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
                     "rank", world.abort, TransportError)
