"""Alltoall algorithms: shift (seed), pairwise exchange, and Bruck.

``shift`` and ``pairwise`` run P−1 rounds moving one block per rank per
round; they differ in partnering.  The shift schedule sends to
``rank+k`` while receiving from ``rank−k`` (two different peers per
round); pairwise exchange uses the XOR partner ``rank^k`` so each round
is a perfect matching of bidirectional pairs — the schedule real MPIs
prefer on power-of-two communicators because it keeps per-round traffic
contention-free.

``bruck`` (Bruck et al. 1997) trades bandwidth for latency: after a
local rotation, round k ships *every* block whose slot index has bit k
set to ``rank+2^k`` — ⌈log2 P⌉ rounds moving ≈(P/2)·log2 P blocks total
instead of P−1 rounds of one block.  For small blocks, where per-round
latency dominates, that is the winning trade on any communicator size
(it is the only sub-linear schedule for non-powers of two); the final
inverse rotation is a local remap.  Selected by the autotuned
``alltoall_bruck_max_bytes`` threshold.
"""

from __future__ import annotations

from typing import List, Sequence

from ..datatypes import Payload, payload_array
from ..errors import MpiError
from .base import is_pof2
from .schedule import Pack, Ref, Schedule

__all__ = [
    "build_alltoall_shift",
    "build_alltoall_pairwise",
    "build_alltoall_bruck",
]


def _schedule(ctx, sendbufs, recvbufs):
    """The schedule over ``(*sendbufs, *recvbufs)``, the send and
    receive slot lists, and the local-copy step (buffer counts were
    validated by the dispatch layer)."""
    size = ctx.size
    sched = Schedule(*sendbufs, *recvbufs)
    send = [Ref(i) for i in range(size)]
    recv = [Ref(size + i) for i in range(size)]
    deps = [sched.copy(send[ctx.rank], recv[ctx.rank])]
    return sched, send, recv, deps


def build_alltoall_shift(
    ctx,
    sendbufs: Sequence[Payload],
    recvbufs: Sequence[Payload],
    *,
    tag: int,
) -> Schedule:
    """Shift-schedule all-to-all (the seed algorithm)."""
    sched, send, recv, deps = _schedule(ctx, sendbufs, recvbufs)
    size, rank = ctx.size, ctx.rank
    if size == 1:
        sched.overhead(after=deps)
        return sched
    for k in range(1, size):
        dst = (rank + k) % size
        src = (rank - k) % size
        s = sched.send(send[dst], dst, tag, after=deps, round=k - 1)
        r = sched.recv(recv[src], src, tag, after=deps, round=k - 1)
        deps = [s, r]
    return sched


def build_alltoall_pairwise(
    ctx,
    sendbufs: Sequence[Payload],
    recvbufs: Sequence[Payload],
    *,
    tag: int,
) -> Schedule:
    """Pairwise (XOR-partner) exchange; requires power-of-two P."""
    size, rank = ctx.size, ctx.rank
    if not is_pof2(size):
        raise MpiError("pairwise alltoall needs power-of-two P")
    sched, send, recv, deps = _schedule(ctx, sendbufs, recvbufs)
    if size == 1:
        sched.overhead(after=deps)
        return sched
    for k in range(1, size):
        partner = rank ^ k
        s = sched.send(send[partner], partner, tag, after=deps,
                       round=k - 1)
        r = sched.recv(recv[partner], partner, tag, after=deps,
                       round=k - 1)
        deps = [s, r]
    return sched


def build_alltoall_bruck(
    ctx,
    sendbufs: Sequence[Payload],
    recvbufs: Sequence[Payload],
    *,
    tag: int,
) -> Schedule:
    """Bruck alltoall (any P, equal blocks): ⌈log2 P⌉ packed rounds.

    Row invariant: after the initial rotation, work row ``i`` holds
    the block this rank must deliver to ``rank+i``; a block at row
    ``i`` travels +2^k in exactly the rounds where bit k of ``i`` is
    set, so every rank exchanges the same row set each round and no
    index metadata crosses the wire.  Each round unpacks the received
    pack into the moved rows; the final remap stores row ``i`` as the
    block received *from* ``rank−i``.
    """
    size, rank = ctx.size, ctx.rank
    mine_arrays = [payload_array(b) for b in sendbufs]
    out_arrays = [payload_array(b) for b in recvbufs]
    if any(a is None for a in mine_arrays) or any(
        a is None for a in out_arrays
    ):
        raise MpiError("bruck alltoall requires array payloads")
    block = mine_arrays[0].nbytes
    if any(a.nbytes != block for a in mine_arrays) or any(
        a.nbytes != block for a in out_arrays
    ):
        raise MpiError("bruck alltoall needs equal-size blocks")
    sched = Schedule(*sendbufs, *recvbufs)
    # Local rotation, at bind time: row i of the work slot is the block
    # for (rank + i) mod P.
    work = sched.scratch(size * block, init=Pack(tuple(
        Ref((rank + i) % size) for i in range(size)
    )))
    # Row i ends at this rank carrying the block from rank−i.
    result = Pack(tuple(Ref(size + (rank - i) % size) for i in range(size)))
    if size == 1:
        sched.copy(work, result)
        sched.overhead(after=(sched.last,))
        return sched
    deps: List[int] = []
    step = 1
    rnd = 0
    while step < size:
        # The rows with this round's bit set: runs of ``step`` rows.
        moved = Pack(tuple(
            work.at(lo * block, min(lo + step, size) * block)
            for lo in range(step, size, 2 * step)
        ))
        dst = (rank + step) % size
        src = (rank - step) % size
        stage = sched.scratch(sched.nbytes(moved), adopt=True)
        # donate: the payload is a fresh concatenation of the rows,
        # which the sender never touches again.
        s = sched.send(moved, dst, tag + rnd % 2, after=deps, round=rnd,
                       donate=True)
        r = sched.recv(stage, src, tag + rnd % 2, after=deps, round=rnd)
        deps = [s, sched.copy(stage, moved, after=(r,), round=rnd)]
        step <<= 1
        rnd += 1
    sched.copy(work, result, after=deps)
    return sched
