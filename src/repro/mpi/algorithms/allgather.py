"""Allgather algorithms: ring (seed), recursive doubling, and Bruck.

* ``ring`` — P−1 steps each forwarding one block: bandwidth-optimal,
  handles unequal block sizes (the vector variant) and any P.
* ``recursive_doubling`` — ⌈log2 P⌉ rounds, doubling the forwarded
  volume each round; same total bytes, far fewer per-message latencies.
  Requires a power-of-two communicator and equal block sizes (as
  MPI_Allgather guarantees); the selector falls back to the ring
  otherwise.
* ``bruck`` — ⌈log2 P⌉ rounds for *any* P (the store-and-rotate
  schedule of Bruck et al.): round k forwards the min(2^k, P−2^k)
  blocks accumulated so far to rank−2^k, receiving the matching run
  from rank+2^k.  Latency-optimal on non-power-of-two communicators,
  where recursive doubling cannot run; the final rotation is a local
  index remap (no wire traffic).  Equal block sizes only.

Each algorithm is a ``build_*`` function compiling to a round-based
:class:`~repro.mpi.algorithms.schedule.Schedule`.  ``recvbufs`` comes in
two layouts (see ``MpiContext.allgather``):

* one C-contiguous ``(P, ...)`` array — every rank's block sits in
  place, so recursive doubling and Bruck send assembled runs as views
  and receive straight into their final rows: O(1) set-up per rank, no
  per-buffer scan, no pack/unpack;
* a sequence of P buffers (the only layout that may mix block sizes,
  which the ring handles) — recursive doubling then packs each
  outgoing run and unpacks each incoming one through staging buffers,
  and Bruck de-rotates into the buffers one block at a time.

Both layouts put the same messages on the wire, so they price and
simulate identically.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Union

import numpy as np

from ..datatypes import Payload, payload_array
from ..errors import MpiError
from .base import is_pof2
from .schedule import Pack, Ref, Schedule

#: Receive layout: one C-contiguous ``(P, ...)`` array, or P buffers.
AllgatherRecv = Union[np.ndarray, Sequence[Payload]]

__all__ = [
    "AllgatherRecv",
    "contiguous_rows",
    "build_allgather_ring",
    "build_allgather_recursive_doubling",
    "build_allgather_bruck",
]


def _schedule(sendbuf: Payload, recvbufs: AllgatherRecv):
    """The schedule over ``(sendbuf, recvbufs)`` — or, for the list
    layout, ``(sendbuf, *recvbufs)`` — plus a function naming block
    ``i``'s receive buffer: a row region of the ``(P, ...)`` array, or
    list slot ``1 + i``."""
    if isinstance(recvbufs, np.ndarray):
        sched = Schedule(sendbuf, recvbufs)
        rows = Ref(1)
        block = recvbufs.nbytes // len(recvbufs)
        return sched, lambda i: rows.at(i * block, (i + 1) * block)
    sched = Schedule(sendbuf, *recvbufs)
    return sched, lambda i: Ref(1 + i)


def build_allgather_ring(
    ctx,
    sendbuf: Payload,
    recvbufs: AllgatherRecv,
    *,
    tag: int,
) -> Schedule:
    """Ring allgather: P−1 steps, each forwarding one block.

    Buffer-count validation happens once at the dispatch layer
    (``collectives.dispatch_allgather``).
    """
    sched, recv_of = _schedule(sendbuf, recvbufs)
    size, rank = ctx.size, ctx.rank
    deps = [sched.copy(Ref(0), recv_of(rank))]
    if size == 1:
        sched.overhead(after=deps)
        return sched
    right = (rank + 1) % size
    left = (rank - 1) % size
    for step in range(size - 1):
        send_block = (rank - step) % size
        recv_block = (rank - step - 1) % size
        s = sched.send(recv_of(send_block), right, tag + step % 4,
                       after=deps, round=step)
        r = sched.recv(recv_of(recv_block), left, tag + step % 4,
                       after=deps, round=step)
        deps = [s, r]
    return sched


def contiguous_rows(
    arrays: Sequence[Optional[np.ndarray]], block: int
) -> Optional[np.ndarray]:
    """``arrays`` as one ``(P, ...)`` row array, or ``None``.

    A list of adjacent same-shape slices of one C-contiguous buffer
    (the flat-recvbuf idiom) is the ``(P, ...)`` layout in disguise:
    the dispatch layer hands the builders this view of the same memory
    instead, so they take the O(1) row path.
    """
    if block == 0 or any(a is None for a in arrays):
        return None
    base = arrays[0].base
    if base is None or not isinstance(base, np.ndarray):
        return None
    if not base.flags.c_contiguous:
        return None
    a0 = arrays[0]
    if any(
        a.base is not base or not a.flags.c_contiguous
        or a.dtype != a0.dtype or a.shape != a0.shape
        for a in arrays
    ):
        return None
    flat = base.view(np.uint8).reshape(-1)
    p0 = flat.__array_interface__["data"][0]
    offs = [a.__array_interface__["data"][0] - p0 for a in arrays]
    if offs[0] < 0 or offs[-1] + block > flat.size:
        return None
    if any(offs[i + 1] - offs[i] != block for i in range(len(arrays) - 1)):
        return None
    span = flat[offs[0] : offs[0] + len(arrays) * block]
    return span.view(a0.dtype).reshape((len(arrays),) + a0.shape)


def build_allgather_recursive_doubling(
    ctx,
    sendbuf: Payload,
    recvbufs: AllgatherRecv,
    *,
    tag: int,
) -> Schedule:
    """Recursive-doubling allgather (power-of-two P, equal blocks).

    After round ``i`` every rank holds the contiguous run of ``2^(i+1)``
    blocks it shares with its partner's half, so both sides always know
    exactly which blocks travel: the exchange needs no index metadata
    on the wire.  The runs already sit contiguously in a ``(P, ...)``
    recv array, so each round sends a zero-copy view of the assembled
    run and receives straight into the destination run.  A list of
    separate buffers packs each outgoing run and unpacks each incoming
    one instead; the wire traffic is identical.
    """
    size, rank = ctx.size, ctx.rank
    if not is_pof2(size):
        raise MpiError("recursive-doubling allgather needs power-of-two P")
    sched, recv_of = _schedule(sendbuf, recvbufs)
    deps = [sched.copy(Ref(0), recv_of(rank))]
    if size == 1:
        sched.overhead(after=deps)
        return sched
    rows = isinstance(recvbufs, np.ndarray)
    if rows:
        block = recvbufs.nbytes // size
    else:
        arrays = [payload_array(b) for b in recvbufs]

    def run(lo: int, count: int):
        """Blocks ``[lo, lo + count)``: a row region, or a pack of the
        array-backed list buffers."""
        if rows:
            return Ref(1, lo * block, (lo + count) * block)
        return Pack(tuple(Ref(1 + i) for i in range(lo, lo + count)
                          if arrays[i] is not None))

    mask = 1
    rnd = 0
    while mask < size:
        partner = rank ^ mask
        my_lo = rank & ~(mask - 1)
        peer_lo = my_lo ^ mask
        out, into = run(my_lo, mask), run(peer_lo, mask)
        if rows:
            # alias_ok: the sent run is fully assembled (its blocks
            # arrived in earlier rounds, which are dependencies) and is
            # never written again — later receives only ever fill the
            # disjoint peer half.
            s = sched.send(out, partner, tag, after=deps, round=rnd,
                           alias_ok=True)
            r = sched.recv(into, partner, tag, after=deps, round=rnd)
            deps = [s, r]
        else:
            # The outgoing pack is built when the send starts, after
            # earlier rounds unpacked; donate: it is a fresh
            # concatenation nothing else ever reads.  The staging slot
            # may adopt the partner's pack before the unpack copy.
            stage = sched.scratch(sched.nbytes(into), adopt=True)
            s = sched.send(out, partner, tag, after=deps, round=rnd,
                           donate=True)
            r = sched.recv(stage, partner, tag, after=deps, round=rnd)
            deps = [s, sched.copy(stage, into, after=(r,), round=rnd)]
        mask <<= 1
        rnd += 1
    return sched


def build_allgather_bruck(
    ctx,
    sendbuf: Payload,
    recvbufs: AllgatherRecv,
    *,
    tag: int,
) -> Schedule:
    """Bruck allgather (any P, equal blocks): ⌈log2 P⌉ rounds.

    The working rows are kept in rank-rotated order — row ``i`` of a
    scratch slot holds block ``(rank + i) mod P`` — so every round
    forwards a contiguous run of leading rows (a zero-copy view) and
    receives into the next free ones, with no index metadata on the
    wire, exactly like recursive doubling.  The de-rotation at the end
    is one local copy into ``recvbufs``: two row ranges of a
    ``(P, ...)`` array, or one block per list buffer.
    """
    size, rank = ctx.size, ctx.rank
    mine = payload_array(sendbuf)
    if mine is None:
        raise MpiError("bruck allgather requires an array payload")
    block = mine.nbytes
    if isinstance(recvbufs, np.ndarray):
        ok = recvbufs.nbytes == size * block
    else:
        ok = all(
            a is not None and a.nbytes == block
            for a in map(payload_array, recvbufs)
        )
    if not ok:
        raise MpiError("bruck allgather needs equal-size recv blocks")
    sched, recv_of = _schedule(sendbuf, recvbufs)
    # Row 0 is this rank's own block, copied in at bind time.
    work = sched.scratch(size * block, init=Ref(0))
    deps: List[int] = []
    step = 1
    rnd = 0
    if size == 1:
        deps = [sched.overhead()]
    while step < size:
        count = min(step, size - step)
        # alias_ok: rows [0, count) arrived in earlier rounds (which are
        # dependencies) and are never written again; this round's
        # receive fills the disjoint rows [step, step + count).
        s = sched.send(work.at(0, count * block), (rank - step) % size,
                       tag + rnd % 2, after=deps, round=rnd, alias_ok=True)
        r = sched.recv(work.at(step * block, (step + count) * block),
                       (rank + step) % size, tag + rnd % 2, after=deps,
                       round=rnd)
        deps = [s, r]
        step <<= 1
        rnd += 1
    # De-rotate: row i is block (rank + i) mod P.
    if isinstance(recvbufs, np.ndarray):
        out = Ref(1)
        dst = Pack((out.at(rank * block, size * block),
                    out.at(0, rank * block)))
    else:
        dst = Pack(tuple(recv_of((rank + i) % size) for i in range(size)))
    sched.copy(work, dst, after=deps)
    return sched
