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
two layouts (see ``collectives.allgather``):

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

from ..datatypes import AdoptBuf, Payload, payload_array
from ..errors import MpiError
from .base import is_pof2, next_tag
from .schedule import Schedule

#: Receive layout: one C-contiguous ``(P, ...)`` array, or P buffers.
AllgatherRecv = Union[np.ndarray, Sequence[Payload]]

__all__ = [
    "AllgatherRecv",
    "contiguous_rows",
    "build_allgather_ring",
    "build_allgather_recursive_doubling",
    "build_allgather_bruck",
]


def build_allgather_ring(
    ctx,
    sendbuf: Payload,
    recvbufs: AllgatherRecv,
) -> Schedule:
    """Ring allgather: P−1 steps, each forwarding one block.

    Buffer-count validation happens once at the dispatch layer
    (``collectives.allgather``).
    """
    sched = Schedule()
    tag = next_tag(ctx)
    size, rank = ctx.size, ctx.rank
    own = payload_array(recvbufs[rank])
    mine = payload_array(sendbuf)

    def local_copy():
        if own is not None and mine is not None:
            own[...] = mine.reshape(own.shape)

    deps = [sched.compute(local_copy)]
    if size == 1:
        sched.overhead(after=deps)
        return sched
    right = (rank + 1) % size
    left = (rank - 1) % size
    for step in range(size - 1):
        send_block = (rank - step) % size
        recv_block = (rank - step - 1) % size
        s = sched.send(recvbufs[send_block], right, tag + step % 4,
                       after=deps, round=step)
        r = sched.recv(recvbufs[recv_block], left, tag + step % 4,
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
    sched = Schedule()
    tag = next_tag(ctx)
    mine = payload_array(sendbuf)
    rows = isinstance(recvbufs, np.ndarray)
    arrays = None if rows else [payload_array(b) for b in recvbufs]
    own = recvbufs[rank] if rows else arrays[rank]

    def local_copy():
        if own is not None and mine is not None:
            own[...] = mine.reshape(own.shape)

    deps = [sched.compute(local_copy)]
    if size == 1:
        sched.overhead(after=deps)
        return sched

    if rows:
        span = recvbufs.view(np.uint8).reshape(-1)
        block = span.size // size
        mask = 1
        rnd = 0
        while mask < size:
            partner = rank ^ mask
            my_lo = rank & ~(mask - 1)
            peer_lo = my_lo ^ mask
            # alias_ok: the sent run is fully assembled (its blocks
            # arrived in earlier rounds, which are dependencies) and is
            # never written again — later receives only ever fill the
            # disjoint peer half.
            s = sched.send(
                span[my_lo * block : (my_lo + mask) * block],
                partner, tag, after=deps, round=rnd, alias_ok=True,
            )
            r = sched.recv(
                span[peer_lo * block : (peer_lo + mask) * block],
                partner, tag, after=deps, round=rnd,
            )
            deps = [s, r]
            mask <<= 1
            rnd += 1
        return sched

    def pack(lo: int, count: int) -> np.ndarray:
        views = [
            a.view(np.uint8).reshape(-1)
            for a in arrays[lo : lo + count]
            if a is not None
        ]
        if not views:
            return np.empty(0, dtype=np.uint8)
        return np.concatenate(views)

    def unpack(buf: np.ndarray, lo: int, count: int) -> None:
        off = 0
        for a in arrays[lo : lo + count]:
            if a is None:
                continue
            view = a.view(np.uint8).reshape(-1)
            view[...] = buf[off : off + view.size]
            off += view.size

    mask = 1
    rnd = 0
    while mask < size:
        partner = rank ^ mask
        my_lo = rank & ~(mask - 1)
        peer_lo = my_lo ^ mask
        peer_bytes = sum(
            a.nbytes for a in arrays[peer_lo : peer_lo + mask] if a is not None
        )
        # AdoptBuf staging: the unpack below reads through ``.arr`` at
        # compute time, so the receive may adopt the in-flight pack.
        recvpack = AdoptBuf(peer_bytes)
        # The outgoing pack only exists once earlier rounds unpacked —
        # resolve it lazily at send time.  donate: pack() returns a
        # fresh concatenation nothing else ever writes or reads again.
        s = sched.send(lambda lo=my_lo, c=mask: pack(lo, c), partner, tag,
                       after=deps, round=rnd, donate=True)
        r = sched.recv(recvpack, partner, tag, after=deps, round=rnd)
        deps = [s, sched.compute(
            lambda b=recvpack, lo=peer_lo, c=mask: unpack(b.arr, lo, c),
            after=(r,), round=rnd,
        )]
        mask <<= 1
        rnd += 1
    return sched


def build_allgather_bruck(
    ctx,
    sendbuf: Payload,
    recvbufs: AllgatherRecv,
) -> Schedule:
    """Bruck allgather (any P, equal blocks): ⌈log2 P⌉ rounds.

    The working rows are kept in rank-rotated order — slot ``i`` holds
    block ``(rank + i) mod P`` — so every round forwards a contiguous
    run of leading slots (a zero-copy view) and receives into the next
    free ones, with no index metadata on the wire, exactly like
    recursive doubling.  The de-rotation at the end is a local remap
    into ``recvbufs``: two row-range copies for a ``(P, ...)`` array,
    one copy per block for a list.
    """
    size, rank = ctx.size, ctx.rank
    mine = payload_array(sendbuf)
    if mine is None:
        raise MpiError("bruck allgather requires an array payload")
    block = mine.nbytes
    if isinstance(recvbufs, np.ndarray):
        ok = recvbufs.nbytes == size * block
        targets = None
    else:
        targets = [payload_array(b) for b in recvbufs]
        ok = all(a is not None and a.nbytes == block for a in targets)
    if not ok:
        raise MpiError("bruck allgather needs equal-size recv blocks")
    sched = Schedule()
    tag = next_tag(ctx)
    slots = np.empty((size, block), dtype=np.uint8)
    slots[0] = mine.view(np.uint8).reshape(-1)
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
        s = sched.send(slots[:count], (rank - step) % size, tag + rnd % 2,
                       after=deps, round=rnd, alias_ok=True)
        r = sched.recv(slots[step : step + count], (rank + step) % size,
                       tag + rnd % 2, after=deps, round=rnd)
        deps = [s, r]
        step <<= 1
        rnd += 1

    # De-rotate: slot i is block (rank + i) mod P.
    if targets is None:
        out = recvbufs.view(np.uint8).reshape(size, block)

        def derotate():
            out[rank:] = slots[: size - rank]
            out[:rank] = slots[size - rank :]
    else:
        def derotate():
            for i in range(size):
                dest = targets[(rank + i) % size]
                dest.view(np.uint8).reshape(-1)[...] = slots[i]

    sched.compute(derotate, after=deps)
    return sched
