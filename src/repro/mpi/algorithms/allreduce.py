"""Allreduce algorithms: reduce+bcast (seed), recursive doubling, ring.

Cost shapes (P ranks, n bytes, α latency, β per-byte):

* ``reduce_bcast`` — 2·⌈log2 P⌉·(α + nβ): the MVAPICH2 general-case
  fallback the seed shipped with.
* ``recursive_doubling`` — ⌈log2 P⌉·(α + nβ) (+2 fold steps when P is
  not a power of two): best when latency dominates.
* ``ring`` — 2·(P−1)·α + 2·n·β·(P−1)/P: bandwidth-optimal
  reduce-scatter + allgather (the Rabenseifner scatter-allgather family),
  best for large messages.

Every algorithm is expressed as a round-based :class:`Schedule` (a
``build_*`` function) executed by the communicator's
:class:`~repro.mpi.algorithms.schedule.ScheduleEngine`; the blocking
entry points below run the same schedules to completion, so blocking
and nonblocking (``iallreduce``) calls share one code path and one
timing model.

All :class:`~repro.mpi.datatypes.ReduceOp` operators are commutative, so
the fold-in step of non-power-of-two recursive doubling is safe; combines
still run lower-rank-first so floating-point results stay deterministic
per rank.
"""

from __future__ import annotations

from typing import List

from ..datatypes import Payload, ReduceOp, payload_array
from ..errors import MpiError
from .base import largest_pof2
from .reduce import OP, append_reduce_binomial
from .schedule import Ref, Schedule

__all__ = [
    "build_allreduce_reduce_bcast",
    "build_allreduce_recursive_doubling",
    "build_allreduce_ring",
    "append_ring_reduce_scatter",
    "append_ring_allgather",
]


def _setup(ctx, sendbuf: Payload, recvbuf: Payload, op: ReduceOp):
    """Validate the buffers; return the send array and the schedule
    over ``(sendbuf, recvbuf, op)``."""
    src = payload_array(sendbuf)
    if src is None:
        raise MpiError("allreduce requires an array payload")
    if payload_array(recvbuf) is None:
        raise MpiError("allreduce requires a recv buffer on every rank")
    return src, Schedule(sendbuf, recvbuf, op)


def build_allreduce_reduce_bcast(
    ctx,
    sendbuf: Payload,
    recvbuf: Payload,
    op: ReduceOp = ReduceOp.SUM,
    bcast_algo: str = "binomial",
    *,
    tag: int,
) -> Schedule:
    """Reduce to rank 0, then broadcast (the seed's fixed algorithm).

    Composed from the binomial-reduce and broadcast schedules; the bcast
    leg runs ``bcast_algo``, which the dispatch layer selects (and
    counts) exactly like a standalone ``bcast`` call, so timings match
    the old generator composition byte for byte.
    """
    from .bcast import append_bcast

    _, sched = _setup(ctx, sendbuf, recvbuf, op)
    send, recv = Ref(0), Ref(1)
    ends = append_reduce_binomial(
        sched, ctx, send, recv if ctx.rank == 0 else None,
        op=OP, root=0, after=(), tag=tag,
    )
    # The bcast leg's rounds start past the reduce leg's on EVERY rank:
    # the offset is the binomial tree's global depth, not this rank's
    # own round count (a leaf's reduce part is a single round).  Its
    # tags start at offset 2, past the reduce's offset 0.
    append_bcast(bcast_algo, sched, ctx, recv, root=0, after=ends,
                 round0=(ctx.size - 1).bit_length(), tag=tag + 2)
    return sched


def build_allreduce_recursive_doubling(
    ctx,
    sendbuf: Payload,
    recvbuf: Payload,
    op: ReduceOp = ReduceOp.SUM,
    *,
    tag: int,
) -> Schedule:
    """Recursive-doubling allreduce (MPICH small-message algorithm).

    Non-power-of-two sizes use the standard fold: the first 2·rem ranks
    pair up (even sends to odd) so ``pof2`` ranks run the doubling
    rounds, then the even partners receive the final result back.  The
    accumulator slot is rebound by every combine, never written in
    place.
    """
    src, sched = _setup(ctx, sendbuf, recvbuf, op)
    size, rank = ctx.size, ctx.rank
    out = Ref(1)
    acc = sched.scratch(src.size, src.dtype, init=Ref(0))
    if size == 1:
        sched.overhead()
        sched.copy(acc, out, after=(sched.last,))
        return sched
    pof2 = largest_pof2(size)
    rem = size - pof2
    deps: List[int] = []
    rnd = 0
    # Fold-in (tag offset 4): even ranks below 2·rem contribute and sit out.
    if rank < 2 * rem:
        if rank % 2 == 0:
            # donate: acc is rebound, never mutated, and the fold-out
            # recv that overwrites it is causally behind the partner's
            # fold-in, which is the last read of the donated array.
            deps = [sched.send(acc, rank + 1, tag + 4, donate=True)]
            newrank = -1
        else:
            tmp0 = sched.scratch(src.size, src.dtype, adopt=True)
            r = sched.recv(tmp0, rank - 1, tag + 4)
            deps = [sched.reduce(OP, tmp0, acc, into=acc, after=(r,))]
            newrank = rank // 2
    else:
        newrank = rank - rem
    if newrank != -1:
        mask = 1
        while mask < pof2:
            rnd += 1
            partner_new = newrank ^ mask
            partner = (
                partner_new * 2 + 1 if partner_new < rem
                else partner_new + rem
            )
            tmp = sched.scratch(src.size, src.dtype, adopt=True)
            # donate: acc is rebound (never mutated), so the in-flight
            # array can never observe a later write — the partner may
            # adopt it as its combine input.
            s = sched.send(acc, partner, tag, after=deps, round=rnd,
                           donate=True)
            r = sched.recv(tmp, partner, tag, after=deps, round=rnd)
            a, b = (tmp, acc) if partner < rank else (acc, tmp)
            deps = [sched.reduce(OP, a, b, into=acc, after=(s, r),
                                 round=rnd)]
            mask <<= 1
    # Fold-out (tag offset 5): odd partners hand the result back.
    if rank < 2 * rem:
        rnd += 1
        if rank % 2 == 1:
            # alias_ok (not donate): acc holds this rank's final result
            # and is still read by the trailing out-copy below.
            deps = [sched.send(acc, rank - 1, tag + 5, after=deps,
                               round=rnd, alias_ok=True)]
        else:
            deps = [sched.recv(acc, rank + 1, tag + 5, after=deps,
                               round=rnd)]
    sched.copy(acc, out, after=deps)
    return sched


def _ring_chunks(acc: Ref, count: int, itemsize: int, size: int):
    """Chunk accessor for a ring over ``size`` pieces of the flat
    ``count``-element slot ``acc``."""
    bounds: List[int] = [(c * count) // size * itemsize
                         for c in range(size + 1)]

    def chunk(c: int) -> Ref:
        c %= size
        return acc.at(bounds[c], bounds[c + 1])

    return chunk


def append_ring_reduce_scatter(
    sched,
    ctx,
    acc: Ref,
    count: int,
    dtype,
    op: Ref,
    tag: int,
    after=(),
    round0: int = 0,
) -> List[int]:
    """Ring reduce-scatter over ``ctx``'s communicator (tag offsets
    0..3): after P−1 steps rank *r* owns the chunk ``(r+1) mod P`` of
    ``acc`` (``count`` elements of ``dtype``), combined under the op in
    slot ``op``.

    Shared by the flat ring allreduce and — through a
    :class:`~repro.mpi.algorithms.schedule.SubSchedule` bound to an
    intra-domain or peer communicator — the hierarchical composition.
    No defensive copies on the sends: each step only writes the
    (disjoint) received chunk.
    """
    size, rank = ctx.size, ctx.rank
    isz = dtype.itemsize
    chunk = _ring_chunks(acc, count, isz, size)
    right = (rank + 1) % size
    left = (rank - 1) % size
    deps = list(after)
    for step in range(size - 1):
        recv_c = chunk(rank - step - 1)
        tmp = sched.scratch((recv_c.hi - recv_c.lo) // isz, dtype,
                            adopt=True)
        rnd = round0 + step
        # donate: acc is collective-private and the sent chunk is next
        # written only in the allgather phase, which is causally behind
        # the right neighbor's combine — the last read of the adopted
        # chunk view.
        s = sched.send(chunk(rank - step), right, tag + step % 4,
                       after=deps, round=rnd, donate=True)
        r = sched.recv(tmp, left, tag + step % 4, after=deps, round=rnd)
        deps = [sched.combine(op, tmp, recv_c, recv_c, after=(s, r),
                              round=rnd)]
    return deps


def append_ring_allgather(
    sched,
    ctx,
    acc: Ref,
    count: int,
    itemsize: int,
    tag: int,
    after=(),
    round0: int = 0,
) -> List[int]:
    """Ring allgather of the chunks a reduce-scatter left behind (tag
    offsets 0..3): circulates from each rank's owned chunk
    ``(r+1) mod P`` until every rank holds all of ``acc``."""
    size, rank = ctx.size, ctx.rank
    chunk = _ring_chunks(acc, count, itemsize, size)
    right = (rank + 1) % size
    left = (rank - 1) % size
    deps = list(after)
    for step in range(size - 1):
        rnd = round0 + step
        # alias_ok: acc is collective-private and a forwarded chunk is
        # never written again after its send.
        s = sched.send(chunk(rank + 1 - step), right, tag + step % 4,
                       after=deps, round=rnd, alias_ok=True)
        r = sched.recv(chunk(rank - step), left, tag + step % 4,
                       after=deps, round=rnd)
        deps = [s, r]
    return deps


def build_allreduce_ring(
    ctx,
    sendbuf: Payload,
    recvbuf: Payload,
    op: ReduceOp = ReduceOp.SUM,
    *,
    tag: int,
) -> Schedule:
    """Ring allreduce: reduce-scatter then allgather over 1/P chunks.

    Works for any P (including non-powers of two) and any element count
    (trailing chunks may be empty when count < P).
    """
    src, sched = _setup(ctx, sendbuf, recvbuf, op)
    size = ctx.size
    out = Ref(1)
    acc = sched.scratch(src.size, src.dtype, init=Ref(0))
    if size == 1:
        sched.overhead()
        sched.copy(acc, out, after=(sched.last,))
        return sched
    deps = append_ring_reduce_scatter(sched, ctx, acc, src.size, src.dtype,
                                      OP, tag)
    deps = append_ring_allgather(
        sched, ctx, acc, src.size, src.itemsize, tag + 4, after=deps,
        round0=size - 1,
    )
    sched.copy(acc, out, after=deps)
    return sched
