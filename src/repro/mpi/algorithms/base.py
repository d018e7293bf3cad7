"""Shared plumbing for collective algorithms.

Every collective call consumes one :data:`TAG_STRIDE`-wide block of the
internal tag space (kept consistent across ranks by the requirement, as
in real MPI, that all ranks invoke collectives in the same order).
The dispatch layer claims the block at issue, once per call, and hands
it to the schedule builder as ``tag``, so a builder may run later (or
not at all, on a fast-path plan hit) without shifting any rank's later
claims.  Algorithms address sub-steps with offsets inside their block;
messages between the same (source, tag) pair match FIFO, so step-loops
may reuse offsets the way the seed ring allgather always has.  Phases a
hierarchical collective runs on the communicator's private
sub-communicators take blocks derived from the parent's
(:func:`sub_tag`).
"""

from __future__ import annotations

from typing import Any, Generator

from ...sim.core import Event
from ..communicator import INTERNAL_TAG_BASE, MpiContext, Request
from ..datatypes import Payload

__all__ = [
    "TAG_STRIDE",
    "is_pof2",
    "largest_pof2",
    "hier_ok",
    "next_tag",
    "sub_tag",
    "isend_internal",
    "send_internal",
    "recv_internal",
]

#: Stride between the tag blocks of successive collective calls.
TAG_STRIDE = 8


def is_pof2(n: int) -> bool:
    """True when ``n`` is a power of two."""
    return n > 0 and not (n & (n - 1))


def largest_pof2(n: int) -> int:
    """The largest power of two ≤ ``n`` (``n`` ≥ 1).

    The participant count of the fold-in schedules (recursive-doubling
    allreduce, Rabenseifner reduce) — and what the autotune cost model
    must price identically.
    """
    pof2 = 1
    while pof2 * 2 <= n:
        pof2 *= 2
    return pof2


def hier_ok(ctx: MpiContext) -> bool:
    """Hierarchical variants apply when the placement spans ≥ 2
    locality domains with some intra-domain structure to exploit
    (``hier_capable`` — group sizes may differ, the sub-communicator
    composition handles unequal pods) *and* is fragmented across the
    topology's domains — a contiguous placement's flat ring/tree is
    already near-optimal (one bottleneck crossing per domain)."""
    comm = ctx.comm
    return bool(
        getattr(comm, "hier_capable", False)
        and getattr(comm, "fragmented", False)
    )


def next_tag(ctx: MpiContext) -> int:
    """Claim this rank's next collective tag block."""
    comm = ctx.comm
    seq = comm._coll_seq[ctx.rank]
    comm._coll_seq[ctx.rank] += 1
    return INTERNAL_TAG_BASE + (seq * TAG_STRIDE)


def sub_tag(tag: int, j: int) -> int:
    """Block ``j`` (0 or 1) of a sub-communicator's tag space for the
    collective whose block on the parent communicator is ``tag``.

    Each derived communicator of ``hier_comms`` carries only its
    parent's hierarchical phases, so two blocks per parent call keep
    every phase's tags unique without a claim of their own.
    """
    seq = (tag - INTERNAL_TAG_BASE) // TAG_STRIDE
    return INTERNAL_TAG_BASE + (2 * seq + j) * TAG_STRIDE


def isend_internal(
    ctx: MpiContext, buf: Payload, dest: int, tag: int
) -> Request:
    """Internal isend that bypasses the user-tag check."""
    comm = ctx.comm
    comm._check_rank(dest)

    def runner():
        yield from comm._send_impl(ctx.rank, dest, buf, tag)

    return Request(
        ctx.sim.process(runner(), name=f"coll.isend(r{ctx.rank}->r{dest})")
    )


def send_internal(
    ctx: MpiContext, buf: Payload, dest: int, tag: int
) -> Generator[Event, Any, None]:
    yield from ctx.comm._send_impl(ctx.rank, dest, buf, tag)


def recv_internal(
    ctx: MpiContext, buf: Payload, source: int, tag: int
) -> Generator[Event, Any, Any]:
    status = yield from ctx.comm._recv_impl(ctx.rank, source, buf, tag)
    return status
