"""Collective operations over the simulated point-to-point layer.

Every collective algorithm compiles to a round-based
:class:`~repro.mpi.algorithms.schedule.Schedule` executed by the
communicator's :class:`~repro.mpi.algorithms.schedule.ScheduleEngine`.
The blocking MPI-2 entry points below run the schedule to completion in
the calling process; the ``i``-prefixed MPI-3 entry points start the
same schedule in a background process and return a
:class:`~repro.mpi.communicator.Request` immediately, so a rank (or
DCGN's comm thread) can overlap the collective with computation.

``allreduce``, ``allgather``, ``alltoall``, ``bcast`` and ``reduce``
have a *menu* of algorithms (see :mod:`repro.mpi.algorithms`) and
dispatch per call through the communicator's
:class:`~repro.mpi.algorithms.AlgorithmSelector`, which picks by
message size × communicator size — and, for the hierarchical
allreduce/bcast variants, by whether the placement is fragmented across
an oversubscribed topology.  The chosen algorithm is recorded in
``comm.stats`` as ``"<op>[<algo>]"``.  ``gather``/``scatter`` keep the
fixed linear-at-root shape MVAPICH2-era implementations used.

Every collective call consumes one slot of the internal tag space, kept
consistent across ranks by the requirement (as in real MPI) that all
ranks invoke collectives in the same order — for nonblocking
collectives the tag block and algorithm are claimed synchronously at
issue time, so mixed blocking/nonblocking sequences stay aligned.
"""

from __future__ import annotations

from typing import Any, Generator, Optional, Sequence

import numpy as np

from ..hw.memory import nbytes_of
from ..sim.core import Event
from .datatypes import Payload, ReduceOp, payload_array
from .errors import MpiError

__all__ = [
    "barrier",
    "bcast",
    "reduce",
    "allreduce",
    "gather",
    "scatter",
    "allgather",
    "alltoall",
    "ibarrier",
    "ibcast",
    "ireduce",
    "iallreduce",
    "iallgather",
    "ialltoall",
    "igather",
    "iscatter",
]

from .algorithms.base import (
    hier_ok as _hier_ok,
    isend_internal as _isend_internal,
    next_tag as _next_tag,
    recv_internal as _recv_internal,
    send_internal as _send_internal,
)
from .algorithms.allgather import AllgatherRecv, contiguous_rows
from .algorithms.barrier import build_barrier_dissemination
from .algorithms.selector import SCHEDULES
from .communicator import MpiContext, Request


# ---------------------------------------------------------------------------
# Schedule-building dispatch helpers (shared by blocking and nonblocking)
# ---------------------------------------------------------------------------

def _with_meta(sched, op: str, algo: str, nbytes: int, *sig):
    """Stamp collective identity on a built schedule: ``meta`` labels
    the span the engines emit, ``shape`` = ``(op, algo, *sig)`` keys
    the fast path's compiled plans.  ``sig`` must cover every input
    that shapes the per-rank DAGs and their message sizes (root,
    buffer signatures) and be equal on every rank."""
    sched.meta = {"op": op, "algo": algo, "nbytes": nbytes}
    sched.shape = (op, algo) + sig
    return sched


def _sig(buf: Payload):
    """A buffer's plan-key signature: dtype and array shape, or the
    byte count / ``None`` of a timing-only payload."""
    arr = payload_array(buf)
    return buf if arr is None else (arr.dtype.str, arr.shape)


#: Plan key of every dissemination barrier (blocking or not).
_BARRIER_SHAPE = ("barrier", "dissemination")


def _barrier_schedule(ctx: MpiContext):
    return _with_meta(
        build_barrier_dissemination(ctx), "barrier", "dissemination", 0
    )


def _build_barrier(ctx: MpiContext):
    ctx.comm._count("barrier")
    return _barrier_schedule(ctx)


def _build_bcast(ctx: MpiContext, buf: Payload, root: int):
    ctx.comm._count("bcast")
    ctx.comm._check_rank(root)
    nbytes = nbytes_of(buf) if buf is not None else 0
    algo = ctx.comm.selector.bcast(nbytes, ctx.size, hier_ok=_hier_ok(ctx))
    ctx.comm._count(f"bcast[{algo}]")
    return _with_meta(
        SCHEDULES["bcast"][algo](ctx, buf, root=root), "bcast", algo, nbytes,
        root, _sig(buf),
    )


def _check_reduce_op(op: ReduceOp, what: str) -> None:
    """``REPLACE`` exists for one-sided accumulate only: in a
    reduction tree, which rank's contribution "wins" would depend on
    the schedule — a silent nondeterminism, so reject it loudly."""
    if op is ReduceOp.REPLACE:
        raise MpiError(
            f"ReduceOp.REPLACE is only valid for one-sided accumulate, "
            f"not {what}"
        )


def _build_reduce(
    ctx: MpiContext,
    sendbuf: Payload,
    recvbuf: Optional[Payload],
    op: ReduceOp,
    root: int,
):
    ctx.comm._count("reduce")
    ctx.comm._check_rank(root)
    _check_reduce_op(op, "reduce")
    nbytes = nbytes_of(sendbuf) if sendbuf is not None else 0
    algo = ctx.comm.selector.reduce(nbytes, ctx.size)
    ctx.comm._count(f"reduce[{algo}]")
    return _with_meta(
        SCHEDULES["reduce"][algo](ctx, sendbuf, recvbuf, op=op, root=root),
        "reduce", algo, nbytes, root, _sig(sendbuf),
    )


def _build_allreduce(
    ctx: MpiContext, sendbuf: Payload, recvbuf: Payload, op: ReduceOp
):
    ctx.comm._count("allreduce")
    _check_reduce_op(op, "allreduce")
    if payload_array(recvbuf) is None:
        raise MpiError("allreduce requires a recv buffer on every rank")
    nbytes = nbytes_of(sendbuf) if sendbuf is not None else 0
    algo = ctx.comm.selector.allreduce(
        nbytes, ctx.size, hier_ok=_hier_ok(ctx)
    )
    ctx.comm._count(f"allreduce[{algo}]")
    return _with_meta(
        SCHEDULES["allreduce"][algo](ctx, sendbuf, recvbuf, op),
        "allreduce", algo, nbytes, _sig(sendbuf), _sig(recvbuf),
    )


def _build_allgather(
    ctx: MpiContext, sendbuf: Payload, recvbufs: AllgatherRecv
):
    ctx.comm._count("allgather")
    if isinstance(recvbufs, np.ndarray):
        # MPI_Allgather's own layout: row r receives rank r's block.
        if (
            recvbufs.ndim < 2
            or recvbufs.shape[0] != ctx.size
            or not recvbufs.flags.c_contiguous
        ):
            raise MpiError(
                "allgather recv array must be C-contiguous with shape "
                f"({ctx.size}, ...); got shape {recvbufs.shape}"
            )
        uniform = True
        block = recvbufs.nbytes // ctx.size
        blocks = _sig(recvbufs)
    else:
        if len(recvbufs) != ctx.size:
            raise MpiError("allgather needs one recv buffer per rank")
        arrays = [payload_array(b) for b in recvbufs]
        sizes = [None if a is None else a.nbytes for a in arrays]
        uniform = None not in sizes and len(set(sizes)) <= 1
        block = sizes[ctx.rank] if uniform else 0
        rows = contiguous_rows(arrays, block) if uniform else None
        if rows is not None:
            recvbufs = rows
            blocks = _sig(rows)
        else:
            blocks = tuple(sizes)
    algo = ctx.comm.selector.allgather(
        block, ctx.size, uniform=uniform, hier_ok=_hier_ok(ctx)
    )
    ctx.comm._count(f"allgather[{algo}]")
    return _with_meta(
        SCHEDULES["allgather"][algo](ctx, sendbuf, recvbufs),
        "allgather", algo, block * ctx.size, blocks,
    )


def _build_alltoall(
    ctx: MpiContext,
    sendbufs: Sequence[Payload],
    recvbufs: Sequence[Payload],
):
    ctx.comm._count("alltoall")
    if len(sendbufs) != ctx.size or len(recvbufs) != ctx.size:
        raise MpiError("alltoall needs one send and recv buffer per rank")
    sizes = [
        nbytes_of(b) if payload_array(b) is not None else None
        for b in list(sendbufs) + list(recvbufs)
    ]
    uniform = None not in sizes and len(set(sizes)) <= 1
    block = sizes[0] if uniform else 0
    algo = ctx.comm.selector.alltoall(
        block, ctx.size, uniform=uniform, hier_ok=_hier_ok(ctx)
    )
    ctx.comm._count(f"alltoall[{algo}]")
    return _with_meta(
        SCHEDULES["alltoall"][algo](ctx, sendbufs, recvbufs),
        "alltoall", algo, block * ctx.size, tuple(sizes),
    )


# ---------------------------------------------------------------------------
# Blocking collectives (MPI-2): execute the schedule inline
# ---------------------------------------------------------------------------

def barrier(ctx: MpiContext) -> Generator[Event, Any, None]:
    """Dissemination barrier (the engine may defer the DAG build)."""
    ctx.comm._count("barrier")
    yield from ctx.comm.engine.execute_deferred(
        ctx, _BARRIER_SHAPE, _barrier_schedule
    )


def bcast(
    ctx: MpiContext, buf: Payload, root: int = 0
) -> Generator[Event, Any, None]:
    """Topology-adaptive broadcast (binomial tree, domain-leader
    hierarchical on fragmented oversubscribed fabrics, or segmented
    pipeline for large payloads)."""
    yield from ctx.comm.engine.execute(ctx, _build_bcast(ctx, buf, root))


def reduce(
    ctx: MpiContext,
    sendbuf: Payload,
    recvbuf: Payload,
    op: ReduceOp = ReduceOp.SUM,
    root: int = 0,
) -> Generator[Event, Any, None]:
    """Size-adaptive reduction to ``root`` (binomial tree, or
    Rabenseifner reduce-scatter + gather for large vectors)."""
    yield from ctx.comm.engine.execute(
        ctx, _build_reduce(ctx, sendbuf, recvbuf, op, root)
    )


def allreduce(
    ctx: MpiContext,
    sendbuf: Payload,
    recvbuf: Payload,
    op: ReduceOp = ReduceOp.SUM,
) -> Generator[Event, Any, None]:
    """Size-adaptive allreduce (see :mod:`repro.mpi.algorithms`)."""
    yield from ctx.comm.engine.execute(
        ctx, _build_allreduce(ctx, sendbuf, recvbuf, op)
    )


def allgather(
    ctx: MpiContext,
    sendbuf: Payload,
    recvbufs: AllgatherRecv,
) -> Generator[Event, Any, None]:
    """Size-adaptive allgather (ring, recursive doubling, Bruck, or
    hierarchical).

    ``recvbufs`` is either one C-contiguous ``(P, ...)`` array whose
    row ``r`` receives rank ``r``'s block (MPI_Allgather's layout, set
    up in O(1) per rank), or a sequence of ``P`` per-rank buffers,
    which may differ in size (the vector variant, MPI_Allgatherv).
    """
    yield from ctx.comm.engine.execute(
        ctx, _build_allgather(ctx, sendbuf, recvbufs)
    )


def alltoall(
    ctx: MpiContext,
    sendbufs: Sequence[Payload],
    recvbufs: Sequence[Payload],
) -> Generator[Event, Any, None]:
    """Schedule-adaptive all-to-all (shift, pairwise, or Bruck)."""
    yield from ctx.comm.engine.execute(
        ctx, _build_alltoall(ctx, sendbufs, recvbufs)
    )


# ---------------------------------------------------------------------------
# Nonblocking collectives (MPI-3): start the schedule, return a Request
# ---------------------------------------------------------------------------

def ibarrier(ctx: MpiContext) -> Request:
    """Nonblocking dissemination barrier."""
    return ctx.comm.engine.start(
        ctx, _build_barrier(ctx), name=f"ibarrier(r{ctx.rank})"
    )


def ibcast(ctx: MpiContext, buf: Payload, root: int = 0) -> Request:
    """Nonblocking broadcast (same schedules as ``bcast``)."""
    return ctx.comm.engine.start(
        ctx, _build_bcast(ctx, buf, root), name=f"ibcast(r{ctx.rank})"
    )


def ireduce(
    ctx: MpiContext,
    sendbuf: Payload,
    recvbuf: Payload,
    op: ReduceOp = ReduceOp.SUM,
    root: int = 0,
) -> Request:
    """Nonblocking reduction to ``root``."""
    return ctx.comm.engine.start(
        ctx, _build_reduce(ctx, sendbuf, recvbuf, op, root),
        name=f"ireduce(r{ctx.rank})",
    )


def iallreduce(
    ctx: MpiContext,
    sendbuf: Payload,
    recvbuf: Payload,
    op: ReduceOp = ReduceOp.SUM,
) -> Request:
    """Nonblocking allreduce (same schedules as ``allreduce``)."""
    return ctx.comm.engine.start(
        ctx, _build_allreduce(ctx, sendbuf, recvbuf, op),
        name=f"iallreduce(r{ctx.rank})",
    )


def iallgather(
    ctx: MpiContext, sendbuf: Payload, recvbufs: AllgatherRecv
) -> Request:
    """Nonblocking allgather (``recvbufs`` as in :func:`allgather`)."""
    return ctx.comm.engine.start(
        ctx, _build_allgather(ctx, sendbuf, recvbufs),
        name=f"iallgather(r{ctx.rank})",
    )


def ialltoall(
    ctx: MpiContext,
    sendbufs: Sequence[Payload],
    recvbufs: Sequence[Payload],
) -> Request:
    """Nonblocking all-to-all."""
    return ctx.comm.engine.start(
        ctx, _build_alltoall(ctx, sendbufs, recvbufs),
        name=f"ialltoall(r{ctx.rank})",
    )


# ---------------------------------------------------------------------------
# Rooted linear collectives (fixed schedules, as in the seed)
# ---------------------------------------------------------------------------

def gather(
    ctx: MpiContext,
    sendbuf: Payload,
    recvbufs: Optional[Sequence[Payload]],
    root: int = 0,
) -> Generator[Event, Any, None]:
    """Linear gather: every rank sends its buffer to the root.

    At the root, ``recvbufs`` is a sequence of per-rank destination
    buffers (the vector variant — MPI_Gatherv — falls out naturally since
    the buffers may have different sizes).
    """
    ctx.comm._count("gather")
    ctx.comm._check_rank(root)
    tag = _next_tag(ctx)
    yield from _gather_impl(ctx, sendbuf, recvbufs, root, tag)


def igather(
    ctx: MpiContext,
    sendbuf: Payload,
    recvbufs: Optional[Sequence[Payload]],
    root: int = 0,
) -> Request:
    """Nonblocking linear gather.

    The tag block is claimed synchronously (like every nonblocking
    collective) so concurrent collectives stay aligned across ranks;
    the wire work runs in a background process.
    """
    ctx.comm._count("gather")
    ctx.comm._check_rank(root)
    tag = _next_tag(ctx)
    return Request(ctx.sim.process(
        _gather_impl(ctx, sendbuf, recvbufs, root, tag),
        name=f"igather(r{ctx.rank})",
    ))


def _gather_impl(
    ctx: MpiContext,
    sendbuf: Payload,
    recvbufs: Optional[Sequence[Payload]],
    root: int,
    tag: int,
) -> Generator[Event, Any, None]:
    size, rank = ctx.size, ctx.rank
    if rank == root:
        if recvbufs is None or len(recvbufs) != size:
            raise MpiError("root needs one recv buffer per rank")
        reqs = []
        for src in range(size):
            if src == root:
                continue
            reqs.append(
                ctx.sim.process(
                    _recv_internal(ctx, recvbufs[src], src, tag),
                    name=f"gather.recv({src})",
                )
            )
        # Local contribution via direct copy.
        own = payload_array(recvbufs[root])
        mine = payload_array(sendbuf)
        if own is not None and mine is not None:
            own[...] = mine.reshape(own.shape)
        for r in reqs:
            yield r
    else:
        yield from _send_internal(ctx, sendbuf, root, tag)


def scatter(
    ctx: MpiContext,
    sendbufs: Optional[Sequence[Payload]],
    recvbuf: Payload,
    root: int = 0,
) -> Generator[Event, Any, None]:
    """Linear scatter from the root (vector variant included)."""
    ctx.comm._count("scatter")
    ctx.comm._check_rank(root)
    tag = _next_tag(ctx)
    yield from _scatter_impl(ctx, sendbufs, recvbuf, root, tag)


def iscatter(
    ctx: MpiContext,
    sendbufs: Optional[Sequence[Payload]],
    recvbuf: Payload,
    root: int = 0,
) -> Request:
    """Nonblocking linear scatter (tag claimed synchronously)."""
    ctx.comm._count("scatter")
    ctx.comm._check_rank(root)
    tag = _next_tag(ctx)
    return Request(ctx.sim.process(
        _scatter_impl(ctx, sendbufs, recvbuf, root, tag),
        name=f"iscatter(r{ctx.rank})",
    ))


def _scatter_impl(
    ctx: MpiContext,
    sendbufs: Optional[Sequence[Payload]],
    recvbuf: Payload,
    root: int,
    tag: int,
) -> Generator[Event, Any, None]:
    size, rank = ctx.size, ctx.rank
    if rank == root:
        if sendbufs is None or len(sendbufs) != size:
            raise MpiError("root needs one send buffer per rank")
        reqs = []
        for dst in range(size):
            if dst == root:
                continue
            reqs.append(_isend_internal(ctx, sendbufs[dst], dst, tag))
        own = payload_array(recvbuf)
        mine = payload_array(sendbufs[root])
        if own is not None and mine is not None:
            own[...] = mine.reshape(own.shape)
        for r in reqs:
            yield from r.wait()
    else:
        yield from _recv_internal(ctx, recvbuf, root, tag)
