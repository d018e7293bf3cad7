"""Collective operations over the simulated point-to-point layer.

Every collective algorithm compiles to a round-based
:class:`~repro.mpi.algorithms.schedule.Schedule` executed by the
communicator's :class:`~repro.mpi.algorithms.schedule.ScheduleEngine`.
``dispatch_<op>`` selects the algorithm and returns what the engine
runs; the blocking MPI-2 methods of
:class:`~repro.mpi.communicator.MpiContext` run it to completion in the
calling process, and the ``i``-prefixed MPI-3 methods start it in a
background process and return a
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

from functools import partial
from typing import Any, Callable, Generator, Optional, Sequence, Tuple

import numpy as np

from ..hw.memory import nbytes_of
from ..sim.core import Event
from .datatypes import Payload, ReduceOp, payload_array
from .errors import MpiError

__all__ = [
    "dispatch_barrier",
    "dispatch_bcast",
    "dispatch_reduce",
    "dispatch_allreduce",
    "dispatch_allgather",
    "dispatch_alltoall",
    "gather",
    "scatter",
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
# Dispatch helpers (shared by blocking and nonblocking)
# ---------------------------------------------------------------------------

def _call(ctx, coll: str, algo: str, nbytes: int, key: Tuple,
          bufs: Tuple, builder: Callable, *args, **kwargs) -> Tuple:
    """What an engine runs: ``(build, shape, bufs, nbytes)``.

    The call's tag block is claimed here, at issue, so ``build()`` —
    this rank's schedule over the user buffers ``bufs`` (slots ``0 ..
    len(bufs) - 1``, in the builder's order) — may run at any later
    point, or never: the fast path calls it only when this rank's plan
    key ``shape = (coll, algo, *key)`` has no plan.  ``key`` must cover
    every input that shapes this rank's DAG, its message sizes and its
    computes (root, buffer signatures); a reduction's op is not one of
    them: it is bound as a slot, like a buffer.
    """
    return (
        partial(builder, ctx, *args, tag=_next_tag(ctx), **kwargs),
        (coll, algo) + key, bufs, nbytes,
    )


def _sig(buf: Payload):
    """A buffer's plan-key signature: dtype and array shape, or the
    byte count / ``None`` of a timing-only payload."""
    arr = payload_array(buf)
    return buf if arr is None else (arr.dtype.str, arr.shape)


def dispatch_barrier(ctx: MpiContext) -> Tuple:
    ctx.comm._count("barrier")
    return _call(ctx, "barrier", "dissemination", 0, (), (),
                 build_barrier_dissemination)


def dispatch_bcast(ctx: MpiContext, buf: Payload, root: int) -> Tuple:
    ctx.comm._count("bcast")
    ctx.comm._check_rank(root)
    nbytes = nbytes_of(buf) if buf is not None else 0
    algo = ctx.comm.selector.bcast(nbytes, ctx.size, hier_ok=_hier_ok(ctx))
    ctx.comm._count(f"bcast[{algo}]")
    return _call(ctx, "bcast", algo, nbytes, (root, _sig(buf)), (buf,),
                 SCHEDULES["bcast"][algo], buf, root=root)


def _check_reduce_op(op: ReduceOp, what: str) -> None:
    """``REPLACE`` exists for one-sided accumulate only: in a
    reduction tree, which rank's contribution "wins" would depend on
    the schedule — a silent nondeterminism, so reject it loudly."""
    if op is ReduceOp.REPLACE:
        raise MpiError(
            f"ReduceOp.REPLACE is only valid for one-sided accumulate, "
            f"not {what}"
        )


def dispatch_reduce(
    ctx: MpiContext,
    sendbuf: Payload,
    recvbuf: Optional[Payload],
    op: ReduceOp,
    root: int,
) -> Tuple:
    ctx.comm._count("reduce")
    ctx.comm._check_rank(root)
    _check_reduce_op(op, "reduce")
    nbytes = nbytes_of(sendbuf) if sendbuf is not None else 0
    algo = ctx.comm.selector.reduce(nbytes, ctx.size)
    ctx.comm._count(f"reduce[{algo}]")
    # Only the root's receive buffer takes part.
    recv = recvbuf if ctx.rank == root else None
    return _call(ctx, "reduce", algo, nbytes, (root, _sig(sendbuf)),
                 (sendbuf, recv, op), SCHEDULES["reduce"][algo], sendbuf,
                 recv, op=op, root=root)


def dispatch_allreduce(
    ctx: MpiContext, sendbuf: Payload, recvbuf: Payload, op: ReduceOp
) -> Tuple:
    comm = ctx.comm
    comm._count("allreduce")
    _check_reduce_op(op, "allreduce")
    if payload_array(recvbuf) is None:
        raise MpiError("allreduce requires a recv buffer on every rank")
    nbytes = nbytes_of(sendbuf) if sendbuf is not None else 0
    algo = comm.selector.allreduce(nbytes, ctx.size, hier_ok=_hier_ok(ctx))
    comm._count(f"allreduce[{algo}]")
    kwargs = {}
    if algo == "reduce_bcast":
        # The composed legs count and select like standalone calls.
        comm._count("reduce")
        comm._count("bcast")
        kwargs["bcast_algo"] = leg = comm.selector.bcast(
            nbytes_of(recvbuf), ctx.size, hier_ok=_hier_ok(ctx)
        )
        comm._count(f"bcast[{leg}]")
    return _call(ctx, "allreduce", algo, nbytes,
                 (_sig(sendbuf), _sig(recvbuf)), (sendbuf, recvbuf, op),
                 SCHEDULES["allreduce"][algo], sendbuf, recvbuf, op,
                 **kwargs)


def dispatch_allgather(
    ctx: MpiContext, sendbuf: Payload, recvbufs: AllgatherRecv
) -> Tuple:
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
    bufs = (
        (sendbuf, recvbufs) if isinstance(recvbufs, np.ndarray)
        else (sendbuf, *recvbufs)
    )
    return _call(ctx, "allgather", algo, block * ctx.size, (blocks,), bufs,
                 SCHEDULES["allgather"][algo], sendbuf, recvbufs)


def dispatch_alltoall(
    ctx: MpiContext,
    sendbufs: Sequence[Payload],
    recvbufs: Sequence[Payload],
) -> Tuple:
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
    return _call(ctx, "alltoall", algo, block * ctx.size, (tuple(sizes),),
                 (*sendbufs, *recvbufs), SCHEDULES["alltoall"][algo],
                 sendbufs, recvbufs)


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
