"""The DCGN API available inside CPU kernels (paper Figure 3, bottom).

CPU kernels are generator functions ``fn(ctx, *args)`` receiving a
:class:`CpuKernelContext`.  Communication calls funnel requests into the
node's communication thread through the thread-safe work queue and wait
for completion with sleep-based polling — the two cost sources the paper
blames for DCGN's small-message overhead (§5.2).

Collectives are scoped to a slot group, and the world is group 0
(:data:`~repro.dcgn.groups.WORLD_GID`): ``ctx.barrier()`` is the world
group's barrier, and ``ctx.group("g").barrier()`` runs the same code on
group ``g``.  Every blocking call is its nonblocking twin followed by
``wait``.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Generator, Optional, Union

import numpy as np

from ..hw.memory import HostBuffer
from ..mpi.datatypes import payload_array
from ..sim.core import Event, Simulator, us
from .comm_thread import CommThread
from .errors import CommViolation
from .groups import WORLD_GID, DcgnGroup
from .queues import sleep_poll_wait
from .ranks import ANY, RankMap
from .requests import CommRequest, CommStatus, record_stage

__all__ = ["CpuKernelContext", "CpuGroupComm", "DcgnRequestHandle"]

HostPayload = Union[np.ndarray, HostBuffer]
Deliver = Callable[[np.ndarray], None]


def _check_reduce_op_name(op) -> str:
    """Validate an accumulate op at kernel issue time (catchable),
    instead of letting ``ReduceOp(op)`` blow up the comm thread."""
    from ..mpi.datatypes import ReduceOp

    try:
        return ReduceOp(str(op)).value
    except ValueError:
        raise CommViolation(f"unknown accumulate op {op!r}") from None


def _byte_copier(dst: np.ndarray) -> Deliver:
    """``deliver`` callback copying a payload's bytes into ``dst``
    (up to the shorter of the two)."""

    def deliver(data: np.ndarray) -> None:
        dview = dst.view(np.uint8).reshape(-1)
        sview = data.view(np.uint8).reshape(-1)
        m = min(dview.size, sview.size)
        dview[:m] = sview[:m]

    return deliver


def _shaped_copier(dst: np.ndarray) -> Deliver:
    """``deliver`` callback writing a reduction result into ``dst``."""

    def deliver(data: np.ndarray) -> None:
        dst[...] = data.reshape(dst.shape)

    return deliver


class DcgnRequestHandle:
    """Handle for an asynchronous DCGN operation (dcgn async send/recv).

    The paper (§5.1) mentions DCGN exposes "asynchronous sends and
    receives" beneath the fused send/recv.  ``wait`` observes completion
    through the same sleep-based polling as the blocking calls; ``test``
    is a cheap flag check.
    """

    def __init__(self, ctx: "CpuKernelContext", req: CommRequest) -> None:
        self._ctx = ctx
        self.req = req

    def test(self) -> bool:
        """True once the runtime completed the operation."""
        return self.req.done is not None and self.req.done.triggered

    def wait(self) -> Generator[Event, Any, Any]:
        """``yield from`` until complete; returns the CommStatus."""
        result = yield from sleep_poll_wait(
            self._ctx.sim,
            self.req.done,
            self._ctx._params.dcgn.cpu_wait_poll_us,
        )
        spans = self._ctx.sim.spans
        if spans is not None:
            record_stage(spans, self._ctx.sim.now, "returned", self.req)
        return result


class _CpuCollectives:
    """Every collective a CPU kernel can issue, scoped to one slot group.

    :class:`CpuKernelContext` is this scope over the world group and
    :class:`CpuGroupComm` over any other group.  The comm thread stages
    a scope's collectives against the group's local members and runs
    the MPI phase on the group's node sub-communicator (own tag space),
    so collectives on disjoint groups overlap on the wire.  ``root``
    arguments are **group ranks** (vranks on the world), as in MPI.
    Each group orders its own collectives: every member must issue them
    in the same order, but no order is required *between* groups.
    Sequence numbers are claimed at issue time, so blocking and
    nonblocking collectives may be mixed.
    """

    _kernel: "CpuKernelContext"
    _scope: DcgnGroup

    @property
    def rank(self) -> int:
        """This kernel's rank in the scope (its vrank on the world)."""
        return self._scope.rank_of(self._kernel.vrank)

    @property
    def size(self) -> int:
        """Members of the scope (every virtual rank on the world)."""
        return self._scope.size

    # -- plumbing ----------------------------------------------------------
    def _coll(
        self,
        op: str,
        root: int = -1,
        nbytes: int = 0,
        data: Optional[np.ndarray] = None,
        deliver: Optional[Deliver] = None,
        **extra,
    ) -> CommRequest:
        """A collective request on this scope, claiming the group's
        next sequence number."""
        gid = self._scope.gid
        seqs = self._kernel._group_seqs
        seq = seqs.get(gid, 0)
        seqs[gid] = seq + 1
        return CommRequest(
            op=op, src_vrank=self._kernel.vrank, root=root, nbytes=nbytes,
            data=data, deliver=deliver,
            extra={"coll_seq": seq, "gid": gid, **extra},
        )

    def _root_vrank(self, root: int) -> int:
        if not (0 <= root < self._scope.size):
            raise CommViolation(
                f"root {root} out of range [0,{self._scope.size}) in "
                f"group {self._scope.name!r}"
            )
        return self._scope.vranks[root]

    # -- collectives -------------------------------------------------------
    def ibarrier(self) -> Generator[Event, Any, DcgnRequestHandle]:
        """Nonblocking barrier across the scope."""
        handle = yield from self._kernel._issue_async(self._coll("barrier"))
        return handle

    def barrier(self) -> Generator[Event, Any, None]:
        """dcgn::barrier across the scope's members."""
        handle = yield from self.ibarrier()
        yield from handle.wait()

    def ibroadcast(
        self, root: int, buf: HostPayload, nbytes: Optional[int] = None
    ) -> Generator[Event, Any, DcgnRequestHandle]:
        """Nonblocking broadcast from group rank ``root``."""
        root_vrank = self._root_vrank(root)
        arr = self._kernel._array(buf, "broadcast")
        n = int(nbytes) if nbytes is not None else int(arr.nbytes)
        if self._kernel.vrank == root_vrank:
            req = self._coll("bcast", root=root_vrank, nbytes=n,
                             data=arr.copy())
        else:
            req = self._coll("bcast", root=root_vrank, nbytes=n,
                             deliver=_byte_copier(arr))
        handle = yield from self._kernel._issue_async(req)
        return handle

    def broadcast(
        self, root: int, buf: HostPayload, nbytes: Optional[int] = None
    ) -> Generator[Event, Any, None]:
        """dcgn::broadcast from group rank ``root`` to the scope."""
        handle = yield from self.ibroadcast(root, buf, nbytes)
        yield from handle.wait()

    def iallreduce(
        self, sendbuf: HostPayload, recvbuf: HostPayload, op: str = "sum"
    ) -> Generator[Event, Any, DcgnRequestHandle]:
        """Nonblocking allreduce: issue and keep computing.

        The comm thread stages, combines and progresses the collective
        in the background; ``recvbuf`` is valid once the handle's
        ``wait`` returns.
        """
        sarr = self._kernel._array(sendbuf, "allreduce")
        rarr = self._kernel._array(recvbuf, "allreduce")
        req = self._coll(
            "allreduce", nbytes=int(sarr.nbytes), data=sarr.copy(),
            deliver=_shaped_copier(rarr), reduce_op=op,
        )
        handle = yield from self._kernel._issue_async(req)
        return handle

    def allreduce(
        self, sendbuf: HostPayload, recvbuf: HostPayload, op: str = "sum"
    ) -> Generator[Event, Any, None]:
        """dcgn::allReduce with elementwise ``op`` across the scope."""
        handle = yield from self.iallreduce(sendbuf, recvbuf, op)
        yield from handle.wait()

    def reduce(
        self,
        root: int,
        sendbuf: HostPayload,
        recvbuf: Optional[HostPayload] = None,
        op: str = "sum",
    ) -> Generator[Event, Any, None]:
        """dcgn::reduce to group rank ``root``."""
        root_vrank = self._root_vrank(root)
        sarr = self._kernel._array(sendbuf, "reduce")
        deliver = None
        if self._kernel.vrank == root_vrank:
            if recvbuf is None:
                raise CommViolation("root needs a recv buffer for reduce")
            deliver = _shaped_copier(self._kernel._array(recvbuf, "reduce"))
        req = self._coll(
            "reduce", root=root_vrank, nbytes=int(sarr.nbytes),
            data=sarr.copy(), deliver=deliver, reduce_op=op,
        )
        handle = yield from self._kernel._issue_async(req)
        yield from handle.wait()

    def igather(
        self,
        root: int,
        sendbuf: HostPayload,
        recvbuf: Optional[HostPayload] = None,
    ) -> Generator[Event, Any, DcgnRequestHandle]:
        """Nonblocking gather: issue and keep computing (the comm
        thread already progresses the MPI phase asynchronously)."""
        root_vrank = self._root_vrank(root)
        sarr = self._kernel._array(sendbuf, "gather")
        chunk = int(sarr.nbytes)
        deliver = None
        if self._kernel.vrank == root_vrank:
            if recvbuf is None:
                raise CommViolation("root needs a recv buffer for gather")
            deliver = _byte_copier(self._kernel._array(recvbuf, "gather"))
        req = self._coll(
            "gather", root=root_vrank, nbytes=chunk, data=sarr.copy(),
            deliver=deliver, chunk=chunk,
        )
        handle = yield from self._kernel._issue_async(req)
        return handle

    def gather(
        self,
        root: int,
        sendbuf: HostPayload,
        recvbuf: Optional[HostPayload] = None,
    ) -> Generator[Event, Any, None]:
        """dcgn::gather — equal chunks to group rank ``root``, in group
        order."""
        handle = yield from self.igather(root, sendbuf, recvbuf)
        yield from handle.wait()

    def iscatter(
        self,
        root: int,
        recvbuf: HostPayload,
        sendbuf: Optional[HostPayload] = None,
    ) -> Generator[Event, Any, DcgnRequestHandle]:
        """Nonblocking scatter: issue and keep computing."""
        root_vrank = self._root_vrank(root)
        rarr = self._kernel._array(recvbuf, "scatter")
        chunk = int(rarr.nbytes)
        data = None
        if self._kernel.vrank == root_vrank:
            if sendbuf is None:
                raise CommViolation("root needs a send buffer for scatter")
            data = self._kernel._array(sendbuf, "scatter").copy()
        req = self._coll(
            "scatter", root=root_vrank, nbytes=chunk, data=data,
            deliver=_byte_copier(rarr), chunk=chunk,
        )
        handle = yield from self._kernel._issue_async(req)
        return handle

    def scatter(
        self,
        root: int,
        recvbuf: HostPayload,
        sendbuf: Optional[HostPayload] = None,
    ) -> Generator[Event, Any, None]:
        """dcgn::scatter — equal chunks from group rank ``root``, in
        group order."""
        handle = yield from self.iscatter(root, recvbuf, sendbuf)
        yield from handle.wait()


class CpuKernelContext(_CpuCollectives):
    """Execution context of one CPU-kernel thread (one virtual rank).

    Its collectives are the world group's (:class:`_CpuCollectives`).
    """

    def __init__(
        self,
        sim: Simulator,
        vrank: int,
        comm: CommThread,
        rankmap: RankMap,
    ) -> None:
        self.sim = sim
        self.vrank = vrank
        self._comm = comm
        self._rankmap = rankmap
        self._params = comm.params
        self._kernel = self
        self._scope = comm.groups.group(WORLD_GID)
        #: Per-group collective sequence counters, world included
        #: (shared across every handle this context creates for the
        #: same group, so repeated ``group(...)`` lookups never
        #: desynchronize the staging).
        self._group_seqs: Dict[int, int] = {}

    # -- identity ----------------------------------------------------------
    @property
    def node_id(self) -> int:
        return self._comm.node.node_id

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<CpuKernelContext vrank={self.vrank}>"

    # -- local work ---------------------------------------------------------
    def compute(self, seconds: float) -> Generator[Event, Any, None]:
        """Model CPU-kernel computation time."""
        if seconds < 0:
            raise ValueError("negative compute time")
        if seconds > 0:
            yield self.sim.timeout(seconds)

    # -- plumbing ----------------------------------------------------------
    def _issue_async(
        self, req: CommRequest
    ) -> Generator[Event, Any, DcgnRequestHandle]:
        """Charge request overhead and enqueue; the handle's ``wait``
        sleep-polls for completion."""
        req.done = self.sim.event(name=f"req{req.req_id}.done")
        spans = self.sim.spans
        if spans is not None:
            record_stage(spans, self.sim.now, "issued", req)
        yield self.sim.timeout(us(self._params.cpu.request_overhead_us))
        yield from self._comm.enqueue_from_cpu(req)
        if spans is not None:
            record_stage(spans, self.sim.now, "enqueued", req)
        return DcgnRequestHandle(self, req)

    @staticmethod
    def _array(buf: HostPayload, what: str) -> np.ndarray:
        arr = payload_array(buf)
        if arr is None:
            raise CommViolation(f"{what} requires an array payload")
        return arr

    def _check_peer(self, peer: int) -> None:
        if peer != ANY:
            self._rankmap.info(peer)  # raises if out of range

    # -- point-to-point (asynchronous forms: paper §5.1) -------------------
    def isend(
        self,
        dest: int,
        buf: HostPayload,
        nbytes: Optional[int] = None,
    ) -> Generator[Event, Any, DcgnRequestHandle]:
        """Asynchronous send; payload snapshotted at issue time."""
        self._check_peer(dest)
        arr = self._array(buf, "send")
        n = int(nbytes) if nbytes is not None else int(arr.nbytes)
        req = CommRequest(
            op="send", src_vrank=self.vrank, peer=dest, nbytes=n,
            data=arr.copy(),
        )
        handle = yield from self._issue_async(req)
        return handle

    def send(
        self,
        dest: int,
        buf: HostPayload,
        nbytes: Optional[int] = None,
    ) -> Generator[Event, Any, None]:
        """dcgn::send — blocking send of host memory to a virtual rank."""
        handle = yield from self.isend(dest, buf, nbytes)
        yield from handle.wait()

    def irecv(
        self,
        source: int,
        buf: HostPayload,
        nbytes: Optional[int] = None,
    ) -> Generator[Event, Any, DcgnRequestHandle]:
        """Asynchronous receive into ``buf``."""
        self._check_peer(source)
        arr = self._array(buf, "recv")
        n = int(nbytes) if nbytes is not None else int(arr.nbytes)
        req = CommRequest(
            op="recv", src_vrank=self.vrank, peer=source, nbytes=n,
            deliver=_byte_copier(arr),
        )
        handle = yield from self._issue_async(req)
        return handle

    def recv(
        self,
        source: int,
        buf: HostPayload,
        nbytes: Optional[int] = None,
    ) -> Generator[Event, Any, CommStatus]:
        """dcgn::recv — blocking receive; ``source`` may be ``ANY``."""
        handle = yield from self.irecv(source, buf, nbytes)
        status = yield from handle.wait()
        return status

    def sendrecv(
        self,
        dest: int,
        sendbuf: HostPayload,
        source: int,
        recvbuf: HostPayload,
    ) -> Generator[Event, Any, CommStatus]:
        """Combined send+recv: both requests enqueued before waiting.

        The paper notes (§5.1, matrix multiplication) that a fused
        send/recv beats two separate calls because the runtime needs only
        one round of polling for the pair.
        """
        self._check_peer(dest)
        self._check_peer(source)
        sarr = self._array(sendbuf, "sendrecv")
        rarr = self._array(recvbuf, "sendrecv")
        sreq = CommRequest(
            op="send",
            src_vrank=self.vrank,
            peer=dest,
            nbytes=int(sarr.nbytes),
            data=sarr.copy(),
            done=self.sim.event(),
        )
        rreq = CommRequest(
            op="recv",
            src_vrank=self.vrank,
            peer=source,
            nbytes=int(rarr.nbytes),
            deliver=_byte_copier(rarr),
            done=self.sim.event(),
        )
        yield self.sim.timeout(us(self._params.cpu.request_overhead_us))
        yield from self._comm.enqueue_from_cpu(sreq)
        yield from self._comm.enqueue_from_cpu(rreq)
        yield from sleep_poll_wait(
            self.sim, sreq.done, self._params.dcgn.cpu_wait_poll_us
        )
        status = yield from sleep_poll_wait(
            self.sim, rreq.done, self._params.dcgn.cpu_wait_poll_us
        )
        return status

    # -- one-sided windows (matching-free) ---------------------------------
    def _check_window(
        self, win: str, target: int, arr: np.ndarray, offset: int, what: str
    ) -> None:
        """Validate a one-sided access at issue time (kernel-side): the
        window exists, dtypes match, and the target range is in bounds
        — mistakes surface as catchable kernel errors instead of a
        silent cast or a dead comm thread."""
        table = self._comm.windows
        if table is None:
            raise CommViolation("this job declares no windows")
        window = table.by_name(str(win))
        if target == ANY or not (0 <= target < self._rankmap.size):
            raise CommViolation(
                f"{what} needs a concrete target virtual rank, got "
                f"{target} (one-sided ops have no wildcard matching)"
            )
        window.locate(target)  # raises if the vrank has no region
        if arr.dtype != window.dtype:
            raise CommViolation(
                f"{what}: buffer dtype {arr.dtype} does not match window "
                f"{window.name!r} dtype {window.dtype}"
            )
        window.check_range(target, int(offset), arr.size)

    def _rma_put_request(
        self, win: str, dest: int, buf: HostPayload, offset: int, op=None
    ) -> CommRequest:
        self._check_peer(dest)
        arr = self._array(buf, "put")
        self._check_window(win, dest, arr, offset, "put")
        extra = {"win": str(win), "offset": int(offset)}
        kind = "rma_put"
        if op is not None:
            kind = "rma_accumulate"
            extra["reduce_op"] = _check_reduce_op_name(op)
        return CommRequest(
            op=kind,
            src_vrank=self.vrank,
            peer=dest,
            nbytes=int(arr.nbytes),
            data=arr.copy(),
            extra=extra,
        )

    def iput(
        self,
        win: str,
        dest: int,
        buf: HostPayload,
        offset: int = 0,
    ) -> Generator[Event, Any, DcgnRequestHandle]:
        """Asynchronous one-sided put (payload snapshotted at issue);
        ``wait`` guarantees remote completion."""
        handle = yield from self._issue_async(
            self._rma_put_request(win, dest, buf, offset)
        )
        return handle

    def put(
        self,
        win: str,
        dest: int,
        buf: HostPayload,
        offset: int = 0,
    ) -> Generator[Event, Any, None]:
        """dcgn::put — one-sided write of ``buf`` into virtual rank
        ``dest``'s region of window ``win`` at element ``offset``.

        No matching receive exists anywhere: the local comm thread
        drives an RDMA write into the target's registered region and
        the *target* comm thread is never involved.  Returns once the
        data is visible at the target (remote completion)."""
        handle = yield from self.iput(win, dest, buf, offset)
        yield from handle.wait()

    def accumulate(
        self,
        win: str,
        dest: int,
        buf: HostPayload,
        op: str = "sum",
        offset: int = 0,
    ) -> Generator[Event, Any, None]:
        """dcgn::accumulate — one-sided read-modify-write into ``dest``'s
        window region (``"replace"`` gives an ordered overwrite).
        Same-pair accumulates apply in program order."""
        handle = yield from self._issue_async(
            self._rma_put_request(win, dest, buf, offset, op=op)
        )
        yield from handle.wait()

    def _rma_get_request(
        self, win: str, source: int, buf: HostPayload, offset: int
    ) -> CommRequest:
        self._check_peer(source)
        arr = self._array(buf, "get")
        if not arr.flags["C_CONTIGUOUS"]:
            # deliver writes through reshape(-1): a non-contiguous view
            # would receive into a silent temporary copy.
            raise CommViolation("get needs a C-contiguous result buffer")
        self._check_window(win, source, arr, offset, "get")

        def deliver(data: np.ndarray) -> None:
            flat = arr.reshape(-1)
            src = data.reshape(-1)[: flat.size]
            flat[: src.size] = src

        return CommRequest(
            op="rma_get",
            src_vrank=self.vrank,
            peer=source,
            nbytes=int(arr.nbytes),
            deliver=deliver,
            extra={"win": str(win), "offset": int(offset)},
        )

    def iget(
        self,
        win: str,
        source: int,
        buf: HostPayload,
        offset: int = 0,
    ) -> Generator[Event, Any, DcgnRequestHandle]:
        """Asynchronous one-sided get into ``buf`` (read after wait)."""
        handle = yield from self._issue_async(
            self._rma_get_request(win, source, buf, offset)
        )
        return handle

    def get(
        self,
        win: str,
        source: int,
        buf: HostPayload,
        offset: int = 0,
    ) -> Generator[Event, Any, CommStatus]:
        """dcgn::get — one-sided read of virtual rank ``source``'s
        window region into ``buf``; the target never posts anything."""
        handle = yield from self.iget(win, source, buf, offset)
        status = yield from handle.wait()
        return status

    # -- slot groups -------------------------------------------------------
    def split(
        self, color: int, key: int = 0
    ) -> Generator[Event, Any, Optional["CpuGroupComm"]]:
        """Collective ``comm_split`` over every virtual rank in the job.

        All ranks must call it (in the same world collective order);
        ranks sharing a ``color`` get a :class:`CpuGroupComm` over the
        new group, ordered by (key, vrank); a negative color opts out
        and returns ``None``.
        """
        req = self._coll("split", color=int(color), key=int(key))
        handle = yield from self._kernel._issue_async(req)
        yield from handle.wait()
        group = req.extra.get("group")
        if group is None:
            return None
        return CpuGroupComm(self, group)

    def group(self, name: str) -> "CpuGroupComm":
        """Handle for a slot group declared in ``DcgnConfig``."""
        group = self._comm.groups.by_name(name)
        if self.vrank not in group:
            raise CommViolation(
                f"vrank {self.vrank} is not a member of group {name!r}"
            )
        return CpuGroupComm(self, group)


class CpuGroupComm(_CpuCollectives):
    """Slot-group communication scope for a CPU kernel.

    Returned by :meth:`CpuKernelContext.split` /
    :meth:`CpuKernelContext.group`; its collectives are the same ones
    the kernel context runs on the world group (:class:`_CpuCollectives`),
    scoped to ``group``.
    """

    def __init__(self, ctx: CpuKernelContext, group: DcgnGroup) -> None:
        self._kernel = ctx
        self._scope = group
        self.group = group

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<CpuGroupComm {self.group.name!r} "
            f"rank={self.rank}/{self.size}>"
        )
