"""The DCGN API available inside GPU kernels (paper Figure 1).

A GPU kernel block receives this object as ``ctx.comm``.  All calls are
*slot-indexed*: the kernel explicitly names which of the GPU's virtual
ranks sources the communication ("Kernels pass this slot-identifier to
enforce explicit mappings of GPU-sourced communication requests to
slots", §3.2).

Buffers must live in GPU global memory (:class:`DeviceBuffer`); passing
host memory raises :class:`CommViolation` — mirroring the paper's note
that "for communication, we have to use global memory".

Mechanically, each call writes a request descriptor into the slot's
mailbox and spins on the completion flag; the host-side GPU-kernel
thread does the rest.

Collectives are scoped to a slot group, and the world is group 0
(:data:`~repro.dcgn.groups.WORLD_GID`): ``comm.barrier(slot)`` is the
world group's barrier, and ``comm.group("g").barrier(slot)`` runs the
same code on group ``g``.  Every blocking call with a nonblocking twin
is that twin followed by ``wait``.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, Optional, Tuple

import numpy as np

from ..gpusim.kernel import BlockContext
from ..gpusim.mailbox import MailboxRequest, SlotMailboxes
from ..gpusim.memory import DeviceBuffer
from ..sim.core import Event
from .errors import CommViolation
from .groups import WORLD_GID, DcgnGroup, GroupTable
from .ranks import ANY, RankMap
from .requests import CommStatus
from .windows import DcgnWindowTable

__all__ = ["GpuCommApi", "GpuGroupComm", "GpuRequestHandle"]


class GpuRequestHandle:
    """Handle for a nonblocking slot request posted from a GPU kernel.

    The kernel keeps computing while the GPU-kernel thread harvests the
    mailbox descriptor and the comm thread progresses the operation —
    the compute/communication overlap the paper's dedicated comm thread
    exists to provide.  ``wait`` spins on the completion flag (one
    device spin-check granularity after the host's PCIe write);
    ``test`` is a cheap flag read.
    """

    def __init__(self, mbox: SlotMailboxes, req: MailboxRequest) -> None:
        self._mbox = mbox
        self.req = req

    def test(self) -> bool:
        """True once the host flipped the completion flag."""
        return self.req.done.triggered

    def wait(self) -> Generator[Event, Any, Any]:
        """``yield from`` until complete; returns the CommStatus."""
        result = yield from self._mbox.wait(self.req)
        return result


class _GpuCollectives:
    """Every collective a GPU kernel can issue, scoped to one slot group.

    :class:`GpuCommApi` is this scope over the world group and
    :class:`GpuGroupComm` over any other group.  Collectives are staged
    against the group's membership and progressed on the group's own
    node-level MPI sub-communicator, so disjoint groups' collectives
    overlap on the wire.  ``root`` arguments are **group ranks**
    (vranks on the world).  Each group orders its own collectives, and
    sequence numbers are claimed at post time, so every slot must issue
    a group's (nonblocking or blocking) collectives in the same order —
    the usual MPI rule.
    """

    _api: "GpuCommApi"
    _scope: DcgnGroup

    @property
    def size(self) -> int:
        """Members of the scope (every virtual rank on the world)."""
        return self._scope.size

    def rank(self, slot: int) -> int:
        """The slot's rank in the scope (its vrank on the world)."""
        return self._scope.rank_of(self._api._vrank(slot))

    # -- plumbing -----------------------------------------------------------
    def _root_vrank(self, root: int) -> int:
        if not (0 <= root < self._scope.size):
            raise CommViolation(
                f"root {root} out of range [0,{self._scope.size}) in "
                f"group {self._scope.name!r}"
            )
        return self._scope.vranks[root]

    def _post(
        self, slot: int, op: str, **args
    ) -> Generator[Event, Any, GpuRequestHandle]:
        """Post a collective descriptor on this scope, claiming the
        group's next sequence number for ``slot``."""
        api = self._api
        gid = self._scope.gid
        vrank = api._vrank(slot)
        if vrank not in self._scope:
            raise CommViolation(
                f"slot {slot} (vrank {vrank}) is not a member of group "
                f"{self._scope.name!r}"
            )
        key = (gid, slot)
        seq = api._coll_counters.get(key, 0)
        api._coll_counters[key] = seq + 1
        req = yield from api._mbox.post(
            slot, op, coll_seq=seq, gid=gid, **args
        )
        return GpuRequestHandle(api._mbox, req)

    # -- collectives --------------------------------------------------------
    def ibarrier(self, slot: int) -> Generator[Event, Any, GpuRequestHandle]:
        """Nonblocking barrier across the scope."""
        handle = yield from self._post(slot, "barrier")
        return handle

    def barrier(self, slot: int) -> Generator[Event, Any, None]:
        """dcgn::gpu::barrier(slot) across the scope."""
        handle = yield from self.ibarrier(slot)
        yield from handle.wait()

    def ibroadcast(
        self,
        slot: int,
        root: int,
        buf: DeviceBuffer,
        nbytes: Optional[int] = None,
    ) -> Generator[Event, Any, GpuRequestHandle]:
        """Nonblocking broadcast from group rank ``root``: post and keep
        computing."""
        self._api._check_buf(buf, "broadcast")
        n = int(nbytes) if nbytes is not None else buf.nbytes
        handle = yield from self._post(
            slot, "bcast", root=self._root_vrank(root), buf=buf, nbytes=n
        )
        return handle

    def broadcast(
        self,
        slot: int,
        root: int,
        buf: DeviceBuffer,
        nbytes: Optional[int] = None,
    ) -> Generator[Event, Any, None]:
        """dcgn::gpu::broadcast(slot, root, buf, size)."""
        handle = yield from self.ibroadcast(slot, root, buf, nbytes)
        yield from handle.wait()

    def iallreduce(
        self,
        slot: int,
        buf: DeviceBuffer,
        op: str = "sum",
        nbytes: Optional[int] = None,
    ) -> Generator[Event, Any, GpuRequestHandle]:
        """Nonblocking in-place allreduce on the slot's buffer."""
        self._api._check_buf(buf, "allreduce")
        n = int(nbytes) if nbytes is not None else buf.nbytes
        handle = yield from self._post(
            slot, "allreduce", buf=buf, nbytes=n, reduce_op=op
        )
        return handle

    def allreduce(
        self,
        slot: int,
        buf: DeviceBuffer,
        op: str = "sum",
        nbytes: Optional[int] = None,
    ) -> Generator[Event, Any, None]:
        """dcgn::gpu::allReduce(slot, buf, op) — in-place result."""
        handle = yield from self.iallreduce(slot, buf, op, nbytes)
        yield from handle.wait()

    def igather(
        self,
        slot: int,
        root: int,
        sendbuf: DeviceBuffer,
        recvbuf: Optional[DeviceBuffer] = None,
    ) -> Generator[Event, Any, GpuRequestHandle]:
        """Nonblocking gather: post and keep computing (the comm thread
        progresses the collective asynchronously)."""
        self._api._check_buf(sendbuf, "gather")
        root_vrank = self._root_vrank(root)
        if recvbuf is not None:
            self._api._check_buf(recvbuf, "gather")
        elif self._api._vrank(slot) == root_vrank:
            raise CommViolation("gather root needs a recv buffer")
        handle = yield from self._post(
            slot, "gather", root=root_vrank, buf=sendbuf, rbuf=recvbuf,
            nbytes=sendbuf.nbytes,
        )
        return handle

    def gather(
        self,
        slot: int,
        root: int,
        sendbuf: DeviceBuffer,
        recvbuf: Optional[DeviceBuffer] = None,
    ) -> Generator[Event, Any, None]:
        """dcgn::gpu::gather — equal chunks to group rank ``root``
        (which supplies ``recvbuf``), in group order."""
        handle = yield from self.igather(slot, root, sendbuf, recvbuf)
        yield from handle.wait()

    def iscatter(
        self,
        slot: int,
        root: int,
        recvbuf: DeviceBuffer,
        sendbuf: Optional[DeviceBuffer] = None,
    ) -> Generator[Event, Any, GpuRequestHandle]:
        """Nonblocking scatter: post and keep computing."""
        self._api._check_buf(recvbuf, "scatter")
        root_vrank = self._root_vrank(root)
        if sendbuf is not None:
            self._api._check_buf(sendbuf, "scatter")
        elif self._api._vrank(slot) == root_vrank:
            raise CommViolation("scatter root needs a send buffer")
        handle = yield from self._post(
            slot, "scatter", root=root_vrank, buf=recvbuf, sbuf=sendbuf,
            nbytes=recvbuf.nbytes,
        )
        return handle

    def scatter(
        self,
        slot: int,
        root: int,
        recvbuf: DeviceBuffer,
        sendbuf: Optional[DeviceBuffer] = None,
    ) -> Generator[Event, Any, None]:
        """dcgn::gpu::scatter — equal chunks from group rank ``root``
        (which supplies ``sendbuf``), in group order."""
        handle = yield from self.iscatter(slot, root, recvbuf, sendbuf)
        yield from handle.wait()


class GpuCommApi(_GpuCollectives):
    """Slot-based communication interface bound to one kernel block.

    Its collectives are the world group's (:class:`_GpuCollectives`).
    """

    def __init__(
        self,
        block_ctx: BlockContext,
        mailboxes: SlotMailboxes,
        rankmap: RankMap,
        node: int,
        gpu_index: int,
        coll_counters: Dict[Tuple[int, int], int],
        groups: GroupTable,
        windows: Optional[DcgnWindowTable] = None,
    ) -> None:
        self._ctx = block_ctx
        self._mbox = mailboxes
        self._rankmap = rankmap
        #: Job-local node index (not the cluster node id).
        self._node = node
        self._gpu_index = gpu_index
        #: Collective counters keyed by (gid, slot), world included;
        #: shared across blocks and launches (owned by the GPU-kernel
        #: thread).
        self._coll_counters = coll_counters
        #: Slot-group registry (the job's shared GroupTable).
        self._groups = groups
        #: One-sided window registry (kernel-side validation).
        self._windows = windows
        self._api = self
        self._scope = groups.group(WORLD_GID)

    # -- identity --------------------------------------------------------
    @property
    def n_slots(self) -> int:
        return self._mbox.n_slots

    def _vrank(self, slot: int) -> int:
        return self._rankmap.slot_rank(self._node, self._gpu_index, slot)

    # -- helpers ------------------------------------------------------------
    def _check_buf(self, buf: DeviceBuffer, what: str) -> np.ndarray:
        if not isinstance(buf, DeviceBuffer):
            raise CommViolation(
                f"gpu::{what} requires GPU global memory, got "
                f"{type(buf).__name__} (paper §3.2: communication must "
                f"use global memory)"
            )
        dev = self._ctx.device
        if not dev.owns(buf):
            raise CommViolation(
                f"gpu::{what}: buffer {buf.name!r} lives on another device"
            )
        buf.check_usable()
        return buf.data

    def _check_peer(self, peer: int) -> None:
        if peer != ANY:
            self._rankmap.info(peer)

    # -- point-to-point (paper: dcgn::gpu::iSendTo/iRecvFrom) --------------
    def isend(
        self,
        slot: int,
        dest: int,
        buf: DeviceBuffer,
        nbytes: Optional[int] = None,
    ) -> Generator[Event, Any, GpuRequestHandle]:
        """Nonblocking slot send: post the descriptor and keep computing.

        The GPU-kernel thread snapshots the payload at harvest time
        (the PCIe read), so the kernel must not overwrite ``buf`` until
        ``wait`` returns.
        """
        self._check_buf(buf, "send")
        self._check_peer(dest)
        n = int(nbytes) if nbytes is not None else buf.nbytes
        req = yield from self._mbox.post(
            slot, "send", dest=dest, buf=buf, nbytes=n
        )
        return GpuRequestHandle(self._mbox, req)

    def send(
        self,
        slot: int,
        dest: int,
        buf: DeviceBuffer,
        nbytes: Optional[int] = None,
    ) -> Generator[Event, Any, None]:
        """dcgn::gpu::send(slot, dest, buf, size)."""
        handle = yield from self.isend(slot, dest, buf, nbytes)
        yield from handle.wait()

    def irecv(
        self,
        slot: int,
        source: int,
        buf: DeviceBuffer,
        nbytes: Optional[int] = None,
    ) -> Generator[Event, Any, GpuRequestHandle]:
        """Nonblocking slot receive into ``buf`` (read after ``wait``)."""
        self._check_buf(buf, "recv")
        self._check_peer(source)
        n = int(nbytes) if nbytes is not None else buf.nbytes
        req = yield from self._mbox.post(
            slot, "recv", source=source, buf=buf, nbytes=n
        )
        return GpuRequestHandle(self._mbox, req)

    def recv(
        self,
        slot: int,
        source: int,
        buf: DeviceBuffer,
        nbytes: Optional[int] = None,
    ) -> Generator[Event, Any, CommStatus]:
        """dcgn::gpu::recv(slot, source, buf, size, &stat)."""
        handle = yield from self.irecv(slot, source, buf, nbytes)
        status = yield from handle.wait()
        return status

    def sendrecv(
        self,
        slot: int,
        dest: int,
        sendbuf: DeviceBuffer,
        source: int,
        recvbuf: DeviceBuffer,
        nbytes: Optional[int] = None,
    ) -> Generator[Event, Any, CommStatus]:
        """Fused send+recv: both descriptors posted before waiting.

        The paper (§5.1, matrix multiplication) credits this fusion for
        Cannon's DCGN performance: one mailbox polling round services
        both requests instead of two.
        """
        self._check_buf(sendbuf, "sendrecv")
        self._check_buf(recvbuf, "sendrecv")
        self._check_peer(dest)
        self._check_peer(source)
        sn = int(nbytes) if nbytes is not None else sendbuf.nbytes
        rn = int(nbytes) if nbytes is not None else recvbuf.nbytes
        sreq = yield from self._mbox.post(
            slot, "send", dest=dest, buf=sendbuf, nbytes=sn
        )
        rreq = yield from self._mbox.post(
            slot, "recv", source=source, buf=recvbuf, nbytes=rn
        )
        yield from self._mbox.wait(sreq)
        status = yield from self._mbox.wait(rreq)
        return status

    def sendrecv_replace(
        self,
        slot: int,
        dest: int,
        source: int,
        buf: DeviceBuffer,
        nbytes: Optional[int] = None,
    ) -> Generator[Event, Any, CommStatus]:
        """In-place fused exchange (the MPI_Sendrecv_replace analogue).

        Safe because the GPU-kernel thread snapshots the outgoing payload
        (PCIe read) before any incoming payload is written back.
        """
        status = yield from self.sendrecv(
            slot, dest, buf, source, buf, nbytes=nbytes
        )
        return status

    #: Paper-style aliases (dcgn::gpu::iSendTo / iRecvFrom).
    iSendTo = isend
    iRecvFrom = irecv

    # -- one-sided windows (GPU-sourced, matching-free) --------------------
    def _check_window(
        self,
        win: str,
        target: int,
        buf: DeviceBuffer,
        nbytes: Optional[int],
        offset: int,
        what: str,
    ) -> int:
        """Kernel-side validation of a one-sided access: the window
        exists, dtypes match, the byte count fits the device buffer
        and divides into whole elements, and the target range is in
        bounds — so mistakes surface inside the kernel instead of
        killing a service thread (or silently truncating)."""
        self._check_buf(buf, what)
        if target == ANY or not (0 <= target < self._rankmap.size):
            raise CommViolation(
                f"gpu::{what} needs a concrete target virtual rank, got "
                f"{target} (one-sided ops have no wildcard matching)"
            )
        if self._windows is None:
            raise CommViolation("this job declares no windows")
        window = self._windows.by_name(str(win))
        window.locate(target)  # raises if the vrank has no region
        if buf.data.dtype != window.dtype:
            raise CommViolation(
                f"gpu::{what}: buffer dtype {buf.data.dtype} does not "
                f"match window {window.name!r} dtype {window.dtype}"
            )
        n = int(nbytes) if nbytes is not None else buf.nbytes
        if n > buf.nbytes:
            raise CommViolation(
                f"gpu::{what}: nbytes {n} exceeds device buffer "
                f"{buf.name!r} of {buf.nbytes} B"
            )
        if n % window.dtype.itemsize != 0:
            raise CommViolation(
                f"gpu::{what}: nbytes {n} is not a whole number of "
                f"{window.dtype} elements"
            )
        window.check_range(target, int(offset), n // window.dtype.itemsize)
        return n

    def iput(
        self,
        slot: int,
        win: str,
        dest: int,
        buf: DeviceBuffer,
        offset: int = 0,
        nbytes: Optional[int] = None,
    ) -> Generator[Event, Any, GpuRequestHandle]:
        """Nonblocking slot put: post the descriptor and keep computing
        (``wait`` guarantees remote completion)."""
        n = self._check_window(win, dest, buf, nbytes, offset, "put")
        req = yield from self._mbox.post(
            slot, "rma_put", win=str(win), dest=dest, buf=buf, nbytes=n,
            offset=int(offset),
        )
        return GpuRequestHandle(self._mbox, req)

    def put(
        self,
        slot: int,
        win: str,
        dest: int,
        buf: DeviceBuffer,
        offset: int = 0,
        nbytes: Optional[int] = None,
    ) -> Generator[Event, Any, None]:
        """dcgn::gpu::put — push ``buf`` straight into virtual rank
        ``dest``'s region of window ``win`` (element ``offset``).

        The paper's GPU-as-source idea taken to its limit: no matching
        receive exists anywhere — not on the target GPU, not even in
        the target node's comm thread.  The host thread harvests the
        descriptor, reads the payload over PCIe, and the local comm
        thread RDMA-writes it into the remote window.  Completion is
        *remote*: when the call returns, a neighbor kernel reading its
        own window (after its own synchronization) sees the halo."""
        handle = yield from self.iput(slot, win, dest, buf, offset, nbytes)
        yield from handle.wait()

    def get(
        self,
        slot: int,
        win: str,
        source: int,
        buf: DeviceBuffer,
        offset: int = 0,
        nbytes: Optional[int] = None,
    ) -> Generator[Event, Any, CommStatus]:
        """dcgn::gpu::get — one-sided read of ``source``'s window
        region into ``buf``; the source rank never participates."""
        n = self._check_window(win, source, buf, nbytes, offset, "get")
        req = yield from self._mbox.post(
            slot, "rma_get", win=str(win), source=source, buf=buf,
            nbytes=n, offset=int(offset),
        )
        status = yield from self._mbox.wait(req)
        return status

    def accumulate(
        self,
        slot: int,
        win: str,
        dest: int,
        buf: DeviceBuffer,
        op: str = "sum",
        offset: int = 0,
        nbytes: Optional[int] = None,
    ) -> Generator[Event, Any, None]:
        """dcgn::gpu::accumulate — one-sided read-modify-write into
        ``dest``'s window region; ``"replace"`` is an ordered
        overwrite.  Same-pair accumulates apply in program order."""
        from .cpu_api import _check_reduce_op_name

        n = self._check_window(
            win, dest, buf, nbytes, offset, "accumulate"
        )
        req = yield from self._mbox.post(
            slot, "rma_acc", win=str(win), dest=dest, buf=buf, nbytes=n,
            offset=int(offset), reduce_op=_check_reduce_op_name(op),
        )
        yield from self._mbox.wait(req)

    #: Paper-style aliases.
    iPutTo = iput

    #: Paper-style aliases (dcgn::gpu::iAllReduce / iBroadcast).
    iAllreduce = _GpuCollectives.iallreduce
    iBroadcast = _GpuCollectives.ibroadcast

    # -- slot groups --------------------------------------------------------
    def split(
        self, slot: int, color: int, key: int = 0
    ) -> Generator[Event, Any, Optional["GpuGroupComm"]]:
        """Collective ``comm_split`` over every virtual rank in the job.

        Every slot (and every CPU rank) must call it in the same world
        collective order; slots sharing a ``color`` get a
        :class:`GpuGroupComm` over the new group, ordered by
        (key, vrank).  A negative color opts out and returns ``None``.
        """
        handle = yield from self._post(
            slot, "split", color=int(color), key=int(key)
        )
        group = yield from handle.wait()
        if group is None:
            return None
        return GpuGroupComm(self, group)

    def group(self, name: str) -> "GpuGroupComm":
        """Handle for a slot group declared in ``DcgnConfig``."""
        return GpuGroupComm(self, self._groups.by_name(name))


class GpuGroupComm(_GpuCollectives):
    """Slot-group communication scope inside a GPU kernel.

    Returned by :meth:`GpuCommApi.split` / :meth:`GpuCommApi.group`;
    its collectives are the same ones the kernel's ``comm`` runs on the
    world group (:class:`_GpuCollectives`), scoped to ``group``.
    """

    def __init__(self, api: GpuCommApi, group: DcgnGroup) -> None:
        self._api = api
        self._scope = group
        self.group = group

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<GpuGroupComm {self.group.name!r} size={self.size}>"
