"""One-sided communication: MPI-3 windows over the simulated fabric.

The send/recv layer always needs the target's cooperation — a matching
receive, tag FIFO order, rendezvous handshakes.  A :class:`Window`
removes all of that from the data path: a rank exposes a region of its
memory, and any other rank moves bytes into or out of it with
``put``/``get``/``accumulate`` while the target's CPU does nothing at
all.  That is RDMA semantics, and it is the natural extension of the
paper's DCGN model (communication *sourced* by data-parallel code, no
CPU rendezvous) down into the wire protocol itself: a GPU kernel's halo
push needs no matching receive anywhere.

Wire model (all charges ride the existing
:class:`~repro.hw.topology.Topology` channels, so contention appears
wherever the fabric would contend):

* **eager** — payloads at or below the autotuned
  ``rma_eager_max_bytes`` travel as one wire transfer (header +
  inlined payload) and land through a bounce copy on the target host's
  staging path (the intra-node shared-memory channel).  One fabric
  latency, but the target memory system pays a copy.
* **rendezvous (true RDMA)** — larger payloads first pay an
  rkey/validation header round-trip, then the payload is written
  *directly* into the registered window memory: zero-copy, no target
  involvement beyond the NIC.  Window memory is registered at creation,
  which is why no per-operation registration appears.
* the origin charges :attr:`~repro.hw.params.IbParams.rma_setup_us`
  per operation (WQE build + doorbell) instead of the heavier
  two-sided ``sw_overhead_us`` — the one-sided path has no matching
  software stack.

Synchronization implements all three MPI-3 modes:

* **fence** — collective epochs (:meth:`WinContext.fence`);
* **PSCW** — post/start/complete/wait generalized active target
  (:meth:`WinContext.post` / :meth:`~WinContext.start` /
  :meth:`~WinContext.complete` / :meth:`~WinContext.wait_sync`);
* **passive target** — :meth:`WinContext.lock` /
  :meth:`~WinContext.lock_all` with shared/exclusive semantics and
  :meth:`~WinContext.flush` completion.

Completion semantics are *remote completion*: the simulated process
behind every operation finishes only once the bytes have landed in (or
been read from) the target window, so ``flush``/``fence``/``rput.wait``
all guarantee target visibility — the strongest of the completions MPI
allows, and the one that keeps the model simple to reason about.

Accumulates additionally honour MPI's per-(origin, target) ordering
guarantee: they apply in program order even when their wire transfers
would complete out of order, and each element applies atomically (one
simulated instant).

**Analytic fast path.**  On a communicator with ``backend="analytic"``
or ``"pricing"``, host-window operations stop spawning per-op wire
processes: each op is priced at issue time against per-node *cursors*
(the origin's NIC injection path and the target's staging channel, the
two serialization points of the exact model), with every wire leg's
end-to-end time interned by the interconnect
(``Interconnect.wire_time``).  The resulting
epoch is a per-(origin, target) batch of finish times committed at the
synchronization point — ``fence``/``complete``/``unlock``/``flush``
wait for one computed instant per pair instead of joining a process
per op, and a coalesced-put batch prices as the single transfer it
rides.  Payload bytes are applied synchronously at issue (legal:
epochs forbid conflicting access until the sync point; ``"pricing"``
skips data application entirely), accumulate program order is
preserved through the same per-pair chain the exact path uses, and
ops needing an observable completion (``get``/``rput``/``rget``/
``get_accumulate``) get a real event scheduled at their computed
finish.  Device-memory windows keep the exact per-op path (the PCIe
hop is a contended resource the cursors do not model), as does the
lock machinery.  What the cursors ignore: receive-side occupancy
queueing and spine contention — second-order on the modeled fabrics.
"""

from __future__ import annotations

from typing import (
    Any,
    Dict,
    Generator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from ..hw.memory import HostBuffer
from ..sim.batch import EventBatch
from ..sim.core import Event, Process, us
from .communicator import Communicator, HEADER_BYTES, MpiContext, Request
from .datatypes import ReduceOp
from .errors import RmaError

__all__ = ["Window", "WinContext", "RMA_TAG_BASE"]

#: Tag space of RMA control messages (PSCW post/complete notifications),
#: far above the collective tag blocks.
RMA_TAG_BASE = 1 << 28

#: Per-window control-tag stride (post, complete).
_TAG_STRIDE = 4
_TAG_POST = 0
_TAG_COMPLETE = 1


class _LockState:
    """Passive-target lock state of one window rank (NIC-side)."""

    __slots__ = ("holders", "waitq")

    def __init__(self) -> None:
        #: origin rank → holds exclusively?
        self.holders: Dict[int, bool] = {}
        #: FIFO of (grant event, origin, exclusive) waiters.
        self.waitq: List[Tuple[Event, int, bool]] = []

    def can_grant(self, exclusive: bool) -> bool:
        if exclusive:
            return not self.holders
        return not any(self.holders.values())


class Window:
    """A one-sided memory window over a communicator.

    ``bufs`` names each rank's exposed region: a NumPy array, a
    :class:`~repro.hw.memory.HostBuffer`, a
    :class:`~repro.gpusim.memory.DeviceBuffer` (GPU global memory —
    remote access then pays the target-side PCIe hop, G92-era hardware
    has no NIC-to-GPU path), or ``None`` for a zero-size window.
    Offsets in every operation are in *elements* of the target rank's
    window dtype (MPI displacement-unit semantics).

    Simulated ranks create windows collectively via
    :meth:`MpiContext.win_create` / :meth:`MpiContext.win_allocate`;
    the driver-level constructor here is what those land on (and what
    tests/benchmarks may call directly).

    ``passive_all=True`` puts the window in the permanently-exposed
    mode DCGN's comm threads use: no epoch discipline is enforced and
    every operation completes remotely on its own — the comm thread,
    as the sole MPI caller on its node, provides the consistency the
    epochs would.
    """

    def __init__(
        self,
        comm: Communicator,
        bufs: Sequence[Any],
        name: str = "",
        passive_all: bool = False,
        coalesce: bool = False,
    ) -> None:
        comm._ensure_alive()
        if len(bufs) != comm.size:
            raise RmaError("win_create needs one buffer entry per rank")
        self.comm = comm
        self.sim = comm.sim
        self.passive_all = passive_all
        self.wid = comm._win_count
        comm._win_count += 1
        self.name = name or f"{comm.name}.win{self.wid}"
        self._ib = comm._ib
        self._freed = False
        self._arrays: List[Optional[np.ndarray]] = []
        self._device: List[Optional[Any]] = []
        for rank, buf in enumerate(bufs):
            arr, dev = self._adopt(rank, buf)
            self._arrays.append(arr)
            self._device.append(dev)
        size = comm.size
        #: Per-origin access-epoch mode: None | "fence" | "pscw".
        self._mode: List[Optional[str]] = [None] * size
        #: Per-origin PSCW access group (targets ``start`` named).
        self._start_group: List[Optional[frozenset]] = [None] * size
        #: Per-target PSCW exposure group (origins ``post`` named).
        self._exposure: List[Optional[Tuple[int, ...]]] = [None] * size
        #: Per-origin passive locks held: target → exclusive?
        self._locks_held: List[Dict[int, bool]] = [dict() for _ in range(size)]
        self._lock_all: List[bool] = [False] * size
        #: Per-target NIC lock state.
        self._lock_state: List[_LockState] = [_LockState() for _ in range(size)]
        #: Per-origin in-flight operation processes, by target.
        self._outgoing: List[Dict[int, List[Process]]] = [
            dict() for _ in range(size)
        ]
        #: (origin, target) → completion event of the last accumulate
        #: (MPI ordering guarantee: same-pair accumulates apply in
        #: program order).
        self._acc_tail: Dict[Tuple[int, int], Event] = {}
        self._eager_max = int(
            getattr(comm.tuning, "rma_eager_max_bytes", 8 * 1024)
        )
        #: MVAPICH2-style put coalescing: consecutive small eager puts
        #: to one target inside an epoch are buffered and ride a single
        #: wire transfer (one header, one fabric latency) at the next
        #: completion point or conflicting operation.  Off by default —
        #: existing timings stay byte-stable.
        self.coalesce = coalesce
        #: origin → target → list of (payload snapshot, offset) puts
        #: not yet on the wire, plus their byte total.
        self._pending_puts: List[Dict[int, List[Tuple[np.ndarray, int]]]] = [
            dict() for _ in range(size)
        ]
        self._pending_bytes: List[Dict[int, int]] = [
            dict() for _ in range(size)
        ]
        #: Analytic fast path (see module doc): price host-window ops
        #: against per-node cursors instead of spawning wire processes.
        self._an = comm.backend != "exact"
        self._price_only = comm.backend == "pricing"
        if self._an:
            prof = comm.cluster.interconnect.topology.profile()
            #: NIC injection-path occupancy model: alpha/2 + nbytes*beta
            #: — the tx channel's exact hold time on the modeled fabrics
            #: (the latency's other half rides the receiver's ejection
            #: channel, which the pricer folds into the wire time).
            self._alpha_inj = float(prof.alpha_s) / 2.0
            self._beta = float(prof.beta_s_per_B)
            #: node → time its NIC injection path frees up.
            self._tx_free: Dict[int, float] = {}
            #: node → time its host staging (shm) channel frees up.
            self._shm_free: Dict[int, float] = {}
            #: (origin, target) → finish time of the last accumulate
            #: (the analytic twin of ``_acc_tail``).
            self._acc_free: Dict[Tuple[int, int], float] = {}
            #: origin → target → latest analytic op finish time.
            self._an_fins: List[Dict[int, float]] = [
                dict() for _ in range(size)
            ]
            #: Interned end-to-end wire time of one leg (src, dst, B).
            self._wt = comm.cluster.interconnect.wire_time
            self._an_max_fin = 0.0
        comm._windows.append(self)
        comm._count("win_create")

    # -- construction helpers ----------------------------------------------
    def _adopt(
        self, rank: int, buf: Any
    ) -> Tuple[Optional[np.ndarray], Optional[Any]]:
        if buf is None:
            return None, None
        if isinstance(buf, HostBuffer):
            node = self.comm.placement[rank]
            if buf.node_id != node:
                raise RmaError(
                    f"rank {rank} (node {node}) cannot expose host "
                    f"memory living on node {buf.node_id}"
                )
            return buf.data, None
        if isinstance(buf, np.ndarray):
            if not buf.flags["C_CONTIGUOUS"]:
                raise RmaError("window memory must be C-contiguous")
            return buf, None
        # DeviceBuffer duck-typed to avoid importing gpusim eagerly.
        if hasattr(buf, "device_id") and hasattr(buf, "data"):
            node = self.comm.placement[rank]
            if buf.node_id != node:
                raise RmaError(
                    f"rank {rank} (node {node}) cannot expose device "
                    f"memory living on node {buf.node_id}"
                )
            return buf.data, buf
        raise RmaError(
            f"cannot expose {type(buf).__name__} as window memory"
        )

    @classmethod
    def allocate(
        cls,
        comm: Communicator,
        count: int,
        dtype=np.float64,
        name: str = "",
        passive_all: bool = False,
        coalesce: bool = False,
    ) -> "Window":
        """Driver-level ``MPI_Win_allocate``: every rank gets ``count``
        fresh elements of ``dtype`` on its own node."""
        bufs = [
            comm.cluster.nodes[comm.placement[r]].alloc(
                count, dtype=dtype, name=f"win.r{r}"
            )
            for r in range(comm.size)
        ]
        return cls(
            comm, bufs, name=name, passive_all=passive_all,
            coalesce=coalesce,
        )

    # -- introspection ------------------------------------------------------
    @property
    def size(self) -> int:
        return self.comm.size

    def region(self, rank: int) -> Optional[np.ndarray]:
        """Rank ``rank``'s exposed memory (driver/tests view)."""
        return self._arrays[rank]

    def nbytes_of(self, rank: int) -> int:
        arr = self._arrays[rank]
        return 0 if arr is None else int(arr.nbytes)

    def ctx(self, rank: int) -> "WinContext":
        """The window facade rank ``rank`` drives."""
        self.comm._check_rank(rank)
        return WinContext(self, rank)

    def free(self) -> None:
        """Driver-level release; any further operation raises.  Refuses
        while operations are still on the wire (a landing transfer
        would write through the released arrays) — complete them first
        (``flush`` / the collective :meth:`WinContext.free`)."""
        self._ensure_usable()
        if any(pend for pend in self._pending_puts):
            raise RmaError(
                f"cannot free window {self.name!r} with coalesced puts "
                "still buffered (flush first)"
            )
        for lists in self._outgoing:
            for procs in lists.values():
                if any(p.is_alive for p in procs):
                    raise RmaError(
                        f"cannot free window {self.name!r} with "
                        "operations in flight (flush first)"
                    )
        if self._an and any(fins for fins in self._an_fins):
            raise RmaError(
                f"cannot free window {self.name!r} with analytic "
                "operations unflushed (flush first)"
            )
        self._freed = True
        self._arrays = []
        self._device = []
        self._outgoing = []
        self._pending_puts = []
        self._pending_bytes = []
        self._acc_tail.clear()
        if self in self.comm._windows:
            self.comm._windows.remove(self)
        self.comm._count("win_free")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Window {self.name!r} over {self.comm.name!r}>"

    # -- guards -------------------------------------------------------------
    def _ensure_usable(self) -> None:
        self.comm._ensure_alive()
        if self._freed:
            raise RmaError(f"window {self.name!r} has been freed")

    def _require_access(self, origin: int, target: int, what: str) -> None:
        self._ensure_usable()
        self.comm._check_rank(target)
        if self.passive_all:
            return
        mode = self._mode[origin]
        if mode == "fence":
            return
        if mode == "pscw" and target in (self._start_group[origin] or ()):
            return
        if self._lock_all[origin] or target in self._locks_held[origin]:
            return
        raise RmaError(
            f"{what} by rank {origin} targeting rank {target} outside "
            "any access epoch (fence / start / lock first)"
        )

    def _target_view(
        self, target: int, offset: int, count: int, what: str
    ) -> np.ndarray:
        arr = self._arrays[target]
        if arr is None:
            raise RmaError(f"rank {target} exposes a zero-size window")
        flat = arr.reshape(-1)
        if offset < 0 or offset + count > flat.size:
            raise RmaError(
                f"{what}: [{offset}, {offset + count}) outside rank "
                f"{target}'s window of {flat.size} elements"
            )
        return flat[offset : offset + count]

    @staticmethod
    def _as_elems(
        data: Any, dtype: np.dtype, what: str, writable: bool = False
    ) -> np.ndarray:
        arr = data.data if isinstance(data, HostBuffer) else data
        if not isinstance(arr, np.ndarray):
            raise RmaError(f"{what} needs an array payload")
        if arr.dtype != dtype:
            raise RmaError(
                f"{what}: payload dtype {arr.dtype} does not match the "
                f"target window dtype {dtype}"
            )
        if writable and not arr.flags["C_CONTIGUOUS"]:
            # reshape(-1) would hand back a copy and the results would
            # silently vanish into it; fail loudly like the two-sided
            # deliver path does.
            raise RmaError(
                f"{what} needs a C-contiguous result buffer"
            )
        return arr.reshape(-1)

    # -- wire building blocks ----------------------------------------------
    def _setup(self) -> Event:
        """Origin-side WQE/doorbell charge of one one-sided op."""
        return self.sim.timeout(us(self._ib.rma_setup_us))

    def _op_span(
        self, t0: float, t1: float, origin: int, target: int,
        name: str, nbytes: int, **attrs: Any,
    ) -> None:
        """Record one one-sided op as a span on the origin's track.

        Exact procs call this with their own lifetime; analytic issue
        points call it with ``[now, priced fin]`` — the span carries
        the priced duration even though nothing simulates it.
        """
        spans = self.sim.spans
        if spans is not None:
            spans.complete(
                t0, t1, f"{name}->r{target}", "rma.op",
                self.comm.span_track(origin),
                attrs={"nbytes": nbytes, "win": self.name, **attrs},
            )

    def _wire(self, src: int, dst: int, nbytes: int):
        yield from self.comm._wire(src, dst, nbytes)

    def _bounce(self, target: int, nbytes: int):
        """Target-host staging copy of an eager payload (shm channel)."""
        yield from self.comm._wire(target, target, nbytes)

    def _pcie(self, target: int):
        """The target's PCIe link when its window is device memory."""
        dev = self._device[target]
        if dev is None:
            return None
        node = self.comm.cluster.nodes[self.comm.placement[target]]
        return node.gpus[dev.device_id].pcie

    # -- analytic pricers (fast-path backends; see module doc) -------------
    def _an_usable(self, target: int) -> bool:
        """Host-window targets price analytically; device windows keep
        the exact per-op path (PCIe contention)."""
        return self._an and self._device[target] is None

    def _leg(self, src_node: int, dst_node: int, nbytes: int,
             t: float) -> float:
        """One wire leg starting no earlier than ``t``: serializes on
        the source's injection path, returns the arrival time."""
        if src_node == dst_node:
            # Same-node leg rides the staging channel outright.
            return self._bounce_leg(src_node, nbytes, t)
        interconnect = self.comm.cluster.interconnect
        if interconnect.accounting:
            interconnect.account(src_node, dst_node, nbytes)
        free = self._tx_free.get(src_node, 0.0)
        s = t if t >= free else free
        self._tx_free[src_node] = s + self._alpha_inj + nbytes * self._beta
        return s + self._wt(src_node, dst_node, nbytes)

    def _bounce_leg(self, node: int, nbytes: int, t: float) -> float:
        """Target-host staging copy: serializes on the shm channel."""
        interconnect = self.comm.cluster.interconnect
        if interconnect.accounting:
            interconnect.account(node, node, nbytes)
        free = self._shm_free.get(node, 0.0)
        s = t if t >= free else free
        fin = s + self._wt(node, node, nbytes)
        self._shm_free[node] = fin
        return fin

    def _an_record(self, origin: int, target: int, fin: float) -> float:
        """Book an analytic op's finish into the epoch batch."""
        fins = self._an_fins[origin]
        prev = fins.get(target, 0.0)
        if fin > prev:
            fins[target] = fin
        if fin > self._an_max_fin:
            self._an_max_fin = fin
        self.sim.stats.fastpath_rma_ops += 1
        return fin

    def _an_event(self, fin: float, name: str) -> Event:
        """A real event firing at the computed finish (rput/rget/...)."""
        ev = self.sim.event(name=name)
        batch = EventBatch(self.sim, name="rma")
        batch.add(fin, ev, None)
        batch.commit()
        return ev

    def _an_put(self, origin: int, target: int, nbytes: int,
                t: float) -> float:
        o_n = self.comm.placement[origin]
        t_n = self.comm.placement[target]
        if nbytes <= self._eager_max:
            self.comm._count_unchecked("rma_put[eager]")
            a = self._leg(o_n, t_n, HEADER_BYTES + nbytes, t)
            return self._bounce_leg(t_n, nbytes, a)
        self.comm._count_unchecked("rma_put[rendezvous]")
        # rkey/validation round-trip, then the zero-copy RDMA write.
        # The CTS reply is a response leg: pure wire time, no cursor
        # (a future booking on the target's cursor would delay traffic
        # the target issues *now* — a start-time inversion the exact
        # FIFO channels never exhibit).
        a = self._leg(o_n, t_n, HEADER_BYTES, t)
        a += self._wt(t_n, o_n, HEADER_BYTES)
        return self._leg(o_n, t_n, HEADER_BYTES + nbytes, a)

    def _an_get(self, origin: int, target: int, nbytes: int,
                t: float) -> float:
        o_n = self.comm.placement[origin]
        t_n = self.comm.placement[target]
        a = self._leg(o_n, t_n, HEADER_BYTES, t)
        # Payload return: response leg (see _an_put) — its own
        # serialization is inside the wire time; only its queueing
        # effect on the target's other traffic is dropped.
        return a + self._wt(t_n, o_n, HEADER_BYTES + nbytes)

    def _an_acc(self, origin: int, target: int, nbytes: int, t: float,
                fetch: bool) -> float:
        o_n = self.comm.placement[origin]
        t_n = self.comm.placement[target]
        if nbytes <= self._eager_max:
            self.comm._count_unchecked("rma_accumulate[eager]")
            a = self._leg(o_n, t_n, HEADER_BYTES + nbytes, t)
        else:
            self.comm._count_unchecked("rma_accumulate[rendezvous]")
            a = self._leg(o_n, t_n, HEADER_BYTES, t)
            a += self._wt(t_n, o_n, HEADER_BYTES)
            a = self._leg(o_n, t_n, HEADER_BYTES + nbytes, a)
        # Same-pair program order: the RMW applies behind the previous
        # accumulate of this (origin, target) pair.
        prev = self._acc_free.get((origin, target), 0.0)
        if prev > a:
            a = prev
        fin = self._bounce_leg(t_n, nbytes, a)
        self._acc_free[(origin, target)] = fin
        if fetch:
            fin += self._wt(t_n, o_n, HEADER_BYTES + nbytes)
        return fin

    def _track(self, origin: int, target: int, proc: Process) -> Process:
        lists = self._outgoing[origin]
        procs = lists.setdefault(target, [])
        # Prune completed ops lazily so long passive epochs stay bounded.
        if len(procs) > 32:
            lists[target] = procs = [p for p in procs if p.is_alive]
        procs.append(proc)
        return proc

    # -- the one-sided data movers (spawned processes) ---------------------
    def _put_proc(
        self, origin: int, target: int, data: np.ndarray, offset: int
    ) -> Generator[Event, Any, None]:
        nbytes = int(data.nbytes)
        t0 = self.sim.now
        if nbytes <= self._eager_max:
            self.comm._count_unchecked("rma_put[eager]")
            proto = "eager"
            yield from self._wire(origin, target, HEADER_BYTES + nbytes)
            yield from self._bounce(target, nbytes)
        else:
            self.comm._count_unchecked("rma_put[rendezvous]")
            proto = "rndv"
            # rkey/validation round-trip, then a direct RDMA write into
            # the registered region — no target-side copy.
            yield from self._wire(origin, target, HEADER_BYTES)
            yield from self._wire(target, origin, HEADER_BYTES)
            yield from self._wire(origin, target, HEADER_BYTES + nbytes)
        pcie = self._pcie(target)
        if pcie is not None:
            yield from pcie.write(nbytes)
        view = self._target_view(target, offset, data.size, "put")
        view[...] = data
        self._op_span(t0, self.sim.now, origin, target, "put", nbytes,
                      proto=proto)

    def _coalesced_put_proc(
        self,
        origin: int,
        target: int,
        ops: List[Tuple[np.ndarray, int]],
        nbytes: int,
    ) -> Generator[Event, Any, None]:
        """One wire transfer carrying a batch of buffered small puts.

        The batch pays a single header and a single fabric traversal —
        the whole point of coalescing — then lands each constituent put
        in issue order through the usual target-side staging copy."""
        self.comm._count_unchecked("rma_put[coalesced_flush]")
        t0 = self.sim.now
        yield from self._wire(origin, target, HEADER_BYTES + nbytes)
        yield from self._bounce(target, nbytes)
        pcie = self._pcie(target)
        if pcie is not None:
            yield from pcie.write(nbytes)
        for data, offset in ops:
            view = self._target_view(target, offset, data.size, "put")
            view[...] = data
        self._op_span(t0, self.sim.now, origin, target, "put_coalesced",
                      nbytes, n_ops=len(ops))

    def _flush_pending_puts(self, origin: int, target: int) -> None:
        """Materialize the buffered puts to ``target`` (if any) as one
        tracked wire process.  Called from every completion point and
        before any conflicting operation to the same target.

        On the analytic path the batch prices as the single eager-shaped
        transfer it rides (one header, one fabric traversal, one staging
        copy of the byte total); the constituent puts already landed at
        issue time."""
        ops = self._pending_puts[origin].pop(target, None)
        if not ops:
            return
        nbytes = self._pending_bytes[origin].pop(target)
        if self._an_usable(target):
            self.comm._count_unchecked("rma_put[coalesced_flush]")
            o_n = self.comm.placement[origin]
            t_n = self.comm.placement[target]
            a = self._leg(o_n, t_n, HEADER_BYTES + nbytes, self.sim.now)
            fin = self._bounce_leg(t_n, nbytes, a)
            self._an_record(origin, target, fin)
            self._op_span(self.sim.now, fin, origin, target,
                          "put_coalesced", nbytes, n_ops=len(ops))
            return
        proc = self.sim.process(
            self._coalesced_put_proc(origin, target, ops, nbytes),
            name=f"{self.name}.cput(r{origin}->r{target})",
        )
        self._track(origin, target, proc)

    def _get_proc(
        self,
        origin: int,
        target: int,
        recvbuf: np.ndarray,
        offset: int,
    ) -> Generator[Event, Any, None]:
        count = recvbuf.size
        view = self._target_view(target, offset, count, "get")
        nbytes = int(view.nbytes)
        t0 = self.sim.now
        yield from self._wire(origin, target, HEADER_BYTES)
        pcie = self._pcie(target)
        if pcie is not None:
            yield from pcie.read(nbytes)
        # Snapshot at the instant the NIC reads the region: writes
        # landing while the payload is on the wire must not appear in
        # the result (the real RDMA read could not have carried them).
        data = self._target_view(target, offset, count, "get").copy()
        yield from self._wire(target, origin, HEADER_BYTES + nbytes)
        recvbuf[...] = data
        self._op_span(t0, self.sim.now, origin, target, "get", nbytes)

    def _acc_proc(
        self,
        origin: int,
        target: int,
        data: np.ndarray,
        offset: int,
        op: ReduceOp,
        prev: Optional[Event],
        done: Event,
        fetch_into: Optional[np.ndarray] = None,
    ) -> Generator[Event, Any, None]:
        nbytes = int(data.nbytes)
        t0 = self.sim.now
        try:
            if nbytes <= self._eager_max:
                self.comm._count_unchecked("rma_accumulate[eager]")
                yield from self._wire(origin, target, HEADER_BYTES + nbytes)
            else:
                self.comm._count_unchecked("rma_accumulate[rendezvous]")
                yield from self._wire(origin, target, HEADER_BYTES)
                yield from self._wire(target, origin, HEADER_BYTES)
                yield from self._wire(origin, target, HEADER_BYTES + nbytes)
            # MPI ordering guarantee: accumulates between the same
            # (origin, target) pair apply in program order.
            if prev is not None and not prev.triggered:
                yield prev
            pcie = self._pcie(target)
            if pcie is not None:
                # Read-modify-write through the target's PCIe link.
                yield from pcie.read(nbytes)
            # The read-modify-write pass through target memory (an
            # accumulate can never be a zero-copy NIC write).
            yield from self._bounce(target, nbytes)
            view = self._target_view(target, offset, data.size, "accumulate")
            if fetch_into is not None:
                fetch_into[...] = view
            view[...] = op.combine(view, data)
            if pcie is not None:
                yield from pcie.write(nbytes)
            if fetch_into is not None:
                yield from self._wire(target, origin, HEADER_BYTES + nbytes)
            self._op_span(t0, self.sim.now, origin, target, "accumulate",
                          nbytes, op=op.value)
        finally:
            done.succeed(None)

    # -- op issue (shared by WinContext and the DCGN comm threads) ---------
    def start_put(
        self,
        origin: int,
        target: int,
        data: Any,
        offset: int = 0,
        snapshot: bool = True,
        defer: bool = False,
        want_event: bool = False,
    ) -> Generator[Event, Any, Optional[Event]]:
        """Charge the origin setup and launch the put's wire process.

        ``snapshot=False`` skips the defensive payload copy when the
        caller already owns a private snapshot (the DCGN comm threads
        do — their requests snapshotted at kernel issue/harvest time).

        ``defer=True`` (only honoured on a ``coalesce=True`` window,
        for small eager payloads) buffers the put instead of launching
        it and returns ``None``; the batch rides one wire transfer at
        the next completion point or conflicting operation.

        ``want_event=True`` asks for a waitable completion (``rput``);
        without it the analytic path books only the finish time — no
        per-op event, no heap entry.
        """
        self._require_access(origin, target, "put")
        an = self._an_usable(target)
        dtype = self._window_dtype(target, "put")
        payload = self._as_elems(data, dtype, "put")
        if snapshot and not an:
            # Analytic never copies: the bytes land synchronously at
            # issue (epochs forbid conflicting access until the sync).
            payload = payload.copy()
        self._target_view(target, offset, payload.size, "put")  # bounds
        self.comm._count("rma_put")
        nbytes = int(payload.nbytes)
        if defer and self.coalesce and nbytes <= self._eager_max:
            self.comm._count_unchecked("rma_put[coalesced]")
            self.sim.stats.rma_coalesced_puts += 1
            yield self._setup()
            if an:
                if not self._price_only:
                    view = self._target_view(
                        target, offset, payload.size, "put"
                    )
                    view[...] = payload
                pend = self._pending_puts[origin].setdefault(target, [])
                pend.append((None, offset))
            else:
                pend = self._pending_puts[origin].setdefault(target, [])
                pend.append(
                    (payload if snapshot else payload.copy(), offset)
                )
            total = self._pending_bytes[origin].get(target, 0) + nbytes
            self._pending_bytes[origin][target] = total
            if total > self._eager_max:
                # Batch outgrew the eager path: put it on the wire now.
                self._flush_pending_puts(origin, target)
            return None
        self._flush_pending_puts(origin, target)
        yield self._setup()
        if an:
            fin = self._an_put(origin, target, nbytes, self.sim.now)
            self._an_record(origin, target, fin)
            if not self._price_only:
                view = self._target_view(target, offset, payload.size, "put")
                view[...] = payload
            self._op_span(self.sim.now, fin, origin, target, "put", nbytes,
                          proto="analytic")
            if want_event:
                return self._an_event(
                    fin, f"{self.name}.put(r{origin}->r{target})"
                )
            return None
        proc = self.sim.process(
            self._put_proc(origin, target, payload, offset),
            name=f"{self.name}.put(r{origin}->r{target})",
        )
        return self._track(origin, target, proc)

    def start_get(
        self, origin: int, target: int, recvbuf: Any, offset: int = 0
    ) -> Generator[Event, Any, Event]:
        self._require_access(origin, target, "get")
        # A get must observe this origin's earlier puts (program order
        # per origin-target pair): flush any buffered batch first.
        self._flush_pending_puts(origin, target)
        dtype = self._window_dtype(target, "get")
        dst = self._as_elems(recvbuf, dtype, "get", writable=True)
        self._target_view(target, offset, dst.size, "get")  # bounds
        self.comm._count("rma_get")
        yield self._setup()
        if self._an_usable(target):
            nbytes = int(dst.nbytes)
            fin = self._an_get(origin, target, nbytes, self.sim.now)
            self._an_record(origin, target, fin)
            if not self._price_only:
                # Snapshot now = snapshot at NIC read: epoch discipline
                # means no conflicting write can land in between.
                dst[...] = self._target_view(target, offset, dst.size, "get")
            self._op_span(self.sim.now, fin, origin, target, "get", nbytes,
                          proto="analytic")
            # A get always has an observable completion (the data).
            return self._an_event(
                fin, f"{self.name}.get(r{origin}<-r{target})"
            )
        proc = self.sim.process(
            self._get_proc(origin, target, dst, offset),
            name=f"{self.name}.get(r{origin}<-r{target})",
        )
        return self._track(origin, target, proc)

    def start_accumulate(
        self,
        origin: int,
        target: int,
        data: Any,
        op: Union[str, ReduceOp] = ReduceOp.SUM,
        offset: int = 0,
        fetch_into: Optional[np.ndarray] = None,
        snapshot: bool = True,
        want_event: bool = False,
    ) -> Generator[Event, Any, Optional[Event]]:
        what = "get_accumulate" if fetch_into is not None else "accumulate"
        self._require_access(origin, target, what)
        an = self._an_usable(target)
        self._flush_pending_puts(origin, target)
        op = ReduceOp(op)
        dtype = self._window_dtype(target, what)
        payload = self._as_elems(data, dtype, what)
        if snapshot and not an:
            payload = payload.copy()
        self._target_view(target, offset, payload.size, what)  # bounds
        self.comm._count("rma_accumulate")
        yield self._setup()
        if an:
            fin = self._an_acc(
                origin, target, int(payload.nbytes), self.sim.now,
                fetch_into is not None,
            )
            self._an_record(origin, target, fin)
            if not self._price_only:
                # Issue order per (origin, target) IS program order, so
                # applying synchronously preserves the MPI accumulate
                # ordering guarantee by construction.
                view = self._target_view(target, offset, payload.size, what)
                if fetch_into is not None:
                    fetch_into[...] = view
                view[...] = op.combine(view, payload)
            self._op_span(self.sim.now, fin, origin, target, "accumulate",
                          int(payload.nbytes), proto="analytic",
                          op=op.value)
            if want_event or fetch_into is not None:
                return self._an_event(
                    fin, f"{self.name}.acc(r{origin}->r{target})"
                )
            return None
        prev = self._acc_tail.get((origin, target))
        done = self.sim.event(name=f"{self.name}.accdone")
        self._acc_tail[(origin, target)] = done
        proc = self.sim.process(
            self._acc_proc(
                origin, target, payload, offset, op, prev, done,
                fetch_into=fetch_into,
            ),
            name=f"{self.name}.acc(r{origin}->r{target})",
        )
        return self._track(origin, target, proc)

    def _window_dtype(self, target: int, what: str) -> np.dtype:
        arr = self._arrays[target]
        if arr is None:
            raise RmaError(
                f"{what}: rank {target} exposes a zero-size window"
            )
        return arr.dtype

    # -- completion --------------------------------------------------------
    def flush_ops(
        self, origin: int, target: Optional[int] = None
    ) -> Generator[Event, Any, None]:
        """Wait until this origin's operations (to ``target``, or all)
        have completed *remotely*.

        Analytic ops resolve to one computed instant per (origin,
        target) pair — the wait is a single timeout to the latest
        finish, not a per-op process join.  Device-window ops (exact
        even on a fast-path backend) still join their processes."""
        if target is not None:
            self._flush_pending_puts(origin, target)
        else:
            for t in list(self._pending_puts[origin]):
                self._flush_pending_puts(origin, t)
        lists = self._outgoing[origin]
        targets = [target] if target is not None else list(lists)
        for t in targets:
            for proc in lists.get(t, []):
                if proc.is_alive:
                    yield proc
            lists[t] = []
        if self._an:
            fins = self._an_fins[origin]
            if target is not None:
                t_max = fins.pop(target, 0.0)
            else:
                t_max = max(fins.values(), default=0.0)
                fins.clear()
            now = self.sim.now
            if t_max > now:
                yield self.sim.timeout(t_max - now)

    # -- passive-target lock machinery (NIC-side state) --------------------
    def _acquire(
        self, origin: int, target: int, exclusive: bool
    ) -> Generator[Event, Any, None]:
        st = self._lock_state[target]
        if st.can_grant(exclusive) and not st.waitq:
            st.holders[origin] = exclusive
            return
        kind = "excl" if exclusive else "shared"
        holders = ",".join(
            f"r{o}" for o in sorted(st.holders)
        ) or "granting"
        ev = self.sim.event(
            name=(
                f"{self.name}.lockwait({kind} r{origin}@r{target} "
                f"behind {holders})"
            )
        )
        st.waitq.append((ev, origin, exclusive))
        yield ev

    def _release(self, origin: int, target: int) -> None:
        st = self._lock_state[target]
        st.holders.pop(origin, None)
        while st.waitq:
            ev, o, exclusive = st.waitq[0]
            if not st.can_grant(exclusive):
                break
            st.waitq.pop(0)
            st.holders[o] = exclusive
            ev.succeed(None)


class WinContext:
    """Rank-bound facade of a :class:`Window`: what a rank's program
    calls.  All communication/synchronization methods are generators —
    ``yield from`` them inside a simulated process.  The request-based
    :meth:`rput`/:meth:`rget` are generators too (they charge the
    origin-side issue cost), returning a
    :class:`~repro.mpi.communicator.Request` whose ``wait`` observes
    completion: ``req = yield from w.rput(...)``.
    """

    def __init__(self, win: Window, rank: int) -> None:
        self.win = win
        self.rank = rank
        self.sim = win.sim
        self.comm = win.comm

    # -- identity -----------------------------------------------------------
    @property
    def size(self) -> int:
        return self.win.size

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<WinContext rank={self.rank} win={self.win.name!r}>"

    @property
    def local(self) -> Optional[np.ndarray]:
        """This rank's own exposed memory (read after sync)."""
        return self.win.region(self.rank)

    def _mpi_ctx(self) -> MpiContext:
        return self.comm.ctx(self.rank)

    # -- one-sided operations ----------------------------------------------
    def put(
        self, target: int, data: Any, offset: int = 0
    ) -> Generator[Event, Any, None]:
        """One-sided write of ``data`` into ``target``'s window at
        element ``offset``.  Returns after the origin-side issue; the
        transfer completes at the next synchronization (or
        :meth:`flush`).  On a ``coalesce=True`` window, small eager
        puts are buffered and batched onto one wire transfer at that
        completion point."""
        yield from self.win.start_put(
            self.rank, target, data, offset, defer=True
        )

    def rput(
        self, target: int, data: Any, offset: int = 0
    ) -> Generator[Event, Any, Request]:
        """Request-based put (``req = yield from w.rput(...)``):
        ``req.wait()`` guarantees *remote* completion — the bytes are
        visible in the target window."""
        proc = yield from self.win.start_put(
            self.rank, target, data, offset, want_event=True
        )
        return Request(proc)

    def get(
        self, target: int, recvbuf: Any, offset: int = 0
    ) -> Generator[Event, Any, None]:
        """One-sided read of ``recvbuf.size`` elements from ``target``'s
        window at ``offset`` into ``recvbuf``.  Blocking form: returns
        once the data has arrived."""
        proc = yield from self.win.start_get(
            self.rank, target, recvbuf, offset
        )
        yield proc

    def rget(
        self, target: int, recvbuf: Any, offset: int = 0
    ) -> Generator[Event, Any, Request]:
        """Request-based get (``req = yield from w.rget(...)``);
        ``req.wait()`` returns once ``recvbuf`` is filled."""
        proc = yield from self.win.start_get(
            self.rank, target, recvbuf, offset
        )
        return Request(proc)

    def accumulate(
        self,
        target: int,
        data: Any,
        op: Union[str, ReduceOp] = ReduceOp.SUM,
        offset: int = 0,
    ) -> Generator[Event, Any, None]:
        """One-sided read-modify-write: ``win[target][off:] = win OP
        data``.  Same-(origin, target) accumulates apply in program
        order (the MPI ordering guarantee); ``ReduceOp.REPLACE`` turns
        this into MPI_Put-with-ordering."""
        yield from self.win.start_accumulate(
            self.rank, target, data, op=op, offset=offset
        )

    def get_accumulate(
        self,
        target: int,
        data: Any,
        result: Any,
        op: Union[str, ReduceOp] = ReduceOp.SUM,
        offset: int = 0,
    ) -> Generator[Event, Any, None]:
        """Atomic fetch-and-accumulate: ``result`` receives the target
        elements as they were *before* ``data`` was combined in.
        Blocking form (returns once ``result`` is filled)."""
        dtype = self.win._window_dtype(target, "get_accumulate")
        dst = Window._as_elems(
            result, dtype, "get_accumulate", writable=True
        )
        proc = yield from self.win.start_accumulate(
            self.rank, target, data, op=op, offset=offset, fetch_into=dst
        )
        yield proc

    def fetch_and_op(
        self,
        target: int,
        value: Any,
        result: Any,
        op: Union[str, ReduceOp] = ReduceOp.SUM,
        offset: int = 0,
    ) -> Generator[Event, Any, None]:
        """Single-element atomic fetch-and-op (``MPI_Fetch_and_op``)."""
        yield from self.get_accumulate(
            target, value, result, op=op, offset=offset
        )

    # -- observability ------------------------------------------------------
    def _espan(self, name: str):
        """Open an ``rma.epoch`` span on this rank's track (or None)."""
        spans = self.sim.spans
        if spans is None:
            return None
        return spans.begin(
            self.sim.now, name, "rma.epoch",
            self.comm.span_track(self.rank),
            attrs={"win": self.win.name},
        )

    def _espan_end(self, sp) -> None:
        if sp is not None and self.sim.spans is not None:
            self.sim.spans.end(self.sim.now, sp)

    # -- active-target synchronization: fence ------------------------------
    def fence(self, end: bool = False) -> Generator[Event, Any, None]:
        """Collective fence: completes every operation this rank issued
        (remote completion), then synchronizes all ranks — after it
        returns, every rank's window reflects every pre-fence operation.

        As in MPI, every fence both closes the preceding epoch and
        opens the next one, so RMA calls are legal between any two
        fences.  ``end=True`` (the ``MPI_MODE_NOSUCCEED`` assertion)
        declares that no epoch follows: the access epoch closes, later
        operations raise, and other sync modes (PSCW, locks) become
        usable again."""
        self.win._ensure_usable()
        self.comm._count("rma_fence")
        sp = self._espan("fence")
        yield from self.win.flush_ops(self.rank)
        yield from self._mpi_ctx().barrier()
        self.win._mode[self.rank] = None if end else "fence"
        self._espan_end(sp)

    # -- active-target synchronization: PSCW -------------------------------
    def post(self, origins: Sequence[int]) -> Generator[Event, Any, None]:
        """Expose this rank's window to ``origins`` (MPI_Win_post).
        Non-blocking: the post notifications are injected and travel
        while this rank continues."""
        win = self.win
        win._ensure_usable()
        if win._exposure[self.rank] is not None:
            raise RmaError(
                f"rank {self.rank} already has an exposure epoch open"
            )
        origins = tuple(sorted(set(int(o) for o in origins)))
        for o in origins:
            self.comm._check_rank(o)
            if o == self.rank:
                raise RmaError("a rank cannot post to itself")
        win._exposure[self.rank] = origins
        self.comm._count("rma_post")
        tag = RMA_TAG_BASE + win.wid * _TAG_STRIDE + _TAG_POST
        sp = self._espan("post")
        yield self.sim.timeout(us(win._ib.rma_setup_us))
        for o in origins:
            self.sim.process(
                self.comm._send_impl(self.rank, o, None, tag),
                name=f"{win.name}.post(r{self.rank}->r{o})",
            )
        self._espan_end(sp)

    def start(self, targets: Sequence[int]) -> Generator[Event, Any, None]:
        """Open an access epoch to ``targets`` (MPI_Win_start): waits
        until each target's matching :meth:`post` notification arrives."""
        win = self.win
        win._ensure_usable()
        if win._mode[self.rank] is not None:
            raise RmaError(
                f"rank {self.rank} already has an access epoch open "
                f"({win._mode[self.rank]})"
            )
        targets = tuple(sorted(set(int(t) for t in targets)))
        tag = RMA_TAG_BASE + win.wid * _TAG_STRIDE + _TAG_POST
        sp = self._espan("start")
        for t in targets:
            self.comm._check_rank(t)
            yield from self.comm._recv_impl(self.rank, t, None, tag)
        self._espan_end(sp)
        win._mode[self.rank] = "pscw"
        win._start_group[self.rank] = frozenset(targets)
        self.comm._count("rma_start")

    def complete(self) -> Generator[Event, Any, None]:
        """Close the access epoch (MPI_Win_complete): completes all
        operations of this epoch, then notifies the targets."""
        win = self.win
        win._ensure_usable()
        if win._mode[self.rank] != "pscw":
            raise RmaError(
                f"rank {self.rank} has no PSCW access epoch to complete"
            )
        group = win._start_group[self.rank] or frozenset()
        sp = self._espan("complete")
        yield from win.flush_ops(self.rank)
        tag = RMA_TAG_BASE + win.wid * _TAG_STRIDE + _TAG_COMPLETE
        for t in sorted(group):
            self.sim.process(
                self.comm._send_impl(self.rank, t, None, tag),
                name=f"{win.name}.complete(r{self.rank}->r{t})",
            )
        self._espan_end(sp)
        win._mode[self.rank] = None
        win._start_group[self.rank] = None
        self.comm._count("rma_complete")

    def wait_sync(self) -> Generator[Event, Any, None]:
        """Close the exposure epoch (MPI_Win_wait): waits for the
        :meth:`complete` notification of every posted origin — after it
        returns, their operations are visible in this rank's window."""
        win = self.win
        win._ensure_usable()
        origins = win._exposure[self.rank]
        if origins is None:
            raise RmaError(
                f"rank {self.rank} has no exposure epoch to wait on"
            )
        tag = RMA_TAG_BASE + win.wid * _TAG_STRIDE + _TAG_COMPLETE
        sp = self._espan("wait")
        for o in origins:
            yield from self.comm._recv_impl(self.rank, o, None, tag)
        self._espan_end(sp)
        win._exposure[self.rank] = None
        self.comm._count("rma_wait")

    # -- passive-target synchronization ------------------------------------
    def lock(
        self, target: int, exclusive: bool = False
    ) -> Generator[Event, Any, None]:
        """Acquire ``target``'s window lock (shared by default).  The
        lock lives at the target NIC: acquisition costs one header
        round-trip plus any wait for conflicting holders; the target
        CPU is never involved."""
        win = self.win
        win._ensure_usable()
        self.comm._check_rank(target)
        if target in win._locks_held[self.rank] or win._lock_all[self.rank]:
            raise RmaError(
                f"rank {self.rank} already holds a lock on rank {target}"
            )
        self.comm._count("rma_lock")
        sp = self._espan("lock")
        yield self.sim.timeout(us(win._ib.rma_setup_us))
        yield from win._wire(self.rank, target, HEADER_BYTES)
        yield from win._acquire(self.rank, target, exclusive)
        yield from win._wire(target, self.rank, HEADER_BYTES)
        self._espan_end(sp)
        win._locks_held[self.rank][target] = exclusive

    def unlock(self, target: int) -> Generator[Event, Any, None]:
        """Release ``target``'s lock; completes this origin's pending
        operations to it first (flush semantics, as in MPI)."""
        win = self.win
        win._ensure_usable()
        if target not in win._locks_held[self.rank]:
            raise RmaError(
                f"rank {self.rank} holds no lock on rank {target}"
            )
        sp = self._espan("unlock")
        yield from win.flush_ops(self.rank, target)
        yield from win._wire(self.rank, target, HEADER_BYTES)
        self._espan_end(sp)
        del win._locks_held[self.rank][target]
        win._release(self.rank, target)
        self.comm._count("rma_unlock")

    def lock_all(self) -> Generator[Event, Any, None]:
        """Shared-lock every rank's window (MPI_Win_lock_all).  Lazy
        acquisition (no per-target wire traffic), as real
        implementations defer it to first access — but conflicting
        exclusive holders are still waited for."""
        win = self.win
        win._ensure_usable()
        if win._lock_all[self.rank] or win._locks_held[self.rank]:
            raise RmaError(
                f"rank {self.rank} already holds window locks"
            )
        self.comm._count("rma_lock_all")
        sp = self._espan("lock_all")
        yield self.sim.timeout(us(win._ib.rma_setup_us))
        for t in range(win.size):
            yield from win._acquire(self.rank, t, False)
        self._espan_end(sp)
        win._lock_all[self.rank] = True

    def unlock_all(self) -> Generator[Event, Any, None]:
        """Release every lock taken by :meth:`lock_all` (flushes first)."""
        win = self.win
        win._ensure_usable()
        if not win._lock_all[self.rank]:
            raise RmaError(f"rank {self.rank} holds no lock_all")
        sp = self._espan("unlock_all")
        yield from win.flush_ops(self.rank)
        yield self.sim.timeout(us(win._ib.rma_setup_us))
        for t in range(win.size):
            win._release(self.rank, t)
        self._espan_end(sp)
        win._lock_all[self.rank] = False
        self.comm._count("rma_unlock_all")

    def flush(self, target: int) -> Generator[Event, Any, None]:
        """Complete (remotely) every pending operation to ``target``."""
        self.win._ensure_usable()
        self.comm._count("rma_flush")
        sp = self._espan("flush")
        yield from self.win.flush_ops(self.rank, target)
        self._espan_end(sp)

    def flush_all(self) -> Generator[Event, Any, None]:
        """Complete (remotely) every pending operation of this rank."""
        self.win._ensure_usable()
        self.comm._count("rma_flush")
        sp = self._espan("flush_all")
        yield from self.win.flush_ops(self.rank)
        self._espan_end(sp)

    # -- lifetime -----------------------------------------------------------
    def free(self) -> Generator[Event, Any, None]:
        """Collective window release: completes local operations,
        synchronizes, then frees.  Further use raises
        :class:`~repro.mpi.errors.RmaError`."""
        win = self.win
        win._ensure_usable()
        yield from win.flush_ops(self.rank)
        yield from self._mpi_ctx().barrier()
        if not win._freed:
            win.free()
