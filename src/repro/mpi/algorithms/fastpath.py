"""Analytic fast-path execution backend for collective schedules.

The exact :class:`~repro.mpi.algorithms.schedule.ScheduleEngine` spawns
one simulated process per wire step and drives every packet through the
matching stores — faithful, but at 256–1024 ranks the per-packet Python
churn dominates wall-clock.  :class:`FastPathEngine` executes the *same*
schedules (same builders, same selector decisions, same tag claims, same
``comm.stats`` counters) without enqueueing a single packet:

1. **Collect** — every rank's ``execute`` deposits its per-rank schedule
   into a shared per-collective *instance*; the last-arriving rank
   triggers completion (collectives are synchronizing, so nothing can
   legally complete before the last rank shows up).  Each rank's issue
   time is recorded at deposit, so skewed arrivals propagate into the
   timing exactly as they do in the exact engine.
2. **Move data** — the plan's *data program* (below) lands every
   payload: computes run inline and sends deliver straight into their
   paired receive buffers, so data results are *bit-identical* to the
   exact simulator.  Data-free schedules (the barrier) have none.
3. **Price** — completion times come from a per-step critical-path
   model over the very same DAGs: the k-th send on a
   ``(comm, src, dst, tag)`` key pairs with the k-th receive (the
   matcher is non-overtaking per key), and each paired wire step is
   priced with the protocol shape of ``_send_impl``/``_recv_impl`` —
   eager (``sw`` + one wire trip, receive finishing at
   ``max(recv_ready + sw, send_finish)``) or rendezvous (RTS → CTS →
   payload, both sides finishing together).  Per-message wire times are
   interned in a ``(src_node, dst_node, nbytes)`` cache.  Because the
   model follows dependencies, not round labels, transfers in different
   rounds overlap exactly as the spawned wire processes of the exact
   engine do — non-power-of-two binomial trees, whose straggler
   subtrees fire early, price tight instead of paying a per-round
   barrier.  What the model still ignores is channel *contention*
   (concurrent transfers sharing a NIC or spine link serialize in the
   exact engine, never here) — enforced within tolerance at P ≤ 16 by
   ``tests/test_fastpath.py``.
4. **Commit** — all per-rank completions go through one
   :class:`~repro.sim.batch.EventBatch`, so 1024 rank completions cost
   a handful of heap operations instead of thousands.

**Compile once, evaluate per instance.**  The first instance of a
collective *shape* on a communicator compiles the per-rank DAGs into a
:class:`_Plan`: the step order of a dependency walk, the send/receive
pairing, the eager/rendezvous choice of every pair, the interned wire
time of every leg (and the routed legs booked into
:meth:`~repro.hw.topology.base.Topology.account` when accounting is on),
the per-step round labels and ``n_rounds``.  Every instance — the
compiling one included — is then priced by :meth:`_Plan.evaluate`, one
straight-line pass over the plan that does the same float operations,
in the same order, as the walk it was compiled from.  Times are
therefore bit-identical whether a plan is fresh or reused, at any
arrival skew, traced or not.  A data-free shape whose plan exists is
never even built (``execute_deferred``).

**The data program.**  The compiling walk moves the compiling
instance's data as it resolves each step, and records what it did as a
straight-line list of operations: resolve a wire step's buffer, run a
compute, snapshot a send whose receive is not yet posted, deliver a
send into its posted receive, deliver a snapshot into its receive.
Delivery goes through ``Communicator._deliver``, so a private payload
is adopted by an :class:`~repro.mpi.datatypes.AdoptBuf` receive exactly
as the matcher would.  A data-carrying hit still builds its DAGs (the
closures are per instance) and replays the program over them
(:meth:`_Plan.replay`); pairing comes from the plan's per-slot
``pair`` list.  Times do not depend on the walk's order — each slot's
float expression is fixed — but data does: a lazy send buffer reads
state a later compute rewrites (Bruck alltoall packs its round-k+1
send from the slots its own round-k+1 unpack overwrites).  So the walk
mirrors the exact engine:

* after each resolution it runs every compute that resolution
  releases, transitively, lowest slot first (each rank's engine pops
  its ready heap the same way);
* only then does it resolve the buffers of the wire steps released —
  a spawned wire process reads its buffer only after its rank's
  inline computes;
* it takes wire steps FIFO, posted receives before sends, so a send
  almost always finds its receive posted and delivers straight into
  it with no snapshot (a LIFO walk moves the same data but copies).

The key is the ``shape`` tuple the dispatch layer stamps on each
schedule (``collectives._with_meta``): op, algorithm, root, and the
signature of every buffer that sizes a wire step — dtype and array
shape, or per-block byte counts for the vector variants.  It must
determine every rank's DAG and message sizes, and it must be equal on
every rank: an instance whose ranks deposit different shapes (a
ragged alltoall) is compiled and priced but not kept, as is one whose
schedules carry no shape (a builder called directly).  A hit whose
per-rank step counts disagree with the plan raises
:class:`~repro.mpi.errors.MpiError`, so a key that misses a structural
input fails loudly instead of pricing the wrong DAG.

The saving needs repeated shapes.  Measured on one episode of the
repository benchmark (``perfbench``): ``serve-analytic`` repeats 504 of
its 520 collectives (every tile request of a service is the same
allgather), ``rma-analytic`` 6 of 8 (one window-registration allgather
and one barrier compile; the fences repeat), and the ``coll-exact``
analytic reference only 3 of 20 — its four barriers share a shape,
while every other call differs in op, size or root and pays a full
compile.

What stays exact: point-to-point (``send``/``recv``/``isend``/...),
``gather``/``scatter`` (linear, not schedule-based), and host-memory
RMA epochs take their own analytic path in :mod:`repro.mpi.rma` — only
schedule-compiled collectives take *this* one.  Selection thresholds,
being driven by the same tuning, match the exact backend exactly.

**Pricing-only mode** (``backend="pricing"``): the same walk with no
data program — computes never run and receive buffers are left
untouched; each pair is priced with the larger of its two statically
resolved buffer sizes, so simulated times stay bit-identical to
``analytic``.  This is the sweep mode: a 1024-rank collective costs
one pass over its plan, which is what makes the ``BENCH_scale.json``
sweeps interactive.  Never use it when the program consumes the data
it communicates.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Dict, Generator, List, Optional, Tuple

from ...hw.memory import nbytes_of
from ...sim.batch import EventBatch
from ...sim.core import Event, us
from ..datatypes import payload_array
from ..errors import MpiError
from .schedule import ScheduleEngine, Schedule, _Step, _round_name

__all__ = ["FastPathEngine"]

_SEND = "send"
_RECV = "recv"
_COMPUTE = "compute"
_OVERHEAD = "overhead"

# Plan instruction kinds (see _Plan.evaluate).  A wire step that waits
# for its pair emits nothing until the pair resolves.
_K_COMPUTE = 0   # fin = ready
_K_OVERHEAD = 1  # fin = ready + sw
_K_READY = 2     # the first-ready side of a rendezvous pair: ready only
_K_ESEND = 3     # eager send: fin = ready + sw + wire
_K_ERECV = 4     # eager receive: fin = max(ready + sw, send fin)
_K_RNDV = 5      # second-ready side of a rendezvous pair: both finish

# Data program operations (see _data_mover).
_D_RESOLVE = 0  # resolve a wire step's (possibly lazy) buffer
_D_COMPUTE = 1  # run a compute step
_D_SNAP = 2     # snapshot a send whose receive is not yet posted
_D_DIRECT = 3   # deliver a send into its posted receive
_D_TAKE = 4     # deliver a send's snapshot into its receive

#: ``_Instance.shape`` before the first deposit.
_UNSET = object()


class _Instance:
    """One collective call site: per-rank schedules awaiting the last
    arrival."""

    __slots__ = (
        "ctxs", "scheds", "dones", "arrivals", "arrived", "shape", "build",
    )

    def __init__(self, size: int) -> None:
        self.ctxs: List[Any] = [None] * size
        self.scheds: List[Optional[Schedule]] = [None] * size
        self.dones: List[Optional[Event]] = [None] * size
        self.arrivals: List[float] = [0.0] * size
        self.arrived = 0
        #: The plan key every rank deposited, or ``None`` when they
        #: disagree (or carry none): such an instance is never interned.
        self.shape: Any = _UNSET
        #: Set by ``execute_deferred``: the per-rank DAG builder, run
        #: only when the shape has no plan yet (or its plan moves data).
        self.build: Optional[Callable] = None

    def deposit(self, rank: int, ctx, sched: Optional[Schedule],
                done: Event, shape: Optional[Tuple] = None) -> None:
        if self.dones[rank] is not None or self.scheds[rank] is not None:
            raise MpiError(
                f"rank {rank} deposited twice into one collective "
                "instance — collectives issued out of order?"
            )
        self.ctxs[rank] = ctx
        self.scheds[rank] = sched
        self.dones[rank] = done
        if ctx is not None:
            self.arrivals[rank] = ctx.sim.now
        if self.arrived == 0:
            self.shape = shape
        elif shape != self.shape:
            self.shape = None
        self.arrived += 1


def _data_mover(flat: List[_Step], pair: List[int], stats):
    """An executor of data-program operations over one instance's
    steps (``flat``, by slot); returned with its per-slot resolved
    buffers, which the compiling walk sizes wire steps from."""
    from ..communicator import Communicator

    deliver = Communicator._deliver
    bufs: List[Any] = [None] * len(flat)
    #: Per send slot, the payload snapshotted while its receive was
    #: not yet posted.
    held: List[Any] = [None] * len(flat)

    def run(op: int, g: int) -> None:
        if op == _D_RESOLVE:
            bufs[g] = flat[g].resolve_buf()
        elif op == _D_COMPUTE:
            flat[g].fn()
        elif op == _D_DIRECT:
            # Source → destination, no snapshot.  Only a donated
            # payload is private here (the live array is otherwise
            # still the sender's).
            arr = payload_array(bufs[g])
            if arr is not None:
                stats.payload_views += 1
            deliver(bufs[pair[g]], arr, flat[g].donate, stats)
        elif op == _D_SNAP:
            arr = payload_array(bufs[g])
            if arr is not None:
                if flat[g].donate:
                    # Donated: nothing writes the array again, so it
                    # can wait for its receive un-snapshotted.
                    stats.payload_views += 1
                else:
                    arr = arr.copy()
                    stats.payload_copies += 1
            held[g] = arr
        else:  # _D_TAKE
            # Held payloads are private either way (donated or freshly
            # snapshotted): adoptable at the receive.
            deliver(bufs[g], held[pair[g]], True, stats)

    return run, bufs


@dataclass(eq=False)
class _Plan:
    """One collective shape, compiled (see module doc).

    Steps are numbered rank-major: rank ``r``'s step ``i`` is slot
    ``offsets[r] + i``.  A plan lives as long as its communicator, so
    it shares what repeats: slot numbers, dependency tuples, legs and
    interned wire times are stored once (about 200 B per step, plus
    9 B per data-program operation: a code byte and a shared slot
    int).
    """

    #: One instruction per resolution event of the compiling walk, in
    #: walk order: ``(kind, slot, rank, dep slots, arg)``.
    code: List[Tuple]
    #: Every priced wire leg ``(src_node, dst_node, nbytes)``, in the
    #: order the walk priced them (for ``Topology.account``).
    legs: List[Tuple[int, int, int]]
    offsets: List[int]
    n_steps: List[int]
    n_rounds: int
    #: Per rank, its schedule's ``n_rounds``; per slot, its step's
    #: round label — what the traced span tree is drawn from.
    rank_rounds: List[int]
    rounds: List[int]
    #: Per wire slot, the slot of the step it pairs with (-1: none).
    pair: List[int]
    #: The data program: one operation code per entry, and the slot
    #: it applies to.  Empty for a data-free shape or a pricing-only
    #: engine.
    data_ops: bytes
    data_slots: List[int]
    #: Span label and ``nbytes`` attribute (from the schedule meta).
    name: str
    nbytes: int

    def check(self, inst: _Instance) -> None:
        """A hit must bring the DAGs the plan was compiled from."""
        for r, sched in enumerate(inst.scheds):
            if len(sched.steps) != self.n_steps[r]:
                raise MpiError(
                    f"fast-path plan for {self.name!r} has "
                    f"{self.n_steps[r]} steps on rank {r}, the schedule "
                    f"{len(sched.steps)}: the shape key misses an input "
                    "that changes the DAG"
                )

    def replay(self, inst: _Instance, stats) -> None:
        """Move one instance's data: run the data program over its
        freshly built DAGs."""
        flat = [st for sched in inst.scheds for st in sched.steps]
        run = _data_mover(flat, self.pair, stats)[0]
        for op, g in zip(self.data_ops, self.data_slots):
            run(op, g)

    def evaluate(
        self, arrivals: List[float], sw: float, acct: Optional[Callable]
    ) -> Tuple[List[float], List[float], List[float]]:
        """Price one instance: per-rank completion times, plus every
        step's ready and finish time (by slot).

        * compute — finishes at its ready time (inline, zero cost);
        * overhead — ready + ``sw``;
        * eager send — ready + ``sw`` + wire(n + header); the paired
          receive finishes at ``max(recv_ready + sw, send_finish)``;
        * rendezvous pair — ``m = max(recv_ready + sw,
          send_ready + sw + wire(hdr))`` (the RTS meets the posted
          receive), then both sides finish at
          ``m + wire(cts) + wire(payload)``.

        ``acct`` (the topology's ``account`` when accounting is on)
        books every priced leg onto its routed channels.
        """
        if acct is not None:
            for src, dst, n in self.legs:
                acct(src, dst, n)
        n_slots = self.offsets[-1]
        fin = [0.0] * n_slots
        rdy = [0.0] * n_slots
        for kind, g, r, deps, arg in self.code:
            t = arrivals[r]
            for d in deps:
                f = fin[d]
                if f > t:
                    t = f
            rdy[g] = t
            if kind == _K_READY:
                continue
            if kind == _K_COMPUTE:
                fin[g] = t
            elif kind == _K_ESEND:
                fin[g] = t + sw + arg
            elif kind == _K_ERECV:
                t = t + sw
                f = fin[arg]
                fin[g] = f if f > t else t
            elif kind == _K_OVERHEAD:
                fin[g] = t + sw
            else:  # _K_RNDV
                other, is_send, hdr, cts, payload = arg
                if is_send:
                    a = rdy[other] + sw
                    b = t + sw + hdr
                else:
                    a = t + sw
                    b = rdy[other] + sw + hdr
                f = (b if b > a else a) + cts + payload
                fin[g] = f
                fin[other] = f
        offs = self.offsets
        fins = [
            max(fin[offs[r] : offs[r + 1]]) if offs[r + 1] > offs[r]
            else arrivals[r]
            for r in range(len(arrivals))
        ]
        return fins, rdy, fin


class FastPathEngine(ScheduleEngine):
    """Prices whole collective schedules analytically (see module doc).

    Drop-in replacement for :class:`ScheduleEngine`: ``execute`` is
    consumed via ``yield from`` by the blocking collectives and the
    inherited :meth:`ScheduleEngine.start` spawns it for the
    nonblocking ones.  The collective-instance sequence number is
    claimed synchronously at issue time (``execute`` is a plain
    function returning the generator), so mixed blocking/nonblocking
    sequences stay aligned exactly like the tag-block claims.
    """

    def __init__(self, comm, price_only: bool = False) -> None:
        super().__init__(comm)
        self._claims = [0] * comm.size
        self._instances: Dict[int, _Instance] = {}
        #: Interned wire times: (src_node, dst_node, nbytes) → seconds.
        self._wire_cache: Dict[Tuple[int, int, int], float] = {}
        #: Compiled plans by shape (see module doc).
        self._plans: Dict[Tuple, _Plan] = {}
        #: Skip the dataflow interpreter: price timings only, leave
        #: receive buffers untouched (see module doc).
        self.price_only = price_only

    # -- entry points -------------------------------------------------------
    def execute(
        self, ctx, sched: Schedule
    ) -> Generator[Event, Any, None]:
        self.comm._ensure_alive()
        seq = self._claims[ctx.rank]
        self._claims[ctx.rank] += 1
        return self._run(ctx, sched, seq, sched.shape)

    def execute_deferred(
        self, ctx, shape: Tuple, build: Callable
    ) -> Generator[Event, Any, None]:
        """Run ``build(ctx)``'s schedule, building it only if ``shape``
        has no plan yet: a data-free collective (the barrier a Jacobi
        run fences with every iteration) that hits its plan never
        builds its DAG."""
        self.comm._ensure_alive()
        seq = self._claims[ctx.rank]
        self._claims[ctx.rank] += 1
        return self._run(ctx, None, seq, shape, build)

    def _run(
        self, ctx, sched: Optional[Schedule], seq: int,
        shape: Optional[Tuple], build: Optional[Callable] = None,
    ) -> Generator[Event, Any, None]:
        self.active += 1
        try:
            inst = self._instances.get(seq)
            if inst is None:
                inst = _Instance(self.comm.size)
                self._instances[seq] = inst
            done = ctx.sim.event(name=f"fastpath(r{ctx.rank}#{seq})")
            inst.deposit(ctx.rank, ctx, sched, done, shape)
            if build is not None:
                inst.build = build
            if inst.arrived == self.comm.size:
                del self._instances[seq]
                self._complete(inst)
            yield done
        finally:
            self.active -= 1

    # -- pricing ------------------------------------------------------------
    def _wt(self, src_node: int, dst_node: int, nbytes: int) -> float:
        """Interned uncontended wire time for one transfer leg."""
        key = (src_node, dst_node, nbytes)
        cost = self._wire_cache.get(key)
        stats = self.comm.sim.stats
        if cost is None:
            stats.wire_cost_misses += 1
            cost = self.comm.cluster.interconnect.wire_time(
                src_node, dst_node, nbytes
            )
            self._wire_cache[key] = cost
        else:
            stats.wire_cost_hits += 1
        return cost

    # -- completion ---------------------------------------------------------
    def _complete(self, inst: _Instance) -> None:
        """Find or compile the instance's plan, move its data, price it
        with one plan pass, and batch-commit the per-rank completions."""
        comm = self.comm
        sim = comm.sim
        stats = sim.stats
        size = comm.size
        shape = inst.shape
        plan = self._plans.get(shape) if shape is not None else None
        if plan is not None:
            stats.fastpath_sched_cache_hits += 1
            if inst.build is not None and plan.data_ops:
                self._build_all(inst)
            if inst.scheds[0] is not None:
                plan.check(inst)
            if plan.data_ops:
                plan.replay(inst, stats)
        else:
            if inst.build is not None:
                self._build_all(inst)
            plan = self._compile(inst)
            if shape is not None:
                self._plans[shape] = plan

        interconnect = comm.cluster.interconnect
        fins, rdy, fin = plan.evaluate(
            inst.arrivals, us(comm._ib.sw_overhead_us),
            interconnect.account if interconnect.accounting else None,
        )
        stats.fastpath_collectives += 1
        stats.fastpath_rounds += plan.n_rounds
        spans = sim.spans
        if spans is not None and spans.enabled:
            self._record_spans(inst, plan, fins, rdy, fin, spans)

        batch = EventBatch(sim, name="fastpath")
        now = sim.now
        for r in range(size):
            # A rank whose steps all finish before the last arrival
            # (e.g. an eager-only bcast root) resumes immediately: the
            # instance only resolves once every rank has shown up.
            batch.add(max(fins[r], now), inst.dones[r], None)
        batch.commit()

    @staticmethod
    def _build_all(inst: _Instance) -> None:
        for r, ctx in enumerate(inst.ctxs):
            inst.scheds[r] = inst.build(ctx)

    def _record_spans(
        self,
        inst: _Instance,
        plan: _Plan,
        fins: List[float],
        rdy: List[float],
        fin: List[float],
        spans,
    ) -> None:
        """Emit the same span skeleton the exact engine records — one
        collective span per rank with per-round children — plus the
        pricer's own stage markers.  A round spans from the earliest
        ready to the latest finish of its steps, as the plan pass
        priced them."""
        comm = self.comm
        size = comm.size
        name = plan.name
        rounds = plan.rounds
        arrivals = inst.arrivals
        now = comm.sim.now
        ftrack = f"{comm.root_comm.name}.fastpath"
        spans.complete(
            min(arrivals), max(arrivals), name, "fastpath.collect", ftrack,
            attrs={"n_ranks": size},
        )
        spans.instant(now, name, "fastpath.interpret", ftrack,
                      attrs={"priced": not plan.data_ops})
        backend = comm.backend
        for r in range(size):
            rtrack = comm.span_track(r)
            psid = spans.complete(
                arrivals[r], fins[r], name, "collective", rtrack,
                None, None,
                {"backend": backend, "nbytes": plan.nbytes,
                 "n_rounds": plan.rank_rounds[r],
                 "n_steps": plan.n_steps[r]},
            )
            if psid is None:
                continue  # recorder paused mid-collective
            # Round ids live in [0, n_rounds); None marks rounds this
            # rank never runs.
            n_rounds = plan.rank_rounds[r]
            rstart: List[Optional[float]] = [None] * n_rounds
            rend: List[Optional[float]] = [None] * n_rounds
            for g in range(plan.offsets[r], plan.offsets[r + 1]):
                rd = rounds[g]
                t0 = rstart[rd]
                if t0 is None or rdy[g] < t0:
                    rstart[rd] = rdy[g]
                t1 = rend[rd]
                if t1 is None or fin[g] > t1:
                    rend[rd] = fin[g]
            for rd in range(n_rounds):
                if rstart[rd] is not None:
                    spans.complete(rstart[rd], rend[rd], _round_name(rd),
                                   "round", rtrack, psid)
        spans.instant(now, name, "fastpath.commit", ftrack,
                      attrs={"n_ranks": size})

    def _compile(self, inst: _Instance) -> _Plan:
        """Compile the instance's DAGs into a :class:`_Plan`, moving its
        data on the way (unless the engine is pricing-only or the shape
        is data-free).

        The walk is a dependency-order resolution over all ranks' DAGs:
        every step becomes ready the moment its dependencies finish
        (wire steps are spawned processes in the exact engine, so
        independent steps overlap freely), and a wire pair resolves
        when the protocol says both of its times are known.  It takes
        steps in the order the module doc's data ordering rule sets; a
        step it never resolves is reported as a stall.
        """
        from ..communicator import HEADER_BYTES

        comm = self.comm
        eager_max = comm._ib.eager_threshold
        size = comm.size
        ctxs = inst.ctxs
        steps_of = [inst.scheds[r].steps for r in range(size)]
        offsets = [0]
        for steps in steps_of:
            offsets.append(offsets[-1] + len(steps))
        flat = [st for steps in steps_of for st in steps]
        rank_of = [r for r in range(size) for _ in steps_of[r]]
        #: One int object per slot number, shared by everything the
        #: plan stores (slot numbers past 256 are not cached by Python).
        ids = list(range(len(flat)))
        moves = not self.price_only and any(
            st.buf is not None or st.kind == _COMPUTE for st in flat
        )

        # LIGHT pairing: k-th send on a (comm, src, dst, tag) key pairs
        # with the k-th receive, both in step-index order — the
        # matcher's per-key FIFO guarantees non-overtaking, and every
        # schedule builder issues same-key wire steps dep-ordered.
        # Each send slot also gets its (src, dst) nodes.
        sends: Dict[Tuple, List[int]] = {}
        recvs: Dict[Tuple, List[int]] = {}
        nodes: Dict[int, Tuple[int, int]] = {}
        for g, st in enumerate(flat):
            if st.kind == _SEND:
                tctx = st.via if st.via is not None else ctxs[rank_of[g]]
                tcomm = tctx.comm
                sends.setdefault(
                    (id(tcomm), tctx.rank, st.peer, st.tag), []
                ).append(g)
                nodes[g] = (tcomm.placement[tctx.rank],
                            tcomm.placement[st.peer])
            elif st.kind == _RECV:
                tctx = st.via if st.via is not None else ctxs[rank_of[g]]
                recvs.setdefault(
                    (id(tctx.comm), st.peer, tctx.rank, st.tag), []
                ).append(g)
        pair = [-1] * len(flat)
        for key, ss in sends.items():
            for gs, gr in zip(ss, recvs.get(key, ())):
                pair[gs] = ids[gr]
                pair[gr] = ids[gs]

        # Dependency tuples and legs repeat across the plan; store each
        # once.
        shared: Dict[Tuple, Tuple] = {}
        deps_of = [
            shared.setdefault(key, key) for key in (
                tuple([ids[offsets[r] + d] for d in st.deps])
                for r, st in zip(rank_of, flat)
            )
        ]
        missing = [len(deps) for deps in deps_of]
        dependents: List[List[int]] = [[] for _ in flat]
        for g, deps in enumerate(deps_of):
            for d in deps:
                dependents[d].append(ids[g])
        ready = [False] * len(flat)
        resolved = [False] * len(flat)
        # Payload size per wire slot; a pair is priced with the larger
        # of its two sides.  When data moves, a send's is set as its
        # buffer resolves and a receive counts 0.  When nothing moves,
        # computes never run, so a lazy send buffer built from staged
        # data can under-resolve; each side is then sized off its
        # buffer when its pair is first priced (no compute has run, so
        # any time gives the same size), and the posted receive, which
        # is statically the right size, makes the larger one equal the
        # analytic send size.
        nbytes = [0 if moves else -1] * len(flat)
        legs: List[Tuple[int, int, int]] = []

        def wire_bytes(g: int) -> int:
            n = nbytes[g]
            if n < 0:
                buf = flat[g].resolve_buf()
                n = nbytes[g] = nbytes_of(buf) if buf is not None else 0
            return n

        def wt(src: int, dst: int, n: int) -> float:
            leg = (src, dst, n)
            legs.append(shared.setdefault(leg, leg))
            return self._wt(src, dst, n)

        code: List[Tuple] = []
        emit = code.append
        data_ops = bytearray()
        data_slots: List[int] = []
        if moves:
            run, bufs = _data_mover(flat, pair, comm.sim.stats)

        def move(op: int, g: int) -> None:
            data_ops.append(op)
            data_slots.append(g)
            run(op, g)

        # Wire steps waiting to be taken, FIFO: posted receives first,
        # then sends and overheads.
        recvq: deque = deque()
        sendq: deque = deque()
        computes: List[int] = []  # min-heap of released compute slots
        wires: List[int] = []     # released wire steps, buffers unresolved

        def release(g: int) -> None:
            if flat[g].kind == _COMPUTE:
                heapq.heappush(computes, g)
            else:
                wires.append(g)

        def resolve(g: int) -> None:
            resolved[g] = True
            for j in dependents[g]:
                missing[j] -= 1
                if missing[j] == 0:
                    release(j)

        for g, m in enumerate(missing):
            if m == 0:
                release(ids[g])
        while True:
            # Run every compute the last resolution released,
            # transitively; only then resolve the released wire steps'
            # buffers.
            while computes:
                g = heapq.heappop(computes)
                if moves:
                    move(_D_COMPUTE, g)
                emit((_K_COMPUTE, g, rank_of[g], deps_of[g], None))
                resolve(g)
            for g in wires:
                kind = flat[g].kind
                if moves and kind != _OVERHEAD:
                    move(_D_RESOLVE, g)
                    if kind == _SEND and bufs[g] is not None:
                        nbytes[g] = nbytes_of(bufs[g])
                (recvq if kind == _RECV else sendq).append(g)
            wires.clear()

            if recvq:
                g = recvq.popleft()
            elif sendq:
                g = sendq.popleft()
            else:
                break
            r = rank_of[g]
            deps = deps_of[g]
            kind = flat[g].kind
            go = pair[g]
            ready[g] = True
            if kind == _OVERHEAD:
                emit((_K_OVERHEAD, g, r, deps, None))
                resolve(g)
            elif go < 0:
                pass  # unmatched: reported as a stall below
            elif kind == _SEND:
                if moves:
                    move(_D_DIRECT if ready[go] else _D_SNAP, g)
                src, dst = nodes[g]
                n = max(wire_bytes(g), wire_bytes(go))
                if n <= eager_max:
                    emit((_K_ESEND, g, r, deps,
                          wt(src, dst, n + HEADER_BYTES)))
                    resolve(g)
                    if ready[go]:
                        emit((_K_ERECV, go, rank_of[go], deps_of[go], g))
                        resolve(go)
                elif ready[go]:
                    emit((_K_READY, go, rank_of[go], deps_of[go], None))
                    emit((_K_RNDV, g, r, deps, (
                        go, True, wt(src, dst, HEADER_BYTES),
                        wt(dst, src, HEADER_BYTES), wt(src, dst, n),
                    )))
                    resolve(g)
                    resolve(go)
                # else parked; the receive side resolves the pair
            elif ready[go]:
                if moves:
                    move(_D_TAKE, g)
                src, dst = nodes[go]
                n = max(wire_bytes(go), wire_bytes(g))
                if n <= eager_max:
                    emit((_K_ERECV, g, r, deps, go))
                    resolve(g)
                else:
                    emit((_K_READY, go, rank_of[go], deps_of[go], None))
                    emit((_K_RNDV, g, r, deps, (
                        go, False, wt(src, dst, HEADER_BYTES),
                        wt(dst, src, HEADER_BYTES), wt(src, dst, n),
                    )))
                    resolve(go)
                    resolve(g)
            # else posted; the send side resolves the pair

        if not all(resolved):
            stuck: Dict[int, int] = {}
            for g, ok in enumerate(resolved):
                if not ok:
                    stuck[rank_of[g]] = stuck.get(rank_of[g], 0) + 1
            raise MpiError(
                "fast-path schedule stalled (cyclic or unmatched "
                f"wire steps); pending steps per rank: {stuck}"
            )

        rank_rounds = [inst.scheds[r].n_rounds for r in range(size)]
        meta = next(
            (s.meta for s in inst.scheds if s is not None and s.meta), None
        ) or {}
        name = meta.get("op", "collective")
        if meta.get("algo"):
            name = f"{name}[{meta['algo']}]"
        return _Plan(
            code=code, legs=legs, offsets=offsets,
            n_steps=[len(steps) for steps in steps_of],
            n_rounds=max(rank_rounds, default=0),
            rank_rounds=rank_rounds, rounds=[st.round for st in flat],
            pair=pair, data_ops=bytes(data_ops), data_slots=data_slots,
            name=name, nbytes=meta.get("nbytes", 0),
        )
