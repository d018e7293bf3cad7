"""Analytic fast-path execution backend for collective schedules.

The exact :class:`~repro.mpi.algorithms.schedule.ScheduleEngine` spawns
one simulated process per wire step and drives every packet through the
matching stores — faithful, but at 256–1024 ranks the per-packet Python
churn dominates wall-clock.  :class:`FastPathEngine` executes the *same*
schedules (same builders, same selector decisions, same tag claims, same
``comm.stats`` counters) without enqueueing a single packet:

1. **Collect** — every rank's ``execute`` deposits its per-rank schedule
   (on a plan hit, only its bound buffers) into a shared per-collective
   *instance*; the last-arriving rank triggers completion (collectives
   are synchronizing, so nothing can legally complete before the last
   rank shows up).  Each rank's issue
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
   interned by the interconnect.  Because the model follows
   dependencies, not round labels, transfers in different rounds
   overlap exactly as the spawned wire processes of the exact engine
   do — non-power-of-two binomial trees, whose straggler
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
arrival skew, traced or not.

**Hits never build.**  The dispatch layer hands every collective over
as ``(build, shape, bufs)``, its tag block already claimed, so whether
a rank builds changes nothing for its later calls.  Each rank looks its
own key up at issue.  On a hit it calls no builder: it binds its user
buffers ``bufs`` to the plan's slots, with fresh scratch arrays from
the plan's declarations (the build-time copy of a send buffer is taken
there).  A rank whose buffers' byte sizes disagree with its plan's
raises :class:`~repro.mpi.errors.MpiError` — the key missed an input.
On a miss it builds.  When the last rank arrives, an instance whose
ranks all issued one key hits that key's plan; a rank that built
anyway (it issued before the plan was compiled) is checked against the
plan.  An instance whose ranks issued different keys (a ragged
alltoall, ranks passing different receive layouts) builds the
schedules its hitting ranks skipped, over the buffers they bound, and
is compiled and priced but not kept.

**The data program.**  The compiling walk moves the compiling
instance's data as it resolves each step, and records what it did as a
straight-line list of slot-addressed operations: resolve a wire step's
buffer in its rank's environment, run a compute op, snapshot a send
whose receive is not yet posted, deliver a send into its posted
receive, deliver a snapshot into its receive.  Delivery goes through
``Communicator._deliver``, so a private payload is adopted by an
adoptable scratch slot exactly as the matcher would.  A data-carrying
hit replays the program over its bound environments
(:meth:`_Plan.replay`).  Times do not depend on the walk's order, but
data does: a pack is concatenated, and a rebound slot read, when its
send resolves, and a later compute may rewrite them (Bruck alltoall
packs its round-k+1 send from rows its round-k+1 unpack overwrites).
So, as each rank's exact engine does, the walk runs every compute a
resolution releases, transitively and lowest slot first, before it
resolves the buffers of the wire steps released; it takes wire steps
FIFO, posted receives first, so a send almost always delivers straight
into its receive without a snapshot.

The key is the ``shape`` tuple of ``collectives._call``: op,
algorithm, root, and the signature of every buffer that sizes a wire
step.  A reduction's op is a bound slot, not part of the key, so one
plan serves every op of a shape.  An instance with no key (a
hand-built schedule) is never kept.  The saving needs repeated shapes:
``serve-analytic`` (``perfbench``) repeats 504 of its 520 collectives,
``rma-analytic`` 6 of 8.

What stays exact: point-to-point (``send``/``recv``/``isend``/...),
``gather``/``scatter`` (linear, not schedule-based), and host-memory
RMA epochs take their own analytic path in :mod:`repro.mpi.rma` — only
schedule-compiled collectives take *this* one.  Selection thresholds,
being driven by the same tuning, match the exact backend exactly.

**Pricing-only mode** (``backend="pricing"``): the same walk with no
data program and no bound buffers — computes never run and receive
buffers are left untouched.  Message sizes are static (a region's, a
slot's declared size), so simulated times stay bit-identical to
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

from ...sim.batch import EventBatch
from ...sim.core import Event, us
from ..datatypes import HEADER_BYTES, ReduceOp, payload_array
from ..errors import MpiError
from .schedule import (
    Schedule, ScheduleEngine, _Step, _round_name, new_environment, resolve,
    run_op, span_name,
)

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
_D_RESOLVE = 0  # resolve a wire step's buffer in its rank's environment
_D_COMPUTE = 1  # run a compute op
_D_SNAP = 2     # snapshot a send whose receive is not yet posted
_D_DIRECT = 3   # deliver a send into its posted receive
_D_TAKE = 4     # deliver a send's snapshot into its receive

#: ``_Instance.shape`` before the first deposit.
_UNSET = object()


def _sizes(bufs) -> Tuple:
    """User slots' byte sizes (``None`` and byte counts as given; a
    reduce op slot binds any op): what a plan's slots were compiled
    for."""
    return tuple([
        None if b.__class__ is ReduceOp
        else b if (a := payload_array(b)) is None else a.nbytes
        for b in bufs
    ])


class _Instance:
    """One collective call site: per-rank schedules (``None`` for a
    rank that hit a plan) and bound environments awaiting the last
    arrival."""

    __slots__ = (
        "ctxs", "scheds", "envs", "builds", "dones", "arrivals", "arrived",
        "shape", "label", "nbytes",
    )

    def __init__(self, size: int) -> None:
        self.ctxs: List[Any] = [None] * size
        self.scheds: List[Optional[Schedule]] = [None] * size
        #: Per rank, its bound slots (``None`` when no data moves).
        self.envs: List[Optional[List[Any]]] = [None] * size
        #: Per rank, its schedule builder (run at completion only for a
        #: rank that hit while the others' keys differ).
        self.builds: List[Any] = [None] * size
        self.dones: List[Optional[Event]] = [None] * size
        self.arrivals: List[float] = [0.0] * size
        self.arrived = 0
        #: The plan key every rank deposited, or ``None`` when they
        #: disagree (or carry none): such an instance is never interned.
        self.shape: Any = _UNSET
        #: The first deposited key and payload size (span labels).
        self.label: Optional[Tuple] = None
        self.nbytes = 0

    def deposit(self, rank: int, ctx, sched: Optional[Schedule],
                done: Event, shape: Optional[Tuple] = None,
                env: Optional[List[Any]] = None, build=None,
                nbytes: int = 0) -> None:
        if self.dones[rank] is not None or self.scheds[rank] is not None:
            raise MpiError(
                f"rank {rank} deposited twice into one collective "
                "instance — collectives issued out of order?"
            )
        self.ctxs[rank] = ctx
        self.scheds[rank] = sched
        self.envs[rank] = env
        self.builds[rank] = build
        self.dones[rank] = done
        if ctx is not None:
            self.arrivals[rank] = ctx.sim.now
        if self.arrived == 0:
            self.shape = self.label = shape
            self.nbytes = nbytes
        elif shape != self.shape:
            self.shape = None
        self.arrived += 1


def _data_mover(flat: List[_Step], rank_of: List[int],
                envs: List[Optional[List[Any]]], pair: List[int], stats):
    """An executor of data-program operations over one instance's
    steps (``flat``, by slot) and per-rank environments ``envs``."""
    from ..communicator import Communicator

    deliver = Communicator._deliver
    bufs: List[Any] = [None] * len(flat)
    #: Per send slot, the payload snapshotted while its receive was
    #: not yet posted.
    held: List[Any] = [None] * len(flat)

    def land(g: int, data, private: bool) -> None:
        # Into receive slot g; an adoptable scratch slot may rebind.
        st = flat[g]
        if st.adopt:
            deliver(bufs[g], data, private, stats, envs[rank_of[g]],
                    st.buf.slot)
        else:
            deliver(bufs[g], data, private, stats)

    def run(op: int, g: int) -> None:
        if op == _D_RESOLVE:
            bufs[g] = resolve(envs[rank_of[g]], flat[g].buf)
        elif op == _D_COMPUTE:
            run_op(envs[rank_of[g]], flat[g].op)
        elif op == _D_DIRECT:
            # Source → destination, no snapshot.  Only a donated
            # payload is private here (the live array is otherwise
            # still the sender's).
            arr = payload_array(bufs[g])
            if arr is not None:
                stats.payload_views += 1
            land(pair[g], arr, flat[g].donate)
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
            land(g, held[pair[g]], True)

    return run


@dataclass(eq=False)
class _Plan:
    """One collective shape, compiled (see module doc).

    Steps are numbered rank-major: rank ``r``'s step ``i`` is slot
    ``offsets[r] + i``.  A plan lives as long as its communicator, so
    it shares what repeats: slot numbers, dependency tuples, legs and
    interned wire times are stored once.
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
    #: Per rank, the byte sizes of the user buffers it was compiled
    #: over (what a hit's bound buffers must match).
    sizes: List[Tuple]
    #: Span label and ``nbytes`` attribute.
    name: str
    nbytes: int
    #: The data program: one operation code per entry, and the slot
    #: it applies to.  Empty for a data-free shape or a pricing-only
    #: engine, and then so are the fields below.
    data_ops: bytes = b""
    data_slots: Tuple[int, ...] = ()
    #: The compiled steps (their buffers and compute ops), each slot's
    #: rank, the pairing of wire slots, and per rank its scratch
    #: declarations — what a hit binds and replays.
    steps: Tuple[_Step, ...] = ()
    rank_of: Tuple[int, ...] = ()
    pair: Tuple[int, ...] = ()
    scratch: Tuple = ()

    def _check_sizes(self, rank: int, bufs) -> None:
        sizes = _sizes(bufs)
        if sizes != self.sizes[rank]:
            raise MpiError(
                f"fast-path plan for {self.name!r} was compiled for "
                f"buffers of {self.sizes[rank]} B on rank {rank}, bound "
                f"to {sizes} B: the shape key misses an input"
            )

    def bind(self, rank: int, bufs) -> Optional[List]:
        """Bind ``rank``'s buffers for a hit: its slots, or ``None``
        when no data moves.  Raises when the buffers disagree with what
        the plan was compiled from."""
        self._check_sizes(rank, bufs)
        if not self.data_ops:
            return None
        return new_environment(self.scratch[rank], bufs)

    def check(self, rank: int, sched: Schedule) -> None:
        """Raise unless ``rank``'s built schedule is the DAG (and binds
        the buffer sizes) the plan was compiled from."""
        if len(sched.steps) != self.n_steps[rank]:
            raise MpiError(
                f"fast-path plan for {self.name!r} has "
                f"{self.n_steps[rank]} steps on rank {rank}, the schedule "
                f"{len(sched.steps)}: the shape key misses an input "
                "that changes the DAG"
            )
        self._check_sizes(rank, sched.user)

    def replay(self, envs: List[Optional[List[Any]]], stats) -> None:
        """Move one instance's data: run the data program over its
        bound environments."""
        run = _data_mover(self.steps, self.rank_of, envs, self.pair, stats)
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
    claimed, and the rank's hit-or-miss decision made, synchronously at
    issue time (``execute`` is a plain function returning the
    generator), so mixed blocking/nonblocking sequences stay aligned
    exactly like the tag-block claims.
    """

    def __init__(self, comm, price_only: bool = False) -> None:
        super().__init__(comm)
        self._claims = [0] * comm.size
        self._instances: Dict[int, _Instance] = {}
        #: Compiled plans by shape (see module doc).
        self._plans: Dict[Tuple, _Plan] = {}
        #: Price timings only: bind no buffers, move no data (see
        #: module doc).
        self.price_only = price_only

    # -- entry points -------------------------------------------------------
    def execute(self, ctx, build, shape: Optional[Tuple] = None,
                bufs=(), nbytes: int = 0) -> Generator[Event, Any, None]:
        self.comm._ensure_alive()
        rank = ctx.rank
        seq = self._claims[rank]
        self._claims[rank] += 1
        sched = env = None
        if isinstance(build, Schedule):
            # Hand-built: checked against the plan its key names.
            sched, shape, bufs = build, build.shape, build.user
        plan = self._plans.get(shape) if shape is not None else None
        if plan is not None and sched is None:
            env = plan.bind(rank, bufs)
        else:
            if sched is None:
                sched = build()
            if not self.price_only:
                env = sched.environment()
        return self._run(ctx, seq, sched, env, build, shape, nbytes)

    def _run(self, ctx, seq: int, sched: Optional[Schedule], env, build,
             shape, nbytes: int) -> Generator[Event, Any, None]:
        self.active += 1
        try:
            inst = self._instances.get(seq)
            if inst is None:
                inst = self._instances[seq] = _Instance(self.comm.size)
            done = ctx.sim.event(name=f"fastpath(r{ctx.rank}#{seq})")
            inst.deposit(ctx.rank, ctx, sched, done, shape, env, build,
                         nbytes)
            if inst.arrived == self.comm.size:
                del self._instances[seq]
                self._complete(inst)
            yield done
        finally:
            self.active -= 1

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
            for r, sched in enumerate(inst.scheds):
                if sched is not None:
                    plan.check(r, sched)
            stats.fastpath_sched_cache_hits += 1
            if plan.data_ops:
                plan.replay(inst.envs, stats)
        else:
            # Ranks whose own key hit while the others' differ: build
            # them now (their tags were claimed at issue), over the
            # buffers they bound.
            for r, sched in enumerate(inst.scheds):
                if sched is None:
                    sched = inst.scheds[r] = inst.builds[r]()
                    if inst.envs[r] is None and not self.price_only:
                        inst.envs[r] = sched.environment()
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
        comm = self.comm
        eager_max = comm._ib.eager_threshold
        size = comm.size
        ctxs = inst.ctxs
        scheds = inst.scheds
        steps_of = [scheds[r].steps for r in range(size)]
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
        legs: List[Tuple[int, int, int]] = []
        wire_time = comm.cluster.interconnect.wire_time

        def wt(src: int, dst: int, n: int) -> float:
            leg = (src, dst, n)
            legs.append(shared.setdefault(leg, leg))
            return wire_time(src, dst, n)

        code: List[Tuple] = []
        emit = code.append
        data_ops = bytearray()
        data_slots: List[int] = []
        if moves:
            run = _data_mover(flat, rank_of, inst.envs, pair,
                              comm.sim.stats)

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

        def resolve_step(g: int) -> None:
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
                resolve_step(g)
            for g in wires:
                kind = flat[g].kind
                if moves and kind != _OVERHEAD:
                    move(_D_RESOLVE, g)
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
                resolve_step(g)
            elif go < 0:
                pass  # unmatched: reported as a stall below
            elif kind == _SEND:
                if moves:
                    move(_D_DIRECT if ready[go] else _D_SNAP, g)
                src, dst = nodes[g]
                n = scheds[r].nbytes(flat[g].buf)
                if n <= eager_max:
                    emit((_K_ESEND, g, r, deps,
                          wt(src, dst, n + HEADER_BYTES)))
                    resolve_step(g)
                    if ready[go]:
                        emit((_K_ERECV, go, rank_of[go], deps_of[go], g))
                        resolve_step(go)
                elif ready[go]:
                    emit((_K_READY, go, rank_of[go], deps_of[go], None))
                    emit((_K_RNDV, g, r, deps, (
                        go, True, wt(src, dst, HEADER_BYTES),
                        wt(dst, src, HEADER_BYTES), wt(src, dst, n),
                    )))
                    resolve_step(g)
                    resolve_step(go)
                # else parked; the receive side resolves the pair
            elif ready[go]:
                if moves:
                    move(_D_TAKE, g)
                src, dst = nodes[go]
                n = scheds[rank_of[go]].nbytes(flat[go].buf)
                if n <= eager_max:
                    emit((_K_ERECV, g, r, deps, go))
                    resolve_step(g)
                else:
                    emit((_K_READY, go, rank_of[go], deps_of[go], None))
                    emit((_K_RNDV, g, r, deps, (
                        go, False, wt(src, dst, HEADER_BYTES),
                        wt(dst, src, HEADER_BYTES), wt(src, dst, n),
                    )))
                    resolve_step(go)
                    resolve_step(g)
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

        rank_rounds = [scheds[r].n_rounds for r in range(size)]
        plan = _Plan(
            code=code, legs=legs, offsets=offsets,
            n_steps=[len(steps) for steps in steps_of],
            n_rounds=max(rank_rounds, default=0),
            rank_rounds=rank_rounds, rounds=[st.round for st in flat],
            sizes=[_sizes(scheds[r].user) for r in range(size)],
            name=span_name(inst.label), nbytes=inst.nbytes,
        )
        if moves:
            plan.data_ops = bytes(data_ops)
            plan.data_slots = tuple(data_slots)
            plan.steps = tuple(flat)
            plan.rank_of = tuple(rank_of)
            plan.pair = tuple(pair)
            plan.scratch = tuple(scheds[r].scratch_specs for r in range(size))
        return plan
