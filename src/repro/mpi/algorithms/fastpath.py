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
   payload, both sides finishing together).  Each distinct wire leg is
   priced once per compile.  Because the model follows
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
:class:`_Plan`.  The compile is columnar: schedules store their steps
as columns (:mod:`~repro.mpi.algorithms.schedule`), and
:meth:`FastPathEngine._compile` concatenates every rank's columns into
arrays and does with array operations what a per-step walk would do —
pair every send with its receive (one lexsort), split eager from
rendezvous pairs, intern each distinct wire leg's time (and book the
routed legs into :meth:`~repro.hw.topology.base.Topology.account` when
accounting is on, in instruction order), and order the steps by
*level*: a Kahn frontier over the dependency edges plus the pair edges,
a rendezvous pair coupled into one node.  A step's level counts the
wire completions on its longest dependency path; computes add none.  A
step the frontier never reaches is on or behind a cycle (or waits for
a message no rank sends) and is reported as a stall with per-rank
pending counts.  From that order the compile emits one pricing
instruction per step, and every instance — the compiling one included
— is priced by :meth:`_Plan.evaluate`, one straight-line pass over
them.  The order is topological, ``max`` is exact and every addition
is the same per step whatever order the steps are visited in, so times
are bit-identical whether a plan is fresh or reused, at any arrival
skew, traced or not.  A plan keeps its per-step state as ``numpy``
columns plus the instruction list; buffers and compute ops are stored
once per distinct value.

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

**The data program.**  A data-carrying plan also records its data
movement as a straight-line list of slot-addressed operations: resolve
a wire step's buffer in its rank's environment, run a compute op,
snapshot a send whose receive is not yet posted, deliver a send into
its posted receive, deliver a snapshot into its receive.  Delivery goes
through ``Communicator._deliver``, so a private payload is adopted by
an adoptable scratch slot exactly as the matcher would.  The compiling
instance and every data-carrying hit run the program over their bound
environments (:meth:`_Plan.replay`).  Times do not depend on the
order, but data does: a pack is concatenated, and a rebound slot read,
when its send resolves, and a later compute may rewrite them (Bruck
alltoall packs its round-k+1 send from rows its round-k+1 unpack
overwrites).  So the program keeps the ordering rule of each rank's
exact engine, level by level: the computes a level released run first
(a chain of computes shares a level), lowest slot first; then the
buffers of the wire steps the level released resolve; then payloads
move — snapshots into receives posted at this level, then sends, which
deliver straight into a receive posted at their level or earlier and
are snapshotted otherwise.  Posted receives go before sends, so a send
almost always delivers without a snapshot.

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

**Pricing-only mode** (``backend="pricing"``): the same compile with
no data program and no bound buffers — computes never run and receive
buffers are left untouched.  Message sizes are static (a region's, a
slot's declared size), so simulated times stay bit-identical to
``analytic``.  This is the sweep mode: a 1024-rank collective costs
one pass over its plan, which is what makes the ``BENCH_scale.json``
sweeps interactive.  Never use it when the program consumes the data
it communicates.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import chain
from typing import Any, Callable, Dict, Generator, List, Optional, Tuple

import numpy as np

from ...sim.batch import EventBatch
from ...sim.core import Event, us
from ..datatypes import HEADER_BYTES, ReduceOp, payload_array
from ..errors import MpiError
from .schedule import (
    _ADOPT, _COMPUTE, _DONATE, _RECV, _SEND, Schedule, ScheduleEngine,
    _round_name, new_environment, resolve, run_op, span_name,
)

__all__ = ["FastPathEngine"]

# Plan instruction kinds (see _Plan.evaluate).
_K_COMPUTE = 0   # fin = ready
_K_OVERHEAD = 1  # fin = ready + sw
_K_READY = 2     # a rendezvous pair's receive: ready only
_K_ESEND = 3     # eager send: fin = ready + sw + wire
_K_ERECV = 4     # eager receive: fin = max(ready + sw, send fin)
_K_RNDV = 5      # a rendezvous pair's send, after its READY: both finish

# Data program operations (see _move).
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


def _move(ops: bytes, slots: List[int], refs: Tuple, ref_of: List[int],
          flags: List[int], rank_of: List[int], pair: List[int],
          envs: List[Optional[List[Any]]], stats) -> None:
    """Run a data program over one instance's per-rank environments
    ``envs``.  Per slot: its buffer or compute op ``refs[ref_of[g]]``,
    its flags, its rank and its paired wire slot."""
    from ..communicator import Communicator

    deliver = Communicator._deliver
    #: Per wire slot, its resolved buffer; per send slot, the payload
    #: snapshotted while its receive was not yet posted.
    bufs: List[Any] = [None] * len(ref_of)
    held: List[Any] = [None] * len(ref_of)
    views = copies = 0
    for op, g in zip(ops, slots):
        if op == _D_RESOLVE:
            bufs[g] = resolve(envs[rank_of[g]], refs[ref_of[g]])
            continue
        if op == _D_COMPUTE:
            run_op(envs[rank_of[g]], refs[ref_of[g]])
            continue
        if op == _D_DIRECT:
            # Source → destination, no snapshot.  Only a donated
            # payload is private here (the live array is otherwise
            # still the sender's).
            data = payload_array(bufs[g])
            if data is not None:
                views += 1
            private = bool(flags[g] & _DONATE)
            g = pair[g]
        elif op == _D_SNAP:
            data = payload_array(bufs[g])
            if data is not None:
                if flags[g] & _DONATE:
                    # Donated: nothing writes the array again, so it
                    # can wait for its receive un-snapshotted.
                    views += 1
                else:
                    data = data.copy()
                    copies += 1
            held[g] = data
            continue
        else:  # _D_TAKE
            # Held payloads are private either way (donated or freshly
            # snapshotted): adoptable at the receive.
            data = held[pair[g]]
            private = True
        # Into receive slot g; an adoptable scratch slot may rebind.
        if flags[g] & _ADOPT:
            deliver(bufs[g], data, private, stats, envs[rank_of[g]],
                    refs[ref_of[g]].slot)
        else:
            deliver(bufs[g], data, private, stats)
    stats.payload_views += views
    stats.payload_copies += copies


@dataclass(eq=False)
class _Plan:
    """One collective shape, compiled (see module doc).

    Steps are numbered rank-major: rank ``r``'s step ``i`` is slot
    ``offsets[r] + i``.  A plan lives as long as its communicator, so
    what it keeps per step is columns (``numpy`` arrays), plus the
    straight-line pricing code; legs and wire times are interned.
    """

    #: One instruction per step, in level order (see
    #: :meth:`FastPathEngine._compile`): ``(kind, slot, rank, dep
    #: slots, arg)``.
    code: List[Tuple]
    #: Every priced wire leg ``(src_node, dst_node, nbytes)``, in
    #: instruction order, each pair's legs in protocol order (for
    #: ``Topology.account``).
    legs: List[Tuple[int, int, int]]
    offsets: List[int]
    n_steps: List[int]
    n_rounds: int
    #: Per rank, its schedule's ``n_rounds``; per slot, its step's
    #: round label — what the traced span tree is drawn from.
    rank_rounds: List[int]
    rounds: np.ndarray
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
    data_slots: Optional[np.ndarray] = None
    #: The distinct buffers and compute ops of the compiled steps, and
    #: per slot: which of them is its own, its flags, its rank and its
    #: paired wire slot; per rank, its scratch declarations — what a
    #: hit binds and replays.
    refs: Tuple = ()
    ref_of: Optional[np.ndarray] = None
    flags: Optional[np.ndarray] = None
    rank_of: Optional[np.ndarray] = None
    pair: Optional[np.ndarray] = None
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
        if len(sched) != self.n_steps[rank]:
            raise MpiError(
                f"fast-path plan for {self.name!r} has "
                f"{self.n_steps[rank]} steps on rank {rank}, the schedule "
                f"{len(sched)}: the shape key misses an input "
                "that changes the DAG"
            )
        self._check_sizes(rank, sched.user)

    def replay(self, envs: List[Optional[List[Any]]], stats) -> None:
        """Move one instance's data: run the data program over its
        bound environments."""
        _move(self.data_ops, self.data_slots.tolist(), self.refs,
              self.ref_of.tolist(), self.flags.tolist(),
              self.rank_of.tolist(), self.pair.tolist(), envs, stats)

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
            else:  # _K_RNDV: g is the send, ``other`` its receive
                other, hdr, cts, payload = arg
                a = rdy[other] + sw
                b = t + sw + hdr
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
        if plan.data_ops:
            plan.replay(inst.envs, stats)

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
        rounds = plan.rounds.tolist()
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
        """Compile the instance's DAGs into a :class:`_Plan` with array
        operations over all ranks' step columns — with a data program
        unless the engine is pricing-only or the shape is data-free.

        1. **Pair** every send with a receive: one lexsort of the wire
           steps on (communicator, source, destination, tag, step) —
           the matcher is non-overtaking per key, so the k-th send of a
           key meets its k-th receive.  Communicators are numbered in
           order of first appearance.
        2. **Split** eager from rendezvous pairs on the vector of send
           sizes.
        3. **Level** the steps: a Kahn frontier over dependency edges
           plus pair edges (an eager send precedes its receive; a
           rendezvous pair is one node, released when both sides are).
           A step's level counts the wire completions on its longest
           path — computes add none, so a chain of computes shares its
           level.  A step no frontier reaches is reported as a stall.
        4. **Emit** one pricing instruction per step in (level;
           computes, then eager sends and overheads, eager receives,
           rendezvous pairs; slot) order.  That is a topological order,
           so :meth:`_Plan.evaluate` does the same float operations per
           step as any dependency-order walk: times are bit-identical.
        5. **Intern legs**: one ``wire_time`` call per distinct
           ``(src_node, dst_node, nbytes)`` leg; ``Topology.account``
           books the legs in instruction order, each pair's in protocol
           order (eager: payload; rendezvous: RTS, CTS, payload).
        6. **Data program** (data-carrying shapes): the module doc's
           ordering rule, level by level — computes (lowest slot
           first), then the buffers of the wire steps the level
           released, then deliveries, receives before sends.
        """
        comm = self.comm
        cols = _Columns(inst.scheds)
        n, kind, rank_of = cols.n, cols.kind, cols.rank_of
        comms, comm_of, local = self._endpoints(cols)
        snd, rcv = _pair(cols, comm_of, local)
        pair = np.full(n, -1, dtype=np.int64)
        pair[snd] = rcv
        pair[rcv] = snd
        nbytes = cols.column("size", np.int64)[snd]
        eager = nbytes <= comm._ib.eager_threshold

        # A rendezvous receive's dependencies gate its send.
        rndv_recv = np.zeros(n, dtype=bool)
        rndv_recv[rcv[~eager]] = True
        owner, src = cols.dep_owner, cols.dep_src
        gated = np.where(rndv_recv[owner], pair[owner], owner)
        is_wire = (kind != _COMPUTE).astype(np.int64)
        level, reached = _levels(
            n, np.concatenate([src, snd]), np.concatenate([gated, rcv]),
            np.concatenate([is_wire[src], np.zeros(len(snd), np.int64)]),
            (pair < 0) & ((kind == _SEND) | (kind == _RECV)),
        )
        if not reached.all():
            stuck = np.bincount(rank_of[~reached], minlength=comm.size)
            raise MpiError(
                "fast-path schedule stalled (cyclic or unmatched "
                "wire steps); pending steps per rank: "
                f"{ {r: int(c) for r, c in enumerate(stuck) if c} }"
            )

        # Instruction order and kinds.
        cat = np.where(kind == _COMPUTE, 0, 1).astype(np.int8)
        ikind = np.where(kind == _COMPUTE, _K_COMPUTE, _K_OVERHEAD)
        rs, rr, es, er = snd[~eager], rcv[~eager], snd[eager], rcv[eager]
        cat[er] = 2
        cat[rs] = cat[rr] = 3
        ikind[es], ikind[er] = _K_ESEND, _K_ERECV
        ikind[rr], ikind[rs] = _K_READY, _K_RNDV
        # A rendezvous pair: its receive's READY right before its
        # send's RNDV.
        grp = np.arange(n)
        grp[rr] = rs
        order = np.lexsort((kind == _SEND, grp, cat, level))

        #: One int object per slot number, shared by everything the
        #: code stores (slot numbers past 256 are not cached by Python).
        ids = list(range(n))
        args: List[Any] = [None] * n
        for g, s in zip(er.tolist(), es.tolist()):
            args[g] = ids[s]
        sends = order[kind[order] == _SEND]  # all paired: no stall
        legs = self._price_legs(sends, pair, nbytes, eager, snd, comms,
                                comm_of, local, cols.peer, args, ids)
        slots = list(map(ids.__getitem__, order.tolist()))
        plan = _Plan(
            code=list(zip(
                ikind[order].tolist(), slots, rank_of[order].tolist(),
                _dep_tuples(cols, order, ids), map(args.__getitem__, slots),
            )),
            legs=legs, offsets=cols.offsets, n_steps=cols.counts,
            n_rounds=max(cols.n_rounds, default=0),
            rank_rounds=cols.n_rounds, rounds=cols.column("round", np.int32),
            sizes=[_sizes(sc.user) for sc in inst.scheds],
            name=span_name(inst.label), nbytes=inst.nbytes,
        )
        bufs = cols.values("buf")
        if not self.price_only and (
            bufs.count(None) < n or bool((kind == _COMPUTE).any())
        ):
            # Where each step's own dependencies are met: a wire step's
            # buffer resolves at that level.
            release = np.zeros(n, dtype=np.int64)
            np.maximum.at(release, owner, level[src] + is_wire[src])
            _data_program(plan, cols, bufs, level, release, pair, snd, rcv)
        return plan

    def _endpoints(self, cols: "_Columns"):
        """The communicators the steps' wire traffic runs on (this one
        first, derived ones in order of first appearance) and, per
        step, the index of its communicator and its rank there."""
        n = cols.n
        vias = cols.values("via")
        if vias.count(None) == n:
            return [self.comm], np.zeros(n, dtype=np.int64), cols.rank_of
        comm_ix = {self.comm: 0}
        row = {None: 0}
        row_comm, row_rank = [0], [-1]
        for v in dict.fromkeys(vias):
            if v is not None:
                row[v] = len(row_comm)
                row_comm.append(comm_ix.setdefault(v.comm, len(comm_ix)))
                row_rank.append(v.rank)
        vi = np.fromiter(map(row.__getitem__, vias), np.int64, n)
        local = np.where(vi == 0, cols.rank_of, np.asarray(row_rank)[vi])
        return list(comm_ix), np.asarray(row_comm)[vi], local

    def _price_legs(self, sends, pair, nbytes, eager, snd, comms, comm_of,
                    local, peer, args, ids) -> List[Tuple[int, int, int]]:
        """Price the wire legs of the paired ``sends`` (in instruction
        order) with one ``wire_time`` call per distinct leg, store each
        send's instruction argument in ``args``, and return every leg
        in instruction order."""
        placement = np.concatenate(
            [np.asarray(c.placement, dtype=np.int64) for c in comms]
        )
        base = np.cumsum([0] + [len(c.placement) for c in comms])
        at = base[comm_of[sends]]
        a = placement[at + local[sends]]
        b = placement[at + peer[sends]]
        k = np.empty(len(pair), dtype=np.int64)
        k[snd] = np.arange(len(snd))
        e, nb = eager[k[sends]], nbytes[k[sends]]
        # Eager: one leg (payload + header).  Rendezvous: RTS, CTS,
        # payload.
        per = np.where(e, 1, 3)
        first = np.cumsum(per) - per
        rep = np.repeat(np.arange(len(sends)), per)
        j = np.arange(len(rep)) - first[rep]
        fwd = e[rep] | (j != 1)
        leg = np.stack([
            np.where(fwd, a[rep], b[rep]), np.where(fwd, b[rep], a[rep]),
            np.where(e[rep], nb[rep] + HEADER_BYTES,
                     np.where(j == 2, nb[rep], HEADER_BYTES)),
        ])
        distinct, inv = np.unique(leg, axis=1, return_inverse=True)
        distinct = list(zip(*distinct.tolist()))
        wire_time = self.comm.cluster.interconnect.wire_time
        cost = [wire_time(*d) for d in distinct]
        inv = inv.reshape(-1).tolist()  # 1-D whatever the numpy version
        t = list(map(cost.__getitem__, inv))
        for g, f, eg, r in zip(sends.tolist(), first.tolist(), e.tolist(),
                               pair[sends].tolist()):
            args[g] = t[f] if eg else (ids[r], t[f], t[f + 1], t[f + 2])
        return list(map(distinct.__getitem__, inv))


class _Columns:
    """All ranks' step columns, concatenated rank-major (rank ``r``'s
    step ``i`` is slot ``offsets[r] + i``), with the dependency edges
    in global slot numbers."""

    def __init__(self, scheds: List[Schedule]) -> None:
        self.scheds = scheds
        self.counts = [len(sc) for sc in scheds]
        self.offsets = [0]
        for c in self.counts:
            self.offsets.append(self.offsets[-1] + c)
        self.n = self.offsets[-1]
        self.n_rounds = [sc.n_rounds for sc in scheds]
        self.kind = self.column("kind", np.int8)
        self.peer = self.column("peer", np.int64)
        self.rank_of = np.repeat(np.arange(len(scheds)), self.counts)
        deps = self.values("deps")
        self.ndeps = np.fromiter(map(len, deps), np.int64, self.n)
        #: Edge ``i``: slot ``dep_src[i]`` gates slot ``dep_owner[i]``.
        self.dep_owner = np.repeat(np.arange(self.n), self.ndeps)
        self.dep_src = np.fromiter(
            chain.from_iterable(deps), np.int64, len(self.dep_owner)
        ) + np.asarray(self.offsets[:-1])[self.rank_of[self.dep_owner]]

    def values(self, name: str) -> List[Any]:
        """Column ``name`` over every slot, as a list."""
        return list(chain.from_iterable(
            getattr(sc, name) for sc in self.scheds
        ))

    def column(self, name: str, dtype) -> np.ndarray:
        """Column ``name`` over every slot, as an array."""
        return np.fromiter(chain.from_iterable(
            getattr(sc, name) for sc in self.scheds
        ), dtype, self.n)


def _pair(cols: _Columns, comm_of: np.ndarray,
          local: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The paired wire slots: sends, and the receive each pairs with.

    Sorted by (communicator, source, destination, tag, receives after
    sends, slot), every key's sends and then its receives are runs in
    step order, and the k-th send meets the k-th receive."""
    kind = cols.kind
    w = np.flatnonzero((kind == _SEND) | (kind == _RECV))
    if not len(w):
        return w, w
    ws = kind[w] == _SEND
    peer, me = cols.peer[w], local[w]
    keys = np.stack([
        comm_of[w], np.where(ws, me, peer), np.where(ws, peer, me),
        cols.column("tag", np.int64)[w],
    ])
    o = np.lexsort((w, ~ws, *keys[::-1]))
    w, ws, keys = w[o], ws[o], keys[:, o]
    new = np.ones(len(w), dtype=bool)
    new[1:] = (keys[:, 1:] != keys[:, :-1]).any(axis=0)
    starts = np.flatnonzero(new)
    key = np.cumsum(new) - 1
    n_sends = np.add.reduceat(ws.astype(np.int64), starts)
    n_recvs = np.diff(np.append(starts, len(w))) - n_sends
    pos = np.arange(len(w)) - starts[key]
    paired = ws & (pos < n_recvs[key])
    return w[paired], w[(starts[key] + n_sends[key] + pos)[paired]]


def _levels(n: int, e_src: np.ndarray, e_dst: np.ndarray, e_w: np.ndarray,
            blocked: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Longest-path levels of an ``n``-node graph of weighted edges
    ``e_src → e_dst`` (weight ``e_w``), by a Kahn frontier; ``blocked``
    nodes (unmatched wire steps) never enter it.  Returns the levels
    and which nodes the frontier reached (a node on or behind a cycle
    is never reached)."""
    indeg = np.bincount(e_dst, minlength=n) + blocked
    by_src = np.argsort(e_src, kind="stable")
    out_dst = e_dst[by_src]
    out_w = e_w[by_src]
    ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(e_src, minlength=n), out=ptr[1:])
    level = np.zeros(n, dtype=np.int64)
    reached = np.zeros(n, dtype=bool)
    frontier = np.flatnonzero(indeg == 0)
    while len(frontier):
        reached[frontier] = True
        lo = ptr[frontier]
        cnt = ptr[frontier + 1] - lo
        if not cnt.any():
            break
        edge = np.repeat(lo - np.cumsum(cnt) + cnt, cnt) + np.arange(
            cnt.sum()
        )
        d = out_dst[edge]
        np.maximum.at(level, d, np.repeat(level[frontier], cnt) + out_w[edge])
        d, hits = np.unique(d, return_counts=True)
        indeg[d] -= hits
        frontier = d[indeg[d] == 0]
    return level, reached


def _dep_tuples(cols: _Columns, order: np.ndarray,
                ids: List[int]) -> List[Tuple]:
    """The dependency tuples (global slot numbers) of the steps in
    ``order``, built column-wise per dependency count; equal tuples
    are shared (a round's send and receive often wait on the same
    steps)."""
    count = cols.ndeps[order]
    first = (np.cumsum(cols.ndeps) - cols.ndeps)[order]
    out: List[Tuple] = [()] * len(order)
    shared: Dict[Tuple, Tuple] = {}
    for m in np.unique(count[count > 0]).tolist():
        rows = np.flatnonzero(count == m)
        at = first[rows]
        tuples = list(zip(*[
            map(ids.__getitem__, cols.dep_src[at + j].tolist())
            for j in range(m)
        ]))
        deque(map(out.__setitem__, rows.tolist(),
                  map(shared.setdefault, tuples, tuples)), maxlen=0)
    return out


def _data_program(plan: _Plan, cols: _Columns, bufs: List[Any],
                  level: np.ndarray, release: np.ndarray, pair: np.ndarray,
                  snd: np.ndarray, rcv: np.ndarray) -> None:
    """Record ``plan``'s data program (module doc) and the columns it
    runs on.  Level by level: computes by slot, then the buffers of the
    wire steps released at the level, then deliveries — snapshotted
    payloads into receives posted at this level, then sends, which
    deliver straight into a receive posted at their level or earlier
    and are snapshotted otherwise."""
    objs = [b if b is not None else op
            for b, op in zip(bufs, cols.values("op"))]
    index = {x: i for i, x in enumerate(dict.fromkeys(objs))}
    comp = np.flatnonzero(cols.kind == _COMPUTE)
    wire = np.flatnonzero(pair >= 0)
    late = release[rcv] > release[snd]  # receive posted after its send
    take = rcv[late]
    slots = np.concatenate([comp, wire, take, snd])
    o = np.lexsort((
        slots,
        np.repeat(np.arange(4), [len(comp), len(wire), len(take), len(snd)]),
        np.concatenate([level[comp], release[wire], release[take],
                        release[snd]]),
    ))
    ops = np.concatenate([
        np.full(len(comp), _D_COMPUTE), np.full(len(wire), _D_RESOLVE),
        np.full(len(take), _D_TAKE), np.where(late, _D_SNAP, _D_DIRECT),
    ])
    plan.data_ops = ops[o].astype(np.uint8).tobytes()
    plan.data_slots = slots[o].astype(np.int32)
    plan.refs = tuple(index)
    plan.ref_of = np.fromiter(map(index.__getitem__, objs), np.int32,
                              cols.n)
    plan.flags = cols.column("flags", np.uint8)
    plan.rank_of = cols.rank_of.astype(np.int32)
    plan.pair = pair.astype(np.int32)
    plan.scratch = tuple(sc.scratch_specs for sc in cols.scheds)
