"""Round-based collective schedules and the nonblocking progress engine.

A :class:`Schedule` is the intermediate representation every collective
algorithm in this package compiles to: a per-rank DAG of **steps**
(send / recv / compute / overhead) with explicit dependencies.  The
:class:`ScheduleEngine` executes a schedule by starting every step whose
dependencies are satisfied and waiting for the *first* completion —
never for the whole round — so independent wire transfers overlap
exactly the way the hand-written generator loops used to overlap their
``isend``/``recv`` pairs.

Two execution modes share the same code path:

* **blocking** — ``yield from engine.execute(ctx, sched)`` inside the
  caller's process (what ``mpi/collectives.py`` does for the classic
  MPI-2 collectives);
* **nonblocking** — ``engine.start(ctx, sched)`` spawns the executor as
  its own simulated process and returns a
  :class:`~repro.mpi.communicator.Request`, which is what the MPI-3
  style ``ibcast``/``iallreduce``/... return and what DCGN's comm
  thread uses to progress collectives while kernels keep computing.

Timing parity: a schedule whose dependency edges mirror a blocking
loop's control flow (send_k ∥ recv_k, both gated on round k−1) produces
the *same* message sequence at the same simulated times — the engine is
pure bookkeeping and charges nothing itself.  That is what keeps the
pre-existing BENCH gates byte-stable while making every algorithm
startable nonblockingly.

Steps carry a ``round`` label.  Rounds have no execution semantics
(dependencies alone order the DAG) but they are the unit the autotuner
costs — :mod:`repro.mpi.algorithms.autotune` prices an algorithm as the
sum of its per-round critical paths — and the unit ``describe()``
reports for tests and diagnostics.

Buffers may be supplied lazily (a zero-argument callable returning the
payload) for algorithms whose round *k* payload only exists once round
*k−1* delivered — the Bruck rotation, recursive-doubling packs, the
rebound accumulator of the halving reductions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Generator, List, Optional, Sequence, Tuple, Union

from ...sim.core import Event
from ..communicator import MpiContext, Request
from ..datatypes import Payload
from ..errors import MpiError

__all__ = ["Schedule", "ScheduleEngine", "LazyBuf", "blocking"]


def blocking(builder: Callable) -> Callable:
    """Blocking entry point for a schedule builder.

    Builds the schedule and executes it to completion in the calling
    process — the single adapter behind every name in
    :data:`~repro.mpi.algorithms.selector.ALGORITHMS`, so the blocking
    and nonblocking paths can never drift apart.
    """

    def run(ctx, *args, **kwargs):
        yield from ctx.comm.engine.execute(
            ctx, builder(ctx, *args, **kwargs)
        )

    run.__name__ = builder.__name__.replace("build_", "")
    run.__qualname__ = run.__name__
    run.__doc__ = (
        f"Blocking execution of :func:`{builder.__name__}`'s schedule."
    )
    return run

#: A payload, or a zero-arg callable resolved when the step starts.
LazyBuf = Union[Payload, Callable[[], Payload]]

_SEND = "send"
_RECV = "recv"
_COMPUTE = "compute"
_OVERHEAD = "overhead"

#: Interned per-round span names ("round0", "round1", ...) — every
#: traced collective emits one span per round, so the f-string is paid
#: once per distinct round index, not once per span.
_ROUND_NAMES: List[str] = []


def _round_name(rd: int) -> str:
    names = _ROUND_NAMES
    while len(names) <= rd:
        names.append(f"round{len(names)}")
    return names[rd]


@dataclass
class _Step:
    """One node of the schedule DAG."""

    idx: int
    kind: str
    deps: Tuple[int, ...]
    round: int = 0
    #: Wire steps: the peer rank and internal tag.
    peer: int = -1
    tag: int = -1
    #: Wire steps: payload (possibly lazy).
    buf: LazyBuf = None
    #: Compute steps: the local action (runs in zero simulated time,
    #: like the inline numpy combines of the old generator loops).
    fn: Optional[Callable[[], None]] = None
    #: Wire steps: the context this step runs under — a *derived*
    #: communicator's :class:`MpiContext` when the hierarchical
    #: collectives route a phase through a sub-communicator (``peer``
    #: and ``tag`` are then that communicator's).  ``None`` = the
    #: executing rank's own context.
    via: Optional[MpiContext] = None
    #: Send steps: the payload is a fresh builder-local staging array
    #: (or a rebound accumulator) that provably cannot be mutated
    #: between injection and delivery, so the defensive send-time
    #: ``np.copy`` may be elided.  Never set on user-owned buffers.
    alias_ok: bool = False
    #: Send steps: the payload is *donated* — the sender never writes
    #: the array again before every receiver has consumed it, so a
    #: matching :class:`~repro.mpi.datatypes.AdoptBuf` receive may take
    #: ownership of the in-flight array instead of copying out of it.
    #: Strictly stronger than ``alias_ok`` (implies it at the wire).
    donate: bool = False

    def resolve_buf(self) -> Payload:
        return self.buf() if callable(self.buf) else self.buf


class Schedule:
    """A per-rank DAG of communication/compute steps."""

    def __init__(self) -> None:
        self.steps: List[_Step] = []
        #: Collective identity for observability: the dispatch layer
        #: stamps ``{"op", "algo", "nbytes"}`` here so the engines can
        #: label the span they emit per execution.  ``None`` (e.g. a
        #: builder invoked directly in tests) falls back to a generic
        #: label; execution is identical either way.
        self.meta: Optional[dict] = None
        #: Plan key, stamped by the dispatch layer next to ``meta``: op,
        #: algorithm, root and the signature of every buffer that sizes
        #: a wire step, equal on every rank.  The fast-path engine
        #: compiles each shape once per communicator and prices repeat
        #: instances from the compiled plan.  ``None`` (a builder
        #: invoked directly) is never interned.
        self.shape: Optional[Tuple] = None

    def __len__(self) -> int:
        return len(self.steps)

    @property
    def last(self) -> int:
        """Index of the most recently added step."""
        if not self.steps:
            raise MpiError("empty schedule has no last step")
        return len(self.steps) - 1

    @property
    def n_rounds(self) -> int:
        return 1 + max((s.round for s in self.steps), default=-1)

    def _add(self, step: _Step) -> int:
        for d in step.deps:
            if not (0 <= d < len(self.steps)):
                raise MpiError(
                    f"step {step.idx} depends on unknown step {d}"
                )
        self.steps.append(step)
        return step.idx

    def send(
        self,
        buf: LazyBuf,
        peer: int,
        tag: int,
        after: Sequence[int] = (),
        round: int = 0,
        via: Optional[MpiContext] = None,
        alias_ok: bool = False,
        donate: bool = False,
    ) -> int:
        """Post a send of ``buf`` to ``peer`` once ``after`` completed.

        ``via`` routes the step through a derived communicator's
        context: ``peer`` and ``tag`` are then in *that* communicator's
        rank and tag space.  ``alias_ok`` marks the payload as a fresh
        builder-local array whose send-time defensive copy may be
        elided; ``donate`` additionally gives the array away, letting
        an :class:`~repro.mpi.datatypes.AdoptBuf` receive adopt it
        (see :class:`_Step`).
        """
        return self._add(_Step(
            idx=len(self.steps), kind=_SEND, deps=tuple(after),
            round=round, peer=peer, tag=tag, buf=buf, via=via,
            alias_ok=alias_ok or donate, donate=donate,
        ))

    def recv(
        self,
        buf: LazyBuf,
        peer: int,
        tag: int,
        after: Sequence[int] = (),
        round: int = 0,
        via: Optional[MpiContext] = None,
    ) -> int:
        """Post a receive into ``buf`` from ``peer`` (``via`` as in
        :meth:`send`)."""
        return self._add(_Step(
            idx=len(self.steps), kind=_RECV, deps=tuple(after),
            round=round, peer=peer, tag=tag, buf=buf, via=via,
        ))

    def compute(
        self,
        fn: Callable[[], None],
        after: Sequence[int] = (),
        round: int = 0,
    ) -> int:
        """Run a local action (combine/copy/pack) — zero simulated time."""
        return self._add(_Step(
            idx=len(self.steps), kind=_COMPUTE, deps=tuple(after),
            round=round, fn=fn,
        ))

    def overhead(self, after: Sequence[int] = (), round: int = 0) -> int:
        """Charge one software-overhead quantum (the degenerate-size
        path every algorithm keeps for P == 1)."""
        return self._add(_Step(
            idx=len(self.steps), kind=_OVERHEAD, deps=tuple(after),
            round=round,
        ))

    def describe(self) -> str:
        """Human-readable round-by-round summary (tests/diagnostics)."""
        by_round: dict = {}
        for s in self.steps:
            by_round.setdefault(s.round, []).append(s)
        lines = []
        for r in sorted(by_round):
            ops = ", ".join(
                f"{s.kind}"
                + (f"->{s.peer}" if s.kind == _SEND else "")
                + (f"<-{s.peer}" if s.kind == _RECV else "")
                for s in by_round[r]
            )
            lines.append(f"round {r}: {ops}")
        return "\n".join(lines)


class SubSchedule:
    """A :class:`Schedule` view bound to a derived communicator.

    Hands an unmodified schedule *builder* (binomial reduce, ring
    allgather, broadcast appenders …) a sub-communicator to build
    against: every wire step the builder adds is stamped ``via`` the
    bound context, so its peers and tags live in the sub-communicator
    while the steps land in the composite parent schedule.  This is how
    the hierarchical collectives compose intra-domain and inter-domain
    phases out of the ordinary algorithms instead of hand-rolling rank
    arithmetic.
    """

    def __init__(self, sched: Schedule, via: MpiContext) -> None:
        self._sched = sched
        self.via = via

    def send(self, buf, peer, tag, after=(), round=0, via=None,
             alias_ok=False, donate=False) -> int:
        return self._sched.send(
            buf, peer, tag, after=after, round=round,
            via=via if via is not None else self.via,
            alias_ok=alias_ok, donate=donate,
        )

    def recv(self, buf, peer, tag, after=(), round=0, via=None) -> int:
        return self._sched.recv(
            buf, peer, tag, after=after, round=round,
            via=via if via is not None else self.via,
        )

    def compute(self, fn, after=(), round=0) -> int:
        return self._sched.compute(fn, after=after, round=round)

    def overhead(self, after=(), round=0) -> int:
        return self._sched.overhead(after=after, round=round)

    @property
    def steps(self):
        return self._sched.steps

    @property
    def last(self) -> int:
        return self._sched.last

    @property
    def n_rounds(self) -> int:
        return self._sched.n_rounds

    def __len__(self) -> int:
        return len(self._sched)


__all__.append("SubSchedule")


class ScheduleEngine:
    """Executes schedules against a communicator's wire primitives.

    The engine keeps a set of in-flight wire operations (each a spawned
    simulated process driving ``_send_impl``/``_recv_impl``) and reacts
    to the *first* completion, releasing dependent steps immediately.
    Compute steps run inline the moment they unblock, exactly like the
    numpy combines embedded in the old run-to-completion loops.
    """

    def __init__(self, comm) -> None:
        self.comm = comm
        #: Schedules currently executing (inline or background); the
        #: collective ``Comm_free`` drains this before releasing state.
        self.active = 0

    # -- public entry points ------------------------------------------------
    def execute_deferred(
        self, ctx: MpiContext, shape: Tuple, build: Callable
    ) -> Generator[Event, Any, None]:
        """Build ``build(ctx)``'s schedule (of plan key ``shape``) and
        run it.  The fast-path engine overrides this to build only when
        the shape has no compiled plan yet."""
        return self.execute(ctx, build(ctx))

    def start(self, ctx: MpiContext, sched: Schedule, name: str = "") -> Request:
        """Run ``sched`` in its own process; return a :class:`Request`."""
        proc = ctx.sim.process(
            self.execute(ctx, sched),
            name=name or f"sched(r{ctx.rank})",
        )
        return Request(proc)

    def execute(
        self, ctx: MpiContext, sched: Schedule
    ) -> Generator[Event, Any, None]:
        """Drive ``sched`` to completion from the calling process."""
        self.active += 1
        try:
            yield from self._execute(ctx, sched)
        finally:
            self.active -= 1

    def _execute(
        self, ctx: MpiContext, sched: Schedule
    ) -> Generator[Event, Any, None]:
        from ...sim.primitives import AnyOf

        import heapq

        steps = sched.steps
        n = len(steps)
        if n == 0:
            return
        # Span bookkeeping is timing-passive: it only reads sim.now at
        # points the engine already visits, never yields or schedules.
        spans = ctx.sim.spans
        if spans is not None and not spans.enabled:
            spans = None
        sp_coll = None
        rstart: dict = {}
        rend: dict = {}
        if spans is not None:
            meta = sched.meta or {}
            track = ctx.comm.span_track(ctx.rank)
            name = meta.get("op", "collective")
            if meta.get("algo"):
                name = f"{name}[{meta['algo']}]"
            sp_coll = spans.begin(
                ctx.sim.now, name, "collective", track,
                attrs={
                    "backend": ctx.comm.backend,
                    "nbytes": meta.get("nbytes", 0),
                    "n_rounds": sched.n_rounds, "n_steps": n,
                },
            )
        missing = [len(s.deps) for s in steps]
        dependents: List[List[int]] = [[] for _ in steps]
        for s in steps:
            for d in s.deps:
                dependents[d].append(s.idx)
        #: Min-heap of startable step indices — lowest index first so
        #: wire ops post in the order the algorithm listed them (send
        #: before recv inside a round, like the old loops).
        ready = [i for i in range(n) if missing[i] == 0]
        heapq.heapify(ready)
        running: dict = {}
        done = 0

        def finish(idx: int) -> None:
            for j in dependents[idx]:
                missing[j] -= 1
                if missing[j] == 0:
                    heapq.heappush(ready, j)

        while done < n:
            while ready:
                idx = heapq.heappop(ready)
                st = steps[idx]
                if spans is not None and st.round not in rstart:
                    rstart[st.round] = ctx.sim._now
                if st.kind == _COMPUTE:
                    st.fn()
                    done += 1
                    if spans is not None:
                        rend[st.round] = ctx.sim._now
                    finish(idx)
                    continue
                proc = ctx.sim.process(
                    self._wire_op(ctx, st),
                    name=f"sched.{st.kind}(r{ctx.rank}:{st.idx})",
                )
                running[proc] = idx
            if done >= n:
                break
            if not running:
                raise MpiError(
                    "schedule stalled: cyclic or dangling dependencies"
                )
            yield AnyOf(ctx.sim, list(running.keys()))
            finished = sorted(
                (p for p in running if p.triggered),
                key=lambda p: running[p],
            )
            if spans is not None:
                # sim.now is monotonic, so every wave overwrites its
                # rounds' end stamps with the latest completion time.
                now = ctx.sim._now
                for p in finished:
                    rend[steps[running[p]].round] = now
            for p in finished:
                idx = running.pop(p)
                done += 1
                finish(idx)
        if sp_coll is not None:
            now = ctx.sim.now
            for r in sorted(rstart):
                spans.complete(
                    rstart[r], rend.get(r, now), _round_name(r), "round",
                    sp_coll.track, sp_coll.sid,
                )
            spans.end(now, sp_coll)

    # -- step drivers -------------------------------------------------------
    def _wire_op(
        self, ctx: MpiContext, st: _Step
    ) -> Generator[Event, Any, Any]:
        # A `via` step runs in a derived communicator's rank/tag space
        # (its own matching stores — tag isolation for free); the wire
        # underneath is the same cluster interconnect either way.
        tctx = st.via if st.via is not None else ctx
        comm = tctx.comm
        if st.kind == _SEND:
            yield from comm._send_impl(
                tctx.rank, st.peer, st.resolve_buf(), st.tag,
                copy=not st.alias_ok, donate=st.donate,
            )
        elif st.kind == _RECV:
            status = yield from comm._recv_impl(
                tctx.rank, st.peer, st.resolve_buf(), st.tag
            )
            return status
        elif st.kind == _OVERHEAD:
            yield comm._sw()
        else:  # pragma: no cover - defensive
            raise MpiError(f"unknown step kind {st.kind!r}")
