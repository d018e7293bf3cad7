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

* **blocking** — ``yield from engine.execute(ctx, build, ...)`` inside
  the caller's process (what ``MpiContext`` does for the classic
  MPI-2 collectives);
* **nonblocking** — ``engine.start(ctx, build, ...)`` spawns the
  executor as its own simulated process and returns a
  :class:`~repro.mpi.communicator.Request`, which is what the MPI-3
  style ``ibcast``/``iallreduce``/... return and what DCGN's comm
  thread uses to progress collectives while kernels keep computing.

Timing parity: a schedule whose dependency edges mirror a blocking
loop's control flow (send_k ∥ recv_k, both gated on round k−1) produces
the *same* message sequence at the same simulated times — the engine is
pure bookkeeping and charges nothing itself.

Steps carry a ``round`` label.  Rounds have no execution semantics
(dependencies alone order the DAG) but they are the unit the autotuner
costs — :mod:`repro.mpi.algorithms.autotune` prices an algorithm as the
sum of its per-round critical paths — and the unit ``describe()``
reports for tests and diagnostics.

**Schedules are plain data.**  A step never holds a buffer or a
function.  Every buffer it touches is a :class:`Ref` — a *slot* of a
per-instance environment, optionally narrowed to a byte region — or a
:class:`Pack` of refs, concatenated when the step starts.  The slots
are the user's buffers (``Schedule(*user)``, in the order the dispatch
layer passes them) followed by the scratch arrays the schedule
declares (:meth:`Schedule.scratch`), allocated per instance at bind
time; a reduction's :class:`~repro.mpi.datatypes.ReduceOp` is bound
the same way, as a user slot.  Every compute is one op from a closed
set — copy (into a pack: scatter), combine in place, combine into a
rebound slot — run by :func:`run_op`.  A slot's binding may change
while the schedule runs (a combine rebinds an accumulator, a receive
adopts a donated payload), so a wire step reads its buffer from the
environment when it starts.  The same descriptors drive both engines,
and a fast-path plan replays them over freshly bound buffers without
calling the builder.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import (
    Any, Generator, List, NamedTuple, Optional, Sequence, Tuple, Union,
)

import numpy as np

from ...hw.memory import nbytes_of
from ...sim.core import Event
from ..communicator import MpiContext, Request
from ..datatypes import Payload, payload_array
from ..errors import MpiError

__all__ = [
    "Schedule", "ScheduleEngine", "SubSchedule", "Ref", "Pack",
    "new_environment", "resolve", "run_op",
]


class Ref(NamedTuple):
    """A buffer reference: slot ``slot``, whole (``hi < 0``: the bound
    payload itself) or the byte region ``[lo, hi)`` of its flattened
    array."""

    slot: int
    lo: int = 0
    hi: int = -1

    def at(self, lo: int, hi: int) -> "Ref":
        """The byte region ``[lo, hi)`` of this ref (offsets relative to
        its own start)."""
        return Ref(self.slot, self.lo + lo, self.lo + hi)


class Pack(NamedTuple):
    """The concatenation of ``parts``' bytes, built when a step reads
    it (a send's staging payload, a pack bound as a slot)."""

    parts: Tuple[Ref, ...]


Buf = Union[Ref, Pack, None]

_SEND = "send"
_RECV = "recv"
_COMPUTE = "compute"
_OVERHEAD = "overhead"

# Compute op codes (see run_op).
_COPY = 0     # (code, src, dst): dst[...] = src; a pack dst scatters
_COMBINE = 1  # (code, op, a, b, dst): dst[...] = op(a, b)
_REDUCE = 2   # (code, op, a, b, slot): slot := op(a, b)
# (``op`` is the ref of the slot bound to the ReduceOp.)

_U8 = np.dtype(np.uint8)
_EMPTY = np.empty(0, dtype=_U8)


def _u8(arr: np.ndarray) -> np.ndarray:
    """``arr``'s bytes as a flat ``uint8`` view."""
    if arr.ndim != 1:
        arr = arr.reshape(-1)
    return arr if arr.dtype is _U8 else arr.view(_U8)


def _view(env: List[Any], ref: Ref) -> np.ndarray:
    """The array ``ref`` names: its slot's, or a flat view of the
    region — in the slot's dtype when the region is element-aligned
    (every combine operand is), as bytes otherwise."""
    arr = payload_array(env[ref.slot])
    if ref.hi < 0:
        return arr
    if arr.ndim != 1:
        arr = arr.reshape(-1)
    isz = arr.itemsize
    if ref.lo % isz or ref.hi % isz:
        return arr.view(_U8)[ref.lo : ref.hi]
    return arr[ref.lo // isz : ref.hi // isz]


def resolve(env: List[Any], ref: Buf) -> Payload:
    """What ``ref`` names in the bound environment ``env``."""
    if ref is None:
        return None
    if ref.__class__ is Pack:
        parts = [_u8(_view(env, p)) for p in ref.parts]
        return np.concatenate(parts) if parts else _EMPTY
    if ref.hi < 0:
        return env[ref.slot]
    return _view(env, ref)


def run_op(env: List[Any], op: Tuple) -> None:
    """Run one compute op over the bound environment ``env``."""
    code = op[0]
    if code == _COPY:
        _, src, dst = op
        if src.__class__ is dst.__class__ is Ref and max(src.hi, dst.hi) < 0:
            # Whole buffers: a typed copy, skipped for timing-only ones.
            a = payload_array(env[src.slot])
            b = payload_array(env[dst.slot])
            if a is not None and b is not None:
                b[...] = a.reshape(b.shape)
            return
        data = _u8(payload_array(resolve(env, src)))
        parts = dst.parts if dst.__class__ is Pack else (dst,)
        off = 0
        for p in parts:
            view = _u8(_view(env, p))
            view[...] = data[off : off + view.size]
            off += view.size
    elif code == _COMBINE:
        _, rop, a, b, dst = op
        _view(env, dst)[...] = env[rop.slot].combine(
            _view(env, a), _view(env, b)
        )
    else:  # _REDUCE
        _, rop, a, b, slot = op
        env[slot] = env[rop.slot].combine(_view(env, a), _view(env, b))


@dataclass(slots=True)
class _Step:
    """One node of the schedule DAG (plain data: no buffers, no
    functions)."""

    idx: int
    kind: str
    deps: Tuple[int, ...]
    round: int = 0
    #: Wire steps: the peer rank and internal tag.
    peer: int = -1
    tag: int = -1
    #: Wire steps: the buffer (``None``: a timing-only message).
    buf: Buf = None
    #: Compute steps: the op tuple (see :func:`run_op`); runs in zero
    #: simulated time.
    op: Optional[Tuple] = None
    #: Wire steps: the context this step runs under — a *derived*
    #: communicator's :class:`MpiContext` when the hierarchical
    #: collectives route a phase through a sub-communicator (``peer``
    #: and ``tag`` are then that communicator's).  ``None`` = the
    #: executing rank's own context.
    via: Optional[MpiContext] = None
    #: Send steps: the payload is schedule scratch (or a rebound
    #: accumulator) that provably cannot be mutated between injection
    #: and delivery, so the defensive send-time copy may be elided.
    #: Never set on user-owned buffers.
    alias_ok: bool = False
    #: Send steps: the payload is *donated* — the sender never writes
    #: the array again before every receiver has consumed it, so an
    #: adopting receive may take ownership of the in-flight array
    #: instead of copying out of it.  Implies ``alias_ok``.
    donate: bool = False
    #: Receive steps: the target is a whole adoptable scratch slot,
    #: which a private payload rebinds instead of being copied in.
    adopt: bool = False


class Schedule:
    """A per-rank DAG of communication/compute steps over slots.

    ``Schedule(*user)`` makes ``user[i]`` slot ``i``; :meth:`scratch`
    declares more.  A payload passed where a :class:`Ref` is expected
    (a hand-built schedule's array, ``None`` for a timing-only message)
    becomes a new user slot.
    """

    def __init__(self, *user: Payload) -> None:
        self.steps: List[_Step] = []
        #: The user's buffers, slots ``0 .. len(user) - 1``.
        self.user: List[Payload] = list(user)
        #: Scratch declarations, one per slot past the user's:
        #: ``(count, dtype, init ref or None, adoptable)``.
        self.scratch_specs: List[Tuple] = []
        #: Plan key of a prebuilt schedule (the dispatch layer passes
        #: its key to the engine instead); ``None`` is never interned.
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

    # -- slots ---------------------------------------------------------------
    def scratch(self, count: int, dtype: Any = np.uint8,
                init: Union[Ref, Pack, None] = None,
                adopt: bool = False) -> Ref:
        """Declare a flat scratch array of ``count`` elements, allocated
        per instance at bind time.  ``init`` (user buffers) is copied
        into its start at bind time; ``adopt`` lets a whole-slot receive
        adopt a private payload instead of copying it in."""
        self.scratch_specs.append((count, np.dtype(dtype), init, adopt))
        return Ref(len(self.user) + len(self.scratch_specs) - 1)

    def environment(self) -> List[Any]:
        """This instance's slots: its user buffers, then fresh scratch
        arrays."""
        return new_environment(self.scratch_specs, self.user)

    def nbytes(self, buf: Buf) -> int:
        """Static payload size of ``buf`` — equal to the size of what
        it resolves to at any point of any instance."""
        if buf is None:
            return 0
        if buf.__class__ is Pack:
            return sum(self.nbytes(p) for p in buf.parts)
        if buf.hi >= 0:
            return buf.hi - buf.lo
        n_user = len(self.user)
        if buf.slot < n_user:
            b = self.user[buf.slot]
            return nbytes_of(b) if b is not None else 0
        count, dtype, _, _ = self.scratch_specs[buf.slot - n_user]
        return count * dtype.itemsize

    def _ref(self, buf: Any) -> Buf:
        if buf is None or buf.__class__ in (Ref, Pack):
            return buf
        if self.scratch_specs:
            raise MpiError("a raw payload must precede scratch slots")
        self.user.append(buf)
        return Ref(len(self.user) - 1)

    # -- steps ---------------------------------------------------------------
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
        buf: Any,
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
        rank and tag space.  ``alias_ok`` marks the payload as scratch
        whose send-time defensive copy may be elided; ``donate``
        additionally gives the array away to an adopting receive (see
        :class:`_Step`).
        """
        return self._add(_Step(
            len(self.steps), _SEND, tuple(after), round, peer, tag,
            buf=self._ref(buf), via=via, alias_ok=alias_ok or donate,
            donate=donate,
        ))

    def recv(
        self,
        buf: Any,
        peer: int,
        tag: int,
        after: Sequence[int] = (),
        round: int = 0,
        via: Optional[MpiContext] = None,
    ) -> int:
        """Post a receive into ``buf`` from ``peer`` (``via`` as in
        :meth:`send`)."""
        ref = self._ref(buf)
        k = ref.slot - len(self.user) if ref.__class__ is Ref else -1
        adopt = k >= 0 and ref.hi < 0 and self.scratch_specs[k][3]
        return self._add(_Step(
            len(self.steps), _RECV, tuple(after), round, peer, tag,
            buf=ref, via=via, adopt=adopt,
        ))

    def _compute(self, op: Tuple, after: Sequence[int], round: int) -> int:
        return self._add(_Step(
            len(self.steps), _COMPUTE, tuple(after), round, op=op,
        ))

    def copy(self, src: Union[Ref, Pack], dst: Union[Ref, Pack],
             after: Sequence[int] = (), round: int = 0) -> int:
        """``dst[...] = src``.  Two whole slots copy typed (reshaped to
        ``dst``; skipped when either is a timing-only payload); anything
        else copies bytes, a pack ``dst`` taking them part by part."""
        return self._compute((_COPY, src, dst), after, round)

    def combine(self, op: Ref, a: Ref, b: Ref, dst: Ref,
                after: Sequence[int] = (), round: int = 0) -> int:
        """``dst[...] = op(a, b)`` in place, in the slots' dtype, under
        the :class:`~repro.mpi.datatypes.ReduceOp` bound to slot
        ``op``."""
        return self._compute((_COMBINE, op, a, b, dst), after, round)

    def reduce(self, op: Ref, a: Ref, b: Ref, into: Ref,
               after: Sequence[int] = (), round: int = 0) -> int:
        """Rebind slot ``into`` to the fresh array ``op(a, b)`` (``op``
        as in :meth:`combine`)."""
        return self._compute((_REDUCE, op, a, b, into.slot), after, round)

    def overhead(self, after: Sequence[int] = (), round: int = 0) -> int:
        """Charge one software-overhead quantum (the degenerate-size
        path every algorithm keeps for P == 1)."""
        return self._add(_Step(
            len(self.steps), _OVERHEAD, tuple(after), round,
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


def new_environment(specs, user: Sequence[Payload]) -> List[Any]:
    """An environment: the ``user`` buffers, then one fresh array per
    scratch declaration in ``specs``."""
    env = list(user)
    for count, dtype, init, _ in specs:
        arr = np.empty(count, dtype=dtype)
        if init is not None:
            src = _u8(payload_array(resolve(env, init)))
            arr.view(_U8)[: src.size] = src
        env.append(arr)
    return env


class SubSchedule:
    """A :class:`Schedule` view bound to a derived communicator.

    Hands an unmodified schedule *builder* (binomial reduce, ring
    allgather, broadcast appenders …) a sub-communicator to build
    against: every wire step the builder adds is stamped ``via`` the
    bound context, so its peers and tags live in the sub-communicator
    while the steps land in the composite parent schedule.  Everything
    else (slots, computes) is the parent's.
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

    def __getattr__(self, name: str) -> Any:
        return getattr(self._sched, name)


def span_name(shape: Optional[Tuple]) -> str:
    """A collective's span label from its plan key ``(op, algo, ...)``."""
    if not shape:
        return "collective"
    return f"{shape[0]}[{shape[1]}]" if shape[1] else shape[0]


#: Interned per-round span names ("round0", "round1", ...) — every
#: traced collective emits one span per round, so the f-string is paid
#: once per distinct round index, not once per span.
_ROUND_NAMES: List[str] = []


def _round_name(rd: int) -> str:
    names = _ROUND_NAMES
    while len(names) <= rd:
        names.append(f"round{len(names)}")
    return names[rd]


class ScheduleEngine:
    """Executes schedules against a communicator's wire primitives.

    The engine keeps a set of in-flight wire operations (each a spawned
    simulated process driving ``_send_impl``/``_recv_impl``) and reacts
    to the *first* completion, releasing dependent steps immediately.
    Compute steps run inline the moment they unblock, exactly like the
    numpy combines embedded in the old run-to-completion loops.

    Both entry points take ``build`` — a built :class:`Schedule`, or a
    zero-argument callable building one over the user buffers ``bufs``
    — plus the collective's plan key ``shape`` and payload ``nbytes``
    (span labels; the fast-path engine's plan cache).  This engine
    builds and binds at issue.
    """

    def __init__(self, comm) -> None:
        self.comm = comm
        #: Schedules currently executing (inline or background); the
        #: collective ``Comm_free`` drains this before releasing state.
        self.active = 0

    # -- public entry points ------------------------------------------------
    def start(self, ctx: MpiContext, build, shape: Optional[Tuple] = None,
              bufs: Sequence[Payload] = (), nbytes: int = 0,
              name: str = "") -> Request:
        """Run the collective in its own process; return a
        :class:`Request`."""
        proc = ctx.sim.process(
            self.execute(ctx, build, shape, bufs, nbytes),
            name=name or f"sched(r{ctx.rank})",
        )
        return Request(proc)

    def execute(self, ctx: MpiContext, build,
                shape: Optional[Tuple] = None,
                bufs: Sequence[Payload] = (), nbytes: int = 0,
                ) -> Generator[Event, Any, None]:
        """Drive the collective to completion from the calling process.

        Builds and binds now, so build-time state (a scratch copy of
        the send buffer) is taken at issue even when the returned
        generator runs later.
        """
        sched = build if isinstance(build, Schedule) else build()
        if shape is None:
            shape = sched.shape
        return self._run(ctx, sched, sched.environment(), shape, nbytes)

    def _run(self, ctx, sched, env, shape, nbytes):
        self.active += 1
        try:
            yield from self._execute(ctx, sched, env, shape, nbytes)
        finally:
            self.active -= 1

    def _execute(
        self, ctx: MpiContext, sched: Schedule, env: List[Any],
        shape: Optional[Tuple], nbytes: int,
    ) -> Generator[Event, Any, None]:
        from ...sim.primitives import AnyOf

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
            sp_coll = spans.begin(
                ctx.sim.now, span_name(shape), "collective",
                ctx.comm.span_track(ctx.rank),
                attrs={
                    "backend": ctx.comm.backend, "nbytes": nbytes,
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
                    run_op(env, st.op)
                    done += 1
                    if spans is not None:
                        rend[st.round] = ctx.sim._now
                    finish(idx)
                    continue
                proc = ctx.sim.process(
                    self._wire_op(ctx, st, env),
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
        self, ctx: MpiContext, st: _Step, env: List[Any]
    ) -> Generator[Event, Any, Any]:
        # A `via` step runs in a derived communicator's rank/tag space
        # (its own matching stores — tag isolation for free); the wire
        # underneath is the same cluster interconnect either way.
        tctx = st.via if st.via is not None else ctx
        comm = tctx.comm
        if st.kind == _SEND:
            yield from comm._send_impl(
                tctx.rank, st.peer, resolve(env, st.buf), st.tag,
                copy=not st.alias_ok, donate=st.donate,
            )
        elif st.kind == _RECV:
            status = yield from comm._recv_impl(
                tctx.rank, st.peer, resolve(env, st.buf), st.tag,
                env if st.adopt else None, st.buf.slot if st.adopt else 0,
            )
            return status
        elif st.kind == _OVERHEAD:
            yield comm._sw()
        else:  # pragma: no cover - defensive
            raise MpiError(f"unknown step kind {st.kind!r}")
