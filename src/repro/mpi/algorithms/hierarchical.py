"""Hierarchical collectives composed from real sub-communicators.

On an oversubscribed fabric with a fragmented rank placement, every
step of a flat schedule crosses the bottleneck uplinks, paying the
oversubscription factor each time.  The hierarchical schedules cross
only in their middle phase — and these days that decomposition is
*literally* communicator composition: the communicator's
:meth:`~repro.mpi.communicator.Communicator.hier_comms` bundle supplies
an **intra-domain** communicator per locality group, a **leader**
communicator (first member of each group), and — for equal-size groups
— one **peer** communicator per member index.  Each phase is an
ordinary collective schedule built *against the sub-communicator* (its
local ranks, its tag space) and spliced into one composite
:class:`~repro.mpi.algorithms.schedule.Schedule` through
:class:`~repro.mpi.algorithms.schedule.SubSchedule`, so no domain rank
arithmetic is hand-rolled here.

* ``allreduce`` — equal pods (s members × G domains): intra-domain
  ring reduce-scatter → peer-communicator ring allreduce of the owned
  chunk (the only phase crossing uplinks, moving n/(s·G) per step) →
  intra-domain ring allgather.  *Unequal* pods: intra-domain binomial
  reduce to the domain leader → ring allreduce on the leader
  communicator → intra-domain binomial broadcast.  The equal-pod path
  reproduces the PR 2 hand-rolled schedule step for step; the unequal
  path is what the old code refused to run.
* ``allgather`` — intra-domain gather to the leader → ring allgather
  of the (possibly unequal) domain blocks on the leader communicator →
  intra-domain broadcast + local scatter into the per-rank buffers.
* ``alltoall`` — intra-domain gather of per-destination buckets to the
  leader → leader-communicator alltoall of domain super-buckets →
  intra-domain dispersal (uniform block sizes; the selector guards).
"""

from __future__ import annotations

from typing import Dict, List

from ..datatypes import Payload, ReduceOp, payload_array
from ..errors import MpiError
from .allgather import AllgatherRecv, _schedule as _allgather_schedule
from .allreduce import append_ring_allgather, append_ring_reduce_scatter
from .base import sub_tag
from .reduce import OP
from .schedule import Pack, Ref, Schedule, SubSchedule

__all__ = [
    "build_allreduce_hierarchical",
    "build_allgather_hierarchical",
    "build_alltoall_hierarchical",
]


def _hier_setup(ctx):
    """Common preamble: the communicator's sub-communicator bundle."""
    comm = ctx.comm
    groups: List[List[int]] = getattr(comm, "locality_groups", None)
    if not groups or len(groups) < 2:
        raise MpiError(
            "hierarchical collectives need >= 2 locality groups; "
            "use the flat schedules on single-domain communicators"
        )
    return comm.hier_comms(), groups


# ---------------------------------------------------------------------------
# Allreduce
# ---------------------------------------------------------------------------

def build_allreduce_hierarchical(
    ctx,
    sendbuf: Payload,
    recvbuf: Payload,
    op: ReduceOp = ReduceOp.SUM,
    *,
    tag: int,
) -> Schedule:
    """Two-level allreduce over the communicator's locality groups."""
    src = payload_array(sendbuf)
    if src is None:
        raise MpiError("allreduce requires an array payload")
    if payload_array(recvbuf) is None:
        raise MpiError("allreduce requires a recv buffer on every rank")
    sched = Schedule(sendbuf, recvbuf, op)
    out = Ref(1)
    acc = sched.scratch(src.size, src.dtype, init=Ref(0))
    if ctx.size == 1:
        sched.overhead()
        sched.copy(acc, out, after=(sched.last,))
        return sched
    hier, _groups = _hier_setup(ctx)
    if hier.equal_groups:
        deps = _allreduce_equal_pods(sched, ctx, hier, acc, src, tag)
    else:
        deps = _allreduce_unequal_pods(sched, ctx, hier, acc, src, tag)
    sched.copy(acc, out, after=deps)
    return sched


def _allreduce_equal_pods(sched, ctx, hier, acc, src, tag) -> List[int]:
    """Equal pods: intra RS → peer-comm ring allreduce → intra AG.

    Same message sequence as the PR 2 hand-rolled schedule, but every
    phase is the ordinary ring schedule over a sub-communicator.
    """
    intra = hier.intra_ctx(ctx.rank)
    peer = hier.peer_ctx(ctx.rank)
    s = intra.size
    intra_sub = SubSchedule(sched, intra)
    deps: List[int] = []
    itag = sub_tag(tag, 0)
    if s > 1:
        deps = append_ring_reduce_scatter(
            intra_sub, intra, acc, src.size, src.dtype, OP, itag
        )
    # After the reduce-scatter this member owns chunk (m+1) mod s; the
    # peer communicator (member m of every domain) allreduces it.
    n = src.size
    isz = src.itemsize
    bounds = [(c * n) // s for c in range(s + 1)]
    own = (intra.rank + 1) % s if s > 1 else 0
    count = bounds[own + 1] - bounds[own]
    mine = acc.at(bounds[own] * isz, bounds[own + 1] * isz)
    if peer is not None and peer.size > 1:
        peer_sub = SubSchedule(sched, peer)
        ptag = sub_tag(tag, 0)
        rnd = sched.n_rounds
        deps = append_ring_reduce_scatter(
            peer_sub, peer, mine, count, src.dtype, OP, ptag, after=deps,
            round0=rnd,
        )
        deps = append_ring_allgather(
            peer_sub, peer, mine, count, isz, ptag + 4, after=deps,
            round0=sched.n_rounds,
        )
    if s > 1:
        deps = append_ring_allgather(
            intra_sub, intra, acc, n, isz, itag + 4, after=deps,
            round0=sched.n_rounds,
        )
    return deps


def _allreduce_unequal_pods(sched, ctx, hier, acc, src, tag) -> List[int]:
    """Unequal pods: ring allreduce on a locality-reordered comm.

    The peer rings of the equal-pod path need member *i* to exist in
    every domain; with ragged pod sizes the hierarchy is instead
    exploited through *rank reordering*: ``split(color=0, key=domain)``
    yields a communicator whose rank order walks the pods contiguously,
    so every step of the ordinary ring allreduce crosses each domain
    boundary exactly once — G simultaneous crossings, one per uplink,
    each **uncontended** — where the fragmented flat ring crossed the
    loaded bottleneck on every hop.  Works for any pod sizes (including
    singletons); the allreduce result is rank-symmetric, so no data
    reordering is needed.
    """
    rctx = hier.reordered_ctx(ctx.rank)
    sub = SubSchedule(sched, rctx)
    rtag = sub_tag(tag, 0)
    deps = append_ring_reduce_scatter(sub, rctx, acc, src.size, src.dtype,
                                      OP, rtag)
    return append_ring_allgather(
        sub, rctx, acc, src.size, src.itemsize, rtag + 4, after=deps,
        round0=sched.n_rounds,
    )


# ---------------------------------------------------------------------------
# Allgather
# ---------------------------------------------------------------------------

def build_allgather_hierarchical(
    ctx,
    sendbuf: Payload,
    recvbufs: AllgatherRecv,
    *,
    tag: int,
) -> Schedule:
    """Topology-aware allgather: gather → leader ring → broadcast.

    Every rank's block first travels to its domain leader (leaf-switch
    traffic); the leaders then ring-allgather the concatenated domain
    blocks — the only phase crossing the fabric bottleneck, once per
    domain instead of once per rank — and finally fan the full vector
    out inside their domains.  Handles unequal pod sizes and unequal
    block sizes (the vector variant).
    """
    from .bcast import _append_binomial

    if payload_array(sendbuf) is None:
        raise MpiError("hierarchical allgather requires an array payload")
    arrays = [payload_array(b) for b in recvbufs]
    if any(a is None for a in arrays):
        raise MpiError(
            "hierarchical allgather needs a recv buffer for every rank"
        )
    sched, recv_of = _allgather_schedule(sendbuf, recvbufs)
    hier, groups = _hier_setup(ctx)
    intra = hier.intra_ctx(ctx.rank)
    s = intra.size
    G = len(groups)
    gi = hier.dom_of[ctx.rank]

    # Assembly order: domain-major, member-minor (parent-rank order
    # within each group) — offsets are derived per rank, so unequal
    # blocks fall out naturally.
    block_bytes = [a.nbytes for a in arrays]
    offset: Dict[int, int] = {}
    off = 0
    for g in groups:
        for r in g:
            offset[r] = off
            off += block_bytes[r]
    full = sched.scratch(off)
    dom_lo = [offset[g[0]] for g in groups]
    dom_hi = [offset[g[-1]] + block_bytes[g[-1]] for g in groups]

    def block(r: int):
        return full.at(offset[r], offset[r] + block_bytes[r])

    intra_sub = SubSchedule(sched, intra)
    itag = sub_tag(tag, 0)
    deps: List[int] = []
    members = groups[gi]
    if intra.rank == 0:
        # Leader: collect the domain's blocks (own block via memcpy).
        deps = [sched.copy(Ref(0), block(ctx.rank))]
        for m in range(1, s):
            deps.append(intra_sub.recv(block(members[m]), m, itag))
    elif s > 1:
        deps = [intra_sub.send(Ref(0), 0, itag)]

    # Leader ring over the (unequal) domain blocks of ``full``.
    leader = hier.leader_ctx(ctx.rank)
    if leader is not None and leader.size > 1:
        lsub = SubSchedule(sched, leader)
        ltag = sub_tag(tag, 0)
        right = (leader.rank + 1) % G
        left = (leader.rank - 1) % G
        rnd0 = sched.n_rounds
        for step in range(G - 1):
            send_d = (gi - step) % G
            recv_d = (gi - step - 1) % G
            snd = lsub.send(full.at(dom_lo[send_d], dom_hi[send_d]), right,
                            ltag + step % 4, after=deps, round=rnd0 + step)
            rcv = lsub.recv(full.at(dom_lo[recv_d], dom_hi[recv_d]), left,
                            ltag + step % 4, after=deps, round=rnd0 + step)
            deps = [snd, rcv]

    # Intra-domain broadcast of the assembled vector.
    btag = sub_tag(tag, 1)
    if s > 1:
        deps = _append_binomial(
            intra_sub, intra, full, list(range(s)), 0, btag,
            after=deps, round0=sched.n_rounds,
        )
    # Scatter into the per-rank buffers, in assembly order.
    sched.copy(full, Pack(tuple(recv_of(r) for g in groups for r in g)),
               after=deps)
    return sched


# ---------------------------------------------------------------------------
# Alltoall
# ---------------------------------------------------------------------------

def build_alltoall_hierarchical(
    ctx,
    sendbufs,
    recvbufs,
    *,
    tag: int,
) -> Schedule:
    """Topology-aware alltoall: bucket-gather → leader exchange →
    dispersal.

    Members ship their whole per-destination payload to the domain
    leader; leaders exchange per-domain *super-buckets* (all the data
    domain g holds for domain d, in one transfer) so the bottleneck
    sees G−1 large transfers per leader instead of P−1 small ones per
    rank; leaders then deal each member its slice.  Uniform block sizes
    only (as the selector guarantees).
    """
    mine = [payload_array(b) for b in sendbufs]
    outs = [payload_array(b) for b in recvbufs]
    if any(a is None for a in mine) or any(a is None for a in outs):
        raise MpiError(
            "hierarchical alltoall needs array payloads on every rank"
        )
    B = mine[0].nbytes
    if any(a.nbytes != B for a in mine) or any(
        a.nbytes != B for a in outs
    ):
        raise MpiError("hierarchical alltoall needs uniform block sizes")
    sched = Schedule(*sendbufs, *recvbufs)
    hier, groups = _hier_setup(ctx)
    intra = hier.intra_ctx(ctx.rank)
    s = intra.size
    G = len(groups)
    gi = hier.dom_of[ctx.rank]
    sizes = [len(g) for g in groups]
    P = ctx.size

    # Destination order inside every payload: domain-major,
    # member-minor (``dm_order``), so a domain's bucket is contiguous.
    dm_order: List[int] = [r for g in groups for r in g]
    dstart = [0] * (G + 1)
    for d in range(G):
        dstart[d + 1] = dstart[d] + sizes[d] * B
    payload = Pack(tuple(Ref(j) for j in dm_order))
    result = Pack(tuple(Ref(P + j) for j in dm_order))

    intra_sub = SubSchedule(sched, intra)
    itag = sub_tag(tag, 0)
    if intra.rank == 0:
        # Leader: stage[m] = member m's full payload in dm_order.
        stage = [sched.scratch(P * B) for _ in range(s)]
        deps = [sched.copy(payload, stage[0])]
        for m in range(1, s):
            deps.append(intra_sub.recv(stage[m], m, itag))

        # Leader exchange: shift schedule over super-buckets.  The
        # super-bucket for domain d concatenates every local member's
        # bucket for d — packed when its send starts, once phase 1
        # delivered.
        def super_bucket(d: int) -> Pack:
            return Pack(tuple(
                stage[m].at(dstart[d], dstart[d + 1]) for m in range(s)
            ))

        inbuf = [sched.scratch(sizes[d] * s * B) for d in range(G)]
        deps = [sched.copy(super_bucket(gi), inbuf[gi], after=deps)]
        leader = hier.leader_ctx(ctx.rank)
        if leader is not None and leader.size > 1:
            lsub = SubSchedule(sched, leader)
            ltag = sub_tag(tag, 0)
            rnd0 = sched.n_rounds
            for k in range(1, G):
                dst = (gi + k) % G
                src = (gi - k) % G
                snd = lsub.send(
                    super_bucket(dst), dst, ltag + (k - 1) % 4,
                    after=deps, round=rnd0 + k - 1,
                )
                rcv = lsub.recv(inbuf[src], src, ltag + (k - 1) % 4,
                                after=deps, round=rnd0 + k - 1)
                deps = [snd, rcv]

        # Dispersal: member m's result is, per source domain d and
        # source member index q, the m-th block of bucket (q → my
        # domain) inside inbuf[d].
        def member_result(m: int) -> Pack:
            return Pack(tuple(
                inbuf[d].at((q * s + m) * B, (q * s + m + 1) * B)
                for d in range(G) for q in range(sizes[d])
            ))

        dtag = sub_tag(tag, 1)
        rnd = sched.n_rounds
        for m in range(1, s):
            intra_sub.send(member_result(m), m, dtag, after=deps, round=rnd)
        sched.copy(member_result(0), result, after=deps)
    else:
        # Member: ship the payload up, await the dealt result.
        snd = intra_sub.send(payload, 0, itag)
        dtag = sub_tag(tag, 1)
        res = sched.scratch(P * B)
        rcv = intra_sub.recv(res, 0, dtag)
        sched.copy(res, result, after=(snd, rcv))
    return sched
