"""Closure-free schedules and plan hits that never build.

Schedules are plain data: every buffer is a slot reference and every
compute an op tuple, so a fast-path plan hit binds the user buffers to
the plan's slots and replays its data program without calling the
schedule builder.  Also: the channel accounting the analytic pricer
books equals what one exact transfer moves, on every topology.
"""

import numpy as np
import pytest

from repro.hw import TopologySpec, build_cluster, paper_cluster
from repro.hw.params import IbParams
from repro.hw.topology import make_topology
from repro.mpi import CollectiveTuning, MpiError, MpiJob, block_placement
from repro.mpi import collectives
from repro.mpi.algorithms.selector import SCHEDULES
from repro.sim import Simulator

P = 4


def _job(backend, tuning=None, n_ranks=P):
    sim = Simulator()
    cluster = build_cluster(sim, paper_cluster(nodes=n_ranks,
                                               gpus_per_node=0))
    return sim, MpiJob(cluster, block_placement(n_ranks, n_ranks),
                       tuning=tuning, backend=backend)


def _call(ctx, op):
    """One call of ``op`` (nonblocking ones waited at once) with
    buffers of a fixed shape."""
    r, size = ctx.rank, ctx.size
    send = np.arange(16, dtype=np.float64) + r
    if op.endswith("barrier"):
        args = ()
    elif op.endswith("bcast"):
        args = (send.copy(),)
    elif op.endswith("allreduce"):
        args = (send, np.zeros(16))
    elif op.endswith("reduce"):
        args = (send, np.zeros(16))
    elif op.endswith("allgather"):
        args = (send, np.zeros((size, 16)))
    else:  # alltoall
        args = ([send + j for j in range(size)],
                [np.zeros(16) for _ in range(size)])
    if op.startswith("i"):
        yield from getattr(ctx, op)(*args).wait()
    else:
        yield from getattr(ctx, op)(*args)


def _counting_builders(monkeypatch, built):
    """Wrap every schedule builder so each call is counted and its
    schedule kept in ``built``."""

    def wrap(builder):
        def counted(*args, **kwargs):
            sched = builder(*args, **kwargs)
            built.append(sched)
            return sched
        return counted

    for menu in SCHEDULES.values():
        for algo, builder in list(menu.items()):
            monkeypatch.setitem(menu, algo, wrap(builder))
    monkeypatch.setattr(
        collectives, "build_barrier_dissemination",
        wrap(collectives.build_barrier_dissemination),
    )


OPS = ["barrier", "ibarrier", "bcast", "ibcast", "reduce", "ireduce",
       "allreduce", "iallreduce", "allgather", "iallgather", "alltoall",
       "ialltoall"]


@pytest.mark.parametrize("backend", ["analytic", "pricing"])
@pytest.mark.parametrize("op", OPS)
def test_plan_hit_calls_no_builder(monkeypatch, op, backend):
    """Three same-shape calls under a changing skew: every rank builds
    its schedule once (the compile); the two hits build nothing."""
    built = []
    _counting_builders(monkeypatch, built)
    sim, job = _job(backend)

    def prog(ctx):
        for k in range(3):
            yield ctx.sim.timeout(((ctx.rank + k) % 3) * 1e-6)
            yield from _call(ctx, op)

    job.start(prog)
    job.run()
    assert sim.stats.fastpath_sched_cache_hits == 2
    assert len(built) == P


def _callable_fields(sched):
    """Names of the step fields holding a callable, at any depth of
    the tuples a step stores."""

    def has_callable(v):
        if isinstance(v, (tuple, list)):
            return any(has_callable(x) for x in v)
        return callable(v)

    bad = set()
    for st in sched.steps:
        names = getattr(type(st), "__slots__", None) or vars(st)
        bad.update(n for n in names if has_callable(getattr(st, n)))
    return bad


@pytest.mark.parametrize("coll,algo", [
    (coll, algo) for coll, menu in SCHEDULES.items() for algo in menu
])
def test_dispatched_schedules_hold_no_callables(monkeypatch, coll, algo):
    """Every algorithm's schedule, as the dispatch layer builds it, is
    plain data: no step field is callable."""
    built = []
    _counting_builders(monkeypatch, built)
    tuning = CollectiveTuning(**{f"force_{coll}": algo})
    sim, job = _job("exact", tuning=tuning, n_ranks=6 if algo ==
                    "hierarchical" else P)
    job.start(lambda ctx: _call(ctx, coll))
    job.run()
    assert built
    assert all(_callable_fields(s) == set() for s in built)


def test_hit_with_mismatched_buffers_raises():
    """A hit whose bound buffers disagree in size with the plan's slot
    signatures fails loudly instead of replaying the wrong program."""

    def prog(ctx):
        yield from ctx.allreduce(np.ones(8), np.zeros(8))
        (key,) = ctx.comm.engine._plans
        yield from ctx.comm.engine.execute(
            ctx, lambda: None, key, (np.ones(16), np.zeros(16)), 128
        )

    sim, job = _job("analytic")
    job.start(prog)
    with pytest.raises(MpiError, match="compiled for buffers"):
        job.run()


@pytest.mark.parametrize("backend", ["analytic", "pricing"])
def test_hit_binds_send_buffer_at_issue(backend):
    """A nonblocking hit takes its scratch copy of the send buffer at
    issue, like a build does: a late write to the send buffer (before
    the last rank arrives) does not leak into the result."""

    def prog(ctx, out):
        for k in range(2):
            send = np.full(8, float(ctx.rank + 1))
            recv = np.zeros(8)
            req = ctx.iallreduce(send, recv)
            send[:] = -1.0
            yield ctx.sim.timeout(ctx.rank * 1e-6)
            yield from req.wait()
            out.append(recv.copy())

    out = []
    sim, job = _job(backend)
    job.start(lambda ctx: prog(ctx, out))
    job.run()
    assert sim.stats.fastpath_sched_cache_hits == 1
    if backend == "analytic":
        assert all(np.array_equal(v, np.full(8, 10.0)) for v in out)


def test_ragged_alltoall_after_uniform_plan():
    """Keys may differ between ranks: after a uniform alltoall compiled
    its plan, a ragged one whose rank 0 still has uniform blocks (its
    own key hits) while ranks 1 and 2 trade larger blocks is built,
    compiled and priced, not bound to the uniform plan."""
    n_ranks = 3
    tuning = CollectiveTuning(force_alltoall="shift")
    sim, job = _job("analytic", tuning=tuning, n_ranks=n_ranks)
    out = {}

    def count(r, j):
        return 8 if {r, j} == {1, 2} else 4

    def prog(ctx):
        r = ctx.rank
        for ragged in (False, True):
            size = count if ragged else (lambda a, b: 4)
            send = [np.full(size(r, j), 10.0 * r + j) for j in range(n_ranks)]
            recv = [np.zeros(size(j, r)) for j in range(n_ranks)]
            # Rank 0 issues first, so it looks its key up first.
            yield ctx.sim.timeout(r * 1e-6)
            yield from ctx.alltoall(send, recv)
        out[r] = recv

    job.start(prog)
    job.run()
    for r in range(n_ranks):
        for j in range(n_ranks):
            assert np.array_equal(out[r][j], np.full(count(j, r),
                                                     10.0 * j + r))
    assert sim.stats.fastpath_sched_cache_hits == 0
    assert len(job.comm.engine._plans) == 1


@pytest.mark.parametrize("backend", ["analytic", "pricing"])
def test_allgather_with_per_rank_receive_layouts(backend):
    """Ranks may pass different receive layouts to one allgather: rank
    0 a ``(P, n)`` array (its key hits the plan the first call
    compiled), the others ``P`` separate arrays (their keys miss)."""
    sim, job = _job(backend)
    out = {}

    def prog(ctx):
        r = ctx.rank
        send = np.arange(16, dtype=np.float64) + 100 * r
        yield from ctx.allgather(send, np.zeros((P, 16)))
        recv = (np.zeros((P, 16)) if r == 0
                else [np.zeros(16) for _ in range(P)])
        yield ctx.sim.timeout(r * 1e-6)
        yield from ctx.allgather(send, recv)
        out[r] = recv

    job.start(prog)
    job.run()
    assert sim.stats.fastpath_sched_cache_hits == 0
    if backend == "analytic":
        want = [np.arange(16, dtype=np.float64) + 100 * j for j in range(P)]
        for r in range(P):
            assert all(np.array_equal(out[r][j], want[j]) for j in range(P))


def test_rank_that_built_before_the_plan_existed_joins_the_hit():
    """Rank 0 issues two same-shape iallreduces before the first one
    completes, so it builds both; the last rank issues the second after
    the first compiled its plan, and hits it.  The second instance then
    hits with a mix of built and bound ranks, and its data is exact."""
    sim, job = _job("analytic")
    out = {}

    def prog(ctx):
        r = ctx.rank
        if r:
            yield ctx.sim.timeout(r * 1e-6)
        recvs = [np.zeros(8), np.zeros(8)]
        reqs = []
        for k, recv in enumerate(recvs):
            if r == P - 1 and k:
                yield from reqs[0].wait()
            reqs.append(ctx.iallreduce(np.full(8, float(r + k)), recv))
        for req in reqs:
            yield from req.wait()
        out[r] = recvs

    job.start(prog)
    job.run()
    assert sim.stats.fastpath_sched_cache_hits == 1
    total = sum(range(P))
    for r in range(P):
        assert np.array_equal(out[r][0], np.full(8, float(total)))
        assert np.array_equal(out[r][1], np.full(8, float(total + P)))


@pytest.mark.parametrize("coll", ["allreduce", "reduce"])
def test_one_plan_serves_every_reduce_op(coll):
    """The reduce op is bound per instance, not part of the key: SUM,
    MAX and SUM again on one shape compile one plan, and each result is
    the op's own."""
    from repro.mpi import ReduceOp

    sim, job = _job("analytic")
    out = {}
    ops = [ReduceOp.SUM, ReduceOp.MAX, ReduceOp.SUM]

    def prog(ctx):
        res = []
        for op in ops:
            recv = np.zeros(16)
            send = np.arange(16, dtype=np.float64) * (ctx.rank + 1)
            yield from getattr(ctx, coll)(send, recv, op=op)
            res.append(recv)
        out[ctx.rank] = res

    job.start(prog)
    job.run()
    assert sim.stats.fastpath_sched_cache_hits == 2
    assert len(job.comm.engine._plans) == 1
    base = np.arange(16, dtype=np.float64)
    want = [base * sum(range(1, P + 1)), base * P, base * sum(range(1, P + 1))]
    for r in range(P) if coll == "allreduce" else (0,):
        assert all(np.array_equal(a, b) for a, b in zip(out[r], want))


# ---------------------------------------------------------------------------
# Channel accounting parity
# ---------------------------------------------------------------------------

TOPOLOGIES = {
    "flat": TopologySpec(kind="flat"),
    "fattree": TopologySpec(kind="fattree", pod_size=4),
    "multirail": TopologySpec(kind="multirail", rails=3),
    "torus2d": TopologySpec(kind="torus2d"),
}


def _channel_books(topo):
    return [(ch.name, ch.bytes_moved, ch.busy_s) for ch in topo.channels()]


@pytest.mark.parametrize("kind", sorted(TOPOLOGIES))
@pytest.mark.parametrize("src,dst,nbytes", [
    (0, 5, 10_000), (0, 5, 1), (0, 5, 0), (2, 2, 4096),
])
def test_account_books_what_one_transfer_moves(kind, src, dst, nbytes):
    """``Topology.account`` (the analytic pricer's booking) charges
    every channel exactly the bytes and busy seconds one exact
    ``transfer`` of the same message does."""
    exact_sim, booked_sim = Simulator(), Simulator()
    exact = make_topology(exact_sim, 8, IbParams(), TOPOLOGIES[kind])
    booked = make_topology(booked_sim, 8, IbParams(), TOPOLOGIES[kind])

    def one():
        yield from exact.transfer(src, dst, nbytes)

    exact_sim.process(one())
    exact_sim.run()
    booked.account(src, dst, nbytes)
    assert _channel_books(booked) == _channel_books(exact)
