"""Columnar schedules and array-compiled fast-path plans.

A :class:`~repro.mpi.algorithms.schedule.Schedule` stores its steps as
columns, and the fast path compiles all ranks' columns with array
operations (pairing by lexsort, a Kahn level order, interned legs).
These tests pin what that must keep: a deadlocked DAG is reported with
per-rank pending counts, plans keep columns rather than step objects,
a plan does not depend on object addresses, and the level-ordered data
program snapshots a send whose receive is posted later, as the exact
matcher does.
"""

import numpy as np
import pytest

from repro.hw import TopologySpec, build_cluster, paper_cluster
from repro.mpi import CollectiveTuning, MpiError, MpiJob, block_placement
from repro.mpi.algorithms.schedule import Ref, Schedule, _Step
from repro.sim import DeadlockError, Simulator

#: Doubles per buffer: 32 KB, above the 16 KB eager threshold.
RNDV = 4096


def _run(n_ranks, prog, backend, topology=None, placement=None,
         tuning=None):
    sim = Simulator()
    cluster = build_cluster(sim, paper_cluster(
        nodes=n_ranks if placement is None else max(placement) + 1,
        gpus_per_node=0, topology=topology,
    ))
    job = MpiJob(
        cluster,
        block_placement(n_ranks, n_ranks) if placement is None
        else placement,
        tuning=tuning, backend=backend,
    )
    job.start(prog)
    job.run()
    return sim, job


def _execute(ctx, sched):
    """Run a hand-built schedule as the dispatch layer would (unkeyed:
    never kept as a plan)."""
    return ctx.comm.engine.execute(ctx, lambda: sched, None, sched.user)


def _recv_then_send(ctx):
    """Each rank posts a receive before its rendezvous-sized send to
    the other, which waits for the receive: a deadlock.  An unrelated
    overhead step completes."""
    peer = 1 - ctx.rank
    sched = Schedule(np.zeros(RNDV), np.ones(RNDV))
    sched.overhead()
    r = sched.recv(Ref(0), peer, 7)
    sched.send(Ref(1), peer, 7, after=(r,))
    yield from _execute(ctx, sched)


@pytest.mark.parametrize("backend", ["analytic", "pricing"])
def test_receive_before_rendezvous_send_stalls(backend):
    """No frontier reaches the four wire steps: they are reported per
    rank, the completed overheads are not."""
    with pytest.raises(MpiError) as err:
        _run(2, _recv_then_send, backend)
    msg = str(err.value)
    assert "fast-path schedule stalled" in msg
    assert "pending steps per rank: {0: 2, 1: 2}" in msg


def test_receive_before_rendezvous_send_deadlocks_exact():
    with pytest.raises(DeadlockError):
        _run(2, _recv_then_send, "exact")


def test_steps_are_read_only_records_of_the_columns():
    sched = Schedule(np.zeros(4), np.zeros(4))
    s = sched.send(Ref(0), 1, 9, round=0)
    r = sched.recv(Ref(1), 1, 9, round=0)
    sched.copy(Ref(1), Ref(0), after=(s, r), round=1)
    steps = sched.steps
    assert [st.kind for st in steps] == ["send", "recv", "compute"]
    assert steps[2].deps == (0, 1) and steps[2].round == 1
    assert steps[0].buf == Ref(0) and steps[0].peer == 1
    assert sched.kind == [0, 1, 2] and sched.size == [32, 0, 0]
    assert all(isinstance(st, _Step) for st in steps)
    with pytest.raises(AttributeError):
        steps[0].peer = 3


def _ring_allgather(ctx):
    n = 64
    recv = np.zeros((ctx.size, n))
    yield from ctx.allgather(np.full(n, float(ctx.rank)), recv)
    assert np.array_equal(recv[:, 0], np.arange(ctx.size))


def test_plan_keeps_columns_not_step_objects():
    """A data-carrying plan replays from per-slot arrays and a table of
    distinct buffers and ops, never from per-step records."""
    P = 12
    sim, job = _run(P, _ring_allgather, "analytic",
                    tuning=CollectiveTuning(force_allgather="ring"))
    (plan,) = job.comm.engine._plans.values()
    n = plan.offsets[-1]
    assert n == P * (2 * (P - 1) + 1)
    for col in (plan.ref_of, plan.flags, plan.rank_of, plan.pair,
                plan.rounds):
        assert isinstance(col, np.ndarray) and len(col) == n
    assert isinstance(plan.data_ops, bytes)
    assert isinstance(plan.data_slots, np.ndarray)
    assert len(plan.data_ops) == len(plan.data_slots)
    # Block regions repeat across ranks: far fewer distinct refs than
    # steps.
    assert len(plan.refs) < n // 4
    for value in vars(plan).values():
        items = value if isinstance(value, (list, tuple)) else (value,)
        assert not any(isinstance(x, _Step) for x in items)


def _hier_allreduce(ctx):
    yield from ctx.allreduce(np.ones(300), np.zeros(300))


def test_plan_is_independent_of_object_addresses():
    """Hierarchical schedules run on derived communicators, numbered in
    order of first appearance: two fresh jobs compile the same plan."""
    tuning = CollectiveTuning(force_allreduce="hierarchical")
    topo = TopologySpec(kind="fattree", pod_size=4, oversubscription=4.0)
    placement = [(r % 2) * 4 + r // 2 for r in range(8)]
    plans = []
    for _ in range(2):
        sim, job = _run(8, _hier_allreduce, "analytic", topology=topo,
                        placement=placement, tuning=tuning)
        (plan,) = job.comm.engine._plans.values()
        plans.append(plan)
    a, b = plans
    assert a.code == b.code
    assert a.legs == b.legs
    assert a.data_ops == b.data_ops
    assert np.array_equal(a.data_slots, b.data_slots)
    assert np.array_equal(a.pair, b.pair)


def _late_receive(out):
    """Rank 0 sends its buffer eagerly, then overwrites it; rank 1
    posts its receive only after a software-overhead step."""

    def prog(ctx):
        buf = np.full(8, 1.0 + ctx.rank)
        later = np.full(8, -5.0)
        sched = Schedule(buf, later)
        if ctx.rank == 0:
            s = sched.send(Ref(0), 1, 3)
            sched.copy(Ref(1), Ref(0), after=(s,))
        else:
            o = sched.overhead()
            sched.recv(Ref(0), 0, 3, after=(o,))
        yield from _execute(ctx, sched)
        out[ctx.rank] = (buf.copy(), ctx.sim.now)

    return prog


def test_late_receive_gets_the_snapshot_taken_at_send():
    """The receive is posted at a later level than its send: the send
    is snapshotted before the sender's next compute rewrites the
    buffer, exactly as the exact matcher copies it at injection."""
    got = {}
    for backend in ("exact", "analytic"):
        out = {}
        sim, _ = _run(2, _late_receive(out), backend)
        got[backend] = out
        assert np.array_equal(out[1][0], np.full(8, 1.0))
        assert np.array_equal(out[0][0], np.full(8, -5.0))
    stats_copies = sim.stats.payload_copies
    assert stats_copies == 1
    assert got["analytic"][1][1] == pytest.approx(got["exact"][1][1],
                                                  rel=0.08)
