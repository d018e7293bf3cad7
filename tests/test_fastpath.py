"""Analytic fast-path backend: cross-checks against the exact simulator.

Property tests for :mod:`repro.mpi.algorithms.fastpath` at P ≤ 16:
identical algorithm selection, completion times within tolerance,
delivered data bit-identical, plus the pricing-only sweep mode and the
observability counters the backend feeds.
"""

import numpy as np
import pytest

from repro.hw import build_cluster, paper_cluster
from repro.mpi import (
    CollectiveTuning,
    MpiError,
    MpiJob,
    ReduceOp,
    block_placement,
)
from repro.sim import Simulator

KB = 1024
MB = 1024 * 1024

#: Analytic vs exact simulated-time tolerance.  Power-of-two grids
#: agree to float precision; the per-step critical-path model follows
#: dependency skew exactly, so the residual error is channel
#: *contention* — concurrent transfers sharing a NIC or spine link
#: serialize in the exact engine but never in the analytic one.
TOL = 0.08

COLLECTIVES = ["allreduce", "allgather", "alltoall", "bcast", "reduce",
               "barrier"]


def run_job(n_ranks, prog_factory, backend, tuning=None):
    """Build a 1-rank-per-node job, run ``prog_factory(rank)`` on every
    rank; returns (sim, job, per-rank result dict)."""
    sim = Simulator()
    cluster = build_cluster(
        sim, paper_cluster(nodes=n_ranks, gpus_per_node=0)
    )
    job = MpiJob(
        cluster, block_placement(n_ranks, n_ranks), tuning=tuning,
        backend=backend,
    )
    out = {}
    job.start(prog_factory(out))
    job.run()
    return sim, job, out


def collective_prog(op, n_ranks, nbytes, seed=7):
    """A program factory: deterministic per-rank payloads, results
    captured into the shared ``out`` dict."""

    def factory(out):
        def prog(ctx):
            r = ctx.rank
            rng = np.random.default_rng(seed + r)
            if op == "allreduce":
                send = rng.integers(0, 200, nbytes, dtype=np.uint8)
                recv = np.zeros(nbytes, dtype=np.uint8)
                yield from ctx.allreduce(send, recv, op=ReduceOp.SUM)
                out[r] = recv
            elif op == "allgather":
                send = rng.integers(0, 255, nbytes, dtype=np.uint8)
                recvbufs = [
                    np.zeros(nbytes, dtype=np.uint8)
                    for _ in range(n_ranks)
                ]
                yield from ctx.allgather(send, recvbufs)
                out[r] = np.concatenate(recvbufs)
            elif op == "alltoall":
                sendbufs = [
                    rng.integers(0, 255, nbytes, dtype=np.uint8)
                    for _ in range(n_ranks)
                ]
                recvbufs = [
                    np.zeros(nbytes, dtype=np.uint8)
                    for _ in range(n_ranks)
                ]
                yield from ctx.alltoall(sendbufs, recvbufs)
                out[r] = np.concatenate(recvbufs)
            elif op == "bcast":
                buf = (
                    rng.integers(0, 255, nbytes, dtype=np.uint8)
                    if r == 0 else np.zeros(nbytes, dtype=np.uint8)
                )
                yield from ctx.bcast(buf, root=0)
                out[r] = buf
            elif op == "reduce":
                send = rng.integers(0, 200, nbytes, dtype=np.uint8)
                recv = np.zeros(nbytes, dtype=np.uint8)
                yield from ctx.reduce(send, recv, op=ReduceOp.MAX, root=0)
                out[r] = recv if r == 0 else send
            elif op == "barrier":
                yield from ctx.barrier()
                out[r] = np.zeros(1, dtype=np.uint8)
            else:  # pragma: no cover - defensive
                raise ValueError(op)

        return prog

    return factory


def algo_keys(job):
    """The collective-algorithm counters the selector bumped."""
    return sorted(k for k in job.comm.stats if "[" in k)


# ---------------------------------------------------------------------------
# Cross-check: exact vs analytic
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("op", COLLECTIVES)
@pytest.mark.parametrize("n_ranks", [4, 5, 8, 13, 16])
def test_analytic_matches_exact(op, n_ranks):
    """Same algorithms, same data, times within tolerance."""
    for nbytes in (1 * KB, 64 * KB):
        sim_e, job_e, out_e = run_job(
            n_ranks, collective_prog(op, n_ranks, nbytes), "exact"
        )
        sim_a, job_a, out_a = run_job(
            n_ranks, collective_prog(op, n_ranks, nbytes), "analytic"
        )
        assert algo_keys(job_a) == algo_keys(job_e)
        # The per-step critical-path model overlaps rounds exactly as
        # the exact engine's spawned wire processes do, so even the
        # non-power-of-two binomial trees (straggler subtrees firing
        # early) price within the uniform tolerance — no special case.
        assert sim_a.now == pytest.approx(sim_e.now, rel=TOL)
        for r in range(n_ranks):
            np.testing.assert_array_equal(out_a[r], out_e[r])


@pytest.mark.parametrize("n_ranks", [4, 8])
def test_analytic_exact_on_pof2(n_ranks):
    """Power-of-two grids have no fold skew: times match to float
    precision, not just tolerance."""
    for op in ("allreduce", "allgather", "alltoall"):
        sim_e, _, _ = run_job(
            n_ranks, collective_prog(op, n_ranks, 4 * KB), "exact"
        )
        sim_a, _, _ = run_job(
            n_ranks, collective_prog(op, n_ranks, 4 * KB), "analytic"
        )
        assert sim_a.now == pytest.approx(sim_e.now, rel=1e-12)


def test_large_message_rendezvous_agrees():
    """≥ eager-threshold payloads exercise the rendezvous pricing."""
    sim_e, _, out_e = run_job(
        8, collective_prog("allreduce", 8, 1 * MB), "exact"
    )
    sim_a, _, out_a = run_job(
        8, collective_prog("allreduce", 8, 1 * MB), "analytic"
    )
    assert sim_a.now == pytest.approx(sim_e.now, rel=TOL)
    np.testing.assert_array_equal(out_a[0], out_e[0])


@pytest.mark.parametrize("force", ["ring", "recursive_doubling",
                                   "reduce_bcast"])
def test_forced_algorithms_agree(force):
    """Every allreduce algorithm family prices within tolerance."""
    tuning = CollectiveTuning(force_allreduce=force)
    for n_ranks in (6, 8):
        sim_e, _, out_e = run_job(
            n_ranks, collective_prog("allreduce", n_ranks, 16 * KB),
            "exact", tuning=tuning,
        )
        sim_a, _, out_a = run_job(
            n_ranks, collective_prog("allreduce", n_ranks, 16 * KB),
            "analytic", tuning=tuning,
        )
        # Composed reduce+bcast schedules overlap their tree rounds in
        # both engines now — uniform tolerance, no straggler carve-out.
        assert sim_a.now == pytest.approx(sim_e.now, rel=TOL)
        for r in range(n_ranks):
            np.testing.assert_array_equal(out_a[r], out_e[r])


# ---------------------------------------------------------------------------
# Mixed blocking / nonblocking and sub-communicators
# ---------------------------------------------------------------------------

def mixed_prog(n_ranks, nbytes):
    def factory(out):
        def prog(ctx):
            r = ctx.rank
            a = np.full(nbytes, r + 1, dtype=np.uint8)
            b = np.zeros(nbytes, dtype=np.uint8)
            req = ctx.iallreduce(a, b, op=ReduceOp.MAX)
            c = np.full(nbytes, r + 10, dtype=np.uint8)
            d = np.zeros(nbytes, dtype=np.uint8)
            yield from ctx.allreduce(c, d, op=ReduceOp.SUM)
            yield from req.wait()
            out[r] = np.concatenate([b, d])
        return prog
    return factory


@pytest.mark.parametrize("n_ranks", [4, 6])
def test_mixed_blocking_nonblocking(n_ranks):
    """An i-collective in flight across a blocking one: the issue-order
    instance claims keep the two backends aligned."""
    _, _, out_e = run_job(n_ranks, mixed_prog(n_ranks, 2 * KB), "exact")
    _, _, out_a = run_job(n_ranks, mixed_prog(n_ranks, 2 * KB), "analytic")
    for r in range(n_ranks):
        np.testing.assert_array_equal(out_a[r], out_e[r])


def split_prog(n_ranks, nbytes):
    def factory(out):
        def prog(ctx):
            r = ctx.rank
            sub = yield from ctx.split(color=r % 2, key=r)
            send = np.full(nbytes, r + 1, dtype=np.uint8)
            recv = np.zeros(nbytes, dtype=np.uint8)
            yield from sub.allreduce(send, recv, op=ReduceOp.SUM)
            out[r] = recv.copy()
            yield from sub.free()
        return prog
    return factory


@pytest.mark.parametrize("n_ranks", [4, 8])
def test_subcommunicator_collectives(n_ranks):
    """Derived communicators inherit the backend; data matches exact."""
    _, job_e, out_e = run_job(n_ranks, split_prog(n_ranks, 4 * KB), "exact")
    _, job_a, out_a = run_job(
        n_ranks, split_prog(n_ranks, 4 * KB), "analytic"
    )
    for r in range(n_ranks):
        np.testing.assert_array_equal(out_a[r], out_e[r])


# ---------------------------------------------------------------------------
# Pricing-only mode
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("op", ["allreduce", "allgather", "alltoall",
                                "bcast"])
def test_pricing_time_bit_identical_to_analytic(op):
    for n_ranks in (5, 8):
        sim_a, _, _ = run_job(
            n_ranks, collective_prog(op, n_ranks, 8 * KB), "analytic"
        )
        sim_p, _, _ = run_job(
            n_ranks, collective_prog(op, n_ranks, 8 * KB), "pricing"
        )
        assert sim_p.now == sim_a.now


def test_pricing_leaves_buffers_untouched():
    """Sweep mode never writes receive buffers (documented contract)."""
    def factory(out):
        def prog(ctx):
            send = np.full(1024, ctx.rank + 1, dtype=np.uint8)
            recv = np.zeros(1024, dtype=np.uint8)
            yield from ctx.allreduce(send, recv, op=ReduceOp.SUM)
            out[ctx.rank] = recv
        return prog
    _, _, out = run_job(4, factory, "pricing")
    for r in range(4):
        assert not out[r].any()


def test_unknown_backend_rejected():
    sim = Simulator()
    cluster = build_cluster(sim, paper_cluster(nodes=2, gpus_per_node=0))
    with pytest.raises(MpiError, match="backend"):
        MpiJob(cluster, block_placement(2, 2), backend="magic")


# ---------------------------------------------------------------------------
# Observability counters
# ---------------------------------------------------------------------------

def test_fastpath_stats_counters():
    """fastpath_collectives/rounds tick; completions go through one
    EventBatch (heap traffic stays tiny); zero-copy deliveries are
    counted as views."""
    sim, job, _ = run_job(
        8, collective_prog("allreduce", 8, 4 * KB), "analytic"
    )
    s = sim.stats
    assert s.fastpath_collectives == 1
    assert s.fastpath_rounds >= 1
    assert s.batch_events >= 8  # one completion per rank, batched
    assert s.payload_views > 0
    d = s.as_dict()
    assert d["fastpath_collectives"] == 1


def test_exact_backend_never_ticks_fastpath_counters():
    sim, _, _ = run_job(
        8, collective_prog("allreduce", 8, 4 * KB), "exact"
    )
    assert sim.stats.fastpath_collectives == 0
    assert sim.stats.batch_events == 0


def test_double_deposit_detected():
    """Two collectives issued concurrently by the same rank into one
    instance slot is a programming error the engine reports."""
    from repro.mpi.algorithms.fastpath import _Instance

    inst = _Instance(2)
    inst.deposit(0, None, object(), None)
    with pytest.raises(MpiError, match="deposited twice"):
        inst.deposit(0, None, object(), None)


class _NeverHit(dict):
    """A plan cache that stores but never serves: every collective
    compiles cold."""

    def get(self, key, default=None):
        return default


def _hot_and_cold(n_ranks, prog, tuning=None, traced=False):
    """Run ``prog(ctx, ends)`` with plans served, then with every
    collective compiled cold; returns ``(job, ends, recorder)`` for
    both."""
    runs = []
    for cold in (False, True):
        sim = Simulator()
        cluster = build_cluster(
            sim, paper_cluster(nodes=n_ranks, gpus_per_node=0)
        )
        rec = sim.attach_spans() if traced else None
        job = MpiJob(
            cluster, block_placement(n_ranks, n_ranks), tuning=tuning,
            backend="analytic",
        )
        if cold:
            job.comm.engine._plans = _NeverHit()
        ends = []
        job.start(lambda ctx: prog(ctx, ends))
        job.run()
        runs.append((job, ends, rec))
    return runs


def _span_tree(rec):
    """Span structure (name, category, track, parent position, attrs)
    and the flat list of span start/end times."""
    spans = list(rec.spans)
    pos = {s.sid: i for i, s in enumerate(spans)}
    shape = [
        (s.name, s.category, s.track, pos.get(s.parent), s.attrs)
        for s in spans
    ]
    times = [t for s in spans for t in (s.t0, s.t1)]
    return shape, times


def test_traced_plan_hit_matches_cold_compile():
    """A traced plan hit emits exactly the span tree a traced cold
    compile of the same collective records: same names, tracks,
    parent links and attributes, and bit-identical times.  Barriers (a
    deferred data-free DAG) and row allgathers (a data-carrying one)
    repeat under a changing arrival skew."""

    def prog(ctx, ends):
        for k in range(4):
            yield ctx.sim.timeout(((3 * ctx.rank + k) % ctx.size) * 1e-6)
            yield from ctx.barrier()
            recv = np.zeros((ctx.size, 4))
            yield from ctx.allgather(np.full(4, float(ctx.rank)), recv)
            ends.append(ctx.sim.now)

    (hot, ends_hot, rec_hot), (cold, ends_cold, rec_cold) = _hot_and_cold(
        8, prog, traced=True
    )
    assert hot.sim.stats.fastpath_sched_cache_hits == 6
    assert cold.sim.stats.fastpath_sched_cache_hits == 0
    assert rec_hot.count("round") > 0
    shape_hot, times_hot = _span_tree(rec_hot)
    shape_cold, times_cold = _span_tree(rec_cold)
    assert shape_hot == shape_cold
    assert times_hot == times_cold
    assert ends_hot == ends_cold


def _plan_keys(n_ranks, prog):
    sim, job, _ = run_job(n_ranks, lambda out: prog, "analytic")
    return sim, list(job.comm.engine._plans)


def test_plan_key_separates_roots():
    """Same op, size and algorithm, different root: two plans."""

    def prog(ctx):
        for root in (0, 3, 0, 3):
            yield from ctx.bcast(np.zeros(64), root=root)

    sim, keys = _plan_keys(6, prog)
    assert len(keys) == 2
    assert {k[2] for k in keys} == {0, 3}
    assert sim.stats.fastpath_sched_cache_hits == 2


def test_plan_key_separates_vector_sizes():
    """Allgatherv with different per-rank block sizes: two plans, and
    the repeat prices exactly like a cold compile."""

    def prog(ctx, ends):
        for sizes in ((1, 2, 3, 4), (4, 3, 2, 1), (1, 2, 3, 4)):
            recv = [np.zeros(1024 * n) for n in sizes]
            yield from ctx.allgather(np.ones(1024 * sizes[ctx.rank]), recv)
            ends.append(ctx.sim.now)

    (hot, ends_hot, _), (_, ends_cold, _) = _hot_and_cold(4, prog)
    assert len(hot.comm.engine._plans) == 2
    assert hot.sim.stats.fastpath_sched_cache_hits == 1
    assert ends_hot == ends_cold


def test_plan_hits_through_subcommunicators():
    """Hierarchical schedules route steps ``via`` sub-communicator
    contexts; their plans must price repeats exactly like a cold
    compile, under a changing arrival skew."""
    tuning = CollectiveTuning(
        force_allreduce="hierarchical", force_allgather="hierarchical"
    )

    def prog(ctx, ends):
        for k in range(3):
            yield ctx.sim.timeout(((ctx.rank + k) % 3) * 1e-6)
            yield from ctx.allreduce(np.ones(300), np.zeros(300))
            recv = np.zeros((ctx.size, 40))
            yield from ctx.allgather(np.ones(40), recv)
            ends.append(ctx.sim.now)

    (hot, ends_hot, _), (_, ends_cold, _) = _hot_and_cold(6, prog, tuning)
    assert hot.comm.stats.get("allreduce[hierarchical]") == 18
    assert hot.sim.stats.fastpath_sched_cache_hits == 4
    assert ends_hot == ends_cold


def test_plan_hit_with_different_dag_raises():
    """A shape key that misses a structural input must fail loudly: a
    hit whose per-rank step counts disagree with the plan raises."""
    from repro.mpi.algorithms import schedule

    def prog(ctx):
        yield from ctx.allreduce(np.ones(8), np.zeros(8))
        # Same key as the allreduce just compiled, but a 2-step DAG.
        sched = schedule.Schedule()
        sched.overhead()
        sched.overhead(after=(0,))
        sched.shape = next(iter(ctx.comm.engine._plans))
        yield from ctx.comm.engine.execute(ctx, sched)

    with pytest.raises(MpiError, match="steps on rank"):
        run_job(4, lambda out: prog, "analytic")
