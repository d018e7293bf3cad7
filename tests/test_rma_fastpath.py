"""Analytic RMA fast path: cross-checks against the exact simulator.

Property tests at P ≤ 16 for every synchronization mode — fence, PSCW,
passive target — plus the DCGN GPU-driven Jacobi: identical delivered
data, epoch times within tolerance, pricing bit-identical to analytic,
and the counters the pricer feeds.
"""

import numpy as np
import pytest

from repro.apps.jacobi import JacobiConfig, run_dcgn, run_mpi
from repro.hw import build_cluster, paper_cluster
from repro.mpi import MpiJob, block_placement
from repro.mpi.errors import RmaError
from repro.sim import Simulator

#: Analytic vs exact epoch-time tolerance.  The per-node cursors
#: reproduce the exact injection/staging serialization; the residual
#: error is response-leg queueing (CTS and get returns crossing other
#: traffic), which the pricer deliberately ignores.
TOL = 0.08


def run_job(n_ranks, prog_factory, backend):
    sim = Simulator()
    cluster = build_cluster(
        sim, paper_cluster(nodes=n_ranks, gpus_per_node=0)
    )
    job = MpiJob(cluster, block_placement(n_ranks, n_ranks), backend=backend)
    out = {}
    job.start(prog_factory(out))
    job.run()
    return sim, job, out


def fence_prog(n_ranks, count):
    """Ring of puts + disjoint-tail accumulates + gets across fences."""

    def factory(out):
        def prog(ctx):
            r = ctx.rank
            w = yield from ctx.win_allocate(count, dtype=np.float64)
            yield from w.fence()
            yield from w.put(
                (r + 1) % ctx.size, np.full(count // 2, float(r + 1))
            )
            yield from w.accumulate(
                (r + 2) % ctx.size, np.full(8, 2.0 * r), op="sum",
                offset=count - 8,
            )
            yield from w.fence()
            buf = np.zeros(16)
            yield from w.get((r + 3) % ctx.size, buf)
            yield from w.fence(end=True)
            out[r] = (w.local.copy(), buf.copy())
            yield from w.free()

        return prog

    return factory


def pscw_prog(n_ranks, count):
    """Neighbor-only sync: each rank posts to its left, puts right."""

    def factory(out):
        def prog(ctx):
            r = ctx.rank
            w = yield from ctx.win_allocate(count, dtype=np.float64)
            tgt = (r + 1) % ctx.size
            src = (r - 1) % ctx.size
            yield from w.post([src])
            yield from w.start([tgt])
            yield from w.put(tgt, np.full(count, float(r)))
            yield from w.complete()
            yield from w.wait_sync()
            out[r] = w.local.copy()
            yield from w.free()

        return prog

    return factory


def passive_prog(n_ranks, count):
    """Exclusive lock per target: put + rput + get, then a lock_all
    accumulate pass."""

    def factory(out):
        def prog(ctx):
            r = ctx.rank
            w = yield from ctx.win_allocate(count, dtype=np.float64)
            tgt = (r + 1) % ctx.size
            yield from w.lock(tgt, exclusive=True)
            yield from w.put(tgt, np.full(count // 2, float(r)))
            req = yield from w.rput(
                tgt, np.full(32, 9.0), offset=count // 2
            )
            yield from req.wait()
            buf = np.zeros(8)
            yield from w.get(tgt, buf, offset=count // 2)
            yield from w.unlock(tgt)
            yield from w.lock_all()
            yield from w.accumulate(
                (r + 2) % ctx.size, np.full(4, 1.0), op="sum",
                offset=count - 4,
            )
            yield from w.flush((r + 2) % ctx.size)
            yield from w.unlock_all()
            out[r] = (w.local.copy(), buf.copy())
            yield from w.free()

        return prog

    return factory


MODES = {
    "fence": fence_prog,
    "pscw": pscw_prog,
    "passive": passive_prog,
}


def assert_same_data(out_a, out_e):
    assert set(out_a) == set(out_e)
    for r in out_e:
        a, e = out_a[r], out_e[r]
        if isinstance(e, tuple):
            for x, y in zip(a, e):
                np.testing.assert_array_equal(x, y)
        else:
            np.testing.assert_array_equal(a, e)


# ---------------------------------------------------------------------------
# Epoch cross-checks
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("mode", sorted(MODES))
@pytest.mark.parametrize("n_ranks", [4, 5, 8, 13, 16])
def test_analytic_matches_exact(mode, n_ranks):
    """Same data, epoch times within tolerance, all sync modes."""
    factory = MODES[mode]
    sim_e, _, out_e = run_job(n_ranks, factory(n_ranks, 4096), "exact")
    sim_a, _, out_a = run_job(n_ranks, factory(n_ranks, 4096), "analytic")
    assert sim_a.now == pytest.approx(sim_e.now, rel=TOL)
    assert_same_data(out_a, out_e)


@pytest.mark.parametrize("mode", sorted(MODES))
def test_pricing_bit_identical_to_analytic(mode):
    factory = MODES[mode]
    for n_ranks in (5, 8):
        sim_a, _, _ = run_job(n_ranks, factory(n_ranks, 4096), "analytic")
        sim_p, _, _ = run_job(n_ranks, factory(n_ranks, 4096), "pricing")
        assert sim_p.now == sim_a.now


def test_pricing_leaves_windows_untouched():
    sim, _, out = run_job(4, fence_prog(4, 4096), "pricing")
    for r in range(4):
        local, buf = out[r]
        assert not local.any()
        assert not buf.any()


def test_rendezvous_put_agrees():
    """Payloads above the eager threshold take the 3-leg rendezvous
    pricing; check it against the exact wire processes."""
    count = 64 * 1024 // 8  # 64 KB ≫ the 8 KB default eager max
    sim_e, _, out_e = run_job(8, pscw_prog(8, count), "exact")
    sim_a, _, out_a = run_job(8, pscw_prog(8, count), "analytic")
    assert sim_a.now == pytest.approx(sim_e.now, rel=TOL)
    assert_same_data(out_a, out_e)


def test_analytic_rma_counters():
    """fastpath_rma_ops ticks per analytic op; wire costs intern;
    repeat fences hit the compiled collective plan; the exact backend
    never touches any of them."""
    sim_a, job_a, _ = run_job(8, fence_prog(8, 4096), "analytic")
    assert sim_a.stats.fastpath_rma_ops > 0
    assert sim_a.stats.wire_cost_misses > 0
    # Three fences: the first compiles the dissemination barrier's
    # plan, the rest are priced from it without building the DAG.
    assert sim_a.stats.fastpath_sched_cache_hits > 0
    sim_e, job_e, _ = run_job(8, fence_prog(8, 4096), "exact")
    assert sim_e.stats.fastpath_rma_ops == 0
    assert sim_e.stats.fastpath_sched_cache_hits == 0
    # Wire-kind counters (eager/rendezvous split) agree across backends.
    keys = lambda job: sorted(
        k for k in job.comm.stats if k.startswith("rma_")
    )
    assert keys(job_a) == keys(job_e)


def test_free_with_unflushed_analytic_ops_raises():
    def factory(out):
        def prog(ctx):
            w = yield from ctx.win_allocate(64, dtype=np.float64)
            yield from w.fence()
            if ctx.rank == 0:
                yield from w.put(1, np.full(8, 1.0))
                with pytest.raises(RmaError, match="unflushed"):
                    w.win.free()
            yield from w.fence(end=True)
            yield from w.free()
            out[ctx.rank] = True

        return prog

    _, _, out = run_job(2, factory, "analytic")
    assert out == {0: True, 1: True}


# ---------------------------------------------------------------------------
# Coalescing under the analytic backend
# ---------------------------------------------------------------------------

def coalesce_prog(n_ranks, puts):
    def factory(out):
        def prog(ctx):
            r = ctx.rank
            w = yield from ctx.win_allocate(
                4096, dtype=np.float64, coalesce=True
            )
            yield from w.fence()
            for i in range(puts):
                yield from w.put(
                    (r + 1) % ctx.size,
                    np.full(32, float(r * 100 + i)),
                    offset=i * 32,
                )
            yield from w.fence(end=True)
            out[r] = w.local.copy()
            yield from w.free()

        return prog

    return factory


def test_coalesced_batch_prices_as_one_transfer():
    sim_e, _, out_e = run_job(4, coalesce_prog(4, 6), "exact")
    sim_a, _, out_a = run_job(4, coalesce_prog(4, 6), "analytic")
    assert sim_a.now == pytest.approx(sim_e.now, rel=TOL)
    assert_same_data(out_a, out_e)
    assert sim_a.stats.rma_coalesced_puts == 4 * 6


# ---------------------------------------------------------------------------
# Jacobi halo exchange: the acceptance workload
# ---------------------------------------------------------------------------

def _cluster(nodes, gpus=0):
    sim = Simulator()
    return build_cluster(sim, paper_cluster(nodes=nodes, gpus_per_node=gpus))


@pytest.mark.parametrize("halo", ["rma_fence", "rma_pscw",
                                  "rma_fence_coalesced"])
@pytest.mark.parametrize("p", [5, 8, 16])
def test_jacobi_rma_analytic_matches_exact(halo, p):
    """Field verified against the sequential reference in both runs
    (run_mpi raises on mismatch) and elapsed within tolerance."""
    cfg = JacobiConfig(p=p, rows_per_rank=4, cols=256, iters=3)
    r_e = run_mpi(_cluster(p), cfg, backend=halo)
    r_a = run_mpi(_cluster(p), cfg, backend=halo, exec_backend="analytic")
    assert r_a.elapsed == pytest.approx(r_e.elapsed, rel=TOL)
    assert r_a.extras["checksum"] == r_e.extras["checksum"]


def test_jacobi_pricing_no_data_same_time():
    cfg = JacobiConfig(p=8, rows_per_rank=4, cols=256, iters=3)
    r_a = run_mpi(
        _cluster(8), cfg, backend="rma_fence", exec_backend="analytic"
    )
    r_p = run_mpi(
        _cluster(8), cfg, backend="rma_fence", exec_backend="pricing"
    )
    assert r_p.elapsed == r_a.elapsed


@pytest.mark.parametrize("p", [4, 8])
def test_jacobi_dcgn_analytic_matches_exact(p):
    """The DCGN GPU-driven halo exchange rides the same pricer through
    the comm threads' node communicator."""
    cfg = JacobiConfig(p=p, rows_per_rank=4, cols=128, iters=2)
    r_e = run_dcgn(_cluster(p // 2, gpus=2), cfg)
    r_a = run_dcgn(_cluster(p // 2, gpus=2), cfg, backend="analytic")
    assert r_a.elapsed == pytest.approx(r_e.elapsed, rel=TOL)
    assert r_a.extras["checksum"] == r_e.extras["checksum"]
