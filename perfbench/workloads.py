"""The benchmark's workloads.

Each workload turns ``--seed`` into a short list of distinct episode
inputs, and runs one episode — build, simulate, check — with its host
time charged to :class:`~layers.Phases`.  The timed loop replays the
inputs round-robin for ``--seconds``; the fidelity reference replays
each input once on the other execution backend.  Why each workload is
in the benchmark, its op unit, loop type and rate are in README.md and
``WORKLOADS`` below.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from layers import Phases, timed_app_calls
from repro.apps.jacobi import JacobiConfig, run_dcgn, run_mpi
from repro.apps.mandelbrot import MandelbrotConfig
from repro.apps.tile_service import TileService, TileServiceConfig
from repro.hw import ClusterSpec, TopologySpec, build_cluster, paper_cluster
from repro.mpi import MpiJob, block_placement
from repro.mpi.algorithms import autotune
from repro.obs import SpanRecorder
from repro.serve import (
    ClusterScheduler, OpenLoopDriver, open_loop_arrivals, percentile,
)
from repro.sim import SimStats, Simulator

KB = 1024


@dataclass
class Episode:
    """What one episode produced."""

    #: Workload ops attempted and failed (verification mismatch, lost
    #: request; an exception fails the whole episode one level up).
    ops: int
    failed: int
    #: Simulated outputs that must repeat exactly for the same input
    #: and backend (and with tracing on).
    result: Tuple[float, ...]
    #: Simulated per-op latencies (s) and the episode's simulated
    #: elapsed time (s) — model outputs, reported as ``model.*``.
    latencies: List[float]
    elapsed: float
    #: The simulator's counters and, on a traced episode, its span
    #: recorder (the simulator itself is not kept alive).
    stats: SimStats
    spans: Optional[SpanRecorder]


def _new_sim(traced: bool) -> Simulator:
    sim = Simulator()
    if traced:
        sim.attach_spans()
    return sim


def _build(ph: Phases, sim: Simulator, spec: ClusterSpec):
    # The autotune cache is per process and keyed by fabric shape;
    # clearing it makes every set-up pay the derivation a fresh job
    # pays, so work moved into autotune shows in setup_s.
    autotune.clear_cache()
    with ph.charge("setup", "hw.build_cluster"):
        return build_cluster(sim, spec)


# ---------------------------------------------------------------------------
# coll-exact
# ---------------------------------------------------------------------------

COLL_RANKS = 32
COLL_OPS = ("allreduce", "allgather", "bcast", "alltoall", "barrier")
COLL_SIZES = (1 * KB, 16 * KB, 256 * KB, 1024 * KB)


@dataclass(frozen=True)
class CollInput:
    cluster_seed: int
    #: (op, nbytes, root) in the order issued — every op at every size.
    order: Tuple[Tuple[str, int, int], ...]
    data_seed: int


def coll_inputs(rng: random.Random, n: int) -> List[CollInput]:
    # The op order stays fixed (sizes ascending, every op per size): a
    # shuffled order moves which large ops overlap, and with it peak
    # memory by ~25% from seed to seed.
    return [
        CollInput(
            rng.randrange(1 << 30),
            tuple((op, nb, rng.randrange(COLL_RANKS))
                  for nb in COLL_SIZES for op in COLL_OPS),
            rng.randrange(1 << 30),
        )
        for _ in range(n)
    ]


def _coll_buffers(op: str, full: np.ndarray, r: int, root: int):
    """Rank ``r``'s (send, recv) buffers for one collective."""
    P = COLL_RANKS
    block = full[: len(full) // P]
    if op == "allreduce":
        return full + r, np.empty_like(full)
    if op == "allgather":
        return block + r, [np.empty_like(block) for _ in range(P)]
    if op == "bcast":
        return None, full.copy() if r == root else np.zeros_like(full)
    if op == "alltoall":
        return ([block + (r * P + j) for j in range(P)],
                [np.empty_like(block) for _ in range(P)])
    return None, None


def coll_episode(
    inp: CollInput, backend: str, ph: Phases, traced: bool = False
) -> Episode:
    """Back-to-back collectives, every rank's output checked by numpy.

    Inputs are integer-valued float64, so every reduction order gives
    the exact same sum and all checks are exact equality.  The rank
    programs build their buffers and check them, but that host time is
    charged to ``inputs`` and ``verify``, so ``run`` holds only the
    program's calls.
    """
    P = COLL_RANKS
    with ph.charge("setup", "sim.Simulator"):
        sim = _new_sim(traced)
    cluster = _build(
        ph, sim, paper_cluster(nodes=P, gpus_per_node=0,
                               seed=inp.cluster_seed),
    )
    with ph.charge("setup", "mpi.MpiJob.init"):
        job = MpiJob(cluster, block_placement(P, P), backend=backend)
    gen = np.random.default_rng(inp.data_seed)
    base = {
        nb: gen.integers(0, 1 << 20, nb // 8).astype(np.float64)
        for nb in COLL_SIZES
    }
    n_ops = len(inp.order)
    ends = [0.0] * n_ops
    bad = set()

    def prog(ctx):
        r = ctx.rank
        for i, (op, nbytes, root) in enumerate(inp.order):
            full = base[nbytes]
            block = full[: len(full) // P]
            with ph.charge("inputs", "bench.buffers"):
                send, recv = _coll_buffers(op, full, r, root)
            ok = True
            if op == "allreduce":
                yield from ctx.allreduce(send, recv)
                with ph.charge("verify", "bench.check"):
                    ok = np.array_equal(recv, full * P + P * (P - 1) // 2)
            elif op == "allgather":
                yield from ctx.allgather(send, recv)
                with ph.charge("verify", "bench.check"):
                    ok = all(np.array_equal(x, block + j)
                             for j, x in enumerate(recv))
            elif op == "bcast":
                yield from ctx.bcast(recv, root=root)
                with ph.charge("verify", "bench.check"):
                    ok = np.array_equal(recv, full)
            elif op == "alltoall":
                yield from ctx.alltoall(send, recv)
                with ph.charge("verify", "bench.check"):
                    ok = all(np.array_equal(x, block + (j * P + r))
                             for j, x in enumerate(recv))
            else:
                yield from ctx.barrier()
            if not ok:
                bad.add(i)
            ends[i] = max(ends[i], ctx.sim.now)

    job.start(prog)
    with ph.charge("run", "sim.run"):
        job.run()
    durations = list(np.diff([0.0] + ends))
    return Episode(
        ops=n_ops,
        failed=len(bad),
        result=tuple(durations),
        latencies=durations,
        elapsed=ends[-1],
        stats=sim.stats,
        spans=sim.spans,
    )


def coll_compared(inputs, analytic, exact):
    """Per-op simulated durations, op by op."""
    return [
        (f"input{k}.{op}.{nb // KB}KB", a, e)
        for k in analytic
        for (op, nb, _root), a, e in zip(
            inputs[k].order, analytic[k].result, exact[k].result)
    ]


# ---------------------------------------------------------------------------
# serve-analytic
# ---------------------------------------------------------------------------

SERVE_NODES = 64
SERVE_POD = 8
SERVE_SERVICES = 8
SERVE_JOB_NODES = 8
#: Offered load per service.  Below the exact backend's saturation
#: under random co-tenancy, so the analytic/exact gap is the pricing
#: error rather than a backlog that grows with the request count.
SERVE_RATE_HZ = 800.0
SERVE_REQUESTS = 32  # per service per episode


@dataclass(frozen=True)
class ServeInput:
    cluster_seed: int
    placement_seed: int
    arrival_seeds: Tuple[int, ...]


def serve_inputs(rng: random.Random, n: int) -> List[ServeInput]:
    return [
        ServeInput(
            rng.randrange(1 << 30),
            rng.randrange(1 << 30),
            tuple(rng.randrange(1 << 30) for _ in range(SERVE_SERVICES)),
        )
        for _ in range(n)
    ]


def _tile_cfg() -> TileServiceConfig:
    return TileServiceConfig(
        tile=MandelbrotConfig(
            width=512, height=512, strip_height=32, max_iter=128
        )
    )


def serve_episode(
    inp: ServeInput, backend: str, ph: Phases, traced: bool = False
) -> Episode:
    """Co-tenant tile services under random placement, open loop."""
    with ph.charge("setup", "sim.Simulator"):
        sim = _new_sim(traced)
    spec = ClusterSpec(
        nodes=SERVE_NODES,
        gpus_per_node=0,
        topology=TopologySpec(
            kind="fattree", pod_size=SERVE_POD, oversubscription=4.0
        ),
        seed=inp.cluster_seed,
    )
    cluster = _build(ph, sim, spec)
    with ph.charge("setup", "serve.ClusterScheduler.init"):
        sched = ClusterScheduler(
            cluster, policy="random", backend=backend,
            seed=inp.placement_seed,
        )
    services = []
    for i, seed in enumerate(inp.arrival_seeds):
        with ph.charge("setup", "apps.TileService.init"):
            svc = TileService(sim, _tile_cfg(), name=f"svc{i}")
        with ph.charge("setup", "serve.submit"):
            sched.submit(svc.job_spec(n_nodes=SERVE_JOB_NODES))
            OpenLoopDriver(
                sim, svc,
                open_loop_arrivals(SERVE_RATE_HZ, SERVE_REQUESTS,
                                   seed=seed, start=0.01),
                name=f"drv{i}",
            ).start()
        services.append(svc)
    with ph.charge("run", "sim.run"):
        sim.run()
    with ph.charge("run", "serve.release"):
        sched.release()
    failed = 0
    lats: List[float] = []
    for svc in services:
        reqs = svc.log.requests
        done = [r for r in reqs if r.done_t is not None]
        lost = SERVE_REQUESTS - len(done)
        with ph.charge("verify", "apps.TileService.verify"):
            try:
                svc.verify()
            except AssertionError:
                lost = SERVE_REQUESTS
        failed += lost
        lats.extend(r.latency for r in done)
    first = min(r.arrival_t for s in services for r in s.log.requests)
    last = max(
        (r.done_t for s in services for r in s.log.requests
         if r.done_t is not None),
        default=first,
    )
    return Episode(
        ops=SERVE_SERVICES * SERVE_REQUESTS,
        failed=failed,
        result=tuple(lats),
        latencies=lats,
        elapsed=last - first,
        stats=sim.stats,
        spans=sim.spans,
    )


def serve_compared(inputs, analytic, exact):
    """Request latency p50/p99, pooled over every input of the run."""
    a = [x for ep in analytic.values() for x in ep.latencies]
    e = [x for ep in exact.values() for x in ep.latencies]
    return [
        (f"p{q}", percentile(a, q), percentile(e, q)) for q in (50, 99)
    ]


# ---------------------------------------------------------------------------
# dcgn-gpu and rma-analytic (the Jacobi drivers)
# ---------------------------------------------------------------------------

JACOBI_ITERS = 4
JACOBI_COLS = 256
DCGN_NODES, DCGN_GPUS = 8, 2
RMA_RANKS = 256
#: Ranks of the rma-analytic fidelity reference: the same code path at
#: a size the exact backend runs in a fraction of a second.
RMA_REF_RANKS = 32


@dataclass(frozen=True)
class JacobiInput:
    cluster_seed: int
    placement_seed: int


def jacobi_inputs(rng: random.Random, n: int) -> List[JacobiInput]:
    return [
        JacobiInput(rng.randrange(1 << 30), rng.randrange(1 << 30))
        for _ in range(n)
    ]


def _jacobi_episode(
    ph: Phases, traced: bool, spec: ClusterSpec, cfg: JacobiConfig,
    drive: Callable[[Any], Any],
) -> Episode:
    """Run one Jacobi driver; ``run_mpi``/``run_dcgn`` raise on a field
    that differs from :func:`repro.apps.jacobi.reference`."""
    with ph.charge("setup", "sim.Simulator"):
        sim = _new_sim(traced)
    cluster = _build(ph, sim, spec)
    with timed_app_calls(ph), ph.charge("run", "apps.jacobi.run"):
        res = drive(cluster)
    per_iter = res.elapsed / cfg.iters
    return Episode(
        ops=cfg.p * cfg.iters,
        failed=0,
        result=(res.elapsed, res.extras["checksum"]),
        latencies=[per_iter] * cfg.iters,
        elapsed=res.elapsed,
        stats=sim.stats,
        spans=sim.spans,
    )


def _jacobi_cfg(p: int) -> JacobiConfig:
    return JacobiConfig(p=p, rows_per_rank=4, cols=JACOBI_COLS,
                        iters=JACOBI_ITERS)


def dcgn_episode(
    inp: JacobiInput, backend: str, ph: Phases, traced: bool = False
) -> Episode:
    """GPU kernels drive the halo exchange through the comm threads.
    The seed moves the comm threads' and GPUs' polling phases."""
    cfg = _jacobi_cfg(DCGN_NODES * DCGN_GPUS)
    spec = paper_cluster(nodes=DCGN_NODES, gpus_per_node=DCGN_GPUS,
                         seed=inp.cluster_seed)
    return _jacobi_episode(
        ph, traced, spec, cfg,
        lambda cluster: run_dcgn(cluster, cfg, backend=backend),
    )


def _rma_episode(
    p: int, inp: JacobiInput, backend: str, ph: Phases,
    traced: bool = False,
) -> Episode:
    """MPI-3 fence-epoch halo exchange at ``p`` ranks, seeded placement."""
    cfg = _jacobi_cfg(p)
    spec = ClusterSpec(nodes=p, gpus_per_node=0, seed=inp.cluster_seed)
    placement = list(range(p))
    random.Random(inp.placement_seed).shuffle(placement)
    return _jacobi_episode(
        ph, traced, spec, cfg,
        lambda cluster: run_mpi(cluster, cfg, "rma_fence",
                                placement=placement,
                                exec_backend=backend),
    )


def elapsed_compared(inputs, analytic, exact):
    """Simulated elapsed time of each input."""
    return [
        (f"input{k}.elapsed", analytic[k].elapsed, exact[k].elapsed)
        for k in analytic
    ]


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    op_unit: str
    loop: str
    #: Backend of the timed episodes, and the fidelity reference's.
    backend: str
    ref_backend: str
    #: Workload ops in one episode (an episode that raises fails them).
    ops: int
    #: Distinct episode inputs per run.
    n_inputs: int
    make_inputs: Callable[[random.Random, int], List[Any]]
    episode: Callable[..., Episode]
    #: (inputs, analytic episodes, exact episodes), the episodes keyed
    #: by input index -> [(label, analytic value, exact value)]
    compared: Callable[..., List[Tuple[str, float, float]]]
    #: A reduced-size episode run on *both* backends for the fidelity
    #: reference; None = compare the timed episodes against the episode
    #: function on ``ref_backend``.
    ref_episode: Optional[Callable[..., Episode]] = None


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="coll-exact",
            op_unit="one collective completed on all ranks",
            loop="closed loop, 1 client",
            backend="exact", ref_backend="analytic",
            ops=len(COLL_OPS) * len(COLL_SIZES), n_inputs=2,
            make_inputs=coll_inputs, episode=coll_episode,
            compared=coll_compared,
        ),
        Workload(
            name="serve-analytic",
            op_unit="one request completed and its strip verified",
            loop=f"open loop, Poisson {SERVE_RATE_HZ:g} req/s per service",
            backend="analytic", ref_backend="exact",
            ops=SERVE_SERVICES * SERVE_REQUESTS, n_inputs=16,
            make_inputs=serve_inputs, episode=serve_episode,
            compared=serve_compared,
        ),
        Workload(
            name="dcgn-gpu",
            op_unit="one rank-iteration",
            loop="closed loop, 1 client",
            backend="exact", ref_backend="analytic",
            ops=DCGN_NODES * DCGN_GPUS * JACOBI_ITERS, n_inputs=4,
            make_inputs=jacobi_inputs, episode=dcgn_episode,
            compared=elapsed_compared,
        ),
        Workload(
            name="rma-analytic",
            op_unit="one rank-iteration",
            loop="closed loop, 1 client",
            backend="analytic", ref_backend="exact",
            ops=RMA_RANKS * JACOBI_ITERS, n_inputs=2,
            make_inputs=jacobi_inputs,
            episode=partial(_rma_episode, RMA_RANKS),
            compared=elapsed_compared,
            ref_episode=partial(_rma_episode, RMA_REF_RANKS),
        ),
    )
}


def fidelity(
    compared: Sequence[Tuple[str, float, float]],
) -> Tuple[float, Tuple[str, float, float]]:
    """Worst agreement ``min(a, e) / max(a, e)`` over the compared
    quantities (1.0 = the analytic backend reproduces exact)."""
    worst = None
    fid = 1.0
    for label, a, e in compared:
        hi = max(a, e)
        r = min(a, e) / hi if hi > 0.0 else 1.0
        if worst is None or r < fid:
            fid, worst = r, (label, a, e)
    return fid, worst
