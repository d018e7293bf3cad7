"""Golden DCGN collective timings: every collective, on both kernel
sides, in every scope, blocking and nonblocking.

Each case runs a fixed sequence of collectives on a 3-node job with two
virtual ranks per node and records, per virtual rank, the simulated
time at which every call (or ``wait``) returned.  The times are pinned
with ``==``: the exact backend is byte-stable, so any refactor of the
DCGN collective plumbing must reproduce them bit for bit.  Delivered
data is checked against values computed from the group layout.

Scopes:

* ``world``    -- the job-wide scope (``ctx.barrier()`` /
  ``comm.barrier(slot)``), rooted at vrank 4;
* ``declared`` -- the config group ``g = (4, 2, 5, 1)``: group ranks differ
  from vranks, and the root is group rank 3 (vrank 1);
* ``split``    -- ``split(color=vrank % 2, key=-vrank)``, giving groups
  (4, 2, 0) and (5, 3, 1) rooted at group rank 1 (vranks 2 and 3).
"""

import numpy as np
import pytest

from repro.dcgn import DcgnConfig, DcgnRuntime
from repro.gpusim import LaunchConfig
from repro.hw import ClusterSpec, build_cluster
from repro.sim import Simulator

N_NODES = 3
DECLARED = (4, 2, 5, 1)
ROOTS = {"world": 4, "declared": 3, "split": 1}


def _runtime(gpu: bool):
    sim = Simulator()
    cluster = build_cluster(sim, ClusterSpec(nodes=N_NODES, gpus_per_node=1))
    if gpu:
        cfg = DcgnConfig.homogeneous(
            N_NODES, gpus=1, slots_per_gpu=2,
            slot_groups={"g": list(DECLARED)},
        )
    else:
        cfg = DcgnConfig.homogeneous(
            N_NODES, cpu_threads=2, slot_groups={"g": list(DECLARED)}
        )
    return DcgnRuntime(cluster, cfg)


def _members(scope, vrank):
    """Group members (in group-rank order) seen by ``vrank``."""
    if scope == "world":
        return tuple(range(2 * N_NODES))
    if scope == "declared":
        return DECLARED
    return tuple(sorted(range(vrank % 2, 2 * N_NODES, 2), reverse=True))


def _cpu_case(scope, mode):
    rt = _runtime(gpu=False)
    times, data = {}, {}
    root = ROOTS[scope]

    def kern(ctx):
        v = ctx.rank
        if scope == "world":
            comm = ctx
        elif scope == "declared":
            if v not in DECLARED:
                return
            comm = ctx.group("g")
        else:
            comm = yield from ctx.split(v % 2, key=-v)
        r, n = comm.rank, comm.size
        ts = times.setdefault(v, [])
        out = data.setdefault(v, {})
        bc = np.full(4, 100 + r if r == root else -1, dtype=np.int64)
        ar_s = np.full(3, r + 1.0)
        ar_r = np.zeros(3)
        g_s = np.full(2, 10 * r, dtype=np.int64)
        g_r = np.zeros(2 * n, dtype=np.int64) if r == root else None
        sc_r = np.zeros(2, dtype=np.int64)
        sc_s = np.arange(2 * n, dtype=np.int64) + 1000 if r == root else None
        if mode == "blocking":
            yield from comm.barrier()
            ts.append(ctx.sim.now)
            yield from comm.broadcast(root, bc)
            ts.append(ctx.sim.now)
            yield from comm.allreduce(ar_s, ar_r)
            ts.append(ctx.sim.now)
            rd_r = np.zeros(3) if r == root else None
            yield from comm.reduce(root, ar_s * 2, rd_r, op="max")
            ts.append(ctx.sim.now)
            out["reduce"] = None if rd_r is None else rd_r.tolist()
            yield from comm.gather(root, g_s, g_r)
            ts.append(ctx.sim.now)
            yield from comm.scatter(root, sc_r, sc_s)
            ts.append(ctx.sim.now)
        else:
            h = yield from comm.ibarrier()
            yield from ctx.compute(1e-6)
            yield from h.wait()
            ts.append(ctx.sim.now)
            h1 = yield from comm.ibroadcast(root, bc)
            h2 = yield from comm.iallreduce(ar_s, ar_r)
            yield from h1.wait()
            ts.append(ctx.sim.now)
            yield from h2.wait()
            ts.append(ctx.sim.now)
            h = yield from comm.igather(root, g_s, g_r)
            yield from h.wait()
            ts.append(ctx.sim.now)
            h = yield from comm.iscatter(root, sc_r, sc_s)
            yield from h.wait()
            ts.append(ctx.sim.now)
        out.update(
            rank=r, bcast=bc.tolist(), allreduce=ar_r.tolist(),
            gather=None if g_r is None else g_r.tolist(),
            scatter=sc_r.tolist(),
        )

    rt.launch_cpu(kern)
    rt.run()
    return times, data


def _gpu_case(scope, mode):
    rt = _runtime(gpu=True)
    times, data = {}, {}
    root = ROOTS[scope]

    def gk(kctx):
        api = kctx.comm
        slot = kctx.block_idx
        v = api.rank(slot)
        if scope == "world":
            comm = api
        elif scope == "declared":
            if v not in DECLARED:
                return
            comm = api.group("g")
        else:
            comm = yield from api.split(slot, v % 2, key=-v)
        r, n = comm.rank(slot), comm.size
        ts = times.setdefault(v, [])
        out = data.setdefault(v, {})
        dev = kctx.device
        bc = dev.alloc((4,), dtype="int64", name="bc")
        bc.data[...] = 100 + r if r == root else -1
        ar = dev.alloc((3,), dtype="float64", name="ar")
        ar.data[...] = r + 1.0
        g_s = dev.alloc((2,), dtype="int64", name="gs")
        g_s.data[...] = 10 * r
        g_r = None
        sc_s = None
        if r == root:
            g_r = dev.alloc((2 * n,), dtype="int64", name="gr")
            sc_s = dev.alloc((2 * n,), dtype="int64", name="ss")
            sc_s.data[...] = np.arange(2 * n) + 1000
        sc_r = dev.alloc((2,), dtype="int64", name="sr")
        if mode == "blocking":
            yield from comm.barrier(slot)
            ts.append(kctx.sim.now)
            yield from comm.broadcast(slot, root, bc)
            ts.append(kctx.sim.now)
            yield from comm.allreduce(slot, ar)
            ts.append(kctx.sim.now)
            yield from comm.gather(slot, root, g_s, g_r)
            ts.append(kctx.sim.now)
            yield from comm.scatter(slot, root, sc_r, sc_s)
            ts.append(kctx.sim.now)
        else:
            h = yield from comm.ibarrier(slot)
            yield from kctx.compute(1e-6)
            yield from h.wait()
            ts.append(kctx.sim.now)
            h1 = yield from comm.ibroadcast(slot, root, bc)
            h2 = yield from comm.iallreduce(slot, ar)
            yield from h1.wait()
            ts.append(kctx.sim.now)
            yield from h2.wait()
            ts.append(kctx.sim.now)
            h = yield from comm.igather(slot, root, g_s, g_r)
            yield from h.wait()
            ts.append(kctx.sim.now)
            h = yield from comm.iscatter(slot, root, sc_r, sc_s)
            yield from h.wait()
            ts.append(kctx.sim.now)
        out.update(
            rank=r, bcast=bc.data.tolist(), allreduce=ar.data.tolist(),
            gather=None if g_r is None else g_r.data.tolist(),
            scatter=sc_r.data.tolist(),
        )

    rt.launch_gpu(gk, config=LaunchConfig(grid_blocks=2))
    rt.run(max_time=60.0)
    return times, data


def _check_data(scope, data):
    root = ROOTS[scope]
    assert data, "no participant ran"
    for v, out in data.items():
        members = _members(scope, v)
        n = len(members)
        r = out["rank"]
        assert members[r] == v
        assert out["bcast"] == [100 + root] * 4
        assert out["allreduce"] == [n * (n + 1) / 2] * 3
        if "reduce" in out:
            expect = [2.0 * n] * 3 if r == root else None
            assert out["reduce"] == expect
        if r == root:
            assert out["gather"] == [10 * (i // 2) for i in range(2 * n)]
        else:
            assert out["gather"] is None
        assert out["scatter"] == [1000 + 2 * r, 1001 + 2 * r]


#: Simulated return time of every call, per vrank, captured on the exact
#: backend.  Any drift is a behavior change, not noise.
GOLDEN = {
    'cpu/world/blocking': {
        0: [4.1899999999999995e-05, 6.38e-05, 0.0001257, 0.0001476,
            0.00018950000000000003, 0.00021140000000000004],
        1: [4.1899999999999995e-05, 6.38e-05, 0.0001257, 0.0001476,
            0.00018950000000000003, 0.00021140000000000004],
        2: [4.1899999999999995e-05, 8.38e-05, 0.0001257, 0.0001476,
            0.00016950000000000003, 0.00021140000000000004],
        3: [4.1899999999999995e-05, 8.38e-05, 0.0001257, 0.0001476,
            0.00016950000000000003, 0.00021140000000000004],
        4: [4.1899999999999995e-05, 6.38e-05, 0.0001057,
            0.00014759999999999998, 0.0001895, 0.00021140000000000002],
        5: [4.1899999999999995e-05, 6.38e-05, 0.0001057,
            0.00014759999999999998, 0.0001895, 0.00021140000000000002],
    },
    'cpu/world/nonblocking': {
        0: [4.29e-05, 6.670000000000001e-05, 8.67e-05, 0.00012859999999999998,
            0.0001905],
        1: [4.29e-05, 6.670000000000001e-05, 8.67e-05, 0.00012859999999999998,
            0.0001905],
        2: [4.29e-05, 8.67e-05, 0.0001067, 0.00014859999999999998, 0.0001905],
        3: [4.29e-05, 8.67e-05, 0.0001067, 0.00014859999999999998, 0.0001905],
        4: [4.29e-05, 6.670000000000001e-05, 8.67e-05, 0.00014859999999999998,
            0.0001905],
        5: [4.29e-05, 6.670000000000001e-05, 8.67e-05, 0.00014859999999999998,
            0.0001905],
    },
    'cpu/declared/blocking': {
        1: [4.1899999999999995e-05, 6.38e-05, 0.0001257, 0.0001476,
            0.00018950000000000003, 0.00021140000000000004],
        2: [4.1899999999999995e-05, 8.38e-05, 0.0001257, 0.0001476,
            0.00016950000000000003, 0.00021140000000000004],
        4: [4.1899999999999995e-05, 6.38e-05, 0.0001057,
            0.00012759999999999998, 0.0001495, 0.00021140000000000002],
        5: [4.1899999999999995e-05, 6.38e-05, 0.0001057,
            0.00012759999999999998, 0.0001495, 0.00021140000000000002],
    },
    'cpu/declared/nonblocking': {
        1: [4.29e-05, 6.670000000000001e-05, 8.67e-05, 0.00014859999999999998,
            0.0001905],
        2: [4.29e-05, 8.67e-05, 0.0001067, 0.00014859999999999998, 0.0001905],
        4: [4.29e-05, 6.670000000000001e-05, 8.67e-05, 0.00012859999999999998,
            0.0001905],
        5: [4.29e-05, 6.670000000000001e-05, 8.67e-05, 0.00012859999999999998,
            0.0001905],
    },
    'cpu/split/blocking': {
        0: [8.38e-05, 0.0001257, 0.0001676, 0.00020950000000000002,
            0.00023140000000000004, 0.0002733000000000001],
        1: [8.38e-05, 0.0001257, 0.0001676, 0.00020950000000000002,
            0.00025140000000000004, 0.00029330000000000003],
        2: [8.38e-05, 0.0001057, 0.00016759999999999998, 0.0002095,
            0.00023140000000000001, 0.00027330000000000003],
        3: [8.38e-05, 0.0001257, 0.0001676, 0.00020950000000000002,
            0.00025140000000000004, 0.00029330000000000003],
        4: [8.38e-05, 0.0001257, 0.0001476, 0.00018950000000000003,
            0.00021140000000000004, 0.0002733000000000001],
        5: [8.38e-05, 0.0001257, 0.0001476, 0.00018950000000000003,
            0.00021140000000000004, 0.00029330000000000003],
    },
    'cpu/split/nonblocking': {
        0: [8.48e-05, 0.00012859999999999998, 0.00014859999999999998,
            0.0001905, 0.0002324],
        1: [8.48e-05, 0.00012859999999999998, 0.00014859999999999998,
            0.0001905, 0.0002324],
        2: [8.48e-05, 0.00010859999999999998, 0.00012859999999999998,
            0.0001905, 0.0002324],
        3: [8.48e-05, 0.00010859999999999998, 0.00012859999999999998,
            0.0001905, 0.0002324],
        4: [8.48e-05, 0.00012859999999999998, 0.00014859999999999998,
            0.0001905, 0.0002324],
        5: [8.48e-05, 0.00012859999999999998, 0.00014859999999999998,
            0.0001905, 0.0002324],
    },
    'gpu/world/blocking': {
        0: [0.0005734393668894852, 0.0009903787592624787, 0.001428356248877063,
            0.0018393680441368256, 0.001978534233382561],
        1: [0.0005874420335561519, 0.001018392092595812, 0.0014563669155437298,
            0.0018533707108034923, 0.002006542233382561],
        2: [0.0005734393668894852, 0.000988545281001609, 0.001436427947668276,
            0.0015952946143349429, 0.0019793677116434305],
        3: [0.0005874420335561519, 0.0010165586143349424,
            0.0014644386143349427, 0.0016092972810016096,
            0.0020073757116434304],
        4: [0.0005734393668894852, 0.0009792980335561518,
            0.0014265297271379325, 0.0018569774217883585,
            0.0019793677116434305],
        5: [0.0005874420335561519, 0.001007311366889485, 0.0014545403938045992,
            0.0018709800884550252, 0.0020073757116434304],
    },
    'gpu/world/nonblocking': {
        0: [0.0005734393668894852, 0.0009903787592624787,
            0.0010834027592624789, 0.0012422694259291457,
            0.0019185342333825613],
        1: [0.0005874420335561519, 0.001018392092595812, 0.0011114134259291456,
            0.0012562720925958124, 0.0019465422333825612],
        2: [0.0005734393668894852, 0.000988545281001609, 0.001356569281001609,
            0.001501967255088243, 0.0019193677116434308],
        3: [0.0005874420335561519, 0.0010165586143349424,
            0.0013845799476682758, 0.0015159699217549096,
            0.0019473757116434307],
        4: [0.0005734393668894852, 0.0009760566640243835,
            0.0010690806640243837, 0.001515999255088243,
            0.0019193677116434308],
        5: [0.0005874420335561519, 0.0010040699973577168,
            0.0010970913306910504, 0.0015300019217549096,
            0.0019473757116434307],
    },
    'gpu/declared/blocking': {
        1: [0.0005734393668894852, 0.0009408958081119808,
            0.0013380476774484916, 0.0017685502333825613, 0.00188419294268755],
        2: [0.0005734393668894852, 0.0009552179033500761,
            0.0013380476774484916, 0.0014419533420447646,
            0.0018833594644266805],
        4: [0.0005734393668894852, 0.0009569618027407396, 0.001336221155709361,
            0.001754528900049228, 0.0018853822333825617],
        5: [0.0005874420335561519, 0.000984975136074073, 0.0013642318223760278,
            0.0017685315667158948, 0.0019133902333825616],
    },
    'gpu/declared/nonblocking': {
        1: [0.0005734393668894852, 0.0009423033668894852,
            0.0009909793224094766, 0.0013659746753780981,
            0.0017714466753780982],
        2: [0.0005734393668894852, 0.0009552179033500761,
            0.0009909793224094766, 0.0013519533420447648,
            0.0017633594644266806],
        4: [0.0005734393668894852, 0.000987020374169311, 0.001080044374169311,
            0.001214528900049228, 0.001768382233382562],
        5: [0.0005874420335561519, 0.0010150337075026442,
            0.0011080550408359778, 0.0012285315667158946,
            0.001796390233382562],
    },
    'gpu/split/blocking': {
        0: [0.0009460010118504705, 0.0013359836360406238,
            0.0017403593224094766, 0.0018393541310933474,
            0.0023559586753780968],
        1: [0.0009600036785171372, 0.0017044476360406238, 0.001918807464426681,
            0.002019354131093346, 0.0024459586753780966],
        2: [0.0009460010118504705, 0.0013288703451838039,
            0.0017403593224094766, 0.00224404803048401, 0.0024309920304840093],
        3: [0.0009600036785171372, 0.0013534950190633983, 0.001861176030484011,
            0.002337525363817343, 0.002496000030484009],
        4: [0.0009460010118504705, 0.0013378171143014934, 0.001738532800670346,
            0.0018725256536724166, 0.002356778240595488],
        5: [0.0009600036785171372, 0.0017062811143014934, 0.00185852298700575,
            0.0019645149870057494, 0.0024467782405954877],
    },
    'gpu/split/nonblocking': {
        0: [0.0009460010118504705, 0.0013359836360406238,
            0.0013980476774484915, 0.0018093541310933473,
            0.0022659586753780965],
        1: [0.0009600036785171372, 0.0013662922074691953,
            0.0014260583441151583, 0.001823356797760014,
            0.0026059666753780963],
        2: [0.0009460010118504705, 0.001357686345183804, 0.0013856970118504707,
            0.0018233701310933473, 0.0022714136536724156],
        3: [0.0009600036785171372, 0.0013996996785171373,
            0.0014931583451838041, 0.0018885309870057497,
            0.0023364216536724152],
        4: [0.0009460010118504705, 0.0013378171143014934,
            0.0013681230190633984, 0.0017845149870057498,
            0.0022667782405954877],
        5: [0.0009600036785171372, 0.0013961363523967317,
            0.0017645950190633983, 0.0018745149870057498,
            0.0026067862405954874],
    },
}

CASES = [
    (side, scope, mode)
    for side in ("cpu", "gpu")
    for scope in ("world", "declared", "split")
    for mode in ("blocking", "nonblocking")
]


@pytest.mark.parametrize(
    "side,scope,mode", CASES, ids=["-".join(c) for c in CASES]
)
def test_collective_times_and_data_pinned(side, scope, mode):
    run = _cpu_case if side == "cpu" else _gpu_case
    times, data = run(scope, mode)
    _check_data(scope, data)
    assert times == GOLDEN[f"{side}/{scope}/{mode}"]
