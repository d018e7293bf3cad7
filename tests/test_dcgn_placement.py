"""DCGN jobs placed on cluster nodes other than ``0..n-1``.

``DcgnConfig(node_ids=...)`` maps the job's local node indices onto
cluster nodes, as a scheduler does when it reserves an arbitrary node
set.  Every DCGN layer must then address nodes by their *job-local*
index (the node communicator's rank), not the cluster node id: the two
only coincide for the identity placement.  A scheduler may also hand
the job a node communicator derived from a shared fabric, whose world
ranks are the fabric's rather than the job's.
"""

import numpy as np
import pytest

from repro.dcgn import DcgnConfig, DcgnRuntime
from repro.hw import ClusterSpec, build_cluster
from repro.mpi import Communicator
from repro.mpi.group import Group
from repro.sim import Simulator

# Each node runs one CPU kernel thread, then one GPU slot: vranks 0 and
# 1 on job-local node 0, vranks 2 and 3 on node 1.
ROOT = 3  # a GPU slot on job-local node 1
SIZE = 4
#: A declared group spanning both nodes, in reverse node order.
GROUP = (3, 0)


def _run(node_ids, shared_fabric=False):
    sim = Simulator()
    cluster = build_cluster(sim, ClusterSpec(nodes=3, gpus_per_node=1))
    cfg = DcgnConfig.homogeneous(
        2, cpu_threads=1, gpus=1, slots_per_gpu=1, node_ids=node_ids,
        slot_groups={"g": list(GROUP)},
    )
    node_comm = None
    if shared_fabric:
        fabric = Communicator(cluster, placement=[0, 1, 2])
        node_comm = fabric.create(Group(list(node_ids)))
    rt = DcgnRuntime(cluster, cfg, node_comm=node_comm)
    out = {}

    def cpu_kernel(ctx):
        v = ctx.rank
        res = out.setdefault(v, {})
        p2p = np.full(4, 7 if v == 0 else -1, dtype=np.int64)
        if v == 0:
            yield from ctx.send(2, p2p)
        else:
            yield from ctx.recv(0, p2p)
        yield from ctx.barrier()
        ar_r = np.zeros(3)
        yield from ctx.allreduce(np.full(3, v + 1.0), ar_r)
        bc = np.full(2, -1, dtype=np.int64)
        yield from ctx.broadcast(ROOT, bc)
        yield from ctx.gather(ROOT, np.full(2, 10 * v, dtype=np.int64), None)
        if v in GROUP:
            g_r = np.zeros(1)
            yield from ctx.group("g").allreduce(np.full(1, v + 1.0), g_r)
            res["group"] = g_r.tolist()
        res.update(
            p2p=p2p.tolist(), allreduce=ar_r.tolist(), bcast=bc.tolist()
        )

    def gpu_kernel(kctx):
        api = kctx.comm
        dev = kctx.device
        v = api.rank(0)
        res = out.setdefault(v, {})
        p2p = dev.alloc((4,), dtype="int64", name="p2p")
        p2p.data[...] = 9 if v == 1 else -1
        if v == 1:
            yield from api.send(0, 3, p2p)
        else:
            yield from api.recv(0, 1, p2p)
        yield from api.barrier(0)
        ar = dev.alloc((3,), dtype="float64", name="ar")
        ar.data[...] = v + 1.0
        yield from api.allreduce(0, ar)
        bc = dev.alloc((2,), dtype="int64", name="bc")
        bc.data[...] = 500 if v == ROOT else -1
        yield from api.broadcast(0, ROOT, bc)
        g_s = dev.alloc((2,), dtype="int64", name="gs")
        g_s.data[...] = 10 * v
        g_r = None
        if v == ROOT:
            g_r = dev.alloc((2 * SIZE,), dtype="int64", name="gr")
        yield from api.gather(0, ROOT, g_s, g_r)
        if v in GROUP:
            grp = dev.alloc((1,), dtype="float64", name="grp")
            grp.data[...] = v + 1.0
            yield from api.group("g").allreduce(0, grp)
            res["group"] = grp.data.tolist()
        res.update(
            p2p=p2p.data.tolist(), allreduce=ar.data.tolist(),
            bcast=bc.data.tolist(),
            gather=None if g_r is None else g_r.data.tolist(),
        )

    rt.launch_cpu(cpu_kernel)
    rt.launch_gpu(gpu_kernel)
    rt.run(max_time=5.0)
    return rt, out


@pytest.mark.parametrize("shared_fabric", [False, True])
@pytest.mark.parametrize("node_ids", [(0, 1), (1, 2), (2, 0)])
def test_off_identity_placement_moves_correct_data(node_ids, shared_fabric):
    rt, out = _run(node_ids, shared_fabric)
    assert rt.node_ids == node_ids
    assert sorted(out) == list(range(SIZE))
    assert out[2]["p2p"] == [7] * 4
    assert out[3]["p2p"] == [9] * 4
    for v in range(SIZE):
        assert out[v]["allreduce"] == [10.0] * 3
        assert out[v]["bcast"] == [500] * 2
    assert out[ROOT]["gather"] == [10 * (i // 2) for i in range(2 * SIZE)]
    for v in GROUP:
        assert out[v]["group"] == [5.0]


def test_off_identity_placement_matches_identity_timing_shape():
    """Only the hosting nodes change: the job sees the same ranks and
    the same number of MPI-level operations."""
    rt_id, _ = _run((0, 1))
    rt_off, _ = _run((1, 2))
    assert rt_off.comm_threads[0].stats == rt_id.comm_threads[0].stats
    assert rt_off.comm_threads[1].stats == rt_id.comm_threads[1].stats


@pytest.mark.parametrize("node_ids", [(1, 2), (2, 0)])
def test_off_identity_placement_window_put_get(node_ids):
    sim = Simulator()
    cluster = build_cluster(sim, ClusterSpec(nodes=3, gpus_per_node=1))
    rt = DcgnRuntime(
        cluster,
        DcgnConfig.homogeneous(
            2, cpu_threads=1, node_ids=node_ids, windows={"w": 4}
        ),
    )
    got = {}

    def kernel(ctx):
        if ctx.rank == 0:
            yield from ctx.put("w", 1, np.arange(4.0) + 5)
        yield from ctx.barrier()
        if ctx.rank == 1:
            buf = np.zeros(4)
            yield from ctx.get("w", 1, buf)
            got["v"] = buf.tolist()

    rt.launch_cpu(kernel)
    rt.run(max_time=5.0)
    assert got["v"] == [5.0, 6.0, 7.0, 8.0]
    assert rt.window("w").region(1).tolist() == [5.0, 6.0, 7.0, 8.0]
