"""Tests for the observability layer (span tracing, links, profiler).

The load-bearing invariant: tracing is *timing-passive*.  Attaching a
recorder must not change a single event timestamp or payload byte on
the exact backend, and the analytic backends must commit identical
priced times traced or untraced.
"""

import json

import numpy as np
import pytest

from repro.hw import ClusterSpec, TopologySpec, build_cluster, paper_cluster
from repro.mpi import MpiJob, block_placement
from repro.obs import (
    SpanRecorder,
    collective_profile,
    critical_path,
    format_critical_path,
    format_link_report,
    link_report,
    to_chrome_trace,
    write_chrome_trace,
)
from repro.sim import Simulator


def _stencilish(ctx, record):
    """A little of everything: p2p both protocols + two collectives."""
    import numpy as np

    r, size = ctx.rank, ctx.size
    small = np.full(8, float(r))
    big = np.full(4096, float(r))
    got_s = np.empty_like(small)
    got_b = np.empty_like(big)
    peer = (r + 1) % size
    src = (r - 1) % size
    if r % 2 == 0:
        yield from ctx.send(small, dest=peer, tag=1)
        yield from ctx.recv(got_s, source=src, tag=1)
        yield from ctx.send(big, dest=peer, tag=2)
        yield from ctx.recv(got_b, source=src, tag=2)
    else:
        yield from ctx.recv(got_s, source=src, tag=1)
        yield from ctx.send(small, dest=peer, tag=1)
        yield from ctx.recv(got_b, source=src, tag=2)
        yield from ctx.send(big, dest=peer, tag=2)
    out = np.empty_like(big)
    yield from ctx.allreduce(big, out)
    yield from ctx.barrier()
    record[r] = (
        ctx.sim.now,
        float(got_s.sum()),
        float(got_b.sum()),
        float(out.sum()),
    )


def _run_stencilish(backend, traced, n_ranks=8, n_nodes=4):
    sim = Simulator()
    cluster = build_cluster(sim, paper_cluster(nodes=n_nodes))
    rec = sim.attach_spans() if traced else None
    job = MpiJob(
        cluster, block_placement(n_ranks, n_nodes), backend=backend
    )
    record = {}
    job.start(lambda ctx: _stencilish(ctx, record))
    job.run()
    return record, sim, rec


def _run_dcgn_gpu(traced):
    """GPU send/recv plus a world barrier across 2 nodes (DCGN)."""
    from repro.dcgn import DcgnConfig, DcgnRuntime

    sim = Simulator()
    cluster = build_cluster(sim, paper_cluster(nodes=2))
    rec = sim.attach_spans() if traced else None
    rt = DcgnRuntime(
        cluster, DcgnConfig.homogeneous(2, gpus=1, slots_per_gpu=1)
    )
    record = {}

    def kernel(kctx):
        comm = kctx.comm
        me = comm.rank(0)
        buf = kctx.device.alloc(256, dtype=np.uint8)
        if me == 0:
            buf.data[:] = np.arange(256) % 251
            yield from comm.send(0, 1, buf)
        else:
            yield from comm.recv(0, 0, buf)
        t_p2p = kctx.sim.now
        yield from comm.barrier(0)
        record[me] = (t_p2p, kctx.sim.now, buf.data.tobytes())

    rt.launch_gpu(kernel)
    rt.run()
    return record, sim, rec


class TestByteStability:
    def test_exact_backend_identical_traced(self):
        """Tracing changes no timestamp and no payload byte (exact)."""
        base, sim0, _ = _run_stencilish("exact", traced=False)
        traced, sim1, rec = _run_stencilish("exact", traced=True)
        assert traced == base  # exact float equality, payloads included
        # No extra simulated events either — recording never schedules.
        assert (
            sim1.stats.events_popped == sim0.stats.events_popped
        )
        assert sim1.stats.heap_pushes == sim0.stats.heap_pushes
        assert len(rec.spans) > 0
        assert sim1.stats.spans == len(rec.spans)

    def test_dcgn_identical_traced(self):
        """DCGN comm and GPU threads record request stages passively."""
        base, sim0, _ = _run_dcgn_gpu(traced=False)
        traced, sim1, rec = _run_dcgn_gpu(traced=True)
        assert traced == base
        assert base[1][2] == (np.arange(256) % 251).astype(np.uint8).tobytes()
        assert sim1.stats.events_popped == sim0.stats.events_popped
        assert sim1.stats.heap_pushes == sim0.stats.heap_pushes
        stages = {s.name for s in rec.select("dcgn.req")}
        assert {"posted", "harvested", "picked", "written_back"} <= stages

    def test_analytic_backend_identical_traced(self):
        """The fast path commits the same priced times when recording
        (traced and untraced instances run the same plan pass)."""
        base, _, _ = _run_stencilish("analytic", traced=False)
        traced, _, rec = _run_stencilish("analytic", traced=True)
        assert traced == base
        assert rec.count("collective") > 0

    def test_backends_emit_same_span_tree_shape(self):
        """Exact and analytic agree on the collective/round skeleton."""
        _, _, exact = _run_stencilish("exact", traced=True)
        _, _, analytic = _run_stencilish("analytic", traced=True)

        def shape(rec):
            colls = sorted(
                (s.track, s.name) for s in rec.select("collective")
            )
            rounds = rec.count("round")
            return colls, rounds

        assert shape(exact) == shape(analytic)


class TestSpanRecorder:
    def test_pause_drops_begin(self):
        rec = SpanRecorder()
        rec.pause()
        assert rec.begin(0.0, "x", "c", "t") is None
        rec.end(1.0, None)  # tolerated
        rec.resume()
        sp = rec.begin(1.0, "x", "c", "t")
        rec.end(2.0, sp)
        assert len(rec.spans) == 1
        assert rec.spans[0].dur == pytest.approx(1.0)

    def test_maxlen_bounds_buffer(self):
        rec = SpanRecorder(maxlen=4)
        for i in range(10):
            rec.complete(float(i), float(i) + 0.5, f"s{i}", "c", "t")
        assert len(rec.spans) == 4
        assert [s.name for s in rec.spans] == ["s6", "s7", "s8", "s9"]

    def test_sids_monotonic_and_queries(self):
        rec = SpanRecorder()
        # complete() returns the new sid, not the (lazily built) Span.
        a = rec.complete(0.0, 1.0, "a", "c1", "t1", attrs={"k": 1})
        b = rec.complete(1.0, 2.0, "b", "c2", "t2")
        assert b > a
        assert rec.tracks() == ["t1", "t2"]
        assert rec.wall() == 2.0
        assert rec.select(category="c1")[0].attrs["k"] == 1
        assert rec.by_sid()[a].sid == a
        # Materialized spans are stable object identities across reads.
        assert rec.by_sid()[a] is rec.by_sid()[a]

    def test_trim(self):
        rec = SpanRecorder()
        rec.complete(0.0, 1.0, "app", "c", "t")
        rec.complete(5.0, 6.0, "teardown", "c", "t")
        assert rec.trim(2.0) == 1
        assert [s.name for s in rec.spans] == ["app"]


class TestCriticalPath:
    def test_single_collective_totals_equal_wall(self):
        sim = Simulator()
        cluster = build_cluster(sim, paper_cluster(nodes=4))
        rec = sim.attach_spans()
        job = MpiJob(cluster, block_placement(8, 4))

        def prog(ctx):
            buf = np.ones(2048)
            out = np.empty_like(buf)
            yield from ctx.allreduce(buf, out)

        job.start(prog)
        job.run()
        report = critical_path(rec)
        assert report["wall_s"] == pytest.approx(rec.wall())
        total = sum(report["by_class"].values())
        assert total == pytest.approx(report["wall_s"], rel=1e-9)
        assert report["by_class"]["wire"] > 0.0
        assert report["n_steps"] >= 1
        assert "wall" in format_critical_path(report)

    def test_empty_recorder_is_all_idle(self):
        rec = SpanRecorder()
        report = critical_path(rec)
        assert report["wall_s"] == 0.0
        assert report["n_steps"] == 0

    def test_collective_profile_aggregates(self):
        _, _, rec = _run_stencilish("exact", traced=True)
        rows = collective_profile(rec)
        names = {r["name"] for r in rows}
        assert any("allreduce" in n for n in names)
        assert any("barrier" in n for n in names)
        for r in rows:
            assert r["total_s"] >= r["max_s"] > 0.0
            assert r["mean_s"] == pytest.approx(
                r["total_s"] / r["count"]
            )


class TestLinks:
    def test_link_bytes_equal_chan_bytes(self):
        sim = Simulator()
        cluster = build_cluster(sim, paper_cluster(nodes=4))
        job = MpiJob(cluster, block_placement(8, 4))
        record = {}
        job.start(lambda ctx: _stencilish(ctx, record))
        job.run()
        rows = link_report(cluster.interconnect, wall_s=sim.now)
        assert rows, "exact transfers must book channel bytes"
        assert (
            sum(r["bytes"] for r in rows) == sim.stats.chan_bytes
        )
        for r in rows:
            assert r["busy_frac"] >= 0.0
        table = format_link_report(rows, top=3)
        assert "busy%" in table

    def test_analytic_accounting_books_routed_path(self):
        sim = Simulator()
        spec = ClusterSpec(
            nodes=16,
            gpus_per_node=0,
            topology=TopologySpec(
                kind="fattree", pod_size=4, oversubscription=4.0
            ),
        )
        cluster = build_cluster(sim, spec)
        cluster.interconnect.accounting = True
        # Cross-pod traffic: node 0 -> node 5 crosses two pod uplinks.
        cluster.interconnect.account(0, 5, 10_000)
        rows = {r["name"]: r for r in link_report(cluster.interconnect)}
        assert rows["pod0.up"]["bytes"] == 10_000
        assert rows["pod1.down"]["bytes"] == 10_000
        assert sim.stats.chan_bytes == 10_000
        # Same-pod traffic never touches the uplinks.
        cluster.interconnect.account(0, 1, 500)
        rows = {r["name"]: r for r in link_report(cluster.interconnect)}
        assert rows["pod0.up"]["bytes"] == 10_000


class TestServingSpans:
    def _run_serve(self):
        from repro.trace import run_traced

        return run_traced("serve", nodes=8, backend="analytic")

    def test_request_spans_match_request_log(self):
        run = self._run_serve()
        rec = run.recorder
        service = rec.select(category="serve.request")
        waits = {
            s.attrs["req_id"]: s
            for s in rec.select(category="serve.wait")
        }
        assert service, "no request spans recorded"
        # Find the RequestLog through the trace runner's info is not
        # possible — re-derive from spans vs log by re-running inline.
        from repro.serve.workload import RequestLog  # noqa: F401

        for sp in service:
            rid = sp.attrs["req_id"]
            w = waits.get(rid)
            if w is not None:
                assert w.t1 == sp.t0  # wait ends where service starts
                assert w.t0 <= w.t1

    def test_request_spans_equal_log_timestamps(self):
        """Spans are emitted from the stamps, so they must agree."""
        from repro.serve.workload import RequestLog

        sim = Simulator()
        rec = sim.attach_spans()
        log = RequestLog(sim, name="svc")

        def proc():
            r = log.arrived(0)
            yield sim.timeout(0.5)
            log.started(r)
            yield sim.timeout(0.25)
            log.completed(r)

        sim.process(proc())
        sim.run()
        req = log.requests[0]
        wait = rec.select(category="serve.wait")[0]
        svc = rec.select(category="serve.request")[0]
        assert wait.t0 == req.arrival_t
        assert wait.t1 == req.start_t
        assert svc.t0 == req.start_t
        assert svc.t1 == req.done_t
        assert wait.track == svc.track == "svc"

    def test_job_phase_spans(self):
        run = self._run_serve()
        phases = [
            s.name for s in run.recorder.select(category="serve.job")
        ]
        assert "queued" in phases
        assert "placing" in phases
        assert "running" in phases


class TestExport:
    def test_chrome_trace_round_trip(self, tmp_path):
        _, _, rec = _run_stencilish("exact", traced=True)
        out = tmp_path / "trace.json"
        write_chrome_trace(rec, str(out))
        doc = json.loads(out.read_text())
        events = doc["traceEvents"]
        assert len(events) == len(rec.spans) + len(rec.tracks())
        metas = [e for e in events if e["ph"] == "M"]
        assert {m["args"]["name"] for m in metas} == set(rec.tracks())
        xs = [e for e in events if e["ph"] == "X"]
        assert xs, "expected complete events"
        for e in xs:
            assert e["dur"] >= 0.0
            assert e["tid"] >= 1
            assert "cat" in e and "ts" in e
        # Deterministic: a second export is byte-identical.
        assert to_chrome_trace(rec) == doc

    def test_instants_render_as_instant_events(self):
        rec = SpanRecorder()
        rec.instant(1.0, "mark", "dcgn.poll", "node0")
        doc = to_chrome_trace(rec)
        ev = [e for e in doc["traceEvents"] if e["ph"] == "i"]
        assert len(ev) == 1
        assert "dur" not in ev[0]


class TestStatsApi:
    def test_snapshot_delta_summary(self):
        from repro.sim.stats import SimStats

        st = SimStats()
        before = st.snapshot()
        st.events_popped += 5
        st.spans += 2
        d = st.delta(before)
        assert d["events_popped"] == 5
        assert d["spans"] == 2
        assert all(
            v == 0 for k, v in d.items()
            if k not in ("events_popped", "spans")
        )
        compact = st.summary(compact=True)
        assert "events_popped=5" in compact
        assert "heap_pushes" not in compact
        full = st.summary()
        assert "heap_pushes=0" in full


class TestTraceCli:
    def test_run_jacobi_with_perfetto(self, tmp_path, capsys):
        from repro.trace.__main__ import main

        out = tmp_path / "t.json"
        rc = main(
            ["run", "jacobi", "--nodes", "4", "--perfetto", str(out)]
        )
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["traceEvents"]
        text = capsys.readouterr().out
        assert "jacobi:" in text

    def test_report_dcgn(self, capsys):
        from repro.trace.__main__ import main

        rc = main(["report", "dcgn", "--nodes", "2", "--links"])
        assert rc == 0
        text = capsys.readouterr().out
        assert "critical path" in text
        assert "link utilization" in text

    def test_export_requires_perfetto(self):
        from repro.trace.__main__ import main

        with pytest.raises(SystemExit):
            main(["export", "jacobi"])
