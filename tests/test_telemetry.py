"""Telemetry subsystem: spans, metrics, export, drift, and off-mode cost.

Covers the ISSUE-9 acceptance surface:

* span nesting and thread-safety of the tracer;
* Chrome-trace export schema (opens in Perfetto);
* metrics round-trip through ``RunResult.to_dict/from_dict``;
* per-rank span merge under both distributed transports;
* drift zero-divergence on a 2-rank distributed SCBA run — measured
  comm bytes equal the §4.1 models to the byte, executed flops equal
  the analytic counts exactly;
* ``REPRO_TELEMETRY=off`` leaves results bit-identical and the
  registry empty.
"""

from __future__ import annotations

import json
import threading

import numpy as np
import pytest

from repro import telemetry
from repro.negf import SCBASettings, SCBASimulation
from repro.telemetry import (
    MetricsRegistry,
    Tracer,
    capture,
    chrome_trace_events,
    configure,
    get_registry,
    get_tracer,
    meter_transfer,
    mode,
    scoped_span,
    telemetry_snapshot,
    timeit,
    trace,
    traced,
    use_scope,
)


@pytest.fixture(autouse=True)
def _clean_telemetry():
    """Every test starts and ends with telemetry off and sinks empty."""
    previous = configure("off")
    get_tracer().clear()
    get_registry().reset()
    yield
    configure(previous)
    get_tracer().clear()
    get_registry().reset()


# -- mode knob ---------------------------------------------------------------


def test_telemetry_mode_knob(monkeypatch):
    monkeypatch.setenv("REPRO_TELEMETRY", "full")
    configure(None)
    assert mode() == "full"
    monkeypatch.setenv("REPRO_TELEMETRY", "verbose")
    with pytest.raises(ValueError, match="REPRO_TELEMETRY"):
        configure(None)
    with pytest.raises(ValueError, match="unknown telemetry 'everything'"):
        configure("everything")


def test_trace_is_noop_when_off():
    with trace("outer", a=1) as span:
        assert span is None
    assert get_tracer().roots() == []


# -- spans -------------------------------------------------------------------


def test_span_nesting():
    configure("spans")
    with trace("outer", kind="test"):
        with trace("inner", i=0):
            pass
        with trace("inner", i=1):
            pass
    roots = get_tracer().roots()
    assert len(roots) == 1
    track, outer = roots[0]
    assert track == "main"
    assert outer["name"] == "outer"
    assert outer["attrs"] == {"kind": "test"}
    names = [c["name"] for c in outer["children"]]
    assert names == ["inner", "inner"]
    assert [c["attrs"]["i"] for c in outer["children"]] == [0, 1]
    for c in outer["children"]:
        assert outer["start_ns"] <= c["start_ns"] <= c["end_ns"]
        assert c["end_ns"] <= outer["end_ns"]


def test_traced_decorator():
    configure("spans")

    @traced("decorated", layer="test")
    def fn(x):
        return x + 1

    assert fn(1) == 2
    (track, root), = get_tracer().roots()
    assert root["name"] == "decorated"
    assert root["attrs"] == {"layer": "test"}


def test_tracer_thread_safety():
    configure("spans")
    n_threads, n_spans = 8, 25

    def worker(tid):
        for i in range(n_spans):
            with trace("thread.span", tid=tid, i=i):
                with trace("thread.child"):
                    pass

    threads = [
        threading.Thread(target=worker, args=(t,)) for t in range(n_threads)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    roots = get_tracer().roots()
    # every span completed, nesting intact, no cross-thread adoption
    assert len(roots) == n_threads * n_spans
    for _, d in roots:
        assert d["name"] == "thread.span"
        assert len(d["children"]) == 1
        assert d["children"][0]["thread"] == d["thread"]
    assert get_tracer().open_depth() == 0


def test_scoped_span_routes_to_private_sinks():
    configure("full")
    private_tracer, private_registry = Tracer(), MetricsRegistry()
    with scoped_span(private_tracer, "rank.work", registry=private_registry):
        with trace("rank.inner"):
            telemetry.metrics.add("rank.counter", 3)
    assert get_tracer().roots() == []
    assert len(get_registry()) == 0
    (root,) = private_tracer.drain()
    assert root["name"] == "rank.work"
    assert [c["name"] for c in root["children"]] == ["rank.inner"]
    assert private_registry.snapshot() == {"rank.counter": 3}


# -- metrics -----------------------------------------------------------------


def test_metrics_registry_basics():
    reg = MetricsRegistry()
    reg.add("a")
    reg.add("a", 2)
    reg.gauge("g", 1.5)
    reg.merge({"a": 4, "b": 1})
    assert reg.snapshot() == {"a": 7, "g": 1.5, "b": 1}
    assert reg.drain() == {"a": 7, "g": 1.5, "b": 1}
    assert len(reg) == 0


def test_meter_transfer_charges_stats_and_registry():
    from repro.parallel.simmpi import CommStats

    configure("full")
    stats = CommStats(
        sent_bytes=np.zeros(2, dtype=np.int64),
        recv_bytes=np.zeros(2, dtype=np.int64),
        messages=np.zeros(2, dtype=np.int64),
    )
    meter_transfer(stats, 0, 1, 100)
    meter_transfer(stats, 1, 1, 7)  # self-send: never metered
    assert stats.sent_bytes[0] == 100 and stats.recv_bytes[1] == 100
    assert stats.messages.sum() == 1
    assert get_registry().snapshot() == {"comm.bytes": 100, "comm.messages": 1}


# -- export ------------------------------------------------------------------


def test_chrome_trace_schema():
    configure("spans")
    with trace("phase", n=2):
        with trace("step"):
            pass
    get_tracer().add_track(
        "rank 0",
        [{
            "name": "rank.solve_gf",
            "start_ns": 10,
            "end_ns": 20,
            "thread": "MainThread",
            "attrs": {"rank": 0},
            "children": [],
        }],
    )
    events = chrome_trace_events()
    payload = json.loads(json.dumps(events))  # JSON-serializable
    meta = [e for e in payload if e["ph"] == "M"]
    spans = [e for e in payload if e["ph"] == "X"]
    assert {e["args"]["name"] for e in meta if e["name"] == "process_name"} == {
        "main",
        "rank 0",
    }
    assert {e["name"] for e in spans} == {"phase", "step", "rank.solve_gf"}
    for e in spans:
        assert set(e) == {"name", "ph", "ts", "dur", "pid", "tid", "args"}
        assert e["ts"] >= 0 and e["dur"] >= 0
        assert isinstance(e["pid"], int) and isinstance(e["tid"], int)
    # timestamps are relative to the earliest span across all tracks
    assert min(e["ts"] for e in spans) == 0.0


def test_chrome_trace_empty_tracer():
    assert chrome_trace_events(Tracer()) == []


def test_chrome_trace_multithread_tid_ordering():
    """Spans from several threads land on distinct, stable tids."""
    configure("spans")
    tracer = get_tracer()

    def work(i):
        with trace(f"worker-{i}"):
            pass

    threads = [threading.Thread(target=work, args=(i,)) for i in range(3)]
    with trace("driver"):
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    events = chrome_trace_events(tracer)
    spans = [e for e in events if e["ph"] == "X"]
    tid_of = {e["name"]: e["tid"] for e in spans}
    # four recording threads -> four distinct tids on the main track,
    # assigned contiguously in root-completion order
    tids = {tid_of["driver"]} | {tid_of[f"worker-{i}"] for i in range(3)}
    assert tids == {0, 1, 2, 3}
    # thread_name metadata covers every tid used by a span
    named = {
        (e["pid"], e["tid"])
        for e in events
        if e["ph"] == "M" and e["name"] == "thread_name"
    }
    assert {(e["pid"], e["tid"]) for e in spans} <= named


def test_chrome_trace_span_open_at_export():
    """A span still open when exported gets a zero duration, not a crash."""
    configure("spans")
    with trace("closed"):
        pass
    # simulate an open span: to_dict on a live one stamps end = now, but a
    # root dict drained with end_ns None must export as dur 0
    get_tracer().add_track(
        "rank 0",
        [{
            "name": "rank.open",
            "start_ns": 100,
            "end_ns": None,
            "thread": "MainThread",
            "attrs": {},
            "children": [],
        }],
    )
    events = chrome_trace_events()
    by_name = {e["name"]: e for e in events if e["ph"] == "X"}
    assert by_name["rank.open"]["dur"] == 0.0
    assert by_name["closed"]["dur"] >= 0.0


def test_walk_span_tree_preorder_and_iter_spans():
    from repro.telemetry.export import iter_spans, walk_span_tree

    configure("spans")
    with trace("root"):
        with trace("child-a"):
            with trace("leaf"):
                pass
        with trace("child-b"):
            pass
    ((_, root),) = get_tracer().roots()
    walked = [(d, s["name"]) for d, s in walk_span_tree(root)]
    assert walked == [
        (0, "root"), (1, "child-a"), (2, "leaf"), (1, "child-b")
    ]
    flat = [(track, d, s["name"]) for track, d, s in iter_spans(get_tracer())]
    assert ("main", 0, "root") in flat and ("main", 2, "leaf") in flat


def test_capture_roundtrip(tmp_path):
    with capture("full") as cap:
        with trace("captured"):
            telemetry.metrics.add("captured.count")
    assert cap.mode == "full"
    assert cap.metrics == {"captured.count": 1}
    assert any(e.get("name") == "captured" for e in cap.events)
    out = tmp_path / "t.trace.json"
    cap.save(out)
    assert json.loads(out.read_text()) == cap.events
    # mode restored, sinks left to the ambient state
    assert telemetry.mode() == "off"


def test_timeit_repeats_and_result():
    calls = []
    t = timeit(lambda: calls.append(1) or len(calls), repeats=3, warmup=1)
    assert len(calls) == 4
    assert t.result == 4
    assert len(t.seconds) == 3
    assert t.best == min(t.seconds) <= t.mean
    with pytest.raises(ValueError):
        timeit(lambda: None, repeats=0)


# -- session integration ------------------------------------------------------


def _quick_workload():
    from repro.api import DeviceSpec, GridSpec, PhysicsSpec, Workload

    return Workload(
        name="telemetry-test",
        device=DeviceSpec(nx_cols=6, ny_rows=3, NB=4, slab_width=2, Norb=2),
        grid=GridSpec(e_min=-1.0, e_max=1.0, NE=6, Nkz=2, Nqz=2, Nw=2),
        physics=PhysicsSpec(
            transport="scba", coupling=0.2, mixing=0.5,
            max_iterations=2, tolerance=0.0,
        ),
    )


def test_metrics_roundtrip_through_run_result():
    from repro.api import Session
    from repro.api.session import RunResult, SweepResult

    configure("full")
    with Session(_quick_workload().compile()) as session:
        sweep = session.run()
    rr = sweep[0]
    assert rr.telemetry is not None and rr.telemetry["mode"] == "full"
    assert rr.telemetry["metrics"]["scba.iterations"] == 2
    assert rr.telemetry["metrics"]["engine.electron_rows"] > 0
    assert sweep.telemetry is not None
    assert any(
        e.get("name") == "session.point" for e in sweep.telemetry["trace"]
    )

    d = sweep.to_dict()
    json.dumps(d)  # everything JSON-serializable
    back = SweepResult.from_dict(json.loads(json.dumps(d)))
    assert back[0].telemetry == rr.telemetry
    assert back.telemetry == sweep.telemetry

    rd = RunResult.from_dict(rr.to_dict())
    assert rd.telemetry == rr.telemetry


# -- distributed runtime ------------------------------------------------------


def _distributed_settings(runtime):
    return SCBASettings(
        runtime=runtime, ranks=2, schedule="omen",
        NE=8, Nkz=2, Nqz=2, Nw=2, e_min=-1.0, e_max=1.0,
        coupling=0.2, mixing=0.5, max_iterations=2, tolerance=0.0,
    )


@pytest.mark.parametrize("runtime", ["sim", "pipe"])
def test_rank_span_merge_under_both_transports(small_model, runtime):
    with capture("full") as cap:
        with SCBASimulation(small_model, _distributed_settings(runtime)) as sim:
            sim.run()
    tracks = {
        e["args"]["name"] for e in cap.events if e["name"] == "process_name"
    }
    assert tracks == {"main", "rank 0", "rank 1"}
    names = {e["name"] for e in cap.events if e["ph"] == "X"}
    # driver phases and rank-side engine/boundary work all present
    for required in (
        "runtime.run", "runtime.solve_gf", "runtime.sse_exchange",
        "runtime.residual_allreduce", "runtime.gather",
        "rank.solve_gf", "rank.sse_prepare", "rgf.batch", "boundary.solve",
    ):
        assert required in names, f"missing span {required} under {runtime}"
    # rank metrics merged into the driver registry (2 ranks x 2 iterations)
    assert cap.metrics["engine.electron_rows"] == 4
    assert cap.metrics["comm.bytes"] > 0


@pytest.mark.parametrize("runtime", ["sim", "pipe"])
def test_drift_clean_on_distributed_run(small_model, runtime):
    from repro.telemetry.drift import comm_drift

    with SCBASimulation(small_model, _distributed_settings(runtime)) as sim:
        sim.run()
        report = comm_drift(sim)
    assert report.clean, report.describe()
    sse = report.record("sse.omen")
    assert sse.measured == sse.modeled > 0
    residual = report.record("residual.allreduce")
    assert residual.measured == residual.modeled > 0
    json.dumps(report.to_dict())


def test_sse_flops_drift_exact():
    from repro.telemetry.drift import sse_flops_drift

    report = sse_flops_drift()
    assert report.clean, report.describe()
    # every pipeline stage contributes an exact flop and byte record
    flops = [r for r in report.records if r.name.endswith(".flops")]
    bytes_ = [r for r in report.records if r.name.endswith(".bytes")]
    assert len(flops) == len(bytes_) == 9
    for r in report.records:
        assert r.measured == r.modeled


# -- off mode -----------------------------------------------------------------


def test_off_mode_bit_identical_and_no_registry_growth(small_model):
    settings = dict(
        NE=6, Nkz=2, Nqz=2, Nw=2, e_min=-1.0, e_max=1.0,
        coupling=0.2, mixing=0.5, max_iterations=2, tolerance=0.0,
    )
    configure("off")
    with SCBASimulation(small_model, SCBASettings(**settings)) as sim:
        res_off = sim.run()
    assert len(get_registry()) == 0
    assert get_tracer().roots() == []

    configure("full")
    with SCBASimulation(small_model, SCBASettings(**settings)) as sim:
        res_full = sim.run()
    assert len(get_registry()) > 0

    for name in ("Gl", "Gg", "Sigma_l", "Sigma_g", "current_left"):
        a, b = getattr(res_off, name), getattr(res_full, name)
        assert np.array_equal(a, b), f"{name} not bit-identical"
    assert res_off.iterations == res_full.iterations


def test_use_scope_restores_on_exit():
    configure("spans")
    private = Tracer()
    with use_scope(private):
        with trace("scoped"):
            pass
    with trace("ambient"):
        pass
    assert [d["name"] for d in private.drain()] == ["scoped"]
    assert [d["name"] for _, d in get_tracer().roots()] == ["ambient"]
