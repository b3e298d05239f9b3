"""End-to-end observability: one shared tracer across the replay and
webserver stacks, and the bench CLI's --trace-out flag."""

import json

from repro.bench.__main__ import main as bench_main
from repro.bench.experiments import run_experiment
from repro.obs import Tracer
from repro.traces import ReplayConfig, TraceReplayer, generate_dmine


def test_replay_spans_cover_the_stack():
    tracer = Tracer()
    header, records = generate_dmine()
    TraceReplayer(ReplayConfig(warmup=False, tracer=tracer)).replay(
        header, records, "dmine"
    )
    cats = set(tracer.categories_seen())
    assert {"sim", "io", "storage", "replay", "jit"} <= cats
    # Per-record replay spans carry the measured flag and offsets.
    replayed = tracer.spans("replay")
    assert replayed
    assert {"index", "offset", "length", "measured"} <= set(replayed[0].attrs)
    # Disk spans name the device and the time the request queued.
    disk_reads = [s for s in tracer.spans("storage") if s.name == "disk.read"]
    assert disk_reads
    assert {"device", "wait_ms"} <= set(disk_reads[0].attrs)
    fs_ops = {s.name for s in tracer.spans("io")}
    assert {"fs.open", "fs.read", "fs.close"} <= fs_ops
    assert any(e.kind == "instant" and e.name == "cache.prefetch"
               for e in tracer.events)
    # Point events are stamped at the moment they are recorded.
    points = [e.start for e in tracer.events if e.kind != "span"]
    assert points == sorted(points)


def test_webserver_request_spans():
    tracer = Tracer()
    run_experiment("tab6", tracer=tracer, trials=2)
    gets = [s for s in tracer.spans("webserver") if s.name == "http.get"]
    assert len(gets) == 2
    assert gets[0].attrs["status"] == 200
    assert gets[0].duration > 0


def test_run_experiment_drops_unsupported_tracer_kwarg():
    # fig2's runner takes no tracer; passing one must not raise.
    result = run_experiment("fig2", tracer=Tracer())
    assert result.exp_id == "fig2"


def test_bench_cli_trace_out(tmp_path, capsys):
    out = tmp_path / "trace.json"
    jsonl = tmp_path / "trace.jsonl"
    rc = bench_main(["tab1", "--trace-out", str(out),
                     "--trace-jsonl", str(jsonl)])
    assert rc == 0
    doc = json.loads(out.read_text())
    span_cats = {e["cat"] for e in doc["traceEvents"] if e["ph"] == "X"}
    # The acceptance bar: spans from at least four layers of the stack.
    assert len(span_cats & {"sim", "io", "storage", "replay", "jit",
                            "webserver"}) >= 4
    assert jsonl.exists()
    assert "wrote" in capsys.readouterr().out


def test_metrics_snapshot_covers_webserver_stack():
    from repro.webserver import WebServerHost

    host = WebServerHost()
    host.run_request_sequence([("GET", "/images/photo3.jpg")])
    snap = host.engine.metrics.snapshot()
    for prefix in ("server.", "jit.", "cache.", "fs."):
        assert any(k.startswith(prefix) for k in snap), prefix
    json.dumps(snap)  # the whole snapshot must be JSON-ready
