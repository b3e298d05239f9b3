"""The trace report: rendered sections and the ``repro.obs report`` CLI."""

from repro.obs import Tracer, analyze, write_jsonl
from repro.obs.__main__ import main as obs_main
from repro.obs.report import render_trace_report


def test_render_trace_report_sections(tmp_path):
    from repro.bench.experiments.tab5_tab6_webserver import run_tab6

    tracer = Tracer()
    run_tab6(tracer=tracer)
    report = render_trace_report(analyze(tracer))
    assert "span rollup" in report
    assert "critical path" in report
    assert "per-layer attribution" in report
    assert "counters / utilization" in report
    assert "directly-follows graph" in report
    for column in ("self_ms", "p50_ms", "p90_ms", "p99_ms"):
        assert column in report
    assert "http.get" in report


def test_report_cli_on_bench_trace(tmp_path, capsys):
    from repro.bench.experiments.tables_traces import run_tab2

    tracer = Tracer()
    run_tab2(tracer=tracer)
    trace = tmp_path / "t.jsonl"
    write_jsonl(str(trace), tracer)
    assert obs_main(["report", str(trace)]) == 0
    out = capsys.readouterr().out
    assert "critical path" in out and "fs.read" in out


def test_report_cli_missing_file_exits_2(tmp_path, capsys):
    assert obs_main(["report", str(tmp_path / "nope.jsonl")]) == 2
    assert "error" in capsys.readouterr().err
