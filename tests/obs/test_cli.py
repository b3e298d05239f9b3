"""The ``python -m repro.obs`` CLI: report --format json and timeline."""

import json

import pytest

from repro.obs import (
    Telemetry,
    TelemetryConfig,
    Tracer,
    analysis_to_dict,
    analyze,
    render_timeline_report,
    write_jsonl,
)
from repro.obs.__main__ import main as obs_main
from repro.obs.slo import AlertRule, SloSpec
from repro.sim import Engine, Tally


def _trace_file(tmp_path):
    tracer = Tracer()
    eng = Engine(tracer=tracer)

    def proc():
        for _ in range(3):
            start = eng.now
            yield eng.timeout(0.002)
            tracer.complete("fs.read", "filesystem", start)
        tracer.instant("cache.evict", "io")
        tracer.counter("queue", "storage", 2)

    eng.process(proc(), name="worker")
    eng.run()
    path = tmp_path / "trace.jsonl"
    write_jsonl(str(path), tracer)
    return path, tracer


def _series_file(tmp_path, rules=()):
    hub = Telemetry(TelemetryConfig(interval=0.5, rules=tuple(rules)))
    eng = Engine()
    tally = Tally("lat")
    eng.metrics.register("disk.latency", tally, device="d0")
    sampler = hub.attach(eng, node="n0")

    def proc():
        for v in (0.001, 0.050, 0.002):
            tally.record(v)
            yield eng.timeout(0.5)

    eng.process(proc())
    eng.run()
    sampler.finish()
    path = tmp_path / "series.jsonl"
    hub.write(str(path))
    return path


# -- report --format json ----------------------------------------------------

def test_report_json_round_trips_the_full_analysis(tmp_path, capsys):
    path, tracer = _trace_file(tmp_path)
    assert obs_main(["report", str(path), "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc == analysis_to_dict(analyze(tracer))
    assert doc["schema"] == "repro.obs.analysis"
    assert doc["trace"]["spans"] >= 3  # 3 fs.read + engine process spans
    names = {row["name"] for row in doc["rollup"]}
    assert "fs.read" in names
    assert "cache.evict" in doc["instants"]


def test_report_json_is_deterministic_text(tmp_path, capsys):
    path, _ = _trace_file(tmp_path)
    outputs = []
    for _ in range(2):
        assert obs_main(["report", str(path), "--format", "json"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


def test_report_text_remains_the_default(tmp_path, capsys):
    path, _ = _trace_file(tmp_path)
    assert obs_main(["report", str(path)]) == 0
    out = capsys.readouterr().out
    assert "span rollup" in out
    with pytest.raises(json.JSONDecodeError):
        json.loads(out)


# -- argument validation -----------------------------------------------------

@pytest.mark.parametrize("top", ["0", "-3"])
def test_report_rejects_non_positive_top(tmp_path, capsys, top):
    path, _ = _trace_file(tmp_path)
    assert obs_main(["report", str(path), "--top", top]) == 2
    err = capsys.readouterr().err
    assert "error" in err and "--top" in err


@pytest.mark.parametrize("top", ["0", "-3"])
def test_timeline_rejects_non_positive_top(tmp_path, capsys, top):
    path = _series_file(tmp_path)
    assert obs_main(["timeline", str(path), "--top", top]) == 2
    assert "--top" in capsys.readouterr().err


def test_timeline_rejects_narrow_width(tmp_path, capsys):
    path = _series_file(tmp_path)
    assert obs_main(["timeline", str(path), "--width", "5"]) == 2
    assert "--width" in capsys.readouterr().err


@pytest.mark.parametrize("line", ["[1, 2]", '"x"', "null"])
def test_report_non_object_trace_line_exits_2(tmp_path, capsys, line):
    path = tmp_path / "scalar.jsonl"
    path.write_text(line + "\n", encoding="utf-8")
    assert obs_main(["report", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "malformed trace line" in err


def test_timeline_missing_file_exits_2(tmp_path, capsys):
    assert obs_main(["timeline", str(tmp_path / "nope.jsonl")]) == 2
    assert "error" in capsys.readouterr().err


# -- timeline rendering ------------------------------------------------------

def test_timeline_renders_series_and_sparklines(tmp_path, capsys):
    path = _series_file(tmp_path)
    assert obs_main(["timeline", str(path)]) == 0
    out = capsys.readouterr().out
    assert "series (top" in out
    assert "disk.latency" in out
    assert "[disk]" in out
    assert "|" in out  # sparkline gutters
    assert "(no slo rules evaluated)" in out


def test_timeline_renders_slo_and_alert_sections(tmp_path, capsys):
    rules = (AlertRule(
        SloSpec("slow", "latency", "disk.latency",
                objective=0.010, stat="max")),)
    path = _series_file(tmp_path, rules=rules)
    assert obs_main(["timeline", str(path)]) == 0
    out = capsys.readouterr().out
    assert "slo status" in out
    assert "FIRING" in out and "RESOLVED" in out
    assert "slow" in out


def test_render_timeline_report_top_limits_series_rows():
    records = [{"kind": "telemetry.header", "interval": 1.0,
                "start": 0.0}]
    for i in range(5):
        records.append({
            "kind": "sample", "metric": f"m{i}", "type": "counter",
            "window": 0, "t0": 0.0, "t1": 1.0,
            "stats": {"delta": i, "value": i}, "labels": {"layer": "other"},
        })
    out = render_timeline_report(records, top=2)
    assert "3 more series" in out
