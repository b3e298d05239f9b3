"""Tracer core: spans on the simulated clock, nesting, category
filtering, null-tracer zero-cost guarantees."""

import pytest

from repro.errors import SimulationError
from repro.obs import NULL_TRACER, NullTracer, Tracer, render_summary, summarize
from repro.sim import Engine


def test_span_times_follow_engine_clock():
    tracer = Tracer()
    eng = Engine(tracer=tracer)

    def proc():
        span = tracer.begin("outer", "test")
        yield eng.timeout(2.0)
        span.end()

    eng.process(proc())
    eng.run()
    (span,) = tracer.spans("test")
    assert span.start == 0.0
    assert span.end == 2.0
    assert span.duration == 2.0


def test_spans_nest_via_parent_ids():
    tracer = Tracer()
    eng = Engine(tracer=tracer)

    def proc():
        with tracer.span("outer", "test"):
            yield eng.timeout(1.0)
            with tracer.span("inner", "test"):
                yield eng.timeout(1.0)
            yield eng.timeout(1.0)

    eng.process(proc())
    eng.run()
    spans = {s.name: s for s in tracer.spans("test")}
    assert spans["inner"].parent_id == spans["outer"].span_id
    assert spans["outer"].parent_id is None
    # Inner closes first, so it is recorded first.
    assert [s.name for s in tracer.spans("test")] == ["inner", "outer"]
    assert spans["inner"].start == 1.0 and spans["inner"].end == 2.0
    assert spans["outer"].start == 0.0 and spans["outer"].end == 3.0


def test_sibling_spans_do_not_nest():
    tracer = Tracer()
    eng = Engine(tracer=tracer)

    def proc():
        with tracer.span("first", "test"):
            yield eng.timeout(1.0)
        with tracer.span("second", "test"):
            yield eng.timeout(1.0)

    eng.process(proc())
    eng.run()
    spans = {s.name: s for s in tracer.spans("test")}
    assert spans["second"].parent_id is None


def test_complete_records_retroactive_span():
    tracer = Tracer()
    eng = Engine(tracer=tracer)

    def proc():
        start = eng.now
        yield eng.timeout(3.0)
        tracer.complete("op", "test", start, device="d0")

    eng.process(proc())
    eng.run()
    (span,) = tracer.spans("test")
    assert (span.start, span.end) == (0.0, 3.0)
    assert span.attrs == {"device": "d0"}


def test_complete_rejects_negative_duration():
    tracer = Tracer()
    Engine(tracer=tracer)
    with pytest.raises(SimulationError):
        tracer.complete("op", "test", start=5.0, end=1.0)


def test_double_end_rejected():
    tracer = Tracer()
    Engine(tracer=tracer)
    span = tracer.begin("op", "test")
    span.end()
    with pytest.raises(SimulationError):
        span.end()


def test_instants_and_counters():
    tracer = Tracer()
    eng = Engine(tracer=tracer)

    def proc():
        yield eng.timeout(1.0)
        tracer.instant("evict", "io", page=7)
        tracer.counter("queue", "storage", 3)

    eng.process(proc())
    eng.run()
    kinds = {e.kind: e for e in tracer.events if e.category in ("io", "storage")}
    assert kinds["instant"].attrs == {"page": 7}
    assert kinds["instant"].start == kinds["instant"].end == 1.0
    assert kinds["counter"].attrs == {"value": 3}


def test_category_filter_drops_unwanted():
    tracer = Tracer(categories=["keep"])
    Engine(tracer=tracer)
    tracer.instant("a", "keep")
    tracer.instant("b", "drop")
    tracer.complete("c", "drop", 0.0)
    assert [e.name for e in tracer.events] == ["a"]


def test_attach_opens_new_process_group():
    tracer = Tracer()
    Engine(tracer=tracer)
    tracer.instant("first", "test")
    Engine(tracer=tracer)
    tracer.name_process("second-run")
    tracer.instant("second", "test")
    pids = {e.name: e.pid for e in tracer.events if e.category == "test"}
    assert pids["second"] == pids["first"] + 1
    assert tracer.process_names[pids["second"]] == "second-run"


def test_engine_emits_run_and_process_spans():
    tracer = Tracer()
    eng = Engine(tracer=tracer)

    def proc():
        yield eng.timeout(1.0)

    eng.process(proc(), name="worker")
    eng.run()
    names = {s.name for s in tracer.spans("sim")}
    assert "engine.run" in names
    assert "process:worker" in names


def test_null_tracer_is_default_and_inert():
    eng = Engine()
    assert eng.tracer is NULL_TRACER
    assert not eng.tracer.enabled

    def proc():
        yield eng.timeout(1.0)

    eng.process(proc())
    eng.run()
    assert len(eng.tracer) == 0


def test_null_tracer_api_is_noop():
    tracer = NullTracer()
    tracer.attach(object())
    tracer.name_process("x")
    with tracer.span("a", "b"):
        pass
    tracer.complete("a", "b", 0.0)
    tracer.instant("a")
    tracer.counter("a", "b", 1)
    assert len(tracer) == 0


def test_clear_resets_buffer():
    tracer = Tracer()
    Engine(tracer=tracer)
    tracer.instant("a", "t")
    tracer.instant("b", "t")
    tracer.clear()
    assert len(tracer) == 0


def test_summarize_aggregates_spans():
    tracer = Tracer()
    Engine(tracer=tracer)
    tracer.complete("read", "io", 0.0, end=2.0)
    tracer.complete("read", "io", 0.0, end=4.0)
    tracer.instant("noise", "io")
    rows = summarize(tracer)
    row = rows[("io", "read")]
    assert row["count"] == 2
    assert row["total_s"] == 6.0
    assert row["mean_s"] == 3.0
    assert row["max_s"] == 4.0
    text = render_summary(tracer)
    assert "read" in text and "noise" not in text


def test_summarize_collapses_instance_names():
    tracer = Tracer()
    Engine(tracer=tracer)
    tracer.complete("process:prefetch[1:0+8]", "sim", 0.0)
    tracer.complete("process:prefetch[1:8+8]", "sim", 0.0)
    tracer.complete("process:worker-3", "sim", 0.0)
    rows = summarize(tracer)
    assert rows[("sim", "process:prefetch[*]")]["count"] == 2
    assert rows[("sim", "process:worker-*")]["count"] == 1
    raw = summarize(tracer, collapse=False)
    assert rows != raw and len(raw) == 3
