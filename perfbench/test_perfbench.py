"""Tests for the benchmark's own code.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from checks import check_rep, digest, expected_digest  # noqa: E402
from layers import LAYERS, LayerTracer  # noqa: E402
from refloop import ReferenceLoop, normalize  # noqa: E402


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


# -- normalization ----------------------------------------------------------


def test_normalize_scales_by_mean_reference_time():
    # Host twice as slow as nominal: 2 CPU seconds read as 1.
    assert normalize(2.0, 0.08, 0.08, nominal=0.04) == pytest.approx(1.0)
    # The mean of before and after stands for the host speed.
    assert normalize(3.0, 0.02, 0.06, nominal=0.04) == pytest.approx(3.0)
    assert normalize(1.0, 0.01, 0.01, nominal=0.04) == pytest.approx(4.0)


def test_normalize_rejects_non_positive_reference():
    with pytest.raises(ValueError):
        normalize(1.0, 0.0, 0.04)


def test_reference_loop_is_deterministic_work():
    loop = ReferenceLoop()
    assert loop.run() == loop.run()
    assert loop.seconds() > 0


# -- self-time accounting ---------------------------------------------------


def test_nested_wrappers_subtract_from_parent():
    clock = FakeClock()
    tracer = LayerTracer(clock)
    inner = tracer.wrap("io", lambda: clock.advance(2.0))

    def outer_body():
        clock.advance(1.0)
        inner()
        clock.advance(3.0)

    outer = tracer.wrap("sim", outer_body)
    clock.advance(5.0)  # outside every wrapper: the bench's own time
    outer()
    assert tracer.self_s["sim"] == pytest.approx(4.0)
    assert tracer.self_s["io"] == pytest.approx(2.0)
    assert tracer.calls["sim"] == tracer.calls["io"] == 1
    bench = clock.now - sum(tracer.self_s.values())
    assert bench == pytest.approx(5.0)


def test_generator_resumptions_are_timed_and_nested_calls_subtracted():
    clock = FakeClock()
    tracer = LayerTracer(clock)
    storage_call = tracer.wrap("storage", lambda: clock.advance(0.5))

    def reader():
        clock.advance(1.0)
        got = yield "first"
        storage_call()
        clock.advance(got)
        yield "second"
        clock.advance(0.25)
        return "done"

    gen = tracer.wrap("io", reader)()
    assert next(gen) == "first"
    clock.advance(10.0)  # suspended: not the generator's time
    assert gen.send(2.0) == "second"
    with pytest.raises(StopIteration) as stop:
        next(gen)
    assert stop.value.value == "done"
    assert tracer.self_s["io"] == pytest.approx(1.0 + 2.0 + 0.25)
    assert tracer.self_s["storage"] == pytest.approx(0.5)
    # One call creating the generator plus three resumptions.
    assert tracer.calls["io"] == 4
    assert clock.now - sum(tracer.self_s.values()) == pytest.approx(10.0)


def test_exception_thrown_into_timed_generator_reaches_inner():
    tracer = LayerTracer(FakeClock())
    seen = []

    def waiter():
        try:
            yield "wait"
        except KeyError as exc:
            seen.append(exc)
            return "recovered"

    gen = tracer.timed_gen("sim", waiter())
    next(gen)
    with pytest.raises(StopIteration) as stop:
        gen.throw(KeyError("boom"))
    assert stop.value.value == "recovered"
    assert len(seen) == 1
    assert tracer._stack == []


def test_process_generators_charged_to_defining_layer():
    tracer = LayerTracer()
    assert tracer._layer_of("/x/src/repro/storage/disk.py") == "storage"
    assert tracer._layer_of("/x/src/repro/webserver/workload.py") == "webserver"
    assert tracer._layer_of("/x/src/repro/obs/tracer.py") is None
    assert tracer._layer_of("/x/perfbench/worker.py") is None


def test_installed_tracer_accounts_for_a_real_run_and_uninstalls():
    from repro.sim.engine import Engine
    from repro.webserver import WebServerHost

    def serve():
        host = WebServerHost()
        path = sorted(host.config.files)[0]
        results = host.run_request_sequence(
            [("GET", path), ("POST", "/upload", 4096), ("GET", path)])
        return [(r.status, r.body_bytes) for r in results], host.engine.now

    original_run = Engine.run
    untraced = serve()
    tracer = LayerTracer()
    tracer.install()
    try:
        start = tracer.clock()
        traced = serve()
        total = tracer.clock() - start
    finally:
        tracer.uninstall()
    assert Engine.run is original_run
    assert traced == untraced  # tracing does not perturb the simulation
    for layer in ("sim", "io", "cli", "webserver"):
        assert tracer.calls[layer] > 0, layer
    assert tracer.calls["cluster"] == tracer.calls["sanitizer"] == 0
    bench = total - sum(tracer.self_s.values())
    assert 0 <= bench < total
    assert set(tracer.self_s) == set(LAYERS)


# -- digest check -----------------------------------------------------------


OUTCOME = {"requests": 1536, "errors": 0, "aborted": 0,
           "duration": 1.0193927619017684}
COUNTS = {"sim.events": 54144, "cli.instructions": 19968}


def test_digest_check_accepts_exact_outcome():
    assert check_rep(OUTCOME, [], digest(OUTCOME), COUNTS, COUNTS) == []


def test_digest_check_rejects_perturbed_simulated_result():
    expected = digest(OUTCOME)
    perturbed = dict(OUTCOME, duration=OUTCOME["duration"] + 1e-12)
    reasons = check_rep(perturbed, [], expected, COUNTS, None)
    assert len(reasons) == 1 and "digest" in reasons[0]


def test_unrecorded_seed_falls_back_to_invariants():
    assert check_rep(OUTCOME, [], None, COUNTS, None) == []
    assert check_rep(OUTCOME, ["1 race(s) reported"], None, COUNTS,
                     None) == ["1 race(s) reported"]


def test_rep_identity_guard_rejects_less_work():
    memoized = dict(COUNTS, **{"sim.events": 0})
    reasons = check_rep(OUTCOME, [], None, memoized, COUNTS)
    assert reasons and "sim.events" in reasons[0]


def test_recorded_digest_matches_a_fresh_rep():
    from workloads import WORKLOADS

    workload = WORKLOADS["cluster_sanitize"]
    outcome = workload.rep(workload.inputs(0))
    assert workload.violations(outcome) == []
    assert digest(outcome) == expected_digest("cluster_sanitize", 0)
