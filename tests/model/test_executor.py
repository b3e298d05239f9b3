"""Tests for the machine executor and speedup studies."""

from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ModelError
from repro.model import (
    Application,
    ApplicationExecutor,
    MachineConfig,
    Program,
    WorkingSet,
    build_qcrd,
    cpu_speedup_study,
    disk_speedup_study,
    generate_application,
)
from repro.model.speedup import speedup_study


def tiny_app(phi=0.5, gamma=0.0, total=2.0, nprogs=1):
    progs = [
        Program(f"p{i}", [WorkingSet(phi, gamma, 1.0, 1)], total)
        for i in range(nprogs)
    ]
    return Application("tiny", progs)


def test_machine_config_validation():
    with pytest.raises(ModelError):
        MachineConfig(cpus=0)
    with pytest.raises(ModelError):
        MachineConfig(disks=0)
    with pytest.raises(ModelError):
        MachineConfig(io_chunk=0)
    with pytest.raises(ModelError):
        MachineConfig(io_rate=0)


def test_cpu_only_program_runs_for_cpu_time():
    app = tiny_app(phi=0.0, total=3.0)
    res = ApplicationExecutor(app).run()
    assert res.makespan == pytest.approx(3.0, rel=0.01)
    assert res.programs["p0"].cpu_busy == pytest.approx(3.0, rel=0.01)
    assert res.programs["p0"].io_busy == 0.0


def test_io_burst_time_close_to_model_demand():
    """Uncontended sequential I/O should track the model's demand
    (the paper reports <10% simulation error)."""
    app = tiny_app(phi=1.0, total=2.0)
    res = ApplicationExecutor(app).run()
    assert res.programs["p0"].io_busy == pytest.approx(2.0, rel=0.10)


def test_comm_burst_executes():
    app = tiny_app(phi=0.0, gamma=1.0, total=1.0)
    res = ApplicationExecutor(app).run()
    pr = res.programs["p0"]
    assert pr.comm_busy > 0
    assert pr.bytes_sent > 0
    assert pr.comm_busy == pytest.approx(1.0, rel=0.15)


def test_programs_run_concurrently():
    app = tiny_app(phi=0.0, total=5.0, nprogs=3)
    res = ApplicationExecutor(app).run()
    # Per-node CPUs: concurrent, so makespan ≈ one program's time.
    assert res.makespan == pytest.approx(5.0, rel=0.02)


def test_more_cpus_shrink_cpu_burst():
    app = tiny_app(phi=0.0, total=8.0)
    slow = ApplicationExecutor(app, MachineConfig(cpus=1)).run()
    fast = ApplicationExecutor(app, MachineConfig(cpus=8)).run()
    assert fast.makespan < slow.makespan / 4


def test_more_disks_shrink_io_burst():
    app = tiny_app(phi=1.0, total=4.0)
    slow = ApplicationExecutor(app, MachineConfig(disks=1)).run()
    fast = ApplicationExecutor(app, MachineConfig(disks=8)).run()
    assert fast.makespan < slow.makespan / 2


def test_result_aggregates():
    app = tiny_app(phi=0.5, total=2.0, nprogs=2)
    res = ApplicationExecutor(app).run()
    assert res.cpu_busy == pytest.approx(
        sum(p.cpu_busy for p in res.programs.values())
    )
    assert 0 < res.io_percentage < 100
    assert res.cpu_percentage + res.io_percentage == pytest.approx(100.0, abs=1.0)


def test_phase_counts_recorded():
    app = build_qcrd()
    res = ApplicationExecutor(app).run()
    assert res.programs["Program1"].phases_run == 24
    assert res.programs["Program2"].phases_run == 13


# ---------------------------------------------------------------------------
# Speedup studies (Figures 4-5 shapes)
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def qcrd_disk_speedups():
    return disk_speedup_study(build_qcrd(), counts=(2, 8, 32))


@pytest.fixture(scope="module")
def qcrd_cpu_speedups():
    return cpu_speedup_study(build_qcrd(), counts=(2, 8, 32))


def test_disk_speedup_is_flat_and_low(qcrd_disk_speedups):
    """Figure 4: 'the speedup changes slightly with the increasing
    value of the disk number'."""
    s = qcrd_disk_speedups
    assert s[1] == 1.0
    assert 1.0 <= s[2] <= 1.35
    assert 1.0 <= s[32] <= 1.5
    # Monotone but slight.
    assert s[2] <= s[8] <= s[32]


def test_cpu_speedup_exceeds_disk_speedup(qcrd_cpu_speedups, qcrd_disk_speedups):
    """'it is expected to efficiently improve the performance of QCRD
    by increasing the number of CPUs'."""
    assert qcrd_cpu_speedups[32] > qcrd_disk_speedups[32]


def test_cpu_speedup_rises_then_saturates(qcrd_cpu_speedups):
    """Figure 5 shape: grows toward ~2.1-2.4, then flattens."""
    s = qcrd_cpu_speedups
    assert s[2] > 1.2
    assert 1.9 <= s[32] <= 2.6
    # Saturation: going 8 → 32 adds little.
    assert s[32] - s[8] < 0.3


def test_speedup_study_validation():
    app = build_qcrd()
    with pytest.raises(ModelError):
        speedup_study(app, "gpus", counts=(2,))
    with pytest.raises(ModelError):
        speedup_study(app, "disks", counts=(0,))


def test_speedup_study_includes_baseline():
    s = disk_speedup_study(tiny_app(), counts=(2,))
    assert s[1] == 1.0
    assert set(s) == {1, 2}


# ---------------------------------------------------------------------------
# Synthetic generator
# ---------------------------------------------------------------------------

def test_synthetic_generation_reproducible():
    a = generate_application(seed=7)
    b = generate_application(seed=7)
    assert len(a.programs) == len(b.programs)
    for pa, pb in zip(a.programs, b.programs):
        assert pa.total_time == pb.total_time
        assert [ws.phi for ws in pa.working_sets] == [ws.phi for ws in pb.working_sets]


def test_synthetic_generation_varies_with_seed():
    a = generate_application(seed=1)
    b = generate_application(seed=2)
    sig_a = [(p.total_time, len(p.working_sets)) for p in a.programs]
    sig_b = [(p.total_time, len(p.working_sets)) for p in b.programs]
    assert sig_a != sig_b


def test_synthetic_applications_are_valid_and_runnable():
    app = generate_application(seed=3)
    for p in app.programs:
        assert p.execution_time == pytest.approx(p.total_time, rel=1e-6)
        for ws in p.working_sets:
            assert ws.phi + ws.gamma <= 1.0 + 1e-12
    # Scale down so the run is quick, then execute it end to end.
    small = Application(
        "small",
        [
            Program(p.name, p.working_sets, total_time=0.5)
            for p in app.programs
        ],
    )
    res = ApplicationExecutor(small).run()
    assert res.makespan > 0


def _executed(app, machine, stepped, settle=False):
    """Run ``app`` on ``machine``: through ``Engine.run``, or one
    ``step()`` at a time, settling the registry after every step when
    ``settle``.  Returns the result and the final registry snapshot."""
    from repro.model import executor

    engines = []

    class RecordingEngine(executor.Engine):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            engines.append(self)

        if stepped:
            def run(self, until=None):
                assert until is None
                while self._queue:
                    self.step()
                    if settle:
                        self.metrics.settle()
                return self._now

    with mock.patch.object(executor, "Engine", RecordingEngine):
        result = ApplicationExecutor(app, machine).run()
    (engine,) = engines
    return result, engine.metrics.snapshot()


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 8), st.integers(1, 2))
def test_reading_the_disks_every_step_changes_no_result(seed, disks, cpus):
    """Random applications from the synthetic generator give the same
    result, and every disk the same statistics, whether the registry is
    settled after every engine step or only read at the end."""
    from repro.model import SyntheticAppParams

    app = generate_application(seed=seed, params=SyntheticAppParams(
        programs=(1, 3), working_sets=(1, 4), total_time=(0.2, 1.5)))
    machine = MachineConfig(disks=disks, cpus=cpus)
    plain = _executed(app, machine, stepped=False)
    assert _executed(app, machine, stepped=True) == plain
    assert _executed(app, machine, stepped=True, settle=True) == plain


def test_synthetic_params_validation():
    from repro.model import SyntheticAppParams

    with pytest.raises(ModelError):
        SyntheticAppParams(programs=(0, 2))
    with pytest.raises(ModelError):
        SyntheticAppParams(io_fraction=(0.5, 0.2))
    with pytest.raises(ModelError):
        SyntheticAppParams(total_time=(0.0, 1.0))


def test_striped_run_heap_entries_are_pinned(monkeypatch):
    """Host-independent guard on the striped I/O path: the exact number
    of heap entries (``Engine._seq``) one small QCRD run pushes.  The
    nodes' striped disks commit FCFS service at enqueue, so a burst
    takes one entry for all its fragments; one entry per fragment would
    add ``fragments`` entries and fail this on any host.  The 33 CPU
    bursts that nothing queued can pre-empt sleep in their process's
    frame and take no entry."""
    from repro.model import executor

    engines = []

    class RecordingEngine(executor.Engine):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            engines.append(self)

    monkeypatch.setattr(executor, "Engine", RecordingEngine)
    result = ApplicationExecutor(
        build_qcrd(1.2, 0.55), MachineConfig(disks=8)).run()
    (engine,) = engines
    fragments = sum(engine.metrics.get(name).value
                    for name in engine.metrics.names()
                    if name.endswith(".completed"))
    assert result.makespan == pytest.approx(0.9845618658041327, rel=1e-12)
    assert fragments == 635
    assert engine._seq == 267
