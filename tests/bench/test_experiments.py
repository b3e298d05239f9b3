"""Tests for the experiment registry and the fast experiments.

(The slower figure experiments are exercised end-to-end by the
benchmarks/ suite; here we cover registry behaviour and the cheap
table experiments' structure.)
"""

import pytest

from repro.bench import ALL_EXPERIMENTS, run_experiment
from repro.bench.experiments.extensions import run_ext_comm, run_ext_vm
from repro.bench.experiments.tab5_tab6_webserver import run_tab5, run_tab6
from repro.bench.experiments.tables_traces import run_tab3, run_tab4
from repro.errors import BenchmarkError


def test_registry_covers_every_paper_artifact():
    # Figures 2-6 (fig6 is tab6's plot) and Tables 1-6.
    for exp in ("fig2", "fig3", "fig4", "fig5",
                "tab1", "tab2", "tab3", "tab4", "tab5", "tab6"):
        assert exp in ALL_EXPERIMENTS, exp


def test_registry_covers_every_extension():
    for exp in ("ext_prefetch", "ext_scheduler", "ext_vm", "ext_comm",
                "ext_cil", "ext_dist", "ext_eviction", "ext_pgrep"):
        assert exp in ALL_EXPERIMENTS, exp


def test_ext_pgrep_structure():
    from repro.bench.experiments.extensions import run_ext_pgrep

    result = run_ext_pgrep()
    modes = result.column("mode")
    assert modes == ["sequential-fcfs", "concurrent-fcfs", "concurrent-sstf"]
    streams = dict(zip(modes, result.column("streams")))
    assert streams["sequential-fcfs"] == 1
    assert streams["concurrent-fcfs"] == 4
    # Queueing inflates concurrent per-read response.
    reads = dict(zip(modes, result.column("read_ms")))
    assert reads["concurrent-fcfs"] > 2 * reads["sequential-fcfs"]
    # close > open everywhere.
    for open_ms, close_ms in zip(result.column("open_ms"), result.column("close_ms")):
        assert close_ms > open_ms


def test_unknown_experiment_rejected():
    with pytest.raises(BenchmarkError):
        run_experiment("fig99")


def test_tab3_structure():
    result = run_tab3()
    assert result.exp_id == "tab3"
    assert len(result.rows) == 6
    assert result.column("data_size_bytes")[0] == 66617088


def test_tab4_structure():
    result = run_tab4()
    assert len(result.rows) == 16
    # Paper comparison column present for every row.
    assert all(row[-1] is not None for row in result.rows)


def test_tab5_structure():
    result = run_tab5()
    assert len(result.rows) == 3
    assert result.column("data_size_bytes") == [7501, 50607, 14063]


def test_tab6_structure_and_custom_trials():
    result = run_tab6(trials=4)
    assert len(result.rows) == 4
    assert result.column("trial") == [1, 2, 3, 4]
    # Beyond the published 6 trials, the paper column is None.
    longer = run_tab6(trials=8)
    assert longer.rows[-1][-1] is None


def test_ext_vm_covers_all_profiles():
    from repro.cli.profiles import VM_PROFILES

    result = run_ext_vm(trials=3)
    assert sorted(result.column("vm_profile")) == sorted(VM_PROFILES)
    for ratio in result.column("warmup_ratio"):
        assert ratio > 1.0


def test_ext_comm_measured_tracks_model():
    result = run_ext_comm()
    model = result.rows[0]
    measured = result.rows[1]
    for m, s in zip(model[1:], measured[1:]):
        assert s == pytest.approx(m, rel=0.15)


def test_main_module_runs_a_cheap_subset(capsys):
    from repro.bench.__main__ import main

    assert main(["tab4"]) == 0
    out = capsys.readouterr().out
    assert "tab4" in out
    assert "Cholesky" in out


@pytest.mark.parametrize("argv, message", [
    (["tab1", "nope"], "unknown experiment(s): nope"),
    (["tab1", "--jobs", "0"], "--jobs must be >= 1, got 0"),
])
def test_main_rejects_bad_arguments_before_running(argv, message, capsys):
    from repro.bench.__main__ import main

    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""  # no table was printed
    assert message in captured.err


def test_ext_arch_structure_and_memory_proxy():
    from repro.bench.experiments.arch import run_ext_arch

    result = run_ext_arch(total_requests=64)
    assert result.exp_id == "ext_arch"
    scenarios = result.column("scenario")
    # 3 concurrency levels x 2 architectures x {clean, faults}.
    assert len(scenarios) == 12
    assert "thread-c16" in scenarios and "eventloop-c16-faults" in scenarios
    rows = dict(zip(scenarios, result.rows))
    # Memory proxy: threaded grows with concurrency, event loop pinned at 1.
    peak = dict(zip(scenarios, result.column("peak_processes")))
    assert peak["thread-c64"] == 65
    assert peak["eventloop-c64"] == 1
    assert peak["thread-c4"] < peak["thread-c64"]
    # Clean rows complete every request with no retries.
    assert rows["thread-c4"][result.columns.index("retries")] == 0
    # Faulted rows exercised the client retry path identically.
    thread_retries = rows["thread-c16-faults"][result.columns.index("retries")]
    event_retries = rows["eventloop-c16-faults"][result.columns.index("retries")]
    assert thread_retries > 0
    assert thread_retries == event_retries
