"""Tests for the ``python -m repro.webserver`` load driver."""

import pytest

from repro.webserver.__main__ import main


def test_default_run(capsys):
    assert main(["--clients", "3", "--requests", "4"]) == 0
    out = capsys.readouterr().out
    assert "served          : 12 (0 errors)" in out
    assert "threads spawned : 12" in out
    assert "latency mean" in out


def test_profile_selection(capsys):
    assert main(["--clients", "1", "--requests", "2", "--profile", "interpreter"]) == 0
    out = capsys.readouterr().out
    assert "vm profile      : interpreter" in out


def test_pure_get_workload_has_no_writes(capsys):
    assert main(["--clients", "2", "--requests", "3", "--get-fraction", "1.0"]) == 0
    out = capsys.readouterr().out
    assert "server read mean" in out
    assert "server write mean" not in out


def test_deterministic_for_seed(capsys):
    main(["--clients", "2", "--requests", "3", "--seed", "9"])
    first = capsys.readouterr().out
    main(["--clients", "2", "--requests", "3", "--seed", "9"])
    second = capsys.readouterr().out
    assert first == second


@pytest.mark.parametrize("argv, message", [
    (["--clients", "0"], "error: num_clients must be >= 1"),
    (["--telemetry-interval-ms", "-1"], "error: telemetry interval must be > 0"),
])
def test_rejected_settings_are_usage_errors(argv, message, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""  # nothing ran
    assert message in captured.err
