"""Tests for the ``python -m repro.traces`` command-line tool."""

import pytest

from repro.traces.__main__ import main


def test_generate_and_info(tmp_path, capsys):
    out = tmp_path / "dmine.umdt"
    assert main(["generate", "dmine", "-o", str(out)]) == 0
    assert out.exists()
    text = capsys.readouterr().out
    assert "wrote" in text

    assert main(["info", str(out)]) == 0
    text = capsys.readouterr().out
    assert "records" in text
    assert "read" in text
    assert "/data/sample.dat" in text


def test_generate_default_filename(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["generate", "cholesky"]) == 0
    assert (tmp_path / "cholesky.umdt").exists()


def test_replay_warm_and_cold(tmp_path, capsys):
    out = tmp_path / "chol.umdt"
    main(["generate", "cholesky", "-o", str(out)])
    capsys.readouterr()

    assert main(["replay", str(out)]) == 0
    warm = capsys.readouterr().out
    assert "replayed" in warm
    assert "JIT methods" in warm

    assert main(["replay", str(out), "--cold", "--policy", "adaptive"]) == 0
    cold = capsys.readouterr().out
    assert "replayed" in cold


def test_unknown_application_rejected():
    with pytest.raises(SystemExit):
        main(["generate", "not-an-app"])


@pytest.mark.parametrize("command", ["info", "replay"])
def test_unreadable_trace_is_a_usage_error(tmp_path, capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, str(tmp_path / "nope.umdt")])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "error: " in err and "nope.umdt" in err

    bad = tmp_path / "bad.umdt"
    bad.write_bytes(b"garbage")
    with pytest.raises(SystemExit) as exc:
        main([command, str(bad)])
    assert exc.value.code == 2
    assert "error: truncated trace header" in capsys.readouterr().err


def test_unwritable_output_is_a_usage_error(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["generate", "cholesky", "-o", str(tmp_path / "no" / "x.umdt")])
    assert exc.value.code == 2
    assert "error: " in capsys.readouterr().err
