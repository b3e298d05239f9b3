"""Exit codes and output shapes of ``python -m repro.sanitizer``."""

import json

import pytest

from repro.sanitizer.__main__ import main


def trace_line(name, start, **attrs):
    return json.dumps({
        "kind": "instant", "name": name, "cat": "cluster",
        "start": start, "end": start, "id": 0, "parent": None,
        "pid": 0, "tid": 0, "attrs": attrs,
    })


@pytest.fixture
def clean_trace(tmp_path):
    path = tmp_path / "clean.jsonl"
    path.write_text("\n".join([
        trace_line("cluster.replica_ack", 1.0, key="k", version=1, node="n1"),
        trace_line("cluster.commit", 1.1, key="k", version=1, size=64,
                   admitted="n1"),
    ]) + "\n", encoding="utf-8")
    return path


@pytest.fixture
def bad_trace(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text("\n".join([
        trace_line("cluster.commit", 1.0, key="k", version=1, size=64,
                   admitted="n1,n2"),
        trace_line("lb.readmit", 2.0, node="n3"),
    ]) + "\n", encoding="utf-8")
    return path


# -- check ------------------------------------------------------------------

def test_check_clean_trace_exits_zero(clean_trace, capsys):
    assert main(["check", str(clean_trace)]) == 0
    out = capsys.readouterr().out
    assert "0 violation(s)" in out
    assert "replicate_before_ack" in out  # the checked-invariants line


def test_check_violations_exit_one(bad_trace, capsys):
    assert main(["check", str(bad_trace)]) == 1
    out = capsys.readouterr().out
    assert "[replicate_before_ack]" in out
    assert "[eject_readmit_monotonic]" in out
    assert "2 violation(s)" in out


def test_check_invariant_selection_narrows(bad_trace, capsys):
    assert main(["check", str(bad_trace),
                 "--invariant", "in_sync_before_serve"]) == 0
    out = capsys.readouterr().out
    assert "checked [in_sync_before_serve]: 0 violation(s)" in out


def test_check_unknown_invariant_exits_two(clean_trace, capsys):
    assert main(["check", str(clean_trace),
                 "--invariant", "nope"]) == 2
    assert "unknown invariant" in capsys.readouterr().err


def test_check_missing_file_exits_two(tmp_path, capsys):
    assert main(["check", str(tmp_path / "absent.jsonl")]) == 2
    assert "cannot check" in capsys.readouterr().err


def test_check_malformed_trace_exits_two(tmp_path, capsys):
    path = tmp_path / "garbage.jsonl"
    path.write_text("not json\n", encoding="utf-8")
    assert main(["check", str(path)]) == 2
    assert "cannot check" in capsys.readouterr().err


@pytest.mark.parametrize("line", ["[1, 2]", '"x"', "null", "3"])
def test_check_non_object_trace_line_exits_two(tmp_path, capsys, line):
    path = tmp_path / "scalar.jsonl"
    path.write_text(line + "\n", encoding="utf-8")
    assert main(["check", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "malformed trace line" in err
    assert "expected a JSON object" in err


def test_check_json_format_payload(bad_trace, capsys):
    assert main(["check", str(bad_trace), "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["trace"] == str(bad_trace)
    assert payload["invariants"] == sorted(payload["invariants"])
    assert [v["invariant"] for v in payload["violations"]] == [
        "replicate_before_ack", "eject_readmit_monotonic"]
    assert all({"invariant", "pid", "time", "message"} <= set(v)
               for v in payload["violations"])


# -- lint -------------------------------------------------------------------

def test_lint_clean_file_exits_zero(tmp_path, capsys):
    path = tmp_path / "ok.py"
    path.write_text("def f(eng):\n    yield eng.timeout(1.0)\n",
                    encoding="utf-8")
    assert main(["lint", str(path)]) == 0
    assert "stale-read lint: 0 finding(s)" in capsys.readouterr().out


def test_lint_findings_exit_one(tmp_path, capsys):
    path = tmp_path / "stale.py"
    path.write_text(
        "def f(listener, eng):\n"
        "    live = listener.listening\n"
        "    yield eng.timeout(1.0)\n"
        "    return live\n",
        encoding="utf-8")
    assert main(["lint", str(path)]) == 1
    out = capsys.readouterr().out
    assert f"{path}:4:" in out
    assert "[R1:linear]" in out
    assert "stale-read lint: 1 finding(s)" in out


def test_lint_missing_path_exits_two(tmp_path, capsys):
    assert main(["lint", str(tmp_path / "absent")]) == 2
    assert "no such path" in capsys.readouterr().err


def test_lint_json_format_payload(tmp_path, capsys):
    path = tmp_path / "stale.py"
    path.write_text(
        "def f(listener, eng):\n"
        "    live = listener.listening\n"
        "    yield eng.timeout(1.0)\n"
        "    return live\n",
        encoding="utf-8")
    assert main(["lint", str(path), "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert [f["rule"] for f in payload["findings"]] == ["R1:linear"]
    assert payload["findings"][0]["local"] == "live"


def test_lint_directory_walk_is_deterministic(tmp_path, capsys):
    for name in ("b.py", "a.py"):
        (tmp_path / name).write_text(
            "def f(listener, eng):\n"
            "    live = listener.listening\n"
            "    yield eng.timeout(1.0)\n"
            "    return live\n",
            encoding="utf-8")
    assert main(["lint", str(tmp_path)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith(str(tmp_path / "a.py"))
    assert lines[1].startswith(str(tmp_path / "b.py"))


def test_production_tree_is_lint_clean(capsys):
    # The deliberate snapshots in src/ carry pragmas; the tree must
    # stay clean so the CI sweep is blocking.
    assert main(["lint", "src/repro"]) == 0
