"""Tests for the exact regression comparator and the committed report."""

import json
from pathlib import Path

import pytest

from repro.bench.compare import compare_results, load_dump, main
from repro.bench.report import ExperimentResult
from repro.errors import BenchmarkError


def result(exp_id="e1", rows=None):
    return ExperimentResult(
        exp_id=exp_id,
        title="t",
        columns=("key", "value_ms"),
        rows=rows if rows is not None else [("a", 1.0), ("b", 2.0)],
    )


def test_no_drift_when_identical():
    a = {"e1": result()}
    b = {"e1": result()}
    assert compare_results(a, b) == []


def test_missing_experiment_and_row_are_structural_drifts():
    a = {"e1": result(), "e2": result("e2")}
    b = {"e1": result(rows=[("a", 1.0)])}
    drifts = compare_results(a, b)
    assert [(d.exp_id, d.where) for d in drifts] == [
        ("e1", "rows"), ("e2", "<presence>"),
    ]


def test_first_differing_cell_is_located():
    a = {"e1": result(rows=[("a", 1.0), ("a", 2.0)])}
    b = {"e1": result(rows=[("a", 1.0), ("a", 2.5)])}
    (drift,) = compare_results(a, b)
    assert drift.where == "row 1 value_ms"
    assert drift.render() == "e1 row 1 value_ms: 2.0 -> 2.5"


def test_load_dump_and_cli(tmp_path, capsys):
    before = [result(rows=[("a", 1.0)]).to_dict()]
    after = [result(rows=[("a", 5.0)]).to_dict()]
    pb = tmp_path / "before.json"
    pa = tmp_path / "after.json"
    pb.write_text(json.dumps(before))
    pa.write_text(json.dumps(after))

    loaded = load_dump(str(pb))
    assert "e1" in loaded

    assert main([str(pb), str(pa)]) == 1
    out = capsys.readouterr().out
    assert "drift" in out

    assert main([str(pb), str(pb)]) == 0
    assert "no drift" in capsys.readouterr().out


def test_load_dump_rejects_non_list(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"not": "a list"}))
    with pytest.raises(BenchmarkError):
        load_dump(str(p))


def test_unreadable_dump_exits_2(tmp_path, capsys):
    good = tmp_path / "good.json"
    good.write_text(json.dumps([result().to_dict()]))
    garbage = tmp_path / "garbage.json"
    garbage.write_text("{not json")
    malformed = tmp_path / "malformed.json"
    malformed.write_text(json.dumps([{"exp_id": "e1"}]))
    for bad in (tmp_path / "missing.json", garbage, malformed):
        with pytest.raises(BenchmarkError):
            load_dump(str(bad))
        assert main([str(good), str(bad)]) == 2
        captured = capsys.readouterr()
        assert "error" in captured.err and "drift" not in captured.out


def test_duplicate_experiment_in_dump_exits_2(tmp_path, capsys):
    """A repeated exp_id would let the second entry shadow the first."""
    p = tmp_path / "dup.json"
    p.write_text(json.dumps([result().to_dict(),
                             result(rows=[("a", 9.0)]).to_dict()]))
    with pytest.raises(BenchmarkError, match="more than once"):
        load_dump(str(p))
    assert main([str(p), str(p)]) == 2
    assert "'e1' appears more than once" in capsys.readouterr().err


def test_self_comparison_of_real_dump_is_clean(tmp_path, capsys):
    """A real harness dump compared against itself shows zero drift —
    end-to-end determinism of the whole pipeline."""
    from repro.bench.__main__ import main as bench_main

    p = tmp_path / "dump.json"
    bench_main(["tab4", "ext_eviction", "--json", str(p)])
    capsys.readouterr()
    assert main([str(p), str(p)]) == 0


# Mutations of the committed report that a keyed, numeric-only diff
# missed: each must make the comparator exit 1.

FULL_REPORT = Path(__file__).resolve().parents[2] / "results" / "full_report.json"

#: The experiments that take well under a second together.
CHEAP = ["tab1", "tab2", "tab3", "tab4", "tab5", "tab6", "fig2", "fig3",
         "ext_vm", "ext_eviction", "ext_degraded", "ext_cil", "ext_faults",
         "ext_prefetch", "ext_scheduler", "ext_comm"]


def test_cheap_experiments_match_committed_report():
    """A fresh run of every cheap experiment equals its committed rows,
    columns, title and notes exactly, and does exactly the work its
    entry in the ledger (``results/work_counters.json``) records."""
    from tests.bench.work_counters import LEDGER, run_counted

    golden = load_dump(str(FULL_REPORT))
    ledger = json.loads(LEDGER.read_text())
    fresh, work = {}, {}
    for exp_id in CHEAP:
        fresh[exp_id], work[exp_id] = run_counted(exp_id)
    assert compare_results({e: golden[e] for e in CHEAP}, fresh) == []
    assert work == {e: ledger[e] for e in CHEAP}


def _mutated_report_exit_code(tmp_path, mutate):
    data = json.loads(FULL_REPORT.read_text())
    mutate({entry["exp_id"]: entry for entry in data})
    p = tmp_path / "mutated.json"
    p.write_text(json.dumps(data))
    return main([str(FULL_REPORT), str(p)])


def test_shadowed_ext_cil_row_change_exits_1(tmp_path, capsys):
    """ext_cil has 12 rows but 3 distinct first cells."""
    def double_first_call(exps):
        cil = exps["ext_cil"]
        cil["rows"][0][cil["columns"].index("first_call_ms")] *= 2

    assert _mutated_report_exit_code(tmp_path, double_first_call) == 1
    assert "ext_cil row 0 first_call_ms" in capsys.readouterr().out


def test_one_word_note_change_exits_1(tmp_path, capsys):
    def reword(exps):
        notes = exps["tab6"]["notes"]
        words = notes[0].split(" ")
        words[-1] = "changed"
        notes[0] = " ".join(words)

    assert _mutated_report_exit_code(tmp_path, reword) == 1
    assert "tab6 note 0" in capsys.readouterr().out


def test_string_cell_change_outside_first_column_exits_1(tmp_path, capsys):
    def rename_kernel(exps):
        cil = exps["ext_cil"]
        cil["rows"][0][cil["columns"].index("kernel")] = "renamed"

    assert _mutated_report_exit_code(tmp_path, rename_kernel) == 1
    assert "ext_cil row 0 kernel: 'alloc' -> 'renamed'" in capsys.readouterr().out
