"""``python -m tests.bench.work_counters --check``: the whole ledger,
recomputed and compared, failing at the first differing entry."""

import json

from tests.bench import work_counters
from tests.bench.work_counters import LEDGER, first_difference, main

PINNED = {"fig4": {"disk_requests": 5, "heap_entries": 7},
          "tab1": {"disk_requests": 1, "heap_entries": 2}}


def test_first_difference_names_the_experiment_and_counter():
    assert first_difference(PINNED, json.loads(json.dumps(PINNED))) is None
    moved = {"fig4": {"disk_requests": 5, "heap_entries": 8},
             "tab1": {"disk_requests": 0, "heap_entries": 2}}
    assert first_difference(PINNED, moved) == \
        "fig4 heap_entries: pinned 7, now 8"
    assert first_difference(PINNED, {"fig4": PINNED["fig4"]}) == \
        "tab1: not run"
    assert first_difference({"fig4": PINNED["fig4"]}, PINNED) == \
        "tab1: not pinned"


def test_check_exits_1_on_drift_and_writes_nothing(tmp_path, monkeypatch,
                                                   capsys):
    monkeypatch.setattr(work_counters, "ALL_EXPERIMENTS", ["tab1"])
    pinned = {"tab1": json.loads(LEDGER.read_text())["tab1"]}
    path = tmp_path / "ledger.json"
    path.write_text(json.dumps(pinned))
    assert main(["--check", str(path)]) == 0
    assert "all 1 experiments unchanged" in capsys.readouterr().out

    pinned["tab1"]["heap_entries"] += 1
    path.write_text(json.dumps(pinned))
    assert main(["--check", str(path)]) == 1
    assert "work ledger drift: tab1 heap_entries" in capsys.readouterr().out
    assert json.loads(path.read_text()) == pinned
