"""The per-experiment work ledger, ``results/work_counters.json``.

Host-independent counts of the work each experiment does, read from
the engines and disks it builds while it runs:

* ``heap_entries`` — the sum of ``Engine._seq`` (every sequence number
  an engine handed out: one per heap entry it queued, plus one per
  committed disk request or range, whose entry reuses it);
* ``disk_requests`` — the sum of the disks' ``requests_completed``.

A change that moves a counter on purpose re-pins the ledger and says
which entries moved, and why, in CHANGES.md::

    PYTHONPATH=src python -m tests.bench.work_counters [PATH]
"""

from __future__ import annotations

import json
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, List

from repro.bench.experiments import ALL_EXPERIMENTS, run_experiment
from repro.sim import Engine
from repro.storage import Disk

LEDGER = Path(__file__).resolve().parents[2] / "results" / "work_counters.json"


@contextmanager
def census() -> Iterator[Dict[type, List]]:
    """Every :class:`Engine` and :class:`Disk` built inside the block,
    by class (subclasses included)."""
    born: Dict[type, List] = {Engine: [], Disk: []}
    originals = [(cls, cls.__dict__["__init__"]) for cls in born]

    def recording(init, instances):
        def __init__(obj, *args, **kwargs):
            init(obj, *args, **kwargs)
            instances.append(obj)
        return __init__

    for cls, init in originals:
        cls.__init__ = recording(init, born[cls])
    try:
        yield born
    finally:
        for cls, init in originals:
            cls.__init__ = init


def counters(born: Dict[type, List]) -> Dict[str, int]:
    return {
        "heap_entries": sum(engine._seq for engine in born[Engine]),
        "disk_requests": sum(disk.requests_completed.value
                             for disk in born[Disk]),
    }


def run_counted(exp_id: str):
    """Run one experiment; returns its result and its counters."""
    with census() as born:
        result = run_experiment(exp_id)
    return result, counters(born)


def main(argv: List[str]) -> int:
    path = Path(argv[0]) if argv else LEDGER
    ledger = {exp_id: run_counted(exp_id)[1]
              for exp_id in sorted(ALL_EXPERIMENTS)}
    path.write_text(json.dumps(ledger, indent=1, sort_keys=True) + "\n")
    total = {key: sum(entry[key] for entry in ledger.values())
             for key in ("heap_entries", "disk_requests")}
    print(f"wrote {path}: {len(ledger)} experiments, {total}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
