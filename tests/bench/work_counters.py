"""The per-experiment work ledger, ``results/work_counters.json``.

Host-independent counts of the work each experiment does, read from
the engines and disks it builds while it runs:

* ``heap_entries`` — the sum of ``Engine._seq`` (every sequence number
  an engine handed out: one per heap entry it queued, plus one per
  committed disk request or range, whose entry reuses it, and one per
  process finish nobody awaited, which queues no entry);
* ``disk_requests`` — the sum of the disks' ``requests_completed``;
* ``processes_spawned`` — the :class:`~repro.sim.process.Process`
  objects built;
* ``process_wakeups`` — the times the engine resumed a process (its
  start, and each event it waited on).  A sleep a process takes in its
  own frame is not a wake-up: the generator resumes without leaving
  ``Process._resume``;
* ``cache_hits``, ``cache_misses`` and ``cache_evictions`` — the sums
  of the buffer caches' page hits, cold misses and evictions
  (:class:`~repro.io.buffercache.CacheStats`);
* ``cil_instructions`` — the sum of the interpreters'
  ``instructions_executed``: CIL instructions retired.

A change that moves a counter on purpose re-pins the ledger and says
which entries moved, and why, in CHANGES.md::

    PYTHONPATH=src python -m tests.bench.work_counters [PATH]

``--check`` recomputes every experiment and compares instead of
writing: it prints the first differing entry and exits 1 (CI runs it)::

    PYTHONPATH=src python -m tests.bench.work_counters --check
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional

from repro.bench.experiments import ALL_EXPERIMENTS, run_experiment
from repro.cli.interpreter import Interpreter
from repro.io.buffercache import BufferCache
from repro.sim import Engine
from repro.sim.process import Process
from repro.storage import Disk

LEDGER = Path(__file__).resolve().parents[2] / "results" / "work_counters.json"

#: The classes whose instances :func:`census` records.
RECORDED = (Engine, Disk, BufferCache, Interpreter)


@contextmanager
def census() -> Iterator[Dict[Any, Any]]:
    """Every :class:`Engine`, :class:`Disk`, :class:`BufferCache` and
    :class:`Interpreter` built inside the block, by class (subclasses
    included), and, under ``Process``, the counts of processes built and
    of their wake-ups."""
    born: Dict[Any, Any] = {cls: [] for cls in RECORDED}
    tally = born[Process] = {"spawned": 0, "wakeups": 0}

    def recording(init, instances):
        def __init__(obj, *args, **kwargs):
            init(obj, *args, **kwargs)
            instances.append(obj)
        return __init__

    def counting(method, key):
        def counted(obj, *args, **kwargs):
            tally[key] += 1
            return method(obj, *args, **kwargs)
        return counted

    patches = {
        **{(cls, "__init__"): recording(cls.__init__, born[cls])
           for cls in RECORDED},
        (Process, "__init__"): counting(Process.__init__, "spawned"),
        (Process, "_resume"): counting(Process._resume, "wakeups"),
    }
    originals = {(cls, name): cls.__dict__[name] for cls, name in patches}
    for (cls, name), patched in patches.items():
        setattr(cls, name, patched)
    try:
        yield born
    finally:
        for (cls, name), original in originals.items():
            setattr(cls, name, original)


def counters(born: Dict[Any, Any]) -> Dict[str, int]:
    return {
        "heap_entries": sum(engine._seq for engine in born[Engine]),
        "disk_requests": sum(disk.requests_completed.value
                             for disk in born[Disk]),
        "processes_spawned": born[Process]["spawned"],
        "process_wakeups": born[Process]["wakeups"],
        "cache_hits": sum(cache.stats.hits for cache in born[BufferCache]),
        "cache_misses": sum(cache.stats.misses
                            for cache in born[BufferCache]),
        "cache_evictions": sum(cache.stats.evictions
                               for cache in born[BufferCache]),
        "cil_instructions": sum(interp.instructions_executed.value
                                for interp in born[Interpreter]),
    }


def run_counted(exp_id: str):
    """Run one experiment; returns its result and its counters."""
    with census() as born:
        result = run_experiment(exp_id)
    return result, counters(born)


def first_difference(pinned: Dict[str, Dict[str, int]],
                     fresh: Dict[str, Dict[str, int]]) -> Optional[str]:
    """The first entry, by experiment then counter, where two ledgers
    differ, described; ``None`` when they are equal."""
    for exp_id in sorted(set(pinned) | set(fresh)):
        old, new = pinned.get(exp_id), fresh.get(exp_id)
        if old is None or new is None:
            return f"{exp_id}: {'not pinned' if old is None else 'not run'}"
        for key in sorted(set(old) | set(new)):
            if old.get(key) != new.get(key):
                return f"{exp_id} {key}: pinned {old.get(key)}, now {new.get(key)}"
    return None


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m tests.bench.work_counters",
        description="Recompute every experiment's work counters and "
                    "write the ledger, or check it.")
    parser.add_argument("path", nargs="?", type=Path, default=LEDGER)
    parser.add_argument("--check", action="store_true",
                        help="compare with the ledger at PATH instead of "
                             "writing it; exit 1 at the first difference")
    args = parser.parse_args(argv)
    ledger = {exp_id: run_counted(exp_id)[1]
              for exp_id in sorted(ALL_EXPERIMENTS)}
    if args.check:
        difference = first_difference(
            json.loads(args.path.read_text()), ledger)
        if difference is not None:
            print(f"work ledger drift: {difference}")
            return 1
        print(f"{args.path}: all {len(ledger)} experiments unchanged")
        return 0
    args.path.write_text(json.dumps(ledger, indent=1, sort_keys=True) + "\n")
    total = {key: sum(entry[key] for entry in ledger.values())
             for key in ledger[min(ledger)]}
    print(f"wrote {args.path}: {len(ledger)} experiments, {total}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
