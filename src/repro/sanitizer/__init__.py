"""Deterministic concurrency sanitizer for the simulation kernel.

Three complementary checkers, one package:

* :mod:`repro.sanitizer.race` — a happens-before race detector.
  Each context logs the engine's own synchronization edges (process
  spawn/join, event trigger, resource hand-off, store item flow, task
  wake-ups) received at the current instant; hot shared structures
  are annotated with :func:`shared`, and a conflicting same-timestamp
  pair walks the log to learn whether its contexts are ordered.  All hooks are dormant unless a detector is installed via
  :func:`enable` / :func:`sanitized` — the disabled cost is one module
  attribute load and an ``is None`` test, so benchmark results are
  byte-identical with the sanitizer off.

* :mod:`repro.analysis.staleread` — a static AST lint for the
  stale-read-across-wait shape (cache a shared attribute in a local,
  yield, keep using the cache), surfaced here through the package CLI.

* :mod:`repro.sanitizer.invariants` — declarative protocol invariants
  (replicate-before-ack, in-sync-before-serve, no-acked-write-lost,
  eject/readmit monotonicity) checked post-hoc over obs JSONL traces.

Command line::

    python -m repro.sanitizer check trace.jsonl   # protocol invariants
    python -m repro.sanitizer lint src/repro      # stale-read lint

See ``docs/static-analysis.md`` for the full story.
"""

from __future__ import annotations

from repro.sanitizer.invariants import (
    INVARIANTS,
    Violation,
    check_events,
    check_trace_file,
)
from repro.sanitizer.race import (
    RaceDetector,
    RaceReport,
    SharedVar,
    disable,
    enable,
    sanitized,
    shared,
)

__all__ = [
    "INVARIANTS",
    "RaceDetector",
    "RaceReport",
    "SharedVar",
    "Violation",
    "check_events",
    "check_trace_file",
    "disable",
    "enable",
    "sanitized",
    "shared",
]
