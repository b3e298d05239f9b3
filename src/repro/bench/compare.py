"""Exact regression comparison of experiment-result dumps.

The simulator is deterministic, so any change to an experiment's
title, columns, rows or notes is a behavioural change.
``compare_results`` checks two JSON dumps produced by
``python -m repro.bench --json`` for equality of each experiment's
canonical JSON (``wall_seconds`` is host time and is left out)::

    python -m repro.bench --json before.json
    ... change something ...
    python -m repro.bench --json after.json
    python -m repro.bench.compare before.json after.json

Rows are compared by position, every cell and every note included.
The committed golden dump is ``results/full_report.json``; CI compares
a fresh sweep against it.

Exit status: 0 when every experiment is identical, 1 on drift, 2 on
bad input (an unreadable or malformed dump, or one that lists an
experiment twice).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Dict, List, Sequence

from repro.bench.report import ExperimentResult
from repro.errors import BenchmarkError

__all__ = ["Drift", "compare_results", "load_dump", "main"]


@dataclass(frozen=True)
class Drift:
    """The first difference inside one experiment.

    ``where`` is ``"<presence>"``, ``"title"``, ``"columns"``,
    ``"row <i> <column>"``, ``"rows"`` (row count), ``"note <i>"`` or
    ``"notes"`` (note count).
    """

    exp_id: str
    where: str
    before: Any
    after: Any

    def render(self) -> str:
        return f"{self.exp_id} {self.where}: {self.before!r} -> {self.after!r}"


def load_dump(path: str) -> Dict[str, ExperimentResult]:
    """Load a ``--json`` dump into {exp_id: ExperimentResult}.

    Raises :class:`BenchmarkError` if the file cannot be read or
    parsed, is not a list of experiment dumps, or repeats an
    ``exp_id`` (a later entry would silently shadow an earlier one).
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, ValueError) as exc:
        raise BenchmarkError(f"{path}: cannot load dump ({exc})") from None
    if not isinstance(data, list):
        raise BenchmarkError(f"{path}: expected a list of experiment dumps")
    out = {}
    for entry in data:
        try:
            result = ExperimentResult.from_dict(entry)
        except (KeyError, TypeError) as exc:
            raise BenchmarkError(
                f"{path}: malformed experiment dump ({exc!r})") from None
        if result.exp_id in out:
            raise BenchmarkError(f"{path}: experiment {result.exp_id!r} "
                                 "appears more than once")
        out[result.exp_id] = result
    return out


def _canonical(value: Any) -> str:
    return json.dumps(value, sort_keys=True)


def _first_difference(exp_id: str, a: dict, b: dict) -> Drift:
    """Locate the first difference between two unequal experiments."""
    for key in ("title", "columns"):
        if _canonical(a[key]) != _canonical(b[key]):
            return Drift(exp_id, key, a[key], b[key])
    for i, (ra, rb) in enumerate(zip(a["rows"], b["rows"])):
        for column, va, vb in zip(a["columns"], ra, rb):
            if _canonical(va) != _canonical(vb):
                return Drift(exp_id, f"row {i} {column}", va, vb)
    if len(a["rows"]) != len(b["rows"]):
        return Drift(exp_id, "rows", len(a["rows"]), len(b["rows"]))
    for i, (na, nb) in enumerate(zip(a["notes"], b["notes"])):
        if na != nb:
            return Drift(exp_id, f"note {i}", na, nb)
    return Drift(exp_id, "notes", len(a["notes"]), len(b["notes"]))


def compare_results(
    before: Dict[str, ExperimentResult],
    after: Dict[str, ExperimentResult],
) -> List[Drift]:
    """One :class:`Drift` per experiment whose canonical JSON differs
    (or which is present on one side only), in experiment-id order."""
    drifts: List[Drift] = []
    for exp_id in sorted(set(before) | set(after)):
        a = before.get(exp_id)
        b = after.get(exp_id)
        if a is None or b is None:
            drifts.append(Drift(exp_id, "<presence>", a is not None, b is not None))
            continue
        da, db = a.to_dict(), b.to_dict()
        if _canonical(da) != _canonical(db):
            drifts.append(_first_difference(exp_id, da, db))
    return drifts


def main(argv: Sequence[str] | None = None) -> int:
    """CLI: exit 0 if every experiment is identical, 1 on drift, 2 on
    bad input."""
    import argparse
    import sys

    parser = argparse.ArgumentParser(prog="python -m repro.bench.compare")
    parser.add_argument("before")
    parser.add_argument("after")
    args = parser.parse_args(argv)
    try:
        before = load_dump(args.before)
        after = load_dump(args.after)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    drifts = compare_results(before, after)
    if not drifts:
        print(f"no drift: {len(before)} experiments identical "
              "(title, columns, rows, notes)")
        return 0
    print(f"drift in {len(drifts)} experiment(s); first difference in each:")
    for drift in drifts:
        print(f"  {drift.render()}")
    return 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
