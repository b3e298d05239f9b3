"""Stale-read-across-wait lint for simulator source.

Both PR 8 concurrency bugs had the same static shape: a generator
cached a *mutable shared attribute* in a local, hit a wait point
(``yield`` / ``yield from``), and kept using the cached value after
resuming — while the world it described had moved on (a listener
stopped, a replica got readmitted).  This pass flags that shape.

A finding needs all three of:

1. a local assigned from an expression that reads a **shared-state
   attribute** — an attribute whose name is in :data:`SHARED_ATTRS`
   and whose owner is *not* plain ``self`` (a component caching its
   own private state is its own business; caching *another*
   component's health/membership/backlog state across a wait is the
   bug class);
2. a wait point between the assignment and a later use — either
   lexically (``R1``), or via a loop back edge when the loop body
   contains a wait (``R2``: the local is refreshed at the bottom of
   the loop but used at the top, ``R3``: the local is computed before
   the loop and never refreshed inside it);
3. no ``# sanitizer: allow`` pragma on the use or assignment line.
   Deliberate snapshots (a read walking a fixed replica order, a
   re-checked rebuild scan) carry the pragma plus a comment saying
   *why* the staleness is tolerated.

The lint is syntactic and line-based by design — it over-approximates
control flow the same way the determinism lint does, and the pragma is
the escape hatch.  Diagnostics are deterministic: sorted by
``(path, line, column, local)``.

Run via ``python -m repro.sanitizer lint`` (see
``docs/static-analysis.md``).
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, List, Optional, Set, Tuple

__all__ = [
    "PRAGMA",
    "ParseFinding",
    "SHARED_ATTRS",
    "StaleReadFinding",
    "lint_file",
    "lint_paths",
    "lint_source",
]

PRAGMA = "sanitizer: allow"

#: Attribute/method names treated as mutable shared state when read off
#: an object other than plain ``self``.  Curated from the simulator's
#: cross-component surfaces: listener lifecycle, balancer health and
#: membership, replication-log promises, node liveness, and the
#: queue/resource occupancy counters.
SHARED_ATTRS = frozenset({
    # listener / network state
    "listening", "pending", "refused",
    # node liveness
    "is_up", "is_reachable", "rebuild_progress", "is_alive",
    # balancer membership + health
    "is_admitted", "is_in_sync", "admitted", "in_sync",
    "write_targets", "read_order", "healthy_nodes", "replicas",
    "is_fully_replicated",
    # replication-log promises
    "replicas_of", "expected_size", "stored_size",
    # resource / store / loop occupancy
    "count", "in_use", "available", "queued", "live", "live_workers",
    # buffer-cache residency
    "is_resident", "is_dirty", "resident_pages", "dirty_pages",
})


class StaleReadFinding:
    """One flagged use of a stale-cached shared read."""

    def __init__(self, path: Path, line: int, col: int, local: str,
                 shared_expr: str, assign_line: int, rule: str) -> None:
        self.path = path
        self.line = line
        self.col = col
        self.local = local
        self.shared_expr = shared_expr
        self.assign_line = assign_line
        self.rule = rule

    @property
    def message(self) -> str:
        return (
            f"local {self.local!r} caches shared state "
            f"({self.shared_expr!r}, line {self.assign_line}) and is used "
            f"across a wait point [{self.rule}]; re-read it after resuming "
            f"or annotate with '# {PRAGMA}'"
        )

    def to_dict(self) -> dict:
        return {
            "path": str(self.path),
            "line": self.line,
            "col": self.col,
            "local": self.local,
            "shared": self.shared_expr,
            "assign_line": self.assign_line,
            "rule": self.rule,
            "message": self.message,
        }

    def __str__(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.message}"


class ParseFinding(StaleReadFinding):
    """A module the lint could not parse: still a finding, so the run
    fails rather than passing a file it never read."""

    def __init__(self, path: Path, error: SyntaxError) -> None:
        super().__init__(path, error.lineno or 0, 0, "<syntax>",
                         "<syntax error>", error.lineno or 0, "parse")
        self.error = error.msg

    @property
    def message(self) -> str:
        return f"cannot parse: {self.error}"


def _dotted(node: ast.AST) -> str:
    """Best-effort source-ish rendering of an attribute chain."""
    if isinstance(node, ast.Attribute):
        return f"{_dotted(node.value)}.{node.attr}"
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Call):
        return _dotted(node.func)
    return "<expr>"


def _shared_read(expr: ast.AST) -> Optional[str]:
    """The first shared-state attribute read inside ``expr`` whose
    owner is not plain ``self``, rendered as a dotted chain."""
    for node in ast.walk(expr):
        if (
            isinstance(node, ast.Attribute)
            and node.attr in SHARED_ATTRS
            and not (isinstance(node.value, ast.Name)
                     and node.value.id == "self")
        ):
            return _dotted(node)
    return None


class _Assign:
    __slots__ = ("line", "shared")

    def __init__(self, line: int, shared: Optional[str]) -> None:
        self.line = line
        self.shared = shared


class _FunctionScan:
    """Per-function facts: assignments, uses, waits, yielding loops.

    Nested function bodies are excluded — they are scanned as their
    own functions.
    """

    def __init__(self, func: ast.AST) -> None:
        self.assigns: Dict[str, List[_Assign]] = {}
        self.uses: Dict[str, List[Tuple[int, int]]] = {}
        self.yields: List[int] = []
        #: (start_line, end_line) of loops whose body contains a wait.
        self.yield_loops: List[Tuple[int, int]] = []
        for stmt in getattr(func, "body", []):
            self._scan(stmt)
        self.yields.sort()

    # -- collection --------------------------------------------------------

    def _scan(self, node: ast.AST) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            return  # separate scope, scanned separately
        if isinstance(node, (ast.Yield, ast.YieldFrom)):
            self.yields.append(node.lineno)
        elif isinstance(node, (ast.For, ast.While)):
            if self._contains_wait(node):
                self.yield_loops.append(
                    (node.lineno, node.end_lineno or node.lineno))
        if isinstance(node, ast.Assign):
            shared = _shared_read(node.value)
            for target in node.targets:
                self._record_target(target, node.lineno, shared)
            # Scan the RHS itself, not just its children: in
            # ``x = yield from f()`` the wait point *is* the RHS node.
            self._scan(node.value)
            return
        if isinstance(node, ast.AnnAssign) and node.value is not None:
            self._record_target(node.target, node.lineno,
                                _shared_read(node.value))
            self._scan(node.value)
            return
        if isinstance(node, ast.AugAssign):
            # x += ... both uses and redefines x; the redefinition is
            # derived from the old value, so keep it untagged.
            if isinstance(node.target, ast.Name):
                self._record_use(node.target)
                self._record_target(node.target, node.lineno, None)
            self._scan(node.value)
            return
        if isinstance(node, ast.For):
            self._record_target(node.target, node.lineno, None)
            self._scan_children(node.iter)
            for child in node.body + node.orelse:
                self._scan(child)
            return
        if isinstance(node, ast.withitem) and node.optional_vars is not None:
            self._record_target(node.optional_vars, node.lineno
                                if hasattr(node, "lineno")
                                else node.context_expr.lineno, None)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            self._record_use(node)
        self._scan_children(node)

    def _scan_children(self, node: ast.AST) -> None:
        for child in ast.iter_child_nodes(node):
            self._scan(child)

    def _contains_wait(self, node: ast.AST) -> bool:
        for sub in ast.walk(node):
            if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef,
                                ast.Lambda)) and sub is not node:
                continue
            if isinstance(sub, (ast.Yield, ast.YieldFrom)):
                return True
        return False

    def _record_target(self, target: ast.AST, line: int,
                       shared: Optional[str]) -> None:
        if isinstance(target, ast.Name):
            self.assigns.setdefault(target.id, []).append(
                _Assign(line, shared))
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._record_target(element, line, None)

    def _record_use(self, node: ast.Name) -> None:
        self.uses.setdefault(node.id, []).append(
            (node.lineno, node.col_offset))

    # -- analysis ----------------------------------------------------------

    def _yield_between(self, after: int, before: int) -> bool:
        return any(after < line < before for line in self.yields)

    def _loops_containing(self, line: int) -> List[Tuple[int, int]]:
        return [(s, e) for s, e in self.yield_loops if s <= line <= e]

    def findings_for(self, path: Path) -> List[StaleReadFinding]:
        found: List[StaleReadFinding] = []
        for local, assigns in self.assigns.items():
            if not any(a.shared for a in assigns):
                continue
            assigns = sorted(assigns, key=lambda a: a.line)
            for line, col in self.uses.get(local, []):
                flagged = self._check_use(local, assigns, line, col, path)
                if flagged is not None:
                    found.append(flagged)
        return found

    def _check_use(self, local: str, assigns: List[_Assign], line: int,
                   col: int, path: Path) -> Optional[StaleReadFinding]:
        governing: Optional[_Assign] = None
        for assign in assigns:
            if assign.line <= line:
                governing = assign
            else:
                break
        # R1: a wait lies between the governing shared assignment and
        # this use.
        if (governing is not None and governing.shared
                and self._yield_between(governing.line, line)):
            return StaleReadFinding(path, line, col, local, governing.shared,
                                    governing.line, "R1:linear")
        for start, end in self._loops_containing(line):
            in_loop = [a for a in assigns if start <= a.line <= end]
            # R2: refreshed below this use inside the loop — the value
            # seen here crossed the back edge (and the loop's waits).
            refresher = next(
                (a for a in in_loop if a.shared and a.line > line), None)
            if refresher is not None:
                return StaleReadFinding(path, line, col, local,
                                        refresher.shared, refresher.line,
                                        "R2:loop-back-edge")
            # R3: computed before the loop, never refreshed inside it —
            # every iteration past the first reads a pre-wait snapshot.
            if (not in_loop and governing is not None and governing.shared
                    and governing.line < start):
                return StaleReadFinding(path, line, col, local,
                                        governing.shared, governing.line,
                                        "R3:pre-loop-snapshot")
        return None


def lint_source(source: str, path: Path) -> List[StaleReadFinding]:
    """Lint one module's source text."""
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as exc:
        return [ParseFinding(path, exc)]
    allowed = {
        i
        for i, text in enumerate(source.splitlines(), start=1)
        if PRAGMA in text
    }
    findings: List[StaleReadFinding] = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        scan = _FunctionScan(node)
        if not scan.yields:
            continue  # no wait points: nothing can go stale
        for finding in scan.findings_for(path):
            if finding.line in allowed or finding.assign_line in allowed:
                continue
            findings.append(finding)
    findings.sort(key=lambda f: (str(f.path), f.line, f.col, f.local))
    return findings


def lint_file(path: Path) -> List[StaleReadFinding]:
    return lint_source(path.read_text(encoding="utf-8"), path)


def lint_paths(paths: List[Path]) -> List[StaleReadFinding]:
    """Lint files/directories; deterministic order."""
    findings: List[StaleReadFinding] = []
    for path in paths:
        if path.is_dir():
            for file in sorted(path.rglob("*.py")):
                findings.extend(lint_file(file))
        else:
            findings.extend(lint_file(path))
    findings.sort(key=lambda f: (str(f.path), f.line, f.col, f.local))
    return findings
