#!/usr/bin/env python
"""Docs lint: keep the Markdown honest.

Five checks over ``README.md``, ``docs/*.md`` and the other top-level
Markdown files:

1. **Links** — every relative (intra-repo) Markdown link target must
   exist on disk.  External ``http(s)://`` and ``mailto:`` links are
   not checked (no network in CI).
2. **Imports** — every ``import repro...`` / ``from repro... import``
   line inside a fenced ``python`` code block must resolve: the module
   must import and each imported name must exist on it.  Docs that
   mention modules or symbols that were renamed away fail here.
3. **Package coverage** — every top-level package under ``src/repro``
   must be referenced (as ``repro.<name>``) from at least one
   ``docs/*.md`` page, so no subsystem ships undocumented.  (This is
   the lint that would have caught ``repro.webserver`` having no page
   for its first twenty PRs.)
4. **CLI flags** — every ``--flag`` in a ``python -m repro.<mod> ...``
   command must appear as a quoted string in that module's
   ``__main__.py`` (or ``<mod>.py``), so docs cannot keep showing an
   option that was removed.  A command ends at a backtick, a ``#``
   comment, ``&&``, ``|`` or ``;``; a trailing backslash continues it
   on the next line.

5. **Figure tables** — the ``measured`` and ``analytic`` rows of the
   Figure 4 and Figure 5 tables in ``EXPERIMENTS.md`` must equal the
   ``fig4``/``fig5`` rows of ``results/full_report.json`` (their
   ``speedup`` and ``predicted`` columns), point by point, so the prose
   cannot drift from the golden results.

Run directly (``python tools/check_docs.py``) or via the test suite
(``tests/test_docs_lint.py``).  Exit status 0 = clean.
"""

from __future__ import annotations

import importlib
import json
import re
import sys
from pathlib import Path
from typing import Dict, Iterator, List, Tuple

REPO_ROOT = Path(__file__).resolve().parents[1]

#: Markdown files to lint (relative to the repo root).
DOC_FILES = [
    "README.md",
    "CONTRIBUTING.md",
    "DESIGN.md",
    "EXPERIMENTS.md",
    "ROADMAP.md",
] + sorted(
    str(p.relative_to(REPO_ROOT)) for p in (REPO_ROOT / "docs").glob("*.md")
)

#: The golden results the figure tables are checked against.
REPORT = "results/full_report.json"

#: EXPERIMENTS.md table heading -> the experiment its rows come from.
FIGURE_TABLES = {"Figure 4": "fig4", "Figure 5": "fig5"}

#: Table row label -> the report column it shows.
FIGURE_ROWS = {"measured": "speedup", "analytic": "predicted"}

_LINK_RE = re.compile(r"(?<!\!)\[[^\]]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")
_FENCE_RE = re.compile(r"^```(\w*)\s*$")
_IMPORT_RE = re.compile(
    r"^\s*(?:from\s+(repro[\w.]*)\s+import\s+([\w.,\s()]+)|import\s+(repro[\w.]*))"
)
_COMMAND_RE = re.compile(r"python -m (repro(?:\.\w+)*)([^`#&|;]*)")
_FLAG_RE = re.compile(r"(?<![\w-])--[A-Za-z][\w-]*")


def iter_links(text: str) -> Iterator[Tuple[int, str]]:
    """Yield ``(lineno, target)`` for every Markdown link."""
    for lineno, line in enumerate(text.splitlines(), start=1):
        for match in _LINK_RE.finditer(line):
            yield lineno, match.group(1)


def iter_python_fences(text: str) -> Iterator[Tuple[int, str]]:
    """Yield ``(lineno, line)`` for each line inside a python fence."""
    in_python = False
    for lineno, line in enumerate(text.splitlines(), start=1):
        fence = _FENCE_RE.match(line)
        if fence:
            in_python = not in_python and fence.group(1) in ("python", "py")
            continue
        if in_python:
            yield lineno, line


def _rel(doc: Path) -> str:
    try:
        return str(doc.relative_to(REPO_ROOT))
    except ValueError:  # a doc outside the repo (tests use tmp dirs)
        return str(doc)


def check_links(doc: Path, text: str) -> List[str]:
    problems = []
    for lineno, target in iter_links(text):
        if target.startswith(("http://", "https://", "mailto:", "#")):
            continue
        path_part = target.split("#", 1)[0]
        if not path_part:
            continue
        resolved = (doc.parent / path_part).resolve()
        if not resolved.exists():
            problems.append(f"{_rel(doc)}:{lineno}: dead link {target!r}")
    return problems


def _check_import_line(line: str) -> List[str]:
    match = _IMPORT_RE.match(line)
    if not match:
        return []
    problems = []
    if match.group(3):  # plain ``import repro.x.y``
        module = match.group(3)
        try:
            importlib.import_module(module)
        except Exception as exc:  # pragma: no cover - failure path
            problems.append(f"cannot import {module!r}: {exc}")
        return problems
    module, names = match.group(1), match.group(2)
    try:
        mod = importlib.import_module(module)
    except Exception as exc:
        return [f"cannot import {module!r}: {exc}"]
    names = names.split("#", 1)[0].strip().strip("()")
    for name in (n.strip() for n in names.split(",")):
        if not name or name == "*":
            continue
        name = name.split(" as ", 1)[0].strip()
        if not hasattr(mod, name):
            try:
                importlib.import_module(f"{module}.{name}")
            except Exception:
                problems.append(f"{module!r} has no attribute {name!r}")
    return problems


def check_imports(doc: Path, text: str) -> List[str]:
    problems = []
    for lineno, line in iter_python_fences(text):
        for problem in _check_import_line(line):
            problems.append(f"{_rel(doc)}:{lineno}: {problem}")
    return problems


def iter_cli_flags(text: str) -> Iterator[Tuple[int, str, str]]:
    """Yield ``(lineno, module, flag)`` for each ``--flag`` of each
    ``python -m repro.<mod>`` command in ``text``."""
    lines = text.splitlines()
    lineno = 0
    while lineno < len(lines):
        start = lineno + 1
        line = lines[lineno]
        while line.endswith("\\") and lineno + 1 < len(lines):
            lineno += 1
            line = line[:-1] + " " + lines[lineno]
        lineno += 1
        for command in _COMMAND_RE.finditer(line):
            args = command.group(2).split("python -m", 1)[0]
            for flag in _FLAG_RE.findall(args):
                yield start, command.group(1), flag


def module_source(src_root: Path, module: str) -> Path:
    """The file that parses ``python -m <module>``'s arguments."""
    base = src_root.joinpath(*module.split("."))
    package_main = base / "__main__.py"
    return package_main if package_main.exists() else base.with_suffix(".py")


def check_cli_flags(doc: Path, text: str, src_root: Path) -> List[str]:
    problems = []
    sources = {}
    for lineno, module, flag in iter_cli_flags(text):
        if module not in sources:
            path = module_source(src_root, module)
            sources[module] = (path.read_text(encoding="utf-8")
                               if path.exists() else None)
        source = sources[module]
        if source is None:
            problems.append(f"{_rel(doc)}:{lineno}: no CLI module for "
                            f"'python -m {module}'")
        elif f'"{flag}"' not in source and f"'{flag}'" not in source:
            problems.append(f"{_rel(doc)}:{lineno}: 'python -m {module}' "
                            f"has no option {flag!r}")
    return problems


def top_level_packages(src_root: Path) -> List[str]:
    """Top-level package names under ``{src_root}/repro`` (directories
    containing an ``__init__.py``)."""
    pkg_root = src_root / "repro"
    return sorted(
        p.name for p in pkg_root.iterdir()
        if p.is_dir() and (p / "__init__.py").exists()
    )


def check_package_coverage(
    src_root: Path, docs_dir: Path
) -> List[str]:
    """Every ``src/repro`` top-level package must appear (as
    ``repro.<name>``) in at least one ``docs/*.md`` page."""
    doc_texts = {
        p.name: p.read_text(encoding="utf-8")
        for p in sorted(docs_dir.glob("*.md"))
    }
    problems = []
    for pkg in top_level_packages(src_root):
        needle = f"repro.{pkg}"
        if not any(needle in text for text in doc_texts.values()):
            problems.append(
                f"src/repro/{pkg}: package not referenced from any "
                f"docs/*.md page (expected {needle!r} somewhere under "
                f"{docs_dir.name}/)"
            )
    return problems


def _table_after(lines: List[str], start: int) -> Iterator[Tuple[int, List[str]]]:
    """The cells of each row of the first table after line ``start``."""
    seen = False
    for lineno in range(start + 1, len(lines)):
        line = lines[lineno].strip()
        if line.startswith("|"):
            seen = True
            yield lineno + 1, [c.strip() for c in line.strip("|").split("|")]
        elif seen or line.startswith("#"):
            return


def check_figure_tables(doc: Path, text: str, report: List[Dict]) -> List[str]:
    """The figure tables' rows against the report's (check 5)."""
    experiments = {e["exp_id"]: e for e in report}
    lines = text.splitlines()
    problems = []
    for heading, exp_id in FIGURE_TABLES.items():
        starts = [i for i, line in enumerate(lines)
                  if line.startswith("#") and heading in line]
        if not starts:
            problems.append(f"{_rel(doc)}: no {heading} table")
            continue
        experiment = experiments[exp_id]
        columns = experiment["columns"]
        table = list(_table_after(lines, starts[0]))
        if not table:
            problems.append(f"{_rel(doc)}:{starts[0] + 1}: no {heading} table")
            continue
        _, header = table[0]
        by_x = {str(row[0]): row for row in experiment["rows"]}
        if header[1:] != list(by_x):
            problems.append(
                f"{_rel(doc)}:{table[0][0]}: {heading} columns {header[1:]} "
                f"are not {REPORT}'s {exp_id} {columns[0]} {list(by_x)}")
            continue
        labels = set()
        for lineno, cells in table[1:]:
            column = FIGURE_ROWS.get(cells[0])
            if column is None:
                continue
            labels.add(cells[0])
            index = columns.index(column)
            for x, cell in zip(header[1:], cells[1:]):
                want = by_x[x][index]
                try:
                    same = float(cell) == want
                except ValueError:
                    same = False
                if not same:
                    problems.append(
                        f"{_rel(doc)}:{lineno}: {heading} {cells[0]} at "
                        f"{header[0]}={x} reads {cell!r}, {REPORT} has "
                        f"{want} ({exp_id} {column})")
        for label in sorted(set(FIGURE_ROWS) - labels):
            problems.append(f"{_rel(doc)}: {heading} table has no {label} row")
    return problems


def run_checks() -> List[str]:
    """Run every check; returns the list of problems (empty = clean)."""
    src = REPO_ROOT / "src"
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    problems = []
    for rel in DOC_FILES:
        doc = REPO_ROOT / rel
        if not doc.exists():
            problems.append(f"{rel}: listed in DOC_FILES but missing")
            continue
        text = doc.read_text(encoding="utf-8")
        problems.extend(check_links(doc, text))
        problems.extend(check_imports(doc, text))
        problems.extend(check_cli_flags(doc, text, src))
        if rel == "EXPERIMENTS.md":
            report = json.loads(
                (REPO_ROOT / REPORT).read_text(encoding="utf-8"))
            problems.extend(check_figure_tables(doc, text, report))
    problems.extend(
        check_package_coverage(REPO_ROOT / "src", REPO_ROOT / "docs")
    )
    return problems


def main() -> int:
    problems = run_checks()
    for problem in problems:
        print(problem, file=sys.stderr)
    if problems:
        print(f"docs lint: {len(problems)} problem(s)", file=sys.stderr)
        return 1
    print(f"docs lint: {len(DOC_FILES)} file(s) clean")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
