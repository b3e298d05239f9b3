"""Docs stay honest: run tools/check_docs.py as part of the suite."""

import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parents[1] / "tools"
sys.path.insert(0, str(TOOLS))

import check_docs  # noqa: E402


def test_doc_files_exist():
    missing = [rel for rel in check_docs.DOC_FILES
               if not (check_docs.REPO_ROOT / rel).exists()]
    assert not missing


def test_docs_lint_clean():
    problems = check_docs.run_checks()
    assert not problems, "\n".join(problems)


def test_lint_catches_dead_link(tmp_path):
    doc = tmp_path / "doc.md"
    doc.write_text("see [missing](no/such/file.md) and [ok](doc.md)\n")
    problems = check_docs.check_links(doc, doc.read_text())
    assert len(problems) == 1
    assert "no/such/file.md" in problems[0]


def test_lint_catches_bad_import(tmp_path):
    doc = tmp_path / "doc.md"
    doc.write_text(
        "```python\nfrom repro.obs import Tracer, NoSuchThing\n```\n"
    )
    problems = check_docs.check_imports(doc, doc.read_text())
    assert len(problems) == 1
    assert "NoSuchThing" in problems[0]


def test_lint_catches_stale_cli_flag(tmp_path):
    doc = tmp_path / "doc.md"
    doc.write_text(
        "```bash\n"
        "python -m repro.bench tab1 --json a.json --baseline b.json\n"
        "python -m repro.obs report t.jsonl \\\n"
        "    --top 5 --wall-threshold 50%   # --not-a-flag\n"
        "```\n"
        "Then `python -m repro.obs timeline s.jsonl --width 40` draws it.\n"
    )
    problems = check_docs.check_cli_flags(
        doc, doc.read_text(), check_docs.REPO_ROOT / "src")
    assert [p.split(": ", 1)[1] for p in problems] == [
        "'python -m repro.bench' has no option '--baseline'",
        "'python -m repro.obs' has no option '--wall-threshold'",
    ]
    assert problems[0].startswith(f"{doc}:2:")
    assert problems[1].startswith(f"{doc}:3:")


def test_lint_ignores_non_python_fences(tmp_path):
    doc = tmp_path / "doc.md"
    doc.write_text("```text\nfrom repro.nowhere import X\n```\n")
    assert check_docs.check_imports(doc, doc.read_text()) == []


def test_lint_catches_undocumented_package(tmp_path):
    src = tmp_path / "src"
    (src / "repro" / "ghostpkg").mkdir(parents=True)
    (src / "repro" / "ghostpkg" / "__init__.py").write_text("")
    (src / "repro" / "covered").mkdir()
    (src / "repro" / "covered" / "__init__.py").write_text("")
    docs = tmp_path / "docs"
    docs.mkdir()
    (docs / "covered.md").write_text("all about `repro.covered` here\n")
    problems = check_docs.check_package_coverage(src, docs)
    assert len(problems) == 1
    assert "ghostpkg" in problems[0]


def test_package_coverage_ignores_plain_modules(tmp_path):
    # errors.py / rng.py style top-level modules are not packages and
    # need no dedicated doc page.
    src = tmp_path / "src"
    (src / "repro").mkdir(parents=True)
    (src / "repro" / "units.py").write_text("")
    (src / "repro" / "nopkg").mkdir()  # directory without __init__.py
    docs = tmp_path / "docs"
    docs.mkdir()
    assert check_docs.check_package_coverage(src, docs) == []


def test_every_repro_package_documented():
    problems = check_docs.check_package_coverage(
        check_docs.REPO_ROOT / "src", check_docs.REPO_ROOT / "docs")
    assert not problems, "\n".join(problems)
