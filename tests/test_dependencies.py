"""The library needs only click: every import in src/stemhc is from the
standard library, click or the package itself, and the project declares
exactly that one dependency."""

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
ALLOWED = set(sys.stdlib_module_names) | {"click", "stemhc"}


def imported_modules(path):
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            yield node.module


@pytest.mark.parametrize("path", sorted((ROOT / "src" / "stemhc").glob("*.py")),
                         ids=lambda p: p.name)
def test_library_imports_only_the_standard_library_and_click(path):
    outside = {m for m in imported_modules(path)
               if m.partition(".")[0] not in ALLOWED}
    assert not outside, "%s imports %s" % (path.name, sorted(outside))


def test_project_depends_only_on_click():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as f:
        project = tomllib.load(f)["project"]
    assert project["dependencies"] == ["click>=8.0"]
