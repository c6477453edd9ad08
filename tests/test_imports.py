"""No module imports a name it never uses, unless the line says ``# noqa: F401``."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = [
    path for part in ("src/gpselect", "tests", "scripts") for path in sorted((ROOT / part).glob("*.py"))
]


def unused_imports(source: str) -> list[str]:
    """Names bound by an import in ``source`` and never read, ``__all__`` included."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if any("# noqa: F401" in lines[i] for i in range(node.lineno - 1, node.end_lineno)):
                continue
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in sorted(imported.items()) if name not in used]


def test_finds_unused_and_honours_noqa():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "from errs import Kept, Gone\n"
        "from errs import Pinned  # noqa: F401\n"
        "__all__ = ['Exported']\n"
        "from errs import Exported\n"
        "def f(x: Kept):\n"
        "    return os.path.join(x)\n"
    )
    assert unused_imports(source) == ["Gone (line 3)"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
