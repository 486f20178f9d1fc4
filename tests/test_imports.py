"""Every module-level import in the package is used.

No linter is installed, so this stands in for pyflakes' F401 check, with the
same way out: a line marked ``# noqa: F401`` (a re-export) may import a name
that its module does not use.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "tierslicer"


def unused_imports(text: str) -> list:
    """(line, name) for each name a module-level import binds and the module
    never reads, in code or in a string annotation."""
    tree = ast.parse(text)
    lines = text.splitlines()
    bound = []
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)) or (
                isinstance(node, ast.ImportFrom) and node.module == "__future__"):
            continue
        for alias in node.names:
            if "# noqa: F401" not in lines[alias.lineno - 1]:
                bound.append((alias.lineno, alias.asname or alias.name.split(".")[0]))
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        for note in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            if isinstance(note, ast.Constant) and isinstance(note.value, str):  # "Call"
                used |= {n.id for n in ast.walk(ast.parse(note.value, mode="eval"))
                         if isinstance(n, ast.Name)}
    return [(line, name) for line, name in bound if name not in used]


@pytest.mark.parametrize("name", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_every_module_level_import_is_used(name):
    assert unused_imports((PACKAGE / name).read_text(encoding="utf-8")) == []


def test_an_unused_import_is_found():
    text = ("from __future__ import annotations\nimport json\nimport re  # noqa: F401\n"
            "from .syntax import (\n    Call,\n    Ident,\n)\n\n"
            "def f(x) -> \"Call\":\n    return json.dumps(\"Ident\")\n")
    assert unused_imports(text) == [(6, "Ident")]
