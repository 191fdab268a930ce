"""No module of ``src/draftwire`` imports a name it never reads.

The project ships no linter, so this test is the check. Each module is
parsed, and every name bound by a module-level import, also one under a
top-level ``if`` such as ``if TYPE_CHECKING:``, must be read somewhere in
the module. Two kinds of import are exempt: ``__init__.py``'s, which are
the package's re-exports, and one marked
``# noqa: F401  perfbench/tracing.py wraps it here``, which the benchmark
replaces in that module's namespace.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "draftwire"
KEPT_FOR_THE_BENCHMARK = "# noqa: F401  perfbench/tracing.py wraps it here"


def module_imports(tree: ast.Module):
    """Each import statement at module level or under a top-level ``if``."""
    for node in tree.body:
        for stmt in node.body + node.orelse if isinstance(node, ast.If) else [node]:
            if isinstance(stmt, ast.Import) or (
                    isinstance(stmt, ast.ImportFrom) and stmt.module != "__future__"):
                yield stmt


def unread_imports(path: Path) -> list[str]:
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    unread = []
    for stmt in module_imports(tree):
        if any(KEPT_FOR_THE_BENCHMARK in line for line in lines[stmt.lineno - 1:stmt.end_lineno]):
            continue
        for alias in stmt.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in read:
                unread.append(f"{path.name}:{stmt.lineno}: {name}")
    return unread


def test_every_module_level_import_is_read():
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    assert len(modules) > 1
    assert [line for path in modules for line in unread_imports(path)] == []


def test_an_unread_import_is_found(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("from __future__ import annotations\n"
                      "from typing import TYPE_CHECKING, Mapping, Sequence\n"
                      "import os.path\n"
                      "if TYPE_CHECKING:\n    import subprocess\n"
                      f"from x import wrapped  {KEPT_FOR_THE_BENCHMARK}\n"
                      "def f(m: Mapping) -> None:\n    os.path.join('a')\n")
    assert unread_imports(module) == ["m.py:2: Sequence", "m.py:5: subprocess"]
