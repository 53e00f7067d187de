"""Source hygiene that no installed linter checks: every module-level import
in src/ and tests/ is used by the file that makes it."""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(p for d in ("src", "tests") for p in (ROOT / d).rglob("*.py"))


def _top_level_imports(tree: ast.Module):
    """(bound name, line) of each import in the module body, including the
    bodies of top-level if and try statements; __future__ imports are
    directives, not names."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.If, ast.Try)):
            stack.extend(node.body + node.orelse + getattr(node, "finalbody", []))
            for handler in getattr(node, "handlers", []):
                stack.extend(handler.body)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _exported(tree: ast.Module) -> set[str]:
    """The string entries of a module-level __all__."""
    names = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            names.update(e.value for e in ast.walk(node.value)
                         if isinstance(e, ast.Constant) and isinstance(e.value, str))
    return names


def unused_imports(source: str, label: str) -> list[str]:
    """label:line and name of each module-level import that source never uses."""
    tree = ast.parse(source, filename=label)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)} | _exported(tree)
    return [f"{label}:{line} {name}" for name, line in _top_level_imports(tree) if name not in used]


def test_scan_finds_an_unused_import():
    source = ("from __future__ import annotations\nimport os\nimport sys as system\n"
              "from os import path\n__all__ = ['path']\nprint(system)\n")
    assert unused_imports(source, "probe.py") == ["probe.py:2 os"]


def test_no_unused_module_level_import():
    # a package __init__.py imports to re-export
    assert {"sieve.py", "cli.py", "conftest.py", "test_hygiene.py"} <= {p.name for p in FILES}
    found = [hit for p in FILES if p.name != "__init__.py"
             for hit in unused_imports(p.read_text(), str(p.relative_to(ROOT)))]
    assert found == []
