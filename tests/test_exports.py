"""Every name the package exports is read by the package itself or by the acceptance suite."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "posediff"
ACCEPTANCE = Path(__file__).resolve().parent / "test_acceptance.py"


def read_names(path: Path) -> set[str]:
    """Identifiers a module reads, imports or imports from; names it only
    defines (functions, classes) are not among them."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
        elif isinstance(node, ast.ImportFrom) and node.module:
            names.add(node.module)
    return names


def test_every_export_is_read():
    init = SRC / "__init__.py"
    exported = {
        alias.name
        for node in ast.parse(init.read_text(encoding="utf-8")).body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    modules = [path for path in SRC.glob("*.py") if path != init] + [ACCEPTANCE]
    read = set().union(*(read_names(path) for path in modules))
    assert {"errors", "Pose"} <= exported  # both import forms are parsed
    assert sorted(exported - read) == []
