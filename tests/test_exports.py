"""Every name the package exports, and every name a module defines at its top level, is read
by the package itself, by the acceptance suite or by the benchmark's tracer."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "posediff"
ACCEPTANCE = ROOT / "tests" / "test_acceptance.py"
TRACER = ROOT / "bench" / "tracer.py"


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"))


def read_names(tree) -> set[str]:
    """Identifiers a module (or node) reads, imports or imports from; names it
    only defines (functions, classes) are not among them."""
    names = set()
    for node in ast.walk(tree):
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
    read = set().union(*(read_names(parse(path)) for path in modules))
    assert {"errors", "Pose"} <= exported  # both import forms are parsed
    assert sorted(exported - read) == []


def defined_names(node: ast.stmt) -> list[str]:
    """Names a top-level def, class or assignment binds."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        return [t.id for t in node.targets if isinstance(t, ast.Name)]
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        return [node.target.id]
    return []


def unread_names(modules: list[Path], readers: list[Path]) -> list[str]:
    """`module:name` for each top-level name of `modules` that nothing names
    outside its own definition: not the rest of its module, not another of
    `modules`, not `readers`."""
    trees = {path: parse(path) for path in modules + readers}
    unread = []
    for path in modules:
        others = set().union(*(read_names(t) for p, t in trees.items() if p != path))
        body = trees[path].body
        reads = [read_names(node) for node in body]
        for i, node in enumerate(body):
            rest = set().union(*reads[:i], *reads[i + 1:])
            unread += [
                f"{path.stem}:{name}" for name in defined_names(node) if name not in rest | others
            ]
    return unread


def test_every_module_level_name_is_read():
    assert unread_names(sorted(SRC.glob("*.py")), [ACCEPTANCE, TRACER]) == []


def test_an_unused_function_is_reported(tmp_path):
    (tmp_path / "used.py").write_text(
        "LIMIT = 3\n\ndef helper():\n    return LIMIT\n\ndef unused():\n    return helper()\n"
    )
    (tmp_path / "reader.py").write_text("from used import helper\n")
    modules = [tmp_path / "used.py"]
    assert unread_names(modules, [tmp_path / "reader.py"]) == ["used:unused"]
