"""Source hygiene: every import in the package is used, and every top-level name is read.

Both checks parse ``src/opgrowth/*.py`` with ``ast`` only; nothing is imported.
A top-level name counts as read when some statement other than its own
definition names it, in any module of the package.  A re-export from
``__init__`` is such a statement, so the public API counts as read.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "opgrowth"
MODULES = {path.stem: ast.parse(path.read_text(), str(path))
           for path in sorted(PACKAGE.glob("*.py"))}


def _bound_names(node) -> list[str]:
    """Names a top-level statement defines."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    targets = []
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
        targets = [node.target]
    return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]


def _read_names(node) -> set[str]:
    """Names a statement reads: loaded names, ``module.name`` of package modules, imports."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            out.add(sub.id)
        elif (isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name)
              and sub.value.id in MODULES):
            out.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom) and sub.level:  # a relative, in-package import
            out.update(alias.name for alias in sub.names)
    return out


def test_every_import_is_used():
    unused = []
    for module, tree in MODULES.items():
        if module == "__init__":  # its imports are the package's exports
            continue
        loaded = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [(a.asname or a.name).split(".")[0] for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                names = [a.asname or a.name for a in node.names]
            else:
                continue
            unused += [f"{module}: {name}" for name in names if name not in loaded]
    assert unused == []


def test_every_top_level_name_is_read():
    statements = [(module, stmt) for module, tree in MODULES.items() for stmt in tree.body]
    reads = [_read_names(stmt) for _, stmt in statements]
    unread = []
    for i, (module, stmt) in enumerate(statements):
        for name in _bound_names(stmt):
            if not any(name in names for j, names in enumerate(reads) if j != i):
                unread.append(f"{module}.{name}")
    assert unread == []
