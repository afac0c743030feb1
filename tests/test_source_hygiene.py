"""Source hygiene: every import in the package is used, and every public name has a caller.

Both checks parse files with ``ast`` only; nothing is imported.  The names
checked are the top-level names of ``src/opgrowth/*.py`` and the methods,
properties and classmethods of their top-level classes, dunders aside.

A top-level name counts as read when some statement of the package other
than its own definition loads it, reads it as ``module.name`` or imports it.
A method counts as read when some attribute of its name is read outside its
own definition; ``ast`` cannot tell which class an attribute belongs to, so
any attribute of that name will do.  A re-export from ``__init__`` is no read.

Names that perfbench reads count as read: every part of the attribute paths
in ``perfbench/tracer.py`` ``TARGETS``, the attributes ``perfbench/workloads.py``
reads off the opgrowth modules it imports, and, as methods, any attribute it
reads.  ``KEPT`` lists, each with its reason, the names kept for a caller outside
the package or for one still to come, and the names only those read.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "opgrowth"
PERFBENCH = ROOT / "perfbench"
MODULES = {path.stem: ast.parse(path.read_text(), str(path))
           for path in sorted(PACKAGE.glob("*.py"))}

KEPT = {
    "cli.main": "the `opgrowth` console script that pyproject.toml installs",
    "__init__.__version__": "the package version, the one a user reads off `opgrowth`",
    "bounds.BoundParams.local_model":
        "constants derived from a local model; ROADMAP item 4 makes `simulate` call it",
    "bounds.BoundParams.quasilocal_model":
        "constants derived from a quasilocal model; ROADMAP item 4 makes `bound` call it",
    "bounds.verify_reproducing": "the reproducing constant `BoundParams.quasilocal_model` measures",
    "operators.check_quasilocal": "the envelope check ROADMAP item 4 runs before a `bound` sweep",
    "operators.QuasilocalReport": "what `check_quasilocal` returns",
    "simulate.ComponentClasses.site_map":
        "the checked site map that ROADMAP item 2's classes from the parent are built on",
}


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


def _methods(node) -> list[ast.AST]:
    """The methods, properties and classmethods of a top-level class, dunders aside."""
    if not isinstance(node, ast.ClassDef):
        return []
    return [f for f in node.body if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not (f.name.startswith("__") and f.name.endswith("__"))]


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


def _attributes(node) -> set[str]:
    return {sub.attr for sub in ast.walk(node) if isinstance(sub, ast.Attribute)}


def _perfbench_reads() -> tuple[set[str], set[str]]:
    """(names read off opgrowth modules or traced, attribute names read) by perfbench."""
    tracer = ast.parse((PERFBENCH / "tracer.py").read_text())
    targets = next(ast.literal_eval(stmt.value) for stmt in tracer.body
                   if isinstance(stmt, ast.Assign) and _bound_names(stmt) == ["TARGETS"])
    names = {part for *_, path in targets for part in path.split(".")}
    workloads = ast.parse((PERFBENCH / "workloads.py").read_text())
    aliases = {alias.asname or alias.name for node in ast.walk(workloads)
               if isinstance(node, ast.Import) for alias in node.names
               if alias.name.startswith("opgrowth.")}
    for node in ast.walk(workloads):
        chain = []
        while isinstance(node, ast.Attribute):  # ssb.DisorderRegion.from_graph: both parts
            chain.append(node.attr)
            node = node.value
        if isinstance(node, ast.Name) and node.id in aliases:
            names.update(chain)
    return names, _attributes(workloads)


STATEMENTS = [(module, stmt) for module, tree in MODULES.items() for stmt in tree.body]
PERFBENCH_NAMES, PERFBENCH_ATTRIBUTES = _perfbench_reads()


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
    reads = [set() if module == "__init__" and isinstance(stmt, ast.ImportFrom)
             else _read_names(stmt) for module, stmt in STATEMENTS]
    unread = [f"{module}.{name}" for i, (module, stmt) in enumerate(STATEMENTS)
              for name in _bound_names(stmt) if name not in PERFBENCH_NAMES
              and not any(name in names for j, names in enumerate(reads) if j != i)]
    assert sorted(set(unread) - set(KEPT)) == []


def test_every_method_is_read():
    attributes = [_attributes(stmt) for _, stmt in STATEMENTS]
    unread = []
    for i, (module, stmt) in enumerate(STATEMENTS):
        for method in _methods(stmt):
            elsewhere = [attrs for j, attrs in enumerate(attributes) if j != i] + [
                _attributes(s) for s in stmt.body if s is not method]
            if method.name not in PERFBENCH_NAMES | PERFBENCH_ATTRIBUTES and not any(
                    method.name in attrs for attrs in elsewhere):
                unread.append(f"{module}.{stmt.name}.{method.name}")
    assert sorted(set(unread) - set(KEPT)) == []


def test_every_kept_name_is_defined():
    defined = set()
    for module, stmt in STATEMENTS:
        defined.update(f"{module}.{name}" for name in _bound_names(stmt))
        defined.update(f"{module}.{stmt.name}.{m.name}" for m in _methods(stmt))
    assert sorted(set(KEPT) - defined) == []
