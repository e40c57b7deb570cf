"""The library in src/ftbtrace imports nothing outside the standard library
and nothing it does not use."""

import ast
import pathlib
import sys

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "ftbtrace"


def test_src_imports_only_the_standard_library():
    files = sorted(SRC.glob("*.py"))
    assert files
    outside = []
    for path in files:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:  # relative imports stay inside the package
                continue
            outside += [f"{path.name}: {m}" for m in modules if m.partition(".")[0] not in sys.stdlib_module_names]
    assert outside == []


def _module_imports(tree):
    """(line, bound name) of each module-level import, ``__future__`` aside."""
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name


def test_src_module_level_imports_are_used():
    # __init__.py imports only to re-export
    files = [p for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"]
    assert files
    unused = []
    for path in files:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line}: {name}" for line, name in _module_imports(tree) if name not in used]
    assert unused == []


def _private(name):
    return name.startswith("_") and not name.endswith("__")


def test_src_modules_read_no_private_name_of_another():
    # a module's _names are its own: another module may not import them
    # (``from .x import _name``) or read them (``x._name`` after ``from . import x``)
    modules = {path.stem for path in SRC.glob("*.py")}
    reads = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        imported = [node for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level]
        bound = {a.asname or a.name for node in imported if node.module is None for a in node.names if a.name in modules}
        reads += [f"{path.name}:{node.lineno}: from .{node.module} import {a.name}"
                  for node in imported if node.module is not None for a in node.names if _private(a.name)]
        reads += [f"{path.name}:{node.lineno}: {node.value.id}.{node.attr}" for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in bound and _private(node.attr)]
    assert reads == []
