"""The library in src/ftbtrace imports nothing outside the standard library,
no module that starts workers, and nothing it does not use."""

import ast
import pathlib
import sys

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "ftbtrace"


def _absolute_imports():
    """(file name, top-level package) of every absolute import in src/,
    at any depth; relative imports stay inside the package."""
    files = sorted(SRC.glob("*.py"))
    assert files
    for path in files:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            yield from ((path.name, m.partition(".")[0]) for m in modules)


def test_src_imports_only_the_standard_library():
    outside = [f"{name}: {m}" for name, m in _absolute_imports() if m not in sys.stdlib_module_names]
    assert outside == []


def test_src_starts_no_workers():
    # every trace runs in the calling thread: the one-ray memo of a
    # BuiltScene serves one ray at a time, and rows rendered on two
    # workers evict each other's entry (importing concurrent.futures alone
    # also costs about 0.75 MB of peak RSS)
    workers = {"threading", "_thread", "concurrent", "multiprocessing"}
    assert [f"{name}: {m}" for name, m in _absolute_imports() if m in workers] == []


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


def test_only_floatstep_and_geom_import_struct():
    # floatstep holds the one binary32 rounding (f32, f32_seq) and geom
    # only mt_core's own pack of a hit; every other module rounds through
    # floatstep instead of packing on its own
    assert {name for name, m in _absolute_imports() if m == "struct"} == {"floatstep.py", "geom.py"}
