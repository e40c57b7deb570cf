"""The library in src/ftbtrace imports nothing outside the standard library."""

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
