"""Package-wide rules: pennylab imports nothing outside the standard library."""

import ast
import pathlib
import sys

import pennylab


def test_package_imports_only_the_standard_library():
    modules = sorted(pathlib.Path(pennylab.__file__).parent.rglob("*.py"))
    assert modules
    outside = []
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue  # relative imports stay inside the package
            outside += [f"{path.name}: {name}" for name in names if name.partition(".")[0] not in sys.stdlib_module_names]
    assert outside == []
