import ast
import sys
from pathlib import Path

import qtchar

PACKAGE = Path(qtchar.__file__).parent


def test_no_module_imports_a_private_name():
    # a helper shared between modules is public where it lives; one
    # module reaching into another's underscore names duplicates an owner
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom):
                found += [f"{path.relative_to(PACKAGE)}: from "
                          f"{'.' * node.level}{node.module or ''} "
                          f"import {alias.name}"
                          for alias in node.names
                          if alias.name.startswith("_")]
    assert not found


def test_runtime_imports_are_standard_library_only():
    # runtime dependencies stay at the standard library: every absolute
    # import of the package names a standard-library module
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            found += [f"{path.relative_to(PACKAGE)}: {name}"
                      for name in names if name.partition(".")[0]
                      not in sys.stdlib_module_names]
    assert not found
