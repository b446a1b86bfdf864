import ast
from pathlib import Path

import qtchar

PACKAGE = Path(qtchar.__file__).parent


def test_no_module_imports_a_private_name():
    # a helper shared between modules is public where it lives; one
    # module reaching into another's underscore names duplicates an owner
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom):
                found += [f"{path.name}: from {'.' * node.level}"
                          f"{node.module or ''} import {alias.name}"
                          for alias in node.names
                          if alias.name.startswith("_")]
    assert not found
