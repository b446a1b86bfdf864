import ast
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
