import ast
import os
import subprocess
import sys
from pathlib import Path

import qtchar
from qtchar.charalg import Window

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


def test_only_charalg_knows_the_bit_layout():
    # `charalg.Window` alone lays out a monomial's fields: no other module
    # names DEG_BITS or reads a `.bits` field width.  DEG_MASK stays open,
    # as the degree in the low bits is `Monomial`'s contract
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        if path == PACKAGE / "charalg.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Name) and node.id == "DEG_BITS"
                    or isinstance(node, ast.alias) and node.name == "DEG_BITS"
                    or isinstance(node, ast.Attribute)
                    and node.attr == "bits"):
                found.append(f"{path.relative_to(PACKAGE)}:{node.lineno}")
    assert not found



def test_only_charalg_reads_the_window_internals():
    # a term's row records are laid out in `charalg` alone: no other
    # module reads a private slot of `Window`, so `fm` and `serialize`
    # reach records through its methods and the records' named fields
    private = {name for name in Window.__slots__ if name.startswith("_")}
    assert {"_memos", "_yrows", "_rows"} <= private
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        if path == PACKAGE / "charalg.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and node.attr in private:
                found.append(f"{path.relative_to(PACKAGE)}:{node.lineno}")
    assert not found

def test_source_lines_fit_79_columns():
    found = [f"{path.relative_to(PACKAGE)}:{n}"
             for path in sorted(PACKAGE.rglob("*.py"))
             for n, line in enumerate(
                 path.read_text(encoding="utf-8").splitlines(), 1)
             if len(line) > 79]
    assert not found


def test_startup_loads_no_dataclasses_inspect_or_resources():
    # every run starts a fresh interpreter, so what `import qtchar.cli`
    # loads is paid on every call; -S keeps site hooks (a .pth file that
    # imports them, say) from hiding or faking the result
    heavy = ["dataclasses", "inspect", "importlib.resources"]
    probe = ("import sys, qtchar, qtchar.cli; "
             f"print([m for m in {heavy!r} if m in sys.modules])")
    out = subprocess.run(
        [sys.executable, "-S", "-c", probe], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)}, check=True)
    assert out.stdout == "[]\n"


def _name(node) -> str | None:
    # the name a call or a raise refers to, bare or as an attribute
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    return node.id if isinstance(node, ast.Name) else None


def test_one_owner_checks_a_highest_weight():
    # `charalg` alone checks orbit names and node ranges (`Window` and
    # `parse_monomial`), and each factor of a standard module is computed
    # at its own shift: no module defines or calls a `shifted`
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        owner = path == PACKAGE / "charalg.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                bad = _name(node) == "shifted" or (
                    _name(node) == "check_orbit" and not owner)
            elif isinstance(node, ast.Raise):
                bad = _name(node.exc) == "NodeOutOfRange" and not owner
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                bad = node.name == "shifted"
            else:
                continue
            if bad:
                found.append(f"{path.relative_to(PACKAGE)}:{node.lineno}")
    assert not found
