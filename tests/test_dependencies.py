"""The package needs nothing at run time beyond Python and numpy."""

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "intsnn"
SOURCES = sorted(PACKAGE.glob("*.py"))


def test_package_sources_are_found():
    assert PACKAGE / "__init__.py" in SOURCES


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_absolute_imports_are_stdlib_numpy_or_intsnn(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    names = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
    ] + [
        node.module
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 0
    ]
    allowed = sys.stdlib_module_names | {"numpy", "intsnn"}
    foreign = sorted(
        name for name in names if name.partition(".")[0] not in allowed
    )
    assert not foreign, f"{path.name} imports {foreign}"


def test_package_holds_no_compiled_extension():
    compiled = [
        p.relative_to(PACKAGE)
        for p in PACKAGE.rglob("*")
        if p.suffix in (".so", ".pyd", ".c")
    ]
    assert not compiled
