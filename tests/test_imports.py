"""Every module of the package uses each name it imports."""

import ast
import pathlib

import pytest

import spc_lab

MODULES = sorted(pathlib.Path(spc_lab.__file__).parent.glob("*.py"))


def imported_names(tree):
    """``(name, line)`` of each name an import statement binds, at any depth
    of the module; ``from __future__`` imports bind none."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_module_uses_every_name_it_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    if path.name == "__init__.py":  # the package imports to export
        used |= set(spc_lab.__all__)
    unused = [f"{name} (line {line})" for name, line in imported_names(tree) if name not in used]
    assert not unused, f"{path.name} imports names it never uses: {unused}"
