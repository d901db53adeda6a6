"""The package's public name list matches what its ``__init__`` binds."""

import ast

import spc_lab


def bound_names():
    """Every name ``spc_lab/__init__.py`` binds at module level, by import
    or by assignment."""
    with open(spc_lab.__file__) as fh:
        body = ast.parse(fh.read(), filename=spc_lab.__file__).body
    for node in body:
        if isinstance(node, ast.ImportFrom):
            yield from (alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Assign):
            yield from (target.id for target in node.targets)


def test_all_lists_every_name_the_package_binds():
    names = set(bound_names()) - {"__all__"}
    assert len(spc_lab.__all__) == len(set(spc_lab.__all__))
    assert set(spc_lab.__all__) == names
