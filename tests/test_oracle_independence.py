"""The reference oracles stay independent of the library they check."""

import ast
import os
import sys

ORACLES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "oracles.py")


def imported_modules(tree):
    """Every module an ``import`` statement or an ``import_module`` /
    ``__import__`` call with a literal name brings in; relative imports
    keep their leading dots."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield "." * node.level + (node.module or "")
        elif isinstance(node, ast.Call) and node.args:
            name = getattr(node.func, "attr", getattr(node.func, "id", None))
            arg = node.args[0]
            if name in ("import_module", "__import__") and isinstance(arg, ast.Constant):
                yield str(arg.value)


def test_oracles_do_not_import_the_library():
    with open(ORACLES) as fh:
        tree = ast.parse(fh.read(), filename=ORACLES)
    # a relative import would reach the library through the test helpers;
    # numpy and the standard library are all the oracles may use
    bad = [
        m for m in imported_modules(tree)
        if m.startswith(".") or m.split(".")[0] not in {"numpy", *sys.stdlib_module_names}
    ]
    assert bad == [], f"tests/oracles.py imports {bad}"
