"""The reference oracles stay independent of the library they check."""

import ast
import os
import sys

from .helpers import imported_modules

ORACLES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "oracles.py")


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
