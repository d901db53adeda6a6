"""The benchmark tracer still finds every library name it wraps.

``bench/tracer.py`` replaces library functions and ``ScaledKKT`` methods
by name and raises when one is missing, so a library change that drops or
renames a wrapped name would otherwise surface only in a traced bench
pass.  Installing and uninstalling the tracer in process takes a few
milliseconds and must leave every module as it found it.
"""

import importlib
import os
import sys

import spc_lab.cli  # noqa: F401  (the tracer wraps only loaded modules)

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


def library_bindings():
    """Every module attribute, dispatch-table entry and ScaledKKT method of
    the loaded library, keyed by where it is bound."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if name != "spc_lab" and not name.startswith("spc_lab."):
            continue
        for key, val in vars(mod).items():
            out[name, key] = val
            if isinstance(val, dict) and not key.startswith("__"):
                out.update(((name, key, k), v) for k, v in val.items())
    out.update((("ScaledKKT", k), v) for k, v in vars(spc_lab.kkt.ScaledKKT).items())
    return out


def test_tracer_installs_and_uninstalls(monkeypatch):
    monkeypatch.syspath_prepend(BENCH)
    tracer = importlib.import_module("tracer")
    before = library_bindings()
    t = tracer.Tracer()
    t.install()
    try:
        wrapped = {k for k, v in library_bindings().items() if before.get(k) is not v}
        assert ("spc_lab.cli", "HANDLERS", "spc") in wrapped
    finally:
        t.uninstall()
    after = library_bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is v for k, v in before.items())
