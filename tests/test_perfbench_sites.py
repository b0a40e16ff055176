"""The benchmark's layer trace wraps pldlab functions by module and name.

A refactor that drops or moves a traced name breaks only traced benchmark
runs, so every name the trace looks up is checked here.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_every_traced_site_resolves(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)  # dataclasses look it up
    spec.loader.exec_module(tracing)
    missing = [
        (module, attr)
        for module, attr, *_ in tracing.SITES
        if not hasattr(importlib.import_module(module), attr)
    ]
    assert missing == []
    assert hasattr(importlib.import_module("pldlab.numerics"), "_FAST_LCSE_SPAN")
