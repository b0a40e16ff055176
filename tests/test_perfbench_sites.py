"""The benchmark's layer trace wraps pldlab functions by module and name.

A refactor that drops or moves a traced name breaks only traced benchmark
runs, so every name the trace looks up is checked here, and a tiny teacher
run and distill run go through the installed trace.
"""

import ast
import importlib
import importlib.util
import sys
from collections import Counter
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TRACING = PERFBENCH / "tracing.py"


@pytest.fixture
def tracing(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look it up
    spec.loader.exec_module(module)
    return module


def test_every_traced_site_resolves(tracing):
    missing = [
        (module, attr)
        for module, attr, *_ in tracing.SITES
        if not hasattr(importlib.import_module(module), attr)
    ]
    assert missing == []
    assert hasattr(importlib.import_module("pldlab.numerics"), "_FAST_LCSE_SPAN")


def test_traced_training_runs_and_nests(tracing):
    from pldlab import cli
    from pldlab.lab import make_blobs
    from pldlab.losses import default_loss_config

    ds = make_blobs(n_classes=4, dim=4, train_per_class=40, test_per_class=20, seed=0)
    epochs = 2
    tracer = tracing.Tracer()
    tracer.install()
    try:  # the wrapped names are looked up on the module at call time
        (teacher, _), _ = tracer.run("train_teacher", lambda: cli.train_teacher(
            ds, [4, 8, 4], epochs=epochs, seed=0, batch_size=32))
        for kind in ("pld", "kd", "dist"):
            tracer.run(f"distill_{kind}", lambda kind=kind: cli.distill_student(
                ds, teacher, [4, 8, 4], default_loss_config(kind), epochs=epochs, seed=0,
                batch_size=32))
    finally:
        tracer.uninstall()

    assert tracer.stack == []
    backward_calls = Counter()  # edges count every command under a root
    for command, root in (("train_teacher", "lab.train.train_teacher"),
                          ("distill_pld", "lab.train.distill_student"),
                          ("distill_kd", "lab.train.distill_student"),
                          ("distill_dist", "lab.train.distill_student")):
        stats = tracer.total_stats(command)
        assert stats[root].calls == 1
        assert stats["lab.model.backward"].rows == epochs * len(ds.train_features)
        backward_calls[root] += stats["lab.model.backward"].calls
        assert tracer.edges[(root, "lab.optim.step_optimizer")] > 0
    for root, calls in backward_calls.items():
        assert tracer.edges[(root, "lab.model.backward")] == calls
    assert tracer.edges[("lab.train.distill_student", "losses.evaluate_loss")] > 0
    assert tracer.edges[("losses.evaluate_loss", "losses.pld_loss")] > 0
    # kd and dist reach their nested cross-entropy and softmax by the traced names
    for kernel, soft in (("losses.kd_loss", "numerics.log_softmax"),
                         ("losses.dist_loss", "numerics.softmax")):
        assert tracer.edges[("losses.evaluate_loss", kernel)] > 0
        assert tracer.edges[(kernel, "losses.ce_loss")] > 0
        assert tracer.edges[(kernel, soft)] > 0
    parents = {p for p, c in tracer.edges if c == "lab.model.forward_trace"}
    assert parents == {"lab.model.forward"}


def _dotted(node):
    """``a.b.c`` of an attribute chain on a plain name, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return ".".join([node.id, *reversed(parts)]) if isinstance(node, ast.Name) else None


def _resolves(dotted):
    """Whether each part of ``pldlab.x.y`` is an attribute or a submodule of the one before."""
    obj, path = importlib.import_module("pldlab"), "pldlab"
    for part in dotted.split(".")[1:]:
        path += "." + part
        if not hasattr(obj, part):
            try:
                importlib.import_module(path)
            except ImportError:
                return False
        obj = getattr(obj, part)
    return True


def test_every_package_name_the_benchmark_reads_resolves():
    """Every ``pldlab.<name>`` chain the benchmark's code reads, imports
    included, so a removed public function cannot break a workload."""
    names = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute):
                names.add(_dotted(node))
            elif isinstance(node, ast.Import):
                names.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module:
                names.update(f"{node.module}.{alias.name}" for alias in node.names)
    names = {n for n in names if n is not None and n.startswith("pldlab.")}
    assert names
    assert sorted(n for n in names if not _resolves(n)) == []
