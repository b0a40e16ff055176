"""Inputs, operations and output checks for the pldlab benchmark.

An operation is one call into pldlab's public entry points: one CLI command
through ``pldlab.cli.main`` or one kernel call through ``pldlab.evaluate_loss``.
Both names are looked up at call time, so the tracer's wrappers (and a test's
substitute) take effect.  Each operation has a check that runs after the
timed call and returns a failure message, or None when the output is right.
"""

from __future__ import annotations

import contextlib
import copy
import csv
import hashlib
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import pldlab
import pldlab.cli
from tracing import tie_rows, wide_rows

GROUPS = ("pipeline", "verify", "kernels")
DISTILL_KINDS = ("ce", "kd", "dist", "pld")

# metric, loss kind, input mix
KERNELS = (
    ("kd_rows_per_s", "kd", "continuous"),
    ("dist_rows_per_s", "dist", "continuous"),
    ("pld_rows_per_s", "pld", "continuous"),
    ("pld_tied_rows_per_s", "pld", "tied"),
    ("pld_wide_rows_per_s", "pld", "wide"),
    ("pld_large_c_rows_per_s", "pld", "large_c"),
)

ROW_SUM_TOL = 1e-8
REFERENCE_RTOL = 1e-10
REFERENCE_ROWS = 2  # pld rows per call checked against the reference path


@dataclass(frozen=True)
class Scale:
    """Input sizes; the defaults are the benchmark's, tests shrink them."""

    batch: int = 256
    classes: int = 1000
    large_batch: int = 64
    large_classes: int = 16384
    cli: dict = field(default_factory=dict)  # command -> config overrides


@dataclass
class Op:
    metric: str  # end-to-end metric the timing feeds
    command: str  # name the trace groups spans under
    call: Callable[[], object]
    check: Callable[[object], "str | None"]
    rows: int = 0  # kernel rows per call; 0 for CLI commands


def _merge(base: dict, extra: dict) -> dict:
    out = copy.deepcopy(base)
    for key, value in extra.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _merge(out[key], value)
        else:
            out[key] = copy.deepcopy(value)
    return out


def _write_config(path: Path, doc: dict) -> Path:
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return path


def _run_cli(argv):
    def call():
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = pldlab.cli.main(argv)
        return code, err.getvalue().strip()

    return call


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _csv_rows(path: Path) -> list:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _cli_check(out: Path, artifacts, inspect):
    """Exit code 0, the artifacts exist, ``inspect`` passes, and every rerun
    in the process writes the same bytes as the first run."""
    first = {}

    def check(result):
        code, err = result
        if code != 0:
            return f"exit code {code}: {err}"
        for name in artifacts:
            if not (out / name).is_file():
                return f"missing {name}"
        config = json.loads((out / "config.json").read_text())
        problem = inspect(config)
        if problem:
            return problem
        for name in artifacts:
            digest = _digest(out / name)
            if first.setdefault(name, digest) != digest:
                return f"{name} differs from the first run"
        return None

    return check


def _epochs_check(out: Path):
    def inspect(config):
        rows = _csv_rows(out / "metrics.csv")
        if len(rows) != int(config["epochs"]):
            return f"metrics.csv has {len(rows)} rows for {config['epochs']} epochs"
        return None

    return inspect


def _pipeline_ops(seed: int, inputs: Path, scale: Scale) -> list:
    seeds = {"seed": seed, "dataset": {"seed": seed}}
    teacher_out = inputs / "train-teacher"
    cfg = _write_config(
        inputs / "train-teacher.json", _merge(seeds, scale.cli.get("train-teacher", {}))
    )
    ops = [
        Op(
            "train_teacher_s", "train_teacher",
            _run_cli(["train-teacher", "--config", str(cfg), "--out", str(teacher_out)]),
            _cli_check(teacher_out, ("teacher.json", "metrics.csv"), _epochs_check(teacher_out)),
        )
    ]
    for kind in DISTILL_KINDS:
        out = inputs / f"distill-{kind}"
        doc = _merge(seeds, {"teacher": str(teacher_out / "teacher.json"), "loss": {"kind": kind}})
        cfg = _write_config(
            inputs / f"distill-{kind}.json", _merge(doc, scale.cli.get("distill", {}))
        )
        ops.append(
            Op(
                f"distill_{kind}_s", f"distill_{kind}",
                _run_cli(["distill", "--config", str(cfg), "--out", str(out)]),
                _cli_check(out, ("student.json", "metrics.csv"), _epochs_check(out)),
            )
        )
    return ops


def _gradcheck_inspect(out: Path):
    def inspect(config):
        rows = _csv_rows(out / "gradcheck.csv")
        worst = max((float(r["max_rel_error"]) for r in rows), default=math.inf)
        if not rows or not worst <= float(config["threshold"]):
            return f"gradcheck.csv worst error {worst}"
        return None

    return inspect


def _landscape_inspect(out: Path):
    def inspect(config):
        expected = (
            int(config["resolution"]) ** 2
            * len(config["loss_kinds"])
            * len(config["temperatures"])
        )
        rows = _csv_rows(out / "landscape.csv")
        if len(rows) != expected:
            return f"landscape.csv has {len(rows)} value rows, expected {expected}"
        if not all(math.isfinite(float(r["value"])) for r in rows):
            return "landscape.csv holds a non-finite value"
        return None

    return inspect


def _losscheck_inspect(out: Path):
    def inspect(config):
        rows = _csv_rows(out / "losscheck.csv")
        if not rows or any(r["status"] != "pass" for r in rows):
            return "losscheck.csv reports a failed identity"
        return None

    return inspect


def _verify_ops(seed: int, inputs: Path, scale: Scale) -> list:
    ops = []
    for command, artifact, inspect in (
        ("gradcheck", "gradcheck.csv", _gradcheck_inspect),
        ("landscape", "landscape.csv", _landscape_inspect),
        ("losscheck", "losscheck.csv", _losscheck_inspect),
    ):
        out = inputs / command
        cfg = _write_config(
            inputs / f"{command}.json", _merge({"seed": seed}, scale.cli.get(command, {}))
        )
        ops.append(
            Op(
                f"{command}_s", command,
                _run_cli([command, "--config", str(cfg), "--out", str(out)]),
                _cli_check(out, (artifact,), inspect(out)),
            )
        )
    return ops


def kernel_batches(seed: int, scale: Scale) -> dict:
    """Logit batches by input mix; the same seed gives the same batches."""
    rng = np.random.default_rng([seed, 1])
    n, c = scale.batch, scale.classes
    s = rng.standard_normal((n, c))
    t = rng.standard_normal((n, c))
    y = rng.integers(0, c, size=n)
    nl, cl = scale.large_batch, scale.large_classes
    return {
        "continuous": (s, t, y),
        # teacher logits on a 0.5 grid: every row has tied teacher logits
        "tied": (s, np.round(2.0 * t) / 2.0, y),
        # student spread beyond the linear-space log-sum-exp and tail limits
        "wide": (300.0 * s, t, y),
        "large_c": (
            rng.standard_normal((nl, cl)),
            rng.standard_normal((nl, cl)),
            rng.integers(0, cl, size=nl),
        ),
    }


def kernel_check(config, s, t, y, seed: int):
    """Finite loss, zero-sum gradient rows, a result that repeats exactly, and
    for pld a few sampled rows equal to the public reference path."""
    pick = np.random.default_rng([seed, 2])
    first = []

    def check(result):
        loss, grad = result.loss, np.asarray(result.grad)
        if not math.isfinite(loss):
            return f"loss {loss}"
        if grad.shape != s.shape or not np.isfinite(grad).all():
            return "gradient has the wrong shape or a non-finite entry"
        row_sum = float(np.abs(grad.sum(axis=1)).max())
        if row_sum > ROW_SUM_TOL:
            return f"gradient row sum {row_sum:.3e}"
        if not first:
            first.append((loss, grad.copy()))
        elif loss != first[0][0] or not np.array_equal(grad, first[0][1]):
            return "result differs from the first call on the same batch"
        if config.kind == "pld":
            n = s.shape[0]
            for i in pick.choice(n, size=min(REFERENCE_ROWS, n), replace=False):
                pi = pldlab.teacher_optimal_permutation(t[i], y[i])
                alpha = pldlab.make_weights(t[i], pi, config.pld_scheme, config.teacher_temperature)
                ref = pldlab.pld_gradient_closed_form(s[i], pi, alpha) / n
                err = float(np.abs(grad[i] - ref).max())
                if err > REFERENCE_RTOL * float(np.abs(ref).max()):
                    return f"row {i} differs from the reference gradient by {err:.3e}"
        return None

    return check


def _kernel_ops(seed: int, scale: Scale) -> list:
    batches = kernel_batches(seed, scale)
    ops = []
    for metric, kind, mix in KERNELS:
        config = pldlab.default_loss_config(kind)
        s, t, y = batches[mix]

        def call(config=config, s=s, t=t, y=y):
            return pldlab.evaluate_loss(config, s, t, y)

        ops.append(
            Op(
                metric, metric.removesuffix("_rows_per_s"), call,
                kernel_check(config, s, t, y, seed), rows=s.shape[0],
            )
        )
    return ops


# glibc raises its mmap and trim thresholds to the size of the largest
# mmap-backed block freed so far (up to 32 MiB).  Until then every
# multi-megabyte temporary is a fresh mmap that page-faults on first touch,
# and kernel throughput depends on the process's allocation history (kd at
# C=1000 ran at 12k or 20k rows/s in otherwise equal processes).  Freeing
# one block this size first puts every run in the steady state.
ALLOCATOR_WARMUP_BYTES = 30 << 20


def setup(seed: int, inputs: Path, groups, scale: Scale = Scale()) -> dict:
    """Write config files and generate batches; returns ops by group."""
    np.ones(ALLOCATOR_WARMUP_BYTES // 8).sum()
    inputs.mkdir(parents=True, exist_ok=True)
    ops = {}
    if "pipeline" in groups:
        ops["pipeline"] = _pipeline_ops(seed, inputs, scale)
    if "verify" in groups:
        ops["verify"] = _verify_ops(seed, inputs, scale)
    if "kernels" in groups:
        ops["kernels"] = _kernel_ops(seed, scale)
    return ops


def input_shares(seed: int, scale: Scale = Scale()) -> dict:
    """Tie and wide-row counts of the generated kernel batches, with bases."""
    return {
        mix: {"rows": int(s.shape[0]), "tie_rows": tie_rows(t, y), "wide_rows": wide_rows(s)}
        for mix, (s, t, y) in kernel_batches(seed, scale).items()
    }
