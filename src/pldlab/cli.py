"""Command-line front end.

Subcommands: losscheck, gradcheck, train-teacher, distill, landscape, bench.
Each run resolves its configuration from built-in defaults, then an optional
JSON config file (unknown keys are rejected), then command-line flags, and
validates it.  Only a valid configuration is echoed to ``<out>/config.json``,
so any run can be reproduced exactly from its own artifacts.

Exit codes: 0 success, 2 usage or configuration error, 3 verification
failure, 4 training failure, 5 I/O error.
"""

from __future__ import annotations

import argparse
import copy
import dataclasses
import inspect
import json
import math
import os
import sys

import numpy as np

from .bench import bench_losses, bench_to_csv, check_bench_config, growth_exponent
from .lab.data import make_blobs
from .lab.io import atomic_write_text
from .lab.model import load_model, model_to_dict
from .lab.optim import OptimizerConfig
from .lab.train import (
    TrainingFailure, check_distill, distill_student, metrics_to_csv, train_teacher,
)
from .landscape import SliceSpec, make_slice, slice_to_csv
from .losses import (
    DIVERGENCES,
    DistillLossConfig,
    ce_loss,
    default_loss_config,
    evaluate_loss,
    grad_check,
    pld_loss,
)
from .numerics import make_rng
from .ranking import pl_enumerate, pl_log_likelihood, teacher_optimal_permutation

__all__ = ["main", "ConfigError", "VerificationFailure", "CONFIG_FORMAT_VERSION"]

CONFIG_FORMAT_VERSION = 1

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_VERIFICATION = 3
EXIT_TRAINING = 4
EXIT_IO = 5


class ConfigError(ValueError):
    """Configuration could not be parsed or validated."""


class VerificationFailure(RuntimeError):
    """A check suite ran to completion and found violations."""


# Every default comes from the library.  The dataset adds label noise, the
# one value the command line chooses for itself.
_DATASET_DEFAULTS = {
    name: p.default for name, p in inspect.signature(make_blobs).parameters.items()
}
_DATASET_DEFAULTS["noise_rate"] = 0.1

# The JSON round trip copies each block and turns tuples into lists, as a
# config file would give them.
_DEFAULTS = json.loads(json.dumps({
    "losscheck": {
        "seed": 0,
        "instances": 100,
        "oracle_max_classes": 6,
    },
    "gradcheck": {
        "seed": 0,
        "trials": 20,
        "step": 1e-5,
        "floor": 1e-8,
        "threshold": 1e-5,
        "class_counts": [2, 10, 100],
        "batch_sizes": [1, 8],
        "losses": ["ce", "ls", "kd", "dist", "listmle", "plistmle", "pld"],
        "teacher_temperatures": [0.5, 1.0, 4.0],
    },
    "train-teacher": {
        "seed": 0,
        "dataset": _DATASET_DEFAULTS,
        "layer_sizes": [16, 256, 256, 10],
        "optimizer": dataclasses.asdict(OptimizerConfig()),
        "epochs": 20,
        "batch_size": 128,
    },
    "distill": {
        "seed": 0,
        "teacher": "teacher.json",
        "dataset": _DATASET_DEFAULTS,
        "layer_sizes": [16, 32, 10],
        "loss": dataclasses.asdict(DistillLossConfig()),
        "optimizer": dataclasses.asdict(OptimizerConfig()),
        "epochs": 30,
        "batch_size": 128,
    },
    "landscape": dataclasses.asdict(SliceSpec()),
    "bench": {
        "seed": 0,
        "sizes": [[256, 128], [256, 256], [256, 512], [256, 1024], [256, 1000]],
        "kinds": ["ce", "kd", "dist", "pld"],
        "trials": 11,
        "warmup": 3,
    },
}))

_TYPE_NAMES = {
    int: "an integer", float: "a finite number", str: "a string", list: "a list", dict: "an object"
}


def _check_type(default, value, where: str) -> None:
    """``value`` must have the JSON type of ``default``.  Where that is a
    number, an int in float range may stand for it, but NaN, the infinities
    and bools never do.  List items must match the first default item."""
    if type(default) is float and type(value) in (int, float):
        ok = abs(value) <= sys.float_info.max  # false for NaN
    else:
        ok = type(value) is type(default)
    if not ok:
        raise ConfigError(
            f"config field {where!r} must be {_TYPE_NAMES[type(default)]}, got {value!r}"
        )
    if type(value) is list and default:
        for item in value:
            _check_type(default[0], item, f"{where} entry")


def _merge(defaults, overrides, path=""):
    """Defaults updated by overrides; keys absent from defaults are rejected,
    and so are values of another type."""
    merged = copy.deepcopy(defaults)
    for key, value in overrides.items():
        where = f"{path}.{key}" if path else key
        if key not in defaults:
            raise ConfigError(f"unknown config field {where!r}")
        _check_type(defaults[key], value, where)
        merged[key] = _merge(defaults[key], value, where) if type(value) is dict else value
    return merged


def _resolve_config(command: str, args) -> dict:
    doc = {}
    if args.config is not None:
        try:
            with open(args.config) as fh:
                doc = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"malformed config file: {exc}") from exc
        if not isinstance(doc, dict):
            raise ConfigError("config file must hold a JSON object")
        version = doc.pop("format_version", CONFIG_FORMAT_VERSION)
        if version != CONFIG_FORMAT_VERSION:
            raise ConfigError(f"unsupported config format_version {version!r}")
        file_command = doc.pop("command", command)
        if file_command != command:
            raise ConfigError(
                f"config file is for command {file_command!r}, not {command!r}"
            )
    resolved = _merge(_DEFAULTS[command], doc)
    if args.seed is not None:
        resolved["seed"] = args.seed
    return resolved


def _echo_config(command: str, config: dict, out_dir: str) -> None:
    doc = {"format_version": CONFIG_FORMAT_VERSION, "command": command}
    doc.update(config)
    atomic_write_text(
        os.path.join(out_dir, "config.json"),
        json.dumps(doc, indent=2, sort_keys=True) + "\n",
    )


def _build(factory, doc: dict, what: str):
    """``factory(**doc)``; a ValueError is a config error."""
    try:
        return factory(**doc)
    except ValueError as exc:
        raise ConfigError(f"invalid {what} config: {exc}") from exc


def _count(value: int, name: str, minimum: int) -> int:
    if value < minimum:
        raise ConfigError(f"{name} must be at least {minimum}, got {value}")
    return value


def _seed(value: int) -> int:
    if not 0 <= value < 2**64:
        raise ConfigError("seed must fit in an unsigned 64-bit integer")
    return value


# ---------------------------------------------------------------------------
# losscheck


def _naive_weighted_ranking_loss(s, t, y, weights=None, tau_T=1.0):
    """Direct first-pick-first suffix evaluation, O(C^2); the identity oracle."""
    pi = teacher_optimal_permutation(t, y)
    if weights is None:
        z = np.asarray(t, dtype=np.float64) / tau_T
        e = np.exp(z - z.max())
        weights = (e / e.sum())[pi]
    total = 0.0
    for k in range(len(pi)):
        suffix = np.asarray(s)[pi[k:]]
        m = suffix.max()
        total += weights[k] * (-s[pi[k]] + m + math.log(np.exp(suffix - m).sum()))
    return total


def _losscheck_args(config: dict) -> dict:
    if not 2 <= config["oracle_max_classes"] <= 8:
        raise ConfigError("oracle_max_classes must lie in [2, 8]")
    return {
        "seed": _seed(config["seed"]),
        "instances": _count(config["instances"], "instances", 1),
        "max_c": config["oracle_max_classes"],
    }


def cmd_losscheck(out_dir: str, seed: int, instances: int, max_c: int) -> int:
    rng = make_rng(seed)
    checks = []  # (name, worst, tolerance)

    worst_ce = worst_uni = worst_pl = worst_eq = 0.0
    worst_shift = worst_rowsum = 0.0
    for _ in range(instances):
        c = int(rng.integers(2, 13))
        n = int(rng.integers(1, 5))
        s = rng.normal(size=(n, c))
        t = rng.normal(size=(n, c))
        y = rng.integers(0, c, size=n)

        onehot = pld_loss(s, t, y, scheme="onehot-first")
        plain = ce_loss(s, y)
        worst_ce = max(
            worst_ce,
            abs(onehot.loss - plain.loss),
            float(np.abs(onehot.grad - plain.grad).max()),
        )

        uni = pld_loss(s, t, y, scheme="uniform")
        nll = np.mean(
            [
                -pl_log_likelihood(s[i], teacher_optimal_permutation(t[i], y[i]))
                for i in range(n)
            ]
        )
        worst_uni = max(worst_uni, abs(uni.loss - nll / c))

        pl = pld_loss(s, t, y, scheme="plistmle-exponential")
        raw = np.array([2.0 ** (c - k) - 1.0 for k in range(1, c + 1)])
        direct = np.mean(
            [
                _naive_weighted_ranking_loss(s[i], t[i], y[i], weights=raw / raw.sum())
                for i in range(n)
            ]
        )
        worst_pl = max(worst_pl, abs(pl.loss - direct))

        tau = float(rng.choice([0.5, 1.0, 2.0, 4.0]))
        res = pld_loss(s, t, y, tau_T=tau)
        direct = np.mean(
            [_naive_weighted_ranking_loss(s[i], t[i], y[i], tau_T=tau) for i in range(n)]
        )
        worst_eq = max(worst_eq, abs(res.loss - direct))

        shift = rng.uniform(-50.0, 50.0)
        for scheme in ("teacher-softmax", "uniform", "plistmle-exponential"):
            a = pld_loss(s, t, y, scheme=scheme)
            b = pld_loss(s + shift, t, y, scheme=scheme)
            worst_shift = max(worst_shift, abs(a.loss - b.loss))
            worst_rowsum = max(worst_rowsum, float(np.abs(a.grad.sum(axis=1)).max()))

    checks.append(("pld-onehot-equals-ce", worst_ce, 1e-10))
    checks.append(("pld-uniform-equals-scaled-listmle", worst_uni, 1e-10))
    checks.append(("pld-exponential-equals-plistmle", worst_pl, 1e-10))
    checks.append(("ascending-descending-equivalence", worst_eq, 1e-10))
    checks.append(("translation-invariance", worst_shift, 1e-8))
    checks.append(("gradient-rows-sum-to-zero", worst_rowsum, 1e-8))

    worst_total = worst_match = 0.0
    for c in range(2, max_c + 1):
        for _ in range(max(1, instances // 10)):
            s = rng.normal(size=c) * 2
            table = pl_enumerate(s)
            worst_total = max(worst_total, abs(sum(p for _, p in table) - 1.0))
            for pi, p in table:
                ll = pl_log_likelihood(s, list(pi))
                worst_match = max(worst_match, abs(math.exp(ll) - p))
    checks.append(("enumeration-total-probability", worst_total, 1e-9))
    checks.append(("likelihood-matches-enumeration", worst_match, 1e-10))

    lines = ["check,max_error,tolerance,status"]
    failed = False
    print(f"{'check':<38} {'max_error':>12} {'tolerance':>10} status")
    for name, err, tol in checks:
        status = "pass" if err <= tol else "FAIL"
        failed = failed or status == "FAIL"
        print(f"{name:<38} {err:>12.3e} {tol:>10.0e} {status}")
        lines.append(f"{name},{float(err)!r},{float(tol)!r},{status}")
    atomic_write_text(os.path.join(out_dir, "losscheck.csv"), "\n".join(lines) + "\n")
    if failed:
        raise VerificationFailure("loss identity checks failed")
    return EXIT_OK


# ---------------------------------------------------------------------------
# gradcheck


def _gradcheck_variants(losses: list, teacher_temperatures: list) -> list:
    if not losses:
        raise ValueError("losses must be nonempty")
    if "pld" in losses and not teacher_temperatures:
        raise ValueError("pld needs at least one teacher temperature")
    variants = []
    for kind in losses:
        if kind == "kd":
            for div in DIVERGENCES:
                variants.append((f"kd[{div}]", default_loss_config("kd", divergence=div)))
        elif kind == "pld":
            for tau in teacher_temperatures:
                variants.append(
                    (f"pld[tau_T={tau}]", default_loss_config("pld", teacher_temperature=tau))
                )
        else:
            variants.append((kind, default_loss_config(kind)))
    return variants


def _gradcheck_args(config: dict) -> dict:
    if not config["step"] > 0:
        raise ConfigError("step must be positive")
    if not config["floor"] >= 0:
        raise ConfigError("floor must be nonnegative")
    sizes = [(n, c) for c in config["class_counts"] for n in config["batch_sizes"]]
    if not sizes:
        raise ConfigError("class_counts and batch_sizes must be nonempty")
    if min(c for _, c in sizes) < 2 or min(n for n, _ in sizes) < 1:
        raise ConfigError("class_counts must be at least 2 and batch_sizes at least 1")
    return {
        "seed": _seed(config["seed"]),
        "step": config["step"],
        "floor": config["floor"],
        "trials": _count(config["trials"], "trials", 1),
        "threshold": config["threshold"],
        "sizes": sizes,
        "variants": _build(
            _gradcheck_variants,
            {k: config[k] for k in ("losses", "teacher_temperatures")},
            "gradcheck",
        ),
    }


def cmd_gradcheck(
    out_dir: str, seed: int, step: float, floor: float, trials: int,
    threshold: float, sizes: list, variants: list,
) -> int:
    rng = make_rng(seed)
    dist_row_only = default_loss_config("dist", dist_gamma=0.0)
    rows = []
    worst_overall = 0.0
    for label, loss_cfg in variants:
        worst = {}
        for trial in range(trials):
            n, c = sizes[trial % len(sizes)]
            cfg_nc = loss_cfg
            if loss_cfg.kind == "dist" and n < 2:
                cfg_nc = dist_row_only  # intra-class term requires >= 2 rows
            s = rng.normal(size=(n, c))
            t = rng.normal(size=(n, c))
            y = rng.integers(0, c, size=n)
            err = grad_check(
                lambda x: evaluate_loss(cfg_nc, x, t, y), s, h=step, floor=floor
            )
            worst[(n, c)] = max(worst.get((n, c), 0.0), err)
        for (n, c), err in sorted(worst.items()):
            rows.append((label, c, n, err))
            worst_overall = max(worst_overall, err)

    lines = ["loss_kind,n_classes,batch,max_rel_error"]
    for label, c, n, err in rows:
        lines.append(f"{label},{c},{n},{float(err)!r}")
    atomic_write_text(os.path.join(out_dir, "gradcheck.csv"), "\n".join(lines) + "\n")
    print(f"gradcheck: {len(rows)} cells, worst relative error {worst_overall:.3e} "
          f"(threshold {threshold:.0e})")
    if worst_overall > threshold:
        raise VerificationFailure(
            f"gradient check failed: {worst_overall:.3e} > {threshold:.0e}"
        )
    return EXIT_OK


# ---------------------------------------------------------------------------
# training commands


def _training_args(config: dict) -> dict:
    dataset = _build(make_blobs, config["dataset"], "dataset")
    sizes = config["layer_sizes"]
    if len(sizes) < 2 or min(sizes) < 1:
        raise ConfigError(f"invalid layer sizes {sizes}")
    if sizes[0] != dataset.dim or sizes[-1] != dataset.n_classes:
        raise ConfigError(
            f"layer_sizes {sizes} must start at the data dim {dataset.dim} "
            f"and end at the {dataset.n_classes} classes"
        )
    return {
        "dataset": dataset,
        "layer_sizes": sizes,
        "opt_cfg": _build(OptimizerConfig, config["optimizer"], "optimizer"),
        "epochs": _count(config["epochs"], "epochs", 1),
        "seed": _seed(config["seed"]),
        "batch_size": _count(config["batch_size"], "batch_size", 1),
    }


def cmd_train_teacher(out_dir: str, **training) -> int:
    model, records = train_teacher(**training)
    atomic_write_text(
        os.path.join(out_dir, "teacher.json"), json.dumps(model_to_dict(model))
    )
    atomic_write_text(os.path.join(out_dir, "metrics.csv"), metrics_to_csv(records))
    print(f"teacher trained: {len(records)} epochs, final test top-1 {records[-1].test_top1:.4f}")
    return EXIT_OK


def _distill_args(config: dict) -> dict:
    if not config["teacher"]:
        raise ConfigError("'teacher' must be a path to a teacher model file")
    loss_cfg = _build(DistillLossConfig, config["loss"], "loss")
    training = _training_args(config)
    try:  # an unreadable teacher file is an I/O error
        teacher = load_model(config["teacher"])
        check_distill(
            training["dataset"], teacher, training["layer_sizes"], loss_cfg,
            training["batch_size"],
        )
    except ValueError as exc:
        raise ConfigError(f"invalid teacher or distillation config: {exc}") from exc
    return {"teacher": teacher, "loss_cfg": loss_cfg, **training}


def cmd_distill(out_dir: str, teacher, loss_cfg, **training) -> int:
    try:
        run = distill_student(teacher=teacher, loss_cfg=loss_cfg, **training)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    atomic_write_text(
        os.path.join(out_dir, "student.json"), json.dumps(model_to_dict(run.model))
    )
    atomic_write_text(os.path.join(out_dir, "metrics.csv"), metrics_to_csv(run.records))
    print(
        f"student distilled with loss={loss_cfg.kind}: {len(run.records)} epochs, "
        f"final test top-1 {run.records[-1].test_top1:.4f}"
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# landscape and bench


def _landscape_args(config: dict) -> dict:
    _seed(config["seed"])
    spec = {**config, "temperatures": tuple(config["temperatures"]),
            "loss_kinds": tuple(config["loss_kinds"])}
    return {"spec": _build(SliceSpec, spec, "landscape")}


def cmd_landscape(out_dir: str, spec: SliceSpec) -> int:
    grid = make_slice(spec)
    atomic_write_text(os.path.join(out_dir, "landscape.csv"), slice_to_csv(grid))
    points = spec.resolution**2 * len(spec.loss_kinds) * len(spec.temperatures)
    print(f"landscape: wrote {points} grid values")
    return EXIT_OK


def _bench_args(config: dict) -> dict:
    bench = {k: config[k] for k in ("sizes", "kinds", "trials", "warmup")}
    _build(check_bench_config, bench, "bench")
    return {**bench, "seed": _seed(config["seed"])}


def cmd_bench(out_dir: str, **bench) -> int:
    results = bench_losses(**bench)
    atomic_write_text(os.path.join(out_dir, "bench.csv"), bench_to_csv(results))
    print(f"{'loss':<6} {'batch':>6} {'classes':>8} {'median_ms':>10}")
    for r in results:
        print(f"{r.loss_kind:<6} {r.batch:>6} {r.n_classes:>8} {r.median_seconds * 1e3:>10.3f}")
    try:
        print(f"pld growth exponent in C: {growth_exponent(results, 'pld'):.3f}")
    except ValueError:
        pass
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point


# command -> (argument step, run step).  The argument step turns the resolved
# config into validated keyword arguments and raises ConfigError before
# anything is written; the run step takes the output directory and those
# arguments.
_COMMANDS = {
    "losscheck": (_losscheck_args, cmd_losscheck),
    "gradcheck": (_gradcheck_args, cmd_gradcheck),
    "train-teacher": (_training_args, cmd_train_teacher),
    "distill": (_distill_args, cmd_distill),
    "landscape": (_landscape_args, cmd_landscape),
    "bench": (_bench_args, cmd_bench),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pldlab",
        description="Ranking-loss distillation laboratory",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name, help=f"run the {name} command")
        p.add_argument("--config", default=None, help="JSON config file")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out", default=".", help="output directory (default: .)")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = _resolve_config(args.command, args)
        command_args, run = _COMMANDS[args.command]
        kwargs = command_args(config)
        out_dir = args.out
        os.makedirs(out_dir, exist_ok=True)
        _echo_config(args.command, config, out_dir)
        return run(out_dir, **kwargs)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except VerificationFailure as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION
    except TrainingFailure as exc:
        print(f"training failure: {exc}", file=sys.stderr)
        return EXIT_TRAINING
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
