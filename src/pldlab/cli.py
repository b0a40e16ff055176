"""Command-line front end.

Subcommands: losscheck, gradcheck, train-teacher, distill, landscape, bench.
Each run resolves its configuration from built-in defaults, then an optional
JSON config file (unknown keys are rejected), then command-line flags, and
validates it.  Only a valid configuration is echoed to ``<out>/config.json``,
so any run can be reproduced exactly from its own artifacts.

Run steps return their artifacts and write nothing; ``main`` alone writes.
Exit codes, and what each leaves: 0 success (the echo and every artifact);
2 usage or configuration error, a size beyond the host's memory or numpy's
largest array included (nothing); 3 verification failure (the echo and the
check's CSV); 4 training failure (the echo only); 5 I/O error (whatever was
written before it).
"""

from __future__ import annotations

import argparse
import copy
import dataclasses
import functools
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
    LOSS_KINDS,
    DistillLossConfig,
    ce_loss,
    default_loss_config,
    evaluate_loss,
    grad_check,
    pld_loss,
)
from .numerics import make_rng
from .ranking import (ENUMERATION_MAX_CLASSES, pl_enumerate, pl_log_likelihood, pl_position_nll,
                      teacher_optimal_permutation)

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


def _signature_defaults(fn) -> dict:
    return {name: p.default for name, p in inspect.signature(fn).parameters.items()}


# The loss, optimizer and landscape blocks are their library dataclasses' fields, the
# dataset block is make_blobs's defaults plus label noise, and the bench block is
# bench_losses's over five sizes.  The rest is set here: the losscheck and gradcheck
# blocks, seeds, layer_sizes, batch_size and epochs (train-teacher runs 20, not 40).
_DATASET_DEFAULTS = {**_signature_defaults(make_blobs), "noise_rate": 0.1}

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
        "losses": list(LOSS_KINDS),
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
        **_signature_defaults(bench_losses),
        "sizes": [[256, 128], [256, 256], [256, 512], [256, 1024], [256, 1000]],
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


def _losscheck_args(config: dict) -> dict:
    if not 2 <= config["oracle_max_classes"] <= ENUMERATION_MAX_CLASSES:
        raise ConfigError(f"oracle_max_classes must lie in [2, {ENUMERATION_MAX_CLASSES}]")
    return {
        "seed": _seed(config["seed"]),
        "instances": _count(config["instances"], "instances", 1),
        "max_c": config["oracle_max_classes"],
    }


def cmd_losscheck(seed: int, instances: int, max_c: int) -> tuple:
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

        pi = np.array([teacher_optimal_permutation(t[i], y[i]) for i in range(n)])
        nll = pl_position_nll(np.take_along_axis(s, pi, axis=1))

        def reference(weights):  # mean over rows of sum_k weights_k * nll_k, in order of k
            return np.mean(np.cumsum(weights * nll, axis=1)[:, -1])

        onehot = pld_loss(s, t, y, scheme="onehot-first")
        plain = ce_loss(s, y)
        worst_ce = max(
            worst_ce,
            abs(onehot.loss - plain.loss),
            float(np.abs(onehot.grad - plain.grad).max()),
        )

        uni = pld_loss(s, t, y, scheme="uniform")
        listmle = np.mean([-pl_log_likelihood(s[i], pi[i]) for i in range(n)])
        worst_uni = max(worst_uni, abs(uni.loss - listmle / c))

        pl = pld_loss(s, t, y, scheme="plistmle-exponential")
        raw = 2.0 ** np.arange(c - 1, -1, -1) - 1.0
        worst_pl = max(worst_pl, abs(pl.loss - reference(raw / raw.sum())))

        tau = float(rng.choice([0.5, 1.0, 2.0, 4.0]))
        soft = pld_loss(s, t, y, tau_T=tau)
        e = np.exp(t / tau - (t / tau).max(axis=1, keepdims=True))
        soft_weights = np.take_along_axis(e / e.sum(axis=1, keepdims=True), pi, axis=1)
        worst_eq = max(worst_eq, abs(soft.loss - reference(soft_weights)))

        shift = rng.uniform(-50.0, 50.0)
        for a, kwargs in ((soft, {"tau_T": tau}), (uni, {"scheme": "uniform"}),
                          (pl, {"scheme": "plistmle-exponential"})):
            b = pld_loss(s + shift, t, y, **kwargs, grad=False)
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
            perms, probs = zip(*table)
            lls = pl_log_likelihood(s, perms).tolist()  # the whole table as one stack
            worst_match = max(worst_match, *(abs(math.exp(ll) - p) for ll, p in zip(lls, probs)))
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
    failure = "loss identity checks failed" if failed else None
    return {"losscheck.csv": "\n".join(lines) + "\n"}, failure


# ---------------------------------------------------------------------------
# gradcheck


def _gradcheck_variants(losses: list, teacher_temperatures: list) -> list:
    if not losses:
        raise ValueError("losses must be nonempty")
    if len(set(losses)) < len(losses):
        raise ValueError(f"losses repeat an entry: {losses}")
    if len({float(t) for t in teacher_temperatures}) < len(teacher_temperatures):
        raise ValueError(f"teacher_temperatures repeat an entry: {teacher_temperatures}")
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
    seed: int, step: float, floor: float, trials: int, threshold: float, sizes: list,
    variants: list,
) -> tuple:
    rng = make_rng(seed)
    dist_row_only = default_loss_config("dist", dist_gamma=0.0)
    rows = []
    worst_overall = 0.0
    for label, loss_cfg in variants:
        worst = {}
        for trial in range(trials):
            n, c = sizes[trial % len(sizes)]
            cfg_nc = loss_cfg if n >= loss_cfg.min_batch_rows else dist_row_only
            s = rng.normal(size=(n, c))
            t = rng.normal(size=(n, c))
            y = rng.integers(0, c, size=n)
            # grad_check reads the gradient of the N x C batch alone, not of its stacks
            err = grad_check(lambda x: evaluate_loss(cfg_nc, x, t, y, grad=x.ndim == 2),
                             s, h=step, floor=floor)
            worst[(n, c)] = max(worst.get((n, c), 0.0), err)
        for (n, c), err in sorted(worst.items()):
            rows.append((label, c, n, err))
            worst_overall = max(worst_overall, err)

    lines = ["loss_kind,n_classes,batch,max_rel_error"]
    for label, c, n, err in rows:
        lines.append(f"{label},{c},{n},{float(err)!r}")
    print(f"gradcheck: {len(rows)} cells, worst relative error {worst_overall:.3e} "
          f"(threshold {threshold:.0e})")
    failed = worst_overall > threshold
    failure = f"gradient check failed: {worst_overall:.3e} > {threshold:.0e}" if failed else None
    return {"gradcheck.csv": "\n".join(lines) + "\n"}, failure


# ---------------------------------------------------------------------------
# training commands


def _training_args(config: dict) -> dict:
    sizes = config["layer_sizes"]
    if len(sizes) < 2 or min(sizes) < 1:
        raise ConfigError(f"invalid layer sizes {sizes}")
    training = {  # every field that needs no dataset, checked before one is built
        "layer_sizes": sizes,
        "opt_cfg": _build(OptimizerConfig, config["optimizer"], "optimizer"),
        "epochs": _count(config["epochs"], "epochs", 1),
        "seed": _seed(config["seed"]),
        "batch_size": _count(config["batch_size"], "batch_size", 1),
    }
    dataset = _build(make_blobs, config["dataset"], "dataset")
    if sizes[0] != dataset.dim or sizes[-1] != dataset.n_classes:
        raise ConfigError(
            f"layer_sizes {sizes} must start at the data dim {dataset.dim} "
            f"and end at the {dataset.n_classes} classes"
        )
    return {"dataset": dataset, **training}


def cmd_train_teacher(**training) -> tuple:
    model, records = train_teacher(**training)
    print(f"teacher trained: {len(records)} epochs, final test top-1 {records[-1].test_top1:.4f}")
    return {"teacher.json": json.dumps(model_to_dict(model)),
            "metrics.csv": metrics_to_csv(records)}, None


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


def cmd_distill(teacher, loss_cfg, **training) -> tuple:
    run = distill_student(teacher=teacher, loss_cfg=loss_cfg, **training)
    print(
        f"student distilled with loss={loss_cfg.kind}: {len(run.records)} epochs, "
        f"final test top-1 {run.records[-1].test_top1:.4f}"
    )
    return {"student.json": json.dumps(model_to_dict(run.model)),
            "metrics.csv": metrics_to_csv(run.records)}, None


# ---------------------------------------------------------------------------
# landscape and bench


def _landscape_args(config: dict) -> dict:
    spec = {**config, "temperatures": tuple(config["temperatures"]),
            "loss_kinds": tuple(config["loss_kinds"])}
    return {"spec": _build(SliceSpec, spec, "landscape")}


def cmd_landscape(spec: SliceSpec) -> tuple:
    csv = slice_to_csv(make_slice(spec))
    points = spec.resolution**2 * len(spec.loss_kinds) * len(spec.temperatures)
    print(f"landscape: wrote {points} grid values")
    return {"landscape.csv": csv}, None


def _bench_args(config: dict) -> dict:
    bench = {k: config[k] for k in ("sizes", "kinds", "trials", "warmup")}
    _build(check_bench_config, bench, "bench")
    return {**bench, "seed": _seed(config["seed"])}


def cmd_bench(**bench) -> tuple:
    results = bench_losses(**bench)
    print(f"{'loss':<6} {'batch':>6} {'classes':>8} {'median_ms':>10}")
    for r in results:
        print(f"{r.loss_kind:<6} {r.batch:>6} {r.n_classes:>8} {r.median_seconds * 1e3:>10.3f}")
    try:
        print(f"pld growth exponent in C: {growth_exponent(results, 'pld'):.3f}")
    except ValueError:
        pass
    return {"bench.csv": bench_to_csv(results)}, None


# ---------------------------------------------------------------------------
# entry point


# command -> (argument step, run step).  The argument step turns the resolved
# config into validated keyword arguments and raises ConfigError.  The run
# step takes those arguments and returns (artifacts, failure): file name ->
# text in write order, and None or a verification failure's message.
_COMMANDS = {
    "losscheck": (_losscheck_args, cmd_losscheck),
    "gradcheck": (_gradcheck_args, cmd_gradcheck),
    "train-teacher": (_training_args, cmd_train_teacher),
    "distill": (_distill_args, cmd_distill),
    "landscape": (_landscape_args, cmd_landscape),
    "bench": (_bench_args, cmd_bench),
}


@functools.cache  # parse_args leaves the parser as it was
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
        os.makedirs(args.out, exist_ok=True)
        try:
            artifacts, failure = run(**kwargs)
        except TrainingFailure:
            _echo_config(args.command, config, args.out)
            raise
        except ValueError as exc:
            if "array is too big" not in str(exc):
                raise
            raise MemoryError(exc) from exc  # beyond numpy's largest array
        _echo_config(args.command, config, args.out)
        for name, text in artifacts.items():
            atomic_write_text(os.path.join(args.out, name), text)
        if failure is not None:
            raise VerificationFailure(failure)
        return EXIT_OK
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
    except MemoryError as exc:  # a size in the config beyond this host's memory
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
