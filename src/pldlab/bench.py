"""Wall-clock timing of loss + gradient evaluation.

Each measurement draws one fixed batch of standard-normal logits, runs a
few warm-up evaluations, then reports the median over the timed trials.
Only the loss call itself is timed; data generation is excluded.  The call
is evaluate_loss's default, which computes the gradient: a value-only call
(``grad=False``) would time less than a training step needs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .losses import default_loss_config, evaluate_loss
from .numerics import make_rng

__all__ = [
    "BenchResult",
    "BENCH_CSV_HEADER",
    "bench_losses",
    "growth_exponent",
    "bench_to_csv",
    "check_bench_config",
]

BENCH_CSV_HEADER = "loss_kind,batch,n_classes,trials,median_seconds"


@dataclass(frozen=True)
class BenchResult:
    loss_kind: str
    batch: int
    n_classes: int
    trials: int
    median_seconds: float


def bench_losses(
    sizes=((256, 1000),),
    kinds=("ce", "kd", "dist", "pld"),
    trials: int = 11,
    warmup: int = 3,
    seed: int = 0,
) -> list:
    """Median per-batch loss+gradient seconds for each (kind, N, C)."""
    check_bench_config(sizes, kinds, trials, warmup)
    results = []
    for n, c in sizes:
        rng = make_rng(seed)
        s = rng.standard_normal((n, c))
        t = rng.standard_normal((n, c))
        y = rng.integers(0, c, size=n)
        for kind in kinds:
            cfg = default_loss_config(kind)
            for _ in range(warmup):
                evaluate_loss(cfg, s, t, y)
            samples = []
            for _ in range(trials):
                start = time.perf_counter()
                evaluate_loss(cfg, s, t, y)
                samples.append(time.perf_counter() - start)
            results.append(
                BenchResult(
                    loss_kind=kind,
                    batch=int(n),
                    n_classes=int(c),
                    trials=int(trials),
                    median_seconds=float(np.median(samples)),
                )
            )
    return results


def check_bench_config(sizes, kinds, trials: int, warmup: int) -> None:
    """Raise ValueError unless ``bench_losses`` can run every measurement."""
    if trials < 1 or warmup < 0:
        raise ValueError("need trials >= 1 and warmup >= 0")
    if not sizes or not kinds:
        raise ValueError("sizes and kinds must be nonempty")
    for n, c in sizes:
        if n < 1 or c < 2:
            raise ValueError(f"invalid benchmark size ({n}, {c})")
    for kind in kinds:
        if min(n for n, _ in sizes) < default_loss_config(kind).min_batch_rows:
            raise ValueError("dist's intra-class term needs a batch of at least 2 rows")
    if len({(n, c) for n, c in sizes}) < len(sizes) or len(set(kinds)) < len(kinds):
        raise ValueError(f"sizes or kinds repeat an entry: {sizes}, {kinds}")


def growth_exponent(results, kind: str) -> float:
    """Least-squares slope of log(median time) against log(C) for one kind."""
    pts = [(r.n_classes, r.median_seconds) for r in results if r.loss_kind == kind]
    if len(pts) < 2:
        raise ValueError(f"need at least two class counts for {kind!r}")
    cs, ts = zip(*sorted(pts))
    return float(np.polyfit(np.log(cs), np.log(ts), 1)[0])


def bench_to_csv(results) -> str:
    lines = [BENCH_CSV_HEADER]
    for r in results:
        lines.append(
            f"{r.loss_kind},{r.batch},{r.n_classes},{r.trials},{r.median_seconds!r}"
        )
    return "\n".join(lines) + "\n"
