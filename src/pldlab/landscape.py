"""2-D loss surfaces over random orthonormal directions in logit space.

A slice fixes a unit-norm anchor point t (also used as the teacher logits),
two orthonormal directions d1 and d2, and evaluates a loss at the student
logits s(a, b) = t + a*d1 + b*d2 over a square grid.  The label for
label-dependent losses is argmax(t) (first index on ties), which makes the
teacher-optimal ranking exactly the descending sort of t.

Each value is ``evaluate_loss`` under the slice config at temperature T,
``DistillLossConfig(kind, ce_mix=0, kd_temperature=T, teacher_temperature=T,
dist_beta=1, dist_gamma=0)``: kd and dist are pure distillation terms, and dist,
on a grid point as a batch of one row, keeps its inter-class term alone.

Every loss on the slice is row-separable, so a whole (loss, temperature)
grid is one kernel call on a stack of one-row batches, one per grid point,
that share the anchor; each value is bit for bit the loss of that point
evaluated on its own.  The convexity
probe likewise evaluates all of its points in one call.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field, replace

import numpy as np

from .lab.io import atomic_write_text
from .losses import DistillLossConfig, _tau_squared, evaluate_loss
from .losses import ce_loss, dist_loss, kd_loss, pld_loss  # unused; perfbench's SITES wrap them
from .numerics import make_rng

__all__ = [
    "SliceSpec",
    "SliceGrid",
    "SLICE_LOSS_KINDS",
    "SLICE_CSV_HEADER",
    "point_loss",
    "make_slice",
    "temperature_sweep",
    "line_convexity_probe",
    "slice_to_csv",
    "write_slice_csv",
]

SLICE_LOSS_KINDS = ("pld", "kd", "dist", "ce")
SLICE_CSV_HEADER = "alpha,beta,loss_kind,temperature,value"

# The grid runs from -span to span, so 2 * span must be finite; then every
# point t + a*d1 + b*d2 is at most 1 + sqrt(2) * span in size, finite too.
_MAX_SPAN = sys.float_info.max / 2
_GRAM_SCHMIDT_TOL = 1e-8
_GRAM_SCHMIDT_RETRIES = 8


@dataclass(frozen=True)
class SliceSpec:
    """A slice configuration; construction rejects out-of-range fields."""

    n_classes: int = 100
    resolution: int = 41
    span: float = 5.0
    temperatures: tuple = (2.0, 1.0, 0.5, 0.1)
    loss_kinds: tuple = ("pld", "kd", "dist")
    seed: int = 0

    def __post_init__(self):
        if self.n_classes < 2:
            raise ValueError("need at least 2 classes")
        if self.resolution < 3:
            raise ValueError("grid resolution must be at least 3")
        if not self.span > 0:
            raise ValueError("span must be positive")
        if self.span > _MAX_SPAN:
            raise ValueError(f"span must be at most {_MAX_SPAN!r}, so the grid stays finite")
        if not self.temperatures:
            raise ValueError("temperatures must be nonempty")
        for t in self.temperatures:
            _tau_squared(t, "temperatures")
        if len({float(t) for t in self.temperatures}) < len(self.temperatures):
            raise ValueError(f"temperatures repeat an entry: {self.temperatures}")
        bad = [k for k in self.loss_kinds if k not in SLICE_LOSS_KINDS]
        if bad or not self.loss_kinds:
            raise ValueError(f"unsupported slice loss kinds: {bad}")
        if len(set(self.loss_kinds)) < len(self.loss_kinds):
            raise ValueError(f"loss kinds repeat an entry: {self.loss_kinds}")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in an unsigned 64-bit integer")


@dataclass(frozen=True)
class SliceGrid:
    spec: SliceSpec
    alphas: np.ndarray
    betas: np.ndarray
    anchor: np.ndarray  # unit-norm teacher logits t
    d1: np.ndarray
    d2: np.ndarray
    label: int
    values: dict = field(default_factory=dict)  # (loss_kind, temperature) -> R x R


def _draw_directions(rng: np.random.Generator, v: int):
    """Unit anchor plus two Gram-Schmidt-orthonormalized random directions."""
    def orthonormal_to(basis):
        for _ in range(_GRAM_SCHMIDT_RETRIES):
            d = rng.standard_normal(v)
            for b in basis:
                d = d - (d @ b) * b
            norm = np.linalg.norm(d)
            if norm > _GRAM_SCHMIDT_TOL:
                return d / norm
        raise RuntimeError("Gram-Schmidt failed to produce an orthonormal direction")

    t = orthonormal_to([])
    d1 = orthonormal_to([])
    d2 = orthonormal_to([d1])
    return t, d1, d2


def point_loss(kind: str, s: np.ndarray, t: np.ndarray, y: int, temperature: float) -> np.ndarray:
    """Loss values at a stack of slice points, one point per row of ``s``.

    ``s`` is R x C (a single point of shape (C,) counts as R = 1); every row
    shares the teacher logits ``t`` and label ``y``.  Returns the R per-row
    losses of one value-only evaluate_loss call under the slice config at
    ``temperature`` on a stack of R one-row batches, which softens or ranks
    the shared teacher row once.
    """
    if kind not in SLICE_LOSS_KINDS:
        raise ValueError(f"unsupported slice loss kind {kind!r}")
    config = DistillLossConfig(kind, ce_mix=0.0, kd_temperature=temperature,
                               teacher_temperature=temperature, dist_beta=1.0, dist_gamma=0.0)
    t1 = np.asarray(t, dtype=np.float64)[None]
    return evaluate_loss(config, np.atleast_2d(s)[:, None, :], t1, [int(y)], grad=False).rows[:, 0]


def make_slice(spec: SliceSpec) -> SliceGrid:
    """Evaluate every configured (loss, temperature) pair over the grid."""
    rng = make_rng(spec.seed)
    t, d1, d2 = _draw_directions(rng, spec.n_classes)
    half = spec.span * float(np.linalg.norm(t))  # == span: t has unit norm
    if spec.resolution >= 2**60:  # 2**63 bytes; near 2**63 np.linspace raises IndexError
        raise MemoryError(f"resolution {spec.resolution} is beyond numpy's largest array")
    coords = np.linspace(-half, half, spec.resolution)
    y = int(np.argmax(t))
    # point (i, j) is (t + a_i*d1) + b_j*d2, summed in that order
    base = t + coords[:, None] * d1
    points = (base[:, None, :] + (coords[:, None] * d2)[None, :, :]).reshape(-1, t.shape[0])
    shape = (spec.resolution, spec.resolution)
    values = {}
    for kind in spec.loss_kinds:
        for temp in spec.temperatures:
            values[(kind, float(temp))] = point_loss(kind, points, t, y, temp).reshape(shape)
    return SliceGrid(
        spec=spec, alphas=coords, betas=coords.copy(),
        anchor=t, d1=d1, d2=d2, label=y, values=values,
    )


def temperature_sweep(spec: SliceSpec) -> list:
    """One single-temperature grid per configured temperature, sharing the
    anchor and directions (same seed, same slice plane)."""
    grid = make_slice(spec)
    return [replace(grid, values={k: v for k, v in grid.values.items() if k[1] == float(temp)})
            for temp in spec.temperatures]


def line_convexity_probe(
    kind: str,
    spec: SliceSpec,
    trials: int,
    temperature: float = 1.0,
    tolerance: float = 1e-9,
) -> int:
    """Count violations of L(lam*p + (1-lam)*q) <= lam*L(p) + (1-lam)*L(q).

    p and q are random points on the slice plane, lam is uniform on (0, 1).
    A convex loss restricted to the plane (an affine subspace of logit
    space) must give zero violations up to the tolerance.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    rng = make_rng(spec.seed)
    t, d1, d2 = _draw_directions(rng, spec.n_classes)
    y = int(np.argmax(t))
    half = spec.span

    p = np.empty((trials, 2))
    q = np.empty((trials, 2))
    lam = np.empty((trials, 1))
    for i in range(trials):  # the draw order fixes the trials for a seed
        p[i] = rng.uniform(-half, half, size=2)
        q[i] = rng.uniform(-half, half, size=2)
        lam[i] = rng.uniform(0.0, 1.0)
    ab = np.concatenate([lam * p + (1.0 - lam) * q, p, q])
    losses = point_loss(kind, t + ab[:, :1] * d1 + ab[:, 1:] * d2, t, y, temperature)
    mid, at_p, at_q = losses.reshape(3, trials)
    lam = lam.ravel()
    return int((mid > lam * at_p + (1.0 - lam) * at_q + tolerance).sum())


def slice_to_csv(grid: SliceGrid) -> str:
    """CSV of the grid's (kind, temperature) entries in order (make_slice's: kinds,
    then temperatures), row-major; floats as repr, each coordinate and prefix formatted once."""
    lines = [SLICE_CSV_HEADER]
    alphas = [repr(a) for a in grid.alphas.tolist()]
    betas = [repr(b) for b in grid.betas.tolist()]
    for (kind, temp), values in grid.values.items():
        tail = f",{kind},{float(temp)!r},"
        for a, row in zip(alphas, values.tolist()):
            lines.extend(f"{a},{b}{tail}{v!r}" for b, v in zip(betas, row))
    return "\n".join(lines) + "\n"


def write_slice_csv(grid: SliceGrid, path) -> None:
    atomic_write_text(path, slice_to_csv(grid))
