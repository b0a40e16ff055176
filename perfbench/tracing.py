"""Outside-in layer trace for pldlab.

The tracer replaces public functions with timing wrappers at the module
attribute each caller looks the name up in (for example
``pldlab.lab.train.forward`` or ``pldlab.losses.ascending_rankings``), so the
program runs its own code path and nothing under ``src/`` is edited.  Every
wrapped call is a span with a name ``<layer>.<function>``; a span's self time
is its duration minus the time its child spans cover, so the self times of
one traced operation add up to that operation's wall time.

Input-property probes (tie rows, wide rows) run inside a wrapper but on a
paused clock, so their cost is not charged to any span.
"""

from __future__ import annotations

import functools
import statistics
import importlib
from collections import Counter, defaultdict
from dataclasses import dataclass
from time import perf_counter

import numpy as np


def _rows(index):
    def rows_of(args):
        return int(np.shape(args[index])[0]) if len(args) > index else 0

    return rows_of


def _text_bytes(args):
    return len(args[1].encode()) if len(args) > 1 else 0


def tie_rows(t, labels) -> int:
    """Rows whose teacher key (label set to +inf) holds a tie: the re-sort path."""
    key = np.array(t, dtype=np.float64)
    key[np.arange(key.shape[0]), labels] = np.inf
    key.sort(axis=1)
    return int((key[:, 1:] == key[:, :-1]).any(axis=1).sum())


def wide_rows(x) -> int:
    """Rows whose finite spread takes the sequential logaddexp path."""
    from pldlab.numerics import _FAST_LCSE_SPAN

    x = np.asarray(x)
    top = x.max(axis=1)
    low = np.where(np.isinf(x), np.inf, x).min(axis=1)
    with np.errstate(invalid="ignore"):
        return int((~np.isneginf(top) & (top - low >= _FAST_LCSE_SPAN)).sum())


def _probe_ties(tracer, args):
    tracer.counts["tie_rows"] += tie_rows(args[0], args[1])


def _probe_wide(tracer, args):
    tracer.counts["wide_rows"] += wide_rows(args[0])


# (module, attribute the caller looks up, span name, rows counter, probe)
SITES = (
    ("pldlab.cli", "main", "cli.main", None, None),
    ("pldlab", "evaluate_loss", "losses.evaluate_loss", _rows(1), None),
    ("pldlab.cli", "make_blobs", "lab.data.make_blobs", None, None),
    ("pldlab.cli", "load_model", "lab.io.load_model", None, None),
    ("pldlab.cli", "atomic_write_text", "lab.io.write", _text_bytes, None),
    ("pldlab.cli", "train_teacher", "lab.train.train_teacher", None, None),
    ("pldlab.cli", "distill_student", "lab.train.distill_student", None, None),
    ("pldlab.cli", "make_slice", "landscape.make_slice", None, None),
    ("pldlab.cli", "slice_to_csv", "landscape.slice_to_csv", None, None),
    ("pldlab.cli", "grad_check", "losses.grad_check", None, None),
    ("pldlab.cli", "evaluate_loss", "losses.evaluate_loss", _rows(1), None),
    ("pldlab.cli", "ce_loss", "losses.ce_loss", _rows(0), None),
    ("pldlab.cli", "pld_loss", "losses.pld_loss", _rows(0), None),
    ("pldlab.cli", "pl_enumerate", "ranking.pl_enumerate", None, None),
    ("pldlab.cli", "pl_log_likelihood", "ranking.pl_log_likelihood", None, None),
    ("pldlab.cli", "teacher_optimal_permutation",
     "ranking.teacher_optimal_permutation", None, None),
    ("pldlab.lab.train", "forward", "lab.model.forward", _rows(1), None),
    ("pldlab.lab.train", "backward", "lab.model.backward", _rows(1), None),
    ("pldlab.lab.train", "init_mlp", "lab.model.init_mlp", None, None),
    ("pldlab.lab.train", "init_optimizer", "lab.optim.init_optimizer", None, None),
    ("pldlab.lab.train", "step_optimizer", "lab.optim.step_optimizer", None, None),
    ("pldlab.lab.train", "accuracy", "lab.train.accuracy", _rows(1), None),
    ("pldlab.lab.train", "evaluate_loss", "losses.evaluate_loss", _rows(1), None),
    ("pldlab.lab.train", "ce_loss", "losses.ce_loss", _rows(0), None),
    ("pldlab.lab.train", "student_teacher_kl", "losses.student_teacher_kl", _rows(0), None),
    ("pldlab.lab.model", "forward_trace", "lab.model.forward_trace", _rows(1), None),
    ("pldlab.landscape", "point_loss", "landscape.point_loss", None, None),
    ("pldlab.landscape", "ce_loss", "losses.ce_loss", _rows(0), None),
    ("pldlab.landscape", "kd_loss", "losses.kd_loss", _rows(0), None),
    ("pldlab.landscape", "dist_loss", "losses.dist_loss", _rows(0), None),
    ("pldlab.landscape", "pld_loss", "losses.pld_loss", _rows(0), None),
    ("pldlab.losses", "ce_loss", "losses.ce_loss", _rows(0), None),
    ("pldlab.losses", "ls_loss", "losses.ls_loss", _rows(0), None),
    ("pldlab.losses", "kd_loss", "losses.kd_loss", _rows(0), None),
    ("pldlab.losses", "dist_loss", "losses.dist_loss", _rows(0), None),
    ("pldlab.losses", "pld_loss", "losses.pld_loss", _rows(0), None),
    ("pldlab.losses", "standardize_rows", "losses.standardize_rows", _rows(0), None),
    ("pldlab.losses", "as_finite_matrix", "numerics.as_finite_matrix", None, None),
    ("pldlab.losses", "as_labels", "numerics.as_labels", None, None),
    ("pldlab.losses", "softmax", "numerics.softmax", None, None),
    ("pldlab.losses", "log_softmax", "numerics.log_softmax", None, None),
    ("pldlab.losses", "_log_cumsum_exp_rows", "numerics.log_cumsum_exp_rows",
     _rows(0), _probe_wide),
    ("pldlab.losses", "ascending_rankings", "ranking.ascending_rankings",
     _rows(0), _probe_ties),
)

# Allowed gap, per traced operation, between its wall time and the sum of its
# spans' self times: the root wrapper's own entry and exit take microseconds;
# the allowance is summed over a run so one preempted wrapper cannot fail it.
GAP_SECONDS = 1e-4
GAP_SHARE = 1e-3

LAYERS = ("cli", "lab.data", "lab.io", "lab.model", "lab.optim", "lab.train",
          "losses", "ranking", "numerics", "landscape")


def layer_of(span: str) -> str:
    return span.rsplit(".", 1)[0]


@dataclass
class SpanStats:
    calls: int = 0
    rows: int = 0
    total: float = 0.0
    self: float = 0.0


class Tracer:
    """Span recorder; spans are only recorded while an operation is active."""

    def __init__(self):
        self.active = False
        self.command = None
        self.paused = 0.0  # probe time, removed from every span's clock
        self.stack = []  # open spans: [name, child seconds]
        self.stats = defaultdict(SpanStats)  # (command, span) -> stats
        self.edges = Counter()  # (parent span, child span) -> calls
        self.counts = Counter()  # probe counters
        self.self_total = 0.0
        self.walls = Counter()  # command -> traced seconds, probes excluded
        self.unattributed = 0.0  # traced wall not covered by any span's self time
        self.allowance = 0.0  # the part of ``unattributed`` the wrappers explain
        self._saved = []

    def clock(self) -> float:
        return perf_counter() - self.paused

    def _wrap(self, fn, span, rows_of, probe):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            if probe is not None:
                t0 = perf_counter()
                probe(self, args)
                self.paused += perf_counter() - t0
            parent = self.stack[-1] if self.stack else None
            frame = [span, 0.0]
            self.stack.append(frame)
            start = self.clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = self.clock() - start
                self.stack.pop()
                stats = self.stats[(self.command, span)]
                stats.calls += 1
                stats.rows += rows_of(args) if rows_of is not None else 0
                stats.total += duration
                stats.self += duration - frame[1]
                self.self_total += duration - frame[1]
                if parent is not None:
                    parent[1] += duration
                    self.edges[(parent[0], span)] += 1

        return traced

    def install(self) -> None:
        for module_name, attr, span, rows_of, probe in SITES:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, span, rows_of, probe))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def run(self, command: str, fn):
        """Run one operation traced; returns (result, wall seconds)."""
        self.command = command
        self_before, paused_before = self.self_total, self.paused
        self.active = True
        start = perf_counter()
        try:
            result = fn()
        finally:
            wall = perf_counter() - start
            self.active = False
        traced_wall = wall - (self.paused - paused_before)
        self.walls[command] += traced_wall
        self.unattributed += abs(traced_wall - (self.self_total - self_before))
        self.allowance += GAP_SECONDS + GAP_SHARE * traced_wall
        return result, wall

    # -- aggregation ------------------------------------------------------

    def total_stats(self, command=None):
        """Span stats summed over commands (or for one command)."""
        out = defaultdict(SpanStats)
        for (cmd, span), s in self.stats.items():
            if command is None or cmd == command:
                acc = out[span]
                acc.calls += s.calls
                acc.rows += s.rows
                acc.total += s.total
                acc.self += s.self
        return out


def layer_metrics(tracer: Tracer, walls: dict) -> dict:
    """Per-layer metrics per traced pass, from the recorded spans.

    ``walls`` maps traced (True) and untraced (False) to the wall seconds of
    each pass of the same operations.
    """
    passes = max(1, len(walls[True]))
    st = tracer.total_stats()
    out = {}

    def put(name, value, unit):
        out[name] = {"value": float(value), "unit": unit}

    def share(num, den):
        return num / den if den else 0.0

    def per_pass(name, value, unit):
        put(name, value / passes, unit)

    per_pass("cli.self_s", st["cli.main"].self, "s")
    per_pass("lab.data.make_blobs_s", st["lab.data.make_blobs"].total, "s")
    per_pass("lab.io.load_model_s", st["lab.io.load_model"].total, "s")
    per_pass("lab.io.write_s", st["lab.io.write"].total, "s")
    per_pass("lab.io.write_bytes", st["lab.io.write"].rows, "bytes")

    fwd, bwd = st["lab.model.forward_trace"], st["lab.model.backward"]
    per_pass("lab.model.forward_calls", fwd.calls, "count")
    per_pass("lab.model.forward_rows", fwd.rows, "rows")
    per_pass("lab.model.forward_s", fwd.total + st["lab.model.forward"].self, "s")
    per_pass("lab.model.backward_s", bwd.self, "s")
    # rows pushed through forward_trace per row a training step consumed
    put("lab.model.forward_rows_per_train_row", share(fwd.rows, bwd.rows), "ratio")
    for command in ("train_teacher",) + tuple(f"distill_{k}" for k in ("ce", "kd", "dist", "pld")):
        cst = tracer.total_stats(command)
        put(f"lab.model.forward_rows_per_train_row.{command}",
            share(cst["lab.model.forward_trace"].rows, cst["lab.model.backward"].rows), "ratio")

    per_pass("lab.optim.step_calls", st["lab.optim.step_optimizer"].calls, "count")
    per_pass("lab.optim.step_s", st["lab.optim.step_optimizer"].total, "s")
    per_pass("lab.train.eval_s",
             st["lab.train.accuracy"].total + st["losses.student_teacher_kl"].total, "s")

    for kind in ("ce", "kd", "dist", "pld"):
        s = st[f"losses.{kind}_loss"]
        per_pass(f"losses.{kind}.calls", s.calls, "count")
        per_pass(f"losses.{kind}.rows", s.rows, "rows")
        per_pass(f"losses.{kind}.s", s.total, "s")
    per_pass("losses.pld.self_s", st["losses.pld_loss"].self, "s")
    chunks = tracer.edges[("losses.pld_loss", "ranking.ascending_rankings")]
    lcse = tracer.edges[("losses.pld_loss", "numerics.log_cumsum_exp_rows")]
    # a chunk that takes the log-space gradient tail runs a second log-cumsum-exp
    put("losses.pld.log_tail_chunk_share", share(lcse - chunks, chunks), "ratio")
    per_pass("losses.evaluate_loss.self_s", st["losses.evaluate_loss"].self, "s")
    per_pass("losses.grad_check.loss_calls",
             tracer.edges[("losses.grad_check", "losses.evaluate_loss")], "count")
    per_pass("losses.grad_check.self_s", st["losses.grad_check"].self, "s")

    asc = st["ranking.ascending_rankings"]
    per_pass("ranking.ascending_rankings_s", asc.total, "s")
    per_pass("ranking.ascending_rankings_rows", asc.rows, "rows")
    put("ranking.tie_row_share", share(tracer.counts["tie_rows"], asc.rows), "ratio")
    per_pass("ranking.pl_enumerate_s", st["ranking.pl_enumerate"].total, "s")
    per_pass("ranking.pl_log_likelihood_calls", st["ranking.pl_log_likelihood"].calls, "count")

    validate = (st["numerics.as_finite_matrix"], st["numerics.as_labels"])
    per_pass("numerics.validate_calls", sum(v.calls for v in validate), "count")
    per_pass("numerics.validate_s", sum(v.total for v in validate), "s")
    per_pass("numerics.softmax_s", st["numerics.softmax"].total, "s")
    per_pass("numerics.log_softmax_s", st["numerics.log_softmax"].total, "s")
    lc = st["numerics.log_cumsum_exp_rows"]
    per_pass("numerics.log_cumsum_exp_s", lc.total, "s")
    per_pass("numerics.log_cumsum_exp_rows", lc.rows, "rows")
    put("numerics.wide_row_share", share(tracer.counts["wide_rows"], lc.rows), "ratio")

    point = st["landscape.point_loss"]
    per_pass("landscape.point_loss_calls", point.calls, "count")
    per_pass("landscape.point_loss_s", point.total, "s")
    put("landscape.point_loss_share", share(point.total, tracer.walls["landscape"]), "ratio")

    for layer in LAYERS:
        per_pass(f"{layer}.self_s",
                 sum(s.self for span, s in st.items() if layer_of(span) == layer), "s")

    traced, plain = statistics.median(walls[True]), statistics.median(walls[False])
    put("trace.wall_s", traced, "s")
    put("trace.untraced_wall_s", plain, "s")
    put("trace.overhead_s", traced - plain, "s")
    put("trace.overhead_share", share(traced - plain, plain), "ratio")
    put("trace.unattributed_share",
        share(tracer.unattributed, sum(tracer.walls.values())), "ratio")
    per_pass("trace.unattributed_s", tracer.unattributed, "s")
    per_pass("trace.unattributed_allowance_s", tracer.allowance, "s")
    per_pass("trace.probe_s", tracer.paused, "s")
    put("trace.passes", len(walls[True]), "count")
    return out
