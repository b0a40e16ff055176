"""pldlab benchmark: one closed-loop, single-client workload per run.

    python3 perfbench/run.py --workload pipeline --seed 1 --seconds 58 --trace 0

Run from the root of a checkout; pldlab is imported from ``src/``.  One
caller issues each operation and waits for it to return.  With ``--trace 0``
the last stdout line is the result object with every end-to-end metric; with
``--trace 1`` it holds the per-layer metrics of a traced run.  End-to-end
times are scaled to a nominal host speed by ``hostspeed``.  See README.md
in this directory for the workloads and the layer-to-metric map.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import hostspeed

# One BLAS thread: the run is one caller on a 2-core host, and a second BLAS
# thread makes every matrix product wait on the busier of two cores.  Set
# before numpy loads; set-up processes inherit it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

KERNEL_WARMUP_ROUNDS = 2  # untimed kernel rounds before the first slot
# A command longer than this (gradcheck, 8-12 s) runs once per run.
# Shorter ones repeat round-robin, each up to MAX_REPEATS times per round so
# that it fills about ROUND_SHARE_S: the single samples of a short command
# vary most.
LONG_CALL_S = 6.0
ROUND_SHARE_S = 2.0
MAX_REPEATS = 3
# Operation groups each workload's traced run covers.
TRACED_GROUPS = {"pipeline": ("pipeline",), "verify": ("verify", "kernels")}
SETUP_PROBES = 7

END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("train_teacher_s", "s"),
    ("distill_ce_s", "s"),
    ("distill_kd_s", "s"),
    ("distill_dist_s", "s"),
    ("distill_pld_s", "s"),
    ("gradcheck_s", "s"),
    ("landscape_s", "s"),
    ("losscheck_s", "s"),
    ("kd_rows_per_s", "rows/s"),
    ("dist_rows_per_s", "rows/s"),
    ("pld_rows_per_s", "rows/s"),
    ("pld_tied_rows_per_s", "rows/s"),
    ("pld_wide_rows_per_s", "rows/s"),
    ("pld_large_c_rows_per_s", "rows/s"),
)


def host_block() -> dict:
    import numpy as np

    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = {k: deps["blas"].get(k) for k in ("name", "version")}
    except (KeyError, TypeError, ValueError):
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_env": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
    }


class Recorder:
    """Counts operations, keeps the timings of those whose check passed."""

    def __init__(self):
        self.samples = defaultdict(list)  # metric -> seconds of passing calls
        self.spans = defaultdict(list)  # metric -> (start, end) of each sample
        self.durations = defaultdict(list)  # metric -> seconds of every call
        self.attempted = 0
        self.failures = []

    def execute(self, op, runner=None):
        """Time one operation, then check its output outside the timed span."""
        self.attempted += 1
        start = perf_counter()
        try:
            if runner is None:
                result = op.call()
                seconds = perf_counter() - start
            else:
                result, seconds = runner(op.command, op.call)
            problem = op.check(result)
        except Exception:  # one broken operation must not end the run
            seconds = perf_counter() - start
            problem = traceback.format_exc(limit=3)
        self.durations[op.metric].append(seconds)
        if problem:
            self.failures.append(f"{op.metric}: {problem}")
            return None
        self.samples[op.metric].append(seconds)
        self.spans[op.metric].append((start, start + seconds))
        return seconds

    def scaled_median(self, metric, ticker) -> float:
        """Median of the metric's samples, each scaled to the nominal host
        speed by the ticks that ran during it."""
        scaled = [
            seconds * ticker.scale(*span)
            for seconds, span in zip(self.samples[metric], self.spans[metric])
        ]
        return statistics.median(scaled) if scaled else 0.0

    def estimate(self, ops) -> float:
        seen = [self.durations.get(op.metric) for op in ops]
        return sum(statistics.median(s) for s in seen if s)


def run_end_to_end(ops_by_group, workload, seconds):
    """Slots of one CLI command followed by one round of the kernel calls.
    Every command runs once, the workload's own group first.  Then commands
    shorter than LONG_CALL_S repeat round-robin while a slot still fits in
    the window."""
    rec = Recorder()
    start = perf_counter()
    kernels = ops_by_group["kernels"]
    order = (workload,) + tuple(g for g in ops_by_group if g not in (workload, "kernels"))
    commands = [op for g in order for op in ops_by_group[g]]
    with hostspeed.Ticker() as ticker:
        for _ in range(KERNEL_WARMUP_ROUNDS):
            for op in kernels:
                rec.execute(op)
        for metric in list(rec.samples):  # warm-up is not timed
            del rec.samples[metric], rec.spans[metric]
        for command in commands:
            for op in [command] + kernels:
                rec.execute(op)
        reps = {
            op.metric: min(MAX_REPEATS, max(1, int(ROUND_SHARE_S / rec.estimate([op]))))
            for op in commands if rec.estimate([op]) < LONG_CALL_S
        }
        repeat = [op for r in range(MAX_REPEATS) for op in commands if reps.get(op.metric, 0) > r]
        misses, i = 0, 0
        while misses < len(repeat):
            slot = [repeat[i % len(repeat)]] + kernels
            i += 1
            if perf_counter() - start + rec.estimate(slot) <= seconds:
                for op in slot:
                    rec.execute(op)
                misses = 0
            else:
                misses += 1
    units = dict(END_TO_END)
    metrics, unscaled = {}, {}
    for op in commands + kernels:
        value = rec.scaled_median(op.metric, ticker)
        seen = rec.samples[op.metric]
        wall = statistics.median(seen) if seen else 0.0
        if op.rows:
            value = op.rows / value if value else 0.0
            wall = op.rows / wall if wall else 0.0
        metrics[op.metric] = {"value": value, "unit": units[op.metric]}
        unscaled[op.metric] = wall
    info = {
        "samples": {name: len(v) for name, v in rec.samples.items()},
        "ticks": len(ticker.ticks),
        "median_tick_s": statistics.median(s for _, s in ticker.ticks) if ticker.ticks else 0.0,
        "unscaled": unscaled,
    }
    return rec, metrics, info


def run_traced(ops, seconds):
    """Pairs of one untraced and one traced pass over ``ops``; which side
    runs first alternates, so warm-up falls on both."""
    from tracing import Tracer, layer_metrics

    tracer = Tracer()
    rec = Recorder()
    walls = {False: [], True: []}
    start = perf_counter()
    while True:
        first = len(walls[True]) % 2 == 1
        for traced in (first, not first):
            if traced:
                tracer.install()
            try:
                wall = 0.0
                for op in ops:
                    wall += rec.execute(op, tracer.run if traced else None) or 0.0
                walls[traced].append(wall)
            finally:
                tracer.uninstall()
        pair = walls[False][-1] + walls[True][-1]
        if perf_counter() - start + pair > seconds:
            break
    return rec, layer_metrics(tracer, walls), {"traced_passes": len(walls[True])}


def measure_setup(seed: int, work: Path) -> float:
    """Median time of fresh processes that import pldlab and build the run's
    inputs (process start to the first timed operation), each scaled to the
    nominal host speed by the ticks that ran while it did."""
    times = []
    with hostspeed.Ticker() as ticker:
        for i in range(SETUP_PROBES):
            start = perf_counter()
            subprocess.run(
                [sys.executable, str(HERE / "probe.py"), str(seed), str(work / f"probe-{i}")],
                check=True, stdout=subprocess.DEVNULL, timeout=120,
            )
            end = perf_counter()
            times.append((end - start) * ticker.scale(start, end))
    return statistics.median(times)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=tuple(TRACED_GROUPS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def measure(workload, seed, seconds, trace, work: Path, scale=None) -> dict:
    """One run: set up, measure, check; returns the result object."""
    import workloads

    scale = scale or workloads.Scale()
    if trace:
        groups = TRACED_GROUPS[workload]
        ops = workloads.setup(seed, work / "inputs", groups, scale)
        rec, metrics, info = run_traced([op for g in groups for op in ops[g]], seconds)
        gap = metrics["trace.unattributed_s"]["value"]
        measured = gap <= metrics["trace.unattributed_allowance_s"]["value"]
    else:
        setup_s = measure_setup(seed, work)
        ops = workloads.setup(seed, work / "inputs", workloads.GROUPS, scale)
        rec, metrics, info = run_end_to_end(ops, workload, seconds)
        metrics["setup_s"] = {"value": setup_s, "unit": "s"}
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics["peak_rss_mb"] = {"value": peak, "unit": "MiB"}
        metrics = {name: metrics[name] for name, _ in END_TO_END}
        measured = all(m["value"] > 0 for m in metrics.values())
    for failure in rec.failures[:20]:
        print(f"failed: {failure}", file=sys.stderr)
    print(json.dumps({"run": info}))
    return {
        "correct": bool(measured and not rec.failures),
        "attempted": rec.attempted,
        "failed": len(rec.failures),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "pldlab" / "__init__.py").is_file():
        print(f"error: no pldlab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import workloads

    print(json.dumps({"host": host_block()}))
    print(json.dumps({"input_shares": workloads.input_shares(args.seed)}))
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    try:
        result = measure(args.workload, args.seed, args.seconds, args.trace, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
