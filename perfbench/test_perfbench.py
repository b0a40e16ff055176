"""Tests of the benchmark itself, at tiny sizes.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import pldlab  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from pldlab import LossResult  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())

TINY_DATA = {"dataset": {"train_per_class": 12, "test_per_class": 4}, "epochs": 2}
TINY = workloads.Scale(
    batch=8, classes=12, large_batch=4, large_classes=64,
    cli={
        "train-teacher": dict(TINY_DATA, layer_sizes=[16, 8, 10]),
        "distill": dict(TINY_DATA, layer_sizes=[16, 4, 10]),
        "gradcheck": {"trials": 2, "class_counts": [3], "batch_sizes": [2]},
        "landscape": {"resolution": 3, "n_classes": 5},
        "losscheck": {"instances": 2},
    },
)


def _units(section):
    return {m["name"]: m["unit"] for m in SPEC[section]}


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_prints_every_metric_with_its_unit(tmp_path, workload, trace):
    result = run.measure(workload, seed=3, seconds=0, trace=trace, work=tmp_path, scale=TINY)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = _units("per_layer" if trace else "end_to_end")
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    json.dumps(result, allow_nan=False)


def test_wrong_kernel_result_counts_as_failed_and_is_not_timed(tmp_path, monkeypatch):
    ops = workloads.setup(5, tmp_path, ("kernels",), TINY)["kernels"]
    real = pldlab.evaluate_loss
    calls = []

    def off_by_one_on_third_call(config, s, t, y):
        res = real(config, s, t, y)
        calls.append(config.kind)
        if len(calls) == 3:  # first pld call
            grad = res.grad.copy()
            grad[0, 0] += 1e-6
            return LossResult(res.loss, grad)
        return res

    monkeypatch.setattr(pldlab, "evaluate_loss", off_by_one_on_third_call)
    rec = run.Recorder()
    for _ in range(2):
        for op in ops:
            rec.execute(op)
    assert rec.attempted == 2 * len(ops)
    assert len(rec.failures) == 1 and rec.failures[0].startswith("pld_rows_per_s:")
    assert len(rec.samples["pld_rows_per_s"]) == 1
    assert all(len(rec.samples[op.metric]) == 2 for op in ops if op.metric != "pld_rows_per_s")


def test_pld_reference_check_catches_a_wrong_row(tmp_path):
    def tied_op():
        ops = workloads.setup(5, tmp_path, ("kernels",), TINY)["kernels"]
        return next(o for o in ops if o.metric == "pld_tied_rows_per_s")

    good = tied_op()
    res = good.call()
    assert good.check(res) is None
    grad = res.grad.copy()
    grad[:, :2] += np.array([1e-9, -1e-9])  # rows still sum to zero
    problem = tied_op().check(LossResult(res.loss, grad))
    assert problem is not None and "reference" in problem


def test_refuses_to_run_without_pldlab_sources(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    code = run.main(["--workload", "verify", "--seed", "1", "--seconds", "1"])
    assert code != 0
    assert capsys.readouterr().out == ""



def test_scale_uses_the_ticks_near_the_call():
    import hostspeed

    ticker = hostspeed.Ticker()
    nominal = hostspeed.NOMINAL_S
    # slow host (ticks at twice nominal) around t=10, nominal around t=20
    ticker.ticks = [(10.0 + 0.1 * i, 2 * nominal) for i in range(10)]
    ticker.ticks += [(20.0 + 0.1 * i, nominal) for i in range(10)]
    ticker.ticks.append((20.5, 50 * nominal))  # one preempted tick is trimmed
    assert ticker.scale(10.2, 10.6) == pytest.approx(0.5)
    assert ticker.scale(20.0, 20.9) == pytest.approx(1.0)


def test_ticker_records_ticks_and_restores_the_handler():
    import signal
    from time import perf_counter

    import hostspeed

    before = signal.getsignal(signal.SIGALRM)
    with hostspeed.Ticker() as ticker:
        end = perf_counter() + 3.5 * hostspeed.INTERVAL_S
        while perf_counter() < end:
            pass
    assert len(ticker.ticks) >= 2
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
