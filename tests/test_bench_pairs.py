"""The pair harness's schedule and summary, on canned run lines (no benchmark run)."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"


@pytest.fixture(scope="module")
def pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


END_TO_END = [
    {"name": "dist_rows_per_s", "unit": "rows/s", "better": "higher", "bound": 0.25},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
]


def line(side, pair, seed, rows, setup, workload="verify", trace=0, correct=True):
    metrics = {"dist_rows_per_s": {"value": rows, "unit": "rows/s"},
               "setup_s": {"value": setup, "unit": "s"}}
    return {"workload": workload, "pair": pair, "side": side, "seed": seed, "trace": trace,
            "host": {"nproc": 2},
            "result": {"correct": correct, "attempted": 10, "failed": 0, "metrics": metrics}}


def test_schedule_alternates_sides_then_traces_verify(pairs):
    runs = list(pairs.schedule(["pipeline", "verify"], 2, 5000))
    assert runs == [
        ("pipeline", 0, "parent", 5001, 0), ("pipeline", 0, "change", 5001, 0),
        ("pipeline", 1, "change", 5002, 0), ("pipeline", 1, "parent", 5002, 0),
        ("verify", 0, "parent", 5101, 0), ("verify", 0, "change", 5101, 0),
        ("verify", 1, "change", 5102, 0), ("verify", 1, "parent", 5102, 0),
        ("verify", 0, "parent", 5201, 1), ("verify", 0, "change", 5201, 1),
    ]


def test_summary_of_canned_lines(pairs):
    parent_rows, change_rows = [100.0, 110.0, 120.0, 130.0], [125.0, 105.0, 150.0, 160.0]
    parent_setup, change_setup = [0.2, 0.2, 0.2, 0.2], [0.1, 0.3, 0.1, 0.4]
    lines = []
    for k in range(4):
        lines.append(line("parent", k, 101 + k, parent_rows[k], parent_setup[k]))
        lines.append(line("change", k, 101 + k, change_rows[k], change_setup[k], correct=k > 0))
    lines.append(line("parent", 4, 105, 1.0, 9.0))  # a pair cut short: left out
    lines.append(line("parent", 0, 201, 90.0, 0.2, trace=1))
    lines.append(line("change", 0, 201, 99.0, 0.2, trace=1))

    out = pairs.summarize(lines, END_TO_END)
    block = out["workloads"]["verify"]
    assert block["pairs"] == 4 and block["seeds"] == [101, 104]
    assert block["runs"]["parent"] == {"count": 4, "correct": 4, "attempted": 40, "failed": 0}
    assert block["runs"]["change"]["correct"] == 3
    rows = block["metrics"]["dist_rows_per_s"]
    assert rows["parent"] == {"q1": 107.5, "median": 115.0, "q3": 122.5}
    assert rows["change"]["median"] == 137.5
    assert rows["change_wins"] == "3/4"  # higher is better: pair 1 lost
    assert rows["relative_change_of_median"] == round(137.5 / 115.0 - 1, 4)
    assert rows["within_bound"] is True
    setup = block["metrics"]["setup_s"]
    assert setup["change_wins"] == "2/4"  # lower is better
    assert setup["relative_change_of_median"] == 0.0 and setup["within_bound"] is True
    assert out["traced_verify"]["seed"] == 201
    assert out["traced_verify"]["change"]["dist_rows_per_s"] == 99.0
    assert out["traced_verify"]["parent_correct"] is True

    claim = pairs.claim_result(out, "dist_rows_per_s", "verify")
    assert claim == ("median 115 -> 137.5 rows/s (+19.6%), change wins 3/4; "
                     "parent IQR 15 against a gap of 22.5 rows/s")


def test_metric_beyond_its_bound_is_flagged(pairs):
    lines = [line("parent", 0, 1, 100.0, 0.2), line("change", 0, 1, 70.0, 0.3)]
    metrics = pairs.summarize(lines, END_TO_END)["workloads"]["verify"]["metrics"]
    assert metrics["dist_rows_per_s"]["within_bound"] is False  # -30% against a 25% bound
    assert metrics["setup_s"]["within_bound"] is False  # +50%
