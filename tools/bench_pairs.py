"""Alternating benchmark pairs of two source trees, summarized as a BENCH_<pr>.json.

    python tools/bench_pairs.py PARENT_TREE CHANGE_TREE --pr N --log runs.jsonl

Each tree is a checkout holding ``src/``, ``perfbench/`` and ``BENCHMARK.json``.
For every workload of the change's ``BENCHMARK.json`` the script runs
``perfbench/run.py --trace 0`` on both trees for that file's ``run_seconds``,
in 10 pairs on seeds from 1000 * N; pair k runs the parent first when k is
even, so a drift in host speed hits both sides alike.  One traced ``verify``
run per side follows, parent first.  Each finished run is written to
``--log`` as one JSON line.  The summary gives, per workload and end-to-end metric, each side's
median and quartiles (numpy's linear percentiles), the pairs the change won,
the relative change of the median and whether it is within the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

SIDES = ("parent", "change")
TRACED_WORKLOAD = "verify"
PAIRS = 10


def run_once(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One perfbench run in ``tree``: its host block and its result object."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, check=True)
    lines = [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]
    host = next(line["host"] for line in lines if "host" in line)
    return {"host": host, "result": lines[-1]}


def schedule(workloads, pairs: int, seed_base: int):
    """(workload, pair, side, seed, trace) of every run, in run order: the
    workloads' pairs on seeds seed_base + 100 * w + 1.., then the traced runs
    on seed_base + 100 * len(workloads) + 1."""
    for w, workload in enumerate(workloads):
        for k in range(pairs):
            seed = seed_base + 100 * w + k + 1
            for side in (SIDES if k % 2 == 0 else SIDES[::-1]):
                yield workload, k, side, seed, 0
    traced_seed = seed_base + 100 * len(workloads) + 1
    for side in SIDES:
        yield TRACED_WORKLOAD, 0, side, traced_seed, 1


def _quartiles(values) -> dict:
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"q1": float(q1), "median": float(median), "q3": float(q3)}


def summarize(lines, end_to_end) -> dict:
    """Per-workload run counts and metric summaries, plus the traced pair, from
    run lines as ``main`` logs them; only pairs with both sides count."""
    out = {"workloads": {}, "traced_verify": {}}
    by_pair = {}
    for line in lines:
        if line["trace"]:
            out["traced_verify"]["seed"] = line["seed"]
            out["traced_verify"][line["side"]] = {
                name: m["value"] for name, m in line["result"]["metrics"].items()}
            out["traced_verify"][line["side"] + "_correct"] = line["result"]["correct"]
        else:
            by_pair.setdefault((line["workload"], line["pair"]), {})[line["side"]] = line
    for workload in dict.fromkeys(w for w, _ in by_pair):
        pairs = [p for (w, k), p in sorted(by_pair.items()) if w == workload and len(p) == 2]
        runs = {side: [p[side]["result"] for p in pairs] for side in SIDES}
        block = {
            "seeds": [pairs[0]["parent"]["seed"], pairs[-1]["parent"]["seed"]] if pairs else [],
            "pairs": len(pairs),
            "runs": {side: {"count": len(r), "correct": sum(x["correct"] for x in r),
                            "attempted": sum(x["attempted"] for x in r),
                            "failed": sum(x["failed"] for x in r)} for side, r in runs.items()},
            "metrics": {},
        }
        for spec in end_to_end if pairs else ():
            name, lower = spec["name"], spec["better"] == "lower"
            vals = {side: np.array([x["metrics"][name]["value"] for x in r])
                    for side, r in runs.items()}
            parent, change = (_quartiles(vals[side]) for side in SIDES)
            wins = (vals["change"] < vals["parent"]) if lower else (vals["change"] > vals["parent"])
            rel = change["median"] / parent["median"] - 1.0
            block["metrics"][name] = {
                "unit": spec["unit"], "better": spec["better"], "bound": spec["bound"],
                "parent": parent, "change": change,
                "change_wins": f"{int(wins.sum())}/{len(pairs)}",
                "relative_change_of_median": round(rel, 4),
                "within_bound": bool(rel <= spec["bound"] if lower else -rel <= spec["bound"]),
            }
        out["workloads"][workload] = block
    return out


def claim_result(summary: dict, metric: str, workload: str) -> str:
    """The claimed metric's medians, wins and gap against the parent's IQR, in words."""
    m = summary["workloads"][workload]["metrics"][metric]
    p, c = m["parent"], m["change"]
    return (f"median {p['median']:.6g} -> {c['median']:.6g} {m['unit']} "
            f"({100 * m['relative_change_of_median']:+.1f}%), change wins {m['change_wins']}; "
            f"parent IQR {p['q3'] - p['q1']:.6g} against a gap of "
            f"{abs(c['median'] - p['median']):.6g} {m['unit']}")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent_tree", type=Path)
    p.add_argument("change_tree", type=Path)
    p.add_argument("--pr", type=int, required=True, help="names the output, BENCH_<pr>.json in the working directory")
    p.add_argument("--log", type=Path, required=True, help="JSON lines, one per finished run")
    p.add_argument("--claim", default=None, help="METRIC or METRIC@WORKLOAD (default verify)")
    p.add_argument("--change", default="", help="one line on what the change does")
    p.add_argument("--note", action="append", default=[], help="a note line (repeatable)")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    bench = json.loads((args.change_tree / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    lines = []
    with args.log.open("w") as log:
        for workload, k, side, seed, trace in schedule(workloads, PAIRS, 1000 * args.pr):
            tree = args.parent_tree if side == "parent" else args.change_tree
            run = run_once(tree, workload, seed, seconds, trace)
            lines.append({"workload": workload, "pair": k, "side": side, "seed": seed,
                          "trace": trace, **run})
            log.write(json.dumps(lines[-1]) + "\n")
            log.flush()
            print(f"{workload} pair {k} {side} seed {seed} trace {trace}: "
                  f"correct {run['result']['correct']}", file=sys.stderr)
    summary = summarize(lines, bench["end_to_end"])
    doc = {
        "change": args.change,
        "command": f"python3 perfbench/run.py --workload {{{','.join(workloads)}}} --seed N "
                   f"--seconds {seconds:g} --trace 0",
        "method": (f"alternating parent/change pairs (pair k runs the parent first when k is "
                   f"even), each side from its own tree, by tools/bench_pairs.py: "
                   f"{PAIRS} pairs per workload in the order {', '.join(workloads)}, "
                   f"then one traced {TRACED_WORKLOAD} run per side (parent first). q1/q3 are "
                   f"numpy's linear-interpolation percentiles of each side's runs."),
        "host": lines[0]["host"] if lines else {},
    }
    if args.claim:
        metric, _, workload = args.claim.partition("@")
        workload = workload or TRACED_WORKLOAD
        doc["claim"] = {"metric": metric, "workload": workload,
                        "result": claim_result(summary, metric, workload)}
    doc.update(summary)
    doc["notes"] = args.note
    Path(f"BENCH_{args.pr}.json").write_text(json.dumps(doc, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
