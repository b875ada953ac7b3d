#!/usr/bin/env python3
"""Append one performance-trajectory line to bench/trajectory.jsonl.

Reads perfbench output unchanged: each input file holds the two JSON
lines `python3 perfbench/run.py --trace 0` prints per run (the
provenance record, then the result), for any mix of workloads and
seeds.  Runs of the parent commit and of the change are given as
separate files.  The line written holds, per workload, the median and
the interquartile range [q1, q3] of every end-to-end metric named in
BENCHMARK.json on each side, the seeds, and the number of pairs.

    python3 bench/trajectory.py --pr 16 --title "..." --parent-rev ca785ea \\
        --parent parent.jsonl --change change.jsonl [--dry-run]

`rev` is left null: a commit cannot name its own hash, so the line
belongs to the commit that adds it.
"""

import argparse
import json
import statistics
import sys

TRAJECTORY = "bench/trajectory.jsonl"


def runs(path):
    """(record, result) pairs of the --trace 0 runs in a perfbench log."""
    out, record = [], None
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            doc = json.loads(line)
            if "record" in doc:
                record = doc["record"]
            elif record is not None and record["trace"] == 0:
                out.append((record, doc))
                record = None
    return out


def sig(x):
    return float("%.6g" % x)


def summary(values):
    if not values:
        return {"median": None, "iqr": None}
    if len(values) < 2:
        return {"median": sig(values[0]), "iqr": None}
    q = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": sig(statistics.median(values)),
            "iqr": [sig(q[0]), sig(q[2])]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--pr", type=int, required=True)
    ap.add_argument("--title", required=True)
    ap.add_argument("--parent-rev", required=True)
    ap.add_argument("--parent", required=True)
    ap.add_argument("--change", required=True)
    ap.add_argument("--dry-run", action="store_true")
    a = ap.parse_args()
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    names = [m["name"] for m in spec["end_to_end"]]
    sides = {"parent": runs(a.parent), "change": runs(a.change)}
    every = sides["parent"] + sides["change"]
    if not every:
        sys.exit("trajectory: no perfbench runs in the inputs")
    if not all(res["correct"] for _, res in every):
        sys.exit("trajectory: a run reported correct: false")
    cores = {rec["cores"] for rec, _ in every}
    ocaml = {rec["ocaml"] for rec, _ in every}
    if len(cores) != 1 or len(ocaml) != 1:
        sys.exit("trajectory: runs come from different machines or compilers")
    workloads = {}
    for w in [x["name"] for x in spec["workloads"]]:
        by_side = {s: [res for rec, res in rs if rec["workload"] == w]
                   for s, rs in sides.items()}
        seeds = sorted({rec["seed"] for rec, _ in every if rec["workload"] == w})
        pairs = min(len(by_side["parent"]), len(by_side["change"]))
        workloads[w] = {
            "pairs": pairs or None,
            "seeds": seeds or None,
            "metrics": {
                m: {s: summary([res["metrics"][m]["value"] for res in rs])
                    for s, rs in by_side.items()}
                for m in names
            },
        }
    line = {
        "pr": a.pr,
        "title": a.title,
        "backfilled": False,
        "provenance": {"cores": cores.pop(), "ocaml": ocaml.pop(),
                       "rev": None, "parent_rev": a.parent_rev},
        "workloads": workloads,
    }
    text = json.dumps(line, separators=(",", ":"))
    if a.dry_run:
        print(text)
    else:
        with open(TRAJECTORY, "a") as f:
            f.write(text + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
