"""Compare two checkouts on one benchmark workload, in alternating pairs.

    python3 scripts/bench_ab.py --parent ../old --change . --workload rotations

For every seed S in 1-10 it runs `python3 perfbench/run.py --workload W
--seed S --seconds N --trace 0` once in each checkout, from that checkout's
root, where N is `run_seconds` from the change's BENCHMARK.json.  Odd seeds
run the parent first and even seeds the change first, so a drift of the
machine over time falls on both sides alike.  It then prints
one JSON object in the `workloads` shape of the BENCH_*.json files: per
end-to-end metric the parent's and the change's median, quartiles and runs,
how many pairs the change won and lost, the change of the median in percent
against the metric's bound from BENCHMARK.json, and the parent's quartile
distance.  Nothing is written but what `perfbench/run.py` writes itself,
under each checkout's ignored `perfbench/out/`.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SEEDS = range(1, 11)


def run_once(checkout, workload, seed, seconds):
    """The result line (the last line of standard output) of one run."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE,
                          text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def stats(runs):
    q1, median, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3,
            "min": min(runs), "max": max(runs), "runs": list(runs)}


def summarize(pairs, end_to_end):
    """The comparison of (parent, change) result-line pairs, one pair per
    seed, over the metrics of `end_to_end` (the BENCHMARK.json list)."""
    if len(pairs) < 2:
        raise ValueError("need at least two pairs, got %d" % len(pairs))

    def per_side(total, key):
        return {side: total(p[k][key] for p in pairs)
                for k, side in enumerate(("parent", "change"))}

    out = {"pairs": len(pairs),
           "order": "odd seeds run the parent first, even seeds the change "
                    "first",
           "failed": per_side(sum, "failed"),
           "attempted": per_side(sum, "attempted"),
           "correct": per_side(all, "correct"),
           "metrics": {}}
    for metric in end_to_end:
        name = metric["name"]
        sign = 1 if metric["better"] == "lower" else -1
        parent = [p[0]["metrics"][name]["value"] for p in pairs]
        change = [p[1]["metrics"][name]["value"] for p in pairs]
        ps, cs = stats(parent), stats(change)
        pct = 100.0 * (cs["median"] - ps["median"]) / ps["median"]
        bound = 100.0 * metric["bound"]
        out["metrics"][name] = {
            "parent": ps, "change": cs,
            "change_wins": sum(sign * (c - p) < 0
                               for p, c in zip(parent, change)),
            "change_losses": sum(sign * (c - p) > 0
                                 for p, c in zip(parent, change)),
            "median_change_pct": pct,
            "bound_pct": bound,
            "within_bound": sign * pct <= bound,
            "parent_iqr": ps["q3"] - ps["q1"],
        }
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, type=Path)
    parser.add_argument("--change", required=True, type=Path)
    parser.add_argument("--workload", required=True)
    args = parser.parse_args(argv)
    bench = json.loads((args.change / "BENCHMARK.json").read_text())
    pairs = []
    for seed in SEEDS:
        sides = {}
        order = ("parent", "change") if seed % 2 else ("change", "parent")
        for side in order:
            sides[side] = run_once(getattr(args, side), args.workload, seed,
                                   bench["run_seconds"])
            print("seed %d %s: %s" % (seed, side, json.dumps(sides[side])),
                  file=sys.stderr)
        pairs.append((sides["parent"], sides["change"]))
    print(json.dumps(summarize(pairs, bench["end_to_end"]), indent=1))


if __name__ == "__main__":
    main()
