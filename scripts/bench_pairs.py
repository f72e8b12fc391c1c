"""Alternating pairs of benchmark runs on two source trees.

Each run is ``python3 bench/run.py --workload W --seed S --seconds T
--trace 0`` in the tree's own checkout, in a fresh process.  Pair i runs
the parent first when i is even and the change first when i is odd, so
a drift in the host's speed falls on both trees alike.  The script exits
1 if any run exits non-zero or reports ``correct: false``.

It prints, per end-to-end metric: both medians, the parent's quartiles,
``change_vs_parent`` (the change's median over the parent's, minus 1) and
how many pairs the change won, read in the metric's better direction
from the change tree's ``BENCHMARK.json`` (ties count for neither).
``--out`` writes the runs and the summary as JSON: ``runs`` holds one
object per run (pair, tree, workload, seed and every metric), and
``summary`` maps the workload, with `` seed S`` appended when S is not 1,
to the per-metric statistics.

Usage: python3 scripts/bench_pairs.py PARENT CHANGE --workload W [--seed 1]
                                      [--pairs 10] [--seconds 20] [--out FILE]
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench"))

from workloads import WORKLOADS  # noqa: E402


def run_once(root: str, workload: str, seed: int, seconds: float) -> dict:
    """One run of the tree's own bench/run.py: its metrics, or the reason
    it counts as failed."""
    command = [sys.executable, os.path.join("bench", "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(command, cwd=root, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return {"error": f"no result line, exit {done.returncode}"}
    if done.returncode != 0 or not result.get("correct"):
        return {"error": f"exit {done.returncode}, {result.get('failed')} failed operations"}
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def summarize(parent: list, change: list, better: str) -> dict:
    """The statistics of one metric over paired runs."""
    parent_median = statistics.median(parent)
    change_median = statistics.median(change)
    quartiles = statistics.quantiles(parent, n=4) if len(parent) > 1 else parent * 3
    if better == "higher":
        wins = sum(c > p for p, c in zip(parent, change))
    else:
        wins = sum(c < p for p, c in zip(parent, change))
    return {
        "parent_median": parent_median,
        "change_median": change_median,
        "parent_quartiles": [quartiles[0], quartiles[2]],
        "change_vs_parent": change_median / parent_median - 1 if parent_median else 0.0,
        "change_wins": wins,
        "pairs": len(parent),
        "parent_runs": parent,
        "change_runs": change,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="Root of the parent checkout (holds bench/run.py).")
    parser.add_argument("change", help="Root of the changed checkout (holds bench/run.py).")
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--out", help="Write the runs and the summary to this JSON file.")
    args = parser.parse_args()
    if args.pairs < 1 or args.seconds <= 0:
        parser.error("--pairs must be at least 1 and --seconds above 0")
    roots = {tree: os.path.abspath(getattr(args, tree)) for tree in ("parent", "change")}
    with open(os.path.join(roots["change"], "BENCHMARK.json"), encoding="utf-8") as handle:
        better = {metric["name"]: metric["better"] for metric in json.load(handle)["end_to_end"]}

    runs, failed = [], []
    for pair in range(args.pairs):
        for tree in (("parent", "change") if pair % 2 == 0 else ("change", "parent")):
            metrics = run_once(roots[tree], args.workload, args.seed, args.seconds)
            if "error" in metrics:
                failed.append(f"pair {pair} {tree}: {metrics['error']}")
                print(f"pair {pair} {tree}: FAILED {metrics['error']}", flush=True)
                continue
            runs.append({"pair": pair, "tree": tree, "workload": args.workload, "seed": args.seed, **metrics})
            shown = ", ".join(f"{name} {metrics[name]:.6g}" for name in ("ops_per_s", "op_p50_ms") if name in metrics)
            print(f"pair {pair} {tree}: {shown}", flush=True)
    if failed:
        print(f"{len(failed)} of {2 * args.pairs} runs failed")
        return 1

    by_tree = {tree: {run["pair"]: run for run in runs if run["tree"] == tree} for tree in roots}
    label = args.workload if args.seed == 1 else f"{args.workload} seed {args.seed}"
    summary = {}
    for name in better:
        if name not in runs[0]:
            continue
        parent = [by_tree["parent"][pair][name] for pair in range(args.pairs)]
        change = [by_tree["change"][pair][name] for pair in range(args.pairs)]
        summary[name] = stats = summarize(parent, change, better[name])
        print(f"{name:16s} parent {stats['parent_median']:.6g} "
              f"(quartiles {stats['parent_quartiles'][0]:.6g} - {stats['parent_quartiles'][1]:.6g}), "
              f"change {stats['change_median']:.6g}, change_vs_parent {stats['change_vs_parent']:+.4f}, "
              f"change won {stats['change_wins']}/{args.pairs}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump({"runs": runs, "summary": {label: summary}}, handle, indent=1, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
