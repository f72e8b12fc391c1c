"""In-process A/B timing of one benchmark workload on two source trees.

Both trees' ``src/nullcover`` are loaded into one process (``sys.modules``
is cleared between the two loads), each gets its own copy of the
workload from ``bench/workloads.py``, set up with the same seed, and the
same rounds of operations are built for both.  Every operation runs once
per tree with its check from ``bench/checks.py``; the script exits 1
unless the two trees' check texts are equal and no check reports a
problem.  Then the timed passes alternate which tree goes first, with
the cyclic collector frozen, and the script prints each tree's median
pass time, the median and quartiles of the per-pass ratio CHANGE /
PARENT, and how many passes the change won.

Timing both trees in one process, pass by pass, cancels the host's speed
drift, which moves separate runs of the same code by up to 2x.

``cli-cold`` is refused: its operations spawn the interpreter on the
checkout's own tree, so they cannot run two trees in one process.

Usage: python3 scripts/ab_ops.py PARENT CHANGE --workload cover-deep|cover-wide|exact-queries
                                 [--seed 1] [--rounds 8] [--passes 30]
"""

import argparse
import copy
import gc
import importlib
import os
import statistics
import sys
import tempfile
import time
from types import SimpleNamespace

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")
sys.path.insert(0, BENCH)

from workloads import WORKLOADS  # noqa: E402  (imports bench/checks.py too)

IN_PROCESS = ("cover-deep", "cover-wide", "exact-queries")


def load_tree(root: str) -> SimpleNamespace:
    """Import ``nullcover`` from ``root``/src afresh; the returned modules
    keep working after the next tree's load replaces them in sys.modules."""
    src = os.path.join(os.path.abspath(root), "src")
    for name in [m for m in sys.modules if m == "nullcover" or m.startswith("nullcover.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    sys.path.insert(0, src)
    try:
        modules = {part: importlib.import_module(f"nullcover.{part}")
                   for part in ("cover", "structure", "nullset", "groups")}
    finally:
        sys.path.remove(src)
    if not modules["cover"].__file__.startswith(src + os.sep):
        raise SystemExit(f"nullcover imported from {modules['cover'].__file__}, not from {src}")
    return SimpleNamespace(**modules)


def checked_ops(workload, rounds: int):
    """Run every operation of ``rounds`` rounds once, with its check.
    Returns the operations, their check texts and the problems found."""
    ops, texts, problems = [], [], []
    for r in range(rounds):
        for op in workload.round(r):   # later operations read op.result
            op.result = op.call()
            text, found = op.check(op.result)
            ops.append(op)
            texts.append(text)
            problems += [f"{op.key}: {p}" for p in found]
    return ops, texts, problems


def timed_pass(ops) -> float:
    start = time.perf_counter_ns()
    for op in ops:
        op.call()
    return (time.perf_counter_ns() - start) / 1e6


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="Root of the parent tree (holds src/nullcover).")
    parser.add_argument("change", help="Root of the changed tree (holds src/nullcover).")
    parser.add_argument("--workload", required=True, choices=IN_PROCESS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--rounds", type=int, default=8)
    parser.add_argument("--passes", type=int, default=30)
    args = parser.parse_args()
    if args.rounds < 1 or args.passes < 1:
        parser.error("--rounds and --passes must be at least 1")

    ops = {}
    with tempfile.TemporaryDirectory() as workdir:
        for tree in ("parent", "change"):
            workload = copy.copy(WORKLOADS[args.workload])   # set-up state stays per tree
            workload.setup(load_tree(getattr(args, tree)), args.seed, workdir)
            ops[tree], texts, problems = checked_ops(workload, args.rounds)
            for problem in problems[:10]:
                print(f"{tree}: FAILED {problem}")
            if problems:
                return 1
            if tree == "parent":
                parent_texts = texts
            elif texts != parent_texts:
                differ = sum(a != b for a, b in zip(texts, parent_texts)) + abs(len(texts) - len(parent_texts))
                print(f"check texts differ on {differ} of {len(texts)} operations")
                return 1
    print(f"{args.workload}, seed {args.seed}: {len(ops['change'])} operations per pass, "
          "check texts equal, no problems")

    gc.collect()
    gc.freeze()
    times = {"parent": [], "change": []}
    for i in range(args.passes):
        for tree in (("parent", "change") if i % 2 == 0 else ("change", "parent")):
            times[tree].append(timed_pass(ops[tree]))
    ratios = [c / p for c, p in zip(times["change"], times["parent"])]
    q1, median, q3 = statistics.quantiles(ratios, n=4) if len(ratios) > 1 else ratios * 3
    for tree in ("parent", "change"):
        print(f"{tree:6s} median pass {statistics.median(times[tree]):.2f} ms")
    print(f"ratio change/parent: median {median:.3f}, quartiles {q1:.3f} - {q3:.3f}")
    print(f"change won {sum(r < 1 for r in ratios)}/{len(ratios)} passes")
    return 0


if __name__ == "__main__":
    sys.exit(main())
