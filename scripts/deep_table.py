"""Deep covers, stage by stage: the time to plan, build the nullset,
sample the slalom, find the translator of every block alone, cover it
(the cover includes its translator search and its re-check), cover it
a second time on the same nullset and verify the certificate again,
plus the size of the bundle that ``nullcover cover`` prints, for p-adic
covers at p = 2 and product covers over orders 2 cycled.

Times are in-process, in milliseconds, the best of ``--repeats`` runs
with the garbage collector off; the build peak is the tracemalloc peak
of one more, untimed build, in MiB; the bundle size is in MB (10^6
bytes).  The ``find_translator`` stage times the per-block calls
alone: one cover runs with its calls recorded, and the stage replays
their targets, so it always measures what the cover passes.

A plan's block groups table the cylinders of the gaps searched on
them, so every repeat of the ``find_translator`` and ``cover`` stages
starts from a fresh plan and nullset, built untimed, as one ``nullcover
cover`` run does: the tables that a plan, its groups and its nullset
build on first use are built inside the timed calls (the replayed
calls read the fresh plan's groups and kept sets).  ``second_cover``
times one more cover of the same slalom on a nullset that has just
covered it, so it reads every such table filled.

The slalom has seed 0, as `nullcover cover` draws by default.

Usage: python3 scripts/deep_table.py [--depths 100,400,850] [--repeats 5] [--json]
"""

import argparse
import functools
import gc
import itertools
import json
import time
import tracemalloc
from unittest import mock

from nullcover import cover as cover_module
from nullcover.cover import (
    build_nullset,
    cover_padic_slalom,
    cover_product_slalom,
    find_translator,
    plan_blocks_padic,
    plan_blocks_product,
    random_slalom,
    verify_cover,
)
from nullcover.groups import PadicContext

STAGES = ("plan", "build", "slalom", "find_translator", "cover", "second_cover", "verify_cover")
SEED = 0


def best_ms(run, repeats):
    """The result of ``run`` and its fastest time over ``repeats`` runs."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        result = run()
        times.append(time.perf_counter() - start)
    return result, min(times) * 1000


def elapsed_ms(run):
    """The result of ``run`` and its time in ms."""
    start = time.perf_counter()
    result = run()
    return result, (time.perf_counter() - start) * 1000


def traced_peak_mib(run):
    """The peak of the memory that ``run`` allocates, traced, in MiB."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def row(mode, depth, repeats):
    ms = {}
    if mode == "padic":
        label = f"p-adic, p=2, depth {depth}"
        make_plan = functools.partial(plan_blocks_padic, 2, depth)
        width = "(n+2)//2"
    else:
        label = f"product, orders 2 cycled, depth {depth}"
        make_plan = lambda: plan_blocks_product(itertools.cycle([2]), depth)
        width = "n+2"
    plan, ms["plan"] = best_ms(make_plan, repeats)
    spec, ms["build"] = best_ms(lambda: build_nullset(plan), repeats)
    build_peak_mib = traced_peak_mib(lambda: build_nullset(plan))
    slalom, ms["slalom"] = best_ms(lambda: random_slalom(plan, width, SEED), repeats)
    if mode == "padic":
        run_cover = functools.partial(cover_padic_slalom, PadicContext(2, plan.boundaries[-1]))
    else:
        run_cover = cover_product_slalom

    def fresh():
        plan = make_plan()
        return plan, build_nullset(plan)

    # record the targets of every block as the cover passes them
    with mock.patch.object(cover_module, "find_translator", wraps=find_translator) as recorded:
        run_cover(fresh()[1], slalom)
    targets = [call.args[2] for call in recorded.call_args_list]
    stages = {"find_translator": [], "cover": [], "second_cover": []}
    for _ in range(repeats):
        plan, spec = fresh()
        calls = list(zip(plan.block_groups, spec.kept, targets, itertools.count()))
        _, took = elapsed_ms(lambda: [find_translator(*args) for args in calls])
        stages["find_translator"].append(took)
        plan, spec = fresh()
        for stage in ("cover", "second_cover"):
            cert, took = elapsed_ms(lambda: run_cover(spec, slalom))
            stages[stage].append(took)
    ms.update((stage, min(times)) for stage, times in stages.items())
    result, ms["verify_cover"] = best_ms(lambda: verify_cover(spec, cert.translate, slalom), repeats)
    if not result.ok:
        raise SystemExit(f"{label}: the certificate failed its check")
    # the document `nullcover cover` writes, byte for byte
    bundle = {"spec": spec.to_json(), "slalom": slalom.to_json(), "certificate": cert.to_json()}
    size = len(json.dumps(bundle, sort_keys=True, separators=(",", ":"))) + 1
    return {"run": label, "ms": ms, "build_peak_mib": build_peak_mib, "bundle_mb": size / 1e6}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--depths", default="100,400,850", help="Comma-separated depths.")
    parser.add_argument("--repeats", type=int, default=5, help="Runs per stage; the best is kept.")
    parser.add_argument("--json", action="store_true", help="Print the rows as one JSON document.")
    args = parser.parse_args()
    depths = [int(d) for d in args.depths.split(",")]
    gc.disable()
    rows = [row(mode, depth, args.repeats) for mode in ("padic", "product") for depth in depths]
    if args.json:
        print(json.dumps(rows, indent=1))
        return
    print("| run | " + " | ".join(STAGES) + " | build peak | bundle |")
    print("| --- |" + " --- |" * (len(STAGES) + 2))
    for r in rows:
        cells = [f"{r['ms'][stage]:.3g}" for stage in STAGES]
        print(f"| {r['run']} | " + " | ".join(cells)
              + f" | {r['build_peak_mib']:.3g} MiB | {r['bundle_mb']:.2f} MB |")


if __name__ == "__main__":
    main()
