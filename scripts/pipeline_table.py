"""The descriptor layer, stage by stage: microseconds per descriptor for
the JSON writer and parser, the reduction pipeline, the character-group
rewrite and the subgroup trichotomy, over every descriptor that
``enumerate_descriptors(--size)`` yields.

``descriptor_from_json`` parses the documents that ``descriptor_to_json``
wrote, and ``classify_subgroup`` runs on the infinite discrete
descriptors alone, the only ones it does not refuse; each stage's time
is divided by the number of descriptors it ran on.  Times are
in-process, the best of ``--repeats`` passes with the garbage collector
off.

Usage: python3 scripts/pipeline_table.py [--size 5] [--repeats 5] [--json]
"""

import argparse
import gc
import json
import time

from nullcover.structure import (
    classify_subgroup,
    descriptor_from_json,
    descriptor_to_json,
    dual,
    enumerate_descriptors,
    is_discrete,
    is_finite,
    niceness_pipeline,
)


def best_us_each(stage, inputs, repeats):
    """The fastest of ``repeats`` passes of ``stage`` over ``inputs``, in
    microseconds per input."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        for item in inputs:
            stage(item)
        times.append(time.perf_counter() - start)
    return min(times) * 1e6 / len(inputs)


def table(size, repeats):
    descriptors = list(enumerate_descriptors(size))
    documents = [descriptor_to_json(d) for d in descriptors]
    infinite_discrete = [d for d in descriptors if is_discrete(d) and not is_finite(d)]
    runs = (
        (descriptor_to_json, descriptors),
        (descriptor_from_json, documents),
        (niceness_pipeline, descriptors),
        (dual, descriptors),
        (classify_subgroup, infinite_discrete),
    )
    return [
        {"stage": stage.__name__, "descriptors": len(inputs), "us_each": best_us_each(stage, inputs, repeats)}
        for stage, inputs in runs
    ]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--size", type=int, default=5, help="Largest descriptor size enumerated.")
    parser.add_argument("--repeats", type=int, default=5, help="Passes per stage; the best is kept.")
    parser.add_argument("--json", action="store_true", help="Print the rows as one JSON document.")
    args = parser.parse_args()
    gc.disable()
    rows = table(args.size, args.repeats)
    if args.json:
        print(json.dumps(rows, indent=1))
        return
    print("| stage | descriptors | µs each |")
    print("| --- | --- | --- |")
    for r in rows:
        print(f"| `{r['stage']}` | {r['descriptors']:,} | {r['us_each']:.3g} |")


if __name__ == "__main__":
    main()
