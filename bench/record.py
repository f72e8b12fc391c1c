"""Record the output digest of every pooled operation into expected.json.

    python3 bench/record.py [workload ...]

Run this only when a change is meant to alter the library's output; the
independent checks still run while recording, and any problem aborts it.
"""

from __future__ import annotations

import json
import os
import sys

from run import HERE, OUT, SRC, Stats, load_library, run_op
from workloads import DEFAULT_SEED, WORKLOADS


def main(names) -> int:
    sys.path.insert(0, SRC)
    path = os.path.join(HERE, "expected.json")
    expected = {}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as handle:
            expected = json.load(handle)
    os.makedirs(OUT, exist_ok=True)
    for name in names or list(WORKLOADS):
        workload = WORKLOADS[name]
        workload.setup(load_library(), DEFAULT_SEED, OUT)
        recorded: dict[str, str] = {}
        stats = Stats()
        for op in workload.pool():
            if op.digested:
                run_op(op, {}, stats, None, recorded)
        if stats.failed:
            print("\n".join(stats.problems[:20]), file=sys.stderr)
            return 1
        expected[name] = dict(sorted(recorded.items()))
        print(f"{name}: {len(recorded)} digests")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(expected, handle, indent=0, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
