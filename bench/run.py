"""Benchmark entry point.

    python3 bench/run.py --workload cover-deep --seed 1 --seconds 20 --trace 0

``--workload all`` runs the four workloads one after another, each in
its own process.  With ``--trace 0`` the run reports the end-to-end
metrics; with ``--trace 1`` it runs each operation of a fixed number of rounds
untraced and traced, and reports the per-layer metrics.  Every
operation's output is checked; the last line of stdout is one JSON
object, and the exit code is 1 when any check failed.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import itertools
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from types import SimpleNamespace

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "_out")

import checks  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

SETUP_REPEATS = 3
# Timings are reported at the speed at which probe_ns() takes this long.
PROBE_REFERENCE_NS = 1_000_000
# rounds per phase of a traced run: enough work for stable self times,
# small enough that untraced plus traced rounds stay near 20 s
TRACE_ROUNDS = {"cover-deep": 1, "cover-wide": 2, "exact-queries": 6, "cli-cold": 1}

END_TO_END = {
    "ops_per_s": "1/s", "op_p50_ms": "ms", "op_tail_ms": "ms", "elements_per_s": "1/s",
    "reject_p50_ms": "ms", "ok_ratio": "1", "peak_rss_mb": "MB", "setup_s": "s",
}


def load_library():
    """Import the package from this checkout's src/ afresh, so that each
    set-up repeat pays the import."""
    for name in [m for m in sys.modules if m == "nullcover" or m.startswith("nullcover.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    modules = {part: importlib.import_module(f"nullcover.{part}")
               for part in ("cover", "structure", "nullset", "groups")}
    if not modules["cover"].__file__.startswith(SRC + os.sep):
        raise ImportError(f"nullcover imported from {modules['cover'].__file__}, not from {SRC}")
    return SimpleNamespace(**modules)


def environment(seed: int) -> dict:
    commit = None
    head = os.path.join(ROOT, ".git", "HEAD")
    if os.path.exists(head):
        commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                capture_output=True, text=True).stdout.strip() or None
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "load_before": os.getloadavg(),
        "commit": commit,
        "seed": seed,
        "setup_repeats": SETUP_REPEATS,
    }


class Stats:
    def __init__(self):
        self.latency_ns: list[int] = []
        self.scaled_ns: list[float] = []   # latency_ns at the reference speed
        self.rejects: list[bool] = []
        self.by_span: dict[str, list[int]] = {}
        self.elements = 0
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.stdout_bytes = 0


def run_op(op, expected, stats: Stats, tracer, recorded) -> None:
    if tracer is not None:
        tracer.open(op.span)
    start = time.perf_counter_ns()
    error = None
    try:
        op.result = op.call()
    except Exception as exc:  # an unexpected raise is a failed operation
        error = exc
    elapsed = time.perf_counter_ns() - start
    if tracer is not None:
        tracer.close()
    stats.attempted += 1
    stats.latency_ns.append(elapsed)
    stats.by_span.setdefault(op.span, []).append(elapsed)
    stats.rejects.append(op.reject)
    if error is not None:
        problems = [f"raised {error!r}"]
        op.result = None
    else:
        try:
            text, problems = op.check(op.result)
        except (KeyError, TypeError, ValueError) as exc:   # output of the wrong shape
            text, problems = "", [f"check raised {exc!r}"]
        if op.span == "cli.invoke":
            stats.stdout_bytes += len(op.result[1])
        if recorded is not None:
            recorded[op.key] = checks.digest(text)
        elif op.digested:
            want = expected.get(op.key)
            if want is None:
                problems = problems + ["no recorded digest"]
            elif checks.digest(text) != want:
                problems = problems + [f"output digest {checks.digest(text)} != recorded {want}"]
    if problems:
        stats.failed += 1
        stats.problems.append(f"{op.key}: {'; '.join(problems)}")
        if tracer is not None and op.span.startswith("cli."):
            tracer.counters["cli.errors"] += 1
    elif op.elements:
        stats.elements += op.elements


def probe_ns() -> int:
    """Time a fixed pure-Python loop of integer arithmetic, tuples and
    dict stores: the kind of work the library does.  The host's speed
    drifts by tens of percent over tens of seconds; the probe drifts
    with it."""
    start = time.perf_counter_ns()
    total, table = 0, {}
    for i in range(5000):
        total += i * i
        table[i & 255] = (total, i)
    return time.perf_counter_ns() - start


def freeze_inputs() -> None:
    """Keep the cyclic collector from rescanning the set-up's inputs
    (178,277 descriptors in exact-queries) in the middle of timed
    operations."""
    gc.collect()
    gc.freeze()


def probes_after(elapsed_ns: float, minimum: int = 1) -> list[int]:
    """Probe the host's speed right after a timed piece of work, for
    about a twentieth of its time, so the probes sample the speed where
    the work ran; the work scales to the reference speed by
    PROBE_REFERENCE_NS / mean(probes)."""
    probes: list[int] = []
    while len(probes) < minimum or sum(probes) * 20 < elapsed_ns:
        probes.append(probe_ns())
    return probes


def run_rounds(workload, expected, stats, seconds) -> tuple[int, float]:
    """Run whole rounds until ``seconds`` have passed, scaling each
    operation's latency to the reference speed.  Returns the round count
    and the mean probe time."""
    start = time.perf_counter()
    r = 0
    all_probes = []
    while r == 0 or time.perf_counter() - start < seconds:
        for op in workload.round(r):
            run_op(op, expected, stats, None, None)
            probes = probes_after(stats.latency_ns[-1])
            stats.scaled_ns.append(stats.latency_ns[-1] * PROBE_REFERENCE_NS / statistics.fmean(probes))
            all_probes += probes
        r += 1
    return r, statistics.fmean(all_probes)


def run_paired(workload, lib, expected, rounds, plain: Stats, traced: Stats, tracer: Tracer) -> None:
    """Run every operation of ``rounds`` rounds twice, untraced and
    traced, alternating which goes first, so that the overhead ratio
    compares identical work under the same conditions."""
    round_ops = getattr(workload, "traced_round", workload.round)
    ops = itertools.chain.from_iterable(round_ops(r) for r in range(rounds))
    for i, op in enumerate(ops):
        for with_trace in ((False, True) if i % 2 == 0 else (True, False)):
            if not with_trace:
                run_op(op, expected, plain, None, None)
                continue
            tracer.install(lib)
            try:
                run_op(op, expected, traced, tracer, None)
            finally:
                tracer.uninstall()


def quantile(values, q: float) -> float:
    """Harrell-Davis estimate of the q-quantile: the mean of the order
    statistics weighted by a Beta((n+1)q, (n+1)(1-q)) density.

    Operation latencies form clusters (one per configuration and kind),
    and a plain order statistic jumps between neighbouring clusters
    when noise swaps two samples at the middle; the weighted estimate
    moves smoothly instead.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 1:
        return ordered[0]
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    steps = 64   # midpoint rule within each order statistic's interval
    log_pdf = lambda t: (a - 1) * math.log(t) + (b - 1) * math.log1p(-t)
    peak = max(log_pdf((i + 0.5) / (n * steps)) for i in range(n * steps))
    weights = [
        sum(math.exp(log_pdf((i * steps + k + 0.5) / (n * steps)) - peak) for k in range(steps))
        for i in range(n)
    ]
    return sum(w * x for w, x in zip(weights, ordered)) / sum(weights)


def tail(values: list[float]) -> tuple[float, float]:
    """Latency at the highest percentile with at least ten samples beyond
    it, and that percentile."""
    q = max(len(values) - 10, 1) / len(values)
    return quantile(values, q), 100.0 * q


def timings(latency_ns, rejects, stats: Stats) -> dict:
    busy_s = sum(latency_ns) / 1e9
    latency_ms = [ns / 1e6 for ns in latency_ns]
    return {
        "ops_per_s": stats.attempted / busy_s,
        "op_p50_ms": quantile(latency_ms, 0.5),
        "op_tail_ms": tail(latency_ms)[0],
        "elements_per_s": stats.elements / busy_s,
        "reject_p50_ms": quantile([ms for ms, r in zip(latency_ms, rejects) if r], 0.5),
    }


def end_to_end(stats: Stats, setups: list[tuple[float, float]], probe_mean, rss_mb) -> tuple[dict, dict]:
    """Metrics at the reference speed; the raw wall-clock figures go to
    the details."""
    metrics = timings(stats.scaled_ns, stats.rejects, stats)
    metrics.update({
        "ok_ratio": (stats.attempted - stats.failed) / stats.attempted,
        "peak_rss_mb": rss_mb,
        "setup_s": statistics.median(seconds * PROBE_REFERENCE_NS / probe for seconds, probe in setups),
    })
    details = {
        "samples": stats.attempted,
        "tail_percentile": tail(stats.latency_ns)[1],
        "reject_samples": sum(stats.rejects),
        "probe_ms": probe_mean / 1e6,
        "wall_clock": dict(timings(stats.latency_ns, stats.rejects, stats),
                           setup_s=statistics.median(seconds for seconds, _ in setups)),
    }
    return metrics, details


def per_layer(tracer: Tracer, untraced_ns: int, traced_ns: int, stats: Stats) -> dict:
    c, s = tracer.counters, tracer.seconds
    verify_ns = tracer.self_ns.get("cover.verify", 0)
    elements = c["cover.verify.elements"]
    roots = [i for i, parent in enumerate(tracer.span_parent) if parent == -1]
    root_ns = sum(tracer.span_end[i] - tracer.span_start[i] for i in roots)
    harness_ns = tracer.self_ns.get("bench.op", 0) + tracer.self_ns.get("bench.setup", 0)

    def cli_median(span):
        values = stats.by_span.get(span)
        return statistics.median(values) / 1e6 if values else 0.0

    interp, imported, invoked = (cli_median(f"cli.{k}") for k in ("interp", "import", "invoke"))
    metrics = {
        "cover.verify.calls": tracer.calls.get("cover.verify", 0),
        "cover.verify.self_s": s("cover.verify"),
        "cover.verify.elements": elements,
        "cover.verify.ns_per_element": verify_ns / elements if elements else 0.0,
        "cover.verify.rejects": c["cover.verify.rejects"],
        "cover.verify.carry_plain": c["cover.verify.carry_plain"],
        "cover.verify.carry_carried": c["cover.verify.carry_carried"],
        "cover.translate.calls": tracer.calls.get("cover.translate", 0),
        "cover.translate.self_s": s("cover.translate"),
        "cover.translate.order_sum": c["cover.translate.order_sum"],
        "cover.translate.min_slack": tracer.min_slack or 0,
        "groups.calls": c["groups.calls"],
        "groups.self_s": c["groups.busy_ns"] / 1e9,
        "groups.elements_enumerated": c["groups.elements_enumerated"],
        "cover.assemble.self_s": s("cover.assemble"),
        "cover.plan.self_s": s("cover.plan"),
        "cover.build.self_s": s("cover.build"),
        "cover.slalom.self_s": s("cover.slalom"),
        "structure.enumerate.self_s": s("structure.enumerate"),
        "structure.enumerate.count": c["structure.enumerate.count"],
        "structure.pipeline.calls": tracer.calls.get("structure.pipeline", 0),
        "structure.pipeline.self_s": s("structure.pipeline"),
        "structure.pipeline.steps": c["structure.pipeline.steps"],
        "structure.dual.self_s": s("structure.dual"),
        "structure.classify.self_s": s("structure.classify"),
        "structure.json.self_s": s("structure.json"),
        "structure.chain.self_s": s("structure.chain"),
        "nullset.outer_measure.self_s": s("nullset.outer_measure"),
        "nullset.sup.self_s": s("nullset.sup"),
        "nullset.membership.self_s": s("nullset.membership"),
        "cover.measure.self_s": s("cover.measure"),
        "cli.interp_ms": interp,
        "cli.import_ms": imported - interp if imported else 0.0,
        "cli.command_ms": invoked - imported if invoked else 0.0,
        "cli.stdout_bytes": stats.stdout_bytes,
        "groups.errors": c["groups.errors"],
        "cover.errors": c["cover.errors"],
        "nullset.errors": c["nullset.errors"],
        "structure.errors": c["structure.errors"],
        "cli.errors": c["cli.errors"],
        "bench.self_s": harness_ns / 1e9,
        "trace.overhead_ratio": traced_ns / untraced_ns - 1.0,
        "trace.layer_share": (root_ns - harness_ns) / root_ns if root_ns else 0.0,
        "trace.spans": len(tracer.span_name),
    }
    return metrics


def run_workload(args) -> int:
    workload = WORKLOADS[args.workload]
    os.makedirs(OUT, exist_ok=True)
    env = environment(args.seed)
    with open(os.path.join(HERE, "expected.json"), encoding="utf-8") as handle:
        expected = json.load(handle)[workload.name]
    stats = Stats()
    details: dict = {}
    if not args.trace:
        setups = []
        for _ in range(SETUP_REPEATS):
            started = time.perf_counter()
            lib = load_library()
            workload.setup(lib, args.seed, OUT)
            seconds = time.perf_counter() - started
            setups.append((seconds, statistics.fmean(probes_after(seconds * 1e9, minimum=5))))
        freeze_inputs()
        rounds, probe_mean = run_rounds(workload, expected, stats, args.seconds)
        who = resource.RUSAGE_CHILDREN if workload.name == "cli-cold" else resource.RUSAGE_SELF
        metrics, details = end_to_end(stats, setups, probe_mean, resource.getrusage(who).ru_maxrss / 1024)
        units = END_TO_END
    else:
        lib = load_library()
        tracer = Tracer()
        tracer.install(lib)
        tracer.open("bench.setup")
        workload.setup(lib, args.seed, OUT)
        tracer.close()
        tracer.uninstall()
        freeze_inputs()
        rounds = TRACE_ROUNDS[workload.name]
        plain = Stats()
        run_paired(workload, lib, expected, rounds, plain, stats, tracer)
        stats.attempted += plain.attempted
        stats.failed += plain.failed
        stats.problems += plain.problems
        traced_ns = sum(stats.latency_ns)
        metrics = per_layer(tracer, sum(plain.latency_ns), traced_ns, stats)
        units = {name: layer_unit(name) for name in metrics}
        spans_path = os.path.join(OUT, f"spans-{workload.name}-seed{args.seed}.json.gz")
        tracer.write(spans_path)
        details = {"spans_file": os.path.relpath(spans_path, ROOT)}
    env["load_after"] = os.getloadavg()
    env["rounds"] = rounds
    if max(env["load_before"][0], env["load_after"][0]) > (env["nproc"] or 1):
        print(f"warning: load average {env['load_after'][0]:.2f} exceeds nproc {env['nproc']}",
              file=sys.stderr)
    correct = stats.failed == 0
    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}  "
          f"{stats.attempted} operations, {stats.failed} failed")
    for name, value in metrics.items():
        print(f"  {name:32s} {value:>16.6g} {units[name]}")
    for problem in stats.problems[:20]:
        print(f"  FAILED {problem}")
    record = {"workload": workload.name, "trace": args.trace, "env": env, "details": details,
              "metrics": metrics, "problems": stats.problems}
    with open(os.path.join(OUT, f"result-{workload.name}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
    print("env " + json.dumps(dict(env, **details)))
    print(json.dumps({
        "correct": correct,
        "attempted": stats.attempted,
        "failed": stats.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if correct else 1


def layer_unit(name: str) -> str:
    if name in ("trace.overhead_ratio", "trace.layer_share"):
        return "1"
    for suffix, unit in (("_s", "s"), ("_ms", "ms"), ("_per_element", "ns"), ("_bytes", "bytes")):
        if name.endswith(suffix):
            return unit
    return "count"


def run_all(args) -> int:
    """Each workload in its own process, so set-up and peak memory are its own."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True)
        lines = done.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
        if done.returncode != 0 or result is None:
            merged["correct"] = False
        if result is not None:
            merged["attempted"] += result["attempted"]
            merged["failed"] += result["failed"]
            for metric, value in result["metrics"].items():
                merged["metrics"][f"{name}/{metric}"] = value
    merged["attempted"] = max(merged["attempted"], 1)
    print(json.dumps(merged))
    return 0 if merged["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "nullcover", "__init__.py")):
        print(f"error: no nullcover sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
