"""The benchmark's four workloads.

Each workload draws its inputs from fixed pools of ``VARIANTS`` inputs
per configuration; the seed decides which variant each round uses and in
what order, so the same seed gives the same inputs and every possible
operation has an output digest recorded in ``expected.json``.  A round
is a fixed list of operations; the runner times whole rounds.  Why each
workload exists, and what it loads, is in WORKLOADS.md.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from math import prod
from typing import Callable

import checks

VARIANTS = 8
DEFAULT_SEED = 1
# Confirm a claimed gain on this seed too; never tune a change against it.
HELD_OUT_SEED = 20111
POSITIONS = ("early", "mid", "late")


@dataclass(eq=False)
class Op:
    """One timed operation: ``call`` runs the library, ``check`` returns
    the canonical output text (digested against expected.json) and the
    problems found by the independent checks."""

    key: str
    call: Callable[[], object]
    check: Callable[[object], tuple[str, list[str]]]
    reject: bool = False      # the correct answer is a rejection
    elements: int = 0         # items certified when the answer is correct
    span: str = "bench.op"
    digested: bool = True     # compared with the digest recorded in expected.json
    result: object = None


def _orders(seed_text: str, count: int) -> list[list[int]]:
    rng = random.Random(seed_text)
    return [rng.sample(range(VARIANTS), VARIANTS) for _ in range(count)]


# ---------------------------------------------------------------------------
# cover-deep and cover-wide


class CoverWorkload:
    """Per configuration and round: cover a slalom, verify the
    certificate, and verify three tampered copies whose least escaping
    element falls early, mid-way and late.  The seed picks the variant:
    the slalom, and the block altered for the early copy."""

    def __init__(self, name: str, configs: list[tuple[str, object, int]]):
        self.name = name
        self.configs = configs
        self.labels = [
            f"{mode}-{arg if mode == 'padic' else 'x'.join(map(str, arg))}-d{depth}"
            for mode, arg, depth in configs
        ]

    def setup(self, lib, seed: int, workdir: str) -> None:
        cover = lib.cover
        self.lib = lib
        self.order = _orders(f"{self.name}:{seed}", len(self.configs))
        self.inputs = []
        for c, (mode, arg, depth) in enumerate(self.configs):
            if mode == "padic":
                plan = cover.plan_blocks_padic(arg, depth)
                ctx = lib.groups.PadicContext(plan.p, plan.boundaries[-1])
                width = "(n+2)//2"
            else:
                plan = cover.plan_blocks_product(itertools.cycle(arg), depth)
                ctx = None
                width = "n+2"
            spec = cover.build_nullset(plan)
            slaloms = [cover.random_slalom(plan, width, 1000 * c + v) for v in range(VARIANTS)]
            self.inputs.append((spec, slaloms, ctx))
        self._kept: dict[int, list[frozenset]] = {}

    def geometry(self, c: int, v: int) -> checks.Geometry:
        # one copy of the kept sets per spec: the checks' own memory must
        # not grow with the number of variants a run happens to use
        spec, slaloms, _ = self.inputs[c]
        if c not in self._kept:
            self._kept[c] = [frozenset(k) for k in spec.kept]
        return checks.Geometry(spec, slaloms[v], self._kept[c])

    def ops(self, c: int, v: int):
        spec, slaloms, ctx = self.inputs[c]
        slalom = slaloms[v]
        cover = self.lib.cover
        geo = self.geometry(c, v)
        key = f"{self.labels[c]}/v{v}"
        if ctx is None:
            run = lambda: cover.cover_product_slalom(spec, slalom)
        else:
            run = lambda: cover.cover_padic_slalom(ctx, spec, slalom)
        made = Op(f"{key}/cover", run,
                  lambda cert: (checks.cover_text(cert), checks.check_certificate(geo, cert)),
                  elements=geo.total)
        yield made
        if made.result is None:
            return
        translate = made.result.translate
        yield Op(f"{key}/verify", lambda: cover.verify_cover(spec, translate, slalom),
                 lambda r: (checks.verify_text(r), checks.check_accept(geo, r)),
                 elements=geo.total)
        for position in POSITIONS:
            bad, witness, checked = checks.tamper(geo, translate, position, v)
            yield Op(f"{key}/{position}", lambda bad=bad: cover.verify_cover(spec, bad, slalom),
                     lambda r, bad=bad, witness=witness, checked=checked: (
                         checks.verify_text(r), checks.check_reject(geo, bad, witness, checked, r)),
                     reject=True)

    def round(self, r: int):
        for c in range(len(self.configs)):
            yield from self.ops(c, self.order[c][r % VARIANTS])

    def pool(self):
        for c in range(len(self.configs)):
            for v in range(VARIANTS):
                yield from self.ops(c, v)


COVER_DEEP = CoverWorkload(
    "cover-deep",
    [("padic", p, depth) for depth in (9, 10, 11) for p in (2, 3, 5)]
    + [("product", (2, 3), 7), ("product", (2, 3), 8)],
)

COVER_WIDE = CoverWorkload(
    "cover-wide",
    [("product", (4096,), 5), ("product", (65536,), 3), ("padic", 4099, 5), ("padic", 65537, 3)],
)


# ---------------------------------------------------------------------------
# exact-queries


MAX_SIZE = 6
CHUNKS = 349          # strided batches of about 511 descriptors each
CHUNKS_PER_ROUND = 6

# prime-power groups of order 6561 to 8192, about equally costly to search
CHAIN_GROUPS = [((6561,), 3, 7), ((128, 64), 2, 5), ((2187, 3), 3, 6), ((729, 9), 3, 5),
                ((243, 27), 3, 4), ((81, 81), 3, 3), ((64, 128), 2, 6), ((9, 729), 3, 5)]


class ExactQueries:
    """Descriptor batches (JSON round trip, pipeline, dual, classify) and
    numeric queries (factorial-base nullset, decay bound, measure,
    divisible chains), weighted to take comparable time."""

    name = "exact-queries"

    def setup(self, lib, seed: int, workdir: str) -> None:
        self.lib = lib
        self.descriptors = list(lib.structure.enumerate_descriptors(MAX_SIZE))
        self.specs = [
            lib.cover.build_nullset(lib.cover.plan_blocks_padic((2, 3, 5)[v % 3], 60 + v))
            for v in range(VARIANTS)
        ]
        rng = random.Random(f"{self.name}:{seed}")
        self.chunk_order = rng.sample(range(CHUNKS), CHUNKS)
        self.order = _orders(f"{self.name}:{seed}:numeric", len(NUMERIC))

    # -- descriptor batches ----------------------------------------------

    def chunk_ops(self, k: int):
        """Chunk k split into the descriptors the pipeline must reject as
        discrete and the rest; each part is one operation."""
        chunk = self.descriptors[k::CHUNKS]
        shapes = [checks.shape(d) for d in chunk]
        for part, reject in (("accept", False), ("reject", True)):
            picked = [(d, s) for d, s in zip(chunk, shapes) if checks.is_discrete(s) == reject]
            yield Op(f"chunk{k}/{part}", self._batch([d for d, _ in picked], [s for _, s in picked]),
                     self._batch_check([s for _, s in picked]), reject=reject,
                     elements=len(picked))

    def _batch(self, descriptors, shapes):
        st = self.lib.structure
        classify = [checks.is_discrete(s) and not checks.is_finite(s) for s in shapes]

        def run():
            out = []
            for d, wanted in zip(descriptors, classify):
                back = st.descriptor_from_json(json.loads(json.dumps(st.descriptor_to_json(d))))
                out.append((back, st.niceness_pipeline(back), st.dual(back),
                            st.classify_subgroup(back) if wanted else None))
            return out

        return run

    @staticmethod
    def _batch_check(shapes):
        def check(out):
            problems, lines = [], []
            for s, (back, result, dualized, verdict) in zip(shapes, out):
                got_dual = checks.shape(dualized)
                line = [result.verdict, [step.rule for step in result.steps],
                        list(result.side_conditions), got_dual]
                if checks.shape(back) != s:
                    problems.append(f"JSON round trip changed {s}")
                if result.verdict != checks.expected_verdict(s):
                    problems.append(f"{s}: verdict {result.verdict}")
                if got_dual != checks.dual_shape(s):
                    problems.append(f"{s}: dual {got_dual}")
                if verdict is not None:
                    witness = verdict.witness if verdict.case in (3, None) else checks.shape(verdict.witness)
                    line.append((verdict.case, witness))
                    if (verdict.case, witness) != checks.classify_shape(s):
                        problems.append(f"{s}: trichotomy {(verdict.case, witness)}")
                lines.append(repr(line))
            return "\n".join(lines), problems[:5]

        return check

    # -- numeric queries ---------------------------------------------------

    def numeric_op(self, kind: str, v: int) -> Op:
        return getattr(self, "_" + kind)(v)

    def _outer(self, v):
        depths = [1000 + 20 * v + 100 * k for k in range(11)]
        ns = self.lib.nullset
        return Op(f"outer/v{v}", lambda: [ns.ek_outer_measure(n) for n in depths],
                  lambda out: (repr(out), [f"outer({n}) = {q}" for n, q in zip(depths, out)
                                           if q != Fraction(1, n)]))

    def _sup(self, v):
        depths = [220 + 3 * v + 12 * k for k in range(12)]
        ns = self.lib.nullset
        return Op(f"sup/v{v}", lambda: [ns.ek_sup(n) for n in depths],
                  lambda out: (repr(out), [f"sup({n}) wrong" for n, q in zip(depths, out)
                                           if q != checks.sup_exact(n)]))

    def _membership(self, v):
        points = [Fraction(a, b) for b in range(41 + v, 71 + v, 6) for a in range(b)]
        ns = self.lib.nullset

        def check(out):
            problems = [] if out[0] == "in" else ["0 is not in the nullset"]
            problems += [f"verdict {x}" for x in out if x not in ("in", "out", "undetermined")]
            return repr(out), problems

        return Op(f"membership/v{v}", lambda: [ns.ek_membership(q, 40) for q in points], check)

    def _first_below(self, v):
        # the scan costs about 1/t^4; the pair keeps the sum nearly constant
        thresholds = [Fraction(1, 26 + v), Fraction(1, 33 - v)]
        cover = self.lib.cover

        def check(out):
            return repr(out), [f"first below {t}: {n}" for t, n in zip(thresholds, out)
                               if not checks.bound_closed(n) < t <= checks.bound_closed(n - 1)]

        return Op(f"first_below/v{v}", lambda: [cover.first_bound_below(t) for t in thresholds], check)

    def _measure(self, v):
        spec = self.specs[v]
        cover = self.lib.cover
        levels = range(0, spec.depth + 1)
        cuts = spec.plan.boundaries
        orders = [spec.plan.p ** (b - a) for a, b in zip(cuts, cuts[1:])]

        def check(out):
            problems = []
            for n, (measure, bound) in zip(levels, out):
                exact = prod((checks.kept_fraction(orders[i], i) for i in range(n)), start=Fraction(1))
                if measure != exact or bound != checks.bound_closed(n) or measure > bound:
                    problems.append(f"measure at {n} blocks: {measure} vs {exact}, bound {bound}")
            return repr(out), problems

        return Op(f"measure/v{v}",
                  lambda: [(cover.measure_upper(spec, n), cover.bound_product(n)) for n in levels],
                  check)

    def _chain(self, v):
        orders, p, depth = CHAIN_GROUPS[v]
        st = self.lib.structure
        group = self.lib.groups.FiniteAbelianGroup(orders)

        def check(chain):
            if chain is None:
                return "None", ["no chain found"]
            ok = (len(chain) == depth + 1 and any(chain[0])
                  and all(tuple(p * x % m for x, m in zip(b, orders)) == a for a, b in zip(chain, chain[1:])))
            return repr(chain), [] if ok else [f"bad chain {chain}"]

        return Op(f"chain/v{v}", lambda: st.divisible_chain(group, p, depth), check)

    # -- rounds --------------------------------------------------------------

    def round(self, r: int):
        chunks = [self.chunk_order[(CHUNKS_PER_ROUND * r + i) % CHUNKS] for i in range(CHUNKS_PER_ROUND)]
        for i, kind in enumerate(NUMERIC):
            yield from self.chunk_ops(chunks[i])
            yield self.numeric_op(kind, self.order[i][r % VARIANTS])
        for k in chunks[len(NUMERIC):]:
            yield from self.chunk_ops(k)

    def pool(self):
        for k in range(CHUNKS):
            yield from self.chunk_ops(k)
        for kind in NUMERIC:
            for v in range(VARIANTS):
                yield self.numeric_op(kind, v)


NUMERIC = ("outer", "sup", "membership", "first_below", "measure", "chain")


# ---------------------------------------------------------------------------
# cli-cold


class CliCold:
    """One ``python -m nullcover`` subprocess at a time over every
    subcommand, plus two inputs with fixed error exit codes."""

    name = "cli-cold"
    DESCRIPTORS = [
        {"type": "SumOmega", "parts": [{"type": "Cyclic", "m": 2}]},
        {"type": "FiniteSum", "parts": [{"type": "Int"}, {"type": "Cyclic", "m": 3}]},
        {"type": "Quasicyclic", "p": 3},
        {"type": "FiniteSum", "parts": [{"type": "Quasicyclic", "p": 2}, {"type": "SumOmega",
                                                                           "parts": [{"type": "Cyclic", "m": 5}]}]},
        {"type": "Int"},
        {"type": "SumOmega", "parts": [{"type": "Cyclic", "m": 2}, {"type": "Cyclic", "m": 3}]},
        {"type": "FiniteSum", "parts": [{"type": "Cyclic", "m": 4}, {"type": "Quasicyclic", "p": 5}]},
        {"type": "FiniteSum", "parts": [{"type": "Int"}, {"type": "Int"}]},
    ]

    def __init__(self):
        self.root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

    def setup(self, lib, seed: int, workdir: str) -> None:
        cover = lib.cover
        self.dir = os.path.join(workdir, "cli")
        os.makedirs(self.dir, exist_ok=True)
        self.order = _orders(f"{self.name}:{seed}", len(TEMPLATES))
        self.bundles = []
        for v in range(VARIANTS):
            plan = cover.plan_blocks_padic((2, 3)[v % 2], 3 + v % 3)
            self._write(f"plan{v}", plan.to_json())
            self._write(f"spec{v}", cover.build_nullset(plan).to_json())
            cube_plan = cover.plan_blocks_product(itertools.cycle((2,)), 2)
            family = [cover.random_slalom(cube_plan, "n+2", 10 * v + i).to_json() for i in range(3)]
            self._write(f"cube{v}", {"plan": cube_plan.to_json(), "family": family})
            bplan = cover.plan_blocks_padic(3, 5)
            spec = cover.build_nullset(bplan)
            slalom = cover.random_slalom(bplan, "(n+2)//2", v)
            cert = cover.cover_padic_slalom(lib.groups.PadicContext(3, bplan.boundaries[-1]), spec, slalom)
            geo = checks.Geometry(spec, slalom)
            bad, witness, checked = checks.tamper(geo, cert.translate, "late", v)
            bundle = {"spec": spec.to_json(), "slalom": slalom.to_json()}
            self._write(f"ok{v}", dict(bundle, certificate=cert.to_json()))
            flat = [d for block in bad for d in block]
            self._write(f"bad{v}", dict(bundle, certificate={"translate": flat, "verified": False,
                                                             "checked_count": 0}))
            self.bundles.append((geo.total, list(witness), checked))

    def _write(self, name: str, obj) -> None:
        with open(os.path.join(self.dir, name + ".json"), "w", encoding="utf-8") as handle:
            json.dump(obj, handle, sort_keys=True)

    def env(self) -> dict:
        env = {k: val for k, val in os.environ.items() if k != "NULLCOVER_CAP_VERIFY"}
        src = os.path.join(self.root, "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        return env

    def spawn(self, argv: list[str]):
        done = subprocess.run(argv, capture_output=True, cwd=self.root, env=self.env(), timeout=120)
        return done.returncode, done.stdout

    def op(self, t: int, v: int) -> Op:
        name, build = TEMPLATES[t]
        args, code, kind = build(self, v)
        argv = [sys.executable, "-m", "nullcover", *args]
        elements = 0
        if kind == "cover":
            elements = COVER_SIZES[name]
        elif kind == "accept":
            elements = self.bundles[v][0]
        return Op(f"{name}/v{v}", lambda: self.spawn(argv), self._check(code, kind, v),
                  reject=kind in ("reject", "error"), elements=elements, span="cli.invoke")

    def _check(self, code: int, kind: str, v: int):
        def check(out):
            returncode, stdout = out
            problems = [] if returncode == code else [f"exit code {returncode}, expected {code}"]
            try:
                doc = json.loads(stdout)
            except ValueError:
                return stdout.decode(errors="replace"), problems + ["stdout is not one JSON document"]
            total, witness, checked = self.bundles[v]
            if kind == "cover":
                sets = doc["slalom"]["sets"]
                if doc["certificate"]["checked_count"] != prod(len(s) for s in sets):
                    problems.append("cover checked_count != prod |S_n|")
            elif kind == "accept" and (doc["ok"] is not True or doc["checked_count"] != total):
                problems.append(f"accepted bundle: {doc}")
            elif kind == "reject" and (doc["ok"] is not False or doc["witness"] != witness
                                       or doc["checked_count"] != checked):
                problems.append(f"tampered bundle: {doc}")
            elif kind == "error" and "error" not in doc:
                problems.append("error input gave no error document")
            return stdout.decode(), problems

        return check

    def probe(self, span: str, code: str) -> Op:
        argv = [sys.executable, "-c", code]
        return Op(f"{span}/probe", lambda: self.spawn(argv),
                  lambda out: ("", [] if out == (0, b"") else [f"probe gave {out}"]),
                  span=span, digested=False)

    def traced_round(self, r: int):
        """The round with interpreter start and package import alone run
        beside each invocation, for the per-layer split of cold start."""
        for op in self.round(r):
            yield op
            yield self.probe("cli.interp", "pass")
            yield self.probe("cli.import", "import nullcover.cli")

    def round(self, r: int):
        for t in range(len(TEMPLATES)):
            yield self.op(t, self.order[t][r % VARIANTS])

    def pool(self):
        for t in range(len(TEMPLATES)):
            for v in range(VARIANTS):
                yield self.op(t, v)


def _descriptor(cli: CliCold, v: int) -> str:
    return json.dumps(cli.DESCRIPTORS[v])


def _file(cli: CliCold, name: str) -> str:
    return "@" + os.path.join(cli.dir, name + ".json")


# name -> (cli, variant) -> (argv, expected exit code, kind)
TEMPLATES = [
    ("plan-padic", lambda c, v: (["plan", "padic", "--p", str((2, 3, 5, 7)[v % 4]), "--depth", str(3 + v % 3)], 0, "plain")),
    ("plan-product", lambda c, v: (["plan", "product", "--orders", "2,3", "--cycle", "--depth", str(3 + v % 4)], 0, "plain")),
    ("build-nullset", lambda c, v: (["build-nullset", "--in", _file(c, f"plan{v}")], 0, "plain")),
    ("cover-padic", lambda c, v: (["cover", "padic", "--p", "3", "--depth", "4", "--seed", str(v)], 0, "cover")),
    ("cover-product", lambda c, v: (["cover", "product", "--orders", "2", "--cycle", "--depth", "5", "--seed", str(v)], 0, "cover")),
    ("verify-ok", lambda c, v: (["verify", "--in", _file(c, f"ok{v}")], 0, "accept")),
    ("verify-tampered", lambda c, v: (["verify", "--in", _file(c, f"bad{v}")], 0, "reject")),
    ("measure-blocks", lambda c, v: (["measure", "--in", _file(c, f"spec{v}"), "--blocks", str(1 + v % 3)], 0, "plain")),
    ("measure-first-below", lambda c, v: (["measure", "--first-below", f"1/{10 + v}"], 0, "plain")),
    ("ek-member", lambda c, v: (["ek", "member", "--num", str(v + 1), "--den", "13", "--depth", "20", "--digits"], 0, "plain")),
    ("ek-measure", lambda c, v: (["ek", "measure", "--depth", str(50 + v)], 0, "plain")),
    ("ek-sup", lambda c, v: (["ek", "sup", "--depth", str(10 + v)], 0, "plain")),
    ("classify", lambda c, v: (["classify", "--in", _descriptor(c, v)], 0, "plain")),
    ("dual", lambda c, v: (["dual", "--in", _descriptor(c, v)], 0, "plain")),
    ("pipeline", lambda c, v: (["pipeline", "--in", _descriptor(c, v)], 0, "plain")),
    ("chain", lambda c, v: (["chain", "--orders", ("8", "16,2", "27", "9,9")[v % 4], "--p", ("2", "2", "3", "3")[v % 4], "--depth", "2"], 0, "plain")),
    ("slalom-gen", lambda c, v: (["slalom-gen", "--in", _file(c, f"plan{v}"), "--width", "(n+2)//2", "--seed", str(v)], 0, "plain")),
    ("cube-check", lambda c, v: (["cube-check", "--in", _file(c, f"cube{v}")], 0, "plain")),
    ("malformed-json", lambda c, v: (["dual", "--in", '{"type": "Cyclic", "m": ' + str(v + 2)], 2, "error")),
    ("composite-p", lambda c, v: (["plan", "padic", "--p", str((4, 6, 9, 15)[v % 4]), "--depth", "3"], 3, "error")),
]

# slalom elements certified by the cover templates: prod of min(width(n), block order)
COVER_SIZES = {"cover-padic": 1 * 1 * 2 * 2, "cover-product": 2 * 3 * 4 * 5 * 6}

WORKLOADS = {w.name: w for w in (COVER_DEEP, COVER_WIDE, ExactQueries(), CliCold())}
