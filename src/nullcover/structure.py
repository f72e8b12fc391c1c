"""Symbolic layer: descriptors for locally compact abelian groups, the
character-group rewrite, the subgroup trichotomy, divisible-chain search,
and the reduction pipeline that decides coverability by nullset
translates.

The descriptor grammar is a deliberately decidable fragment: the
infinitary constructors repeat a finite list of finite groups cyclically,
because a terminating classifier needs a finite description.  Groups
outside the grammar are reported as unclassifiable, never guessed at.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Iterator, Optional

from .errors import (
    DEFAULT_ENUM_CAP,
    NUMERIC_DEPTH_CAP,
    CapExceeded,
    NotDiscrete,
    NotFiniteTorsion,
    NotInfinite,
    PreconditionViolated,
    SchemaError,
    _as_int,
    _refuse_unknown_keys,
)
from .groups import FiniteAbelianGroup, GroupElement, is_prime


# Deepest nesting of compound descriptors that parsing accepts: far below
# where the recursive predicates would exhaust the stack, far above the
# depth of any descriptor the enumerator builds.
MAX_DESCRIPTOR_NESTING = 100


# ---------------------------------------------------------------------------
# descriptor grammar


class Descriptor:
    """Base class; every constructor below is an immutable node."""

    __slots__ = ()


@dataclass(frozen=True, slots=True)
class Int(Descriptor):
    """The integers, discrete."""


@dataclass(frozen=True, slots=True)
class Reals(Descriptor):
    """The real line."""


@dataclass(frozen=True, slots=True)
class Torus(Descriptor):
    """The circle group."""


@dataclass(frozen=True, slots=True)
class Cyclic(Descriptor):
    order: int

    def __post_init__(self) -> None:
        if self.order < 2:
            raise PreconditionViolated(f"cyclic order must be >= 2, got {self.order}")


@dataclass(frozen=True, slots=True)
class Quasicyclic(Descriptor):
    """Union of the cyclic p-power groups inside the rationals mod 1; discrete."""

    p: int

    def __post_init__(self) -> None:
        if not is_prime(self.p):
            raise PreconditionViolated(f"p = {self.p} is not prime")


@dataclass(frozen=True, slots=True)
class Padic(Descriptor):
    """The compact group of p-adic integers."""

    p: int

    def __post_init__(self) -> None:
        if not is_prime(self.p):
            raise PreconditionViolated(f"p = {self.p} is not prime")


@dataclass(frozen=True, slots=True)
class FiniteSum(Descriptor):
    """Finite direct sum of the parts."""

    parts: tuple[Descriptor, ...]

    def __post_init__(self) -> None:
        if not self.parts:
            raise PreconditionViolated("FiniteSum needs at least one part")


@dataclass(frozen=True, slots=True)
class SumOmega(Descriptor):
    """Countable direct sum repeating the given finite groups cyclically;
    discrete."""

    parts: tuple[Descriptor, ...]

    def __post_init__(self) -> None:
        _check_omega_parts(self.parts, "SumOmega")


@dataclass(frozen=True, slots=True)
class ProdOmega(Descriptor):
    """Countable direct product repeating the given finite groups
    cyclically; compact."""

    parts: tuple[Descriptor, ...]

    def __post_init__(self) -> None:
        _check_omega_parts(self.parts, "ProdOmega")


def _check_omega_parts(parts: tuple[Descriptor, ...], kind: str) -> None:
    if not parts:
        raise PreconditionViolated(f"{kind} needs at least one part")
    for part in parts:
        if not is_finite(part):
            raise PreconditionViolated(f"{kind} parts must denote finite groups, got {part!r}")


def r_power(n: int) -> Descriptor:
    """n-dimensional real space as a descriptor, n >= 1."""
    if n < 1:
        raise PreconditionViolated(f"r_power needs n >= 1, got {n}")
    return Reals() if n == 1 else FiniteSum((Reals(),) * n)


# kind bits: an atom's bits come from its class, a finite sum's are the
# AND of its parts' bits
FINITE, DISCRETE, COMPACT = 1, 2, 4
_KIND_BITS: dict[type, int] = {
    Int: DISCRETE,
    Reals: 0,
    Torus: COMPACT,
    Cyclic: FINITE | DISCRETE | COMPACT,
    Quasicyclic: DISCRETE,
    Padic: COMPACT,
    SumOmega: DISCRETE,
    ProdOmega: COMPACT,
}


def _kind_bits(d: Descriptor) -> int:
    if type(d) is not FiniteSum:
        return _KIND_BITS.get(type(d), 0)
    bits = FINITE | DISCRETE | COMPACT
    for part in d.parts:
        bits &= _kind_bits(part)
        if not bits:
            break
    return bits


def is_finite(d: Descriptor) -> bool:
    return bool(_kind_bits(d) & FINITE)


def is_discrete(d: Descriptor) -> bool:
    return bool(_kind_bits(d) & DISCRETE)


def descriptor_to_json(d: Descriptor) -> dict:
    kind = type(d)
    if kind is FiniteSum or kind is SumOmega or kind is ProdOmega:
        return {"type": kind.__name__, "parts": [descriptor_to_json(p) for p in d.parts]}
    if kind is Cyclic:
        return {"type": "Cyclic", "m": d.order}
    if kind is Quasicyclic or kind is Padic:
        return {"type": kind.__name__, "p": d.p}
    if kind is Int or kind is Reals or kind is Torus:
        return {"type": kind.__name__}
    raise SchemaError(f"not a descriptor: {d!r}")


def descriptor_from_json(obj: object) -> Descriptor:
    """Parse a descriptor; nesting deeper than ``MAX_DESCRIPTOR_NESTING``
    compounds is refused with :class:`SchemaError`."""
    return _descriptor_from_json(obj, 0)


def _descriptor_from_json(obj: object, nesting: int) -> Descriptor:
    if not isinstance(obj, dict) or "type" not in obj:
        raise SchemaError("descriptor must be an object with a 'type' field")
    kind = obj["type"]
    try:
        # a tuple test, not a dict lookup: the field may be unhashable JSON
        if kind in ("FiniteSum", "SumOmega", "ProdOmega"):
            if nesting == MAX_DESCRIPTOR_NESTING:
                raise SchemaError(f"descriptor nests more than {MAX_DESCRIPTOR_NESTING} compounds")
            parts = obj["parts"]
            if not isinstance(parts, list):
                raise SchemaError(f"descriptor {kind} field 'parts' must be an array")
            parts = tuple([_descriptor_from_json(p, nesting + 1) for p in parts])
            node = {"FiniteSum": FiniteSum, "SumOmega": SumOmega, "ProdOmega": ProdOmega}[kind](parts)
            fields = ("type", "parts")
        elif kind == "Cyclic":
            node, fields = Cyclic(_as_int(obj["m"], "Cyclic m")), ("type", "m")
        elif kind == "Quasicyclic":
            node, fields = Quasicyclic(_as_int(obj["p"], "Quasicyclic p")), ("type", "p")
        elif kind == "Padic":
            node, fields = Padic(_as_int(obj["p"], "Padic p")), ("type", "p")
        elif kind == "Int":
            node, fields = Int(), ("type",)
        elif kind == "Reals":
            node, fields = Reals(), ("type",)
        elif kind == "Torus":
            node, fields = Torus(), ("type",)
        else:
            raise SchemaError(f"unknown descriptor type {kind!r}")
    except KeyError as missing:
        raise SchemaError(f"descriptor {kind} is missing field {missing}") from None
    except (TypeError, ValueError):
        raise SchemaError(f"descriptor {kind} has a malformed field") from None
    # the node read every field its schema lists, so only a larger count
    # can hide a key outside the schema; the keys are read only then
    if len(obj) != len(fields):
        _refuse_unknown_keys(obj, fields, f"descriptor {kind}")
    return node


# ---------------------------------------------------------------------------
# primary decomposition and the trichotomy


# trial division stops at this bound; a cofactor with no prime factor up
# to it is prime when below its square, and is_prime decides the rest
TRIAL_DIVISION_LIMIT = 1 << 20


def _factor(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    p = 2
    while p * p <= n and p <= TRIAL_DIVISION_LIMIT:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1 if p == 2 else 2
    if n > 1:
        if n >= TRIAL_DIVISION_LIMIT**2 and not is_prime(n):
            raise CapExceeded(
                f"a {n.bit_length()}-bit cofactor has no prime factor up to {TRIAL_DIVISION_LIMIT}"
                " and is not prime; factoring it is refused"
            )
        out[n] = out.get(n, 0) + 1
    return out


def primary_decomposition(d: Descriptor) -> list[tuple[int, Descriptor]]:
    """Split a finite descriptor into its prime-power components, one
    entry per prime in increasing order.

    Each cyclic factor of order m contributes, via the Chinese remainder
    splitting, one cyclic factor of order p^k per prime power p^k in m.
    Orders are factored by trial division up to ``TRIAL_DIVISION_LIMIT``
    = 2^20; an order whose cofactor past that bound is composite (or too
    large for :func:`is_prime` to decide) raises :class:`CapExceeded`.
    """
    if not is_finite(d):
        raise NotFiniteTorsion(f"{d!r} does not denote a finite group")
    per_prime: dict[int, list[int]] = {}
    for m in _cyclic_orders(d):
        for p, k in sorted(_factor(m).items()):
            per_prime.setdefault(p, []).append(p**k)
    result = []
    for p in sorted(per_prime):
        factors = tuple(Cyclic(q) for q in per_prime[p])
        result.append((p, factors[0] if len(factors) == 1 else FiniteSum(factors)))
    return result


def _cyclic_orders(d: Descriptor) -> list[int]:
    match d:
        case Cyclic(order):
            return [order]
        case FiniteSum(parts):
            out: list[int] = []
            for p in parts:
                out.extend(_cyclic_orders(p))
            return out
    raise NotFiniteTorsion(f"{d!r} does not denote a finite group")


@dataclass(frozen=True, slots=True)
class TrichotomyVerdict:
    """Which unavoidable subgroup an infinite discrete group contains.

    case 1: an infinite-order element (witness Int); case 2: an infinite
    direct sum of nontrivial finite groups (witness the SumOmega node);
    case 3: a quasicyclic group (witness the prime).  case None means the
    descriptor's shape gives no verdict.
    """

    case: Optional[int]
    witness: object

    def to_json(self) -> dict:
        if self.case == 3:
            witness = {"p": self.witness}
        elif self.case is None:
            witness = None
        else:
            witness = descriptor_to_json(self.witness)
        return {"case": self.case, "witness": witness}


def classify_subgroup(d: Descriptor) -> TrichotomyVerdict:
    """Locate one of the three unavoidable subgroups in an infinite
    discrete descriptor, trying the cases in order: an Int summand, then
    a SumOmega summand, then a Quasicyclic one.

    One preorder walk through the finite sums finds the case: it stops
    at the first Int and remembers the first SumOmega and the first
    Quasicyclic on its way.  FiniteSum is the only transparent
    constructor (omega parts are finite, so nothing relevant hides
    there).  Within this grammar "infinitely many primes with nontrivial
    part" and "an infinite elementary p-summand" are expressible only
    through SumOmega, so case 2 reduces to SumOmega presence.
    """
    bits = _kind_bits(d)
    if not bits & DISCRETE:
        raise NotDiscrete(f"{d!r} does not denote a discrete group")
    if bits & FINITE:
        raise NotInfinite(f"{d!r} denotes a finite group")
    omega = quasicyclic = None
    pending = [d]
    while pending:
        node = pending.pop()
        kind = type(node)
        if kind is FiniteSum:
            pending += reversed(node.parts)
        elif kind is Int:
            return TrichotomyVerdict(1, node)
        elif kind is SumOmega:
            if omega is None:
                omega = node
        elif kind is Quasicyclic and quasicyclic is None:
            quasicyclic = node
    if omega is not None:
        return TrichotomyVerdict(2, omega)
    if quasicyclic is not None:
        return TrichotomyVerdict(3, quasicyclic.p)
    return TrichotomyVerdict(None, None)


def divisible_chain(G: FiniteAbelianGroup, p: int, depth: int) -> Optional[tuple[GroupElement, ...]]:
    """Lexicographically least chain (g_0, ..., g_depth) with g_0 nonzero
    and p * g_(i+1) = g_i, or None when no chain that deep exists.

    Entry g_i has depth - i successive p-th roots, so it lies in p^r G
    with r = depth - i, and p^r (Z_m0 + ... + Z_mk) is d_0 Z_m0 + ... +
    d_k Z_mk with d = gcd(p^r, m) per coordinate.  Canonical order puts
    the last coordinate fastest, so g_0 is zero except for d in the last
    coordinate where p^depth G is nontrivial, and each next link is, per
    coordinate, the least x in d Z_m with p x = y: with h = gcd(p d, m),
    x = d * ((y / h) * (p d / h)^-1 mod m / h).  No search backtracks
    and no element table is built, so the group order is not capped.  The
    chain has depth + 1 links: depths above ``NUMERIC_DEPTH_CAP``, or more
    than ``DEFAULT_ENUM_CAP`` coordinates in all, raise :class:`CapExceeded`.
    """
    if depth < 0:
        raise PreconditionViolated(f"depth must be >= 0, got {depth}")
    if not is_prime(p):
        raise PreconditionViolated(f"p = {p} is not prime")
    if depth > NUMERIC_DEPTH_CAP:
        raise CapExceeded(f"chain depth {depth} exceeds the numeric depth cap {NUMERIC_DEPTH_CAP}")
    entries = (depth + 1) * len(G.orders)
    if entries > DEFAULT_ENUM_CAP:
        raise CapExceeded(f"a chain of {depth + 1} links over {len(G.orders)} coordinates"
                          f" has {entries} entries, above the cap {DEFAULT_ENUM_CAP}")

    def level(r: int, m: int) -> int:
        # the generator d of p^r Z_m; exponents past log2(m) leave it fixed
        return gcd(p ** min(r, m.bit_length()), m)

    top = [level(depth, m) for m in G.orders]
    last = next((i for i in reversed(range(len(top))) if top[i] < G.orders[i]), None)
    if last is None:
        return None
    chain = [tuple(top[i] if i == last else 0 for i in range(len(top)))]
    for r in range(depth - 1, -1, -1):
        link = []
        for y, m in zip(chain[-1], G.orders):
            d = level(r, m)
            h = gcd(p * d, m)
            link.append(d * (y // h * pow(p * d // h, -1, m // h) % (m // h)))
        chain.append(tuple(link))
    return tuple(chain)


# ---------------------------------------------------------------------------
# duality and the reduction pipeline


def dual(d: Descriptor) -> Descriptor:
    """Character-group rewrite: integers and circle swap, reals and finite
    cyclic groups are self-dual, quasicyclic and p-adic swap, and the
    sum/product constructors swap componentwise.  An involution on the
    whole grammar by construction."""
    kind = type(d)
    if kind is FiniteSum:
        return FiniteSum(tuple([dual(p) for p in d.parts]))
    if kind is Cyclic or kind is Reals:
        return d
    if kind is Int:
        return Torus()
    if kind is Torus:
        return Int()
    if kind is Quasicyclic:
        return Padic(d.p)
    if kind is Padic:
        return Quasicyclic(d.p)
    if kind is SumOmega:
        return ProdOmega(tuple([dual(p) for p in d.parts]))
    if kind is ProdOmega:
        return SumOmega(tuple([dual(p) for p in d.parts]))
    raise SchemaError(f"not a descriptor: {d!r}")


RULES: dict[str, str] = {
    "flatten-sum": "rewrite nested finite sums into one flat sum of the same group",
    "discrete-no-nullset": "a discrete group's only nullset is empty, so no translate cover exists",
    "open-subgroup": "pass to the open subgroup spanned by the non-discrete summands; "
    "its index is recorded as a side condition, never evaluated",
    "real-factor": "a real-line factor beside a compact part is coverable: "
    "combine the compact part, a real-line nullset, and a unit cube",
    "dualize": "the group is compact, so its character group is discrete and "
    "factors of the group correspond to subgroups of the dual",
    "subgroup-trichotomy": "an infinite discrete abelian group contains the integers, "
    "an infinite sum of nontrivial finite groups, or a quasicyclic group",
    "dualize-witness": "the located subgroup of the dual corresponds to a factor of "
    "the original group; a coverable factor makes the whole group coverable",
    "terminal-circle": "the circle group is coverable",
    "terminal-finite-product": "a countable product of nontrivial finite groups is coverable",
    "terminal-padic": "the p-adic integers are coverable",
    "no-applicable-rule": "no registered rule matches; reported, never guessed",
}

SIDE_CONDITION_INDEX = "open-subgroup-index-bounded"

VERDICT_NICE = "nice"
VERDICT_DISCRETE = "not-nice:discrete"
VERDICT_UNRESOLVED = "unresolved"


@dataclass(frozen=True, slots=True)
class TraceStep:
    rule: str
    before: Descriptor
    after: Optional[Descriptor]

    def __post_init__(self) -> None:
        if self.rule not in RULES:
            raise PreconditionViolated(f"unregistered rule {self.rule!r}")


@dataclass(frozen=True, slots=True)
class PipelineResult:
    verdict: str
    steps: tuple[TraceStep, ...]
    side_conditions: tuple[str, ...]

    def to_json(self) -> dict:
        # one step's after is the next step's before, and a terminal
        # step's before is its after: each tree object is serialized once
        # and its document shared, which json.dumps writes out in full
        trees: dict[int, dict] = {}

        def tree(d: Descriptor) -> dict:
            doc = trees.get(id(d))
            if doc is None:
                doc = trees[id(d)] = descriptor_to_json(d)
            return doc

        trace = [
            {"rule": s.rule, "before": tree(s.before), "after": None if s.after is None else tree(s.after)}
            for s in self.steps
        ]
        return {"verdict": self.verdict, "trace": trace, "side_conditions": list(self.side_conditions)}


def _flatten(d: Descriptor) -> Descriptor:
    """The flat form of d: d itself when it is no finite sum or is
    already flat, else a sum of two or more parts none of which is a
    finite sum, or the one part left.  Descriptor classes are final, so
    exact type tests stand for ``isinstance``."""
    if type(d) is not FiniteSum:
        return d
    if len(d.parts) > 1 and FiniteSum not in map(type, d.parts):
        return d
    parts: list[Descriptor] = []
    for part in d.parts:
        flat = _flatten(part)
        if type(flat) is FiniteSum:
            parts.extend(flat.parts)
        else:
            parts.append(flat)
    return parts[0] if len(parts) == 1 else FiniteSum(tuple(parts))


_TERMINAL_RULES = {
    Torus: "terminal-circle",
    ProdOmega: "terminal-finite-product",
    Padic: "terminal-padic",
}


def niceness_pipeline(d: Descriptor) -> PipelineResult:
    """Decide coverability-by-nullset-translates for a descriptor, one
    registered rule at a time.

    Order of attack: discrete groups fail outright; discrete summands are
    shed into an open subgroup; a real-line factor settles the rest of
    the sum; what remains is compact, so either it is one of the three
    terminal shapes or it is dualized, the trichotomy picks a subgroup of
    the dual, and that subgroup's dual is the coverable factor.  Every
    "nice" verdict is conditional on the recorded index side condition.

    The flat sum's parts are read once: no part is a finite sum, so each
    part's kind bits are one table read of its type, and one loop over
    the types gathers what the first rules test, the AND of DISCRETE
    over all parts, the parts an open subgroup keeps (finite or not
    discrete) and the AND of COMPACT over those.  ``dual`` and
    ``classify_subgroup`` are called through the module globals.
    """
    steps: list[TraceStep] = []
    current = _flatten(d)
    if current is not d:
        steps.append(TraceStep("flatten-sum", d, current))

    parts = current.parts if type(current) is FiniteSum else (current,)
    types = tuple(map(type, parts))
    discrete, compact = DISCRETE, COMPACT
    kept = []
    for i, kind in enumerate(types):
        bits = _KIND_BITS.get(kind, 0)
        discrete &= bits
        if bits & FINITE or not bits & DISCRETE:
            kept.append(i)
            compact &= bits
    if discrete:
        steps.append(TraceStep("discrete-no-nullset", current, None))
        return PipelineResult(VERDICT_DISCRETE, tuple(steps), ())

    if len(kept) < len(parts):
        subgroup = parts[kept[0]] if len(kept) == 1 else FiniteSum(tuple([parts[i] for i in kept]))
        steps.append(TraceStep("open-subgroup", current, subgroup))
        current = subgroup

    # a real line is never discrete, so it is always kept
    if Reals in types:
        steps.append(TraceStep("real-factor", current, None))
        return PipelineResult(VERDICT_NICE, tuple(steps), (SIDE_CONDITION_INDEX,))

    if not compact:
        steps.append(TraceStep("no-applicable-rule", current, None))
        return PipelineResult(VERDICT_UNRESOLVED, tuple(steps), ())

    terminal = _TERMINAL_RULES.get(type(current))
    if terminal is not None:
        steps.append(TraceStep(terminal, current, current))
        return PipelineResult(VERDICT_NICE, tuple(steps), (SIDE_CONDITION_INDEX,))

    dualized = dual(current)
    steps.append(TraceStep("dualize", current, dualized))
    verdict = classify_subgroup(dualized)
    if verdict.case is None:
        steps.append(TraceStep("no-applicable-rule", dualized, None))
        return PipelineResult(VERDICT_UNRESOLVED, tuple(steps), ())
    witness = Quasicyclic(verdict.witness) if verdict.case == 3 else verdict.witness
    steps.append(TraceStep("subgroup-trichotomy", dualized, witness))
    factor = dual(witness)
    steps.append(TraceStep("dualize-witness", witness, factor))
    terminal = _TERMINAL_RULES.get(type(factor))
    if terminal is None:
        steps.append(TraceStep("no-applicable-rule", factor, None))
        return PipelineResult(VERDICT_UNRESOLVED, tuple(steps), ())
    steps.append(TraceStep(terminal, factor, factor))
    return PipelineResult(VERDICT_NICE, tuple(steps), (SIDE_CONDITION_INDEX,))


# ---------------------------------------------------------------------------
# exhaustive descriptor enumeration (used by the involution checks)


# the atoms of every enumerated descriptor, one shared instance each
_ATOMS: tuple[Descriptor, ...] = (
    Int(), Reals(), Torus(), Cyclic(2), Cyclic(3),
    Quasicyclic(2), Quasicyclic(3), Padic(2), Padic(3),
)


def enumerate_descriptors(max_size: int) -> Iterator[Descriptor]:
    """All descriptors of syntactic size <= max_size over the atoms Int,
    Reals, Torus and, for 2 and 3, Cyclic, Quasicyclic and Padic,
    compounds included; sizes count nodes.  Each size class is built
    once from the smaller ones, whose descriptors are the parts of its
    compounds."""
    # sized[s]: descriptors of size s; finite[s]: the finite groups among
    # them; seqs[t], finite_seqs[t]: part tuples of total size t
    sized: list[list[Descriptor]] = [[]]
    finite: list[list[Descriptor]] = [[]]
    seqs: list[list[tuple[Descriptor, ...]]] = [[()]]
    finite_seqs: list[list[tuple[Descriptor, ...]]] = [[()]]
    for size in range(1, max_size + 1):
        if size == 1:
            level = list(_ATOMS)
        else:
            finite.append([d for d in sized[-1] if is_finite(d)])
            seqs.append(_part_sequences(sized, seqs))
            finite_seqs.append(_part_sequences(finite, finite_seqs))
            level = [FiniteSum(seq) for seq in seqs[-1]]
            for seq in finite_seqs[-1]:
                level += (SumOmega(seq), ProdOmega(seq))
        sized.append(level)
        yield from level


def _part_sequences(sized: list, seqs: list) -> list[tuple[Descriptor, ...]]:
    # the sequences of total size len(seqs): each first part, by size and
    # then by place in its size class, before every rest of the remainder
    total = len(seqs)
    return [
        (first,) + rest
        for first_size in range(1, total + 1)
        for first in sized[first_size]
        for rest in seqs[total - first_size]
    ]
