"""Output checks that do not trust the library.

Everything here reads plain attributes of the library's result objects
and redoes the arithmetic with Python integers and fractions: block
values, carries, kept-set membership, closed forms and descriptor
predicates.  No function in this module calls into ``nullcover``, so a
traced run never records a check as library work.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from math import comb, prod


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def canonical(obj: object) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


# ---------------------------------------------------------------------------
# covers


class Geometry:
    """Plain-integer view of a nullset spec and a slalom.  ``kept``, the
    spec's kept sets as frozensets, may be passed in to share them
    between the slaloms of one spec."""

    def __init__(self, spec, slalom, kept=None):
        plan = spec.plan
        self.mode = plan.mode
        self.cuts = tuple(plan.boundaries)
        self.depth = len(self.cuts) - 1
        self.p = plan.p
        self.orders = None if plan.orders is None else tuple(plan.orders)
        if self.mode == "padic":
            self.block_orders = tuple(self.p ** (b - a) for a, b in zip(self.cuts, self.cuts[1:]))
        else:
            self.block_orders = tuple(prod(self.orders[a:b]) for a, b in zip(self.cuts, self.cuts[1:]))
        self.kept = kept if kept is not None else [frozenset(k) for k in spec.kept]
        self.sets = tuple(tuple(s) for s in slalom.sets)
        self.total = prod(len(s) for s in self.sets)

    # mixed-radix residues of a product block, last coordinate fastest
    def residues(self, n: int, index: int) -> tuple[int, ...]:
        out = []
        for m in reversed(self.orders[self.cuts[n]:self.cuts[n + 1]]):
            index, r = divmod(index, m)
            out.append(r)
        return tuple(reversed(out))

    def index(self, n: int, residues) -> int:
        value = 0
        for r, m in zip(residues, self.orders[self.cuts[n]:self.cuts[n + 1]]):
            value = value * m + r
        return value

    def block_value(self, n: int, digits) -> int:
        return sum(d * self.p**k for k, d in enumerate(digits))

    def block_digits(self, n: int, value: int) -> tuple[int, ...]:
        out = []
        for _ in range(self.cuts[n + 1] - self.cuts[n]):
            value, d = divmod(value, self.p)
            out.append(d)
        return tuple(out)

    def shifted_blocks(self, element, translate) -> list[int]:
        """Block indices that must lie in the kept sets: element - translate
        per block in product mode (the element must lie in translate + A),
        element + offset with carries in p-adic mode."""
        if self.mode == "product":
            out = []
            for n, v in enumerate(element):
                ms = self.orders[self.cuts[n]:self.cuts[n + 1]]
                diff = tuple((a - b) % m for a, b, m in zip(self.residues(n, v), translate[n], ms))
                out.append(self.index(n, diff))
            return out
        modulus = self.p ** self.cuts[-1]
        x = sum(v * self.p ** self.cuts[n] for n, v in enumerate(element))
        t = sum(self.block_value(n, b) * self.p ** self.cuts[n] for n, b in enumerate(translate))
        s = (x + t) % modulus
        return [(s // self.p ** self.cuts[n]) % self.block_orders[n] for n in range(self.depth)]

    def escapes(self, element, translate) -> bool:
        return any(b not in self.kept[n] for n, b in enumerate(self.shifted_blocks(element, translate)))


def tamper(geo: Geometry, translate, position: str, choice: int):
    """Alter one block of an accepted translate so that verification must
    reject it, and predict the rejection.

    ``position`` is "early", "mid" or "late": where the least escaping
    element falls in enumeration order, with block 0 varying slowest.
    Early alters one of the last two blocks (``choice`` picks which, and
    the value), so the element is among the first few; late alters the
    first block with two slalom values, so the element falls half-way
    through; mid alters the block after that one.  The altered block
    sends slalom value S_n[j] outside the kept set, and is chosen
    among such alterations so that no earlier value of S_n escapes: the
    least escaping element then sits at a fixed rank.  Returns (translate,
    witness, checked_count).
    """
    sizes = [len(s) for s in geo.sets]
    late = next((n for n, k in enumerate(sizes) if k >= 2), 0)
    if position == "early":
        n = max(geo.depth - 1 - choice % 2, 0)
        j = choice % sizes[n]
    else:
        n = late if position == "late" else min(late + 1, geo.depth - 1)
        j = sizes[n] - 1
    order = geo.block_orders[n]
    outside = [t for t in range(order) if t not in geo.kept[n]]
    v = geo.sets[n][j]
    probe = [s[0] for s in geo.sets]   # the least escaping element keeps index 0 elsewhere
    if geo.mode == "product":
        ms = geo.orders[geo.cuts[n]:geo.cuts[n + 1]]
        candidates = [tuple((a - b) % m for a, b, m in zip(geo.residues(n, v), geo.residues(n, t), ms))
                      for t in outside]
    else:
        # S_n[j] lands on t without a carry into block n, or on t with one
        offsets = dict.fromkeys((t - v - carry) % order for t in outside for carry in (0, 1))
        candidates = [geo.block_digits(n, offset) for offset in offsets]
    best = None
    for block in candidates:
        blocks = translate[:n] + (block,) + translate[n + 1:]
        first = next((i for i, value in enumerate(geo.sets[n][: j + 1])
                      if geo.escapes(probe[:n] + [value] + probe[n + 1:], blocks)), None)
        if first is not None and (best is None or first > best[0]):
            best = (first, blocks)
        if first == j:
            break
    if best is None:
        raise ValueError(f"no alteration of block {n} rejects")
    first, blocks = best
    probe[n] = geo.sets[n][first]
    rank = first * prod(sizes[n + 1:])
    checked = geo.total if geo.mode == "product" else rank + 1
    return blocks, tuple(probe), checked


def cover_text(cert) -> str:
    return canonical({"translate": [list(b) for b in cert.translate],
                      "verified": cert.verified, "checked_count": cert.checked_count})


def verify_text(result) -> str:
    return canonical({
        "ok": result.ok,
        "witness": None if result.witness is None else list(result.witness),
        "checked_count": result.checked_count,
        "carry_cases": None if result.carry_cases is None else list(result.carry_cases),
    })


def check_certificate(geo: Geometry, cert) -> list[str]:
    problems = []
    if not cert.verified:
        problems.append("certificate not marked verified")
    if cert.checked_count != geo.total:
        problems.append(f"checked_count {cert.checked_count} != prod |S_n| = {geo.total}")
    if len(cert.translate) != geo.depth:
        problems.append(f"translate has {len(cert.translate)} blocks for depth {geo.depth}")
    return problems


def check_accept(geo: Geometry, result) -> list[str]:
    problems = []
    if not result.ok or result.witness is not None:
        problems.append(f"accepted certificate rejected, witness {result.witness}")
    if result.checked_count != geo.total:
        problems.append(f"checked_count {result.checked_count} != prod |S_n| = {geo.total}")
    problems += _check_carries(geo, result)
    return problems


def check_reject(geo: Geometry, translate, witness, checked, result) -> list[str]:
    problems = []
    if result.ok:
        return ["tampered certificate accepted"]
    if result.witness is None or tuple(result.witness) != witness:
        problems.append(f"witness {result.witness} != least escaping element {witness}")
    elif not geo.escapes(result.witness, translate):
        problems.append(f"witness {result.witness} does not escape under integer arithmetic")
    if result.checked_count != checked:
        problems.append(f"checked_count {result.checked_count} != {checked}")
    problems += _check_carries(geo, result)
    return problems


def _check_carries(geo: Geometry, result) -> list[str]:
    if geo.mode != "padic":
        return [] if result.carry_cases is None else ["product result reports carries"]
    if result.carry_cases is None or sum(result.carry_cases) != result.checked_count * geo.depth:
        return [f"carry split {result.carry_cases} does not sum to {result.checked_count} x {geo.depth}"]
    return []


# ---------------------------------------------------------------------------
# descriptors, read through class names and fields only


def shape(d) -> tuple:
    kind = type(d).__name__
    if kind in ("FiniteSum", "SumOmega", "ProdOmega"):
        return (kind, tuple(shape(p) for p in d.parts))
    if kind == "Cyclic":
        return (kind, d.order)
    if kind in ("Quasicyclic", "Padic"):
        return (kind, d.p)
    return (kind,)


def shape_of_json(obj: dict) -> tuple:
    kind = obj["type"]
    if "parts" in obj:
        return (kind, tuple(shape_of_json(p) for p in obj["parts"]))
    if kind == "Cyclic":
        return (kind, obj["m"])
    if kind in ("Quasicyclic", "Padic"):
        return (kind, obj["p"])
    return (kind,)


_DUAL = {"Int": "Torus", "Torus": "Int", "Quasicyclic": "Padic", "Padic": "Quasicyclic",
         "SumOmega": "ProdOmega", "ProdOmega": "SumOmega"}


def dual_shape(s: tuple) -> tuple:
    kind = _DUAL.get(s[0], s[0])
    if s[0] in ("FiniteSum", "SumOmega", "ProdOmega"):
        return (kind, tuple(dual_shape(p) for p in s[1]))
    return (kind,) + s[1:]


def is_discrete(s: tuple) -> bool:
    if s[0] == "FiniteSum":
        return all(is_discrete(p) for p in s[1])
    return s[0] in ("Int", "Cyclic", "Quasicyclic", "SumOmega")


def is_finite(s: tuple) -> bool:
    if s[0] == "FiniteSum":
        return all(is_finite(p) for p in s[1])
    return s[0] == "Cyclic"


def classify_shape(s: tuple):
    """(case, witness shape) of the trichotomy for a discrete infinite shape."""
    for case, kind in ((1, "Int"), (2, "SumOmega"), (3, "Quasicyclic")):
        found = _first(s, kind)
        if found is not None:
            return case, (found[1] if case == 3 else found)
    return None, None


def _first(s: tuple, kind: str):
    if s[0] == kind:
        return s
    if s[0] == "FiniteSum":
        for part in s[1]:
            found = _first(part, kind)
            if found is not None:
                return found
    return None


def expected_verdict(s: tuple) -> str:
    # in the enumerated palette every non-discrete descriptor is nice
    return "not-nice:discrete" if is_discrete(s) else "nice"


# ---------------------------------------------------------------------------
# closed forms for the numeric queries


def sup_exact(depth: int) -> Fraction:
    """sum_{n=2}^{N} (n-2)/n! over the common denominator N!."""
    full = 1
    for n in range(2, depth + 1):
        full *= n
    numerator, tail = 0, full
    for n in range(depth, 1, -1):
        numerator += (n - 2) * (full // tail)
        tail //= n
    return Fraction(numerator, full)


def bound_closed(n_blocks: int) -> Fraction:
    """prod_{n<N} (1 - 1/(2(n+3))) = C(2M, M) * 8 / (3 * 4^M) with M = N + 2."""
    m = n_blocks + 2
    return Fraction(comb(2 * m, m) * 8, 3 * 4**m)


def kept_fraction(order: int, level: int) -> Fraction:
    hi = order - -(-order // (2 * (level + 3)))
    return Fraction(hi, order)
