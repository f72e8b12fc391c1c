"""The classical factorial-base compact nullset on [0, 1): reals whose
factorial-base digits d_n (n >= 2) all satisfy d_n <= n-2.

Everything is exact rational arithmetic.  A real in [0, 1) has one
factorial-base expansion unless it terminates, in which case it has
exactly two: the terminating one and the alternate whose last nonzero
digit is decremented and every later digit is maximal (n-1).  The
alternate's maximal tail always breaks the digit bound, so membership at
finite depth reads the greedy expansion alone and reports a tri-state
verdict rather than guessing about digits beyond the truncation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import NUMERIC_DEPTH_CAP, CapExceeded, PreconditionViolated, SchemaError, _as_int

# how the explicit digits continue beyond the truncation depth
TAIL_ZERO = "zero"        # all further digits are 0 (expansion terminated)
TAIL_MAX = "max"          # all further digits are n-1 (alternate form)
TAIL_UNKNOWN = "unknown"  # expansion still had a remainder at the truncation


@dataclass(frozen=True)
class FactorialDigits:
    """Digits d_2 .. d_N of a factorial-base expansion, plus what is known
    about the digits beyond N."""

    digits: tuple[int, ...]
    tail: str = TAIL_UNKNOWN

    def __post_init__(self) -> None:
        for n, d in enumerate(self.digits, start=2):
            if not 0 <= d <= n - 1:
                raise PreconditionViolated(f"digit d_{n} = {d} outside [0, {n - 1}]")
        if self.tail not in (TAIL_ZERO, TAIL_MAX, TAIL_UNKNOWN):
            raise PreconditionViolated(f"unknown tail kind {self.tail!r}")

    def value(self) -> Fraction:
        """Exact value of the explicit digits (the tail contributes 0)."""
        total = Fraction(0)
        factorial = 1
        for n, d in enumerate(self.digits, start=2):
            factorial *= n
            total += Fraction(d, factorial)
        return total

    def admissible_prefix(self) -> bool:
        """True when every explicit digit satisfies d_n <= n-2."""
        return all(d <= n - 2 for n, d in enumerate(self.digits, start=2))


def factorial_expand(q: Fraction, depth: int) -> tuple[FactorialDigits, FactorialDigits | None]:
    """Greedy factorial-base expansion of q in [0, 1) down to d_depth.

    Returns the greedy expansion and, when it terminates exactly within
    the depth, also the alternate expansion (last nonzero digit
    decremented, all later digits maximal).  Zero has no alternate.
    Depths above ``NUMERIC_DEPTH_CAP`` raise :class:`CapExceeded` before
    any digit is computed.
    """
    if not 0 <= q < 1:
        raise PreconditionViolated("value outside [0, 1)")
    if depth < 2:
        raise PreconditionViolated(f"depth must be >= 2, got {depth}")
    if depth > NUMERIC_DEPTH_CAP:
        raise CapExceeded(f"depth {depth} exceeds the numeric depth cap {NUMERIC_DEPTH_CAP}")
    q = Fraction(q)
    # the remainder is kept as a numerator over q's denominator, so each
    # digit is one integer divmod
    den = q.denominator
    remainder = q.numerator
    digits = []
    for n in range(2, depth + 1):
        d, remainder = divmod(remainder * n, den)
        digits.append(d)
    greedy = FactorialDigits(
        digits=tuple(digits), tail=TAIL_ZERO if remainder == 0 else TAIL_UNKNOWN
    )
    if remainder != 0 or q == 0:
        return greedy, None
    last = max(n for n, d in enumerate(greedy.digits, start=2) if d != 0)
    alternate = tuple(
        d - 1 if n == last else (n - 1 if n > last else d)
        for n, d in enumerate(greedy.digits, start=2)
    )
    return greedy, FactorialDigits(digits=alternate, tail=TAIL_MAX)


def ek_membership(q: Fraction, depth: int) -> str:
    """Tri-state membership of q in the nullset, judged from digits up to
    the given depth: "in", "out", or "undetermined".

    Only the greedy expansion is read: "out" when some digit is maximal
    (d_n = n-1), else "in" when the expansion terminated, else
    "undetermined".  The alternate expansion of a terminating value ends
    in maximal digits, so it can neither witness "in" nor save q from
    "out".  Verdicts only refine as the depth grows, they never flip.
    The expansion is capped as in :func:`factorial_expand`.
    """
    greedy, _ = factorial_expand(q, depth)
    if not greedy.admissible_prefix():
        return "out"
    return "in" if greedy.tail == TAIL_ZERO else "undetermined"


def ek_outer_measure(depth: int) -> Fraction:
    """Total length of the depth-N cylinder cover: the product of the
    admissible-digit fractions (n-1)/n for n = 2..N, which telescopes
    to 1/N."""
    if depth < 2:
        raise PreconditionViolated(f"depth must be >= 2, got {depth}")
    return Fraction(1, depth)


def ek_sup(depth: int) -> Fraction:
    """Largest value with all digits maximal admissible, sum of (n-2)/n!
    for n = 2..N; increases to 3 - e.

    Horner over the common denominator N!: the partial sum is a / n!
    with a advancing as a * n + (n - 2), so only the result is reduced.
    """
    if depth < 2:
        raise PreconditionViolated(f"depth must be >= 2, got {depth}")
    if depth > NUMERIC_DEPTH_CAP:
        raise CapExceeded(f"depth {depth} exceeds the numeric depth cap {NUMERIC_DEPTH_CAP}")
    a, factorial = 0, 1
    for n in range(2, depth + 1):
        a = a * n + n - 2
        factorial *= n
    return Fraction(a, factorial)


def rational_from_json(obj: object) -> Fraction:
    if not isinstance(obj, dict) or "num" not in obj or "den" not in obj:
        raise SchemaError("rational must be an object with 'num' and 'den'")
    num = _as_int(obj["num"], "rational num")
    den = _as_int(obj["den"], "rational den")
    if den <= 0:
        raise SchemaError(f"rational denominator must be positive, got {den}")
    return Fraction(num, den)
