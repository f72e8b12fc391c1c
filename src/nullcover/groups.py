"""The index codecs of finite abelian groups and of p-adic digit blocks
(element to enumeration index and back; the library does its group
arithmetic on indices), and primality.  A digit block is keyed by
``(p, length)`` alone: it is the cyclic group Z_{p^length}, one
coordinate; the truncated p-adic integers of length L are the block of
all L digits.

Elements are plain tuples of small nonnegative ints: residue vectors for
finite groups, digit vectors (least significant digit first) for p-adic
numbers and blocks.  Every operation is a pure function of immutable
values, so everything here can be shared freely between threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import prod

from .errors import CapExceeded, DimensionMismatch, PreconditionViolated, _count_text

# Residue vector of a finite abelian group element.
GroupElement = tuple[int, ...]
# p-adic / block digit vector, least significant digit first.
DigitVector = tuple[int, ...]

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

# psi_13, the least odd composite that is a strong probable prime to all
# thirteen bases above: the test is exact exactly below it
PRIME_TEST_LIMIT = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic primality test (Miller-Rabin to the prime bases 2..41).

    Exact for every n < psi_13 = 3317044064679887385961981 (about
    3.3 * 10^24).  A larger n with none of the bases as a factor raises
    :class:`CapExceeded` before any modular power.
    """
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    if n >= PRIME_TEST_LIMIT:
        raise CapExceeded(
            f"a {n.bit_length()}-bit number is past the exact range of the primality test (below {PRIME_TEST_LIMIT})"
        )
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _SMALL_PRIMES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class FiniteAbelianGroup:
    """Direct product of cyclic groups Z_{m_0} x ... x Z_{m_k-1}.

    ``orders`` may be an invariant-factor list or any plain direct-product
    presentation; coordinates are kept as given.  The canonical element
    order is lexicographic on residue vectors with the last coordinate
    fastest, so the position of an element equals its mixed-radix value:

        FiniteAbelianGroup((2, 3)).index_of((1, 2)) == 5
    """

    orders: tuple[int, ...]

    def __post_init__(self) -> None:
        if any(not isinstance(m, int) or m < 2 for m in self.orders):
            raise PreconditionViolated(f"cyclic orders must be ints >= 2: {self.orders}")

    @cached_property
    def order(self) -> int:
        return prod(self.orders)

    @cached_property
    def weights(self) -> tuple[int, ...]:
        """The index weight of each coordinate, the product of the orders
        after it: index_of(a) is the sum of a_i * weights[i]."""
        weights = [1] * len(self.orders)
        for i in range(len(self.orders) - 1, 0, -1):
            weights[i - 1] = weights[i] * self.orders[i]
        return tuple(weights)

    def element_at(self, index: int) -> GroupElement:
        if not 0 <= index < self.order:
            raise PreconditionViolated(
                f"index {_count_text(index)} out of range for group of order {_count_text(self.order)}"
            )
        residues = []
        for m in reversed(self.orders):
            index, r = divmod(index, m)
            residues.append(r)
        return tuple(reversed(residues))

    def index_of(self, a: GroupElement) -> int:
        # one pass: each residue is range-checked as it enters the
        # mixed-radix value
        if len(a) != len(self.orders):
            raise DimensionMismatch(f"element of length {len(a)} in group of rank {len(self.orders)}")
        index = 0
        for r, m in zip(a, self.orders):
            if not 0 <= r < m:
                raise PreconditionViolated(f"residues {a} out of range for orders {self.orders}")
            index = index * m + r
        return index


@dataclass(frozen=True)
class BlockGroup:
    """The digit codec of a p-adic block: ``length`` base-p digits, least
    significant first, read as their value, an element of the integers
    mod p^length.  The block's group law is addition of values mod
    p^length (carried digit addition with the final carry forgotten), so
    as a group it is one coordinate of radix its order, and the cover and
    the verifier work on values alone; digits appear only in
    certificates.
    """

    p: int
    length: int

    def __post_init__(self) -> None:
        if not is_prime(self.p):
            raise PreconditionViolated(f"p = {self.p} is not prime")
        if self.length < 1:
            raise PreconditionViolated(f"a digit block needs length >= 1, got {self.length}")

    @cached_property
    def order(self) -> int:
        return self.p**self.length

    @cached_property
    def orders(self) -> tuple[int]:
        return (self.order,)

    weights = (1,)

    def element_at(self, index: int) -> DigitVector:
        if not 0 <= index < self.order:
            raise PreconditionViolated(
                f"value {_count_text(index)} out of range for block of order {_count_text(self.order)}"
            )
        digits = []
        for _ in range(self.length):
            index, d = divmod(index, self.p)
            digits.append(d)
        return tuple(digits)

    def index_of(self, x: DigitVector) -> int:
        # one Horner pass from the most significant digit, each digit
        # range-checked on the way
        if len(x) != self.length:
            raise DimensionMismatch(f"digit vector of length {len(x)}, block expects {self.length}")
        p = self.p
        index = 0
        for d in reversed(x):
            if not 0 <= d < p:
                raise PreconditionViolated(f"digits {x} out of range for p = {p}")
            index = index * p + d
        return index


class PadicContext(BlockGroup):
    """Truncated p-adic integers: the block of all ``length`` base-p
    digits, the codec of the integers mod p^length.  The name is kept
    because the benchmark constructs it.
    """
