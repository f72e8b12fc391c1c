"""Covering compact nullsets by translates, at finite truncation depth.

The pipeline is: partition coordinates into blocks whose group order
outgrows 2(n+3) (:func:`plan_blocks_product` / :func:`plan_blocks_padic`),
keep a large subset of each block group (:func:`build_nullset`, which
holds each kept prefix as a ``range``, so it runs in O(depth) and only
:meth:`NullsetSpec.to_json` writes the indices out), and for any slalom
of the right width compute one translate that absorbs it
(:func:`cover_product_slalom` / :func:`cover_padic_slalom`).  Both modes
run one cover body; the per-mode part is the closure of each slalom set
into targets (p-adic targets also take the value plus an incoming
carry) and the sign of the translate block.  Every certificate is
re-checked by :func:`verify_cover`, which is deliberately independent
of how the translate was found: an exact decision over all prod |S_n|
slalom elements that visits neither the elements nor the slalom values
one by one.  Both modes read the kept set through its gaps
(:attr:`NullsetSpec.gaps`, built once per spec; every nullset that
:func:`build_nullset` makes has one gap per block) and bisect the sorted
slalom sets (which :class:`Slalom` enforces) once per interval of
values that lands in a gap.  Product mode splits each gap of a block
of k coordinates into at most 2k - 1 cylinders (:func:`_gap_cylinders`,
the one carry-free layer), each one or two intervals of values, so it
costs O(sum gaps_n * k_n * log |S_n|).  p-adic mode is a two-state carry
transducer: one backward pass over all blocks, from the last, where per
block one bisection finds where carrying out starts and one per gap
finds the first value in a gap, each for both incoming carries at once,
O(sum gaps_n * log |S_n|).  The check decides all prod |S_n| elements
at that cost, so no cap bounds the element count; the slalom's values,
sum |S_n|, are bounded.  The translator search works on enumeration
indices too.  A kept set of several gaps takes one sweep, which reads
the one or two forbidden intervals of each target and cylinder of a
gap, at most |targets| * gaps * (4k - 2), sorted; a block of one
coordinate is its case k = 1.  A kept set of one gap is
probed: from g = 0 the probe jumps past the run of translators that the
highest target in a window of g forbids, so it skips only forbidden
indices.  Each jump ends one of the sweep's intervals and costs one or
two bisections per cylinder of the gap; a block of one coordinate has
one cylinder and at most 2 |targets| jumps.  No bound grows with the
block order, so no cap bounds it.  Group elements appear only as the
translate blocks of a certificate: the cover body encodes them and the
check decodes each block once, in one pass that range-checks every
digit.

The tables that depend on the plan, the spec or the slalom alone, never
on a translate, are built once, on first use.  Each plan holds its block
orders and its block groups (:attr:`BlockPlan.block_groups`, one tuple
that every reader zips with its per-block data).  Each spec holds its
gaps and the gaps' cylinders (:attr:`NullsetSpec.gaps`,
:attr:`NullsetSpec.cylinders`), which the check reads.  Each slalom
holds its least value, the last value of each set and its value and
element counts, so its domain check against a plan is one comparison
per block.  So checking one more translate on the same spec and slalom
runs only flat per-block passes: decode the blocks, bisect the slalom
sets, and in p-adic mode one backward pass over all blocks, in one
call, that keeps one flat row per block, and one forward pass over the
rows.  The translator search gets no spec: a range kept set, as
:func:`build_nullset` makes, gives its gaps from its ends, any other is
bisected into gaps, and in a block of several coordinates their
cylinders are built on every call, by the sweep and by the probe alike.
Targets that arrive as a sorted, duplicate-free tuple, as a product
cover's slalom sets do, are searched as given.

All integers are exact; caps abort rather than degrade to sampling.
"""

from __future__ import annotations

import itertools
import random
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import comb, floor, pi, prod
from operator import eq, lt
from typing import Callable, Iterable, Optional, Sequence, Union

from .errors import (
    DEFAULT_ENUM_CAP,
    DEFAULT_VERIFY_CAP,
    NUMERIC_DEPTH_CAP,
    CapExceeded,
    NoTranslator,
    PreconditionViolated,
    SchemaError,
    VerificationFailed,
    _as_int,
    _count_text,
    _refuse_unknown_keys,
)
from .groups import BlockGroup, FiniteAbelianGroup, is_prime

# Width functions admitted by slaloms.  The names are the formulas.
WIDTHS: dict[str, Callable[[int], int]] = {
    "n+2": lambda n: n + 2,
    "(n+2)//2": lambda n: (n + 2) // 2,
}

WidthSpec = Union[str, tuple[int, ...]]


def width_fn(width: WidthSpec) -> Callable[[int], int]:
    if isinstance(width, str):
        try:
            return WIDTHS[width]
        except KeyError:
            raise SchemaError(f"unknown width tag {width!r}; expected one of {sorted(WIDTHS)} or a table") from None
    table = tuple(width)
    if not all(isinstance(w, int) and not isinstance(w, bool) and w >= 1 for w in table):
        raise SchemaError(f"width table must contain positive ints: {table}")

    def f(n: int) -> int:
        if n >= len(table):
            raise PreconditionViolated(f"width table of length {len(table)} has no entry for block {n}")
        return table[n]

    return f


def _grow(n: int) -> int:
    # per-block size threshold: each block group must have order > 2(n+3)
    return 2 * (n + 3)


@dataclass(frozen=True)
class BlockPlan:
    """How the coordinate axis is cut into consecutive blocks.

    ``boundaries`` is the cut sequence 0 = c_0 < c_1 < ... < c_D; block n
    covers coordinates [c_n, c_n+1).  Product mode records the cyclic
    orders of the consumed coordinates; p-adic mode records the prime and
    the cuts are digit positions, so its radices are (p, p, ...).  The
    bits of a block's radices may number at most ``NUMERIC_DEPTH_CAP``:
    the sum of ``bit_length()`` over a product block's coordinate orders,
    len * p.bit_length() for a p-adic block of len digits.  The bound is
    judged before any block order is computed.

    The block orders and the block groups are built once per plan, on
    first use.
    """

    mode: str
    boundaries: tuple[int, ...]
    orders: Optional[tuple[int, ...]] = None
    p: Optional[int] = None

    def __post_init__(self) -> None:
        if self.mode not in ("product", "padic"):
            raise SchemaError(f"unknown plan mode {self.mode!r}")
        cuts = self.boundaries
        if len(cuts) < 2 or cuts[0] != 0 or any(a >= b for a, b in zip(cuts, cuts[1:])):
            raise PreconditionViolated(f"boundaries must strictly increase from 0: {cuts}")
        if self.mode == "product":
            if self.orders is None or self.p is not None:
                raise SchemaError("product plans carry orders and no prime")
            if len(self.orders) != cuts[-1]:
                raise PreconditionViolated(
                    f"{len(self.orders)} coordinate orders for boundary range {cuts[-1]}"
                )
            if any(m < 2 for m in self.orders):
                raise PreconditionViolated("coordinate orders must be >= 2")
            bits = (sum(map(int.bit_length, self.orders[a:b])) for a, b in zip(cuts, cuts[1:]))
        else:
            if self.p is None or self.orders is not None:
                raise SchemaError("padic plans carry a prime and no orders")
            if not is_prime(self.p):
                raise PreconditionViolated(f"p = {self.p} is not prime")
            bits = ((b - a) * self.p.bit_length() for a, b in zip(cuts, cuts[1:]))
        for n, count in enumerate(bits):
            if count > NUMERIC_DEPTH_CAP:
                raise CapExceeded(f"block {n} has {count} bits of radices, past the {NUMERIC_DEPTH_CAP}-bit block cap")
        for n, size in enumerate(self.block_orders):
            if size <= _grow(n):
                raise PreconditionViolated(f"block {n} has order {size} <= {_grow(n)}")

    @property
    def depth(self) -> int:
        return len(self.boundaries) - 1

    @cached_property
    def block_orders(self) -> tuple[int, ...]:
        if self.mode == "product":
            return tuple(
                prod(self.orders[a:b]) for a, b in zip(self.boundaries, self.boundaries[1:])
            )
        return tuple(self.p ** (b - a) for a, b in zip(self.boundaries, self.boundaries[1:]))

    @cached_property
    def block_groups(self) -> tuple:
        """The group structure of each block: a residue-vector group in
        product mode, the digit codec of Z_{p^len} in p-adic mode."""
        cuts = zip(self.boundaries, self.boundaries[1:])
        if self.mode == "product":
            return tuple(FiniteAbelianGroup(self.orders[a:b]) for a, b in cuts)
        return tuple(BlockGroup(self.p, b - a) for a, b in cuts)

    def to_json(self) -> dict:
        obj = {"mode": self.mode, "boundaries": list(self.boundaries), "block_orders": list(self.block_orders)}
        if self.mode == "product":
            obj["orders"] = list(self.orders)
        else:
            obj["p"] = self.p
        return obj

    @classmethod
    def from_json(cls, obj: object) -> "BlockPlan":
        if not isinstance(obj, dict):
            raise SchemaError("plan must be a JSON object")
        _refuse_unknown_keys(obj, ("mode", "boundaries", "orders", "p", "block_orders"), "plan")
        try:
            mode = obj["mode"]
            boundaries = _int_array(obj["boundaries"], "boundary", "plan boundaries")
        except KeyError as missing:
            raise SchemaError(f"plan is missing field {missing}") from None
        if "orders" in obj and "p" in obj:
            raise SchemaError("plans carry 'orders' (product) or 'p' (padic), not both")
        orders = None
        p = None
        if mode == "product":
            if "orders" not in obj:
                raise SchemaError("product plan is missing 'orders'")
            orders = _int_array(obj["orders"], "order", "plan orders")
        elif mode == "padic":
            if "p" not in obj:
                raise SchemaError("padic plan is missing 'p'")
            p = _as_int(obj["p"], "p")
        plan = cls(mode=mode, boundaries=boundaries, orders=orders, p=p)
        if "block_orders" in obj:
            given = _int_array(obj["block_orders"], "block order", "plan block_orders")
            if given != plan.block_orders:
                raise SchemaError("block_orders do not match the plan")
        return plan


@dataclass(frozen=True)
class NullsetSpec:
    """A finite-depth description of the compact nullset: the block plan
    plus, for every block, the sorted enumeration indices of the kept set.

    The size of each kept set must land in the window
    ceil((1 - 1/(n+3)) * order) .. floor((1 - 1/(2(n+3))) * order),
    which is what makes translates exist while the measure still decays.

    Each kept set is held in one canonical form: a step-1 ``range`` when
    its indices form one contiguous run, as every set that
    :func:`build_nullset` keeps does, else a tuple.  A range is checked
    in O(1), since it is sorted and duplicate-free by construction; a
    tuple costs one linear pass.  So built, parsed and hand-built specs
    compare and hash equal, and only :meth:`to_json` writes the indices
    out one by one.
    """

    plan: BlockPlan
    kept: tuple[Union[range, tuple[int, ...]], ...]

    def __post_init__(self) -> None:
        if len(self.kept) != self.plan.depth:
            raise PreconditionViolated(
                f"{len(self.kept)} kept sets for a plan of depth {self.plan.depth}"
            )
        kept = []
        for n, (indices, size) in enumerate(zip(self.kept, self.plan.block_orders)):
            indices = _canonical_kept(n, indices)
            if indices and not (0 <= indices[0] and indices[-1] < size):
                raise PreconditionViolated(f"kept set for block {n} has indices outside [0, {_count_text(size)})")
            lo, hi = kept_window(size, n)
            if not lo <= len(indices) <= hi:
                raise PreconditionViolated(
                    f"kept set for block {n} has size {len(indices)},"
                    f" outside window [{_count_text(lo)}, {_count_text(hi)}]"
                )
            kept.append(indices)
        object.__setattr__(self, "kept", tuple(kept))

    @property
    def depth(self) -> int:
        return len(self.kept)

    @cached_property
    def gaps(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Per block, the complement of the kept set as half-open
        intervals in increasing order; built once per spec, on first use."""
        return tuple(tuple(_gaps(kept, order)) for kept, order in zip(self.kept, self.plan.block_orders))

    @cached_property
    def cylinders(self) -> tuple:
        """Per block of several coordinates, the two chains of cylinders
        (:func:`_gap_cylinders`) of each gap; ``None`` for a block of one
        coordinate.  Built once per spec, on first use."""
        return tuple(
            None if len(group.orders) < 2
            else tuple(_gap_cylinders(a, b, group.orders, group.weights) for a, b in gaps)
            for group, gaps in zip(self.plan.block_groups, self.gaps)
        )

    def to_json(self) -> dict:
        return {"plan": self.plan.to_json(), "A": [list(ind) for ind in self.kept]}

    @classmethod
    def from_json(cls, obj: object) -> "NullsetSpec":
        if not isinstance(obj, dict) or "plan" not in obj or "A" not in obj:
            raise SchemaError("nullset spec must be an object with 'plan' and 'A'")
        _refuse_unknown_keys(obj, ("plan", "A"), "nullset spec")
        plan = BlockPlan.from_json(obj["plan"])
        if not isinstance(obj["A"], list):
            raise SchemaError("'A' must be an array of arrays of indices")
        kept = tuple(_int_array(block, "kept index", "a kept set") for block in obj["A"])
        return cls(plan=plan, kept=kept)


def _canonical_kept(n: int, indices: Sequence[int]) -> Union[range, tuple[int, ...]]:
    """Kept set n in its canonical form: a step-1 range as it is, a
    contiguous run of indices as that range, anything else as a tuple
    that must be sorted and duplicate-free."""
    if isinstance(indices, range) and indices.step == 1:
        return indices
    indices = tuple(indices)
    if indices and isinstance(indices[0], int):
        run = range(indices[0], indices[0] + len(indices))
        if all(map(eq, indices, run)):
            return run
    if not _strictly_increasing(indices):
        raise PreconditionViolated(f"kept set for block {n} must be sorted and duplicate-free")
    return indices


def _strictly_increasing(values: Sequence[int]) -> bool:
    """Sorted and duplicate-free, in one linear pass: each value below
    the next."""
    return all(map(lt, values, itertools.islice(values, 1, None)))


def _int_array(value: object, item: str, field: str) -> tuple[int, ...]:
    """A JSON array of integers read by the strict parser; any other
    shape, a string of digits included, is a :class:`SchemaError`.  An
    array of plain ints, as JSON gives, is read by one pass over the
    types; any other item, a bool included, goes through ``_as_int``."""
    if not isinstance(value, list):
        raise SchemaError(f"{field} must be an array of integers")
    if set(map(type, value)) <= {int}:
        return tuple(value)
    return tuple(_as_int(v, item) for v in value)


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def kept_window(size: int, n: int) -> tuple[int, int]:
    """Admissible kept-set sizes for a block of the given order at level n."""
    lo = _ceil_div(size * (n + 2), n + 3)     # ceil((1 - 1/(n+3)) * size)
    hi = size - _ceil_div(size, 2 * (n + 3))  # floor((1 - 1/(2(n+3))) * size)
    return lo, hi


@dataclass(frozen=True)
class Slalom:
    """Per-block finite sets of enumeration indices, with |sets[n]| bounded
    by the width function.

    Each set is nonempty, sorted and duplicate-free.  The facts that
    depend on the sets alone are computed once, on first use: the least
    value, the last value of each set, and the value and element counts.
    They hold no plan, so one slalom may be checked against any plan.
    """

    width: WidthSpec
    sets: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        f = width_fn(self.width)
        for n, s in enumerate(self.sets):
            if not s:
                raise PreconditionViolated(f"slalom set {n} is empty")
            if not _strictly_increasing(s):
                raise PreconditionViolated(f"slalom set {n} must be sorted and duplicate-free")
            if len(s) > f(n):
                raise PreconditionViolated(f"slalom set {n} has {len(s)} values, width allows {f(n)}")

    @property
    def depth(self) -> int:
        return len(self.sets)

    @cached_property
    def least_value(self) -> int:
        """The least value of any set; 0 for a slalom of depth 0."""
        return min((s[0] for s in self.sets), default=0)

    @cached_property
    def last_values(self) -> tuple[int, ...]:
        """The greatest value of each set."""
        return tuple(s[-1] for s in self.sets)

    @cached_property
    def value_count(self) -> int:
        """sum |S_n|: the values that bound a check's work."""
        return sum(map(len, self.sets))

    @cached_property
    def element_count(self) -> int:
        """prod |S_n|: the slalom elements that a check decides."""
        return prod(map(len, self.sets))

    def check_domains(self, plan: BlockPlan) -> None:
        if self.depth != plan.depth:
            raise PreconditionViolated(f"slalom depth {self.depth} != plan depth {plan.depth}")
        if self.least_value >= 0 and all(map(lt, self.last_values, plan.block_orders)):
            return
        for n, (s, size) in enumerate(zip(self.sets, plan.block_orders)):
            if s[0] < 0 or s[-1] >= size:
                raise PreconditionViolated(f"slalom set {n} leaves the block domain [0, {_count_text(size)})")

    def to_json(self) -> dict:
        width = self.width if isinstance(self.width, str) else list(self.width)
        return {"width": width, "sets": [list(s) for s in self.sets]}

    @classmethod
    def from_json(cls, obj: object) -> "Slalom":
        if not isinstance(obj, dict) or "width" not in obj or "sets" not in obj:
            raise SchemaError("slalom must be an object with 'width' and 'sets'")
        _refuse_unknown_keys(obj, ("width", "sets"), "slalom")
        width = obj["width"]
        if isinstance(width, list):
            width = tuple(_as_int(w, "width entry") for w in width)
        elif not isinstance(width, str):
            raise SchemaError("'width' must be a tag string or an array")
        if not isinstance(obj["sets"], list):
            raise SchemaError("'sets' must be an array of arrays")
        sets = tuple(_int_array(s, "slalom value", "a slalom set") for s in obj["sets"])
        return cls(width=width, sets=sets)


@dataclass(frozen=True)
class CoverCertificate:
    """One translate plus the verification record."""

    translate: tuple[tuple[int, ...], ...]   # per-block residue/digit vectors
    verified: bool
    checked_count: int

    def to_json(self) -> dict:
        flat = [d for block in self.translate for d in block]
        return {"translate": flat, "verified": self.verified, "checked_count": self.checked_count}

    @classmethod
    def from_json(cls, plan: BlockPlan, obj: object) -> "CoverCertificate":
        fields = ("translate", "verified", "checked_count")
        if not isinstance(obj, dict):
            raise SchemaError("certificate must be an object")
        _refuse_unknown_keys(obj, fields, "certificate")
        for key in fields:
            if key not in obj:
                raise SchemaError(f"certificate is missing field {key!r}")
        flat = _int_array(obj["translate"], "translate digit", "the translate")
        if len(flat) != plan.boundaries[-1]:
            raise SchemaError(
                f"translate has {len(flat)} coordinates, plan covers {plan.boundaries[-1]}"
            )
        blocks = tuple(
            tuple(flat[a:b]) for a, b in zip(plan.boundaries, plan.boundaries[1:])
        )
        verified = obj["verified"]
        if not isinstance(verified, bool):
            raise SchemaError("'verified' must be a boolean")
        return cls(translate=blocks, verified=verified, checked_count=_as_int(obj["checked_count"], "checked_count"))


@dataclass(frozen=True)
class VerifyResult:
    """Outcome of an exact cover check."""

    ok: bool
    witness: Optional[tuple[int, ...]]      # lexicographically least failing element, by block index
    checked_count: int
    carry_cases: Optional[tuple[int, int]] = None  # (no carry into block, carry into block)

    def to_json(self) -> dict:
        obj = {
            "ok": self.ok,
            "witness": None if self.witness is None else list(self.witness),
            "checked_count": self.checked_count,
        }
        if self.carry_cases is not None:
            obj["carry_cases"] = list(self.carry_cases)
        return obj


def find_translator(group, kept: Sequence[int], targets: Iterable[int], n: int) -> int:
    """Least index g with every target in g + kept, all in enumeration
    indices of ``group``; ``kept`` is sorted and duplicate-free, as in
    :attr:`NullsetSpec.kept`.  ``targets`` may be any iterable: a tuple
    that already strictly increases, as a :class:`Slalom` set does, is
    searched as given, and any other is sorted and its repeats dropped
    first.  Only the lower end of :func:`kept_window` bounds ``kept``.

    Rather than trying every g, compute the set of g that fail: g fails
    iff some target equals g + c with c outside the kept set, i.e. iff
    g lies in targets - (complement of kept).  That set has at most
    |targets| * |complement| < |G| members under the preconditions
    |kept| >= ceil((1 - 1/(n+3)) |G|) and |targets| <= n+2, so the first
    index outside it exists and is returned.  The complement is read off
    the gaps of ``kept``, and no group element is ever built.  Index
    subtraction is carry-free in the mixed radix of the block's k
    coordinates (``group.orders``, last fastest); a block of one
    coordinate is the case k = 1, where it is subtraction mod the order.

    The gaps alone pick the search; a step-1 range kept set gives its
    gaps from its two ends.  A kept set with no gap admits g = 0.  A
    kept set of several gaps takes one sweep: each gap is split into at
    most 2k - 1 cylinders, as the product check splits it
    (:func:`_gap_cylinders`), each target and cylinder forbid one or two
    index intervals, and one pass over these |targets| * gaps * (4k - 2)
    intervals at most, sorted, stops at the first free index.  A kept
    set of one gap [a, b) is probed: g is forbidden iff a target lies in
    the window g + C of a cylinder C of the gap, and the probe jumps up
    from 0 past the run of translators that the highest such target
    forbids.  Each jump ends one of the sweep's intervals, so it makes
    at most |targets| * (4k - 2) jumps, one or two bisections per
    cylinder each.  In a block of one coordinate the gap is its one
    cylinder, g + [a, b), and :func:`_cyclic_translator` probes it.  No
    search's work grows with the order of ``group``, so no cap bounds
    the block order.
    """
    if n < 0:
        raise PreconditionViolated(f"level must be >= 0, got {n}")
    # only a tuple is tested, on a slice, which costs less than the islice
    # of _strictly_increasing on a level's few targets: a slalom set is a
    # sorted tuple, while the p-adic closure is a list that the test would
    # scan halfway before failing
    if not (isinstance(targets, tuple) and all(map(lt, targets, targets[1:]))):
        targets = sorted(set(targets))
    order = group.order
    size = len(kept)
    # size >= kept_window(order, n)[0] = ceil(order * (n + 2) / (n + 3)),
    # cross-multiplied; the bound itself is computed only for the message
    if size * (n + 3) < order * (n + 2):
        raise PreconditionViolated(
            f"kept set has {size} of {_count_text(order)} elements,"
            f" level {n} requires >= {_count_text(_ceil_div(order * (n + 2), n + 3))}"
        )
    count = len(targets)
    if count > n + 2:
        raise PreconditionViolated(f"{count} targets exceed the level-{n} limit {n + 2}")
    if kept[0] < 0 or kept[-1] >= order or (count and (targets[0] < 0 or targets[-1] >= order)):
        raise PreconditionViolated(f"kept or target indices outside [0, {_count_text(order)})")
    missing = order - size
    # counting bound behind the whole construction
    assert count * missing < order
    if not missing:   # nothing is missing, so every g works
        return 0
    gaps = _gaps(kept, order)
    radices = group.orders
    if len(gaps) > 1:
        g = _product_translator(targets, gaps, radices, group.weights)
    elif len(radices) > 1:
        g = _probed_translator(targets, gaps[0], radices, group.weights)
    else:
        g = _cyclic_translator(targets, gaps[0], order)
    if g >= order:
        raise NoTranslator(f"forbidden set exhausted a group of order {_count_text(order)}")
    return g


def _cyclic_translator(targets: Sequence[int], gap: tuple[int, int], order: int) -> int:
    """Least g in [0, order) outside targets - [a, b) mod order for the
    one gap [a, b) of a cyclic block, or the order when they forbid
    every g: a probe that jumps up from 0.

    g is forbidden iff a target lies in the window g + [a, b) mod order,
    read in [0, 2 * order) against the targets and their copies one
    order up.  The highest such target s forbids every g' from g to
    s - a, so the probe jumps to s - a + 1 and never skips a free index;
    it stops at the first g whose window is empty, or once g reaches the
    order.  Each jump ends past a target or its copy, so it makes at
    most 2 |targets| jumps, one bisection each."""
    a, b = gap
    g = 0
    while True:
        end = g + b
        if end > order:
            # the window wraps: a target below end - order counts one order
            # up, above every target in the window's part below the order
            i = bisect_left(targets, end - order)
            s = targets[i - 1] + order if i else (targets[-1] if targets else -1)
        else:
            i = bisect_left(targets, end)
            s = targets[i - 1] if i else -1
        if s < g + a:
            return g
        g = s - a + 1
        if g >= order:
            return order


def _probed_translator(targets: Sequence[int], gap: tuple[int, int], radices: Sequence[int],
                       weights: Sequence[int]) -> int:
    """Least g outside targets - [a, b) for the one gap [a, b) of a block
    of several coordinates, or the order when they forbid every g: a
    probe that jumps up from 0, as :func:`_cyclic_translator` does for
    one coordinate.

    g is forbidden iff a target lies in the window g + C (carry-free)
    of some cylinder C of the gap (:func:`_gap_cylinders`): the fixed
    digits (d_j + g_j) mod m_j before C's level i, and digit i in
    [g_i + lo, g_i + hi), read in [0, 2 m_i), where a digit past m_i
    wraps and counts one radix up.  One or two bisections give the
    highest target s in the window, its digit i s_i read so; s forbids
    every g' with g's digits before i, digit i from g_i to
    min(s_i - lo, m_i - 1) and any later digits.  So the probe jumps to
    the largest end of these runs over the cylinders and never skips a
    free index.  Each jump ends one of the at most |targets| * (4k - 2)
    index intervals that the targets and the cylinders forbid."""
    order = radices[0] * weights[0]
    chains = _gap_cylinders(*gap, radices, weights)
    g = 0
    while g < order:
        end = g
        for digits, steps in chains:
            fixed = j = 0
            for i, lo, hi in steps:
                while j < i:
                    fixed += (digits[j] + g // weights[j]) % radices[j] * weights[j]
                    j += 1
                m, w = radices[i], weights[i]
                first = g // w % m + lo   # the window's digits are [first, first + hi - lo)
                for up in (m, 0):   # the part past the radix first, its digits one radix up
                    bottom, top = max(first - up, 0), min(first + hi - lo - up, m)
                    if bottom < top:
                        x = bisect_left(targets, fixed + top * w)
                        if x and targets[x - 1] >= fixed + bottom * w:
                            s = (targets[x - 1] - fixed) // w + up
                            end = max(end, g - g % (w * m) + (min(s - lo, m - 1) + 1) * w)
                            break
        if end == g:
            return g
        g = end
    return order


def _product_translator(targets: Sequence[int], gaps: Sequence[tuple[int, int]], radices: Sequence[int],
                        weights: Sequence[int]) -> int:
    """Least g outside targets - gaps for a kept set of several gaps in
    a block of the mixed radix ``radices`` (a cyclic block is
    ``(order,)`` with weights ``(1,)``), or the order when they forbid
    every g; a kept set of one gap is probed instead.  Target s minus a
    cylinder of a gap fixes the digits (s_j - d_j) mod m_j before level
    i and runs digit i over a cyclic range: one index interval, or two
    where it wraps.  Along each chain of cylinders the index of every
    target's fixed digits grows by one term per level, one pass over the
    targets each, as digit j of s is (s // w_j) mod m_j.  One sweep over
    the intervals, sorted, stops at the first free g."""
    intervals = []
    for a, b in gaps:
        for digits, steps in _gap_cylinders(a, b, radices, weights):
            fixed = [0] * len(targets)
            j = 0
            for i, lo, hi in steps:
                while j < i:
                    d, m, w = digits[j], radices[j], weights[j]
                    fixed = [f + (s // w - d) % m * w for f, s in zip(fixed, targets)]
                    j += 1
                m, w = radices[i], weights[i]
                for f, s in zip(fixed, targets):
                    start = (s // w + 1 - hi) % m
                    stop = start + hi - lo
                    if stop > m:   # the digit range wraps: its part [0, stop - m) too
                        intervals.append((f, f + (stop - m) * w))
                        stop = m
                    intervals.append((f + start * w, f + stop * w))
    intervals.sort()
    g = 0
    for lo, hi in intervals:
        if lo > g:
            break
        if hi > g:
            g = hi
    return g


def _gaps(kept: Sequence[int], order: int) -> list[tuple[int, int]]:
    """The complement of a sorted, duplicate-free index sequence in
    [0, order), as half-open intervals in increasing order.  A step-1
    range, as :func:`build_nullset` keeps, is read off its ends.  In any
    other sequence a run whose span equals its length has no gap inside,
    so bisecting the sequence costs O(gaps * log |kept|)."""
    if isinstance(kept, range) and kept.step == 1:
        out = [(0, kept.start)] if kept.start > 0 else []
        if kept.stop < order:
            out.append((kept.stop, order))
        return out
    out = [(0, kept[0])] if kept[0] > 0 else []
    pending = [(0, len(kept) - 1)]
    while pending:
        i, j = pending.pop()
        if kept[j] - kept[i] == j - i:
            continue
        if j == i + 1:
            out.append((kept[i] + 1, kept[j]))
            continue
        mid = (i + j) // 2
        # right half first, so gaps leave the stack in increasing order
        pending.append((mid, j))
        pending.append((i, mid))
    if kept[-1] < order - 1:
        out.append((kept[-1] + 1, order))
    return out


def plan_blocks_product(orders: Iterable[int], depth: int) -> BlockPlan:
    """Greedy minimal consecutive blocks over the given coordinate orders.

    Block n is the shortest prefix of the remaining coordinates whose
    cumulative order exceeds 2(n+3).  ``orders`` may be any iterable,
    including an infinite one; exactly the consumed prefix is recorded.
    Depths above ``NUMERIC_DEPTH_CAP`` raise :class:`CapExceeded` before
    any order is read.
    """
    _check_plan_depth(depth)
    cuts, consumed = _greedy_cuts(orders, depth)
    return BlockPlan(mode="product", boundaries=tuple(cuts), orders=tuple(consumed))


def plan_blocks_padic(p: int, depth: int) -> BlockPlan:
    """Digit cuts 0 = k_0 < k_1 < ... with each step the minimal m such
    that p^m > 2(n+3): the product plan over the radices (p, p, ...),
    read with carries.  Depths above ``NUMERIC_DEPTH_CAP`` raise
    :class:`CapExceeded`."""
    _check_plan_depth(depth)
    if not is_prime(p):
        raise PreconditionViolated(f"p = {p} is not prime")
    cuts, _ = _greedy_cuts(itertools.repeat(p), depth)
    return BlockPlan(mode="padic", boundaries=tuple(cuts), p=p)


def _greedy_cuts(radices: Iterable[int], depth: int) -> tuple[list[int], list[int]]:
    """The greedy cut loop of both planners: block n takes the fewest
    next radices whose product exceeds 2(n+3).  Returns the cuts and the
    consumed radices; nothing past the last block is read."""
    consumed: list[int] = []
    cuts = [0]
    size, bound = 1, _grow(0)
    for m in radices:
        if m < 2:
            raise PreconditionViolated(f"coordinate orders must be >= 2, got {m}")
        consumed.append(m)
        size *= m
        if size > bound:   # block len(cuts) - 1 is complete
            cuts.append(len(consumed))
            if len(cuts) > depth:
                return cuts, consumed
            size, bound = 1, _grow(len(cuts) - 1)
    raise PreconditionViolated(f"coordinates exhausted while forming block {len(cuts) - 1} of {depth}")


def _check_plan_depth(depth: int) -> None:
    if depth < 1:
        raise PreconditionViolated(f"depth must be >= 1, got {depth}")
    if depth > NUMERIC_DEPTH_CAP:
        raise CapExceeded(f"plan depth {depth} exceeds the numeric depth cap {NUMERIC_DEPTH_CAP}")


def build_nullset(plan: BlockPlan) -> NullsetSpec:
    """Keep, in every block, the first floor((1 - 1/(2(n+3))) * order)
    elements in canonical order: the largest admissible kept set, which
    makes covering easiest while the measure bound stays exact.  Each
    kept set is held as ``range(hi)``, so the build costs O(depth) and
    no index is materialised.  Plans whose blocks total more than
    ``DEFAULT_ENUM_CAP`` elements raise :class:`CapExceeded` before
    anything is kept, since :meth:`NullsetSpec.to_json` prints every
    kept index."""
    sizes = plan.block_orders
    total = sum(sizes)
    if total > DEFAULT_ENUM_CAP:
        raise CapExceeded(f"blocks of {_count_text(total)} elements in all exceed the enumeration cap {DEFAULT_ENUM_CAP}")
    kept = []
    for n, size in enumerate(sizes):
        kept.append(range(kept_window(size, n)[1]))
    return NullsetSpec(plan=plan, kept=tuple(kept))


def bound_product(n_blocks: int) -> Fraction:
    """Exact value of the decay bound prod_{n<N} (1 - 1/(2(n+3))).

    The factors are (2n+5)/(2n+6), so the product is the odd-over-even
    ratio 5*7*...*(2N+3) / (6*8*...*(2N+4)), which is Wallis's closed
    form C(2M, M) * 8 / (3 * 4^M) with M = N + 2: one binomial and one
    reduction.
    """
    return Fraction(*_bound_pair(n_blocks))


def _bound_pair(n_blocks: int) -> tuple[int, int]:
    # bound_product(N) as an unreduced integer pair; N <= 0 is the empty product
    m = max(n_blocks, 0) + 2
    return comb(2 * m, m) * 8, 3 * 4**m


def measure_upper(spec: NullsetSpec, n_blocks: int) -> Fraction:
    """Exact counting measure of the first ``n_blocks`` levels of the
    nullset, i.e. prod |kept_n| / |block_n|; checked against the decay
    bound before returning."""
    if not 0 <= n_blocks <= spec.depth:
        raise PreconditionViolated(f"{n_blocks} blocks requested, spec realizes {spec.depth}")
    measure = Fraction(
        prod(len(ind) for ind in spec.kept[:n_blocks]),
        prod(spec.plan.block_orders[:n_blocks]),
    )
    if measure > bound_product(n_blocks):
        raise VerificationFailed(f"the measure exceeds the decay bound at N = {n_blocks}")
    return measure


def first_bound_below(threshold: Fraction) -> int:
    """Smallest N with bound_product(N) < threshold.

    With M = N + 2 the bound is 8/3 * C(2M, M) / 4^M, and Wallis's
    inequalities 1/sqrt(pi (M + 1/2)) < C(2M, M) / 4^M < 1/sqrt(pi (M + 1/4))
    put the answer's M in (x - 1/2, x + 3/4] for x = (8 / (3t))^2 / pi.
    That float estimate only picks the start M = floor(x - 1/2), below
    the answer by a margin no float rounding erodes.  From the exact
    bound there, held as one unreduced integer pair, the search steps up
    by the exact ratio bound(N+1) / bound(N) = (2N+5)/(2N+6), a step or
    two, comparing cross-multiplied integers, until the bound drops
    below t.  A threshold whose estimate exceeds ``NUMERIC_DEPTH_CAP``
    raises :class:`CapExceeded` before any big-integer work.
    """
    if not 0 < threshold < 1:
        raise PreconditionViolated("threshold must be in (0, 1)")
    t = Fraction(threshold)
    square = Fraction(64, 9) / (t * t)  # (8 / (3t))^2, exact
    if square > pi * (NUMERIC_DEPTH_CAP + 2):
        raise CapExceeded(f"the bound drops below the threshold only beyond the depth cap {NUMERIC_DEPTH_CAP}")
    n = max(floor(float(square) / pi - 0.5) - 2, 0)
    num, den = _bound_pair(n)
    # bound(n) >= t  <=>  num * t.den >= t.num * den
    while num * t.denominator >= t.numerator * den:
        num *= 2 * n + 5
        den *= 2 * n + 6
        n += 1
    return n


def cover_product_slalom(spec: NullsetSpec, slalom: Slalom) -> CoverCertificate:
    """Cover a width-(n+2) slalom by one translate of the product nullset.

    No carries exist in product mode, so the blocks are independent: the
    targets are the slalom values and the translate's n-th component is
    the translator found on the block group.  The re-check certifies
    every slalom element, however many; only the slalom's values are
    bounded, as in :func:`verify_cover`, and nothing bounds the block
    orders.
    """
    if spec.plan.mode != "product":
        raise PreconditionViolated("cover_product_slalom needs a product-mode spec")
    return _cover(spec, slalom)


def cover_padic_slalom(ctx, spec: NullsetSpec, slalom: Slalom) -> CoverCertificate:
    """Cover a width-((n+2)//2) slalom by one additive offset in the
    truncated p-adic integers ``ctx``, which must be the plan's.

    Carries couple the blocks, so each slalom set is closed under an
    incoming carry: targets_n = S_n united with S_n + 1 mod p^len, at
    most 2 * ((n+2)//2) <= n+2 values.  The offset's n-th block is minus
    the found translator.  The bounds are as in
    :func:`cover_product_slalom`.
    """
    plan = spec.plan
    if plan.mode != "padic":
        raise PreconditionViolated("cover_padic_slalom needs a padic-mode spec")
    if ctx.p != plan.p or ctx.length != plan.boundaries[-1]:
        raise PreconditionViolated(
            f"context ({ctx.p}, {ctx.length}) does not match plan ({plan.p}, {plan.boundaries[-1]})"
        )
    return _cover(spec, slalom)


def _cover(spec: NullsetSpec, slalom: Slalom) -> CoverCertificate:
    """Both modes: per block, close the slalom values into targets, find
    the least translator with :func:`find_translator` and write its
    translate block; then re-check the assembled translate with
    :func:`verify_cover`."""
    plan = spec.plan
    padic = plan.mode == "padic"
    tag = "(n+2)//2" if padic else "n+2"
    slalom.check_domains(plan)
    f = width_fn(tag)
    translate = []
    blocks = zip(slalom.sets, plan.block_groups, plan.block_orders, spec.kept)
    for n, (values, group, order, kept) in enumerate(blocks):
        if len(values) > f(n):
            raise PreconditionViolated(f"slalom set {n} is wider than {tag}")
        targets = values
        if padic:
            # each value and its successor mod the order, which a carry into
            # the block makes; values are sorted, so only the last one wraps
            targets = [*values, *[v + 1 for v in values[:-1]], (values[-1] + 1) % order]
        g = find_translator(group, kept, targets, n)
        translate.append(group.element_at(-g % order if padic else g))
    translate = tuple(translate)
    result = verify_cover(spec, translate, slalom)
    if not result.ok:
        raise VerificationFailed(f"{plan.mode} cover failed its re-check at element {result.witness}")
    return CoverCertificate(translate=translate, verified=True, checked_count=result.checked_count)


def verify_cover(spec: NullsetSpec, translate: tuple[tuple[int, ...], ...], slalom: Slalom) -> VerifyResult:
    """Decide exactly whether every slalom element lands in the
    translated nullset; on failure report the lexicographically least
    escaping element (as per-block enumeration indices).

    No element is enumerated, and the cost is a sum over blocks instead
    of prod |S_n|.

    Product mode: blocks are independent, so an element escapes iff one
    of its values v has v - translate_n (carry-free, in mixed radix)
    outside the kept set.  Per block the values that escape form at most
    two index intervals per cylinder of a gap, and a gap of a block of k
    coordinates splits into at most 2k - 1 cylinders: one bisection of
    the sorted slalom set each finds the first escaping value, in
    O(sum gaps_n * k_n * log |S_n|).  The cover holds iff no block has
    one; the least escaping element follows from the first escaping
    index of each block.  ``checked_count`` is the element count either
    way.

    p-adic mode: adding the offset with carries is a two-state
    transducer over the blocks (carry 0 or 1 into each block).  Slalom
    sets are sorted, so per block and incoming carry c two indices of
    S_n decide everything: the first value that carries out of the block
    (at order - offset - c), and the first value whose block sum lands
    in a gap of the kept set (the preimage of a gap is one cyclic
    interval).  Both carries share the searches: one bisection for where
    carrying starts, and one per gap.  The check costs
    O(sum gaps_n * log |S_n|).  One backward pass over all blocks
    (:func:`_padic_backward`) runs these searches and finds, per block
    and incoming carry, whether some completion escapes and how many
    carried (element, block) pairs all completions hold; a greedy
    forward pass over its rows then picks the least escaping element,
    its mixed-radix rank (``checked_count`` is rank + 1, as in an
    enumeration that stops at the witness) and the carry split over the
    elements up to it.  ``carry_cases`` counts, per element and block,
    whether the block sum is target + offset or target + offset + 1.

    The per-spec tables, the gaps and in product mode the cylinders of
    each gap, are built on the first check of a spec and read by every
    later one; the block codecs are built once per plan.  Everything
    that depends on the translate is computed afresh on every call.

    No cap bounds the number of slalom elements, since none is visited.
    The bound on the work is the slalom's own size: more than
    ``DEFAULT_ENUM_CAP`` values in all raise :class:`CapExceeded`.
    """
    plan = spec.plan
    slalom.check_domains(plan)
    values = slalom.value_count
    if values > DEFAULT_ENUM_CAP:
        raise CapExceeded(f"a slalom of {_count_text(values)} values exceeds the enumeration cap {DEFAULT_ENUM_CAP}")
    total = slalom.element_count
    if len(translate) != plan.depth:
        raise PreconditionViolated(f"translate has {len(translate)} blocks, plan has {plan.depth}")
    # index_of rejects a translate block of the wrong length or range
    offsets = [group.index_of(block) for group, block in zip(plan.block_groups, translate)]
    verify = _verify_product if plan.mode == "product" else _verify_padic
    return verify(spec, offsets, slalom, total)


def _verify_product(spec: NullsetSpec, offsets: Sequence[int], slalom: Slalom, total: int) -> VerifyResult:
    plan = spec.plan
    # first[n]: the least index of S_n whose value v has v - t_n in a gap
    first = []
    for values, t, order, gaps, group, cylinders in zip(
            slalom.sets, offsets, plan.block_orders, spec.gaps, plan.block_groups, spec.cylinders):
        if cylinders is None:   # a cyclic block: carry-free is plain subtraction
            first.append(_first_in_gaps(values, gaps, -t, order))
        else:
            first.append(_first_in_cylinders(values, cylinders, t, group.orders, group.weights))
    failing = [n for n, (j, values) in enumerate(zip(first, slalom.sets)) if j < len(values)]
    if not failing:
        return VerifyResult(ok=True, witness=None, checked_count=total)
    # block 0 varies slowest: the first element escapes if any first value
    # fails; otherwise the least escaper differs from it only in the last
    # block with a failing value, where it takes the first such value
    choice = [0] * len(first)
    if all(first):
        choice[failing[-1]] = first[failing[-1]]
    witness = tuple(values[i] for values, i in zip(slalom.sets, choice))
    return VerifyResult(ok=False, witness=witness, checked_count=total)


def _verify_padic(spec: NullsetSpec, offsets: Sequence[int], slalom: Slalom, total: int) -> VerifyResult:
    """The p-adic check of :func:`verify_cover` on the decoded offsets:
    one backward pass over all blocks (:func:`_padic_backward`), then, on
    failure, one greedy forward pass over its rows."""
    plan = spec.plan
    depth = plan.depth
    rows, e0, k0 = _padic_backward(slalom.sets, offsets, plan.block_orders, spec.gaps)
    if not e0:
        return VerifyResult(ok=True, witness=None, checked_count=total, carry_cases=(total * depth - k0, k0))
    # forward pass: the least escaping element, its rank, and the carried
    # pairs of every element ranked up to it
    rank = 0
    carry_total = 0
    path_carries = 0   # carries into blocks 0..n-1 along the witness
    c = 0
    escaped = False
    witness = []
    for values, z0, z1, f0, f1, count, e0, e1, k0, k1 in rows:
        zeros, first = (z1, f1) if c else (z0, f0)
        j = 0
        if not escaped:
            # the first value in a gap, unless a completion escapes sooner
            j = first
            if e1 and zeros < j:
                j = zeros
            if e0 and zeros > 0:
                j = 0
            rank += j * count
            carry_total += j * count * (path_carries + c)
            ones = j - zeros if j > zeros else 0
            carry_total += (j - ones) * k0 + ones * k1
            escaped = j == first
        witness.append(values[j])
        path_carries += c
        c = int(j >= zeros)
    checked = rank + 1
    carry_total += path_carries
    return VerifyResult(ok=False, witness=tuple(witness), checked_count=checked,
                        carry_cases=(checked * depth - carry_total, carry_total))


def _padic_backward(sets: Sequence[Sequence[int]], offsets: Sequence[int], orders: Sequence[int],
                    gaps: Sequence[Sequence[tuple[int, int]]]) -> tuple[list, bool, int]:
    """The backward pass of the p-adic check, from the last block: per
    block n, one row (values, z0, z1, f0, f1, count, e0, e1, k0, k1),
    in block order, and then e0 and k0 of the whole slalom.

    With carry c into block n the sorted values carry out of it from
    index z_c on, and f_c is the least index whose block sum lands in a
    gap of the kept set (|S_n| when none does).  The completions of
    blocks n+1.., of which there are count = prod_{m > n} |S_m|, entered
    with carry 0 and 1: e0 and e1 say whether some value leaves the kept
    set, and k0 and k1 count the (element, block) pairs that carry.

    Both carries share the searches.  One bisection at order - offset - 1
    gives z1, where the sum carries out with carry 1, and z0 is that
    index or the next.  Under offset + 1 the preimage of a gap [a, b) is
    [lo, hi) with lo = (a - offset - 1) mod order, and under offset it
    is one later, [lo + 1, hi + 1), read in [0, 2 order) as the other
    is: the part of either past the order wraps to [0, ...).  One
    bisection at lo, the start of their union, gives the first value of
    both; the values are distinct, so the first of [lo + 1, ...) is that
    one or the next."""
    rows = [None] * len(sets)
    count, e0, e1, k0, k1 = 1, False, False, 0, 0
    for n in range(len(sets) - 1, -1, -1):
        values = sets[n]
        order = orders[n]
        size = len(values)
        edge = order - offsets[n] - 1
        z1 = bisect_left(values, edge)
        z0 = z1 + (z1 < size and values[z1] == edge)
        f0 = f1 = size
        for a, b in gaps[n]:
            lo = (a + edge) % order   # (a - offset - 1) mod order
            hi = lo + b - a
            if values[0] < hi + 1 - order:   # the wrapped parts [0, hi + 1 - order), [0, hi - order)
                f0 = 0
                if values[0] < hi - order:
                    f1 = 0
            j = bisect_left(values, lo, 0, f0 if f0 > f1 else f1)
            if j < f1 and values[j] < hi:
                f1 = j
            if j < size and values[j] == lo:
                j += 1
            if j < f0 and values[j] <= hi:
                f0 = j
        rows[n] = (values, z0, z1, f0, f1, count, e0, e1, k0, k1)
        e0, e1 = (f0 < size or (z0 > 0 and e0) or (z0 < size and e1),
                  f1 < size or (z1 > 0 and e0) or (z1 < size and e1))
        k0, k1 = z0 * k0 + (size - z0) * k1, size * count + z1 * k0 + (size - z1) * k1
        count *= size
    return rows, e0, k0


def _first_in_gaps(values: Sequence[int], gaps: Sequence[tuple[int, int]], shift: int, order: int) -> int:
    """Index of the least of the sorted ``values`` whose sum with
    ``shift`` lands, mod ``order``, in one of the ``gaps``, or
    len(values).  The preimage of a gap [a, b) is the cyclic interval
    [a - shift, b - shift) mod order: one bisection per gap, bounded by
    the best index found so far."""
    best = len(values)
    for a, b in gaps:
        lo = (a - shift) % order
        hi = lo + b - a
        if hi > order and values[0] < hi - order:   # the wrapped part [0, hi - order)
            return 0
        j = bisect_left(values, lo, 0, best)
        if j < best and values[j] < hi:
            best = j
    return best


def _first_in_cylinders(values: Sequence[int], cylinders: Sequence, t: int,
                        radices: Sequence[int], weights: Sequence[int]) -> int:
    """Index of the least of the sorted ``values`` v whose carry-free
    difference v - t, in the mixed radix of ``radices`` (last digit
    fastest), lands in a gap, or len(values); ``cylinders`` holds the
    two chains of :func:`_gap_cylinders` of each gap, as
    :attr:`NullsetSpec.cylinders` does.

    Adding t carry-free maps a cylinder of a gap to the cylinder with
    fixed digits (d_j + t_j) mod m_j whose digit i runs over a cyclic
    range: one index interval, or two where it wraps.  The index of the
    fixed digits grows by one term per level along each chain.  Each
    interval costs one bisection, bounded by the best index found so
    far."""
    shift = [t // w % m for w, m in zip(weights, radices)]
    best = len(values)
    for chains in cylinders:
        for digits, steps in chains:
            fixed = j = 0
            for i, lo, hi in steps:
                while j < i:
                    fixed += (digits[j] + shift[j]) % radices[j] * weights[j]
                    j += 1
                m, w = radices[i], weights[i]
                start = (lo + shift[i]) % m
                stop = start + hi - lo
                if stop > m:   # the digit range wraps: its part [0, stop - m) first
                    x = bisect_left(values, fixed, 0, best)
                    if x < best and values[x] < fixed + (stop - m) * w:
                        best = x
                    stop = m
                x = bisect_left(values, fixed + start * w, 0, best)
                if x < best and values[x] < fixed + stop * w:
                    best = x
    return best


def _gap_cylinders(a: int, b: int, radices: Sequence[int], weights: Sequence[int]):
    """The gap [a, b) of a block of k = len(radices) coordinates split
    into at most 2k - 1 disjoint cylinders: the one carry-free layer of
    product blocks, read by the check and by the translator search.

    A cylinder fixes the digits before some level i, lets digit i run
    over a range and leaves the later digits free.  With c = b - 1, the
    middle one sits at the first level where a and c differ.  Below it,
    one chain follows the digits of a: digit i above a_i, and at a's
    last nonzero digit, from a_i on.  Another follows the digits of c:
    digit i below c_i, and at c's last digit short of its radix, up to
    c_i.  Returns the two chains as (digits, steps): the digits of a or
    of c, and per cylinder, by increasing level, (i, lo, hi), whose fixed
    digits are digits[:i] and whose digit i runs over [lo, hi).  The
    middle cylinder leads the chain of a.  A range may be empty, which
    adds no interval to either reader."""
    k = len(radices)
    low = [a // w % m for w, m in zip(weights, radices)]
    high = [(b - 1) // w % m for w, m in zip(weights, radices)]
    top = 0
    while top < k - 1 and low[top] == high[top]:
        top += 1
    left = k - 1
    while left > top and low[left] == 0:
        left -= 1
    right = k - 1
    while right > top and high[right] == radices[right] - 1:
        right -= 1
    middle = (top, low[top] + (left > top), high[top] + (right == top))
    below = [(i, low[i] + (i < left), radices[i]) for i in range(top + 1, left + 1)]
    above = [(i, 0, high[i] + (i == right)) for i in range(top + 1, right + 1)]
    return (low, [middle, *below]), (high, above)


def random_slalom(plan: BlockPlan, width: WidthSpec, seed: int) -> Slalom:
    """Deterministically sample a slalom over the plan's blocks.

    Each set is drawn without replacement from its block domain via an
    explicit partial Fisher-Yates on the seeded generator, so identical
    seeds give identical slaloms on any platform.  Set n has
    min(width(n), block order) values; more than ``DEFAULT_ENUM_CAP``
    values in all raise :class:`CapExceeded` before any is drawn.
    """
    f = width_fn(width)
    counts = [min(f(n), size) for n, size in enumerate(plan.block_orders)]
    total = sum(counts)
    if total > DEFAULT_ENUM_CAP:
        raise CapExceeded(f"a slalom of {_count_text(total)} values exceeds the enumeration cap {DEFAULT_ENUM_CAP}")
    rng = random.Random(seed)
    sets = tuple(
        tuple(sorted(_sample_without_replacement(rng, size, k))) for size, k in zip(plan.block_orders, counts)
    )
    return Slalom(width=width, sets=sets)


def _sample_without_replacement(rng: random.Random, population: int, k: int) -> list[int]:
    # partial Fisher-Yates over a virtual range(population)
    swapped: dict[int, int] = {}
    chosen = []
    for i in range(k):
        j = rng.randrange(i, population)
        vi = swapped.get(i, i)
        vj = swapped.get(j, j)
        swapped[i], swapped[j] = vj, vi
        chosen.append(vj)
    return chosen


def cube_cover_check(
    family: Sequence[Slalom],
    plan: BlockPlan,
    cap: int = DEFAULT_VERIFY_CAP,
) -> tuple[bool, Optional[tuple[int, ...]]]:
    """Does the union of the slaloms exhaust the truncated cube?

    Scans the whole cube in canonical order, so the returned witness is
    the least uncovered point.  The block orders are multiplied in turn,
    and the first partial product above ``cap`` raises
    :class:`CapExceeded`, before any later order is multiplied.
    """
    cube = 1
    for n, size in enumerate(plan.block_orders, 1):
        cube *= size
        if cube > cap:
            # a stop before the last block knows only a lower bound
            points = _count_text(cube) if n == plan.depth else f"more than 2^{cube.bit_length() - 1}"
            raise CapExceeded(f"cube of {points} points exceeds the cap {cap}")
    member_sets = []
    for slalom in family:
        slalom.check_domains(plan)
        member_sets.append([frozenset(s) for s in slalom.sets])
    for point in itertools.product(*(range(size) for size in plan.block_orders)):
        covered = any(
            all(v in sets[n] for n, v in enumerate(point)) for sets in member_sets
        )
        if not covered:
            return False, point
    return True, None
