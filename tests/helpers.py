"""Shared brute-force oracles for the test suite.

Everything here is deliberately independent of the library's own search
strategies and closed forms: oracles scan whole groups element by
element and evaluate products and series term by term in ``Fraction``.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from fractions import Fraction
from math import prod

from nullcover.cover import VerifyResult, kept_window
from nullcover.errors import (
    DEFAULT_ENUM_CAP,
    CapExceeded,
    NotDiscrete,
    NotInfinite,
    PreconditionViolated,
    VerificationFailed,
)
from nullcover.groups import FiniteAbelianGroup, is_prime
from nullcover.nullset import TAIL_MAX, TAIL_UNKNOWN, TAIL_ZERO, FactorialDigits, factorial_expand
from nullcover.structure import (
    COMPACT,
    DISCRETE,
    FINITE,
    SIDE_CONDITION_INDEX,
    VERDICT_DISCRETE,
    VERDICT_NICE,
    VERDICT_UNRESOLVED,
    Cyclic,
    FiniteSum,
    Int,
    Padic,
    PipelineResult,
    ProdOmega,
    Quasicyclic,
    Reals,
    SumOmega,
    Torus,
    TraceStep,
    TrichotomyVerdict,
    _TERMINAL_RULES,
    _kind_bits,
    dual,
)


def abelian_groups_up_to(max_order: int):
    """All direct products of cyclic groups with order in [2, max_order],
    one representative per multiset of factors (nondecreasing)."""

    def factor_lists(min_factor: int, budget: int):
        yield ()
        for m in range(min_factor, budget + 1):
            for rest in factor_lists(m, budget // m):
                yield (m,) + rest

    for orders in factor_lists(2, max_order):
        if orders:
            yield FiniteAbelianGroup(orders)


def zero_residues(group):
    """The zero of a ``FiniteAbelianGroup`` as a residue vector.  This and
    the arithmetic below work on whole residue vectors, coordinate by
    coordinate: the reference for the library's index-space arithmetic."""
    return (0,) * len(group.orders)


def add_residues(group, a, b):
    group.index_of(a)
    group.index_of(b)
    return tuple((x + y) % m for x, y, m in zip(a, b, group.orders))


def neg_residues(group, a):
    group.index_of(a)
    return tuple((-x) % m for x, m in zip(a, group.orders))


def sub_residues(group, a, b):
    return add_residues(group, a, neg_residues(group, b))


def scale_residues(group, k, a):
    group.index_of(a)
    return tuple(k * x % m for x, m in zip(a, group.orders))


def all_residues(group, cap=DEFAULT_ENUM_CAP):
    """Every element in canonical order, last coordinate fastest; a group
    of order above ``cap`` raises :class:`CapExceeded` before the first."""
    if group.order > cap:
        raise CapExceeded(f"group order {group.order} exceeds enumeration cap {cap}")
    return itertools.product(*(range(m) for m in group.orders))


def translators_by_scan(group, kept, targets):
    """All g with targets inside g + kept, found by scanning the whole
    group in canonical order."""
    kept = set(kept)
    targets = list(targets)
    return [
        g for g in all_residues(group) if all(sub_residues(group, s, g) in kept for s in targets)
    ]


def add_digits(p, x, y):
    """Carried addition of two base-p digit vectors of one length, least
    significant digit first, with the carry out of the top digit
    forgotten: the group law of a p-adic digit block, digit by digit."""
    assert len(x) == len(y)
    out = []
    carry = 0
    for a, b in zip(x, y):
        carry, digit = divmod(a + b + carry, p)
        out.append(digit)
    return tuple(out)


def least_translator_by_scan(group, kept, targets):
    found = translators_by_scan(group, kept, targets)
    return found[0] if found else None


def verify_cover_by_enumeration(spec, translate, slalom, cap):
    """Check a cover by walking every slalom element in enumeration order,
    with group arithmetic on whole elements: the reference for
    ``verify_cover``.  Product mode tests blockwise membership in the
    translated kept sets and reports the element count; p-adic mode adds
    the offset with full carry propagation mod p^(top cut), confirms the
    carry dichotomy per element and block, and stops at the first
    escaping element."""
    plan = spec.plan
    slalom.check_domains(plan)
    total = slalom.element_count
    if total > cap:
        raise CapExceeded(f"{total} slalom elements exceed the verification cap {cap}")
    if len(translate) != plan.depth:
        raise PreconditionViolated(f"translate has {len(translate)} blocks, plan has {plan.depth}")

    if plan.mode == "product":
        ok_flags = []
        for n, values in enumerate(slalom.sets):
            group = plan.block_groups[n]
            shifted = {add_residues(group, translate[n], group.element_at(i)) for i in spec.kept[n]}
            ok_flags.append([group.element_at(v) in shifted for v in values])
        for combo in itertools.product(*(zip(s, flags) for s, flags in zip(slalom.sets, ok_flags))):
            if not all(flag for _, flag in combo):
                witness = tuple(v for v, _ in combo)
                return VerifyResult(ok=False, witness=witness, checked_count=total)
        return VerifyResult(ok=True, witness=None, checked_count=total)

    p = plan.p
    cuts = plan.boundaries
    modulus = p ** cuts[-1]
    block_sizes = plan.block_orders
    kept_sets = [frozenset(ind) for ind in spec.kept]
    offset_vals = [G.index_of(block) for G, block in zip(plan.block_groups, translate)]
    offset_total = sum(v * p ** cuts[n] for n, v in enumerate(offset_vals))
    no_carry = carried = 0
    checked = 0
    for combo in itertools.product(*slalom.sets):
        checked += 1
        element_total = sum(v * p ** cuts[n] for n, v in enumerate(combo))
        shifted = (element_total + offset_total) % modulus
        inside = True
        for n in range(plan.depth):
            block_val = (shifted // p ** cuts[n]) % block_sizes[n]
            plain = (combo[n] + offset_vals[n]) % block_sizes[n]
            if block_val == plain:
                no_carry += 1
            elif block_val == (plain + 1) % block_sizes[n]:
                carried += 1
            else:
                raise VerificationFailed(f"carry dichotomy violated at element {combo}, block {n}")
            if block_val not in kept_sets[n]:
                inside = False
        if not inside:
            return VerifyResult(
                ok=False, witness=combo, checked_count=checked, carry_cases=(no_carry, carried)
            )
    return VerifyResult(ok=True, witness=None, checked_count=checked, carry_cases=(no_carry, carried))


def check_domains_by_blocks(slalom, plan):
    """The domain check of a slalom against a plan, block by block: the
    depths must agree, then the first set with a value outside its block
    is named.  The reference for :meth:`Slalom.check_domains`, which
    accepts from facts of the slalom it computes once."""
    if slalom.depth != plan.depth:
        raise PreconditionViolated(f"slalom depth {slalom.depth} != plan depth {plan.depth}")
    for n, (values, size) in enumerate(zip(slalom.sets, plan.block_orders)):
        if not all(0 <= v < size for v in values):
            raise PreconditionViolated(f"slalom set {n} leaves the block domain [0, {size})")


def gaps_by_membership(kept, order):
    """The complement of ``kept`` in [0, order) as maximal half-open runs,
    found by testing every index: the reference for the library's gaps."""
    kept = set(kept)
    gaps = []
    for i in range(order):
        if i in kept:
            continue
        if gaps and gaps[-1][1] == i:
            gaps[-1] = (gaps[-1][0], i + 1)
        else:
            gaps.append((i, i + 1))
    return gaps


def contains(kept, index):
    """Membership in a sorted index sequence, by one bisection."""
    i = bisect_left(kept, index)
    return i < len(kept) and kept[i] == index


def cyclic_translator_by_sorting(targets, gaps, order):
    """Least g in [0, order) outside targets - gaps mod order, or the
    order when none is: every (target, gap) pair's forbidden interval
    [s - b + 1, s - a] is built, cut at the order, sorted, and swept.  The
    reference for the library's jump probe on one gap, which builds no
    interval, and for the sweep's one-coordinate case on several gaps,
    which builds them from the gaps' cylinders."""
    intervals = []
    for s in targets:
        for a, b in gaps:
            lo = (s - b + 1) % order
            hi = lo + b - a
            intervals.append((lo, min(hi, order)))
            if hi > order:
                intervals.append((0, hi - order))
    intervals.sort()
    g = 0
    for lo, hi in intervals:
        if lo > g:
            break
        g = max(g, hi)
    return g


def digit_columns(radices, indices):
    """Enumeration indices of the product of cyclic groups with these
    orders (last coordinate fastest) split into mixed-radix digits:
    (radix, weight, digit of every index) per coordinate, last first."""
    columns = []
    weight = 1
    for m in reversed(radices):
        columns.append((m, weight, [i // weight % m for i in indices]))
        weight *= m
    return columns


def differences(columns, x, x_first):
    """Carry-free mixed-radix subtraction on indices: for every index y
    split into ``columns``, the index of element(x) - element(y) when
    ``x_first``, else of element(y) - element(x), in column order."""
    sign = 1 if x_first else -1
    out = [0] * len(columns[0][2])
    for m, weight, column in columns:
        x, digit = divmod(x, m)
        out = [o + sign * (digit - d) % m * weight for o, d in zip(out, column)]
    return out


def product_translator_by_pairs(group, kept, targets):
    """The least translator of a block of several coordinates, or the
    order when every index is forbidden, from the whole forbidden set
    targets - complement built pair by pair: the larger side is split
    into digit columns once, and each index of the smaller side costs
    one carry-free subtraction per coordinate.  The reference for the
    product jump probe on one gap and the cylinder-interval sweep on
    several."""
    kept = set(kept)
    complement = [c for c in range(group.order) if c not in kept]
    targets = sorted(set(targets))
    if len(targets) <= len(complement):
        columns = digit_columns(group.orders, complement)
        pairs = ((s, True) for s in targets)
    else:
        columns = digit_columns(group.orders, targets)
        pairs = ((c, False) for c in complement)
    forbidden = set()
    for x, x_first in pairs:
        forbidden.update(differences(columns, x, x_first))
    g = 0
    while g in forbidden:
        g += 1
    return g


def verify_product_by_values(spec, translate, slalom):
    """The product check value by value: every slalom value minus the
    translate block, by carry-free subtraction on digit columns, is
    looked up in the kept set.  The reference for the cylinder-interval
    check at depths that enumeration cannot reach."""
    plan = spec.plan
    total = slalom.element_count
    passes = []
    for n, (values, block) in enumerate(zip(slalom.sets, translate)):
        group = plan.block_groups[n]
        shifted = differences(digit_columns(group.orders, values), group.index_of(block), x_first=False)
        passes.append([contains(spec.kept[n], v) for v in shifted])
    failing = [n for n, flags in enumerate(passes) if not all(flags)]
    if not failing:
        return VerifyResult(ok=True, witness=None, checked_count=total)
    # block 0 varies slowest: the first element escapes if any first value
    # fails; otherwise the least escaper differs from it only in the last
    # block with a failing value, where it takes the first such value
    choice = [0] * len(passes)
    if all(flags[0] for flags in passes):
        choice[failing[-1]] = passes[failing[-1]].index(False)
    witness = tuple(values[i] for values, i in zip(slalom.sets, choice))
    return VerifyResult(ok=False, witness=witness, checked_count=total)


def verify_padic_by_values(spec, translate, slalom):
    """The p-adic check value by value: per block and incoming carry, a
    membership bisection and a carry flag for every slalom value, then
    the same two-state carry passes as ``verify_cover`` (a backward pass
    for escapes and carried counts, a greedy forward pass for the least
    escaping element).  The reference for the gap-based check at depths
    that enumeration cannot reach; the offsets are decoded as sums of
    digit powers."""
    plan = spec.plan
    depth = plan.depth
    total = slalom.element_count
    offsets = [sum(d * plan.p**k for k, d in enumerate(block)) for block in translate]
    # inside[n][c] and out[n][c]: per slalom value of block n with carry c
    # into the block, whether the block sum lands in the kept set and
    # whether it carries out of the block
    inside, out = [], []
    for n, (values, offset) in enumerate(zip(slalom.sets, offsets)):
        order = plan.block_orders[n]
        kept = spec.kept[n]
        sums = [[v + offset + c for v in values] for c in (0, 1)]
        inside.append([[contains(kept, x % order) for x in row] for row in sums])
        out.append([[x >= order for x in row] for row in sums])
    completions = [1] * (depth + 1)
    escapes = [[False, False] for _ in range(depth + 1)]
    carried = [[0, 0] for _ in range(depth + 1)]
    for n in range(depth - 1, -1, -1):
        size = len(slalom.sets[n])
        completions[n] = size * completions[n + 1]
        for c in (0, 1):
            ones = sum(out[n][c])
            zeros = size - ones
            escapes[n][c] = (not all(inside[n][c]) or (zeros > 0 and escapes[n + 1][0])
                             or (ones > 0 and escapes[n + 1][1]))
            carried[n][c] = c * completions[n] + zeros * carried[n + 1][0] + ones * carried[n + 1][1]
    if not escapes[0][0]:
        plain = total * depth - carried[0][0]
        return VerifyResult(ok=True, witness=None, checked_count=total,
                            carry_cases=(plain, carried[0][0]))
    rank = 0
    carry_total = 0
    path_carries = 0
    c = 0
    escaped = False
    witness = []
    for n in range(depth):
        lands, carries = inside[n][c], out[n][c]
        j = 0
        if not escaped:
            while lands[j] and not escapes[n + 1][carries[j]]:
                j += 1
            rank += j * completions[n + 1]
            carry_total += j * completions[n + 1] * (path_carries + c)
            ones = sum(carries[:j])
            carry_total += (j - ones) * carried[n + 1][0] + ones * carried[n + 1][1]
            escaped = not lands[j]
        witness.append(slalom.sets[n][j])
        path_carries += c
        c = int(carries[j])
    checked = rank + 1
    carry_total += path_carries
    return VerifyResult(ok=False, witness=tuple(witness), checked_count=checked,
                        carry_cases=(checked * depth - carry_total, carry_total))


def factor_by_trial_division(n):
    """Prime factorization {p: k} of n >= 1, dividing by every integer
    from 2 up to the square root of what is left: the reference for the
    bounded factoring in ``primary_decomposition``."""
    out = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def bound_product_by_product(n_blocks):
    """The decay bound prod_{n<N} (1 - 1/(2(n+3))), one rational factor at
    a time: the reference for ``bound_product``."""
    return prod((1 - Fraction(1, 2 * (n + 3)) for n in range(n_blocks)), start=Fraction(1))


def first_bound_below_by_scan(threshold):
    """Smallest N with the bound below the threshold, by multiplying in
    one rational factor at a time from N = 0."""
    if not 0 < threshold < 1:
        raise PreconditionViolated(f"threshold must be in (0, 1), got {threshold}")
    value = Fraction(1)
    n = 0
    while value >= threshold:
        value *= 1 - Fraction(1, 2 * (n + 3))
        n += 1
    return n


def ek_sup_by_series(depth):
    """sum_{n=2..N} (n-2)/n!, one reduced rational term at a time."""
    if depth < 2:
        raise PreconditionViolated(f"depth must be >= 2, got {depth}")
    total = Fraction(0)
    factorial = 1
    for n in range(2, depth + 1):
        factorial *= n
        total += Fraction(n - 2, factorial)
    return total


def factorial_expand_by_fractions(q, depth):
    """Greedy factorial-base expansion with a rational remainder that is
    scaled and truncated digit by digit, plus the alternate expansion of
    a terminating nonzero value."""
    if not 0 <= q < 1:
        raise PreconditionViolated(f"value {q} outside [0, 1)")
    if depth < 2:
        raise PreconditionViolated(f"depth must be >= 2, got {depth}")
    digits = []
    remainder = Fraction(q)
    for n in range(2, depth + 1):
        scaled = remainder * n
        d = int(scaled)
        digits.append(d)
        remainder = scaled - d
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


def ek_membership_by_expansions(q, depth):
    """Tri-state membership judged from both expansions: "in" when one
    terminated with every digit <= n-2, "out" when each breaks the digit
    bound for certain (a maximal explicit digit, or the alternate's
    all-maximal tail), "undetermined" otherwise."""
    greedy, alternate = factorial_expand(q, depth)
    expansions = [greedy] + ([alternate] if alternate is not None else [])
    for e in expansions:
        if e.tail == TAIL_ZERO and e.admissible_prefix():
            return "in"
    if all(not e.admissible_prefix() or e.tail == TAIL_MAX for e in expansions):
        return "out"
    return "undetermined"


def order_of(d):
    """Group order of a finite descriptor, the product of its cyclic
    orders; None for an infinite one."""
    match d:
        case Cyclic(order):
            return order
        case FiniteSum(parts):
            orders = [order_of(p) for p in parts]
            return None if None in orders else prod(orders)
        case _:
            return None


def is_finite_by_match(d):
    """Finiteness by structural pattern matching over the whole tree: the
    reference for the library's kind bits, as are the two below."""
    match d:
        case Cyclic():
            return True
        case FiniteSum(parts):
            return all(is_finite_by_match(p) for p in parts)
        case _:
            return False


def is_discrete_by_match(d):
    match d:
        case Int() | Cyclic() | Quasicyclic() | SumOmega():
            return True
        case FiniteSum(parts):
            return all(is_discrete_by_match(p) for p in parts)
        case _:
            return False


def is_compact(d):
    """The library's compact bit of d, as ``is_finite`` and
    ``is_discrete`` read theirs; only the tests ask for it."""
    return bool(_kind_bits(d) & COMPACT)


def is_compact_by_match(d):
    match d:
        case Torus() | Cyclic() | Padic() | ProdOmega():
            return True
        case FiniteSum(parts):
            return all(is_compact_by_match(p) for p in parts)
        case _:
            return False


def flatten_by_rebuilding(d):
    """Nested finite sums spliced into one flat sum, always built afresh:
    the reference for the pipeline's flattening."""
    if not isinstance(d, FiniteSum):
        return d
    parts = []
    for part in d.parts:
        flat = flatten_by_rebuilding(part)
        if isinstance(flat, FiniteSum):
            parts.extend(flat.parts)
        else:
            parts.append(flat)
    return parts[0] if len(parts) == 1 else FiniteSum(tuple(parts))


def classify_by_scans(d):
    """The subgroup trichotomy by up to three preorder scans, one per
    case in order (Int, then SumOmega, then Quasicyclic): the reference
    for the library's one-walk ``classify_subgroup``."""
    bits = _kind_bits(d)
    if not bits & DISCRETE:
        raise NotDiscrete(f"{d!r} does not denote a discrete group")
    if bits & FINITE:
        raise NotInfinite(f"{d!r} denotes a finite group")
    for case, kind in ((1, Int), (2, SumOmega), (3, Quasicyclic)):
        found = _first_in_preorder(d, kind)
        if found is not None:
            return TrichotomyVerdict(case=case, witness=found.p if case == 3 else found)
    return TrichotomyVerdict(case=None, witness=None)


def _first_in_preorder(d, kind):
    # finite sums are the only constructor scanned through
    if isinstance(d, kind):
        return d
    if isinstance(d, FiniteSum):
        for part in d.parts:
            found = _first_in_preorder(part, kind)
            if found is not None:
                return found
    return None


def pipeline_by_rules(d):
    """The reduction pipeline one rule at a time, each rule re-reading
    the flat sum's parts, with the three-scan trichotomy: the reference
    for the library's one-pass ``niceness_pipeline``."""
    steps = []
    current = flatten_by_rebuilding(d)
    if current != d:
        steps.append(TraceStep("flatten-sum", d, current))
    parts = current.parts if isinstance(current, FiniteSum) else (current,)
    part_bits = [_kind_bits(part) for part in parts]
    if all(bits & DISCRETE for bits in part_bits):
        steps.append(TraceStep("discrete-no-nullset", current, None))
        return PipelineResult(VERDICT_DISCRETE, tuple(steps), ())
    kept = [i for i, bits in enumerate(part_bits) if bits & FINITE or not bits & DISCRETE]
    if len(kept) < len(parts):
        parts = tuple(parts[i] for i in kept)
        part_bits = [part_bits[i] for i in kept]
        subgroup = parts[0] if len(parts) == 1 else FiniteSum(parts)
        steps.append(TraceStep("open-subgroup", current, subgroup))
        current = subgroup
    if any(isinstance(part, Reals) for part in parts):
        steps.append(TraceStep("real-factor", current, None))
        return PipelineResult(VERDICT_NICE, tuple(steps), (SIDE_CONDITION_INDEX,))
    if not all(bits & COMPACT for bits in part_bits):
        steps.append(TraceStep("no-applicable-rule", current, None))
        return PipelineResult(VERDICT_UNRESOLVED, tuple(steps), ())
    terminal = _TERMINAL_RULES.get(type(current))
    if terminal is not None:
        steps.append(TraceStep(terminal, current, current))
        return PipelineResult(VERDICT_NICE, tuple(steps), (SIDE_CONDITION_INDEX,))
    dualized = dual(current)
    steps.append(TraceStep("dualize", current, dualized))
    verdict = classify_by_scans(dualized)
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


def syntactic_size(d):
    """Node count of a descriptor, compounds included."""
    match d:
        case FiniteSum(parts) | SumOmega(parts) | ProdOmega(parts):
            return 1 + sum(syntactic_size(p) for p in parts)
        case _:
            return 1


def divisible_chain_by_elements(G, p, depth, cap=DEFAULT_ENUM_CAP):
    """Least chain (g_0, ..., g_depth) with g_0 nonzero and
    p * g_(i+1) = g_i, searched over whole residue vectors: every element
    is enumerated and multiplied by p with group arithmetic."""
    if depth < 0:
        raise PreconditionViolated(f"depth must be >= 0, got {depth}")
    if not is_prime(p):
        raise PreconditionViolated(f"p = {p} is not prime")
    elements = list(all_residues(G, cap))
    preimages = {}
    for g in elements:
        preimages.setdefault(scale_residues(G, p, g), []).append(g)
    dead = set()

    def reachable(g, remaining):
        if remaining == 0:
            return True
        if (g, remaining) in dead:
            return False
        for h in preimages.get(g, ()):
            if reachable(h, remaining - 1):
                return True
        dead.add((g, remaining))
        return False

    zero = zero_residues(G)
    for start in elements:
        if start == zero or not reachable(start, depth):
            continue
        chain = [start]
        for remaining in range(depth - 1, -1, -1):
            chain.append(next(h for h in preimages.get(chain[-1], ()) if reachable(h, remaining)))
        return tuple(chain)
    return None


def nullset_json_by_tuples(plan):
    """The JSON document of the nullset that ``build_nullset(plan)``
    makes, with every kept set expanded into a tuple of its indices, as
    the builder once stored them: the reference for the bytes that
    ``NullsetSpec.to_json`` prints."""
    kept = [tuple(range(kept_window(size, n)[1])) for n, size in enumerate(plan.block_orders)]
    return {"plan": plan.to_json(), "A": [list(indices) for indices in kept]}
