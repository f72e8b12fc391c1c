"""Shared brute-force oracles for the test suite.

Everything here is deliberately independent of the library's own search
strategies: oracles scan whole groups element by element.
"""

from __future__ import annotations

import itertools

from nullcover.cover import VerifyResult
from nullcover.errors import CapExceeded, PreconditionViolated, VerificationFailed
from nullcover.groups import FiniteAbelianGroup


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


def translators_by_scan(group, kept, targets):
    """All g with targets inside g + kept, found by scanning the whole
    group in canonical order."""
    kept = set(kept)
    targets = list(targets)
    return [
        g for g in group.elements() if all(group.sub(s, g) in kept for s in targets)
    ]


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
    total = slalom.element_count()
    if total > cap:
        raise CapExceeded(f"{total} slalom elements exceed the verification cap {cap}")
    if len(translate) != plan.depth:
        raise PreconditionViolated(f"translate has {len(translate)} blocks, plan has {plan.depth}")

    if plan.mode == "product":
        ok_flags = []
        for n, values in enumerate(slalom.sets):
            group = plan.block_group(n)
            shifted = {group.add(translate[n], group.element_at(i)) for i in spec.kept[n]}
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
    offset_vals = [plan.block_group(n).value(block) for n, block in enumerate(translate)]
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
