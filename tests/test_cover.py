import importlib
import itertools
import json
import random
import time
import tracemalloc
from unittest import mock
from fractions import Fraction
from math import prod
from operator import lt
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nullcover import cover as cover_module
from nullcover.cover import (
    DEFAULT_VERIFY_CAP,
    BlockPlan,
    _int_array,
    _strictly_increasing,
    CoverCertificate,
    NullsetSpec,
    Slalom,
    build_nullset,
    bound_product,
    cover_padic_slalom,
    cover_product_slalom,
    cube_cover_check,
    find_translator,
    first_bound_below,
    kept_window,
    measure_upper,
    plan_blocks_padic,
    plan_blocks_product,
    random_slalom,
    verify_cover,
    width_fn,
)
from nullcover.errors import CapExceeded, NoTranslator, PreconditionViolated, SchemaError, _count_text
from nullcover.groups import BlockGroup, FiniteAbelianGroup, PadicContext
from nullcover.nullset import NUMERIC_DEPTH_CAP

from helpers import (
    abelian_groups_up_to,
    add_residues,
    bound_product_by_product,
    check_domains_by_blocks,
    cyclic_translator_by_sorting,
    differences,
    digit_columns,
    first_bound_below_by_scan,
    gaps_by_membership,
    least_translator_by_scan,
    nullset_json_by_tuples,
    product_translator_by_pairs,
    sub_residues,
    translators_by_scan,
    verify_cover_by_enumeration,
    verify_padic_by_values,
    verify_product_by_values,
    zero_residues,
)


def padic_spec(p, depth):
    return build_nullset(plan_blocks_padic(p, depth))


def product_spec(depth, order=2):
    return build_nullset(plan_blocks_product(itertools.cycle([order]), depth))


class TestFindTranslator:
    def test_z3_example(self):
        G = FiniteAbelianGroup((3,))
        assert find_translator(G, (0, 1), {0, 2}, 0) == 2

    def test_targets_inside_kept_gives_zero(self):
        G = FiniteAbelianGroup((2, 3))
        kept = tuple(G.index_of(e) for e in [(0, 0), (0, 1), (0, 2), (1, 0)])
        targets = {G.index_of((0, 1)), G.index_of((1, 0))}
        assert find_translator(G, kept, targets, 0) == G.index_of(zero_residues(G))

    def test_z8_example(self):
        G = FiniteAbelianGroup((8,))
        assert find_translator(G, tuple(range(6)), {3, 4}, 0) == 0

    @pytest.mark.parametrize("order, n", [(9, 0), (8, 0), (10, 2), (16, 2)])
    def test_kept_too_small(self, order, n):
        # the window's lower end is accepted and one index fewer refused,
        # where order * (n + 2) / (n + 3) is an integer (orders 9 and 10)
        # and where it is not (orders 8 and 16)
        G = FiniteAbelianGroup((order,))
        least = kept_window(order, n)[0]
        assert find_translator(G, tuple(range(least)), {3}, n) == 0
        message = f"kept set has {least - 1} of {order} elements, level {n} requires >= {least}"
        with pytest.raises(PreconditionViolated) as raised:
            find_translator(G, tuple(range(least - 1)), {3}, n)
        assert str(raised.value) == message

    def test_too_many_targets(self):
        G = FiniteAbelianGroup((8,))
        with pytest.raises(PreconditionViolated):
            find_translator(G, tuple(range(6)), {0, 1, 2}, 0)

    @pytest.mark.parametrize("group", [FiniteAbelianGroup((8,)), BlockGroup(2, 3), FiniteAbelianGroup((2, 4))])
    def test_gapless_kept_set_admits_zero(self, group):
        # a kept set of the whole block misses nothing, so every g works
        G = FiniteAbelianGroup(group.orders)
        elements = [G.element_at(i) for i in range(G.order)]
        for kept in (range(G.order), tuple(range(G.order))):
            for n in range(3):
                for targets in itertools.combinations(range(G.order), min(n + 2, 3)):
                    expected = G.index_of(least_translator_by_scan(G, elements, [elements[t] for t in targets]))
                    assert find_translator(group, kept, list(targets), n) == expected == 0

    def test_exhaustive_small_sweep(self):
        # every group of order <= 8 (and six p-adic digit blocks of order
        # <= 8), every level n <= 3, every kept set of exactly the minimal
        # admissible size, every nonempty target set within the width
        # budget; cross-checked against the full scan and the forbidden-set
        # characterisation.  A digit block's values are the integers mod its
        # order, so its scan runs in the cyclic group of that order.
        blocks = [BlockGroup(2, 1), BlockGroup(2, 2), BlockGroup(2, 3),
                  BlockGroup(3, 1), BlockGroup(5, 1), BlockGroup(7, 1)]
        searched = [*abelian_groups_up_to(8), *blocks]
        scanned = [*abelian_groups_up_to(8), *(FiniteAbelianGroup((B.order,)) for B in blocks)]
        for searched_group, G in zip(searched, scanned):
            indices = range(G.order)
            elements = [G.element_at(i) for i in indices]
            for n in range(4):
                size = -(-(G.order * (n + 2)) // (n + 3))
                if size >= G.order:
                    continue
                for kept in itertools.combinations(indices, size):
                    kept_elements = [elements[i] for i in kept]
                    complement = [elements[i] for i in indices if i not in kept]
                    for width in range(1, n + 3):
                        for targets in itertools.combinations(indices, width):
                            g = find_translator(searched_group, kept, targets, n)
                            target_elements = [elements[t] for t in targets]
                            valid = [G.index_of(e) for e in
                                     translators_by_scan(G, kept_elements, target_elements)]
                            assert g == valid[0]
                            forbidden = {G.index_of(sub_residues(G, s, c))
                                         for s in target_elements for c in complement}
                            assert set(valid) == set(indices) - forbidden

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(2, 7), min_size=2, max_size=4), st.data())
    def test_mixed_radix_differences_match_group_sub(self, orders, data):
        # carry-free subtraction on indices against residue-vector
        # subtraction, with the single index on either side
        G = FiniteAbelianGroup(tuple(orders))
        index = st.integers(0, G.order - 1)
        x = data.draw(index)
        ys = data.draw(st.lists(index, min_size=1, max_size=12))
        columns = digit_columns(G.orders, ys)
        ex = G.element_at(x)
        assert differences(columns, x, True) == [G.index_of(sub_residues(G, ex, G.element_at(y))) for y in ys]
        assert differences(columns, x, False) == [G.index_of(sub_residues(G, G.element_at(y), ex)) for y in ys]

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.integers(2, 6), min_size=2, max_size=4), st.integers(0, 4), st.randoms(use_true_random=False))
    def test_product_blocks_against_scan(self, orders, n, rng):
        # multi-coordinate blocks larger than the exhaustive sweep reaches,
        # random kept sets anywhere in the window and random target sets
        G = FiniteAbelianGroup(tuple(orders))
        lo, hi = kept_window(G.order, n)
        assume(lo <= hi)
        kept = tuple(sorted(rng.sample(range(G.order), rng.randint(lo, hi))))
        targets = rng.sample(range(G.order), rng.randint(1, min(n + 2, G.order)))
        expected = least_translator_by_scan(G, {G.element_at(i) for i in kept}, map(G.element_at, targets))
        assert find_translator(G, kept, targets, n) == G.index_of(expected)

    @pytest.mark.parametrize("orders,depth,scattered", [
        ((2,), 100, False), ((2,), 400, False), ((2, 3), 8, False), ((5, 251), 3, False),
        ((3, 4099), 3, False), ((2, 2, 4099), 3, False),
        ((2,), 100, True), ((2, 3), 8, True), ((5, 251), 3, True), ((2, 2, 4099), 2, True),
    ])
    def test_product_blocks_against_pairs(self, orders, depth, scattered):
        # every block of seeded product plans, with the built prefix kept
        # sets or scattered ones of several gaps, against the whole
        # forbidden set built pair by pair
        plan = plan_blocks_product(itertools.cycle(orders), depth)
        rng = random.Random(depth)
        slaloms = [random_slalom(plan, "n+2", seed) for seed in range(1 if depth > 100 else 4)]
        for n, (size, group) in enumerate(zip(plan.block_orders, plan.block_groups)):
            assert len(group.orders) > 1
            if scattered:
                kept = TestVerifyPadicAgainstValues.kept_set(size, n, rng)
            else:
                kept = range(kept_window(size, n)[1])
            for slalom in slaloms:
                targets = slalom.sets[n]
                assert find_translator(group, kept, targets, n) == product_translator_by_pairs(group, kept, targets)


# cyclic and product residue-vector blocks, and p-adic digit blocks
TRANSLATOR_BLOCKS = [
    FiniteAbelianGroup((7,)), FiniteAbelianGroup((16,)), FiniteAbelianGroup((2, 3)),
    FiniteAbelianGroup((3, 4)), FiniteAbelianGroup((2, 2, 3)),
    BlockGroup(2, 4), BlockGroup(3, 2), BlockGroup(5, 1),
]


def outcome(call):
    """What a call returns, or the type and message of the library error
    it raises."""
    try:
        return call()
    except (PreconditionViolated, NoTranslator) as error:
        return type(error), str(error)


def target_forms(targets):
    """The same target set as a sorted tuple, a sorted list, an unsorted
    list and tuple with repeats and a generator, each made afresh by a
    call."""
    ordered = sorted(set(targets))
    repeated = ordered[::-1] + ordered[: len(ordered) // 2 + 1]
    return [lambda: tuple(ordered), lambda: list(ordered), lambda: list(repeated), lambda: tuple(repeated),
            lambda: (t for t in ordered)]


class TestTranslatorInputForms:
    """``find_translator`` takes a sorted, duplicate-free tuple of targets
    as given and any other iterable through a sort, and reads a step-1
    range kept set off its ends: every input form gets the oracle's
    translator, and each precondition failure the same error."""

    @staticmethod
    def oracle(group, kept, targets):
        # scanned in the residue-vector group of the block's radices, so a
        # digit block is the cyclic group of its order
        G = FiniteAbelianGroup(group.orders)
        elements = [G.element_at(i) for i in range(G.order)]
        found = least_translator_by_scan(G, [elements[i] for i in kept], [elements[t] for t in targets])
        return G.index_of(found)

    @settings(max_examples=400, deadline=None)
    @given(st.sampled_from(TRANSLATOR_BLOCKS), st.integers(0, 3),
           st.sampled_from(["prefix", "shifted", "step 2", "scattered"]), st.data())
    def test_every_form_against_the_oracle(self, group, n, kind, data):
        order = group.order
        least = kept_window(order, n)[0]
        assume(least < order)
        index = st.integers(0, order - 1)
        if kind == "prefix":
            kept = range(data.draw(st.integers(least, order - 1)))
        elif kind == "shifted":
            size = data.draw(st.integers(least, order - 1))
            start = data.draw(st.integers(1, order - size))
            kept = range(start, start + size)
        elif kind == "step 2":   # half the block, below every level's least kept size
            kept = range(data.draw(index), order, 2)
        else:
            kept = tuple(sorted(data.draw(st.sets(index, min_size=least, max_size=order - 1))))
        targets = data.draw(st.lists(index, min_size=1, max_size=n + 2))
        expected = outcome(lambda: find_translator(group, tuple(kept), sorted(set(targets)), n))
        for form in target_forms(targets):
            assert outcome(lambda: find_translator(group, kept, form(), n)) == expected
        if kind == "step 2":
            assert expected[0] is PreconditionViolated and "requires >=" in expected[1]
        else:
            assert expected == self.oracle(group, kept, targets)

    @pytest.mark.parametrize("group", TRANSLATOR_BLOCKS)
    def test_precondition_errors_agree(self, group):
        order = group.order
        n = 1
        least = kept_window(order, n)[0]
        hi = order - 1
        cases = [
            ("level must be >= 0", range(hi), [0], -1),
            ("requires >=", range(least - 1), [0], n),
            ("requires >=", range(0, order, 2), [0], n),
            ("exceed the level-1 limit", range(hi), range(n + 3), n),
            ("outside", range(hi), [0, order], n),
            ("outside", range(hi), [-1, 0], n),
            ("outside", range(order - hi + 1, order + 1), [0], n),
        ]
        for text, kept, targets, level in cases:
            with pytest.raises(PreconditionViolated, match=text) as raised:
                find_translator(group, tuple(kept), sorted(set(targets)), level)
            expected = PreconditionViolated, str(raised.value)
            for kept_form in (kept, tuple(kept)):
                for form in target_forms(targets):
                    assert outcome(lambda: find_translator(group, kept_form, form(), level)) == expected

    @pytest.mark.parametrize("order", range(1, 13))
    def test_range_gaps_read_off_the_ends(self, order):
        for start in range(order):
            for stop in range(start + 1, order + 1):
                for step in (1, 2, 3):
                    kept = range(start, stop, step)
                    gaps = cover_module._gaps(kept, order)
                    assert gaps == cover_module._gaps(tuple(kept), order) == gaps_by_membership(kept, order)


class TestSlalomFacts:
    """A slalom computes its bounds and counts once, from its sets alone:
    the domain check accepts from them and names the first offending
    block as a block-by-block check does, against any plan."""

    @staticmethod
    def checked(slalom, plan):
        return outcome(lambda: slalom.check_domains(plan)), outcome(lambda: check_domains_by_blocks(slalom, plan))

    def test_offending_blocks_named_as_block_by_block(self):
        plan = plan_blocks_product(itertools.cycle([2]), 4)
        orders = plan.block_orders
        inside = [(0, size - 1) for size in orders]
        cases = {
            "last value at the order": {0: (1, orders[0])},
            "negative first value": {1: (-1, 2)},
            "only a later block": {3: (0, orders[3] + 5)},
            "two blocks": {2: (-3, 0), 3: (0, orders[3])},
        }
        for name, changed in cases.items():
            sets = tuple(changed.get(n, values) for n, values in enumerate(inside))
            mine, reference = self.checked(Slalom(width="n+2", sets=sets), plan)
            assert mine == reference, name
            block = min(changed)
            assert mine == (PreconditionViolated, f"slalom set {block} leaves the block domain [0, {orders[block]})")
        assert self.checked(Slalom(width="n+2", sets=tuple(inside)), plan) == (None, None)

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from([2, 3]), st.data())
    def test_against_block_by_block(self, coordinate, data):
        plan = plan_blocks_product(itertools.cycle([coordinate]), 4)
        sets = tuple(
            tuple(sorted(data.draw(st.sets(st.integers(-2, size + 1), min_size=1, max_size=n + 2))))
            for n, size in enumerate(plan.block_orders)
        )
        slalom = Slalom(width="n+2", sets=sets)
        mine, reference = self.checked(slalom, plan)
        assert mine == reference
        assert slalom.value_count == sum(map(len, sets))
        assert slalom.element_count == prod(map(len, sets))

    def test_one_slalom_against_two_plans(self):
        small = plan_blocks_product(itertools.cycle([2]), 3)
        large = plan_blocks_product(itertools.cycle([5]), 3)
        assert small.depth == large.depth and all(map(lt, small.block_orders, large.block_orders))
        sets = tuple((0, size) for size in small.block_orders)   # inside the large blocks only
        for first, second in ((small, large), (large, small)):
            slalom = Slalom(width="n+2", sets=sets)
            for plan in (first, second, first):
                assert self.checked(slalom, plan)[0] == (None if plan is large else (
                    PreconditionViolated, f"slalom set 0 leaves the block domain [0, {small.block_orders[0]})"))
            assert not any(isinstance(value, BlockPlan) for value in vars(slalom).values())

    def test_depth_mismatch_first(self):
        spec = padic_spec(3, 4)
        plan = spec.plan
        translate = tuple(G.element_at(0) for G in plan.block_groups)
        for sets in ((), ((-1,), (10**6,))):
            slalom = Slalom(width="n+2", sets=sets)
            message = f"slalom depth {len(sets)} != plan depth 4"
            with pytest.raises(PreconditionViolated, match=message):
                slalom.check_domains(plan)
            with pytest.raises(PreconditionViolated, match=message):
                verify_cover(spec, translate, slalom)
        empty = Slalom(width="n+2", sets=())
        assert (empty.least_value, empty.last_values, empty.value_count, empty.element_count) == (0, (), 0, 1)


class TestTracingContract:
    """The benchmark's tracer counts ``cover.find_translator`` and
    ``cover.verify_cover`` through the module's globals and reads their
    positional arguments, so a cover calls each there, once per block
    and once per cover."""

    @pytest.mark.parametrize("mode", ["product", "padic"])
    def test_calls_through_module_globals(self, mode):
        padic = mode == "padic"
        spec = padic_spec(3, 10) if padic else product_spec(10)
        plan = spec.plan
        slalom = random_slalom(plan, "(n+2)//2" if padic else "n+2", 4)
        with mock.patch.object(cover_module, "find_translator", wraps=cover_module.find_translator) as translate, \
                mock.patch.object(cover_module, "verify_cover", wraps=cover_module.verify_cover) as verify:
            if padic:
                cert = cover_padic_slalom(PadicContext(3, plan.boundaries[-1]), spec, slalom)
            else:
                cert = cover_product_slalom(spec, slalom)
        assert translate.call_count == plan.depth
        for n, call in enumerate(translate.call_args_list):
            assert call.kwargs == {}
            group, kept, targets, level = call.args
            assert group is plan.block_groups[n] and kept is spec.kept[n] and level == n
            values = set(slalom.sets[n])
            order = plan.block_orders[n]
            assert set(targets) == (values | {(v + 1) % order for v in values} if padic else values)
        verify.assert_called_once_with(spec, cert.translate, slalom)

    def test_bench_tracer_reads_the_library(self, monkeypatch):
        # the benchmark's tracer, installed in-process as bench/run.py
        # installs it, reads one p-adic and one product cover
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
        tracing = importlib.import_module("tracing")
        from nullcover import groups, nullset, structure

        for name in tracing.GROUP_CLASSES:
            assert isinstance(getattr(groups, name), type)
        covers = []
        for padic in (True, False):
            spec = padic_spec(2, 12) if padic else product_spec(9)
            slalom = random_slalom(spec.plan, "(n+2)//2" if padic else "n+2", 3)
            _ = spec.plan.block_groups, spec.gaps, spec.cylinders   # built before tracing
            covers.append((padic, spec, slalom))
        ctx = PadicContext(2, covers[0][1].plan.boundaries[-1])
        tracer = tracing.Tracer()
        tracer.install(SimpleNamespace(cover=cover_module, structure=structure, nullset=nullset, groups=groups))
        try:
            for padic, spec, slalom in covers:
                if padic:
                    cover_module.cover_padic_slalom(ctx, spec, slalom)
                else:
                    cover_module.cover_product_slalom(spec, slalom)
        finally:
            tracer.uninstall()
        assert cover_padic_slalom is cover_module.cover_padic_slalom   # the patches are undone
        order_sum, slacks, depths = 0, [], 0
        for padic, spec, slalom in covers:
            for values, order, kept in zip(slalom.sets, spec.plan.block_orders, spec.kept):
                targets = set(values) | {(v + 1) % order for v in values} if padic else set(values)
                order_sum += order
                slacks.append(order - len(targets) * (order - len(kept)))
            depths += spec.plan.depth
        counters = tracer.counters
        assert tracer.calls["cover.translate"] == depths and tracer.calls["cover.verify"] == 2
        assert counters["cover.translate.order_sum"] == order_sum
        assert tracer.min_slack == min(slacks)
        # one element_at per translate block and one index_of per block
        # checked, each counted once
        assert counters["groups.calls"] == 2 * depths
        assert counters["groups.errors"] == counters["cover.errors"] == 0


class TestGapCylinders:
    """The one carry-free layer of product blocks: a gap as disjoint
    cylinders, which the product check and the translator search read."""

    @settings(max_examples=400, deadline=None)
    @given(st.lists(st.integers(2, 7), min_size=1, max_size=4), st.data())
    def test_cylinders_partition_the_gap(self, radices, data):
        G = FiniteAbelianGroup(tuple(radices))
        a = data.draw(st.integers(0, G.order - 1))
        b = data.draw(st.integers(a + 1, G.order))
        chains = cover_module._gap_cylinders(a, b, G.orders, G.weights)
        covered = []
        count = 0
        for digits, steps in chains:
            for i, lo, hi in steps:
                count += 1
                assert 0 <= lo <= hi <= radices[i]
                # the fixed digits digits[:i], digit i in [lo, hi), later digits free
                covered += [G.index_of((*digits[:i], d, *rest)) for d in range(lo, hi)
                            for rest in itertools.product(*map(range, radices[i + 1:]))]
        assert count <= 2 * len(radices) - 1
        # disjoint, and their union is exactly [a, b)
        assert sorted(covered) == list(range(a, b))


class TestCyclicSweep:
    """The translators of a cyclic block against building, sorting and
    sweeping every (target, gap) interval, without the counting
    preconditions of ``find_translator``, so that some target sets
    forbid the whole group: the jump probe on a kept set of one gap, and
    the sweep's one-coordinate case on several gaps."""

    @staticmethod
    def case(rng):
        order = rng.randint(1, 40)
        if order > 2 and rng.random() < 0.5:
            # several random holes, as runs of consecutive indices
            gaps = []
            for i in sorted(rng.sample(range(order), rng.randint(2, order - 1))):
                if gaps and gaps[-1][1] == i:
                    gaps[-1] = (gaps[-1][0], i + 1)
                else:
                    gaps.append((i, i + 1))
        else:
            a = rng.randrange(order)
            gaps = [(a, rng.randint(a + 1, order))]
        targets = set(rng.sample(range(order), rng.randint(0, min(order, 8))))
        # targets at both ends of the block, where the intervals wrap
        targets |= {end for end in (0, order - 1) if rng.random() < 0.3}
        return order, gaps, sorted(targets)

    @pytest.mark.parametrize("seed", range(8))
    def test_against_sorted_intervals(self, seed):
        rng = random.Random(seed)
        seen = set()
        for _ in range(2500):
            order, gaps, targets = self.case(rng)
            if len(gaps) > 1:
                g = cover_module._product_translator(targets, gaps, (order,), (1,))
            else:
                g = cover_module._cyclic_translator(targets, gaps[0], order)
            assert g == cyclic_translator_by_sorting(targets, gaps, order)
            seen.add(("exhausted" if g == order else "free", len(gaps) > 1,
                      any(t < a for t in targets for a, _ in gaps)))
        assert len(seen) == 8

    def test_interleaved_gaps_take_one_sweep(self):
        # one block of order 2^16 whose third missing indices are single
        # gaps, interleaved so that targets 0 and 2^15 forbid every g below
        # their count: each of the 21,845 gaps holds one index
        order = 1 << 16
        count = order - kept_window(order, 0)[0]
        half = order // 2
        missing = {-g % order if g % 2 == 0 else half - g for g in range(count)}
        kept = tuple(i for i in range(order) if i not in missing)
        targets = (0, half)
        gaps = cover_module._gaps(kept, order)
        assert len(gaps) == count
        real = cover_module._product_translator
        with mock.patch.object(cover_module, "_product_translator", wraps=real) as sweep:
            g = find_translator(FiniteAbelianGroup((order,)), kept, targets, 0)
        assert sweep.call_count == 1
        assert g == count == cyclic_translator_by_sorting(targets, gaps, order)


class TestProductProbe:
    """The jump probe of a block of several coordinates, whose kept set
    has one gap, against the whole forbidden set built pair by pair,
    without the counting preconditions of ``find_translator``."""

    @staticmethod
    def probe(group, gap, targets):
        return cover_module._probed_translator(sorted(set(targets)), gap, group.orders, group.weights)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(2, 5), min_size=2, max_size=4), st.data())
    def test_against_pairs(self, orders, data):
        G = FiniteAbelianGroup(tuple(orders))
        index = st.integers(0, G.order - 1)
        a = data.draw(index)
        b = data.draw(st.integers(a + 1, G.order))
        kept = [i for i in range(G.order) if not a <= i < b]
        targets = data.draw(st.sets(index, max_size=6))
        # the order when the targets forbid the whole block
        assert self.probe(G, (a, b), targets) == product_translator_by_pairs(G, kept, targets)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(2, 8), min_size=2, max_size=5), st.data())
    def test_jump_bound(self, orders, data):
        # each pass but the last ends past one of the at most
        # |targets| * (4k - 2) index intervals that the targets and the
        # cylinders forbid, and bisects at most twice per cylinder.  A pass
        # walks the first chain of cylinders once, which counts it
        G = FiniteAbelianGroup(tuple(orders))
        index = st.integers(0, G.order - 1)
        a = data.draw(index)
        b = data.draw(st.integers(a + 1, G.order))
        targets = sorted(data.draw(st.sets(index, max_size=10)))
        walks = []

        class Walked(list):
            def __iter__(self):
                walks.append(self)
                return super().__iter__()

        def cylinders(*args):
            (low, first), (high, second) = real_cylinders(*args)
            return (low, Walked(first)), (high, second)

        real_cylinders = cover_module._gap_cylinders
        chains = real_cylinders(a, b, G.orders, G.weights)
        with (mock.patch.object(cover_module, "_gap_cylinders", cylinders),
              mock.patch.object(cover_module, "bisect_left", wraps=cover_module.bisect_left) as bisections):
            g = cover_module._probed_translator(targets, (a, b), G.orders, G.weights)
        kept = range(b, G.order + a)   # the complement of the gap, read mod the order
        assert g == product_translator_by_pairs(G, [i % G.order for i in kept], targets)
        passes = len(walks)
        assert 1 <= passes <= len(targets) * (4 * len(orders) - 2) + 1
        assert bisections.call_count <= 2 * sum(len(steps) for _, steps in chains) * passes

    @pytest.mark.parametrize(
        "orders,gap,targets,expected",
        [
            # the gap is digit 1 in [3, 5) under digit 0 = 0.  From g = 0 the
            # window {3, 4} holds 3; at g = 1 it wraps, [4, 6), and its part
            # past 5 holds 0, read as digit 5; at g = 3 it lies wholly past
            # 5, [6, 8), and holds 1, read as 6, which forbids g up to 4
            ((2, 5), (3, 5), (0, 1, 3), 5),
            # the gap is digit 1 in [1, 3): g = 0 meets 2 and jumps to 2,
            # whose window [3, 5) holds 3 below the radix 4 and 0 past it,
            # read as 4, which forbids g up to 3 where 3 forbids only 2
            ((2, 4), (1, 3), (0, 2, 3), 4),
            # windows below and past the radix 2 forbid the whole block
            ((2, 2), (1, 2), (0, 1, 2, 3), 4),
        ],
    )
    def test_windows_past_the_radix(self, orders, gap, targets, expected):
        G = FiniteAbelianGroup(orders)
        kept = [i for i in range(G.order) if not gap[0] <= i < gap[1]]
        assert product_translator_by_pairs(G, kept, targets) == expected
        assert self.probe(G, gap, targets) == expected

    def test_large_missing_set_is_probed(self):
        # one block of order 2^21 whose kept set misses about 350,000
        # indices: the probe reads the gap's cylinders, not its indices,
        # and the interval sweep never runs
        G = FiniteAbelianGroup((2, 1 << 20))
        hi = kept_window(G.order, 0)[1]
        assert G.order - hi > 349_000
        targets = (5, G.order - 3)
        with mock.patch.object(cover_module, "_product_translator") as sweep:
            g = find_translator(G, range(hi), targets, 0)
        assert not sweep.called
        assert g == product_translator_by_pairs(G, range(hi), targets)

    def test_deep_product_blocks_are_probed(self):
        # blocks of orders 2 miss one or two indices, so the probe answers
        # in every block and the interval sweep never runs
        spec = product_spec(60)
        slalom = random_slalom(spec.plan, "n+2", 60)
        with mock.patch.object(cover_module, "_product_translator") as sweep:
            cert = cover_product_slalom(spec, slalom)
        assert not sweep.called
        assert cert.translate == tuple(
            G.element_at(product_translator_by_pairs(G, kept, values))
            for G, kept, values in zip(spec.plan.block_groups, spec.kept, slalom.sets)
        )


class TestGapPairs:
    """The p-adic check's paired gap search: both carry states of a block
    from shared bisections, read off the row of a one-block backward
    pass, against one search per shift."""

    @staticmethod
    def both(values, gaps, t, order):
        return (cover_module._first_in_gaps(values, gaps, t, order),
                cover_module._first_in_gaps(values, gaps, t + 1, order))

    @staticmethod
    def pair(values, gaps, t, order):
        (row,), _, _ = cover_module._padic_backward([values], [t], [order], [gaps])
        _, _, _, f0, f1, *_ = row
        return f0, f1

    @settings(max_examples=1000, deadline=None)
    @given(st.integers(1, 40), st.data())
    def test_against_two_searches(self, order, data):
        index = st.integers(0, order - 1)
        values = sorted(data.draw(st.sets(index, min_size=1, max_size=6)))
        # pairs of distinct cuts, so gaps may start at 0 or end at the order
        ends = st.sampled_from([0, order]) | st.integers(0, order)
        cuts = sorted(data.draw(st.sets(ends, max_size=8)))
        gaps = list(zip(cuts[::2], cuts[1::2]))
        t = data.draw(st.just(order - 1) | index)
        assert self.pair(values, gaps, t, order) == self.both(values, gaps, t, order)

    @pytest.mark.parametrize("order", range(1, 7))
    def test_exhaustive_small_orders(self, order):
        # every value set, every set of disjoint gaps and every shift
        indices = range(order)
        value_sets = [c for r in range(1, order + 1) for c in itertools.combinations(indices, r)]
        cut_sets = [c for r in range(0, order + 2, 2) for c in itertools.combinations(range(order + 1), r)]
        for values in value_sets:
            for cuts in cut_sets:
                gaps = list(zip(cuts[::2], cuts[1::2]))
                for t in indices:
                    assert self.pair(values, gaps, t, order) == \
                        self.both(values, gaps, t, order)


class TestPlans:
    def test_product_plan_all_twos(self):
        plan = plan_blocks_product([2] * 11, 3)
        assert plan.boundaries == (0, 3, 7, 11)
        assert plan.block_orders == (8, 16, 16)

    def test_product_plan_single_large_factor(self):
        plan = plan_blocks_product([7], 1)
        assert plan.boundaries == (0, 1)

    def test_first_block_of_twos_needs_three(self):
        assert plan_blocks_product([2] * 3, 1).block_orders == (8,)

    def test_product_plan_exhaustion(self):
        with pytest.raises(PreconditionViolated):
            plan_blocks_product([2] * 5, 2)

    def test_padic_plan_p2(self):
        assert plan_blocks_padic(2, 3).boundaries == (0, 3, 7, 11)

    def test_padic_plan_p11(self):
        assert plan_blocks_padic(11, 1).boundaries == (0, 1)

    def test_block_groups_built_once_per_plan(self):
        for plan in (plan_blocks_padic(3, 4), plan_blocks_product(itertools.cycle([2, 3]), 4)):
            groups = plan.block_groups
            assert isinstance(groups, tuple) and len(groups) == plan.depth
            assert plan.block_groups is groups
            assert [g.order for g in groups] == list(plan.block_orders)
            assert plan.block_orders is plan.block_orders
            assert BlockPlan.from_json(plan.to_json()) == plan

    @pytest.mark.parametrize("p,depth", [(2, 6), (3, 4), (5, 3), (7, 3)])
    def test_padic_blocks_read_digit_slices(self, p, depth):
        # block n's codec reads the digits [c_n, c_{n+1}) of the whole
        # truncated integer, which the plan's cuts place
        plan = plan_blocks_padic(p, depth)
        whole = PadicContext(p, plan.boundaries[-1])
        rng = random.Random(p * 100 + depth)
        for _ in range(50):
            x = rng.randrange(whole.order)
            digits = whole.element_at(x)
            for group, a, b in zip(plan.block_groups, plan.boundaries, plan.boundaries[1:]):
                assert group == BlockGroup(p, b - a)
                assert digits[a:b] == group.element_at(x // p**a % p ** (b - a))

    def test_padic_block_bits_capped_before_any_power(self):
        # len * p.bit_length() may reach NUMERIC_DEPTH_CAP and no further
        start = time.perf_counter()
        assert BlockPlan(mode="padic", boundaries=(0, NUMERIC_DEPTH_CAP // 2), p=2).depth == 1
        for p, cuts in ((2, (0, NUMERIC_DEPTH_CAP // 2 + 1)), (3, (0, 3, 10**9)), (65537, (0, 2000))):
            with pytest.raises(CapExceeded):
                BlockPlan(mode="padic", boundaries=cuts, p=p)
        assert time.perf_counter() - start < 0.5

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 65537])
    def test_padic_cuts_closed_form(self, p):
        # step n is the least m with p^m > 2(n + 3): the number of base-p
        # digits of 2(n + 3)
        def digits(x):
            return len(f"{x:b}") if p == 2 else next(m for m in itertools.count() if p**m > x)

        steps = [digits(2 * (n + 3)) for n in range(60)]
        cuts = (0, *itertools.accumulate(steps))
        for depth in range(1, 61):
            assert plan_blocks_padic(p, depth).boundaries == cuts[: depth + 1]
        # the p-adic plan is the product plan over the radices (p, p, ...)
        assert plan_blocks_product(itertools.repeat(p), 60).boundaries == cuts

    def test_product_block_bits_capped(self):
        # an order-2 coordinate has 2 bits, so 16,384 of them reach the cap
        # and one more passes it, judged before the block order is formed
        fits = NUMERIC_DEPTH_CAP // 2
        assert BlockPlan(mode="product", boundaries=(0, fits), orders=(2,) * fits).depth == 1
        with pytest.raises(CapExceeded, match=f"block 0 has {NUMERIC_DEPTH_CAP + 2} bits"):
            BlockPlan(mode="product", boundaries=(0, fits + 1), orders=(2,) * (fits + 1))
        with pytest.raises(CapExceeded, match=f"block 1 has {21 * 1561} bits"):
            BlockPlan(mode="product", boundaries=(0, 1, 1562), orders=(7,) + (1 << 20,) * 1561)
        start = time.perf_counter()
        with pytest.raises(CapExceeded, match=f"{NUMERIC_DEPTH_CAP}-bit block cap"):
            BlockPlan(mode="product", boundaries=(0, 800_000), orders=(2,) * 800_000)
        assert time.perf_counter() - start < 0.5

    def test_padic_plan_p7_first_cut(self):
        assert plan_blocks_padic(7, 4).boundaries[1] == 1

    def test_plan_json_round_trip(self):
        for plan in (plan_blocks_padic(3, 4), plan_blocks_product([2, 3] * 8, 3)):
            assert BlockPlan.from_json(plan.to_json()) == plan

    def test_depth_cap_before_any_work(self):
        def unread():
            raise AssertionError("an order was read")
            yield 2

        start = time.perf_counter()
        for supply in (unread(), itertools.cycle([2])):
            with pytest.raises(CapExceeded, match=str(NUMERIC_DEPTH_CAP)):
                plan_blocks_product(supply, NUMERIC_DEPTH_CAP + 1)
        with pytest.raises(CapExceeded, match=str(NUMERIC_DEPTH_CAP)):
            plan_blocks_padic(2, NUMERIC_DEPTH_CAP + 1)
        assert time.perf_counter() - start < 0.1
        assert plan_blocks_padic(2, NUMERIC_DEPTH_CAP).depth == NUMERIC_DEPTH_CAP


class TestBuildNullset:
    def test_p2_first_blocks(self):
        spec = padic_spec(2, 2)
        assert list(spec.kept[0]) == list(range(6))
        assert len(spec.kept[1]) == 14

    def test_window_nonempty_for_minimal_block_orders(self):
        for n in range(10_001):
            for size in (2 * (n + 3) + 1, 2 * (n + 3) + 2):
                lo, hi = kept_window(size, n)
                assert lo <= hi

    def test_spec_json_round_trip(self):
        spec = padic_spec(3, 3)
        assert NullsetSpec.from_json(spec.to_json()) == spec

    def test_total_block_size_cap(self):
        # p = 2 at depth 1000: the blocks hold 1,355,080 elements in all
        start = time.perf_counter()
        with pytest.raises(CapExceeded, match="1355080"):
            build_nullset(plan_blocks_padic(2, 1000))
        with pytest.raises(CapExceeded):
            build_nullset(plan_blocks_product([2**20 + 1], 1))
        assert time.perf_counter() - start < 0.5
        assert sum(padic_spec(2, 100).plan.block_orders) == 15_432

    def test_rejects_kept_size_outside_window(self):
        spec = padic_spec(2, 1)
        with pytest.raises(PreconditionViolated):
            NullsetSpec(plan=spec.plan, kept=(tuple(range(7)),))

    @pytest.mark.parametrize("depth", [8, 100, 850])
    def test_built_and_parsed_specs_are_equal(self, depth):
        spec = padic_spec(2, depth)
        parsed = NullsetSpec.from_json(json.loads(json.dumps(spec.to_json())))
        assert parsed == spec
        assert hash(parsed) == hash(spec)
        by_hand = NullsetSpec(plan=spec.plan, kept=tuple(tuple(k) for k in spec.kept))
        assert by_hand == spec
        assert hash(by_hand) == hash(spec)

    @pytest.mark.parametrize("depth", [1, 8, 100, 850])
    def test_json_matches_expanded_tuples(self, depth):
        for plan in (plan_blocks_padic(2, depth), plan_blocks_product(itertools.cycle([2]), depth)):
            assert json.dumps(build_nullset(plan).to_json()) == json.dumps(nullset_json_by_tuples(plan))

    def test_build_holds_no_index(self):
        plan = plan_blocks_padic(2, 850)
        tracemalloc.start()
        try:
            spec = build_nullset(plan)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert all(isinstance(k, range) for k in spec.kept)
        assert peak < 1 << 20

    def test_cylinders_exactly_for_blocks_of_several_coordinates(self):
        plans = [plan_blocks_product([9, 2, 5, 11, 3, 5, 17, 2, 2, 2, 2], 5), plan_blocks_padic(3, 5)]
        shapes = set()
        for plan in plans:
            spec = build_nullset(plan)
            for group, gaps, cylinders in zip(plan.block_groups, spec.gaps, spec.cylinders):
                shapes.add(len(group.orders) > 1)
                assert (cylinders is None) == (len(group.orders) == 1)
                if cylinders is not None:
                    assert len(cylinders) == len(gaps)
        assert shapes == {False, True}

    def test_kept_sets_take_one_canonical_form(self):
        plan = plan_blocks_product([2, 2, 2], 1)   # one block of order 8, which keeps 6
        run = NullsetSpec(plan=plan, kept=((1, 2, 3, 4, 5, 6),))
        assert run.kept == (range(1, 7),)
        assert NullsetSpec(plan=plan, kept=(range(1, 7),)) == run
        spread = NullsetSpec(plan=plan, kept=((0, 1, 2, 4, 5, 6),))
        assert spread.kept == ((0, 1, 2, 4, 5, 6),)
        assert spread.gaps == (((3, 4), (7, 8)),)
        with pytest.raises(PreconditionViolated, match="sorted"):
            NullsetSpec(plan=plan, kept=(range(5, -1, -1),))
        for outside in (range(3, 9), range(0, 12, 2)):
            with pytest.raises(PreconditionViolated, match="outside"):
                NullsetSpec(plan=plan, kept=(outside,))

    @given(st.lists(st.integers(-5, 5), max_size=8))
    def test_increasing_check_accepts_what_sorting_did(self, values):
        accepted = list(values) == sorted(set(values))
        assert _strictly_increasing(values) == accepted
        assert _strictly_increasing(tuple(values)) == accepted
        if not values:
            return
        if accepted:
            assert Slalom(width=(9,), sets=(tuple(values),)).sets[0] == tuple(values)
            kept = cover_module._canonical_kept(0, values)
            assert tuple(kept) == tuple(values)
            assert isinstance(kept, range) == (values[-1] - values[0] == len(values) - 1)
        else:
            with pytest.raises(PreconditionViolated, match="sorted"):
                Slalom(width=(9,), sets=(tuple(values),))
            with pytest.raises(PreconditionViolated, match="sorted"):
                cover_module._canonical_kept(0, values)


class TestIntArray:
    def test_plain_ints_and_decimal_strings(self):
        assert _int_array([3, -1, 2**80], "x", "xs") == (3, -1, 2**80)
        assert _int_array([], "x", "xs") == ()
        assert _int_array([1, "22", "-3"], "x", "xs") == (1, 22, -3)

    @pytest.mark.parametrize("bad", [True, False, 2.0, "+4", " 4", "1_0", None, [1]])
    def test_other_items_raise(self, bad):
        with pytest.raises(SchemaError):
            _int_array([1, bad, 2], "x", "xs")

    def test_non_arrays_raise(self):
        for bad in ((1, 2), "12", {"a": 1}, 3):
            with pytest.raises(SchemaError):
                _int_array(bad, "x", "xs")


def fraction_from_fifteenth(den, num):
    # a fraction with denominator den in [1/15, 1), where the scan oracle is fast
    lo = -(-den // 15)
    return Fraction(lo + num % (den - lo), den)


class TestMeasure:
    def test_bound_values(self):
        assert bound_product(1) == Fraction(5, 6)
        assert bound_product(2) == Fraction(35, 48)

    def test_bound_strictly_decreasing(self):
        values = [bound_product(n) for n in range(50)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_measure_below_bound(self):
        spec = padic_spec(2, 6)
        for n in range(1, 7):
            assert measure_upper(spec, n) <= bound_product(n)

    def test_measure_strictly_decreasing(self):
        spec = padic_spec(3, 8)
        values = [measure_upper(spec, n) for n in range(spec.depth + 1)]
        assert values[0] == 1
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_first_below_tenth(self):
        # regression anchor computed by direct exact evaluation
        assert first_bound_below(Fraction(1, 10)) == 225
        assert bound_product(225) < Fraction(1, 10) <= bound_product(224)

    @given(st.integers(-3, 399))
    def test_bound_matches_product(self, n):
        assert bound_product(n) == bound_product_by_product(n)

    @settings(deadline=None)
    @given(
        st.one_of(
            st.builds(fraction_from_fifteenth, st.integers(2, 10**12), st.integers(0, 10**12)),
            # thresholds equal to a bound value: the answer is the next N
            st.integers(1, 508).map(bound_product_by_product),
            st.floats(1 / 15, 1, exclude_max=True),
        )
    )
    def test_first_below_matches_scan(self, threshold):
        assert first_bound_below(threshold) == first_bound_below_by_scan(threshold)

    @settings(deadline=None)
    @given(st.integers(2, NUMERIC_DEPTH_CAP - 1))
    def test_first_below_at_both_ends_of_each_step(self, n):
        # the answer is n for every threshold in (bound(n), bound(n - 1)]
        assert first_bound_below(bound_product(n - 1)) == n
        assert first_bound_below(bound_product(n) * (1 + Fraction(1, 10**9))) == n

    def test_first_below_hundredth(self):
        n = first_bound_below(Fraction(1, 100))
        assert n == 22634
        assert bound_product(n) < Fraction(1, 100) <= bound_product(n - 1)

    @pytest.mark.parametrize("threshold", [Fraction(1, 1000), Fraction(1, 10**400), 1e-300, 5e-324])
    def test_first_below_cap(self, threshold):
        start = time.perf_counter()
        with pytest.raises(CapExceeded, match=str(NUMERIC_DEPTH_CAP)):
            first_bound_below(threshold)
        assert time.perf_counter() - start < 0.1

    # the last value has more digits than int-to-str conversion allows,
    # so the error message must not format it
    @pytest.mark.parametrize(
        "threshold", [0, 1, Fraction(-1, 2), Fraction(3, 2), Fraction(10**5000 + 1, 10**5000)]
    )
    def test_first_below_rejects_outside_unit_interval(self, threshold):
        with pytest.raises(PreconditionViolated):
            first_bound_below(threshold)

    @given(
        st.one_of(
            st.tuples(st.just("padic"), st.sampled_from([2, 3, 5]), st.integers(1, 8)),
            st.tuples(st.just("product"), st.sampled_from([2, 3, 5, 7]), st.integers(1, 6)),
        ),
        st.data(),
    )
    def test_measure_matches_product_at_every_level(self, shape, data):
        mode, base, depth = shape
        if mode == "padic":
            plan = plan_blocks_padic(base, depth)
        else:
            plan = plan_blocks_product(itertools.cycle([base]), depth)
        sizes = [data.draw(st.integers(*kept_window(size, n))) for n, size in enumerate(plan.block_orders)]
        spec = NullsetSpec(plan=plan, kept=tuple(tuple(range(k)) for k in sizes))
        for n in range(depth + 1):
            expected = prod(
                (Fraction(k, size) for k, size in zip(sizes[:n], plan.block_orders)), start=Fraction(1)
            )
            assert measure_upper(spec, n) == expected <= bound_product_by_product(n)


class TestWidthTables:
    @pytest.mark.parametrize("table", [(1.5,), ("x",), (True,), (0,), (2, 2.0)])
    def test_rejects_non_positive_int_entries(self, table):
        with pytest.raises(SchemaError):
            width_fn(table)


class TestProductCover:
    def test_identity_translate_when_targets_kept(self):
        spec = product_spec(2)
        slalom = Slalom(width="n+2", sets=((0, 1), (2, 3, 4)))
        cert = cover_product_slalom(spec, slalom)
        assert cert.translate == tuple(map(zero_residues, spec.plan.block_groups))
        assert cert.verified

    def test_depth_two_example(self):
        spec = product_spec(2)
        slalom = Slalom(width="n+2", sets=((6,), (14, 15)))
        cert = cover_product_slalom(spec, slalom)
        assert cert.verified and cert.checked_count == 2
        # oracle: least translator per block by scanning the whole block group
        for n, G in enumerate(spec.plan.block_groups):
            kept = [G.element_at(i) for i in spec.kept[n]]
            targets = [G.element_at(v) for v in slalom.sets[n]]
            assert cert.translate[n] == least_translator_by_scan(G, kept, targets)
        assert cert.translate == ((0, 1, 0), (0, 0, 1, 0))

    def test_checked_count_is_element_count(self):
        spec = product_spec(3)
        slalom = random_slalom(spec.plan, "n+2", seed=5)
        cert = cover_product_slalom(spec, slalom)
        assert cert.checked_count == slalom.element_count

    def test_mixed_orders(self):
        spec = build_nullset(plan_blocks_product(itertools.cycle([2, 3, 5]), 4))
        for seed in range(20):
            slalom = random_slalom(spec.plan, "n+2", seed=seed)
            assert cover_product_slalom(spec, slalom).verified

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.integers(2, 7), min_size=1, max_size=4),
        st.integers(1, 3),
        st.integers(0, 2**32),
    )
    def test_every_certificate_verifies(self, orders, depth, seed):
        spec = build_nullset(plan_blocks_product(itertools.cycle(orders), depth))
        slalom = random_slalom(spec.plan, "n+2", seed=seed)
        cert = cover_product_slalom(spec, slalom)
        assert cert.verified
        assert verify_cover(spec, cert.translate, slalom).ok


class TestPadicCover:
    def test_depth_one_example(self):
        spec = padic_spec(2, 1)
        slalom = Slalom(width="(n+2)//2", sets=((3,),))
        cert = cover_padic_slalom(PadicContext(2, 3), spec, slalom)
        assert cert.translate == ((0, 0, 0),)
        assert cert.verified and cert.checked_count == 1

    def test_identity_translate_when_carry_closure_kept(self):
        spec = padic_spec(2, 2)
        slalom = Slalom(width="(n+2)//2", sets=((2,), (5,)))  # values and successors kept
        cert = cover_padic_slalom(PadicContext(2, 7), spec, slalom)
        assert cert.translate == ((0, 0, 0), (0, 0, 0, 0))

    def test_width_budget_enforced(self):
        spec = padic_spec(2, 1)
        wide = Slalom(width=(2,), sets=((3, 4),))
        with pytest.raises(PreconditionViolated):
            cover_padic_slalom(PadicContext(2, 3), spec, wide)

    def test_context_must_match_plan(self):
        spec = padic_spec(2, 2)
        slalom = Slalom(width="(n+2)//2", sets=((3,), (4,)))
        with pytest.raises(PreconditionViolated):
            cover_padic_slalom(PadicContext(2, 5), spec, slalom)
        with pytest.raises(PreconditionViolated):
            cover_padic_slalom(PadicContext(3, 7), spec, slalom)

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_random_slaloms_verified_by_integer_oracle(self, p):
        rng = random.Random(p)
        for depth in (1, 2, 3, 4, 5):
            spec = padic_spec(p, depth)
            ctx = PadicContext(p, spec.plan.boundaries[-1])
            for _ in range(10):
                slalom = random_slalom(spec.plan, "(n+2)//2", seed=rng.randrange(2**32))
                cert = cover_padic_slalom(ctx, spec, slalom)
                # independent oracle: plain integer arithmetic on values
                cuts = spec.plan.boundaries
                offset = sum(
                    d * p**k
                    for block, a in zip(cert.translate, cuts)
                    for k, d in enumerate(block, start=a)
                )
                for combo in itertools.product(*slalom.sets):
                    value = sum(v * p ** cuts[i] for i, v in enumerate(combo))
                    shifted = (value + offset) % p ** cuts[-1]
                    for i in range(depth):
                        block_value = shifted // p ** cuts[i] % p ** (cuts[i + 1] - cuts[i])
                        assert block_value in spec.kept[i]


class TestVerifyCover:
    def test_reverifying_certificate_is_true(self):
        spec = padic_spec(3, 3)
        slalom = random_slalom(spec.plan, "(n+2)//2", seed=11)
        cert = cover_padic_slalom(PadicContext(3, spec.plan.boundaries[-1]), spec, slalom)
        result = verify_cover(spec, cert.translate, slalom)
        assert result.ok and result.witness is None
        assert result.checked_count == slalom.element_count

    def test_corrupted_translate_detected(self):
        # depth-one cover of the singleton at value 3: the computed offset
        # is 0 and brute force over all eight offsets shows exactly values
        # 3 and 4 break coverage (3 + 3 and 3 + 4 land outside the kept
        # set {0..5}), while 1 and 2 still cover
        spec = padic_spec(2, 1)
        slalom = Slalom(width="(n+2)//2", sets=((3,),))
        block = spec.plan.block_groups[0]
        outcomes = {}
        for value in range(8):
            result = verify_cover(spec, (block.element_at(value),), slalom)
            outcomes[value] = (result.ok, result.witness)
        assert outcomes[0] == (True, None)
        assert outcomes[1] == (True, None)
        assert outcomes[3] == (False, (3,))
        assert outcomes[4] == (False, (3,))
        assert {v for v, (ok, _) in outcomes.items() if not ok} == {3, 4}

    def test_product_witness_is_lexicographically_least(self):
        spec = product_spec(2)
        slalom = Slalom(width="n+2", sets=((0, 6), (0, 15)))
        G0, G1 = spec.plan.block_groups
        bad = (G0.element_at(1), G1.element_at(1))
        result = verify_cover(spec, bad, slalom)
        # oracle: scan the four slalom elements in order
        kept0 = {add_residues(G0, bad[0], G0.element_at(i)) for i in spec.kept[0]}
        kept1 = {add_residues(G1, bad[1], G1.element_at(i)) for i in spec.kept[1]}
        expected = None
        for a, b in itertools.product(*slalom.sets):
            if G0.element_at(a) not in kept0 or G1.element_at(b) not in kept1:
                expected = (a, b)
                break
        assert not result.ok and result.witness == expected

    def test_singleton_slalom(self):
        spec = product_spec(1)
        slalom = Slalom(width="n+2", sets=((7,),))
        cert = cover_product_slalom(spec, slalom)
        assert verify_cover(spec, cert.translate, slalom).ok

    def test_cap(self):
        # no element cap is left to set: the check and both covers take none
        spec = product_spec(2)
        slalom = Slalom(width="n+2", sets=((0, 1), (0, 1, 2)))
        translate = tuple(map(zero_residues, spec.plan.block_groups))
        with pytest.raises(TypeError):
            verify_cover(spec, translate, slalom, cap=5)
        with pytest.raises(TypeError):
            cover_product_slalom(spec, slalom, cap_verify=5)
        padic = padic_spec(2, 1)
        with pytest.raises(TypeError):
            cover_padic_slalom(PadicContext(2, 3), padic, Slalom("(n+2)//2", ((0,),)), cap_verify=5)

    def test_no_element_cap_by_default(self):
        padic, product = padic_spec(2, 30), product_spec(30)
        ctx = PadicContext(2, padic.plan.boundaries[-1])
        for spec, width, cover in ((padic, "(n+2)//2", lambda s: cover_padic_slalom(ctx, padic, s)),
                                   (product, "n+2", lambda s: cover_product_slalom(product, s))):
            slalom = random_slalom(spec.plan, width, seed=30)
            translate = cover(slalom).translate
            assert slalom.element_count > DEFAULT_VERIFY_CAP
            assert verify_cover(spec, translate, slalom).ok
        # nor a cap on the block order: one block of order 2^21, above the
        # default enumeration cap, in each mode
        order = 1 << 21
        hi = kept_window(order, 0)[1]
        targets = (5, order - 3)
        padic = NullsetSpec(BlockPlan("padic", (0, 21), p=2), (range(hi),))
        product = NullsetSpec(BlockPlan("product", (0, 21), orders=(2,) * 21), (range(hi),))
        for spec, slalom, cover in (
            (padic, Slalom("(n+2)//2", ((order - 1,),)),
             lambda s: cover_padic_slalom(PadicContext(2, 21), padic, s)),
            (product, Slalom("n+2", (targets,)), lambda s: cover_product_slalom(product, s)),
        ):
            cert = cover(slalom)
            assert cert.verified and cert.checked_count == slalom.element_count
            assert verify_cover(spec, cert.translate, slalom).ok
        assert find_translator(FiniteAbelianGroup((order,)), range(hi), targets, 0) == \
            cyclic_translator_by_sorting(targets, ((hi, order),), order)

    def test_slalom_values_bounded(self, monkeypatch):
        # the work bound: the values the slalom holds, sum |S_n|
        spec = product_spec(2)
        slalom = Slalom(width="n+2", sets=((0, 1), (0, 1, 2)))
        translate = tuple(map(zero_residues, spec.plan.block_groups))
        monkeypatch.setattr(cover_module, "DEFAULT_ENUM_CAP", 4)
        with pytest.raises(CapExceeded, match="5 values"):
            verify_cover(spec, translate, slalom)
        with pytest.raises(CapExceeded, match="5 values"):
            cover_product_slalom(spec, slalom)
        monkeypatch.setattr(cover_module, "DEFAULT_ENUM_CAP", 5)
        assert verify_cover(spec, translate, slalom).ok

    def test_carry_dichotomy_counts_cover_all_checks(self):
        spec = padic_spec(5, 4)
        slalom = random_slalom(spec.plan, "(n+2)//2", seed=3)
        cert = cover_padic_slalom(PadicContext(5, spec.plan.boundaries[-1]), spec, slalom)
        result = verify_cover(spec, cert.translate, slalom)
        assert sum(result.carry_cases) == result.checked_count * spec.depth


class TestVerifyAgainstEnumeration:
    """The carry-state check against the element-by-element enumerator,
    on random kept sets anywhere in the window and on accepted as well as
    corrupted translates; the whole result must agree."""

    @staticmethod
    def random_spec(plan, rng):
        kept = []
        for n, size in enumerate(plan.block_orders):
            lo, hi = kept_window(size, n)
            kept.append(tuple(sorted(rng.sample(range(size), rng.randint(lo, hi)))))
        return NullsetSpec(plan=plan, kept=tuple(kept))

    @staticmethod
    def translates(plan, accepted, rng):
        yield accepted
        for _ in range(3):
            n = rng.randrange(plan.depth)
            block = plan.block_groups[n].element_at(rng.randrange(plan.block_orders[n]))
            yield accepted[:n] + (block,) + accepted[n + 1:]
        yield tuple(G.element_at(rng.randrange(size)) for G, size in zip(plan.block_groups, plan.block_orders))

    def check(self, spec, slalom, accepted, rng):
        seen = set()
        for translate in self.translates(spec.plan, accepted, rng):
            expected = verify_cover_by_enumeration(spec, translate, slalom, DEFAULT_VERIFY_CAP)
            assert verify_cover(spec, translate, slalom) == expected
            seen.add(expected.ok)
        return seen

    @settings(max_examples=120, deadline=None)
    @given(st.sampled_from([2, 3, 5]), st.integers(1, 7), st.integers(0, 2**32))
    def test_padic(self, p, depth, seed):
        rng = random.Random(seed)
        spec = self.random_spec(plan_blocks_padic(p, depth), rng)
        slalom = random_slalom(spec.plan, "(n+2)//2", seed=seed)
        cert = cover_padic_slalom(PadicContext(p, spec.plan.boundaries[-1]), spec, slalom)
        assert True in self.check(spec, slalom, cert.translate, rng)

    @settings(max_examples=120, deadline=None)
    @given(st.sampled_from([(2,), (2, 3), (3,), (5, 2), (7,), (16,)]), st.integers(1, 5), st.integers(0, 2**32))
    def test_product(self, orders, depth, seed):
        rng = random.Random(seed)
        spec = self.random_spec(plan_blocks_product(itertools.cycle(orders), depth), rng)
        slalom = random_slalom(spec.plan, "n+2", seed=seed)
        cert = cover_product_slalom(spec, slalom)
        assert True in self.check(spec, slalom, cert.translate, rng)

    def test_padic_depth_100_within_a_second(self):
        # about 10^128 slalom elements: only a check linear in depth finishes
        start = time.perf_counter()
        spec = padic_spec(2, 100)
        slalom = random_slalom(spec.plan, "(n+2)//2", seed=100)
        total = slalom.element_count
        ctx = PadicContext(2, spec.plan.boundaries[-1])
        cert = cover_padic_slalom(ctx, spec, slalom)
        result = verify_cover(spec, cert.translate, slalom)
        elapsed = time.perf_counter() - start
        assert cert.verified and cert.checked_count == total
        assert result.ok and result.checked_count == total
        assert sum(result.carry_cases) == total * spec.depth
        assert elapsed < 1.0

    def test_product_depth_100_within_a_second(self):
        # blocks Z_2^8 of several coordinates, about 10^158 slalom elements
        start = time.perf_counter()
        spec = product_spec(100)
        slalom = random_slalom(spec.plan, "n+2", seed=100)
        total = slalom.element_count
        cert = cover_product_slalom(spec, slalom)
        result = verify_cover(spec, cert.translate, slalom)
        elapsed = time.perf_counter() - start
        assert cert.verified and cert.checked_count == total
        assert result.ok and result.checked_count == total
        assert elapsed < 1.0


class TestVerifyPadicAgainstValues:
    """The gap-based p-adic check against the value-by-value carry passes
    of ``helpers.verify_padic_by_values`` at depths 8-120, where
    enumeration cannot reach: random kept sets anywhere in the window,
    often with a gap at index 0, a gap at the end or both, so that gap
    preimages wrap; three width functions; accepted and tampered
    translates.  The whole result must agree."""

    @staticmethod
    def kept_set(size, n, rng, avoid=frozenset()):
        # an admissible kept set whose complement misses ``avoid``
        lo, hi = kept_window(size, n)
        free = [i for i in range(size) if i not in avoid]
        missing = rng.randint(size - hi, size - lo)
        ends = [i for i in (0, size - 1) if i not in avoid and rng.random() < 0.5]
        rest = [i for i in free if i not in ends]
        gaps = set(ends[:missing]) | set(rng.sample(rest, min(missing - len(ends[:missing]), len(rest))))
        return tuple(i for i in range(size) if i not in gaps)

    def case(self, p, seed):
        rng = random.Random(1000 * p + seed)
        plan = plan_blocks_padic(p, rng.randint(8, 120))
        width = ["(n+2)//2", "n+2", tuple(rng.randint(1, n + 2) for n in range(plan.depth))][seed % 3]
        # value 0 in half the sets, so that gap preimages wrapping through 0 matter
        sets = [tuple(sorted({0, *values[1:]})) if rng.random() < 0.5 else values
                for values in random_slalom(plan, width, seed).sets]
        slalom = Slalom(width, tuple(sets))
        offsets = [rng.randrange(size) for size in plan.block_orders]
        # accepted by construction: no gap holds a value plus offset plus carry
        images = [{(v + t + c) % size for v in values for c in (0, 1)}
                  for values, t, size in zip(slalom.sets, offsets, plan.block_orders)]
        covering = NullsetSpec(plan, tuple(self.kept_set(size, n, rng, images[n])
                                           for n, size in enumerate(plan.block_orders)))
        random_kept = NullsetSpec(plan, tuple(self.kept_set(size, n, rng) for n, size in enumerate(plan.block_orders)))
        return rng, covering, random_kept, slalom, offsets

    @staticmethod
    def tampered(spec, slalom, offsets, rng):
        plan = spec.plan
        # block 0 takes no carry: its first value is sent into a gap
        a, b = spec.gaps[0][rng.randrange(len(spec.gaps[0]))]
        yield [(rng.randrange(a, b) - slalom.sets[0][0]) % plan.block_orders[0]] + offsets[1:]
        for _ in range(3):
            n = rng.randrange(plan.depth)
            yield offsets[:n] + [rng.randrange(plan.block_orders[n])] + offsets[n + 1:]
        yield [rng.randrange(size) for size in plan.block_orders]

    def check(self, spec, slalom, offsets):
        translate = tuple(G.element_at(t) for G, t in zip(spec.plan.block_groups, offsets))
        expected = verify_padic_by_values(spec, translate, slalom)
        assert verify_cover(spec, translate, slalom) == expected
        return expected.ok

    @pytest.mark.parametrize("seed", range(12))
    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_against_values(self, p, seed):
        rng, covering, random_kept, slalom, offsets = self.case(p, seed)
        assert self.check(covering, slalom, offsets)
        if slalom.width == "(n+2)//2":
            cert = cover_padic_slalom(PadicContext(p, random_kept.plan.boundaries[-1]), random_kept, slalom)
            accepted = [G.index_of(b) for G, b in zip(random_kept.plan.block_groups, cert.translate)]
            assert self.check(random_kept, slalom, accepted)
        for spec in (covering, random_kept):
            outcomes = {self.check(spec, slalom, bad) for bad in self.tampered(spec, slalom, offsets, rng)}
            assert False in outcomes
            # the wrap edges: offset 0, under which gap preimages run
            # through 0, and offset order - 1, where order - offset - 1 == 0
            for edge in (0, -1):
                self.check(spec, slalom, [edge % order for order in spec.plan.block_orders])

    def test_gaps_complement_kept_and_built_once(self, monkeypatch):
        calls = []
        real = cover_module._gaps
        monkeypatch.setattr(cover_module, "_gaps", lambda kept, order: calls.append(order) or real(kept, order))
        rng, covering, spec, slalom, offsets = self.case(3, 0)
        for _ in range(2):
            self.check(spec, slalom, offsets)
        assert spec.gaps is spec.gaps
        assert len(calls) == spec.depth
        for kept, gaps, order in zip(spec.kept, spec.gaps, spec.plan.block_orders):
            assert all(a < b for a, b in gaps)
            assert all(b < a for (_, b), (a, _) in zip(gaps, gaps[1:]))   # sorted, never adjacent
            assert sorted(set(kept) | {i for a, b in gaps for i in range(a, b)}) == list(range(order))
            assert len(kept) + sum(b - a for a, b in gaps) == order

    def test_built_nullsets_have_one_gap_per_block(self):
        for plan in (plan_blocks_padic(2, 100), plan_blocks_product(itertools.cycle([2]), 30)):
            assert all(len(gaps) == 1 for gaps in build_nullset(plan).gaps)

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from([2, 3, 5]), st.integers(1, 12), st.booleans(), st.data())
    def test_flat_passes_against_values(self, p, depth, covering, data):
        # the edges of the two passes: offsets that make either carry's
        # split 0 or |S_n|, single-value sets, kept sets with a gap at
        # index 0, at the end or scattered into several gaps, and kept
        # sets that avoid every value plus offset plus carry, so that
        # accepted checks occur too
        plan = plan_blocks_padic(p, depth)
        sets, offsets, kept = [], [], []
        for n, order in enumerate(plan.block_orders):
            values = sorted(data.draw(st.sets(st.integers(0, order - 1), min_size=1, max_size=max(1, (n + 2) // 2))))
            edges = [(order - v - c) % order for v in (values[0], values[-1]) for c in (0, 1)]
            offset = data.draw(st.one_of(st.sampled_from([0, *edges]), st.integers(0, order - 1)))
            lo, hi = kept_window(order, n)
            missing = data.draw(st.integers(order - hi, order - lo))
            where = "avoid" if covering else data.draw(st.sampled_from(["zero", "end", "scattered"]))
            if where == "zero":
                gaps = range(missing)
            elif where == "end":
                gaps = range(order - missing, order)
            else:
                images = {(v + offset + c) % order for v in values for c in (0, 1)} if covering else set()
                gaps = data.draw(st.permutations([i for i in range(order) if i not in images]))[:missing]
            sets.append(tuple(values))
            offsets.append(offset)
            kept.append(tuple(sorted(set(range(order)) - set(gaps))))
        spec = NullsetSpec(plan, tuple(kept))
        slalom = Slalom(tuple(map(len, sets)), tuple(sets))
        translate = tuple(G.element_at(t) for G, t in zip(plan.block_groups, offsets))
        expected = verify_padic_by_values(spec, translate, slalom)
        assert cover_module._verify_padic(spec, offsets, slalom, slalom.element_count) == expected
        assert expected.ok or not covering


class TestVerifyProductAgainstValues:
    """The cylinder-interval product check against the value-by-value
    check of ``helpers.verify_product_by_values`` at depths 8-120:
    radices 2-7 with up to 11 coordinates per block, prefix kept sets
    and kept sets with several gaps (often at index 0 and at the end),
    real covers and tampered translates.  The whole result must agree."""

    @staticmethod
    def plan(rng, depth):
        # blocks of 1-11 coordinates, more than the minimal plan takes,
        # while the block order stays small enough to hold the kept set
        cuts, orders = [0], []
        for n in range(depth):
            if rng.random() < 0.15:
                orders.extend([2] * 11)
                cuts.append(len(orders))
                continue
            size, k = 1, 0
            while size <= 2 * (n + 3) or (k < 11 and rng.random() < 0.6):
                m = rng.randint(2, 7) if rng.random() < 0.5 else 2
                if size > 2 * (n + 3) and size * m > 4096:
                    break
                orders.append(m)
                size *= m
                k += 1
            cuts.append(len(orders))
        return BlockPlan(mode="product", boundaries=tuple(cuts), orders=tuple(orders))

    @staticmethod
    def tampered(spec, slalom, translate, rng):
        plan = spec.plan
        for _ in range(4):
            # a value of block n sent into a gap: t = v - c for c in a gap
            n = rng.randrange(plan.depth)
            G = plan.block_groups[n]
            a, b = spec.gaps[n][rng.randrange(len(spec.gaps[n]))]
            v = G.element_at(rng.choice(slalom.sets[n]))
            block = sub_residues(G, v, G.element_at(rng.randrange(a, b)))
            yield translate[:n] + (block,) + translate[n + 1:]
        yield tuple(G.element_at(rng.randrange(size)) for G, size in zip(plan.block_groups, plan.block_orders))

    def check(self, spec, translate, slalom):
        expected = verify_product_by_values(spec, translate, slalom)
        assert verify_cover(spec, translate, slalom) == expected
        return expected.ok

    @pytest.mark.parametrize("seed", range(16))
    def test_against_values(self, seed):
        rng = random.Random(seed)
        plan = self.plan(rng, rng.randint(8, 120) if seed % 4 else rng.randint(8, 20))
        assert max(b - a for a, b in zip(plan.boundaries, plan.boundaries[1:])) > 1
        sets = [tuple(sorted({0, *values[1:]})) if rng.random() < 0.3 else values
                for values in random_slalom(plan, "n+2", seed).sets]
        slalom = Slalom("n+2", tuple(sets))
        prefix = NullsetSpec(plan, tuple(tuple(range(rng.randint(*kept_window(size, n))))
                                         for n, size in enumerate(plan.block_orders)))
        scattered = NullsetSpec(plan, tuple(TestVerifyPadicAgainstValues.kept_set(size, n, rng)
                                            for n, size in enumerate(plan.block_orders)))
        assert any(len(gaps) > 1 for gaps in scattered.gaps)
        for spec in (prefix, scattered):
            cert = cover_product_slalom(spec, slalom)
            assert self.check(spec, cert.translate, slalom)
            outcomes = {self.check(spec, bad, slalom) for bad in self.tampered(spec, slalom, cert.translate, rng)}
            assert False in outcomes

    def test_check_never_subtracts_values(self):
        # the cylinder check against the value-by-value check, on a real
        # cover and its tampered copies
        rng = random.Random(7)
        plan = self.plan(rng, 30)
        spec = build_nullset(plan)
        slalom = random_slalom(plan, "n+2", 7)
        cert = cover_product_slalom(spec, slalom)
        translates = [cert.translate, *self.tampered(spec, slalom, cert.translate, rng)]
        expected = [verify_product_by_values(spec, t, slalom) for t in translates]
        assert [verify_cover(spec, t, slalom) for t in translates] == expected
        assert not all(result.ok for result in expected)

    def test_cylinders_built_once_per_spec(self, monkeypatch):
        calls = []
        real = cover_module._gap_cylinders
        monkeypatch.setattr(cover_module, "_gap_cylinders", lambda *args: calls.append(args) or real(*args))
        rng = random.Random(11)
        plan = self.plan(rng, 30)
        spec = NullsetSpec(plan, tuple(TestVerifyPadicAgainstValues.kept_set(size, n, rng)
                                       for n, size in enumerate(plan.block_orders)))
        slalom = random_slalom(plan, "n+2", 11)
        first, second = (tuple(G.element_at(rng.randrange(G.order)) for G in plan.block_groups) for _ in range(2))
        verify_cover(spec, first, slalom)
        wide = [gaps for G, gaps in zip(plan.block_groups, spec.gaps) if len(G.orders) > 1]
        assert len(calls) == sum(map(len, wide)) > len(wide) > 0
        calls.clear()
        verify_cover(spec, second, slalom)
        assert calls == []
        assert spec.cylinders is spec.cylinders
        for G, gaps, cylinders in zip(plan.block_groups, spec.gaps, spec.cylinders):
            if len(G.orders) == 1:
                assert cylinders is None
            else:
                assert cylinders == tuple(real(a, b, G.orders, G.weights) for a, b in gaps)
        assert set(build_nullset(plan_blocks_padic(2, 20)).cylinders) == {None}
        assert set(build_nullset(plan_blocks_product([64, 128, 256], 3)).cylinders) == {None}


class TestTablesIndependentOfTranslate:
    """What a spec and its plan build once (gaps, cylinders, block
    groups) holds for every translate: one spec checked against many
    translates in random order gives what fresh specs and the
    value-by-value checks give."""

    @pytest.mark.parametrize("mode", ["padic", "product"])
    def test_one_spec_many_translates(self, mode):
        rng = random.Random(mode)
        if mode == "padic":
            plan = plan_blocks_padic(3, 40)
            slalom = random_slalom(plan, "(n+2)//2", 5)
            oracle = verify_padic_by_values
        else:
            plan = TestVerifyProductAgainstValues.plan(rng, 40)
            slalom = random_slalom(plan, "n+2", 5)
            oracle = verify_product_by_values
        kept = tuple(TestVerifyPadicAgainstValues.kept_set(size, n, rng) for n, size in enumerate(plan.block_orders))
        spec = NullsetSpec(plan, kept)
        if mode == "padic":
            cert = cover_padic_slalom(PadicContext(3, plan.boundaries[-1]), spec, slalom)
        else:
            cert = cover_product_slalom(spec, slalom)
        translates = [cert.translate]
        for _ in range(12):   # one block changed, early or late
            n = rng.randrange(plan.depth)
            G = plan.block_groups[n]
            translates.append(cert.translate[:n] + (G.element_at(rng.randrange(G.order)),) + cert.translate[n + 1:])
        translates += [tuple(G.element_at(rng.randrange(G.order)) for G in plan.block_groups) for _ in range(4)]
        rng.shuffle(translates)
        results = []
        for translate in translates:
            fresh = NullsetSpec(BlockPlan.from_json(plan.to_json()), kept)
            result = verify_cover(spec, translate, slalom)
            assert result == verify_cover(fresh, translate, slalom) == oracle(fresh, translate, slalom)
            results.append(result.ok)
        assert True in results and False in results


class TestRandomSlalom:
    def test_deterministic(self):
        plan = plan_blocks_padic(3, 4)
        assert random_slalom(plan, "n+2", seed=42) == random_slalom(plan, "n+2", seed=42)
        assert random_slalom(plan, "n+2", seed=42) != random_slalom(plan, "n+2", seed=43)

    def test_width_sets_sizes(self):
        plan = plan_blocks_padic(2, 3)
        slalom = random_slalom(plan, "n+2", seed=0)
        assert [len(s) for s in slalom.sets] == [2, 3, 4]
        narrow = random_slalom(plan, "(n+2)//2", seed=0)
        assert [len(s) for s in narrow.sets] == [1, 1, 2]

    def test_sets_within_domains(self):
        plan = plan_blocks_product(itertools.cycle([2, 3]), 5)
        slalom = random_slalom(plan, "n+2", seed=9)
        for s, size in zip(slalom.sets, plan.block_orders):
            assert all(0 <= v < size for v in s)
            assert list(s) == sorted(set(s))

    def test_empty_sets_rejected(self):
        with pytest.raises(PreconditionViolated):
            Slalom(width="n+2", sets=((0,), ()))


class TestCubeCover:
    def test_full_domain_slalom_covers(self):
        plan = plan_blocks_padic(2, 1)
        full = Slalom(width=(8,), sets=(tuple(range(8)),))
        assert cube_cover_check([full], plan) == (True, None)

    def test_empty_family_witness_zero(self):
        plan = plan_blocks_padic(2, 2)
        assert cube_cover_check([], plan) == (False, (0, 0))

    def test_partition_family_against_counting_oracle(self):
        plan = plan_blocks_padic(2, 2)
        points = list(itertools.product(range(8), range(16)))
        family = [Slalom(width=(1, 1), sets=((a,), (b,))) for a, b in points]
        assert cube_cover_check(family, plan) == (True, None)
        removed = family[:37] + family[38:]
        # counting oracle: materialize the union of all family members
        union = {combo for s in removed for combo in itertools.product(*s.sets)}
        assert len(union) == len(points) - 1
        assert cube_cover_check(removed, plan) == (False, points[37])

    def test_cap(self):
        # block orders 8, 16, 16: the partial product 128 passes a cap of
        # 100 before the last block, the whole cube 2048 a cap of 1000
        plan = plan_blocks_padic(2, 3)
        with pytest.raises(CapExceeded, match=r"^cube of more than 2\^7 points exceeds the cap 100$"):
            cube_cover_check([], plan, cap=100)
        with pytest.raises(CapExceeded, match="^cube of 2048 points exceeds the cap 1000$"):
            cube_cover_check([], plan, cap=1000)

    def test_cap_stops_at_the_first_partial_product_above_it(self):
        # 32,768 blocks of 4,000-bit orders, whose product no left-to-right
        # multiplication forms in reasonable time
        start = time.perf_counter()
        order = (1 << 3999) + 1
        plan = BlockPlan(mode="product", boundaries=tuple(range(32769)), orders=(order,) * 32768)
        with pytest.raises(CapExceeded, match=r"more than 2\^3999 points"):
            cube_cover_check([], plan)
        assert time.perf_counter() - start < 0.5


def test_count_text_exact_up_to_2_64():
    # beyond 2^64 the greatest power of two below the count, so a power
    # of two is given by the one below it
    cases = [
        (0, "0"),
        (12345, "12345"),
        ((1 << 64) - 1, str((1 << 64) - 1)),
        (1 << 64, str(1 << 64)),
        ((1 << 64) + 1, "more than 2^64"),
        (1 << 65, "more than 2^64"),
        ((1 << 65) + 1, "more than 2^65"),
        (1 << 20000, "more than 2^19999"),
    ]
    for count, text in cases:
        assert _count_text(count) == text


class TestCertificateJson:
    def test_round_trip(self):
        spec = padic_spec(2, 2)
        slalom = random_slalom(spec.plan, "(n+2)//2", seed=1)
        cert = cover_padic_slalom(PadicContext(2, 7), spec, slalom)
        parsed = CoverCertificate.from_json(spec.plan, cert.to_json())
        assert parsed == cert
