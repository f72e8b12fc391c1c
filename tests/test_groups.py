import dataclasses
import itertools
import time
from math import prod

import pytest
from hypothesis import given
from hypothesis import strategies as st

from nullcover.errors import CapExceeded, DimensionMismatch, PreconditionViolated
from nullcover.groups import PRIME_TEST_LIMIT, BlockGroup, FiniteAbelianGroup, PadicContext, is_prime

from helpers import add_digits, add_residues, all_residues, neg_residues, zero_residues


small_groups = st.builds(
    FiniteAbelianGroup,
    st.lists(st.integers(2, 9), min_size=1, max_size=4).map(tuple),
)


def elements_of(group, data):
    return tuple(data.draw(st.integers(0, m - 1)) for m in group.orders)


class TestFiniteAbelianGroup:
    # the library keeps the index codec; the residue-vector arithmetic and
    # enumeration it is checked against live in helpers as oracles

    def test_add_examples(self):
        assert add_residues(FiniteAbelianGroup((3,)), (1,), (2,)) == (0,)
        assert add_residues(FiniteAbelianGroup((2, 4)), (1, 3), (1, 1)) == (0, 0)
        assert add_residues(FiniteAbelianGroup((5,)), (2,), (0,)) == (2,)

    def test_neg_examples(self):
        assert neg_residues(FiniteAbelianGroup((7,)), (3,)) == (4,)
        assert neg_residues(FiniteAbelianGroup((2, 2)), (1, 1)) == (1, 1)
        assert neg_residues(FiniteAbelianGroup((2, 3, 5)), (0, 0, 0)) == (0, 0, 0)

    def test_enumeration_order(self):
        assert list(all_residues(FiniteAbelianGroup((2, 2)))) == [(0, 0), (0, 1), (1, 0), (1, 1)]
        assert list(all_residues(FiniteAbelianGroup((3,)))) == [(0,), (1,), (2,)]

    def test_index_is_mixed_radix_value(self):
        G = FiniteAbelianGroup((2, 3))
        # oracle: position in the enumerated stream
        assert list(all_residues(G)).index((1, 2)) == 5
        assert G.index_of((1, 2)) == 5
        assert G.element_at(5) == (1, 2)

    def test_enumeration_distinct_and_complete(self):
        for orders in [(2,), (4,), (2, 3), (2, 2, 2), (3, 5)]:
            G = FiniteAbelianGroup(orders)
            seen = list(all_residues(G))
            assert len(seen) == len(set(seen)) == G.order
            assert [G.index_of(g) for g in seen] == list(range(G.order))

    def test_enumeration_cap(self):
        G = FiniteAbelianGroup((2,) * 21)
        with pytest.raises(CapExceeded):
            list(all_residues(G))
        assert sum(1 for _ in all_residues(G, cap=1 << 21)) == 1 << 21

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            add_residues(FiniteAbelianGroup((2, 3)), (1,), (0, 1))
        with pytest.raises(DimensionMismatch):
            FiniteAbelianGroup((2, 3)).index_of((1,))

    @pytest.mark.parametrize("group,element,error,message", [
        (FiniteAbelianGroup((2, 3)), (1,), DimensionMismatch, "element of length 1 in group of rank 2"),
        (FiniteAbelianGroup((2, 3)), (1, 3), PreconditionViolated, "residues (1, 3) out of range for orders (2, 3)"),
        (FiniteAbelianGroup((2, 3)), (-1, 0), PreconditionViolated, "residues (-1, 0) out of range for orders (2, 3)"),
        (BlockGroup(2, 3), (0, 1), DimensionMismatch, "digit vector of length 2, block expects 3"),
        (BlockGroup(2, 3), (0, 2, 1), PreconditionViolated, "digits (0, 2, 1) out of range for p = 2"),
        (BlockGroup(3, 2), (-1, 0), PreconditionViolated, "digits (-1, 0) out of range for p = 3"),
        (BlockGroup(3, 2), (0, 3), PreconditionViolated, "digits (0, 3) out of range for p = 3"),
    ])
    def test_decoders_refuse_bad_elements(self, group, element, error, message):
        # index_of checks while it decodes
        with pytest.raises(error) as raised:
            group.index_of(element)
        assert type(raised.value) is error and str(raised.value) == message

    def test_invalid_orders(self):
        with pytest.raises(PreconditionViolated):
            FiniteAbelianGroup((1, 3))

    @given(small_groups, st.data())
    def test_group_axioms(self, G, data):
        a = elements_of(G, data)
        b = elements_of(G, data)
        c = elements_of(G, data)
        assert add_residues(G, a, b) == add_residues(G, b, a)
        assert add_residues(G, add_residues(G, a, b), c) == add_residues(G, a, add_residues(G, b, c))
        assert add_residues(G, a, zero_residues(G)) == a
        assert add_residues(G, a, neg_residues(G, a)) == zero_residues(G)

    @given(small_groups, st.data())
    def test_index_round_trip(self, G, data):
        a = elements_of(G, data)
        assert G.element_at(G.index_of(a)) == a


class TestPadic:
    # PadicContext is the codec of the integers mod p^length; carried digit
    # addition (the oracle add_digits) must be addition of values through it

    def test_add_examples(self):
        for p, length, x, y, total in [
            (2, 3, (1, 1, 0), (1, 0, 0), (0, 0, 1)),
            (3, 2, (0, 0), (2, 1), (2, 1)),
            (2, 2, (1, 1), (1, 1), (0, 1)),
        ]:
            ctx = PadicContext(p, length)
            assert add_digits(p, x, y) == total
            assert ctx.element_at((ctx.index_of(x) + ctx.index_of(y)) % ctx.order) == total

    def test_composite_p_rejected(self):
        with pytest.raises(PreconditionViolated):
            PadicContext(4, 3)
        with pytest.raises(PreconditionViolated):
            PadicContext(1, 3)

    @pytest.mark.parametrize("p,length", [(2, 1), (2, 4), (2, 6), (3, 3), (5, 2), (7, 2)])
    def test_add_matches_integers_exhaustively(self, p, length):
        ctx = PadicContext(p, length)
        for u in range(ctx.order):
            for v in range(ctx.order):
                total = add_digits(p, ctx.element_at(u), ctx.element_at(v))
                assert ctx.index_of(total) == (u + v) % ctx.order

    @given(st.sampled_from([(2, 16), (3, 10), (5, 8)]), st.data())
    def test_add_matches_integers_randomized(self, params, data):
        ctx = PadicContext(*params)
        u = data.draw(st.integers(0, ctx.order - 1))
        v = data.draw(st.integers(0, ctx.order - 1))
        assert ctx.index_of(add_digits(ctx.p, ctx.element_at(u), ctx.element_at(v))) == (u + v) % ctx.order

    @given(st.sampled_from([(2, 8), (3, 5), (5, 4)]), st.data())
    def test_neg_is_inverse(self, params, data):
        # the digits of minus the value add to zero
        ctx = PadicContext(*params)
        u = data.draw(st.integers(0, ctx.order - 1))
        assert add_digits(ctx.p, ctx.element_at(u), ctx.element_at(-u % ctx.order)) == (0,) * ctx.length

    def test_value_round_trip(self):
        ctx = PadicContext(3, 4)
        for v in range(ctx.order):
            assert ctx.index_of(ctx.element_at(v)) == v
        for x in itertools.product(range(3), repeat=4):
            assert ctx.element_at(ctx.index_of(x)) == x

    def test_length_mismatch(self):
        with pytest.raises(DimensionMismatch):
            PadicContext(2, 3).index_of((1, 0))
        with pytest.raises(DimensionMismatch):
            PadicContext(2, 3).index_of((1, 0, 0, 0))

    def test_out_of_range(self):
        ctx = PadicContext(3, 2)
        with pytest.raises(PreconditionViolated):
            ctx.index_of((3, 0))
        with pytest.raises(PreconditionViolated):
            ctx.element_at(9)
        with pytest.raises(PreconditionViolated):
            ctx.element_at(-1)


class TestBlockGroup:
    # a block of the digits [start, stop) of a p-adic integer is the codec
    # of Z_{p^(stop - start)}, keyed by its length alone

    def test_add_examples(self):
        B = BlockGroup(2, 3)
        assert B.index_of(add_digits(2, B.element_at(3), B.element_at(1))) == 4
        assert B.index_of(add_digits(2, B.element_at(5), B.element_at(5))) == 2
        x = B.element_at(6)
        assert add_digits(2, x, B.element_at(0)) == x

    def test_neg_examples(self):
        # the negative of value 3 in Z_8 is value 5: their digits add to zero
        B = BlockGroup(2, 3)
        assert add_digits(2, B.element_at(3), B.element_at(5)) == B.element_at(0) == (0, 0, 0)
        assert BlockGroup(3, 1).element_at(-1 % 3) == (2,)

    @pytest.mark.parametrize("p,start,stop", [(2, 0, 3), (2, 3, 7), (3, 2, 4), (5, 0, 2)])
    def test_add_matches_integers(self, p, start, stop):
        B = BlockGroup(p, stop - start)
        for u in range(B.order):
            for v in range(B.order):
                assert B.index_of(add_digits(p, B.element_at(u), B.element_at(v))) == (u + v) % B.order

    def test_carry_unit_has_value_one(self):
        # a carry arriving from below the block is a single 1 in its
        # lowest digit, the element of value 1
        B = BlockGroup(3, 3)
        assert B.element_at(1) == (1, 0, 0)
        assert B.index_of((1, 0, 0)) == 1

    @pytest.mark.parametrize("p,start,stop", [(2, 2, 5), (3, 1, 3)])
    def test_agrees_with_padic_when_no_low_carry(self, p, start, stop):
        # the block's digits sit at positions [start, stop) of the whole
        # number, which the plan fixes and the codec does not hold; if both
        # summands vanish below the block, carried addition of the whole
        # numbers sends no carry into it, so the block digits agree
        B = BlockGroup(p, stop - start)
        ctx = PadicContext(p, stop + 1)
        for u in range(B.order):
            x = ctx.element_at(u * p**start)
            assert x[start:stop] == B.element_at(u)
            assert x[:start] + x[stop:] == (0,) * (ctx.length - B.length)
            for v in range(B.order):
                y = ctx.element_at(v * p**start)
                assert add_digits(p, x, y)[start:stop] == add_digits(p, B.element_at(u), B.element_at(v))

    def test_enumeration_is_by_value(self):
        expected = [(0, 0), (1, 0), (0, 1), (1, 1)]
        B = BlockGroup(2, 2)
        assert [B.element_at(v) for v in range(B.order)] == expected
        assert [B.index_of(x) for x in expected] == [0, 1, 2, 3]

    @given(st.sampled_from([(2, 9), (3, 5), (7, 3)]), st.data())
    def test_index_round_trip(self, params, data):
        B = BlockGroup(*params)
        x = tuple(data.draw(st.integers(0, B.p - 1)) for _ in range(B.length))
        assert B.element_at(B.index_of(x)) == x

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            BlockGroup(2, 4).index_of((1, 0, 1))

    def test_fields_are_prime_and_length(self):
        assert [f.name for f in dataclasses.fields(BlockGroup)] == ["p", "length"]
        with pytest.raises(PreconditionViolated, match="is not prime"):
            BlockGroup(4, 2)
        for length in (0, -1):
            with pytest.raises(PreconditionViolated, match=f"length >= 1, got {length}"):
                BlockGroup(2, length)


CODECS = [
    FiniteAbelianGroup((7,)), FiniteAbelianGroup((2, 3)), FiniteAbelianGroup((3, 2, 4)),
    BlockGroup(2, 1), BlockGroup(2, 4), BlockGroup(5, 2),
    PadicContext(3, 1), PadicContext(3, 3),
]


class TestBlockCodecContract:
    """Every block codec is read through one interface: its ``order``,
    its coordinate ``orders`` and their index ``weights``, and the
    enumeration between indices and elements."""

    @pytest.mark.parametrize("group", CODECS)
    def test_order_is_the_product_of_orders(self, group):
        assert group.order == prod(group.orders)

    @pytest.mark.parametrize("group", CODECS)
    def test_weights_are_mixed_radix(self, group):
        # each weight is the product of the orders after it
        assert list(group.weights) == [prod(group.orders[i + 1:]) for i in range(len(group.orders))]

    @pytest.mark.parametrize("group", CODECS)
    def test_index_round_trip(self, group):
        assert [group.index_of(group.element_at(i)) for i in range(group.order)] == list(range(group.order))


class TestCachedOrders:
    """Orders are computed once per group; equality and hashing still
    read the fields alone."""

    @given(st.lists(st.integers(2, 9), min_size=1, max_size=5))
    def test_product_order(self, orders):
        G = FiniteAbelianGroup(tuple(orders))
        fresh = FiniteAbelianGroup(tuple(orders))
        assert G.order == prod(orders)
        assert "order" in vars(G) and "order" not in vars(fresh)
        assert G == fresh and hash(G) == hash(fresh) and len({G, fresh}) == 1
        assert G != FiniteAbelianGroup((*orders, 2))

    @given(st.sampled_from([2, 3, 5, 7]), st.integers(1, 30))
    def test_block_order(self, p, length):
        B = BlockGroup(p, length)
        fresh = BlockGroup(p, length)
        assert (B.order, B.orders, B.weights) == (p**length, (p**length,), (1,))
        assert {"order", "orders"} <= set(vars(B)) and "order" not in vars(fresh)
        assert B == fresh and hash(B) == hash(fresh) and len({B, fresh}) == 1
        assert B != BlockGroup(p, length + 1)
        ctx = PadicContext(p, length)
        assert (ctx.order, ctx.length) == (p**length, length)
        assert ctx == PadicContext(p, length) and hash(ctx) == hash(PadicContext(p, length))


class TestPrimality:
    def test_against_trial_division(self):
        def slow(n):
            return n >= 2 and all(n % d for d in range(2, n))

        for n in range(200):
            assert is_prime(n) == slow(n)

    def test_larger_values(self):
        assert is_prime(2**31 - 1)
        assert not is_prime(2**31)
        assert not is_prime(1_000_003 * 1_000_033)

    def test_least_strong_pseudoprime_to_bases_up_to_37(self):
        # psi_12 passes the strong test to every prime base up to 37
        psi12 = 318665857834031151167461
        assert psi12 == 399165290221 * 798330580441
        assert not is_prime(psi12)

    @pytest.mark.parametrize("n", [PRIME_TEST_LIMIT, 2**89 - 1, 10**3913 + 7])
    def test_past_the_exact_range(self, n):
        # psi_13 = 1287836182261 * 2575672364521 passes all thirteen bases;
        # a 3,914-digit number is refused before any modular power
        start = time.perf_counter()
        with pytest.raises(CapExceeded):
            is_prime(n)
        assert time.perf_counter() - start < 0.1

    def test_small_factor_decided_past_the_exact_range(self):
        assert not is_prime(2**200)
        assert not is_prime(41 * PRIME_TEST_LIMIT)
