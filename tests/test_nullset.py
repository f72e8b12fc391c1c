import time
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nullcover.errors import CapExceeded, PreconditionViolated, SchemaError, rational_to_json
from nullcover.nullset import (
    NUMERIC_DEPTH_CAP,
    TAIL_MAX,
    TAIL_ZERO,
    FactorialDigits,
    ek_membership,
    ek_outer_measure,
    ek_sup,
    factorial_expand,
    rational_from_json,
)

from helpers import ek_membership_by_expansions, ek_sup_by_series, factorial_expand_by_fractions

unit_rationals = st.builds(
    lambda den, num: Fraction(num % den, den), st.integers(1, 5000), st.integers(0, 5000)
)
# values that terminate at some depth k, so most have an alternate expansion
terminating_rationals = st.builds(
    lambda k, num: Fraction(num % factorial(k), factorial(k)), st.integers(2, 45), st.integers(0, 10**60)
)


class TestFactorialExpand:
    def test_zero(self):
        greedy, alternate = factorial_expand(Fraction(0), 6)
        assert greedy.digits == (0,) * 5 and greedy.tail == TAIL_ZERO
        assert alternate is None

    def test_one_half(self):
        greedy, alternate = factorial_expand(Fraction(1, 2), 6)
        assert greedy.digits == (1, 0, 0, 0, 0) and greedy.tail == TAIL_ZERO
        assert alternate.digits == (0, 2, 3, 4, 5) and alternate.tail == TAIL_MAX
        # telescoping oracle: the alternate's full value is the explicit
        # part plus sum of (n-1)/n! beyond the depth, which is 1/depth!
        assert alternate.value() + Fraction(1, factorial(6)) == Fraction(1, 2)

    def test_one_sixth(self):
        greedy, _ = factorial_expand(Fraction(1, 6), 4)
        assert greedy.digits == (0, 1, 0) and greedy.tail == TAIL_ZERO

    def test_out_of_range(self):
        with pytest.raises(PreconditionViolated):
            factorial_expand(Fraction(1), 4)
        with pytest.raises(PreconditionViolated):
            factorial_expand(Fraction(-1, 2), 4)
        # more digits than int-to-str conversion allows: the message must not format it
        with pytest.raises(PreconditionViolated):
            factorial_expand(Fraction(10**5000 + 1, 10**5000), 5)

    @given(unit_rationals, st.integers(2, 12))
    def test_round_trip_bounds(self, q, depth):
        greedy, _ = factorial_expand(q, depth)
        value = greedy.value()
        if greedy.tail == TAIL_ZERO:
            assert value == q
        else:
            assert value <= q < value + Fraction(1, factorial(depth))

    @given(unit_rationals, st.integers(2, 12))
    def test_alternate_has_same_value(self, q, depth):
        greedy, alternate = factorial_expand(q, depth)
        if alternate is not None:
            tail = sum(Fraction(n - 1, factorial(n)) for n in range(depth + 1, depth + 40))
            # the infinite all-maximal tail sums to 1/depth!; the partial
            # sum approaches it from below
            assert alternate.value() + Fraction(1, factorial(depth)) == greedy.value() == q
            assert tail < Fraction(1, factorial(depth))

    @settings(max_examples=300)
    @given(
        st.one_of(unit_rationals, terminating_rationals, st.floats(0, 1, exclude_max=True)),
        st.integers(2, 45),
    )
    def test_matches_fraction_oracle(self, q, depth):
        assert factorial_expand(q, depth) == factorial_expand_by_fractions(q, depth)


class TestMembership:
    def test_examples(self):
        assert ek_membership(Fraction(0), 10) == "in"
        assert ek_membership(Fraction(1, 2), 20) == "out"
        assert ek_membership(Fraction(1, 6), 10) == "in"

    def test_one_third_is_out(self):
        # greedy digit d_3 = 2 is maximal, and the alternate runs maximal
        # from position 4 on
        assert ek_membership(Fraction(1, 3), 10) == "out"

    def test_undetermined_refines(self):
        # 19/60 = 0/2! + 1/3! + 3/4! + 3/5!, with d_4 = 3 > 2
        q = Fraction(19, 60)
        assert ek_membership(q, 3) == "undetermined"
        assert ek_membership(q, 5) == "out"

    def test_maximal_last_digit_is_out_at_its_own_depth(self):
        # 1/8 = 3/4!: greedy ends in the maximal digit d_4 = 3 and the
        # alternate (0,0,2, then maximal forever) is barred by its tail,
        # so depth 4 already decides
        assert ek_membership(Fraction(1, 8), 3) == "undetermined"
        assert ek_membership(Fraction(1, 8), 4) == "out"

    def test_matches_two_expansion_oracle(self):
        verdicts = set()
        for den in range(1, 40):
            for num in range(den):
                q = Fraction(num, den)
                for depth in range(2, 13):
                    verdict = ek_membership(q, depth)
                    assert verdict == ek_membership_by_expansions(q, depth), (q, depth)
                    verdicts.add(verdict)
        assert verdicts == {"in", "out", "undetermined"}

    @given(unit_rationals, st.integers(2, 10))
    def test_monotone_in_depth(self, q, depth):
        before = ek_membership(q, depth)
        after = ek_membership(q, depth + 1)
        if before in ("in", "out"):
            assert after == before

    @given(unit_rationals, st.integers(2, 12))
    def test_in_implies_admissible_terminating_expansion(self, q, depth):
        if ek_membership(q, depth) == "in":
            greedy, _ = factorial_expand(q, depth)
            assert greedy.tail == TAIL_ZERO
            assert greedy.admissible_prefix()


class TestOuterMeasure:
    def test_level_two(self):
        assert ek_outer_measure(2) == Fraction(1, 2)

    @pytest.mark.parametrize("depth", [5, 100])
    def test_telescoping(self, depth):
        # oracle: explicit product of the per-level admissible fractions
        product = Fraction(1)
        for n in range(2, depth + 1):
            product *= Fraction(n - 1, n)
        assert ek_outer_measure(depth) == product == Fraction(1, depth)

    def test_identity_n_times_measure(self):
        for depth in range(2, 200):
            assert ek_outer_measure(depth) * depth == 1


class TestSup:
    def test_depth_two_is_zero(self):
        assert ek_sup(2) == 0

    def test_depth_four(self):
        assert ek_sup(4) == Fraction(1, 6) + Fraction(2, 24) == Fraction(1, 4)

    def test_converges_to_three_minus_e(self):
        # independent high-precision series for e
        e = sum(Fraction(1, factorial(k)) for k in range(40))
        assert abs(ek_sup(12) - (3 - e)) < Fraction(1, 10**7)

    def test_nondecreasing_and_bounded(self):
        e = sum(Fraction(1, factorial(k)) for k in range(40))
        values = [ek_sup(n) for n in range(2, 40)]
        assert all(a <= b for a, b in zip(values, values[1:]))
        assert all(v <= 3 - e for v in values)

    def test_max_digits_value_matches_sup(self):
        depth = 9
        digits = FactorialDigits(digits=tuple(n - 2 for n in range(2, depth + 1)))
        assert digits.value() == ek_sup(depth)

    def test_sup_value_is_a_member(self):
        for depth in (3, 6, 9):
            assert ek_membership(ek_sup(depth), depth) == "in"

    @given(st.integers(2, 400))
    def test_matches_series(self, depth):
        assert ek_sup(depth) == ek_sup_by_series(depth)

    def test_depth_cap(self):
        start = time.perf_counter()
        with pytest.raises(CapExceeded, match=str(NUMERIC_DEPTH_CAP)):
            ek_sup(NUMERIC_DEPTH_CAP + 1)
        assert time.perf_counter() - start < 0.1


class TestRationalJson:
    def test_round_trip(self):
        q = Fraction(-7, 3)
        assert rational_from_json(rational_to_json(q)) == q

    def test_strings_for_large_values(self):
        obj = rational_to_json(Fraction(10**40 + 1, 10**41))
        assert obj == {"num": str(10**40 + 1), "den": str(10**41)}

    def test_rejects_bad_shapes(self):
        with pytest.raises(SchemaError):
            rational_from_json({"num": "1"})
        with pytest.raises(SchemaError):
            rational_from_json({"num": "1", "den": "0"})
        with pytest.raises(SchemaError):
            rational_from_json({"num": "x", "den": "2"})

    @pytest.mark.parametrize(
        "num, den",
        [(True, 2.9), (1, 2.9), (True, 2), ("1_0", "3"), ("1", " 30"), ("+1", "3"), ("1", "3 "), ("1.0", "3")],
    )
    def test_integer_fields_are_strict(self, num, den):
        with pytest.raises(SchemaError):
            rational_from_json({"num": num, "den": den})

    def test_too_many_digits_is_a_schema_error(self):
        with pytest.raises(SchemaError):
            rational_from_json({"num": "1" * 5000, "den": "3"})
