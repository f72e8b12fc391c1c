import hashlib
import json
import time
import tracemalloc
from dataclasses import FrozenInstanceError
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nullcover import structure as structure_module
from nullcover.errors import (
    DEFAULT_ENUM_CAP,
    CapExceeded,
    NotDiscrete,
    NotFiniteTorsion,
    NotInfinite,
    PreconditionViolated,
    SchemaError,
)
from nullcover.groups import FiniteAbelianGroup
from nullcover.nullset import NUMERIC_DEPTH_CAP
from nullcover.structure import (
    MAX_DESCRIPTOR_NESTING,
    MAX_SHARED_ATOMS,
    RULES,
    Cyclic,
    FiniteSum,
    Int,
    Padic,
    ProdOmega,
    Quasicyclic,
    Reals,
    SumOmega,
    Torus,
    TraceStep,
    _flatten,
    classify_subgroup,
    descriptor_from_json,
    descriptor_to_json,
    divisible_chain,
    dual,
    enumerate_descriptors,
    is_discrete,
    is_finite,
    niceness_pipeline,
    primary_decomposition,
    r_power,
)

from helpers import (
    abelian_groups_up_to,
    all_residues,
    divisible_chain_by_elements,
    dual_by_constructors,
    factor_by_trial_division,
    flatten_by_rebuilding,
    is_compact,
    is_compact_by_match,
    is_discrete_by_match,
    is_finite_by_match,
    classify_by_scans,
    order_of,
    pipeline_by_rules,
    scale_residues,
    syntactic_size,
    zero_residues,
)

atoms = st.sampled_from(
    [Int(), Reals(), Torus(), Cyclic(2), Cyclic(3), Cyclic(12), Quasicyclic(2), Padic(5)]
)
finite_descriptors = st.recursive(
    st.sampled_from([Cyclic(2), Cyclic(3), Cyclic(4), Cyclic(9)]),
    lambda children: st.builds(FiniteSum, st.lists(children, min_size=1, max_size=3).map(tuple)),
    max_leaves=4,
)
descriptors = st.recursive(
    atoms,
    lambda children: st.one_of(
        st.builds(FiniteSum, st.lists(children, min_size=1, max_size=3).map(tuple)),
        st.builds(SumOmega, st.lists(finite_descriptors, min_size=1, max_size=2).map(tuple)),
        st.builds(ProdOmega, st.lists(finite_descriptors, min_size=1, max_size=2).map(tuple)),
    ),
    max_leaves=6,
)


# larger than the enumerated descriptors the golden digests cover: more
# leaves, deeper nesting, composite cyclic orders and the primes 2 to 7
PRIMES = (2, 3, 5, 7)
wide_finite_descriptors = st.recursive(
    st.builds(Cyclic, st.integers(2, 12)),
    lambda children: st.builds(FiniteSum, st.lists(children, min_size=1, max_size=4).map(tuple)),
    max_leaves=6,
)
wide_descriptors = st.recursive(
    st.one_of(
        st.sampled_from([Int(), Reals(), Torus()]),
        st.builds(Cyclic, st.integers(2, 12)),
        st.builds(Quasicyclic, st.sampled_from(PRIMES)),
        st.builds(Padic, st.sampled_from(PRIMES)),
    ),
    # finite sums drawn three times as often as each omega node, so that
    # sums of many kinds of parts reach every rule
    lambda children: st.one_of(
        *[st.builds(FiniteSum, st.lists(children, min_size=1, max_size=5).map(tuple))] * 3,
        st.builds(SumOmega, st.lists(wide_finite_descriptors, min_size=1, max_size=3).map(tuple)),
        st.builds(ProdOmega, st.lists(wide_finite_descriptors, min_size=1, max_size=3).map(tuple)),
    ),
    max_leaves=30,
)


class TestGrammar:
    def test_validation(self):
        with pytest.raises(PreconditionViolated):
            Cyclic(1)
        with pytest.raises(PreconditionViolated):
            Quasicyclic(6)
        with pytest.raises(PreconditionViolated):
            SumOmega((Int(),))
        with pytest.raises(PreconditionViolated):
            ProdOmega(())

    def test_r_power(self):
        assert r_power(1) == Reals()
        assert r_power(3) == FiniteSum((Reals(), Reals(), Reals()))

    def test_predicates(self):
        assert is_finite(FiniteSum((Cyclic(2), Cyclic(3))))
        assert not is_finite(SumOmega((Cyclic(2),)))
        assert is_discrete(SumOmega((Cyclic(2),))) and not is_compact(SumOmega((Cyclic(2),)))
        assert is_compact(ProdOmega((Cyclic(2),))) and not is_discrete(ProdOmega((Cyclic(2),)))
        assert order_of(FiniteSum((Cyclic(6), Cyclic(10)))) == 60
        assert order_of(Int()) is None

    @given(descriptors)
    def test_json_round_trip(self, d):
        assert descriptor_from_json(descriptor_to_json(d)) == d

    def test_nesting_limit(self):
        def nested(depth):
            obj = {"type": "Int"}
            for _ in range(depth):
                obj = {"type": "FiniteSum", "parts": [obj]}
            return obj

        deepest = descriptor_from_json(nested(MAX_DESCRIPTOR_NESTING))
        assert syntactic_size(deepest) == MAX_DESCRIPTOR_NESTING + 1
        assert_kinds_match_oracles(deepest)
        assert _flatten(deepest) == Int()
        with pytest.raises(SchemaError, match=str(MAX_DESCRIPTOR_NESTING)):
            descriptor_from_json(nested(MAX_DESCRIPTOR_NESTING + 1))


def assert_kinds_match_oracles(d):
    assert is_finite(d) == is_finite_by_match(d)
    assert is_discrete(d) == is_discrete_by_match(d)
    assert is_compact(d) == is_compact_by_match(d)
    flat = _flatten(d)
    assert flat == flatten_by_rebuilding(d)
    # flattening hands back its argument exactly when nothing changes
    assert (flat is d) == (flatten_by_rebuilding(d) == d)


class TestKindBits:
    def test_small_descriptors_match_oracles(self):
        for d in enumerate_descriptors(5):
            assert_kinds_match_oracles(d)

    @given(descriptors)
    def test_match_oracles(self, d):
        assert_kinds_match_oracles(d)

    def test_not_a_descriptor(self):
        for x in (None, 3, "Cyclic", (Cyclic(2),)):
            assert not (is_finite(x) or is_discrete(x) or is_compact(x))


class TestPrimaryDecomposition:
    def test_crt_split(self):
        assert primary_decomposition(Cyclic(12)) == [(2, Cyclic(4)), (3, Cyclic(3))]

    def test_prime_power_passthrough(self):
        assert primary_decomposition(Cyclic(8)) == [(2, Cyclic(8))]

    def test_sum_example(self):
        parts = primary_decomposition(FiniteSum((Cyclic(6), Cyclic(10))))
        assert parts == [
            (2, FiniteSum((Cyclic(2), Cyclic(2)))),
            (3, Cyclic(3)),
            (5, Cyclic(5)),
        ]

    def test_rejects_infinite(self):
        with pytest.raises(NotFiniteTorsion):
            primary_decomposition(FiniteSum((Cyclic(4), Int())))

    def test_matches_trial_division_oracle(self):
        for m in range(2, 5001):
            expected = [(p, Cyclic(p**k)) for p, k in sorted(factor_by_trial_division(m).items())]
            assert primary_decomposition(Cyclic(m)) == expected

    def test_large_prime_cofactor(self):
        # a Mersenne prime: trial division stops at 2^20 and is_prime decides
        start = time.perf_counter()
        assert primary_decomposition(Cyclic(2**61 - 1)) == [(2**61 - 1, Cyclic(2**61 - 1))]
        # a cofactor below 2^40 with no factor up to 2^20 is prime
        m = 1048573 * 1048583
        assert primary_decomposition(FiniteSum((Cyclic(m), Cyclic(2)))) == [
            (2, Cyclic(2)), (1048573, Cyclic(1048573)), (1048583, Cyclic(1048583))
        ]
        assert time.perf_counter() - start < 1

    def test_composite_cofactor_refused(self):
        # two 10-digit primes: no factor up to 2^20 and a composite cofactor
        start = time.perf_counter()
        with pytest.raises(CapExceeded):
            primary_decomposition(Cyclic(1000000007 * 1000000009))
        assert time.perf_counter() - start < 1

    @given(finite_descriptors)
    def test_order_preserved(self, d):
        parts = primary_decomposition(d)
        assert prod(order_of(c) for _, c in parts) == order_of(d)
        assert [p for p, _ in parts] == sorted({p for p, _ in parts})


class TestClassify:
    def test_case_one(self):
        verdict = classify_subgroup(FiniteSum((Cyclic(4), Int())))
        assert verdict.case == 1 and verdict.witness == Int()

    def test_case_two(self):
        d = SumOmega((Cyclic(2),))
        verdict = classify_subgroup(d)
        assert verdict.case == 2 and verdict.witness == d

    def test_case_three(self):
        verdict = classify_subgroup(Quasicyclic(3))
        assert verdict.case == 3 and verdict.witness == 3

    def test_case_order(self):
        verdict = classify_subgroup(FiniteSum((Quasicyclic(3), SumOmega((Cyclic(2),)), Int())))
        assert verdict.case == 1

    def test_rejects_finite(self):
        with pytest.raises(NotInfinite):
            classify_subgroup(FiniteSum((Cyclic(4), Cyclic(9))))

    def test_rejects_nondiscrete(self):
        with pytest.raises(NotDiscrete):
            classify_subgroup(Padic(2))

    @given(descriptors)
    def test_case_two_witness_dualizes_to_product(self, d):
        if not is_discrete(d) or order_of(d) is not None:
            return
        verdict = classify_subgroup(d)
        if verdict.case == 2:
            assert isinstance(dual(verdict.witness), ProdOmega)


class TestDivisibleChain:
    def test_z8_depth_two(self):
        G = FiniteAbelianGroup((8,))
        assert divisible_chain(G, 2, 2) == ((4,), (2,), (1,))

    def test_z8_depth_three_missing(self):
        assert divisible_chain(FiniteAbelianGroup((8,)), 2, 3) is None

    def test_z3_depth_zero(self):
        assert divisible_chain(FiniteAbelianGroup((3,)), 2, 0) == ((1,),)

    def test_chains_reverify(self):
        for orders, p, depth in [((8,), 2, 2), ((4, 4), 2, 1), ((27,), 3, 2), ((9, 3), 3, 1)]:
            G = FiniteAbelianGroup(orders)
            chain = divisible_chain(G, p, depth)
            assert chain is not None
            assert chain[0] != zero_residues(G)
            for g, h in zip(chain, chain[1:]):
                assert scale_residues(G, p, h) == g

    def test_prime_power_cyclic_max_depth(self):
        for p in (2, 3):
            for k in range(1, 5):
                G = FiniteAbelianGroup((p**k,))
                assert divisible_chain(G, p, k - 1) is not None
                assert divisible_chain(G, p, k) is None

    def test_lexicographically_least(self):
        # oracle: enumerate all chains of the requested depth outright
        G = FiniteAbelianGroup((2, 8))
        p, depth = 2, 1
        chains = []
        for g0 in all_residues(G):
            if g0 == zero_residues(G):
                continue
            for g1 in all_residues(G):
                if scale_residues(G, p, g1) == g0:
                    chains.append((g0, g1))
        assert divisible_chain(G, p, depth) == min(chains)

    @pytest.mark.parametrize("orders", [(2,), (12,), (6561,), (4, 6), (2, 3, 4), (8, 8), (128, 64)])
    def test_matches_element_oracle(self, orders):
        G = FiniteAbelianGroup(orders)
        for p in (2, 3, 5):
            for depth in range(7):
                assert divisible_chain(G, p, depth) == divisible_chain_by_elements(G, p, depth)

    @settings(max_examples=150)
    @given(
        st.sampled_from(list(abelian_groups_up_to(64))),
        st.sampled_from([2, 3, 5, 7]),
        st.integers(0, 6),
    )
    def test_small_groups_match_element_oracle(self, G, p, depth):
        assert divisible_chain(G, p, depth) == divisible_chain_by_elements(G, p, depth)

    def test_cap(self, monkeypatch):
        # the cap bounds the entries built, (depth + 1) x coordinates, and
        # applies after the depth and prime checks; it is no parameter
        G = FiniteAbelianGroup((4, 4))
        with pytest.raises(TypeError):
            divisible_chain(G, 2, 1, cap=1 << 30)
        monkeypatch.setattr(structure_module, "DEFAULT_ENUM_CAP", 3)
        with pytest.raises(CapExceeded, match="has 4 entries, above the cap 3"):
            divisible_chain(G, 2, 1)
        monkeypatch.setattr(structure_module, "DEFAULT_ENUM_CAP", 4)
        assert divisible_chain(G, 2, 1) == divisible_chain_by_elements(G, 2, 1)
        monkeypatch.setattr(structure_module, "DEFAULT_ENUM_CAP", 1)
        with pytest.raises(PreconditionViolated):
            divisible_chain(G, 2, -1)
        with pytest.raises(PreconditionViolated):
            divisible_chain(G, 4, 1)
        with pytest.raises(CapExceeded, match="numeric depth cap"):
            divisible_chain(G, 2, NUMERIC_DEPTH_CAP + 1)
        monkeypatch.undo()
        # the enumerating oracle still caps the group order; the closed
        # form does not
        with pytest.raises(CapExceeded, match="group order 16 exceeds enumeration cap 15"):
            divisible_chain_by_elements(G, 2, 1, cap=15)
        big = FiniteAbelianGroup((2 * DEFAULT_ENUM_CAP,))
        assert divisible_chain(big, 2, 3) == ((8,), (4,), (2,), (1,))

    def test_no_element_table(self):
        # the group at the enumeration cap: a table of its 2^20 elements
        # alone would take tens of MiB
        G = FiniteAbelianGroup((1 << 20,))
        tracemalloc.start()
        try:
            chain = divisible_chain(G, 2, 19)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert chain == tuple((1 << k,) for k in range(19, -1, -1))
        assert peak < 1 << 20

    def test_longest_chain_under_the_depth_cap(self):
        # multiplication by 2 is a bijection of Z_3: 1 -> 2 -> 1 -> ...
        chain = divisible_chain(FiniteAbelianGroup((3,)), 2, NUMERIC_DEPTH_CAP)
        assert len(chain) == NUMERIC_DEPTH_CAP + 1
        assert chain[:3] == ((1,), (2,), (1,)) and chain[-1] == (1,)


class TestDual:
    def test_atoms(self):
        assert dual(Int()) == Torus()
        assert dual(Torus()) == Int()
        assert dual(Reals()) == Reals()
        assert dual(Cyclic(12)) == Cyclic(12)
        assert dual(Quasicyclic(5)) == Padic(5)
        assert dual(Padic(7)) == Quasicyclic(7)

    def test_constructors_swap(self):
        assert dual(SumOmega((Cyclic(2), Cyclic(3)))) == ProdOmega((Cyclic(2), Cyclic(3)))
        assert dual(FiniteSum((Int(), Padic(3)))) == FiniteSum((Torus(), Quasicyclic(3)))

    @given(descriptors)
    def test_involution(self, d):
        assert dual(dual(d)) == d

    def test_matches_constructor_rebuild_exhaustive(self):
        for d in enumerate_descriptors(5):
            assert dual(d) == dual_by_constructors(d)
            assert dual(dual(d)) == d

    @settings(max_examples=400, deadline=None)
    @given(wide_descriptors)
    def test_matches_constructor_rebuild(self, d):
        assert dual(d) == dual_by_constructors(d)
        assert dual(dual(d)) == d

    def test_involution_exhaustive_small(self):
        count = 0
        for d in enumerate_descriptors(4):
            assert dual(dual(d)) == d
            count += 1
        assert count == 1241  # size census of the palette, frozen

    def test_enumeration_memory(self):
        # the parts of each compound are shared, not rebuilt per compound
        tracemalloc.start()
        try:
            descriptors = list(enumerate_descriptors(6))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(descriptors) == 178277
        assert peak < 28 << 20

    def test_compound_parts_are_earlier_descriptors(self):
        seen = {}
        for d in enumerate_descriptors(4):
            if isinstance(d, (FiniteSum, SumOmega, ProdOmega)):
                for part in d.parts:
                    assert seen.get(id(part)) is part
            seen[id(d)] = d

    def test_enumeration_sizes_and_uniqueness(self):
        seen = set()
        for d in enumerate_descriptors(4):
            assert syntactic_size(d) <= 4
            assert d not in seen
            seen.add(d)


class TestPipeline:
    def test_terminals_one_step(self):
        for d, rule in [
            (Torus(), "terminal-circle"),
            (ProdOmega((Cyclic(2),)), "terminal-finite-product"),
            (Padic(3), "terminal-padic"),
        ]:
            result = niceness_pipeline(d)
            assert result.verdict == "nice"
            assert [s.rule for s in result.steps] == [rule]

    def test_discrete_not_nice(self):
        for d in [Int(), Cyclic(5), SumOmega((Cyclic(2),)), FiniteSum((Int(), Quasicyclic(2)))]:
            result = niceness_pipeline(d)
            assert result.verdict == "not-nice:discrete"
            assert result.steps[-1].rule == "discrete-no-nullset"

    def test_real_factor(self):
        result = niceness_pipeline(r_power(2))
        assert result.verdict == "nice"
        assert result.steps[-1].rule == "real-factor"

    def test_real_factor_with_compact_part(self):
        result = niceness_pipeline(FiniteSum((Padic(2), Reals())))
        assert result.verdict == "nice"
        assert [s.rule for s in result.steps] == ["real-factor"]

    def test_open_subgroup_sheds_discrete_summands(self):
        result = niceness_pipeline(FiniteSum((Int(), Torus())))
        assert result.verdict == "nice"
        assert [s.rule for s in result.steps] == ["open-subgroup", "terminal-circle"]
        assert result.side_conditions == ("open-subgroup-index-bounded",)

    def test_compact_goes_through_duality(self):
        result = niceness_pipeline(FiniteSum((Cyclic(2), Torus())))
        assert result.verdict == "nice"
        assert [s.rule for s in result.steps] == [
            "dualize",
            "subgroup-trichotomy",
            "dualize-witness",
            "terminal-circle",
        ]

    def test_padic_sum_reaches_padic_terminal(self):
        result = niceness_pipeline(FiniteSum((Padic(2), Padic(3))))
        assert result.verdict == "nice"
        assert result.steps[-1].rule == "terminal-padic"

    def test_product_inside_sum_reaches_product_terminal(self):
        result = niceness_pipeline(FiniteSum((ProdOmega((Cyclic(2),)), Cyclic(3))))
        assert result.verdict == "nice"
        assert result.steps[-1].rule == "terminal-finite-product"

    def test_flattening_recorded(self):
        nested = FiniteSum((FiniteSum((Int(), Torus())), Padic(2)))
        result = niceness_pipeline(nested)
        assert result.steps[0].rule == "flatten-sum"
        assert result.verdict == "nice"

    def test_rules_are_registered(self):
        assert {"dualize", "subgroup-trichotomy", "terminal-circle"} <= RULES.keys()

    @settings(max_examples=300)
    @given(descriptors)
    def test_every_nice_trace_ends_in_terminal(self, d):
        result = niceness_pipeline(d)
        assert result.verdict in ("nice", "not-nice:discrete", "unresolved")
        for step in result.steps:
            assert step.rule in RULES
        if result.verdict == "nice":
            last = result.steps[-1]
            assert last.rule in ("terminal-circle", "terminal-finite-product", "terminal-padic", "real-factor")
            assert result.side_conditions == ("open-subgroup-index-bounded",)


def classify_outcome(classify, d):
    try:
        return classify(d)
    except (NotDiscrete, NotInfinite) as refused:
        return type(refused)


class TestAgainstRuleByRule:
    """The one-pass pipeline and the one-walk trichotomy against the
    rule-by-rule pipeline and the three-scan trichotomy they replaced."""

    @settings(max_examples=400, deadline=None)
    @given(wide_descriptors)
    def test_pipeline_matches(self, d):
        # steps compare with their before and after trees
        assert niceness_pipeline(d) == pipeline_by_rules(d)

    @settings(max_examples=400, deadline=None)
    @given(wide_descriptors)
    def test_classify_matches(self, d):
        # the dual of a compact descriptor is discrete, so both sides of
        # the duality reach the cases as well as the refusals
        for tree in (d, dual(d)):
            assert classify_outcome(classify_subgroup, tree) == classify_outcome(classify_by_scans, tree)

    def test_enumerated_match(self):
        for d in enumerate_descriptors(4):
            assert niceness_pipeline(d) == pipeline_by_rules(d)
            assert classify_outcome(classify_subgroup, d) == classify_outcome(classify_by_scans, d)


class TestSharedAtomsAndUncheckedBuilds:
    """Parsing and ``dual`` share atoms by value, and the library's own
    compounds and records skip checks that already hold; every public
    constructor and the parser still refuse what they refused."""

    REFUSALS = [
        (lambda: Cyclic(1), "cyclic order must be >= 2, got 1"),
        (lambda: Padic(4), "p = 4 is not prime"),
        (lambda: Quasicyclic(6), "p = 6 is not prime"),
        (lambda: FiniteSum(()), "FiniteSum needs at least one part"),
        (lambda: SumOmega((Int(),)), "SumOmega parts must denote finite groups, got Int()"),
        (lambda: ProdOmega((Torus(),)), "ProdOmega parts must denote finite groups, got Torus()"),
        (lambda: TraceStep("bogus", Int(), None), "unregistered rule 'bogus'"),
        (lambda: descriptor_from_json({"type": "Padic", "p": 4}), "p = 4 is not prime"),
        (lambda: descriptor_from_json({"type": "SumOmega", "parts": [{"type": "Int"}]}),
         "SumOmega parts must denote finite groups, got Int()"),
    ]

    @pytest.mark.parametrize("build,message", REFUSALS)
    def test_refusals_are_never_cached(self, build, message):
        for _ in range(2):
            with pytest.raises(PreconditionViolated) as refused:
                build()
            assert str(refused.value) == message

    def test_table_stops_at_its_bound(self, monkeypatch):
        table = {}
        monkeypatch.setattr(structure_module, "_shared_atoms", table)
        primes = [p for p in range(2, 50_000) if all(p % q for q in range(2, int(p**0.5) + 1))]
        assert len(primes) > MAX_SHARED_ATOMS
        for p in primes:
            assert descriptor_from_json({"type": "Padic", "p": p}) == Padic(p)
            assert len(table) <= MAX_SHARED_ATOMS
        assert len(table) == MAX_SHARED_ATOMS
        # past the bound atoms are built afresh, with their checks
        assert (Padic, primes[-1]) not in table
        assert dual(Padic(primes[-1])) == Quasicyclic(primes[-1])
        with pytest.raises(PreconditionViolated, match="p = 4 is not prime"):
            descriptor_from_json({"type": "Padic", "p": 4})
        assert (Padic, 4) not in table and len(table) == MAX_SHARED_ATOMS

    def test_atoms_are_shared_by_value(self, monkeypatch):
        table = {}
        monkeypatch.setattr(structure_module, "_shared_atoms", table)
        doc = {"type": "FiniteSum", "parts": [{"type": "Cyclic", "m": "12"}, {"type": "Quasicyclic", "p": 5},
                                              {"type": "Torus"}, {"type": "SumOmega", "parts": [{"type": "Cyclic", "m": 2}]}]}
        first, second = descriptor_from_json(doc), descriptor_from_json(doc)
        assert first == second and hash(first) == hash(second)
        assert descriptor_to_json(first) == descriptor_to_json(second)
        assert first.parts[1] is second.parts[1] is table[(Quasicyclic, 5)]
        assert set(table) == {(Cyclic, 12), (Quasicyclic, 5), (Cyclic, 2)}
        assert dual(first).parts[1] is table[(Padic, 5)]
        assert dual(Int()) is dual(Int()) and dual(Torus()) is dual(Torus())

    def test_only_exact_ints_are_shared(self, monkeypatch):
        monkeypatch.setattr(structure_module, "_shared_atoms", {})
        # the prime test accepts an integral float: its dual keeps the
        # float, not the shared atom of the equal int
        for p, text in [(3, "Padic(p=3)"), (3.0, "Padic(p=3.0)"), (3, "Padic(p=3)")]:
            assert repr(dual(Quasicyclic(p))) == text

    def test_unchecked_builds_match_constructors(self):
        d = descriptor_from_json({"type": "FiniteSum", "parts": [
            {"type": "ProdOmega", "parts": [{"type": "Cyclic", "m": 2}]}, {"type": "Int"}, {"type": "Padic", "p": 3},
            {"type": "FiniteSum", "parts": [{"type": "Torus"}]}]})
        dualized, rebuilt = dual(d), dual_by_constructors(d)
        assert repr(dualized) == repr(rebuilt) and hash(dualized) == hash(rebuilt)
        result = niceness_pipeline(d)
        assert result == pipeline_by_rules(d) and hash(result) == hash(pipeline_by_rules(d))
        verdict = classify_subgroup(dualized.parts[0])
        assert (verdict.case, verdict.witness) == (2, SumOmega((Cyclic(2),)))
        for record, field in [(dualized, "parts"), (dualized.parts[0], "parts"), (result, "verdict"),
                              (result.steps[0], "rule"), (verdict, "case")]:
            with pytest.raises(FrozenInstanceError):
                setattr(record, field, None)


class TestGoldenDigests:
    """Digests of outputs recorded before the descriptor layer was
    rewritten for speed; they pin its order and every output byte."""

    def test_enumeration_order(self):
        # the benchmark picks its descriptor chunks by enumeration index
        digest = hashlib.sha256()
        for d in enumerate_descriptors(6):
            digest.update(repr(d).encode() + b"\n")
        assert digest.hexdigest() == "dbadf2f3fd02f1c42cbda879052a3d41c5bf9b8392f48b76c66a6ee19322b6c5"

    def test_pipeline_dual_and_classify_outputs(self):
        digest = hashlib.sha256()
        count = 0
        for d in enumerate_descriptors(5):
            try:
                verdict = classify_subgroup(d).to_json()
            except (NotDiscrete, NotInfinite) as refused:
                verdict = type(refused).__name__
            doc = [niceness_pipeline(d).to_json(), descriptor_to_json(dual(d)), verdict]
            digest.update(json.dumps(doc, sort_keys=True).encode() + b"\n")
            count += 1
        assert count == 14331
        assert digest.hexdigest() == "8323687d93ee10e026f5383929776275dcd77c4fdb370f0976f9e7ca8e82a1ff"
