"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line (run with -s to see them live).  Tolerances and runtime budgets are
pinned here, not configurable."""

import itertools
import json
import random
import subprocess
import sys
import time
from fractions import Fraction
from math import factorial

from nullcover.cover import (
    bound_product,
    build_nullset,
    cover_padic_slalom,
    cover_product_slalom,
    find_translator,
    first_bound_below,
    measure_upper,
    plan_blocks_padic,
    plan_blocks_product,
    random_slalom,
    verify_cover,
)
from nullcover.groups import FiniteAbelianGroup, PadicContext
from nullcover.nullset import ek_membership, ek_outer_measure, ek_sup
from nullcover.structure import (
    Cyclic,
    Padic,
    ProdOmega,
    Torus,
    divisible_chain,
    dual,
    enumerate_descriptors,
    niceness_pipeline,
)

from helpers import abelian_groups_up_to, all_residues, scale_residues, sub_residues, zero_residues


def report(name: str, ok: bool, detail: str = "") -> None:
    suffix = f" ({detail})" if detail else ""
    print(f"{'PASS' if ok else 'FAIL'}: {name}{suffix}")
    assert ok, f"{name}{suffix}"


def test_translator_sweep():
    # every abelian group of order <= 24, every level n <= 3, kept sets of
    # exactly the minimal admissible size; 100 seeded random (kept, target)
    # pairs per cell, each confirmed by direct membership
    started = time.perf_counter()
    rng = random.Random(0x5EED)
    failures = 0
    checked = 0
    for G in abelian_groups_up_to(24):
        elements = list(all_residues(G))
        for n in range(4):
            size = -(-(G.order * (n + 2)) // (n + 3))
            if size >= G.order:
                continue
            for _ in range(100):
                kept = frozenset(rng.sample(elements, size))
                width = rng.randint(1, min(n + 2, G.order))
                targets = rng.sample(elements, width)
                g = G.element_at(find_translator(
                    G, sorted(map(G.index_of, kept)), map(G.index_of, targets), n))
                if not all(sub_residues(G, s, g) in kept for s in targets):
                    failures += 1
                checked += 1
    elapsed = time.perf_counter() - started
    report(
        "translator sweep over all small abelian groups",
        failures == 0 and elapsed < 60.0,
        f"{checked} instances, {failures} failures, {elapsed:.1f}s < 60s",
    )


def test_product_cover_500_slaloms():
    started = time.perf_counter()
    spec = build_nullset(plan_blocks_product(itertools.cycle([2]), 6))
    bad = 0
    for seed in range(500):
        slalom = random_slalom(spec.plan, "n+2", seed)
        certificate = cover_product_slalom(spec, slalom)
        if not (certificate.verified and certificate.checked_count == slalom.element_count):
            bad += 1
    elapsed = time.perf_counter() - started
    report(
        "product cover, depth 6, 500 slaloms",
        bad == 0 and elapsed < 30.0,
        f"{bad} unverified, {elapsed:.1f}s < 30s",
    )


def test_padic_cover_with_carry_dichotomy():
    started = time.perf_counter()
    bad = 0
    dichotomy_checks = dichotomy_hits = 0
    for p in (2, 3, 5):
        spec = build_nullset(plan_blocks_padic(p, 5))
        ctx = PadicContext(p, spec.plan.boundaries[-1])
        for seed in range(300):
            slalom = random_slalom(spec.plan, "(n+2)//2", seed)
            certificate = cover_padic_slalom(ctx, spec, slalom)
            result = verify_cover(spec, certificate.translate, slalom)
            if not (certificate.verified and result.ok):
                bad += 1
            # verify_cover raises on any element outside the two carry
            # branches, so the branch counts exhaust the checks
            dichotomy_checks += result.checked_count * spec.depth
            dichotomy_hits += sum(result.carry_cases)
    elapsed = time.perf_counter() - started
    report(
        "padic cover with carry dichotomy, p in {2,3,5}, depth 5, 300 slaloms each",
        bad == 0 and dichotomy_hits == dichotomy_checks and elapsed < 60.0,
        f"{bad} unverified, dichotomy {dichotomy_hits}/{dichotomy_checks}, {elapsed:.1f}s < 60s",
    )


def test_measure_decay():
    # regression anchor: direct exact evaluation of the decay bound first
    # drops below 1/10 at N = 225
    anchor = first_bound_below(Fraction(1, 10))
    anchored = anchor == 225 and bound_product(225) < Fraction(1, 10) <= bound_product(224)
    spec = build_nullset(plan_blocks_padic(2, 40))
    dominated = all(measure_upper(spec, n) <= bound_product(n) for n in range(1, spec.depth + 1))
    report(
        "measure decay",
        anchored and dominated,
        f"first N below 1/10 = {anchor}, measure <= bound for N <= {spec.depth}",
    )


def test_factorial_nullset_numerics():
    # telescoping identity at every depth up to 10^4 via a running product,
    # with the library function pinned to it densely below 2000 and at
    # every multiple of 500 beyond
    running = Fraction(1)
    identity_ok = True
    function_ok = True
    for n in range(2, 10_001):
        running *= Fraction(n - 1, n)
        identity_ok &= running == Fraction(1, n)
        if n <= 2000 or n % 500 == 0:
            function_ok &= ek_outer_measure(n) == running == Fraction(1, n)
    e = sum(Fraction(1, factorial(k)) for k in range(40))  # independent series
    sup_ok = abs(ek_sup(12) - (3 - e)) < Fraction(1, 10**7)
    membership_ok = (
        ek_membership(Fraction(0), 12) == "in"
        and ek_membership(Fraction(1, 2), 12) == "out"
        and ek_membership(Fraction(1, 6), 12) == "in"
    )
    report(
        "factorial-base nullset numerics",
        identity_ok and function_ok and sup_ok and membership_ok,
        f"measure identity to 10^4, |sup(12)-(3-e)| = {float(abs(ek_sup(12) - (3 - e))):.2e} < 1e-7",
    )


def test_duality_involution_and_terminals():
    count = 0
    involution_ok = True
    for d in enumerate_descriptors(6):
        if dual(dual(d)) != d:
            involution_ok = False
            break
        count += 1
    terminals_ok = True
    for terminal in (Torus(), ProdOmega((Cyclic(2),)), Padic(3)):
        result = niceness_pipeline(terminal)
        terminals_ok &= result.verdict == "nice" and len(result.steps) == 1
    report(
        "duality involution and pipeline terminals",
        involution_ok and count >= 1000 and terminals_ok,
        f"{count} descriptors up to size 6, three one-step terminals",
    )


def test_divisible_chains():
    ok = True
    for p in (2, 3):
        for k in range(1, 7):
            G = FiniteAbelianGroup((p**k,))
            deepest = None
            for depth in range(k + 2):
                chain = divisible_chain(G, p, depth)
                if chain is None:
                    break
                deepest = depth
                ok &= chain[0] != zero_residues(G)
                ok &= all(scale_residues(G, p, h) == g for g, h in zip(chain, chain[1:]))
            ok &= deepest == k - 1
    report("divisible chains in prime-power cyclic groups", ok, "p in {2,3}, k <= 6")


def test_cli_determinism(tmp_path):
    bundle_path = tmp_path / "bundle.json"
    bundle = subprocess.run(
        [sys.executable, "-m", "nullcover", "cover", "padic", "--p", "2", "--depth", "2", "--seed", "3"],
        capture_output=True,
        check=True,
    ).stdout
    bundle_path.write_bytes(bundle)
    plan_json = json.dumps({"mode": "padic", "p": 2, "boundaries": [0, 3, 7]})
    spec = json.loads(bundle)["spec"]
    invocations = [
        ["plan", "product", "--orders", "2,3", "--cycle", "--depth", "4"],
        ["plan", "padic", "--p", "5", "--depth", "3"],
        ["build-nullset", "--in", plan_json],
        ["cover", "product", "--orders", "2", "--cycle", "--depth", "5", "--seed", "11"],
        ["cover", "padic", "--p", "3", "--depth", "3", "--seed", "11"],
        ["verify", "--in", f"@{bundle_path}"],
        ["measure", "--in", json.dumps(spec), "--blocks", "2"],
        ["measure", "--first-below", "1/10"],
        ["ek", "member", "--num", "1", "--den", "6", "--depth", "10"],
        ["ek", "measure", "--depth", "64"],
        ["ek", "sup", "--depth", "12"],
        ["classify", "--in", '{"type":"SumOmega","parts":[{"type":"Cyclic","m":2}]}'],
        ["dual", "--in", '{"type":"Int"}'],
        ["pipeline", "--in", '{"type":"FiniteSum","parts":[{"type":"Int"},{"type":"Padic","p":2}]}'],
        ["chain", "--orders", "16,2", "--p", "2", "--depth", "3"],
        ["slalom-gen", "--in", plan_json, "--width", "(n+2)//2", "--seed", "5"],
        ["cube-check", "--in", json.dumps({"plan": json.loads(plan_json), "family": []})],
    ]
    mismatches = []
    for args in invocations:
        runs = [
            subprocess.run(
                [sys.executable, "-m", "nullcover", *args], capture_output=True, check=True
            )
            for _ in range(2)
        ]
        if runs[0].stdout != runs[1].stdout:
            mismatches.append(args[0])
    report(
        "CLI determinism",
        not mismatches,
        f"{len(invocations)} subcommands byte-identical across repeated runs",
    )
