"""Print the exact decay of the nullset measure bound and where it first
drops below a few thresholds.  The 1/10 crossing is the regression anchor
pinned in the acceptance suite.

Usage: python3 scripts/measure_decay.py
"""

from fractions import Fraction

from nullcover.cover import bound_product, build_nullset, first_bound_below, measure_upper, plan_blocks_padic


def main() -> None:
    print("N    bound (float)        bound (exact, truncated)")
    for n in (1, 2, 5, 10, 25, 50, 100, 225, 500):
        bound = bound_product(n)
        text = f"{bound.numerator}/{bound.denominator}"
        if len(text) > 40:
            text = text[:37] + "..."
        print(f"{n:<4} {float(bound):<20.12f} {text}")

    print()
    # each crossing costs one binomial (Wallis's closed form) plus a step
    # of exact comparisons; crossings past NUMERIC_DEPTH_CAP blocks (below
    # about 1/120) raise CapExceeded
    for threshold in (Fraction(1, 2), Fraction(1, 10), Fraction(1, 20), Fraction(1, 100)):
        n = first_bound_below(threshold)
        print(f"bound first drops below {threshold}: N = {n}")

    print()
    spec = build_nullset(plan_blocks_padic(2, 12))
    print("p=2 spec, depth 12: per-level exact measure vs bound")
    for n in range(1, spec.depth + 1):
        measure = measure_upper(spec, n)
        print(f"  N={n:<3} measure={float(measure):.9f}  bound={float(bound_product(n)):.9f}")


if __name__ == "__main__":
    main()
