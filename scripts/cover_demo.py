"""End-to-end covering demo: build both nullset flavours, cover seeded
random slaloms, and show the certificates next to their exact
re-checks.

Usage: python3 scripts/cover_demo.py [seed]
"""

import itertools
import sys

from nullcover.cover import (
    build_nullset,
    cover_padic_slalom,
    cover_product_slalom,
    plan_blocks_padic,
    plan_blocks_product,
    random_slalom,
    verify_cover,
)
from nullcover.groups import PadicContext


def show(label, spec, slalom, certificate, result):
    print(f"== {label}")
    print(f"   block orders : {spec.plan.block_orders}")
    print(f"   slalom sets  : {slalom.sets}")
    print(f"   translate    : {certificate.translate}")
    print(f"   verified     : {certificate.verified} over {certificate.checked_count} elements")
    if result.carry_cases is not None:
        plain, carried = result.carry_cases
        print(f"   carry split  : {plain} plain / {carried} carried block checks")
    print()


def main() -> None:
    seed = int(sys.argv[1]) if len(sys.argv) > 1 else 7

    spec = build_nullset(plan_blocks_product(itertools.cycle([2]), 4))
    slalom = random_slalom(spec.plan, "n+2", seed)
    certificate = cover_product_slalom(spec, slalom)
    result = verify_cover(spec, certificate.translate, slalom)
    show("product of two-element groups, depth 4", spec, slalom, certificate, result)

    for p in (2, 3, 5):
        spec = build_nullset(plan_blocks_padic(p, 4))
        ctx = PadicContext(p, spec.plan.boundaries[-1])
        slalom = random_slalom(spec.plan, "(n+2)//2", seed)
        certificate = cover_padic_slalom(ctx, spec, slalom)
        result = verify_cover(spec, certificate.translate, slalom)
        show(f"{p}-adic integers truncated to {ctx.length} digits", spec, slalom, certificate, result)


if __name__ == "__main__":
    main()
