"""Batch JSON command line.

Every subcommand reads inline JSON (or @file) plus flags, writes one JSON
document to stdout, and is byte-for-byte deterministic for identical
arguments.  Exit codes: 0 ok, 2 malformed input, 3 precondition violated,
4 cap exceeded, 10 internal verification failure (a bug, reported with a
reproduction payload).  A usage error (an unknown command or option, a
missing or ill-typed value) is malformed input too: it exits 2 with a
SchemaError document, and click's usage message still goes to stderr.

Only what every command uses is imported here; each command body imports
the library modules it calls, so a start loads no module its command
does not run.
"""

from __future__ import annotations

import json
import re
import sys
from contextlib import contextmanager
from functools import wraps
from typing import Optional

import click
from click.core import ParameterSource

from .errors import (
    PAST_DIGIT_LIMIT,
    CapExceeded,
    NullcoverError,
    SchemaError,
    VerificationFailed,
    _as_int,
    _count_text,
    _refuse_unknown_keys,
    rational_to_json,
)


class _Integer(click.ParamType):
    """Every integer option: the strict spelling of ``errors._as_int``
    (``-?[0-9]+``, nothing else)."""

    name = "integer"

    def convert(self, value, param, ctx) -> int:
        try:
            return _as_int(value, "value")
        except SchemaError:
            self.fail(f"{value!r} is not a valid integer.", param, ctx)


INTEGER = _Integer()

seed_option = click.option("--seed", type=INTEGER, default=0, show_default=True, help="Deterministic seed.")


def parse_payload(raw: Optional[str]) -> object:
    """Inline JSON, or @path to read a JSON file."""
    if raw is None:
        raise SchemaError("this command needs --in")
    if raw.startswith("@"):
        try:
            with open(raw[1:], "r", encoding="utf-8") as handle:
                raw = handle.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise SchemaError(f"cannot read {raw[1:]!r}: {exc}") from None
    try:
        return json.loads(raw)
    except ValueError as exc:   # malformed, or an integer literal past the digit limit
        raise SchemaError(f"invalid JSON: {exc}") from None
    except RecursionError:
        raise SchemaError("JSON nested too deeply to decode") from None


def emit(out: Optional[str], payload: dict) -> None:
    try:
        text = json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
    except ValueError:
        # payloads hold no cycles, so this is an integer past the
        # interpreter's limit on decimal conversion
        raise CapExceeded(PAST_DIGIT_LIMIT) from None
    if out:
        try:
            with open(out, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            raise SchemaError(f"cannot write {out!r}: {exc}") from None
    else:
        sys.stdout.write(text)


def _write_error(exc: NullcoverError) -> None:
    """The error document, always JSON and always on stdout."""
    error = {"type": type(exc).__name__, "message": str(exc)}
    repro = getattr(exc, "repro", None)
    if repro is not None:
        error["repro"] = repro
    sys.stdout.write(json.dumps({"error": error}, sort_keys=True, separators=(",", ":")) + "\n")


def command(fn):
    """Wrap a subcommand body: add ``--out``, pass the other options to
    the body as keyword arguments, emit its document, map errors to codes."""

    @click.option("--out", type=str, default=None, help="Write output here instead of stdout.")
    @wraps(fn)
    def runner(out, **kwargs):
        try:
            emit(out, fn(**kwargs))
        except NullcoverError as exc:
            _write_error(exc)
            raise SystemExit(getattr(exc, "exit_code", 3))

    return runner


@contextmanager
def _usage_errors_reported():
    # click shows the usage error on stderr and exits 2 once it propagates
    try:
        yield
    except click.UsageError as exc:
        _write_error(SchemaError(exc.format_message()))
        raise


class _Root(click.Group):
    """The root group: usage errors in parsing it (``make_context``) and
    in resolving and parsing its subcommands (``invoke``) also write a
    SchemaError document to stdout."""

    def make_context(self, *args, **kwargs):
        with _usage_errors_reported():
            return super().make_context(*args, **kwargs)

    def invoke(self, ctx):
        with _usage_errors_reported():
            return super().invoke(ctx)


def _parse_orders(raw: str) -> tuple[int, ...]:
    tokens = (tok.strip() for tok in raw.split(","))
    orders = tuple(_as_int(tok, "--orders entry") for tok in tokens if tok)
    if not orders:
        raise SchemaError("--orders must name at least one cyclic order")
    return orders


def _order_supply(orders: tuple[int, ...], cycle: bool):
    if not cycle:
        return orders
    import itertools

    return itertools.cycle(orders)


# a decimal exponent, which Fraction turns into a power of ten of that many
# digits; past the interpreter's 4,300-digit limit on decimal integers it
# is refused before the power is built, as a long integer literal is
_EXPONENT = re.compile(r"[eE]([-+]?[0-9_]+)")
_MAX_EXPONENT = 4300


def _parse_fraction(raw: str):
    from fractions import Fraction

    try:
        exponent = _EXPONENT.search(raw)
        if exponent is not None and abs(int(exponent.group(1))) > _MAX_EXPONENT:
            raise SchemaError(f"the exponent of {raw!r} exceeds {_MAX_EXPONENT}")
        return Fraction(raw)
    except (ValueError, ZeroDivisionError):
        raise SchemaError(f"expected a fraction like 1/10, got {raw!r}") from None


@click.group(cls=_Root)
def main() -> None:
    """Exact covering constructions for compact nullsets, with certified
    translates and a symbolic reduction pipeline."""


# -- plan -------------------------------------------------------------------


@main.group("plan")
def plan_group() -> None:
    """Cut coordinates into blocks with fast-growing group orders."""


@plan_group.command("product")
@click.option("--orders", required=True, help="Comma-separated cyclic orders of the coordinates.")
@click.option("--cycle", is_flag=True, help="Repeat the orders list cyclically as needed.")
@click.option("--depth", type=INTEGER, required=True)
@command
def plan_product(orders: str, cycle: bool, depth: int) -> dict:
    from . import cover as cov

    plan = cov.plan_blocks_product(_order_supply(_parse_orders(orders), cycle), depth)
    return plan.to_json()


@plan_group.command("padic")
@click.option("--p", type=INTEGER, required=True)
@click.option("--depth", type=INTEGER, required=True)
@command
def plan_padic(p: int, depth: int) -> dict:
    from . import cover as cov

    return cov.plan_blocks_padic(p, depth).to_json()


# -- nullset construction ----------------------------------------------------


@main.command("build-nullset")
@click.option("--in", "payload", default=None, help="Block plan JSON (inline or @file).")
@command
def build_nullset_cmd(payload: Optional[str]) -> dict:
    from . import cover as cov

    plan = cov.BlockPlan.from_json(parse_payload(payload))
    return cov.build_nullset(plan).to_json()


# -- covers -------------------------------------------------------------------


# the fields of a cover bundle, which `cover --in` and `verify` read
_BUNDLE_KEYS = ("spec", "slalom", "certificate")
# the flags of a self-contained cover run, which a --in payload replaces
_SELF_CONTAINED = ("orders", "cycle", "p", "depth", "seed")


def _cover_inputs(payload, plan_builder, width, seed):
    """Either a full {spec, slalom} payload or a seeded self-contained run;
    a payload given with any self-contained flag is refused."""
    from . import cover as cov

    if payload is not None:
        ctx = click.get_current_context()
        given = [
            f"--{name}"
            for name in _SELF_CONTAINED
            if ctx.get_parameter_source(name) not in (None, ParameterSource.DEFAULT)
        ]
        if given:
            raise SchemaError(f"--in replaces the self-contained flags; drop {', '.join(given)}")
        obj = parse_payload(payload)
        if not isinstance(obj, dict) or "spec" not in obj or "slalom" not in obj:
            raise SchemaError("cover payload must be an object with 'spec' and 'slalom'")
        _refuse_unknown_keys(obj, _BUNDLE_KEYS, "cover payload")
        return cov.NullsetSpec.from_json(obj["spec"]), cov.Slalom.from_json(obj["slalom"])
    plan = plan_builder()
    spec = cov.build_nullset(plan)
    slalom = cov.random_slalom(plan, width, seed)
    return spec, slalom


def _cover_bundle(spec, slalom, run) -> dict:
    """Run one cover and bundle it with its inputs.  A failed re-check,
    an internal fault (exit 10), carries the inputs as its reproduction
    payload; any other error is said by its message alone, since the
    inputs can be megabytes."""
    try:
        cert = run()
    except VerificationFailed as exc:
        exc.repro = {"spec": spec.to_json(), "slalom": slalom.to_json()}
        raise
    return {"spec": spec.to_json(), "slalom": slalom.to_json(), "certificate": cert.to_json()}


@main.group("cover")
def cover_group() -> None:
    """Compute and verify one covering translate."""


@cover_group.command("product")
@click.option("--in", "payload", default=None, help="{'spec':…,'slalom':…} (inline or @file).")
@click.option("--orders", default=None, help="Self-contained mode: coordinate orders.")
@click.option("--cycle", is_flag=True)
@click.option("--depth", type=INTEGER, default=None)
@seed_option
@command
def cover_product_cmd(payload, orders, cycle, depth, seed) -> dict:
    from . import cover as cov

    def build():
        if orders is None or depth is None:
            raise SchemaError("self-contained mode needs --orders and --depth")
        return cov.plan_blocks_product(_order_supply(_parse_orders(orders), cycle), depth)

    spec, slalom = _cover_inputs(payload, build, "n+2", seed)
    return _cover_bundle(spec, slalom, lambda: cov.cover_product_slalom(spec, slalom))


@cover_group.command("padic")
@click.option("--in", "payload", default=None, help="{'spec':…,'slalom':…} (inline or @file).")
@click.option("--p", type=INTEGER, default=None, help="Self-contained mode: the prime.")
@click.option("--depth", type=INTEGER, default=None)
@seed_option
@command
def cover_padic_cmd(payload, p, depth, seed) -> dict:
    from . import cover as cov
    from .groups import PadicContext

    def build():
        if p is None or depth is None:
            raise SchemaError("self-contained mode needs --p and --depth")
        return cov.plan_blocks_padic(p, depth)

    spec, slalom = _cover_inputs(payload, build, "(n+2)//2", seed)
    # a product-mode spec has no prime; the cover refuses its mode
    ctx = PadicContext(spec.plan.p, spec.plan.boundaries[-1]) if spec.plan.mode == "padic" else None
    return _cover_bundle(spec, slalom, lambda: cov.cover_padic_slalom(ctx, spec, slalom))


@main.command("verify")
@click.option("--in", "payload", default=None, help="{'spec':…,'slalom':…,'certificate':…}.")
@command
def verify_cmd(payload: Optional[str]) -> dict:
    from . import cover as cov

    obj = parse_payload(payload)
    if not isinstance(obj, dict) or not {"spec", "slalom", "certificate"} <= obj.keys():
        raise SchemaError("verify payload must carry 'spec', 'slalom' and 'certificate'")
    _refuse_unknown_keys(obj, _BUNDLE_KEYS, "verify payload")
    spec = cov.NullsetSpec.from_json(obj["spec"])
    slalom = cov.Slalom.from_json(obj["slalom"])
    cert = cov.CoverCertificate.from_json(spec.plan, obj["certificate"])
    # the domain check first: it refuses a slalom of the wrong depth
    # before the element count multiplies all of its set sizes
    slalom.check_domains(spec.plan)
    if cert.verified and cert.checked_count != slalom.element_count:
        raise SchemaError(
            f"certificate claims {_count_text(cert.checked_count)} checked elements,"
            f" slalom has {_count_text(slalom.element_count)}"
        )
    return cov.verify_cover(spec, cert.translate, slalom).to_json()


# -- measure ------------------------------------------------------------------


@main.command("measure")
@click.option("--in", "payload", default=None, help="Nullset spec JSON (with --blocks).")
@click.option("--blocks", type=INTEGER, default=None)
@click.option("--first-below", default=None, help="Fraction threshold, e.g. 1/10.")
@command
def measure_cmd(payload, blocks, first_below) -> dict:
    from . import cover as cov

    if first_below is not None:
        given = [flag for flag, value in (("--in", payload), ("--blocks", blocks)) if value is not None]
        if given:
            raise SchemaError(f"--first-below takes no spec; drop {', '.join(given)}")
        threshold = _parse_fraction(first_below)
        n = cov.first_bound_below(threshold)
        return {
            "threshold": rational_to_json(threshold),
            "first_n": n,
            "bound": rational_to_json(cov.bound_product(n)),
        }
    if blocks is None:
        raise SchemaError("measure needs --blocks (with --in) or --first-below")
    spec = cov.NullsetSpec.from_json(parse_payload(payload))
    return {
        "blocks": blocks,
        "measure": rational_to_json(cov.measure_upper(spec, blocks)),
        "bound": rational_to_json(cov.bound_product(blocks)),
    }


# -- factorial-base nullset ----------------------------------------------------


@main.group("ek")
def ek_group() -> None:
    """The factorial-digit nullset: membership, measure, supremum."""


@ek_group.command("member")
@click.option("--num", required=True)
@click.option("--den", required=True)
@click.option("--depth", type=INTEGER, required=True)
@click.option("--digits", is_flag=True, help="Also emit the expansions, digit arrays starting at n=2.")
@command
def ek_member_cmd(num: str, den: str, depth: int, digits: bool) -> dict:
    from . import nullset as ns

    q = ns.rational_from_json({"num": num, "den": den})
    payload = {"verdict": ns.ek_membership(q, depth)}
    if digits:
        greedy, alternate = ns.factorial_expand(q, depth)
        payload["greedy"] = {"digits": list(greedy.digits), "tail": greedy.tail}
        payload["alternate"] = (
            None if alternate is None else {"digits": list(alternate.digits), "tail": alternate.tail}
        )
    return payload


@ek_group.command("measure")
@click.option("--depth", type=INTEGER, required=True)
@command
def ek_measure_cmd(depth: int) -> dict:
    from . import nullset as ns

    return {"depth": depth, "value": rational_to_json(ns.ek_outer_measure(depth))}


@ek_group.command("sup")
@click.option("--depth", type=INTEGER, required=True)
@command
def ek_sup_cmd(depth: int) -> dict:
    from . import nullset as ns

    return {"depth": depth, "value": rational_to_json(ns.ek_sup(depth))}


# -- symbolic layer -------------------------------------------------------------


@main.command("classify")
@click.option("--in", "payload", default=None, help="Group descriptor JSON.")
@command
def classify_cmd(payload) -> dict:
    from . import structure as st

    descriptor = st.descriptor_from_json(parse_payload(payload))
    return st.classify_subgroup(descriptor).to_json()


@main.command("dual")
@click.option("--in", "payload", default=None, help="Group descriptor JSON.")
@command
def dual_cmd(payload) -> dict:
    from . import structure as st

    descriptor = st.descriptor_from_json(parse_payload(payload))
    return st.descriptor_to_json(st.dual(descriptor))


@main.command("pipeline")
@click.option("--in", "payload", default=None, help="Group descriptor JSON.")
@command
def pipeline_cmd(payload) -> dict:
    from . import structure as st

    descriptor = st.descriptor_from_json(parse_payload(payload))
    return st.niceness_pipeline(descriptor).to_json()


@main.command("chain")
@click.option("--orders", required=True, help="Comma-separated cyclic orders of the finite group.")
@click.option("--p", type=INTEGER, required=True)
@click.option("--depth", type=INTEGER, required=True)
@command
def chain_cmd(orders: str, p: int, depth: int) -> dict:
    from . import structure as st
    from .groups import FiniteAbelianGroup

    group = FiniteAbelianGroup(_parse_orders(orders))
    chain = st.divisible_chain(group, p, depth)
    return {
        "depth": depth,
        "chain": None if chain is None else [list(g) for g in chain],
    }


# -- slalom tooling --------------------------------------------------------------


@main.command("slalom-gen")
@click.option("--in", "payload", default=None, help="Block plan JSON.")
@click.option("--width", default="n+2", show_default=True, help='Width tag or JSON table, e.g. "[1,2,2]".')
@seed_option
@command
def slalom_gen_cmd(payload, width: str, seed: int) -> dict:
    from . import cover as cov

    plan = cov.BlockPlan.from_json(parse_payload(payload))
    spec = width
    if width.startswith("["):
        parsed = parse_payload(width)
        if not isinstance(parsed, list):
            raise SchemaError("width table must be a JSON array")
        spec = tuple(parsed)
    return cov.random_slalom(plan, spec, seed).to_json()


@main.command("cube-check")
@click.option("--in", "payload", default=None, help="{'plan':…,'family':[slaloms]}.")
@command
def cube_check_cmd(payload) -> dict:
    from . import cover as cov

    obj = parse_payload(payload)
    if not isinstance(obj, dict) or "plan" not in obj or "family" not in obj:
        raise SchemaError("cube-check payload must carry 'plan' and 'family'")
    _refuse_unknown_keys(obj, ("plan", "family"), "cube-check payload")
    plan = cov.BlockPlan.from_json(obj["plan"])
    if not isinstance(obj["family"], list):
        raise SchemaError("'family' must be an array of slaloms")
    family = [cov.Slalom.from_json(s) for s in obj["family"]]
    covered, witness = cov.cube_cover_check(family, plan)
    return {"covered": covered, "witness": None if witness is None else list(witness)}


if __name__ == "__main__":
    main()
