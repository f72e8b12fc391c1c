"""Exception hierarchy shared by the library and the CLI.

The CLI maps these onto exit codes, so the split between "bad input"
(:class:`SchemaError`), "valid input violating a precondition"
(:class:`PreconditionViolated`), "work refused by a cap"
(:class:`CapExceeded`) and "internal contradiction"
(:class:`VerificationFailed`) is part of the interface.  The default
caps live here too, beside :class:`CapExceeded`, so that the CLI can
declare its options without importing the modules that apply them, and
so do the helpers that every reader and writer of outside input
shares: the strict integer parser, the JSON form of a rational and the
text of a count in an error message.
"""

import re

# Default cap on what a run builds: the elements of a nullset's blocks
# in all, the values of a random slalom or of a checked one, the entries
# of a divisible chain.
DEFAULT_ENUM_CAP = 1 << 20
# Largest cube a default cube check scans point by point.  A cover check
# has no element cap, since it decides every slalom element without
# visiting one; the slalom's values count against DEFAULT_ENUM_CAP.
DEFAULT_VERIFY_CAP = 1 << 20
# Largest depth the exact numeric queries evaluate: the digit depth of
# ek_sup, whose denominator is N!, and of factorial_expand, and the block
# count first_bound_below may search, judged by its Wallis estimate
# before any big-integer work.
NUMERIC_DEPTH_CAP = 1 << 15

# what a document raises when it holds an integer that the interpreter
# will not print in decimal, past its 4,300-digit limit
PAST_DIGIT_LIMIT = "the output holds an integer past the interpreter's decimal digit limit"

# an optional minus sign and decimal digits, nothing else: no sign "+",
# no underscores, no surrounding whitespace
_DECIMAL = re.compile(r"-?[0-9]+")


class NullcoverError(Exception):
    """Base class for all library errors."""


class SchemaError(NullcoverError):
    """Malformed input: wrong JSON shape, missing field, bad type."""

    exit_code = 2


class PreconditionViolated(NullcoverError):
    """Structurally valid input that violates an operation's precondition."""

    exit_code = 3


class DimensionMismatch(PreconditionViolated):
    """Element length does not match the group or context it is used in."""


class CapExceeded(NullcoverError):
    """An exhaustive operation would exceed its configured cap.

    Caps abort; they never degrade an exhaustive check to sampling.
    """

    exit_code = 4


class NoTranslator(NullcoverError):
    """The forbidden set filled the whole group.

    Under the stated cardinality preconditions the counting bound rules
    this out, so seeing it signals a violated precondition, not a gap in
    the construction.
    """

    exit_code = 3


class VerificationFailed(NullcoverError):
    """An exact re-check contradicted a produced certificate.

    This is a hard internal error: it means a bug, never a bad input.
    """

    exit_code = 10


class NotFiniteTorsion(PreconditionViolated):
    """Descriptor does not denote a finite group."""


class NotInfinite(PreconditionViolated):
    """Descriptor denotes a finite group where an infinite one is required."""


class NotDiscrete(PreconditionViolated):
    """Descriptor denotes a nondiscrete group where a discrete one is required."""


def _as_int(value: object, what: str) -> int:
    """The one strict integer parser for outside input: a non-bool int,
    or a decimal string (so very large exact integers survive JSON) that
    matches ``-?[0-9]+`` exactly; anything else is a :class:`SchemaError`."""
    if isinstance(value, bool):
        raise SchemaError(f"{what} must be an integer, got a boolean")
    if isinstance(value, int):
        return value
    if isinstance(value, str):
        if not _DECIMAL.fullmatch(value):
            raise SchemaError(f"{what} must be an integer, got {value!r}")
        try:
            return int(value)
        except ValueError:   # beyond the interpreter's int-to-str digit limit
            raise SchemaError(f"{what} has too many digits") from None
    raise SchemaError(f"{what} must be an integer, got {type(value).__name__}")


def _refuse_unknown_keys(obj: dict, allowed: tuple[str, ...], what: str) -> None:
    """Refuse a JSON object key outside ``allowed``, its schema's
    ``properties`` (every published schema sets ``additionalProperties:
    false``), with a :class:`SchemaError` that names the key."""
    for key in obj:
        if key not in allowed:
            raise SchemaError(f"{what} has unknown field {key!r}")


def _count_text(count: int) -> str:
    """An integer as a message prints it: exact up to 2^64, beyond that
    the greatest power of two below it, since the interpreter refuses to
    print integers of more than 4,300 digits."""
    return str(count) if count <= 1 << 64 else f"more than 2^{(count - 1).bit_length() - 1}"


def rational_to_json(q) -> dict:
    """An exact rational (a ``Fraction``) as decimal strings, so that
    numerators and denominators of any size up to the interpreter's
    4,300-digit limit survive JSON; past it :class:`CapExceeded`."""
    try:
        return {"num": str(q.numerator), "den": str(q.denominator)}
    except ValueError:
        raise CapExceeded(PAST_DIGIT_LIMIT) from None
