"""Exception hierarchy shared by the library and the CLI.

The CLI maps these onto exit codes, so the split between "bad input"
(:class:`SchemaError`), "valid input violating a precondition"
(:class:`PreconditionViolated`), "work refused by a cap"
(:class:`CapExceeded`) and "internal contradiction"
(:class:`VerificationFailed`) is part of the interface.
"""


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


class EmptyWindow(PreconditionViolated):
    """The admissible size window for a block subset is empty.

    Impossible for well-formed plans (block order > 2(n+3)); treated as
    plan corruption.
    """


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
