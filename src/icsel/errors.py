"""Exception types shared across the package.

Each error the CLI reports carries its exit code and stderr label as class
attributes; `icsel.cli.main` prints `label: message` and returns `exit_code`.
"""


class IcselError(Exception):
    """Base of the errors the CLI reports; each subclass sets exit_code and label."""


class ParseError(IcselError, ValueError):
    """Input file could not be parsed."""

    exit_code, label = 2, "parse error"


class ValidationError(IcselError, ValueError):
    """Dataset or configuration violates an invariant."""

    exit_code, label = 3, "validation error"


class DegenerateSupportError(IcselError, RuntimeError):
    """The maximal-intersection support set is empty; nothing can be fit."""

    exit_code, label = 4, "degenerate support"


class NumericalError(IcselError, RuntimeError):
    """The fit hit an unrecoverable numerical condition."""

    exit_code, label = 5, "numerical failure"
