"""Exception hierarchy shared by all qfg modules.

Every error carries a machine-readable ``kind`` (used by the CLI error JSON)
and an ``exit_code``: 2 for bad input, 3 for numerical failures raised while
computing.
"""

import functools


class QfgError(Exception):
    """Base class for all qfg errors."""

    kind = "error"
    exit_code = 3


class InputError(QfgError):
    """Bad user input (malformed files, invalid field values)."""

    exit_code = 2


class ParseError(InputError):
    kind = "parse"


class InvariantViolation(InputError):
    """A loaded value violates a documented invariant; detail names the field."""

    kind = "invariant"


class NonHermitianInput(QfgError):
    kind = "non-hermitian-input"


class NotPositiveSemidefinite(QfgError):
    kind = "not-positive-semidefinite"


class DimensionMismatch(QfgError):
    kind = "dimension-mismatch"


class NotNormalized(QfgError):
    kind = "not-normalized"


class ChartSingularity(QfgError):
    kind = "chart-singularity"


class DomainError(QfgError):
    kind = "domain"


class TableResolutionError(QfgError):
    kind = "table-resolution"


class SupportMismatch(QfgError):
    """drho has weight outside the support of rho; no SLD exists."""

    kind = "support-mismatch"


class InvalidPovm(QfgError):
    kind = "invalid-povm"


class NotAPovm(InvalidPovm):
    """Outcome-coefficient family violates the completeness relation."""

    kind = "not-a-povm"


class NotOrthogonal(QfgError):
    kind = "not-orthogonal"


class NotTangentForm(QfgError):
    kind = "not-tangent-form"


class ZeroVelocityCurve(QfgError):
    kind = "zero-velocity-curve"


class DegenerateSld(QfgError):
    kind = "degenerate-sld"


class DimensionUnsupported(QfgError):
    kind = "dimension-unsupported"


class NonFiniteResult(QfgError, ValueError):
    """A computed value overflowed to Inf or NaN and cannot be written out."""

    kind = "non-finite-result"


def overflow_is_non_finite(fn):
    """Make a closed form on Python floats raise NonFiniteResult where its arithmetic overflows.

    A Python float power raises OverflowError where numpy would give inf;
    finite results are returned unchanged.
    """

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except OverflowError:
            raise NonFiniteResult(f"{fn.__name__}: a computed value overflows the float range") from None

    return wrapper
