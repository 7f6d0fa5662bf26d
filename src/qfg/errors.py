"""Exception hierarchy shared by all qfg modules.

Every error carries a machine-readable ``kind`` (used by the CLI error JSON)
and an ``exit_code``: 2 for bad input, 3 for numerical failures raised while
computing.
"""

import cmath
import dataclasses
import functools

import numpy as np


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


def _finite(x) -> bool:
    """Whether x holds no NaN, infinity or int beyond the float range, through arrays, tuples, lists and dataclasses."""
    if isinstance(x, (float, complex, int, np.number)):  # the common case first
        try:
            return cmath.isfinite(x)
        except OverflowError:
            return False
    if isinstance(x, np.ndarray):
        return x.dtype.kind not in "fc" or bool(np.isfinite(x).all())
    if dataclasses.is_dataclass(x):
        x = [getattr(x, f.name) for f in dataclasses.fields(x)]
    return not isinstance(x, (tuple, list)) or all(map(_finite, x))


def finite_closed_form(fn):
    """Raise DomainError on a non-finite argument; NonFiniteResult on an overflow, a 0 divisor or a non-finite result."""
    quiet = np.errstate(over="ignore", invalid="ignore")(fn)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not (all(map(_finite, args)) and all(map(_finite, kwargs.values()))):
            raise DomainError(f"{fn.__name__}: arguments must be finite")
        try:
            result = quiet(*args, **kwargs)
            if _finite(result):
                return result
        except (OverflowError, ZeroDivisionError):
            pass
        raise NonFiniteResult(f"{fn.__name__}: a computed value is not finite")

    return wrapper
