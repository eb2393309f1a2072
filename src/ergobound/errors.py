"""Exception types shared across the package, and the rules for counts, steps and orders."""

import math
import operator


class ErgoboundError(Exception):
    """Base class for every error raised by this package."""


class NonConvergence(ErgoboundError):
    """A dense iterative routine failed to meet its residual contract."""


class NotSchurStable(ErgoboundError):
    """The spectral radius is not strictly below one."""


class KappaBelowThreshold(ErgoboundError):
    """A fixed scaling parameter does not exceed the admissibility threshold."""


class NotSymmetric(ErgoboundError):
    """A matrix expected to be symmetric is not, beyond tolerance."""


class NotPSD(ErgoboundError):
    """A matrix expected to be positive semidefinite is not, beyond tolerance."""


class EmptyCoefficients(ErgoboundError):
    """An autoregressive coefficient list is empty."""


class OrderViolation(ErgoboundError):
    """Moving-average order must satisfy 1 <= q <= p."""


class MomentUnavailable(ErgoboundError):
    """The requested absolute moment of the driving noise is infinite."""


class SingularStationaryCovariance(ErgoboundError):
    """The stationary covariance is singular; Gaussian-flavor bounds do not apply."""


class NotDiagonalizable(ErgoboundError):
    """An eigenvector basis with acceptable conditioning was not found."""


class OutOfRegime(ErgoboundError):
    """The time step is below the validity threshold of an asymptotic estimate."""


class ZeroEigenvalue(ErgoboundError):
    """Jordan-power estimates require a nonzero eigenvalue."""


class DimensionMismatch(ErgoboundError):
    """Operands have incompatible dimensions."""


class UnequalSampleSizes(ErgoboundError):
    """Empirical quantile distances require equally sized samples."""


def as_count(value, name: str, least: int = 1) -> int:
    """``value`` as a Python int; ``ValueError`` naming ``name`` unless it is an integer of at
    least ``least`` (dimensions, copies, paths, draws, directions)."""
    try:
        n = operator.index(value)
    except TypeError:  # a float or a string is no count, even an integral one
        n = least - 1
    if n < least:
        raise ValueError(f"{name} must be an integer of at least {least}, got {value!r}")
    return n


def as_step(value, name: str = "t") -> int:
    """A time step: a count of at least 0 (``Q^t`` at ``t < 0`` would invert ``Q``)."""
    return as_count(value, name, 0)


def as_order(value):
    """``value``; ``ValueError`` unless it is a real order ``1 <= r < inf``."""
    try:
        if 1.0 <= value < math.inf:  # NaN fails
            return value
    except TypeError:  # a string is no order
        pass
    raise ValueError(f"order r must be finite and at least 1, got {value!r}")
