"""Exception types shared across the package."""

__all__ = [
    "DegenerateLiftError",
    "NumericalError",
    "QWalkError",
    "ValidationError",
]


class QWalkError(Exception):
    """Base class for all package-specific failures."""


class ValidationError(QWalkError, ValueError):
    """Invalid input: malformed files, out-of-range ids, domain violations."""


class NumericalError(QWalkError, ArithmeticError):
    """A numerical routine failed to meet its contract.

    Raised on rank ambiguities, residuals above target, and internal
    consistency checks that should hold for every valid input.
    """


class DegenerateLiftError(QWalkError):
    """An eigenvector lift produced the zero vector.

    Happens when the lift is attempted at an eigenvalue sitting on the
    unit interval boundary (lambda = +-1), where the two lift branches
    collapse onto each other.
    """
