"""Exception types shared across the package, and the base of its
immutable classes."""

__all__ = [
    "DegenerateLiftError",
    "Frozen",
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


class Frozen:
    """Base of the package's immutable classes, in place of a frozen
    dataclass, whose class statement costs about a millisecond at import.

    A subclass sets its attributes in ``__init__``, in its instance dict
    or through ``object.__setattr__``; any later assignment or deletion
    raises ``dataclasses.FrozenInstanceError`` (an AttributeError).
    ``_FIELDS`` names, in order, the attributes that the repr shows and
    that equality and the hash compare; arrays and other by-identity data
    stay out of it.  Instances of different classes never compare equal.
    """

    __slots__ = ()
    _FIELDS: tuple[str, ...] = ()

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self._FIELDS)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join(
            f"{name}={getattr(self, name)!r}" for name in self._FIELDS
        )
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise _frozen_error(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise _frozen_error(f"cannot delete field {name!r}")


def _frozen_error(message: str) -> AttributeError:
    # Imported here, on the error path only, so no job loads dataclasses.
    from dataclasses import FrozenInstanceError

    return FrozenInstanceError(message)
