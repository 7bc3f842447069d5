"""Quaternion scalars and conjugacy classes of the right spectrum.

Arithmetic follows the Hamilton relations ``i^2 = j^2 = k^2 = -1`` and
``ij = -ji = k``, ``jk = -kj = i``, ``ki = -ik = j``.  Every quaternion
decomposes uniquely as ``simplex + j * perplex`` with complex simplex
and perplex parts (the symplectic decomposition); that decomposition
fixes the complex-matrix embedding used by :mod:`qszegedy.qmatrix` and
must not be reordered.

Right eigenvalues of quaternionic matrices are only determined up to
similarity ``h^-1 x h`` by nonzero quaternions, so the spectrum is a
union of conjugacy classes.  A class is stored by its canonical complex
representative ``Re(x) + i * |Im(x)|`` with nonnegative imaginary part.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import Frozen, ValidationError

__all__ = [
    "CLASS_TOL",
    "ConjugacyClass",
    "Quaternion",
    "class_of",
    "format_components",
    "format_quaternion",
    "same_class",
    "symplectic_decompose",
]

#: Relative tolerance for deciding that two quaternions are similar.
#: Generous against ~1e-12 eigensolver noise on desk-size matrices while
#: still separating every class pair that occurs in practice.
CLASS_TOL = 1e-8


class Quaternion(Frozen):
    """A quaternion ``x0 + x1*i + x2*j + x3*k`` with float components.

    Immutable, with value equality and hash; ``__slots__`` leaves it no
    instance dict.
    """

    __slots__ = _FIELDS = ("x0", "x1", "x2", "x3")

    def __init__(self, x0: float = 0.0, x1: float = 0.0, x2: float = 0.0,
                 x3: float = 0.0):
        object.__setattr__(self, "x0", float(x0))
        object.__setattr__(self, "x1", float(x1))
        object.__setattr__(self, "x2", float(x2))
        object.__setattr__(self, "x3", float(x3))

    def __reduce__(self):
        # Pickle and copy rebuild through __init__: their default path
        # would set the slots through the refusing __setattr__.
        return (type(self), self.components)

    @classmethod
    def from_components(cls, components) -> "Quaternion":
        parts = list(components)
        if len(parts) != 4:
            raise ValidationError(
                f"quaternion needs 4 components, got {len(parts)}"
            )
        return cls(*(float(p) for p in parts))

    @classmethod
    def from_symplectic(cls, simplex: complex, perplex: complex) -> "Quaternion":
        """Rebuild ``simplex + j * perplex``; inverse of the decomposition."""
        simplex = complex(simplex)
        perplex = complex(perplex)
        return cls(simplex.real, simplex.imag, perplex.real, -perplex.imag)

    @property
    def components(self) -> tuple[float, float, float, float]:
        return (self.x0, self.x1, self.x2, self.x3)

    @property
    def simplex(self) -> complex:
        return complex(self.x0, self.x1)

    @property
    def perplex(self) -> complex:
        # j * (a + bi) = a*j - b*ji = a*j + b*k gives perplex = x2 - x3*i.
        return complex(self.x2, -self.x3)

    def conjugate(self) -> "Quaternion":
        return Quaternion(self.x0, -self.x1, -self.x2, -self.x3)

    def norm_sq(self) -> float:
        return self.x0 * self.x0 + self.x1 * self.x1 + self.x2 * self.x2 + self.x3 * self.x3

    def __abs__(self) -> float:
        return math.sqrt(self.norm_sq())

    def inverse(self) -> "Quaternion":
        ns = self.norm_sq()
        if ns == 0.0:
            raise ValidationError("cannot invert the zero quaternion")
        return Quaternion(self.x0 / ns, -self.x1 / ns, -self.x2 / ns, -self.x3 / ns)

    def is_zero(self) -> bool:
        """Whether every component is exactly zero (``0.0`` or ``-0.0``)."""
        return self.x0 == self.x1 == self.x2 == self.x3 == 0.0

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return Quaternion(
            self.x0 + other.x0, self.x1 + other.x1,
            self.x2 + other.x2, self.x3 + other.x3,
        )

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return Quaternion(
            self.x0 - other.x0, self.x1 - other.x1,
            self.x2 - other.x2, self.x3 - other.x3,
        )

    def __rsub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other.__sub__(self)

    def __neg__(self) -> "Quaternion":
        return Quaternion(-self.x0, -self.x1, -self.x2, -self.x3)

    def __mul__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        a0, a1, a2, a3 = self.components
        b0, b1, b2, b3 = other.components
        return Quaternion(
            a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3,
            a0 * b1 + a1 * b0 + a2 * b3 - a3 * b2,
            a0 * b2 - a1 * b3 + a2 * b0 + a3 * b1,
            a0 * b3 + a1 * b2 - a2 * b1 + a3 * b0,
        )

    def __rmul__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other.__mul__(self)

    def __truediv__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self.__mul__(other.inverse())

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other.__mul__(self.inverse())

    def __str__(self) -> str:
        return format_quaternion(self)


#: Basis quaternions.
ONE = Quaternion(1.0)
I = Quaternion(0.0, 1.0)
J = Quaternion(0.0, 0.0, 1.0)
K = Quaternion(0.0, 0.0, 0.0, 1.0)


def _coerce(value):
    if isinstance(value, Quaternion):
        return value
    if isinstance(value, complex):
        return Quaternion(value.real, value.imag)
    if isinstance(value, (int, float)):
        return Quaternion(float(value))
    return None


def as_quaternion(value) -> Quaternion:
    """Coerce a real, complex, 4-sequence, or Quaternion to a Quaternion."""
    q = _coerce(value)
    if q is not None:
        return q
    if isinstance(value, (tuple, list)):
        return Quaternion.from_components(value)
    raise ValidationError(f"cannot interpret {value!r} as a quaternion")


def symplectic_decompose(x: Quaternion) -> tuple[complex, complex]:
    """Split ``x = simplex + j * perplex`` into its complex parts."""
    return x.simplex, x.perplex


def class_of(x) -> "ConjugacyClass":
    """Conjugacy class of ``x`` under similarity by nonzero quaternions.

    Two quaternions are similar exactly when they share real part and
    norm, so the class is represented by the complex number
    ``x0 + i * sqrt(x1^2 + x2^2 + x3^2)``.
    """
    x = as_quaternion(x)
    imag = math.sqrt(x.x1 * x.x1 + x.x2 * x.x2 + x.x3 * x.x3)
    return ConjugacyClass(complex(x.x0, imag))


def same_class(p, q, tol: float = CLASS_TOL) -> bool:
    """True when ``p`` and ``q`` are similar within relative tolerance.

    Compares real parts and norms on the scale ``max(1, |p|)``.
    """
    p = as_quaternion(p)
    q = as_quaternion(q)
    scale = max(1.0, abs(p))
    return (
        abs(p.x0 - q.x0) <= tol * scale
        and abs(abs(p) - abs(q)) <= tol * scale
    )


class _ClassFields(NamedTuple):
    rep: complex


class ConjugacyClass(_ClassFields):
    """A right-spectrum conjugacy class, stored by its canonical complex
    representative with nonnegative imaginary part."""

    __slots__ = ()

    def __new__(cls, rep):
        rep = complex(rep)
        if rep.imag < 0.0:
            rep = rep.conjugate()
        return super().__new__(cls, rep)

    @classmethod
    def _make(cls, iterable):
        # ``_replace`` builds through here: canonicalise there too.
        return cls(*iterable)

    def matches(self, other: "ConjugacyClass", tol: float = CLASS_TOL) -> bool:
        scale = max(1.0, abs(self.rep))
        return abs(self.rep - other.rep) <= tol * scale

    def __str__(self) -> str:
        q = Quaternion(self.rep.real, self.rep.imag)
        return format_quaternion(q)


def format_quaternion(q: Quaternion) -> str:
    """Render ``a+bi+cj+dk`` with signed terms and 6 significant digits.

    Zero components are dropped; the zero quaternion renders as "0".
    """
    return format_components(q.x0, q.x1, q.x2, q.x3)


def format_components(x0: float, x1: float, x2: float, x3: float) -> str:
    """:func:`format_quaternion` of ``x0 + x1*i + x2*j + x3*k``, without
    building the Quaternion: 6 significant digits."""
    parts = []
    for value, unit in ((x0, ""), (x1, "i"), (x2, "j"), (x3, "k")):
        if value == 0.0:
            continue
        body = f"{abs(value):.6g}"
        sign = "-" if value < 0.0 else "+"
        if not parts and sign == "+":
            sign = ""
        parts.append(f"{sign}{body}{unit}")
    return "".join(parts) or "0"
