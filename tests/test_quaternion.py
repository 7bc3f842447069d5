from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qszegedy.quaternion import (
    I,
    J,
    K,
    ONE,
    Quaternion,
    as_quaternion,
    class_of,
    format_quaternion,
    same_class,
    symplectic_decompose,
)
from qszegedy.errors import ValidationError

finite = st.floats(
    min_value=-10.0, max_value=10.0, allow_nan=False, allow_infinity=False
)
quaternions = st.builds(Quaternion, finite, finite, finite, finite)
nonzero_quaternions = quaternions.filter(lambda q: abs(q) > 1e-3)


def _close(p: Quaternion, q: Quaternion, tol: float = 1e-12) -> bool:
    return abs(p - q) <= tol


def test_basis_multiplication_table():
    assert I * I == Quaternion(-1)
    assert J * J == Quaternion(-1)
    assert K * K == Quaternion(-1)
    assert I * J == K
    assert J * I == -K
    assert J * K == I
    assert K * J == -I
    assert K * I == J
    assert I * K == -J


def test_product_golden():
    p = Quaternion(1, 2, 3, 4)
    q = Quaternion(5, 6, 7, 8)
    assert p * q == Quaternion(-60, 12, 30, 24)
    assert q * p == Quaternion(-60, 20, 14, 32)


def test_scalar_and_complex_coercion():
    q = Quaternion(1, 2, 3, 4)
    assert 2 * q == Quaternion(2, 4, 6, 8)
    assert q * 0.5 == Quaternion(0.5, 1, 1.5, 2)
    assert (1 + 1j) * ONE == Quaternion(1, 1)
    assert q + 1 == Quaternion(2, 2, 3, 4)
    assert 1 - q == Quaternion(0, -2, -3, -4)
    assert as_quaternion((1, 2, 3, 4)) == q


def test_conjugate_norm_inverse():
    q = Quaternion(1, -2, 3, -0.5)
    assert q.conjugate() == Quaternion(1, 2, -3, 0.5)
    assert math.isclose(q.norm_sq(), 1 + 4 + 9 + 0.25)
    assert _close(q * q.inverse(), ONE, 1e-14)
    assert _close(q.inverse() * q, ONE, 1e-14)
    assert _close(q / q, ONE, 1e-14)
    with pytest.raises(ValidationError):
        Quaternion().inverse()


def test_symplectic_parts_golden():
    q = Quaternion(1, 2, 3, 4)
    simplex, perplex = symplectic_decompose(q)
    assert simplex == complex(1, 2)
    assert perplex == complex(3, -4)
    assert Quaternion.from_symplectic(simplex, perplex) == q
    # x = simplex + j * perplex reassembles componentwise.
    rebuilt = Quaternion(simplex.real, simplex.imag) + J * Quaternion(
        perplex.real, perplex.imag
    )
    assert _close(rebuilt, q, 0.0)


def test_class_representative_golden():
    cls = class_of(Quaternion(2, 1, -2, 2))
    assert cls.rep == complex(2, 3)


def test_same_class_scale_awareness():
    # Tolerance rides on max(1, |p|), so big classes absorb big noise.
    p = Quaternion(1000.0, 0, 0, 0)
    assert same_class(p, Quaternion(1000.0 + 1e-6, 0, 0, 0))
    assert not same_class(Quaternion(1.0), Quaternion(1.0 + 1e-6))
    assert same_class(Quaternion(1.0), Quaternion(1.0 + 1e-9))


def test_format_quaternion_golden():
    assert format_quaternion(Quaternion()) == "0"
    assert format_quaternion(Quaternion(1, -2, 0, 0.5)) == "1-2i+0.5k"
    assert format_quaternion(Quaternion(0, 0, -1, 0)) == "-1j"
    assert format_quaternion(Quaternion(1 / 3)) == "0.333333"
    assert str(Quaternion(0, 1, 0, 0)) == "1i"


@given(quaternions, quaternions, quaternions)
@settings(max_examples=200)
def test_associativity(p, q, r):
    scale = max(1.0, abs(p) * abs(q) * abs(r))
    assert abs((p * q) * r - p * (q * r)) <= 1e-13 * scale


@given(quaternions, quaternions)
@settings(max_examples=200)
def test_norm_multiplicativity(p, q):
    scale = max(1.0, abs(p) * abs(q))
    assert abs(abs(p * q) - abs(p) * abs(q)) <= 1e-13 * scale


@given(quaternions, quaternions)
@settings(max_examples=200)
def test_conjugate_antihomomorphism(p, q):
    scale = max(1.0, abs(p) * abs(q))
    assert abs((p * q).conjugate() - q.conjugate() * p.conjugate()) <= 1e-13 * scale


@given(quaternions, quaternions, quaternions)
@settings(max_examples=200)
def test_distributivity(p, q, r):
    scale = max(1.0, abs(p) * (abs(q) + abs(r)))
    assert abs(p * (q + r) - (p * q + p * r)) <= 1e-13 * scale


@given(quaternions)
@settings(max_examples=200)
def test_symplectic_roundtrip(q):
    simplex, perplex = symplectic_decompose(q)
    assert Quaternion.from_symplectic(simplex, perplex) == q


@given(quaternions, nonzero_quaternions)
@settings(max_examples=200)
def test_class_invariant_under_similarity(q, u):
    # Similar quaternions share real part and norm, so they share the
    # class representative x0 + i |vector part|.
    conjugated = u * q * u.inverse()
    bound = 1e-10 * max(1.0, abs(u) ** 2)
    assert abs(q.x0 - conjugated.x0) <= bound * max(1.0, abs(q))
    assert abs(abs(q) - abs(conjugated)) <= bound * max(1.0, abs(q))
    rep = class_of(q).rep
    assert abs(rep - class_of(conjugated).rep) <= bound * max(1.0, abs(rep))


@pytest.mark.parametrize("name", ["x0", "x3", "foo", "components"])
def test_assignment_and_deletion_raise_attribute_error(name):
    # Immutable with slots: every name is refused with
    # FrozenInstanceError (an AttributeError), fields and others alike.
    from dataclasses import FrozenInstanceError

    q = Quaternion(1.0, 2.0, 3.0, 4.0)
    with pytest.raises(FrozenInstanceError, match=repr(name)):
        setattr(q, name, 5.0)
    with pytest.raises(FrozenInstanceError, match=repr(name)):
        delattr(q, name)
    assert isinstance(FrozenInstanceError(), AttributeError)
    assert q == Quaternion(1.0, 2.0, 3.0, 4.0)
    assert not hasattr(q, "__dict__")
