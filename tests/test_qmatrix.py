from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qszegedy.errors import ValidationError
from qszegedy.graph import build_graph
from qszegedy.qmatrix import (
    CLUSTER_TOL,
    MP_TOL,
    QMatrix,
    from_psi,
    h_linear_independent,
    is_unitary,
    minimal_polynomial,
    psi,
    qvec,
    right_eigenbasis,
    right_eigenvalues,
    right_eigenvector,
    root_subspaces,
)
from qszegedy.quaternion import I, J, K, ONE, Quaternion
from qszegedy.szegedy import build_walk, uniform_weights

SQ2 = math.sqrt(2.0)


def _random_qmatrix(rows: int, cols: int, seed: int) -> QMatrix:
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
    b = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
    return QMatrix(a, b)


def test_entry_roundtrip_and_shapes():
    m = QMatrix.from_rows([[ONE, I], [J, K]])
    assert m.shape == (2, 2)
    assert m.entry(0, 1) == I
    assert m.entry(1, 0) == J
    with pytest.raises(ValidationError):
        QMatrix.from_rows([[ONE], [I, J]])


def test_results_own_their_parts():
    # The constructor copies its inputs; algebra results adopt freshly
    # computed arrays, which must never be views of an operand.
    a = np.arange(6, dtype=complex).reshape(3, 2)
    m = QMatrix(a, 1j * a)
    assert not np.shares_memory(m.a, a)
    n = _random_qmatrix(3, 2, 4)
    results = [
        m + n, m - n, -m, m.scale(2.0), m.right_scalar(J), m.H,
        m @ n.H, m.take_rows(np.array([2, 0, 1])), m.column(1),
    ]
    for r in results:
        for part in (r.a, r.b):
            for operand in (m.a, m.b, n.a, n.b):
                assert not np.shares_memory(part, operand)
    col = m.column(0)
    col.a[0, 0] = 99.0
    assert m.a[0, 0] == 0.0


def test_components_match_entries():
    m = _random_qmatrix(4, 3, 9)
    comps = m.components()
    assert comps.shape == (4, 3, 4)
    for r in range(4):
        for c in range(3):
            assert tuple(comps[r, c].tolist()) == m.entry(r, c).components


def test_from_components_inverts_components_bit_for_bit():
    comps = _random_qmatrix(4, 3, 11).components()
    for position in range(4):  # a signed zero in every component position
        comps[position, 0, position] = -0.0
        comps[position, 1, position] = 0.0
    m = QMatrix.from_components(comps)
    back = m.components()
    assert back.shape == (4, 3, 4)
    assert back.view(np.int64).tolist() == comps.view(np.int64).tolist()
    assert QMatrix.from_components(back).components().tobytes() == (
        comps.tobytes()
    )
    for r in range(4):
        for c in range(3):
            assert m.entry(r, c) == Quaternion(*comps[r, c])
    with pytest.raises(ValidationError, match=r"\(rows, cols, 4\)"):
        QMatrix.from_components(np.zeros((2, 3)))


def test_psi_golden_diag_1_k():
    m = QMatrix.diag([ONE, K])
    # A = diag(1, 0), B = diag(0, -i); psi = [[A, -conj(B)], [B, conj(A)]].
    want = np.array(
        [
            [1, 0, 0, 0],
            [0, 0, 0, -1j],
            [0, 0, 1, 0],
            [0, -1j, 0, 0],
        ],
        dtype=complex,
    )
    assert np.allclose(psi(m), want, atol=0.0)
    # Characteristic polynomial of psi is (x - 1)^2 (x^2 + 1).
    coeffs = np.poly(psi(m))
    want_coeffs = np.polymul([1, -1], np.polymul([1, -1], [1, 0, 1]))
    assert np.allclose(coeffs, want_coeffs, atol=1e-12)


def test_psi_multiplicative_and_additive():
    for seed in range(5):
        m = _random_qmatrix(4, 3, seed)
        n = _random_qmatrix(3, 5, 100 + seed)
        lhs = psi(m @ n)
        rhs = psi(m) @ psi(n)
        scale = max(1.0, np.abs(rhs).max())
        assert np.max(np.abs(lhs - rhs)) <= 1e-12 * scale
        m2 = _random_qmatrix(4, 3, 200 + seed)
        assert np.allclose(psi(m + m2), psi(m) + psi(m2), atol=0.0)


def test_psi_conj_transpose_exact():
    m = _random_qmatrix(5, 3, 7)
    assert np.array_equal(psi(m.conj_transpose()), psi(m).conj().T)


def test_from_psi_roundtrip():
    m = _random_qmatrix(4, 4, 11)
    back = from_psi(psi(m))
    assert np.array_equal(back.a, m.a)
    assert np.array_equal(back.b, m.b)


def test_right_scalar_vs_matrix_product():
    v = qvec([Quaternion(1, 2, 3, 4), Quaternion(0, -1, 0.5, 2)])
    s = Quaternion(0.3, -1.2, 0.7, 0.1)
    direct = v.right_scalar(s)
    via_diag = v @ QMatrix.diag([s])
    assert (direct - via_diag).max_entry_norm() <= 1e-14


def test_right_eigenvalues_diag_1_k():
    classes = right_eigenvalues(QMatrix.diag([ONE, K]))
    assert len(classes) == 2
    (c1, m1), (c2, m2) = classes
    assert abs(c1.rep - 1j) <= 1e-9 and m1 == 1
    assert abs(c2.rep - 1.0) <= 1e-9 and m2 == 1


def test_right_eigenvalues_offdiag_ij():
    classes = right_eigenvalues(
        QMatrix.from_rows([[Quaternion(), I], [J, Quaternion()]])
    )
    want = [complex(-1, 1) / SQ2, complex(1, 1) / SQ2]
    assert len(classes) == 2
    for (cls, mult), target in zip(classes, want):
        assert abs(cls.rep - target) <= 1e-9
        assert mult == 1


def test_right_eigenvalue_multiplicities_sum():
    for seed in range(3):
        m = _random_qmatrix(4, 4, 300 + seed)
        classes = right_eigenvalues(m)
        assert sum(mult for _cls, mult in classes) == 4


def test_right_eigenvector_golden():
    m = QMatrix.diag([ONE, K])
    v = right_eigenvector(m, 1j)
    golden = qvec([Quaternion(), Quaternion(1, 0, -1, 0)])
    assert not h_linear_independent([v, golden])
    residual = (m @ v - v.right_scalar(1j)).max_entry_norm()
    assert residual <= 1e-10


def test_right_eigenvector_rejects_non_eigenvalue():
    with pytest.raises(ValidationError):
        right_eigenvector(QMatrix.diag([ONE, K]), complex(3.0))


def test_companion_eigenvector_for_conjugate():
    m = _random_qmatrix(3, 3, 17)
    classes = right_eigenvalues(m)
    lam = classes[0][0].rep
    v = right_eigenvector(m, lam)
    w = v.right_scalar(J)
    residual = (m @ w - w.right_scalar(lam.conjugate())).max_entry_norm()
    assert residual <= 1e-9 * max(1.0, m.max_entry_norm())


def test_h_linear_independence():
    v = qvec([ONE, J])
    assert h_linear_independent([v])
    assert not h_linear_independent([v, v.right_scalar(Quaternion(0, 1, 1, 0))])
    assert h_linear_independent([qvec([ONE, Quaternion()]), qvec([Quaternion(), J])])


def test_minimal_polynomial_diag_1_k():
    mp = minimal_polynomial(QMatrix.diag([ONE, K]))
    assert [f.exponent for f in mp.factors] == [1, 1]
    assert np.allclose(mp.factors[0].coefficients, [1, 0, 1], atol=1e-9)
    assert np.allclose(mp.factors[1].coefficients, [1, -1], atol=1e-9)
    assert mp.degree == 3
    # Full coefficients: (y^2 + 1)(y - 1) = y^3 - y^2 + y - 1.
    assert np.allclose(mp.coefficients(), [1, -1, 1, -1], atol=1e-9)
    residual = mp.evaluate_matrix(QMatrix.diag([ONE, K])).max_entry_norm()
    assert residual <= 1e-9


def test_minimal_polynomial_repeated_block():
    # diag(i, i) has minimal polynomial y^2 + 1 (degree 2, not 4).
    mp = minimal_polynomial(QMatrix.diag([I, I]))
    assert len(mp.factors) == 1
    assert mp.factors[0].exponent == 1
    assert np.allclose(mp.factors[0].coefficients, [1, 0, 1], atol=1e-9)


def test_minimal_polynomial_detects_near_clusters():
    gap = 2.5e-6  # below 3x the cluster threshold, above the merge radius
    m = QMatrix.diag([Quaternion(1.0), Quaternion(1.0 + gap)])
    with pytest.warns(UserWarning, match="cluster"):
        mp = minimal_polynomial(m)
    assert mp.warnings
    assert "cluster" in mp.warnings[0]


def test_minimal_polynomial_keeps_near_real_roots_apart():
    # |1 + 1e-3 i| - 1 is only 5e-7, so grouping by real part and modulus
    # at the 1e-6 cluster threshold would merge the two roots; and the
    # quadratic factor is 1e-6 at 1, so its square falls below the rank
    # threshold unless the exponent search stops at the root's psi count.
    m = QMatrix.diag([ONE, Quaternion(1.0, 1e-3, 0.0, 0.0)])
    mp = minimal_polynomial(m)
    assert [(f.degree, f.exponent) for f in mp.factors] == [(1, 1), (2, 1)]
    assert not mp.warnings
    assert [s.dimension for s in root_subspaces(m)] == [1, 1]


def test_root_subspaces_diag_1_k():
    m = QMatrix.diag([ONE, K])
    subspaces = root_subspaces(m)
    assert [s.dimension for s in subspaces] == [1, 1]
    assert sum(s.dimension for s in subspaces) == 2
    for s in subspaces:
        for v in s.basis:
            annihilated = s.factor.evaluate_matrix(m).power(s.factor.exponent) @ v
            assert annihilated.max_entry_norm() <= 1e-9


def test_hermitian_psi_real_spectrum():
    m = _random_qmatrix(5, 5, 23)
    herm = m + m.conj_transpose()
    values = np.linalg.eigvals(psi(herm))
    assert np.max(np.abs(values.imag)) <= 1e-10 * max(1.0, np.abs(values).max())


def test_conjugate_pair_spectrum_closure():
    m = _random_qmatrix(4, 4, 29)
    values = np.linalg.eigvals(psi(m))
    conj = np.conj(values)
    # Greedy match values against their conjugates.
    pool = conj.tolist()
    worst = 0.0
    for z in values:
        gaps = [abs(z - w) for w in pool]
        idx = int(np.argmin(gaps))
        worst = max(worst, gaps[idx])
        pool.pop(idx)
    assert worst <= 1e-9


def test_is_unitary():
    phase = complex(math.cos(0.3), math.sin(0.3))
    m = QMatrix.diag([Quaternion(phase.real, phase.imag), J])
    assert is_unitary(m)
    assert not is_unitary(QMatrix.diag([Quaternion(2.0), J]))


def test_power():
    m = QMatrix.from_rows([[ONE, I], [J, K]])
    assert (m.power(3) - m @ m @ m).max_entry_norm() <= 1e-13
    assert (m.power(0) - QMatrix.eye(2)).max_entry_norm() == 0.0



# psi(M) - lam I below is rounding noise of M, about 4.4e-16 times the
# identity; the rank threshold is floored by |lam|, the scale that
# cancelled, so the whole space is the kernel.
NOISY_EYE = QMatrix(np.eye(3) * (1 + 4.4e-16))


def test_right_eigenbasis_of_rounding_noise_is_full():
    basis = right_eigenbasis(NOISY_EYE, 1.0)
    assert len(basis) == 3
    assert h_linear_independent(basis)


def test_root_subspaces_of_rounding_noise_are_full():
    subspaces = root_subspaces(NOISY_EYE)
    assert [s.dimension for s in subspaces] == [3]


def test_right_eigenbasis_one_vertex_loop():
    graph = build_graph(1, [], loops=[0])
    w = build_walk(graph, uniform_weights(graph)).W
    assert w.a[0, 0] != 2.0  # 2.0000000000000004
    basis = right_eigenbasis(w, 2.0)
    assert len(basis) == 1
    assert (w @ basis[0] - basis[0].scale(2.0)).max_entry_norm() <= 1e-15


# -- one grouping rule: distance in the folded plane at CLUSTER_TOL ------


def _jordan_conjugate(a: float, seed: int) -> QMatrix:
    """``S J S^-1`` with ``J = diag(J_2(a), -a, a j)`` (a 2x2 Jordan block
    at the real value ``a``) and ``cond(psi(S)) <= 1000``."""
    rng = np.random.default_rng(seed)
    while True:
        s = _random_qmatrix(4, 4, int(rng.integers(2**32)))
        if np.linalg.cond(psi(s)) <= 1000.0:
            break
    zero = Quaternion()
    j = QMatrix.from_rows([
        [Quaternion(a), ONE, zero, zero],
        [zero, Quaternion(a), zero, zero],
        [zero, zero, Quaternion(-a), zero],
        [zero, zero, zero, Quaternion(0.0, 0.0, a, 0.0)],
    ])
    return s @ j @ from_psi(np.linalg.inv(psi(s)))


def _class_of(classes, rep: complex, tol: float = 1e-5):
    hits = [(c, mult) for c, mult in classes if abs(c.rep - rep) <= tol]
    assert len(hits) == 1, classes
    return hits[0]


def _check_decomposition(m: QMatrix):
    """Multiplicities and root-subspace dimensions sum to n, and the
    minimal polynomial annihilates ``m``; returns classes and factors."""
    n = m.rows
    classes = right_eigenvalues(m)
    assert sum(mult for _c, mult in classes) == n
    mp = minimal_polynomial(m)
    bound = MP_TOL * max(1.0, float(np.linalg.norm(psi(m), 2))) ** mp.degree
    assert mp.evaluate_matrix(m).max_entry_norm() <= bound
    assert sum(s.dimension for s in root_subspaces(m)) == n
    return classes, mp.factors


def test_right_eigenvalues_keep_near_real_class_apart():
    classes = right_eigenvalues(QMatrix.diag([ONE, Quaternion(1.0, 1e-4)]))
    assert [mult for _c, mult in classes] == [1, 1]
    assert abs(classes[0][0].rep - 1.0) <= 1e-12
    assert abs(classes[1][0].rep - complex(1.0, 1e-4)) <= 1e-12


def test_right_eigenvalues_keep_unit_circle_neighbours_apart():
    phase = Quaternion(math.cos(1e-4), math.sin(1e-4))
    classes = right_eigenvalues(QMatrix.diag([ONE, phase]))
    assert [mult for _c, mult in classes] == [1, 1]


def test_jordan_block_is_one_class_of_exponent_two():
    m = _jordan_conjugate(2.0, 5)
    classes, factors = _check_decomposition(m)
    assert _class_of(classes, 2.0)[1] == 2
    (factor,) = [f for f in factors if abs(f.root - 2.0) <= 1e-5]
    assert (factor.degree, factor.exponent) == (1, 2)


def test_root_subspaces_of_near_real_pair():
    m = QMatrix.diag([ONE, Quaternion(1.0, 1e-5)])
    assert [s.dimension for s in root_subspaces(m)] == [1, 1]


magnitudes = st.floats(0.3, 3.0).flatmap(
    lambda r: st.sampled_from([r, -r])
)


@given(magnitudes, st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_jordan_conjugates_group_as_one_class(a, seed):
    classes, factors = _check_decomposition(_jordan_conjugate(a, seed))
    assert _class_of(classes, a)[1] == 2
    (factor,) = [f for f in factors if abs(f.root - a) <= 1e-5]
    assert (factor.degree, factor.exponent) == (1, 2)


def _separated_pair(a: float, other: Quaternion):
    gap = abs(other - Quaternion(a))
    assume(gap >= 10.0 * CLUSTER_TOL * max(1.0, abs(a)))
    classes, factors = _check_decomposition(QMatrix.diag([Quaternion(a), other]))
    assert [mult for _c, mult in classes] == [1, 1]
    _class_of(classes, a, 0.1 * gap)
    _class_of(classes, complex(other.x0, abs(other.x1)), 0.1 * gap)
    assert [f.exponent for f in factors] == [1, 1]


@given(magnitudes, st.floats(-6.0, 0.0), st.sampled_from([1.0, -1.0]))
@settings(max_examples=60, deadline=None)
def test_near_real_pairs_stay_apart(a, log_d, sign):
    d = sign * 10.0 ** log_d
    _separated_pair(a, Quaternion(a, a * d))


@given(magnitudes, st.floats(-6.0, math.log10(1.5)))
@settings(max_examples=60, deadline=None)
def test_unit_circle_pairs_stay_apart(a, log_d):
    d = 10.0 ** log_d
    _separated_pair(a, Quaternion(a * math.cos(d), a * math.sin(d)))
