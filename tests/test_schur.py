"""Dense complex eigensolver contract.

Every eigenproblem of the package runs through ``numpy.linalg.eig`` and
``eigvals`` (LAPACK). These tests pin what the callers rely on: the right
spectrum, unit eigenvectors with small residuals, real values on Hermitian
input, defective blocks and run-to-run determinism.
"""

from __future__ import annotations

import numpy as np

from qszegedy.qmatrix import EIG_TOL


def _random(n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def _pairs(a: np.ndarray) -> list[tuple[complex, np.ndarray]]:
    values, vectors = np.linalg.eig(a)
    return list(zip(values, vectors.T))


def _values(a: np.ndarray) -> np.ndarray:
    return np.linalg.eigvals(a)


def _spectra_match(got, want, tol=1e-8) -> float:
    got = np.sort_complex(np.asarray(got))
    want = np.sort_complex(np.asarray(want))
    assert got.shape == want.shape
    # Greedy nearest matching; spectra are small enough for O(n^2).
    want = list(want)
    worst = 0.0
    for value in got:
        gaps = [abs(value - w) for w in want]
        idx = int(np.argmin(gaps))
        worst = max(worst, gaps[idx])
        want.pop(idx)
    assert worst <= tol, worst
    return worst


def test_eigvals_on_known_matrix():
    a = np.diag([1.0, 2.0, 3.0]).astype(complex)
    a[0, 2] = 5.0
    got = sorted(_values(a).real.tolist())
    assert np.allclose(got, [1.0, 2.0, 3.0], atol=1e-12)


def test_eigvals_hermitian_real():
    a = _random(9, 3)
    herm = a + a.conj().T
    values = _values(herm)
    assert np.max(np.abs(values.imag)) <= 1e-10 * np.abs(values).max()
    _spectra_match(values, np.linalg.eigvalsh(herm).astype(complex), tol=1e-9)


def test_eig_residuals_and_numpy_agreement():
    for seed in range(4):
        a = _random(7, 100 + seed)
        pairs = _pairs(a)
        scale = max(1.0, float(np.linalg.norm(a, 2)))
        for lam, z in pairs:
            assert abs(np.linalg.norm(z) - 1.0) <= 1e-12
            residual = np.linalg.norm(a @ z - lam * z)
            assert residual <= 1e-10 * scale
            assert residual <= EIG_TOL * scale
        _spectra_match([lam for lam, _ in pairs], np.linalg.eigvals(a), tol=1e-8)


def test_eig_on_jordan_like_block():
    # Defective matrix: the eigenvalue is double but there is one
    # eigenvector; both returned vectors are still unit eigenvectors.
    a = np.array([[2.0, 1.0], [0.0, 2.0]], dtype=complex)
    pairs = _pairs(a)
    assert np.allclose(sorted(lam.real for lam, _ in pairs), [2.0, 2.0], atol=1e-8)
    for lam, z in pairs:
        assert abs(np.linalg.norm(z) - 1.0) <= 1e-12
        assert np.linalg.norm(a @ z - lam * z) <= 1e-7


def test_deterministic_across_runs():
    a = _random(10, 42)
    va = _values(a)
    vb = _values(a.copy())
    assert np.array_equal(va, vb)


def test_unit_circle_spectrum_of_permutation():
    # Cyclic shift: eigenvalues are the exact 12th roots of unity.
    n = 12
    p = np.roll(np.eye(n, dtype=complex), 1, axis=0)
    values = _values(p)
    roots = np.exp(2j * np.pi * np.arange(n) / n)
    _spectra_match(values, roots, tol=1e-10)
