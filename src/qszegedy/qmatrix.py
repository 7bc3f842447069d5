"""Dense quaternionic matrices and right-eigenvalue machinery.

A quaternionic matrix ``M = A + j*B`` is stored by its complex simplex
part ``A`` and perplex part ``B``.  The complex embedding

    psi(M) = [[A, -conj(B)], [B, conj(A)]]

is an injective real-algebra homomorphism on square matrices, so right
eigenvalues, minimal polynomials, and root subspaces of ``M`` are all
recovered from the ordinary complex spectrum of ``psi(M)``:

* ``Mv = v*lam`` for ``v = u + j*w`` exactly when ``psi(M) z = lam*z``
  for the stacked vector ``z = (u; w)``.
* The spectrum of ``psi(M)`` is closed under conjugation and every real
  eigenvalue has even multiplicity, because psi-images commute with the
  antilinear map ``z -> J*conj(z)`` whose square is ``-I``.  A conjugacy
  class of right eigenvalues therefore carries quaternionic multiplicity
  equal to half the number of psi-eigenvalues lying in it.
* The minimal polynomial of ``M`` (monic, real coefficients, factors of
  degree 1 or 2) coincides with the minimal polynomial of ``psi(M)``.

Classes are grouped by one rule, :func:`_psi_classes` (distance at
``CLUSTER_TOL`` times the spectral radius, floored at 1), and every
kernel is taken from a shifted image ``(psi(M) - root I)^k`` by
:func:`_shifted_kernel`.
"""

from __future__ import annotations

import warnings
from typing import NamedTuple

import numpy as np

from .errors import NumericalError, ValidationError
from .quaternion import CLASS_TOL, ConjugacyClass, Quaternion, as_quaternion

__all__ = [
    "CLUSTER_TOL",
    "MP_TOL",
    "MinimalPolynomial",
    "PolyFactor",
    "QMatrix",
    "RANK_TOL",
    "RootSubspace",
    "from_psi",
    "h_linear_independent",
    "h_rank",
    "is_unitary",
    "minimal_polynomial",
    "psi",
    "qvec",
    "right_eigenbasis",
    "right_eigenvalues",
    "root_subspaces",
]

#: Singular values below RANK_TOL * sigma_max count as zero.
RANK_TOL = 1e-8
#: Minimal-polynomial annihilation tolerance (scaled by norm**degree).
MP_TOL = 1e-8
#: Class grouping radius, relative to the spectral radius floored at 1.
CLUSTER_TOL = 1e-6


class QMatrix:
    """A quaternionic matrix held as complex simplex/perplex parts."""

    __slots__ = ("a", "b")

    def __init__(self, simplex, perplex=None):
        a = np.array(simplex, dtype=complex, copy=True)
        if a.ndim != 2:
            raise ValidationError(f"QMatrix parts must be 2-D, got {a.ndim}-D")
        if perplex is None:
            b = np.zeros_like(a)
        else:
            b = np.array(perplex, dtype=complex, copy=True)
        if b.shape != a.shape:
            raise ValidationError(
                f"simplex/perplex shapes differ: {a.shape} vs {b.shape}"
            )
        self.a = a
        self.b = b

    @classmethod
    def _adopt(cls, a: np.ndarray, b: np.ndarray) -> "QMatrix":
        """Wrap freshly computed complex parts of one 2-D shape without
        copying them; the caller must hold no other reference that it
        writes through."""
        out = cls.__new__(cls)
        out.a = a
        out.b = b
        return out

    # -- constructors -------------------------------------------------

    @classmethod
    def from_rows(cls, rows) -> "QMatrix":
        """Build from nested sequences of Quaternion/complex/real entries."""
        grid = [[as_quaternion(e) for e in row] for row in rows]
        if not grid or not grid[0]:
            raise ValidationError("QMatrix needs at least one row and column")
        ncol = len(grid[0])
        if any(len(row) != ncol for row in grid):
            raise ValidationError("ragged rows in QMatrix input")
        a = np.array([[e.simplex for e in row] for row in grid], dtype=complex)
        b = np.array([[e.perplex for e in row] for row in grid], dtype=complex)
        return cls(a, b)

    @classmethod
    def from_real(cls, mat) -> "QMatrix":
        mat = np.asarray(mat)
        if np.iscomplexobj(mat) and np.max(np.abs(mat.imag)) != 0.0:
            raise ValidationError("from_real expects a real matrix")
        return cls(np.asarray(mat, dtype=complex).real.astype(complex))

    @classmethod
    def from_components(cls, comps) -> "QMatrix":
        """Inverse of :meth:`components`: entries from a ``(rows, cols,
        4)`` float array.  The complex parts are assigned, not computed,
        so every component keeps its bits, signed zeros included."""
        comps = np.asarray(comps, dtype=float)
        if comps.ndim != 3 or comps.shape[2] != 4:
            raise ValidationError(
                f"expected a (rows, cols, 4) array, got {comps.shape}"
            )
        a = np.empty(comps.shape[:2], dtype=complex)
        b = np.empty_like(a)
        a.real, a.imag = comps[..., 0], comps[..., 1]
        b.real, b.imag = comps[..., 2], -comps[..., 3]
        return cls._adopt(a, b)

    @classmethod
    def hstack(cls, blocks) -> "QMatrix":
        """Side-by-side concatenation of matrices with equal row counts."""
        blocks = list(blocks)
        return cls._adopt(
            np.hstack([m.a for m in blocks]), np.hstack([m.b for m in blocks])
        )

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "QMatrix":
        return cls._adopt(np.zeros((rows, cols), dtype=complex),
                          np.zeros((rows, cols), dtype=complex))

    @classmethod
    def eye(cls, n: int) -> "QMatrix":
        return cls(np.eye(n, dtype=complex))

    @classmethod
    def diag(cls, entries) -> "QMatrix":
        qs = [as_quaternion(e) for e in entries]
        a = np.diag([q.simplex for q in qs]).astype(complex)
        b = np.diag([q.perplex for q in qs]).astype(complex)
        return cls(a, b)

    # -- structure ----------------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        return self.a.shape

    @property
    def rows(self) -> int:
        return self.a.shape[0]

    @property
    def cols(self) -> int:
        return self.a.shape[1]

    def entry(self, r: int, c: int) -> Quaternion:
        return Quaternion.from_symplectic(self.a[r, c], self.b[r, c])

    def components(self) -> np.ndarray:
        """Entries as a ``(rows, cols, 4)`` float array of quaternion
        components, the values ``Quaternion.from_symplectic`` gives."""
        return np.stack(
            [self.a.real, self.a.imag, self.b.real, -self.b.imag], axis=-1
        )

    def column(self, c: int) -> "QMatrix":
        return QMatrix(self.a[:, c:c + 1], self.b[:, c:c + 1])

    def take_rows(self, index) -> "QMatrix":
        """Rows gathered by an index array: ``P @ M`` for the permutation
        matrix ``P = eye[index]``, exactly and without a product."""
        return QMatrix._adopt(self.a[index], self.b[index])

    # -- algebra ------------------------------------------------------

    def __add__(self, other: "QMatrix") -> "QMatrix":
        return QMatrix._adopt(self.a + other.a, self.b + other.b)

    def __sub__(self, other: "QMatrix") -> "QMatrix":
        return QMatrix._adopt(self.a - other.a, self.b - other.b)

    def __neg__(self) -> "QMatrix":
        return QMatrix._adopt(-self.a, -self.b)

    def __matmul__(self, other: "QMatrix") -> "QMatrix":
        if self.cols != other.rows:
            raise ValidationError(
                f"shape mismatch in product: {self.shape} @ {other.shape}"
            )
        # (A1 + j B1)(A2 + j B2) = (A1 A2 - conj(B1) B2) + j (B1 A2 + conj(A1) B2)
        a = self.a @ other.a - np.conj(self.b) @ other.b
        b = self.b @ other.a + np.conj(self.a) @ other.b
        return QMatrix._adopt(a, b)

    def scale(self, factor: float) -> "QMatrix":
        """Multiply by a real scalar (these commute with everything)."""
        return QMatrix._adopt(self.a * float(factor), self.b * float(factor))

    def right_scalar(self, value) -> "QMatrix":
        """Right multiplication ``M * q`` by a quaternion scalar."""
        q = as_quaternion(value)
        s, p = q.simplex, q.perplex
        a = self.a * s - np.conj(self.b) * p
        b = self.b * s + np.conj(self.a) * p
        return QMatrix._adopt(a, b)

    def conj_transpose(self) -> "QMatrix":
        """Quaternionic conjugate transpose; satisfies psi(M*) = psi(M)^H
        exactly (no floating-point arithmetic involved)."""
        return QMatrix._adopt(self.a.conj().T, -self.b.T)

    @property
    def H(self) -> "QMatrix":
        return self.conj_transpose()

    def power(self, k: int) -> "QMatrix":
        if self.rows != self.cols:
            raise ValidationError("matrix power needs a square matrix")
        if k < 0:
            raise ValidationError("negative matrix powers are not supported")
        out = QMatrix.eye(self.rows)
        base = self
        while k:
            if k & 1:
                out = out @ base
            base = base @ base if k > 1 else base
            k >>= 1
        return out

    # -- norms --------------------------------------------------------

    def entry_norms(self) -> np.ndarray:
        return np.sqrt(np.abs(self.a) ** 2 + np.abs(self.b) ** 2)

    def max_entry_norm(self) -> float:
        return float(np.max(self.entry_norms()))

    def fro_norm(self) -> float:
        return float(np.sqrt(np.sum(np.abs(self.a) ** 2 + np.abs(self.b) ** 2)))

    def __repr__(self) -> str:
        return f"QMatrix({self.rows}x{self.cols})"


def qvec(entries) -> QMatrix:
    """Column vector from a sequence of quaternion-like entries."""
    return QMatrix.from_rows([[e] for e in entries])


def psi(m: QMatrix) -> np.ndarray:
    """Complex embedding ``[[A, -conj(B)], [B, conj(A)]]`` of ``M = A + jB``.

    Multiplicative (``psi(MN) = psi(M) psi(N)``), additive, and exact on
    conjugate transposes.  Shape is ``(2r, 2c)`` for an ``r x c`` input.
    The four blocks are written into the one result array, so nothing
    else of a block's size is allocated.  ``-conj(B)`` is written as a
    copy of B whose real part is then negated in place, the same bits,
    since negation and conjugation only flip sign bits.  (Negating
    ``B.real`` straight into the block miscomputes on numpy 2.4.6 when
    B is a column view with a 64-byte row stride.)
    """
    r, c = m.shape
    out = np.empty((2 * r, 2 * c), dtype=complex)
    out[:r, :c] = m.a
    top_right = out[:r, c:]
    top_right[...] = m.b
    np.negative(top_right.real, out=top_right.real)
    out[r:, :c] = m.b
    np.conjugate(m.a, out=out[r:, c:])
    return out


def from_psi(c) -> QMatrix:
    """Inverse of :func:`psi` on matrices of the embedded form."""
    c = np.asarray(c, dtype=complex)
    if c.ndim != 2 or c.shape[0] % 2 or c.shape[1] % 2:
        raise ValidationError(f"not a psi image: shape {c.shape}")
    r, s = c.shape[0] // 2, c.shape[1] // 2
    return QMatrix(c[:r, :s], c[r:, :s])


def _j_conj(z: np.ndarray) -> np.ndarray:
    """The antilinear companion map ``z -> J conj(z)``; commutes with
    every psi image and squares to ``-I``."""
    half = z.shape[0] // 2
    return np.concatenate([-np.conj(z[half:]), np.conj(z[:half])])


def _vec_from_psi(z: np.ndarray) -> QMatrix:
    half = z.shape[0] // 2
    return QMatrix(z[:half].reshape(-1, 1), z[half:].reshape(-1, 1))


def _require_square(m: QMatrix) -> int:
    if m.rows != m.cols:
        raise ValidationError(f"expected a square matrix, got {m.shape}")
    return m.rows


def right_eigenvalues(m: QMatrix):
    """Right spectrum of ``M`` as conjugacy classes with multiplicities.

    Returns ``[(ConjugacyClass, multiplicity)]`` sorted by the real then
    imaginary part of the class representative.  Values are grouped by
    :func:`_psi_classes`, the one grouping rule of this module, at
    ``CLUSTER_TOL`` (1e-6).  Multiplicities sum to the matrix dimension:
    each class soaks up an even number of eigenvalues of ``psi(M)`` and
    counts half of them.
    """
    n = _require_square(m)
    values = np.linalg.eigvals(psi(m))
    out = []
    total = 0
    for rep, count in _psi_classes(values):
        if count % 2:
            raise NumericalError(
                "conjugate pairing failed: a class received an odd number "
                f"of psi eigenvalues near {rep:.6g}"
            )
        mult = count // 2
        total += mult
        out.append((ConjugacyClass(rep), mult))
    if total != n:
        raise NumericalError(
            f"class multiplicities sum to {total}, expected {n}"
        )
    out.sort(key=lambda item: (item[0].rep.real, item[0].rep.imag))
    return out


def _psi_classes(values: np.ndarray) -> list[tuple[complex, int]]:
    """Group eigenvalues of a psi image into conjugacy classes.

    Each value is folded into the upper half-plane and joins the first
    class whose first member lies within ``CLUSTER_TOL`` (1e-6) times the
    spectral radius (floored at 1) of it.  Classes closer than that read
    as one, and so do the parts of a defective eigenvalue, which split by
    about ``sqrt(eps * cond)``.  Returns each class's folded mean and its count
    of psi eigenvalues, in order of first appearance.
    """
    radius = CLUSTER_TOL * max(1.0, float(np.max(np.abs(values), initial=0.0)))
    groups: list[list[complex]] = []
    for lam in values:
        key = complex(lam.real, abs(lam.imag))
        for group in groups:
            if abs(group[0] - key) <= radius:
                group.append(key)
                break
        else:
            groups.append([key])
    out = []
    for group in groups:
        real = float(np.mean([g.real for g in group]))
        imag = float(np.mean([g.imag for g in group]))
        out.append((complex(real, imag), len(group)))
    return out


def _rank(s: np.ndarray, scale: float = 0.0) -> int:
    """Count the descending singular values ``s`` above
    ``RANK_TOL * max(sigma_max, scale)``."""
    return int(np.sum(s > RANK_TOL * max(s[0] if s.size else 0.0, scale)))


def _nullspace(c: np.ndarray, scale: float = 0.0) -> np.ndarray:
    """Orthonormal nullspace basis (columns) of a complex matrix.

    ``scale`` floors the rank threshold: the size of the terms that
    cancel in ``c`` (``|lam|`` for ``psi(M) - lam I``), so a ``c`` that
    is only rounding noise of ``M`` has a full kernel.
    """
    u, s, vh = np.linalg.svd(c)
    return vh[_rank(s, scale):, :].conj().T


def _h_basis(
    ns: np.ndarray,
    odd_message: str = "a j-invariant complex subspace has odd dimension",
) -> QMatrix:
    """Halve a j-invariant complex subspace into a quaternionic basis.

    ``ns`` holds orthonormal columns of a subspace closed under
    ``z -> J conj(z)``, so its dimension must be even; an odd one raises
    :class:`NumericalError` with ``odd_message``.  Pick column 0,
    project the plane it spans with its companion out of every column,
    then pick the remaining column of largest norm, and repeat (pivoted
    deflation, O(N k^2) for 2k columns); each pick is one column of the
    returned right H-basis.
    """
    if ns.shape[1] % 2:
        raise NumericalError(odd_message)
    picks: list[np.ndarray] = []
    work = np.array(ns, dtype=complex)
    count = ns.shape[1] // 2
    col = 0
    for step in range(count):
        z = work[:, col]
        z = z / np.linalg.norm(z)
        zj = _j_conj(z)
        # z and J conj(z) are orthogonal by construction; re-orthonormalize
        # against rounding before deflating.
        zj = zj - (np.conj(z) @ zj) * z
        zj = zj / np.linalg.norm(zj)
        picks.append(z)
        if step + 1 < count:
            work -= np.outer(z, np.conj(z) @ work) + np.outer(zj, np.conj(zj) @ work)
            col = int(np.argmax(np.linalg.norm(work, axis=0)))
    z = np.column_stack(picks) if picks else ns
    half = z.shape[0] // 2
    return QMatrix._adopt(z[:half], z[half:])


def _shifted_kernel(c: np.ndarray, root: complex, power: int) -> np.ndarray:
    """Orthonormal kernel (columns) of the shifted image
    ``(c - root I)^power``; ``|root|^power``, the size of what cancels,
    floors the rank threshold."""
    shifted = np.linalg.matrix_power(c - root * np.eye(c.shape[0]), power)
    return _nullspace(shifted, abs(root) ** power)


def _root_basis(c: np.ndarray, root: complex, power: int) -> list[QMatrix]:
    """Right H-basis, as columns, of the vectors that
    ``(psi(M) - root I)^power`` annihilates, for ``c = psi(M)``.

    A real root's kernel is closed under ``z -> J conj(z)`` and is halved
    by :func:`_h_basis`.  For a non-real root each complex kernel vector
    gives one quaternionic vector; its companion ``v * j`` belongs to the
    conjugate root.
    """
    ns = _shifted_kernel(c, root, power)
    if root.imag != 0.0:
        return [_vec_from_psi(ns[:, r]) for r in range(ns.shape[1])]
    basis = _h_basis(
        ns, f"kernel of (psi(M) - {root.real:.6g} I)^{power} has odd "
        "complex dimension; rank tolerance is ambiguous here",
    )
    return [basis.column(r) for r in range(basis.cols)]


def right_eigenbasis(m: QMatrix, lam: complex):
    """All H-linearly-independent right eigenvectors for the class of
    ``lam``, from :func:`_root_basis` at power 1 and ``RANK_TOL`` (1e-8);
    ``lam`` counts as real when its imaginary part is within ``CLASS_TOL``
    times the spectral norm of ``psi(M)`` (floored at 1)."""
    _require_square(m)
    lam = complex(lam)
    c = psi(m)
    # The spectral norm only scales the test for a non-real lam.
    if lam.imag != 0.0 and abs(lam.imag) <= CLASS_TOL * max(
        1.0, float(np.linalg.norm(c, 2))
    ):
        lam = complex(lam.real, 0.0)
    basis = _root_basis(c, lam, 1)
    if not basis:
        raise ValidationError(
            f"{lam:.6g} is not an eigenvalue of psi(M) at rank tolerance"
        )
    return basis


def h_linear_independent(vectors) -> bool:
    """Right H-linear independence test for quaternionic column vectors.

    Accepts a sequence of n x 1 QMatrix columns (or one n x k QMatrix)
    and checks that ``psi`` of the stacked matrix has full column rank;
    singular values below ``RANK_TOL * sigma_max`` (1e-8) count as zero.
    """
    if isinstance(vectors, QMatrix):
        stacked = vectors
    else:
        vectors = list(vectors)
        if not vectors:
            raise ValidationError("need at least one vector")
        length = vectors[0].rows
        for v in vectors:
            if v.cols != 1 or v.rows != length:
                raise ValidationError(
                    "expected column vectors of a common length"
                )
        stacked = QMatrix.hstack(vectors)
    return h_rank(stacked) == stacked.cols


def h_rank(m: QMatrix) -> int:
    """Right H-rank of ``m``: half the numerical rank of ``psi(m)``, with
    singular values below ``RANK_TOL * sigma_max`` (1e-8) counted as zero
    (``m`` is not shifted, so ``sigma_max`` is its own scale)."""
    return _rank(np.linalg.svd(psi(m), compute_uv=False)) // 2


def is_unitary(m: QMatrix) -> bool:
    """Whether ``M* M = I`` entrywise within 1e-10.

    One side suffices: quaternionic matrices embed injectively into
    square complex matrices, where a one-sided inverse is two-sided.
    """
    n = _require_square(m)
    return (m.H @ m - QMatrix.eye(n)).max_entry_norm() <= 1e-10


class PolyFactor(NamedTuple):
    """An irreducible real factor of degree 1 or 2 with its exponent.

    ``coefficients`` are monic and descending: ``(1.0, c0)`` encodes
    ``y + c0``; ``(1.0, c1, c0)`` encodes ``y^2 + c1*y + c0``.  ``root``
    is the canonical root with nonnegative imaginary part.
    """

    coefficients: tuple[float, ...]
    exponent: int
    root: complex

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def evaluate_matrix(self, m: QMatrix) -> QMatrix:
        """The factor (without exponent) evaluated at a square QMatrix."""
        n = _require_square(m)
        eye = QMatrix.eye(n)
        if self.degree == 1:
            return m + eye.scale(self.coefficients[1])
        return (
            m @ m
            + m.scale(self.coefficients[1])
            + eye.scale(self.coefficients[2])
        )


class MinimalPolynomial(NamedTuple):
    """Monic real minimal polynomial as powers of irreducible factors.

    Factors are sorted by ascending real part of the root, then by root
    magnitude.  Real coefficients are forced by conjugation-closure of
    the psi spectrum; uniqueness follows from monic minimality.
    """

    factors: tuple[PolyFactor, ...]
    warnings: tuple[str, ...] = ()

    @property
    def degree(self) -> int:
        return sum(f.degree * f.exponent for f in self.factors)

    def coefficients(self) -> tuple[float, ...]:
        """Full expanded coefficients, monic and descending."""
        poly = np.array([1.0])
        for f in self.factors:
            for _ in range(f.exponent):
                poly = np.polymul(poly, np.array(f.coefficients))
        return tuple(float(c) for c in poly)

    def evaluate_matrix(self, m: QMatrix) -> QMatrix:
        out = QMatrix.eye(_require_square(m))
        for f in self.factors:
            out = out @ f.evaluate_matrix(m).power(f.exponent)
        return out


def minimal_polynomial(m: QMatrix) -> MinimalPolynomial:
    """Minimal polynomial of a square quaternionic matrix.

    The candidate roots are the classes of :func:`_psi_classes` at
    ``CLUSTER_TOL`` (1e-6), and kernels are ranked at ``RANK_TOL`` (1e-8).
    A root whose imaginary part is within the grouping radius is real and
    gives a degree-1 factor, any other a degree-2 factor with its
    conjugate.  A factor's exponent is the least power ``k`` at which the
    nullity of ``(psi(M) - root I)^k`` reaches the root's count of psi
    eigenvalues (half that count for a non-real root, whose conjugate
    holds the other half) or stops growing.  When two
    roots, or a root and the conjugate of another, pass within three
    times the radius a warning is emitted and recorded on the result,
    since the factorization is then sensitive to the tolerance choice.
    """
    _require_square(m)
    c = psi(m)
    values = np.linalg.eigvals(c)
    radius = CLUSTER_TOL * max(1.0, float(np.max(np.abs(values))))
    classes = [
        (complex(root.real, 0.0) if root.imag <= radius else root, count)
        for root, count in _psi_classes(values)
    ]

    roots = np.array([root for root, _count in classes])
    points = np.concatenate([roots, roots[roots.imag != 0].conj()])
    gaps = np.abs(points[:, None] - points[None, :])
    np.fill_diagonal(gaps, np.inf)
    notes: list[str] = []
    min_gap = float(np.min(gaps, initial=np.inf))
    if min_gap < 3.0 * radius:
        message = (
            f"eigenvalue clusters separated by {min_gap:.3g}, close to the "
            f"merge threshold {radius:.3g}; factorization may be "
            "tolerance-sensitive"
        )
        warnings.warn(message)
        notes.append(message)

    classes.sort(key=lambda item: (item[0].real, abs(item[0])))

    factors = []
    for root, count in classes:
        target = count if root.imag == 0.0 else count // 2
        exponent, nullity = 1, _shifted_kernel(c, root, 1).shape[1]
        while nullity < target:
            grown = _shifted_kernel(c, root, exponent + 1).shape[1]
            if grown == nullity:
                break
            exponent, nullity = exponent + 1, grown
        if root.imag == 0.0:
            coeffs = (1.0, -root.real)
        else:
            coeffs = (1.0, -2.0 * root.real, abs(root) ** 2)
        factors.append(PolyFactor(coeffs, exponent, root))

    result = MinimalPolynomial(tuple(factors), tuple(notes))
    bound = MP_TOL * max(1.0, float(np.linalg.norm(c, 2))) ** result.degree
    residual = result.evaluate_matrix(m).max_entry_norm()
    if residual > bound:
        raise NumericalError(
            f"minimal polynomial fails to annihilate: residual {residual:.3g} "
            f"exceeds {bound:.3g}"
        )
    return result


class RootSubspace(NamedTuple):
    """Kernel of one minimal-polynomial factor power, as a right H-span."""

    factor: PolyFactor
    basis: tuple[QMatrix, ...]

    @property
    def dimension(self) -> int:
        return len(self.basis)


def root_subspaces(m: QMatrix) -> list[RootSubspace]:
    """Root subspace decomposition along the minimal polynomial.

    Each subspace is ``ker p_s(M)^{m_s}``; their dimensions sum to the
    full dimension and the union of the returned bases is H-linearly
    independent.  Each basis comes from the kernel of the shifted psi
    image ``(psi(M) - root I)^{m_s}`` through :func:`_root_basis`, with
    the tolerances of :func:`minimal_polynomial`.
    """
    n = _require_square(m)
    c = psi(m)
    out: list[RootSubspace] = []
    for factor in minimal_polynomial(m).factors:
        basis = _root_basis(c, factor.root, factor.exponent)
        out.append(RootSubspace(factor, tuple(basis)))
    total = sum(s.dimension for s in out)
    if total != n:
        raise NumericalError(
            f"root subspace dimensions sum to {total}, expected {n}"
        )
    combined = [v for s in out for v in s.basis]
    if not h_linear_independent(combined):
        raise NumericalError("combined root subspace bases are dependent")
    return out
