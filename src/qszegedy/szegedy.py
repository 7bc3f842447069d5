"""Quaternionic Szegedy walks: transition matrix, spectrum, lifting.

The walk on a graph with arc weights ``q`` has transition matrix

    U[e, f] = 2 q(e) q(f^-1)*        if t(f) = o(e) and f != e^-1,
              2 |q(e)|^2 - 1         if f = e^-1,
              0                      otherwise,

which is unitary exactly when the squared weight norms leaving each
vertex sum to 1.  The weights are one read-only ``(m', 4)`` float array
whose row e holds the components of ``q(e)`` in canonical arc order:
``arc_weights`` builds it from ``{(u, v): q}``, and ``uniform_weights``
and ``random_instance`` make it.  With the incidence-type matrices
``K`` (origin) and ``L`` (terminus) built from ``a(e) = sqrt(2) q(e)``
and ``b(e) = sqrt(2) q(e^-1)``, the same matrix is ``U = K L* - J0``
and ``U = J0 (L L* - I)``.  U is non-zero only on its support
``t(f) = o(e)``, ``sum_v indeg(v) outdeg(v)`` entries; all three
constructions are evaluated there and cross-checked entrywise whenever
a walk is built.  A walk keeps only the weights and W: K, L and the
dense ``m' x m'`` U are formed from the weights where they are read
(U for the direct ``--force`` path and ``examples``, read off the
oracle's ``psi(U)``); walk residuals apply ``U x = K (L* x) - J0 x``.

The right spectrum comes from the doubly weighted matrix
``W = L* K`` through the spectral mapping: every eigenvalue ``mu`` of
``psi(W)`` (real, in ``[-2, 2]``) maps to the pair
``lam = mu/2 +- i sqrt(1 - (mu/2)^2)``, 4n mapped values in all.  The
prefactor ``(1 - t^2)^(2 m0 - 2n) (1 + t)^(2 m1)`` of the quaternionic
Bass identity fixes the rest as signed multiplicities: ``2 m0 - 2n``
more copies of +1 and ``2 m0 + 2 m1 - 2n`` more copies of -1.  Both
counts add over components (W is block diagonal), and only tree
components add negative terms; each missing pair then cancels a mapped
pair {+1, +1} or {-1, -1}.

Eigenvectors for non-real classes lift from eigenvectors ``v`` of the
doubly weighted matrix via ``e = J0 L v - L v (1/lam)``.  At ``lam = +-1``
the lift degenerates, and the split ``U = K L* - J0`` gives the
eigenspace instead: *birth* vectors with ``L* e = 0`` and
``J0 e = -lam e`` (a kernel of an n x d matrix), plus *inherited*
vectors ``L v`` for the eigenvectors of W at ``mu = 2 lam``.  They keep
the origin label ``"direct"``; no step diagonalizes ``psi(U)`` except
the oracle.
"""

from __future__ import annotations

import itertools
import math
import warnings
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import DegenerateLiftError, Frozen, NumericalError, ValidationError
from .graph import Graph
from .qmatrix import (
    QMatrix,
    _h_basis,
    _j_conj,
    from_psi,
    h_linear_independent,
    h_rank,
    psi,
    qvec,
    right_eigenvalues,
)
from .quaternion import CLASS_TOL, Quaternion

__all__ = [
    "EigenspaceCount",
    "LiftGroup",
    "LiftedVector",
    "OracleComparison",
    "SpectrumClass",
    "SpectrumReport",
    "StructureCheck",
    "StructureReport",
    "UnitarityReport",
    "VertexUnitarity",
    "WalkOperators",
    "arc_weights",
    "build_kl",
    "build_walk",
    "check_pm1_eigenspaces",
    "check_unitary_condition",
    "direct_spectrum",
    "full_spectrum",
    "group_mus",
    "lift_eigenvector",
    "lift_groups",
    "match_multisets",
    "nearest_mu",
    "random_instance",
    "spectral_map",
    "uniform_weights",
    "vector_components",
    "vector_payload",
    "verify_structure",
    "walk_eigenvectors",
]

#: Per-vertex unitarity condition tolerance.
UNITARITY_TOL = 1e-10
#: Tolerance of the structure row ``L* J0 L = W``.
STRUCTURE_TOL = 1e-12
#: The two U construction paths must agree entrywise this tightly.
CROSS_CHECK_TOL = 1e-14
#: |mu| may exceed 2 by at most this before clamping becomes an error.
MU_CLAMP_TOL = 1e-9
#: Base-matrix eigenvalues this close to +-2 are snapped exactly.  The
#: square root in the spectral map has unbounded slope at the interval
#: ends, so solver noise of order 1e-14 on a structurally exact boundary
#: eigenvalue would otherwise smear into ~1e-7 on the walk spectrum.
MU_SNAP_TOL = 1e-11
#: Default comparison tolerance for spectra and residuals.
SPECTRUM_TOL = 1e-8
#: Relative window of a typed ``lift --mu`` around the nearest cluster mean.
MU_MATCH_TOL = 5e-3

_SQRT2 = math.sqrt(2.0)


def arc_weights(graph: Graph, weights) -> np.ndarray:
    """Weights ``{(origin, terminus): q}``, each ``q`` four real
    components, as the read-only ``(m', 4)`` array in canonical arc
    order; demands exactly one weight per arc."""
    keys = list(zip(graph.origin.tolist(), graph.terminus.tolist()))
    missing = sorted(set(keys) - set(weights))
    extra = sorted(set(weights) - set(keys))
    if missing:
        raise ValidationError(f"missing weights for arcs {missing}")
    if extra:
        raise ValidationError(f"weights given for non-arcs {extra}")
    return _check_weights(graph, [weights[key] for key in keys],
                          shape_only=True)[0]


def uniform_weights(graph: Graph) -> np.ndarray:
    """Classical choice ``q(e) = 1/sqrt(outdeg(o(e)))``, as the read-only
    ``(m', 4)`` array."""
    outdeg = _out_degrees(graph)
    q = np.zeros((graph.m_prime, 4))
    q[:, 0] = 1.0 / np.sqrt(outdeg[graph.origin])
    q.flags.writeable = False
    return q


def _out_degrees(graph: Graph) -> np.ndarray:
    """Arcs leaving each vertex; rejects a vertex without any."""
    outdeg = np.bincount(graph.origin, minlength=graph.n)
    if not outdeg.all():
        raise ValidationError(
            f"vertex {np.flatnonzero(outdeg == 0)[0]} has no outgoing arcs"
        )
    return outdeg


def _check_weights(
    graph: Graph, weights, what: str = "weights", *, shape_only=False
) -> tuple[np.ndarray, np.ndarray | None]:
    """Weights as a read-only ``(m', 4)`` float array, one row of
    components per arc, and unless ``shape_only`` their squared norms.

    The norm adds ``x0^2 + x1^2 + x2^2 + x3^2`` left to right.  Unless
    ``shape_only``, a non-finite component, a squared norm that overflows
    and a zero weight are rejected, naming the first such arc.
    """
    try:
        q = np.array(weights, dtype=float)
        if q.shape != (graph.m_prime, 4):
            raise ValueError(f"got shape {q.shape}")
    except (TypeError, ValueError) as exc:
        raise ValidationError(
            f"{what}: expected {graph.m_prime} entries of four real "
            f"components; {exc}"
        ) from None
    q.flags.writeable = False
    if shape_only:
        return q, None
    with np.errstate(over="ignore"):
        norm_sq = (q * q).sum(axis=1)
    for bad, problem in (
        (~np.isfinite(q).all(axis=1), "is not finite"),
        (~np.isfinite(norm_sq), "has a squared norm that overflows"),
        (norm_sq == 0.0, "is zero"),
    ):
        if bad.any():
            e = np.flatnonzero(bad)[0]
            raise ValidationError(
                f"weight on arc ({graph.origin[e]},{graph.terminus[e]}) "
                f"{problem}"
            )
    return q, norm_sq


class VertexUnitarity(NamedTuple):
    vertex: int
    total: float
    deviation: float
    ok: bool

    def to_dict(self) -> dict:
        return self._asdict()


class UnitarityReport(NamedTuple):
    """Per-vertex sums of squared weight norms against the target 1."""

    vertices: tuple[VertexUnitarity, ...]
    tol: float
    passed: bool
    max_deviation: float

    def failing_vertices(self) -> list[int]:
        return [v.vertex for v in self.vertices if not v.ok]

    def require(self) -> None:
        """Raise ValidationError naming the failing vertices (1-based)."""
        if not self.passed:
            raise ValidationError(
                "weights violate the unitarity condition at vertices "
                f"{[v + 1 for v in self.failing_vertices()]}"
            )

    def to_dict(self) -> dict:
        return {
            "tol": self.tol,
            "passed": self.passed,
            "max_deviation": self.max_deviation,
            "vertices": [v.to_dict() for v in self.vertices],
        }


def check_unitary_condition(graph: Graph, weights) -> UnitarityReport:
    """Check ``sum |q(e)|^2 = 1`` over the arcs leaving each vertex.

    Each vertex's sum adds its arcs' squared norms in arc order, from 0,
    and passes within ``UNITARITY_TOL`` (1e-10) of 1.
    """
    tol = UNITARITY_TOL
    norm_sq = _check_weights(graph, weights)[1]
    totals = np.bincount(graph.origin, weights=norm_sq, minlength=graph.n)
    deviations = np.abs(totals - 1.0)
    outdeg = np.bincount(graph.origin, minlength=graph.n)
    rows = tuple(
        # An empty sum: reports write the int 0.
        VertexUnitarity(u, total if count else 0, deviation, deviation <= tol)
        for u, (total, deviation, count) in enumerate(
            zip(totals.tolist(), deviations.tolist(), outdeg.tolist())
        )
    )
    return UnitarityReport(
        vertices=rows,
        tol=tol,
        passed=all(r.ok for r in rows),
        max_deviation=float(deviations.max()),  # np.max keeps a NaN
    )


def build_kl(graph: Graph, a, b) -> tuple[QMatrix, QMatrix]:
    """Incidence-type weight matrices from arc maps ``a`` and ``b``.

    ``K[e, o(e)] = a(e)`` and ``L[e, t(e)] = b(e)``; all other entries
    vanish.  Inputs are ``(m', 4)`` component arrays in canonical arc
    order, or ``m' x 1`` QMatrix columns.
    """
    return _scatter(graph, a, graph.origin), _scatter(graph, b, graph.terminus)


def _scatter(graph: Graph, values, columns: np.ndarray) -> QMatrix:
    """The ``m' x n`` matrix with ``values[e]`` at ``(e, columns[e])``."""
    if not isinstance(values, QMatrix):
        values = QMatrix.from_components(
            np.asarray(values, dtype=float)[:, None]
        )
    mat = QMatrix.zeros(graph.m_prime, graph.n)
    rows = np.arange(graph.m_prime)
    mat.a[rows, columns] = values.a[:, 0]
    mat.b[rows, columns] = values.b[:, 0]
    return mat


def _l_matrix(graph: Graph, q: np.ndarray) -> QMatrix:
    """L, ``sqrt(2) q(e^-1)`` at ``(e, t(e))``; K is its row gather."""
    qinv = QMatrix.from_components(q[graph.inverse, None])
    return _scatter(graph, qinv.scale(_SQRT2), graph.terminus)


class WalkOperators(Frozen):
    """One walk: its graph, its weights and ``W``, the matrix every job
    reads.  Everything else is built from the weights when first read
    and cached in the instance dict.  Immutable; equality, hash and repr
    read ``graph`` and ``W`` (by identity).

    Attributes
    ----------
    q : ndarray
        The weights, the read-only ``(m', 4)`` array in arc order.
    W : QMatrix
        Doubly weighted matrix ``L* K``; Hermitian by construction.
    K, L : QMatrix
        Origin/terminus incidence weight matrices with rows indexed by
        arcs and columns by vertices; ``K = J0 L``.
    LH : QMatrix
        ``L*``, the conjugate transpose of L, which every walk residual
        applies (``U x = K (L* x) - J0 x``) and the +-1 birth matrix
        gathers from.
    U : QMatrix
        Transition matrix on arcs, dense, read off the oracle's ``psi(U)``
        for the direct ``--force`` path and ``examples``.
    mu_spectrum : tuple of float
        The eigenvalues of ``psi(W)``, ascending, with those within
        ``MU_SNAP_TOL`` of +-2 snapped to exactly +-2: the one snap
        decision of the walk, which the theorem path, the eigenvector
        clusters, the +-1 eigenspaces and their rank count all read.
    w_eigh : tuple of arrays
        ``np.linalg.eigh(psi(W))``, read-only; its columns are in the
        order of ``mu_spectrum``.
    """

    _FIELDS = ("graph", "W")

    def __init__(self, graph: Graph, q: np.ndarray, W: QMatrix):
        vars(self).update(graph=graph, q=q, W=W)

    @cached_property
    def L(self) -> QMatrix:
        return _l_matrix(self.graph, self.q)

    @cached_property
    def LH(self) -> QMatrix:
        return self.L.H

    @cached_property
    def K(self) -> QMatrix:
        return self.L.take_rows(self.graph.inverse)

    @cached_property
    def U(self) -> QMatrix:
        return from_psi(_psi_u(self.graph, self.q))

    @cached_property
    def mu_spectrum(self) -> tuple[float, ...]:
        return tuple(_base_spectrum(self.W))

    @cached_property
    def w_eigh(self) -> tuple[np.ndarray, np.ndarray]:
        values, vecs = np.linalg.eigh(psi(self.W))
        values.flags.writeable = False
        vecs.flags.writeable = False
        return values, vecs


def build_walk(graph: Graph, weights) -> WalkOperators:
    """Construct the walk, cross-checking three U constructions.

    The direct entrywise formula, the factorization ``K L* - J0``, and
    the shift-times-coin product ``J0 (L L* - I)`` are each evaluated on
    the pairs where its own factors are non-zero, and must give the same
    support and agree entrywise to ``1e-14``; disagreement indicates a
    broken invariant, not bad input, and raises NumericalError.  No
    ``m' x m'`` array is formed.  K and L live only for the check and
    ``W = L* K``, which :func:`_adjoint_product` forms bit for bit as
    ``L.H @ K`` with no m' x n array besides them.  Unitarity of the
    weights is NOT required here: non-unitary instances still define
    all matrices.
    """
    q, norm_sq = _check_weights(graph, weights)
    L = _l_matrix(graph, q)
    K = L.take_rows(graph.inverse)

    direct = _direct_entries(graph, q)
    _support_check(graph, direct, _kl_entries(graph, K, L), "K L* - J0",
                   norm_sq)
    qinv = QMatrix.from_components(q[graph.inverse, None])
    _support_check(graph, direct, _coin_entries(graph, qinv),
                   "J0 (L L* - I)", norm_sq)
    del direct

    W = _adjoint_product(L, K)
    del K, L
    herm_gap = (W.H - W).max_entry_norm()
    if not herm_gap <= 1e-13 * max(1.0, W.max_entry_norm()):
        raise NumericalError(
            f"doubly weighted matrix lost Hermitian symmetry by {herm_gap:.3g}"
        )
    return WalkOperators(graph=graph, q=q, W=W)


def _psi_u(graph: Graph, q: np.ndarray) -> np.ndarray:
    """``psi(U)`` scattered from U's support into the one 2m' x 2m'
    result, with no dense U.  It is ``psi(ops.U)`` byte for byte: off the
    support, psi's blocks hold the images of zero, ``-conj(0) = -0 + 0i``
    at the top right and ``conj(0) = 0 - 0i`` at the bottom right."""
    e, f, values = _direct_entries(graph, q)
    m = graph.m_prime
    out = np.zeros((2 * m, 2 * m), dtype=complex)
    out[:m, m:] = complex(-0.0, 0.0)
    out[m:, m:] = complex(0.0, -0.0)
    a, b = values.a[:, 0], values.b[:, 0]
    out[e, f] = a
    out[e, m + f] = -np.conj(b)
    out[m + e, f] = b
    out[m + e, m + f] = np.conj(a)
    return out


def _adjoint_product(L: QMatrix, K: QMatrix) -> QMatrix:
    """``L* K``, bit for bit ``L.H @ K``, without its operand copies.

    ``QMatrix.__matmul__(L.H, K)`` makes four complex products.  Their
    left operands are ``conj(L.a).T``, ``conj(-L.b).T``, ``(-L.b).T`` and
    ``L.a.T``: transposes of m' x n arrays.  Here L's own parts are
    converted into them in place, one step before each product, and back
    afterwards; conjugation and negation only flip sign bits, so L ends
    as it began.  Each operand keeps the values and the memory layout
    that ``L.H`` gives it, and the products are written into W, so every
    entry of W, signed zeros included, is the one ``L.H @ K`` gives.
    """
    la, lb = L.a, L.b
    a = np.matmul(np.conjugate(la, out=la).T, K.a)
    b = np.matmul(np.conjugate(np.negative(lb, out=lb), out=lb).T, K.b)
    a -= b
    np.matmul(np.conjugate(lb, out=lb).T, K.a, out=b)
    np.negative(lb, out=lb)
    b += np.conjugate(la, out=la).T @ K.b
    return QMatrix._adopt(a, b)


def _direct_entries(graph: Graph, q: np.ndarray):
    """U on its support from the defining formula and the ``(m', 4)``
    weights, in row-major order: ``2 q(e) q(f^-1)*`` on the pairs
    ``t(f) = o(e)``, with ``2 |q(e)|^2 - 1`` at ``f = e^-1``.  Returns
    ``(rows, cols, values)`` with the values an ``|S| x 1`` column."""
    qcol = QMatrix.from_components(q[:, None])
    e, f = _pairs(graph.origin, graph.terminus)
    inv = graph.inverse
    values = _times_conj(
        qcol.scale(2.0).take_rows(e), qcol.take_rows(inv[f])
    )
    back = f == inv[e]
    s, p = qcol.a[e[back], 0], qcol.b[e[back], 0]
    norm_sq = s.real**2 + s.imag**2 + p.real**2 + p.imag**2
    values.a[back, 0] = 2.0 * norm_sq - 1.0
    values.b[back] = 0.0
    return e, f, values


def _kl_entries(graph: Graph, K: QMatrix, L: QMatrix):
    """``K L* - J0`` on the pairs where K's row e and L's row f have
    non-zero entries in a shared vertex column: their product, minus 1
    at ``f = e^-1``."""
    k_rows, k_cols = np.nonzero((K.a != 0) | (K.b != 0))
    l_rows, l_cols = np.nonzero((L.a != 0) | (L.b != 0))
    i, j = _pairs(k_cols, l_cols)
    e, f = k_rows[i], l_rows[j]
    values = _times_conj(
        QMatrix._adopt(K.a[e, k_cols[i], None], K.b[e, k_cols[i], None]),
        QMatrix._adopt(L.a[f, l_cols[j], None], L.b[f, l_cols[j], None]),
    )
    values.a[f == graph.inverse[e]] -= 1.0
    return e, f, values


def _coin_entries(graph: Graph, qinv: QMatrix):
    """``J0 (L L* - I)`` from the coin ``C[e', f] = 2 q(e'^-1) q(f^-1)* -
    delta`` on the pairs ``t(e') = t(f)``; the shift J0 moves row e' to
    ``inverse[e']``."""
    rows, cols = _pairs(graph.terminus, graph.terminus)
    values = _times_conj(
        qinv.scale(2.0).take_rows(rows), qinv.take_rows(cols)
    )
    values.a[rows == cols] -= 1.0
    return graph.inverse[rows], cols, values


def _pairs(left: np.ndarray, right: np.ndarray):
    """All index pairs ``(i, j)`` with ``left[i] == right[j]``, ordered by
    ``i`` and then ``j``."""
    order = np.argsort(right, kind="stable")
    start = np.searchsorted(right[order], left, "left")
    counts = np.searchsorted(right[order], left, "right") - start
    i = np.repeat(np.arange(len(left)), counts)
    # Pair k of left index i sits at start[i] + k - (pairs before i).
    j = np.repeat(start - (np.cumsum(counts) - counts), counts)
    j += np.arange(len(i))
    return i, order[j]


def _times_conj(x: QMatrix, y: QMatrix) -> QMatrix:
    """Entrywise quaternion products ``x y*`` of two equal-shape matrices:
    ``x.a conj(y.a) + conj(x.b) y.b`` and ``x.b conj(y.a) - conj(x.a) y.b``,
    each product with its operands in that order, computed in place in
    three arrays of the result's size."""
    a = np.conjugate(y.a)
    np.multiply(x.a, a, out=a)
    b = np.conjugate(x.b)
    a += np.multiply(b, y.b, out=b)
    np.multiply(x.b, np.conjugate(y.a, out=b), out=b)
    t = np.conjugate(x.a)
    b -= np.multiply(t, y.b, out=t)
    return QMatrix._adopt(a, b)


def _support_check(graph: Graph, direct, other, label: str,
                   weight_sq: np.ndarray) -> None:
    """Compare two U constructions given as ``(rows, cols, values)``
    entries: the same support, and entries within ``CROSS_CHECK_TOL``.
    ``direct`` is in row-major order, and ``weight_sq`` holds the squared
    weight norms.

    Entry ``(e, f)`` has size up to ``2 |q(e)| |q(f^-1)|``, and its
    rounding grows with it.  So when the largest gap exceeds
    ``CROSS_CHECK_TOL``, each entry is held to ``CROSS_CHECK_TOL *
    max(1, |q(e)| |q(f^-1)|)`` instead.  Unitary weights have
    ``|q| <= 1``: for them that bound is the absolute one, and the first
    pass decides."""
    rows, cols, values = other
    keys = rows * graph.m_prime + cols
    order = np.argsort(keys, kind="stable")
    e, f, reference = direct
    if not np.array_equal(keys[order], e * graph.m_prime + f):
        raise NumericalError(
            f"transition-matrix construction paths disagree: direct vs "
            f"{label} differ in support ({len(e)} vs {len(keys)} entries)"
        )
    # The largest entry norm of the difference, |d| as entry_norms forms
    # it, with one array of each kind alive.
    diff = np.subtract(values.a[order], reference.a)
    norm_sq = np.square(np.abs(diff))
    np.subtract(values.b[order], reference.b, out=diff)
    norm_sq += np.square(np.abs(diff))
    gaps = np.sqrt(norm_sq, out=norm_sq)[:, 0]
    gap = float(np.max(gaps))
    if gap <= CROSS_CHECK_TOL:
        return
    scale = np.sqrt(weight_sq)
    scale = scale[e] * scale[graph.inverse[f]]
    if not (gaps <= CROSS_CHECK_TOL * np.maximum(scale, 1.0)).all():
        # A NaN gap fails.
        raise NumericalError(
            f"transition-matrix construction paths disagree: direct vs "
            f"{label} differ by {gap:.3g}"
        )


def spectral_map(mu: float):
    """Map a base eigenvalue ``mu`` to the walk eigenvalue pair.

    Returns ``(lam_plus, lam_minus)`` with
    ``lam = mu/2 +- i sqrt(1 - (mu/2)^2)``; the pair is conjugate and of
    unit modulus.  ``mu`` must be real in ``[-2, 2]``; values beyond by
    at most ``MU_CLAMP_TOL`` are clamped with a warning, anything further
    out raises, since it signals a non-unitary instance upstream.
    """
    mu = float(mu)
    excess = abs(mu) - 2.0
    if excess > MU_CLAMP_TOL:
        raise ValidationError(
            f"base eigenvalue {mu!r} lies outside [-2, 2]; the spectral map "
            "applies only to walks satisfying the unitarity condition"
        )
    if excess > 0.0:
        warnings.warn(
            f"clamping base eigenvalue {mu!r} to the interval [-2, 2]"
        )
        mu = 2.0 if mu > 0 else -2.0
    lam = _walk_value(mu)
    return lam, lam.conjugate()


def _walk_value(mu: float) -> complex:
    """``mu/2 + i sqrt(1 - (mu/2)^2)``, the upper value of the spectral
    map, without its range check (beyond +-2 the root reads 0)."""
    half = 0.5 * mu
    return complex(half, math.sqrt(max(0.0, 1.0 - half * half)))


def _base_spectrum(w: QMatrix) -> list[float]:
    """Real eigenvalues of psi(W), ascending, boundary values snapped."""
    return _snap_boundary(np.linalg.eigvalsh(psi(w)))


def _snap_boundary(values: np.ndarray) -> list[float]:
    out = []
    for value in values.tolist():
        for boundary in (-2.0, 2.0):
            if abs(value - boundary) <= MU_SNAP_TOL:
                value = boundary
                break
        out.append(float(value))
    return out


class SpectrumClass(NamedTuple):
    """One conjugacy class of the walk spectrum with its multiplicity."""

    rep: complex
    multiplicity: int
    sources: tuple[str, ...]

    def to_dict(self) -> dict:
        return {
            "rep": [self.rep.real, self.rep.imag],
            "multiplicity": self.multiplicity,
            "sources": list(self.sources),
        }


class OracleComparison(NamedTuple):
    """Theorem-path spectrum matched against direct diagonalization."""

    max_distance: float
    matched: bool
    direct_spectrum: tuple[complex, ...]

    def to_dict(self) -> dict:
        return {
            "max_distance": self.max_distance,
            "matched": self.matched,
            "direct_spectrum": [[z.real, z.imag] for z in self.direct_spectrum],
        }


class LiftedVector(Frozen):
    """An eigenvector of the walk with its provenance and residual.

    ``residual`` is the absolute ``|U e - e lam|``; ``origin`` is "lift",
    "lift-companion" or "direct"; ``base`` is the eigenvector of W that a
    lift started from (None for "direct").  Immutable; equality, hash and
    repr leave ``base`` out and compare ``vector`` by identity.
    """

    _FIELDS = ("lam", "mu", "vector", "residual", "origin")

    def __init__(self, lam: complex, mu: float | None, vector: QMatrix,
                 residual: float, origin: str, base: QMatrix | None = None):
        vars(self).update(lam=lam, mu=mu, vector=vector, residual=residual,
                          origin=origin, base=base)

    @property
    def relative_residual(self) -> float:
        return self.residual / max(self.vector.fro_norm(), 1e-300)

    def to_dict(self) -> dict:
        return vector_payload([self])[0]


def vector_components(vectors) -> np.ndarray:
    """The ``(len(vectors), rows, 4)`` components of equal-height column
    vectors, stacked: ``[k]`` is ``vectors[k].components()[:, 0]``.

    Each vector's parts are assigned into one preallocated stack.  The
    last component is ``-b.imag`` by assignment of a negated copy: numpy
    2.4.6 miscomputes ``np.negative(x, out=y)`` for a strided ``y`` when
    ``x`` has a 64-byte stride, as ``b.imag`` of a column of a 4-column
    block has."""
    if not vectors:
        return np.empty((0, 0, 4))
    out = np.empty((len(vectors), vectors[0].rows, 4))
    for table, vector in zip(out, vectors):
        a, b = vector.a[:, 0], vector.b[:, 0]
        table[:, 0] = a.real
        table[:, 1] = a.imag
        table[:, 2] = b.real
        table[:, 3] = -b.imag
    return out


def vector_payload(items, tables=None) -> list[dict]:
    """``LiftedVector.to_dict()`` of each of ``items``, whose ``vector``
    entry is ``tables[k]``.  By default every table comes from one
    ``tolist`` of the items' :func:`vector_components`; the CLI passes
    that stack itself, whose ``(rows, 4)`` float arrays its JSON writer
    formats without building lists."""
    if tables is None:
        tables = vector_components([item.vector for item in items]).tolist()
    return [
        {
            "lambda": [item.lam.real, item.lam.imag],
            "mu": item.mu,
            "residual": item.residual,
            "origin": item.origin,
            "vector": table,
        }
        for item, table in zip(items, tables)
    ]


class LiftGroup(NamedTuple):
    """The walk eigenvectors of one base eigenvalue at one ``lam``.

    ``mu`` is None for the direct extraction at +-1.  ``independent`` is
    the right H-linear independence verdict of a lifted group (None for
    a direct one, whose basis comes from one kernel).
    """

    mu: float | None
    lam: complex
    vectors: tuple[LiftedVector, ...]
    independent: bool | None


class SpectrumReport(NamedTuple):
    """Full right spectrum of a walk, with optional extras.  ``tree_case``
    is ``tree`` or ``forest`` (plus ``-with-loops`` if any) when the
    loopless core is acyclic, ``m0 = n - components``, else ``non-tree``."""

    classes: tuple[SpectrumClass, ...]
    mu_spectrum: tuple[float, ...]
    psi_u_spectrum: tuple[complex, ...]
    tree_case: str
    oracle: OracleComparison | None = None
    eigenvectors: tuple[LiftedVector, ...] | None = None

    def to_dict(self, tables=None) -> dict:
        """The JSON form; ``tables`` are the eigenvector tables, as for
        :func:`vector_payload`."""
        data = {
            "tree_case": self.tree_case,
            "mu_spectrum": list(self.mu_spectrum),
            "classes": [c.to_dict() for c in self.classes],
            "psi_u_spectrum": [[z.real, z.imag] for z in self.psi_u_spectrum],
        }
        if self.oracle is not None:
            data["oracle"] = self.oracle.to_dict()
        if self.eigenvectors is not None:
            data["eigenvectors"] = vector_payload(self.eigenvectors, tables)
        return data


def match_multisets(left, right, tol: float = SPECTRUM_TOL):
    """Greedy globally-minimal pairing of two complex multisets.

    Returns ``(max_distance, matched)`` where ``matched`` requires equal
    sizes and every pair within ``tol``.  Pairs are taken closest first,
    ties broken by left then right index, skipping any whose left or
    right value is already paired: the order of one stable sort of the
    N x N distance matrix, robust against near-ties that break
    sort-based pairing.  Only a prefix of that order is sorted, all
    distances up to the k-th smallest, with k doubling until the scan
    has paired every value.

    Equal left values have equal rows of distances, and the scan pairs
    their copies in index order, so each distinct left value is scanned
    once, as a group of copies: a right value goes to the group's first
    unpaired copy.  Only a run of equal distances is scanned copy by
    copy.
    """
    left = [complex(z) for z in left]
    right = np.array([complex(z) for z in right], dtype=complex)
    if len(left) != len(right):
        return float("inf"), False
    size = len(left)
    if not size:
        return 0.0, True
    copies: dict[complex, list[int]] = {}  # equal values; NaNs stay apart
    for index, value in enumerate(left):
        copies.setdefault(value, []).append(index)
    values = np.array(list(copies), dtype=complex)
    copies = list(copies.values())
    sizes = [len(rows) for rows in copies]
    counts = np.array(sizes)
    dist = np.abs(values[:, None] - right[None, :]).ravel()
    used_g = [0] * len(copies)  # paired copies of each group
    used_r = [False] * size
    max_distance = 0.0
    paired = 0
    low = -np.inf
    k = 16 * size
    while paired < size:
        if k < dist.size:
            high = np.partition(dist, k - 1)[k - 1]
            chunk = np.flatnonzero((dist > low) & (dist <= high))
        else:
            high = np.inf
            chunk = np.flatnonzero(~(dist <= low))  # the rest, NaN included
        # Group-major indices, less the pairs earlier chunks ruled out,
        # stably sorted: the next stretch of the order.
        groups, cols = np.divmod(chunk, size)
        chunk = chunk[~np.array(used_r)[cols]
                      & (np.array(used_g)[groups] < counts[groups])]
        chunk = chunk[np.argsort(dist[chunk], kind="stable")]
        near = dist[chunk]
        groups, cols = np.divmod(chunk, size)
        # Positions whose distance the next one repeats.  (NaN distances,
        # last in the order, pair what is left and leave the maximum.)
        tied = set(np.flatnonzero(near[1:] == near[:-1]).tolist())
        groups, cols, near = groups.tolist(), cols.tolist(), near.tolist()
        at, end = 0, len(near)
        while at < end and paired < size:
            if at not in tied:
                g, c = groups[at], cols[at]
                if not used_r[c] and used_g[g] < sizes[g]:
                    used_r[c] = True
                    used_g[g] += 1
                    max_distance = max(max_distance, near[at])
                    paired += 1
                at += 1
                continue
            # A run of one distance: the scan takes its copies in index
            # order, each pairing with its first free right value.
            stop = at + 1
            while stop in tied:
                stop += 1
            block: dict[int, list[int]] = {}
            for g, c in zip(groups[at:stop + 1], cols[at:stop + 1]):
                block.setdefault(g, []).append(c)
            for _, g in sorted(
                (row, g) for g, cs in block.items()
                for row in copies[g][used_g[g]:used_g[g] + len(cs)]
            ):
                c = next((c for c in block[g] if not used_r[c]), None)
                if c is not None:
                    used_r[c] = True
                    used_g[g] += 1
                    max_distance = max(max_distance, near[at])
                    paired += 1
            at = stop + 1
        low = high
        k *= 2
    return max_distance, max_distance <= tol


def _spectrum_classes(mapped, extra) -> tuple[SpectrumClass, ...]:
    """Conjugacy classes of the theorem path in one pass.

    ``mapped`` holds the upper walk values of ascending base eigenvalues,
    so they run along the upper unit semicircle from -1 to +1: each joins
    the newest class when it lies within that class's radius
    ``CLASS_TOL * max(1, |anchor|)`` of its first member (the anchor), or
    starts a new class.  ``extra`` maps +1 and -1 to the signed psi counts
    of the Bass prefactor; a positive count joins the first class within
    radius of its target, or starts one.
    """
    entries: list[list] = []  # [anchor, psi count, sources]

    def within(rep: complex, anchor: complex) -> bool:
        return abs(anchor - rep) <= CLASS_TOL * max(1.0, abs(anchor))

    for lam in mapped:
        if entries and within(lam, entries[-1][0]):
            entries[-1][1] += 2
        else:
            entries.append([lam, 2, {"mapped"}])
    for target, count in extra.items():
        if count <= 0:
            continue
        rep, source = complex(target), f"trivial{target:+g}"
        entry = next((e for e in entries if within(rep, e[0])), None)
        if entry is None:
            entries.append([rep, count, {source}])
        else:
            entry[1] += count
            entry[2].add(source)

    out = []
    for rep, count, sources in entries:
        if count % 2:
            raise NumericalError(
                f"class at {rep:.6g} received an odd psi count {count}"
            )
        # Snap components drowned by rounding; 1e-12 sits far below
        # the CLASS_TOL merge window, so this only cleans zeros.
        snap = 1e-12 * max(1.0, abs(rep))
        rep = complex(
            0.0 if abs(rep.real) <= snap else rep.real,
            0.0 if abs(rep.imag) <= snap else rep.imag,
        )
        out.append(SpectrumClass(rep, count // 2, tuple(sorted(sources))))
    out.sort(key=lambda c: (c.rep.real, c.rep.imag))
    return tuple(out)


def full_spectrum(
    graph: Graph,
    weights,
    *,
    want_oracle: bool = False,
    want_eigenvectors: bool = False,
    tol: float = SPECTRUM_TOL,
) -> SpectrumReport:
    """Right spectrum of the walk via the spectral mapping theorem.

    Requires the unitarity condition; the graph may be disconnected,
    as the signed counts at +-1 add over its components.  With
    ``want_oracle`` the theorem-path multiset is matched against direct
    diagonalization of ``psi(U)``; with ``want_eigenvectors`` the
    eigenvectors of :func:`walk_eigenvectors` (lifted for the non-real
    classes, from the birth/inherited split at +-1) are attached.
    """
    check_unitary_condition(graph, weights).require()
    return _walk_spectrum(
        build_walk(graph, weights),
        want_oracle=want_oracle,
        want_eigenvectors=want_eigenvectors,
        tol=tol,
    )


def direct_spectrum(graph: Graph, weights) -> tuple[SpectrumClass, ...]:
    """Right spectrum of the walk by diagonalizing ``psi(U)`` of the dense
    U, for any weights: the classes of :func:`qmatrix.right_eigenvalues`,
    each with the source ``"direct"``."""
    return tuple(SpectrumClass(cls.rep, mult, ("direct",)) for cls, mult
                 in right_eigenvalues(build_walk(graph, weights).U))


def _walk_spectrum(
    ops: WalkOperators,
    *,
    want_oracle: bool = False,
    want_eigenvectors: bool = False,
    tol: float = SPECTRUM_TOL,
) -> SpectrumReport:
    """:func:`full_spectrum` of a walk whose weights are unitary."""
    graph = ops.graph
    n, m0, m1, components = graph.n, graph.m0, graph.m1, graph.components()
    mus = ops.mu_spectrum
    mapped = [spectral_map(mu)[0] for mu in mus]

    # The Bass prefactor as signed psi counts at +1 and -1.  A negative
    # count (tree components only) cancels mapped values, which sit exactly
    # at +-1 because base eigenvalues within MU_SNAP_TOL of +-2 are snapped.
    extra = {1.0: 2 * m0 - 2 * n, -1.0: 2 * m0 + 2 * m1 - 2 * n}
    for target, count in extra.items():
        for _ in range(max(-count, 0) // 2):
            if complex(target) not in mapped:
                raise NumericalError(
                    "tree-case spectrum lacks the required eigenvalue "
                    f"{target:+g}"
                )
            mapped.remove(complex(target))

    theorem_values: list[complex] = []
    for lam in mapped:
        # A real value goes in twice as itself: conjugating it would
        # write -0.0 into the report.
        theorem_values += (lam, lam.conjugate() if lam.imag else lam)
    for target, count in extra.items():
        theorem_values += [complex(target)] * max(count, 0)
    classes = _spectrum_classes(mapped, extra)

    if len(theorem_values) != 2 * graph.m_prime:
        raise NumericalError(
            f"theorem path produced {len(theorem_values)} eigenvalues, "
            f"expected {2 * graph.m_prime}"
        )

    oracle = None
    if want_oracle:
        direct = [
            complex(z) for z in np.linalg.eigvals(_psi_u(graph, ops.q))
        ]
        max_distance, matched = match_multisets(theorem_values, direct, tol)
        oracle = OracleComparison(
            max_distance=max_distance,
            matched=matched,
            direct_spectrum=tuple(sorted(direct, key=lambda z: (z.real, z.imag))),
        )

    eigenvectors = None
    if want_eigenvectors:
        eigenvectors = tuple(walk_eigenvectors(
            ops, [mu for mu, _count in group_mus(mus)], (1.0, -1.0)
        ))

    return SpectrumReport(
        classes=classes,
        mu_spectrum=mus,
        psi_u_spectrum=tuple(
            sorted(theorem_values, key=lambda z: (z.real, z.imag))
        ),
        tree_case=(
            "non-tree" if m0 != n - components
            else ("tree" if components == 1 else "forest")
            + ("-with-loops" if m1 else "")
        ),
        oracle=oracle,
        eigenvectors=eigenvectors,
    )


def group_mus(mus) -> list[tuple[float, int]]:
    """Cluster sorted base eigenvalues into (cluster mean, psi count) pairs.

    A value joins the current cluster when it lies within
    ``SPECTRUM_TOL * max(1, |mu|)`` of the cluster's first member and its
    walk value ``mu/2 + i sqrt(1 - (mu/2)^2)`` within ``SPECTRUM_TOL`` of
    that member's.
    Near +-2 the square root stretches base gaps, so the walk test splits
    values whose classes the theorem path tells apart.  On a snapped
    spectrum within ``[-2 - MU_SNAP_TOL, 2 + MU_SNAP_TOL]`` a cluster at
    +-2 therefore holds only snapped values, and its mean is exactly
    +-2.0.  A value further beyond +-2 (accepted up to ``MU_CLAMP_TOL``)
    has the clamped walk value +-1 and can join that cluster: the open
    overshoot defect of ROADMAP item 1.
    """
    groups: list[list[float]] = []
    for mu in mus:
        if (
            groups
            and abs(mu - groups[-1][0]) <= SPECTRUM_TOL * max(1.0, abs(mu))
            and abs(_walk_value(mu) - _walk_value(groups[-1][0]))
            <= SPECTRUM_TOL
        ):
            groups[-1].append(mu)
        else:
            groups.append([mu])
    return [(sum(g) / len(g), len(g)) for g in groups]


def nearest_mu(distinct, requested: float) -> float | None:
    """The cluster mean of ``distinct`` (:func:`group_mus` pairs) nearest
    ``requested``, the lower one on a tie, or None when it lies further
    than ``MU_MATCH_TOL * max(1, |requested|)`` from ``requested``."""
    nearest = min(distinct, key=lambda item: abs(item[0] - requested))[0]
    if abs(nearest - requested) > MU_MATCH_TOL * max(1.0, abs(requested)):
        return None
    return nearest


def walk_eigenvectors(ops: WalkOperators, mus, boundary) -> list[LiftedVector]:
    """Walk eigenvectors lifted from base eigenvalues or built at +-1.

    Each ``mu`` in ``mus`` names one cluster of :func:`group_mus` over
    ``ops.mu_spectrum``; the cluster's columns of ``ops.w_eigh`` (the
    same index range, as both solvers sort ascending), halved into a
    right H-basis, are lifted together with their companions ``v j`` to
    ``lam = mu/2 + i sqrt(1 - (mu/2)^2)``.  A snapped cluster, whose
    mean is exactly +-2.0, maps to +-1, where the lift degenerates: it is
    not lifted, and its +-1 joins the targets in ``boundary``.  Each
    boundary target (+1 or -1) then gets a unit-norm basis of its
    eigenspace from the birth/inherited split of :func:`_pm1_eigenspace`
    (origin label ``"direct"``); a target that is not an eigenvalue of
    the walk yields no vectors.
    """
    vecs = ops.w_eigh[1]
    clusters = group_mus(ops.mu_spectrum)
    ends = np.cumsum([count for _mean, count in clusters])
    vectors: list[LiftedVector] = []
    boundary = list(boundary)
    for mu in mus:
        if abs(mu) == 2.0:
            if mu / 2 not in boundary:
                boundary.append(mu / 2)
            continue
        # _lift rejects the cluster's vectors if mu is not its mean.
        k = int(np.argmin([abs(mean - mu) for mean, _count in clusters]))
        basis = _h_basis(vecs[:, ends[k] - clusters[k][1]:ends[k]])
        lam_p, _ = spectral_map(mu)
        for v in (basis.column(c) for c in range(basis.cols)):
            for base, origin in (
                (v, "lift"),
                (v.right_scalar(Quaternion(0, 0, 1, 0)), "lift-companion"),
            ):
                lifted, residual = _lift(ops, base, lam_p)
                vectors.append(
                    LiftedVector(lam_p, mu, lifted, residual, origin, base)
                )
    for target in boundary:
        lam = float(target)
        basis = QMatrix.hstack(_pm1_eigenspace(ops, lam))
        norms = _column_norms(basis)
        basis.a /= norms
        basis.b /= norms
        residuals = _column_norms(_apply_walk(ops, basis) - basis.scale(lam))
        for c, residual in enumerate(residuals.tolist()):
            vectors.append(LiftedVector(
                complex(lam), None, basis.column(c), residual, "direct"
            ))
    return vectors


def lift_groups(ops: WalkOperators, mus, boundary) -> list[LiftGroup]:
    """:func:`walk_eigenvectors` grouped by ``(mu, lam)``, in order, with
    one H-linear independence verdict per lifted group."""
    groups = []
    for (mu, lam), group in itertools.groupby(
        walk_eigenvectors(ops, mus, boundary),
        key=lambda item: (item.mu, item.lam),
    ):
        group = tuple(group)
        independent = None if mu is None else h_linear_independent(
            [item.vector for item in group]
        )
        groups.append(LiftGroup(mu, lam, group, independent))
    return groups


def _pm1_eigenspace(ops: WalkOperators, lam: float):
    """Birth and inherited bases of the walk's eigenspace at ``lam = +-1``.

    Returns two ``m' x k`` QMatrix blocks whose columns are right
    eigenvectors for ``lam``, H-independent and together spanning the
    eigenspace.  From ``U = K L* - J0``:

    * *birth* vectors satisfy ``L* x = 0`` and ``J0 x = -lam x``: they
      are ``B c`` for the right H-kernel of the n x d matrix ``P = L* B``
      of :func:`_birth_matrix`, from the pivoted solve of
      :func:`_birth_kernel`, never from the walk; they are orthonormal;
    * *inherited* vectors are ``L v`` for the eigenvectors ``v`` of W at
      ``mu = 2 lam`` (``J0 L = K`` and ``K v = lam L v`` there): the
      columns of ``ops.w_eigh`` where ``ops.mu_spectrum`` is snapped to
      exactly ``2 lam``, so the count is the theorem path's.

    ``L* B c = 0`` while ``L* L v = 2 v``, so the parts are orthogonal.
    """
    graph = ops.graph
    p, (first, edge, second) = _birth_matrix(ops, lam)
    # |B c| weighs an edge's coefficient by sqrt(2), a loop's by 1.
    kernel = _birth_kernel(p, np.where(edge, _SQRT2, 1.0))
    birth = QMatrix.zeros(graph.m_prime, kernel.cols)
    for part, c in ((birth.a, kernel.a), (birth.b, kernel.b)):
        part[first] = c
        part[second] = -lam * c[edge]
    base = QMatrix.zeros(graph.n, 0)
    snapped = np.array(ops.mu_spectrum) == 2.0 * lam
    if snapped.any():
        base = _h_basis(ops.w_eigh[1][:, snapped])
    return birth, ops.L @ base


def _birth_matrix(ops: WalkOperators, lam: float):
    """``P = L* B`` for the basis ``B`` of ``J0 x = -lam x``, and B's layout.

    Column ``c`` of ``B`` is ``e_first[c] - lam e_inv(first[c])`` for an
    edge (``edge[c]``, partner arc in ``second``) and ``e_first[c]`` for a
    loop, which only -1 admits; ``P`` is gathered from the columns of
    ``L*`` at those arcs.
    """
    inv = ops.graph.inverse
    arcs = np.arange(ops.graph.m_prime)
    first = np.flatnonzero(arcs < inv if lam > 0 else arcs <= inv)
    edge = inv[first] != first
    second = inv[first][edge]
    lh = ops.LH
    p = QMatrix._adopt(lh.a[:, first], lh.b[:, first])
    p.a[:, edge] -= lam * lh.a[:, second]
    p.b[:, edge] -= lam * lh.b[:, second]
    return p, (first, edge, second)


def _birth_kernel(p: QMatrix, scale: np.ndarray) -> QMatrix:
    """Right H-kernel of the n x d matrix ``p``, with columns orthonormal
    in the norm ``|scale * c|``.

    The H-rank r is :func:`h_rank`'s, the count
    :func:`check_pm1_eigenspaces` reports.  r pivot columns are picked
    greedily, each the column of largest norm once the planes of the
    earlier picks (a pick and its ``J conj`` companion) are projected out
    of every column: at most r <= n steps.  Each of the d - r free
    columns f gives the kernel vector ``e_f - P_piv^+ P_f``, all from one
    least-squares solve in psi coordinates; one QR of these vectors
    interleaved with their companions orthonormalises them, its even
    columns being the quaternionic basis.
    """
    d, r = p.cols, h_rank(p)
    cols = np.vstack([p.a, p.b])  # column c of P is (a_c; b_c) under psi
    work = cols.copy()
    pivots = []
    for _ in range(r):
        norms = np.linalg.norm(work, axis=0)
        pick = int(np.argmax(norms))
        u = work[:, pick] / norms[pick]
        uj = _j_conj(u)
        work -= np.outer(u, u.conj() @ work) + np.outer(uj, uj.conj() @ work)
        pivots.append(pick)
    pivots = np.array(pivots, dtype=int)
    free = np.ones(d, dtype=bool)
    free[pivots] = False
    piv = psi(QMatrix._adopt(p.a[:, pivots], p.b[:, pivots]))
    solved = np.linalg.lstsq(piv, cols[:, free], rcond=None)[0]
    rows = np.concatenate([pivots, d + pivots])
    weight = np.concatenate([scale, scale])[:, None]
    kernel = np.zeros((2 * d, 2 * (d - r)), dtype=complex)
    kernel[np.flatnonzero(free), np.arange(0, 2 * (d - r), 2)] = 1.0
    kernel[rows, ::2] = -solved
    kernel[:, ::2] *= weight
    kernel[:, 1::2] = _j_conj(kernel[:, ::2])
    q = np.linalg.qr(kernel)[0][:, ::2] / weight
    return QMatrix._adopt(q[:d], q[d:])


class EigenspaceCount(NamedTuple):
    """The walk's eigenspace at +1 or -1 counted two ways.

    ``birth`` is the nullity of the birth matrix ``P`` and ``inherited``
    the dimension of W's eigenspace at ``mu = 2 lam``: the sizes of the
    two parts :func:`_pm1_eigenspace` builds.  ``multiplicity`` is the
    theorem path's class multiplicity.
    """

    lam: float
    birth: int
    inherited: int
    multiplicity: int

    @property
    def ok(self) -> bool:
        return self.birth + self.inherited == self.multiplicity

    def to_dict(self) -> dict:
        return {
            "lambda": self.lam,
            "birth": self.birth,
            "inherited": self.inherited,
            "multiplicity": self.multiplicity,
            "ok": self.ok,
        }


def check_pm1_eigenspaces(ops: WalkOperators) -> tuple[EigenspaceCount, ...]:
    """The rank identity at +-1 for a walk ``ops``.

    Counts the birth kernel and inherited dimensions against the class
    multiplicity that the theorem path (Bass-prefactor count plus
    mapped values, as :func:`full_spectrum` reports it) gives at each of
    +1 and -1, for unitary weights.  Only ranks are taken, no eigenvectors.
    """
    spectrum = _walk_spectrum(ops)
    out = []
    for lam in (1.0, -1.0):
        p = _birth_matrix(ops, lam)[0]
        # The psi multiplicity of the snapped base eigenvalue 2 lam is
        # twice the H-dimension of W's eigenspace there.
        inherited = ops.mu_spectrum.count(2.0 * lam) // 2
        multiplicity = sum(
            c.multiplicity for c in spectrum.classes if c.rep == lam
        )
        out.append(EigenspaceCount(
            lam, p.cols - h_rank(p), inherited, multiplicity
        ))
    return tuple(out)


def _column_norms(m: QMatrix) -> np.ndarray:
    return np.sqrt(np.sum(np.abs(m.a) ** 2 + np.abs(m.b) ** 2, axis=0))


def _apply_walk(ops: WalkOperators, x: QMatrix) -> QMatrix:
    """``U x`` without U, as ``K (L* x) - J0 x``: O(m' n) per column."""
    return ops.K @ (ops.LH @ x) - x.take_rows(ops.graph.inverse)


def _walk_residual(ops: WalkOperators, vec: QMatrix, lam: complex) -> float:
    return (_apply_walk(ops, vec) - vec.right_scalar(lam)).fro_norm()


def lift_eigenvector(ops: WalkOperators, v: QMatrix, lam: complex) -> QMatrix:
    """Lift a doubly-weighted-matrix eigenvector to the walk.

    ``v`` must satisfy ``W v = v mu`` for ``mu = lam + 1/lam`` (checked;
    ``mu`` must come out real since W is Hermitian).  The lift is

        e = J0 L v - L v (1/lam),

    right-complex-linear in ``v``, and satisfies ``U e = e lam``.  Both
    residuals, ``W v - v mu`` and ``U e - e lam``, must lie within
    ``SPECTRUM_TOL`` relative to the vector's norm.  At ``lam = +-1`` the
    two branches coincide and the lift degenerates; a vanishing result
    raises DegenerateLiftError.
    """
    return _lift(ops, v, lam)[0]


def _lift(ops: WalkOperators, v, lam) -> tuple[QMatrix, float]:
    """:func:`lift_eigenvector` plus the absolute walk residual it checked."""
    if not isinstance(v, QMatrix):
        v = qvec(v)
    if v.cols != 1 or v.rows != ops.graph.n:
        raise ValidationError(
            f"expected a {ops.graph.n} x 1 vector, got {v.shape}"
        )
    lam = complex(lam)
    if lam == 0:
        raise ValidationError("cannot lift at lambda = 0")
    mu = lam + 1.0 / lam
    if abs(mu.imag) > 1e-8 * max(1.0, abs(mu)):
        raise ValidationError(
            f"lambda + 1/lambda = {mu:.6g} is not real; no Hermitian base "
            "eigenvalue corresponds to this lambda"
        )
    vnorm = v.fro_norm()
    if vnorm == 0.0:
        raise ValidationError("cannot lift the zero vector")
    base_residual = (ops.W @ v - v.right_scalar(mu.real)).fro_norm()
    if base_residual > SPECTRUM_TOL * vnorm:
        raise ValidationError(
            f"input is not an eigenvector of the doubly weighted matrix: "
            f"residual {base_residual:.3g} exceeds {SPECTRUM_TOL * vnorm:.3g}"
        )
    lv = ops.L @ v
    lifted = lv.take_rows(ops.graph.inverse) - lv.right_scalar(1.0 / lam)
    if lifted.fro_norm() <= 1e-10 * max(lv.fro_norm(), vnorm):
        raise DegenerateLiftError(
            f"lift at lambda = {lam:.6g} collapsed to zero; the classes of "
            "+1 and -1 need direct eigenvector extraction instead"
        )
    residual = _walk_residual(ops, lifted, lam)
    if residual > SPECTRUM_TOL * lifted.fro_norm():
        raise NumericalError(
            f"lifted vector residual {residual:.3g} exceeds "
            f"{SPECTRUM_TOL * lifted.fro_norm():.3g}"
        )
    return lifted, residual


class StructureCheck(NamedTuple):
    name: str
    residual: float
    tol: float
    ok: bool

    def to_dict(self) -> dict:
        return self._asdict()


class StructureReport(NamedTuple):
    """Residuals of the structural identities tying K, L and W together."""

    checks: tuple[StructureCheck, ...]
    passed: bool

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "checks": [c.to_dict() for c in self.checks],
        }


def verify_structure(ops: WalkOperators) -> StructureReport:
    """Machine-check the incidence identity ``L* J0 L = W``.

    The one row compares ``(J0 L)* L`` with the W that ``build_walk``
    forms from L's parts in place, at ``STRUCTURE_TOL``, and fails when
    that construction moves an entry.  Unitarity is the vertex
    condition's to read (:func:`check_unitary_condition`): ``K* K - 2I``
    is ``2 diag(s_v - 1)`` for the vertex sums ``s_v`` and ``U* U - I``
    is ``L (K* K - 2I) L*``, so rows for them would restate it at other
    tolerances.
    """
    residual = (ops.K.H @ ops.L - ops.W).max_entry_norm()
    check = StructureCheck("L* J0 L = W", residual, STRUCTURE_TOL,
                           residual <= STRUCTURE_TOL)
    return StructureReport(checks=(check,), passed=check.ok)


def random_instance(graph: Graph, seed: int) -> np.ndarray:
    """Random quaternionic weights satisfying the unitarity condition, as
    the read-only ``(m', 4)`` array.

    Vertex by vertex, each outgoing arc in canonical order gets four
    standard normal components (resampled while the magnitude is below
    1e-6), then the group is rescaled so the squared norms sum to one.
    Deterministic in ``seed`` via a dedicated generator.
    """
    rng = np.random.default_rng(seed)
    outdeg = _out_degrees(graph)
    by_origin = np.argsort(graph.origin, kind="stable")
    q = np.empty((graph.m_prime, 4))
    for arcs in np.split(by_origin, np.cumsum(outdeg)[:-1]):
        samples = []
        for _ in arcs:
            comps = rng.standard_normal(4)
            while float(comps @ comps) < 1e-12:
                comps = rng.standard_normal(4)
            samples.append(comps)
        total = sum(float(c @ c) for c in samples)
        q[arcs] = np.array(samples) * (1.0 / math.sqrt(total))
    q.flags.writeable = False
    return q
