"""Quaternionic Szegedy walks: transition matrix, spectrum, lifting.

The walk on a graph with arc weights ``q`` has transition matrix

    U[e, f] = 2 q(e) q(f^-1)*        if t(f) = o(e) and f != e^-1,
              2 |q(e)|^2 - 1         if f = e^-1,
              0                      otherwise,

which is unitary exactly when the squared weight norms leaving each
vertex sum to 1.  With the incidence-type matrices ``K`` (origin) and
``L`` (terminus) built from ``a(e) = sqrt(2) q(e)`` and
``b(e) = sqrt(2) q(e^-1)``, the same matrix is ``U = K L* - J0`` and
``U = J0 (L L* - I)``; both alternative constructions are evaluated and
cross-checked entrywise whenever a walk is built.

The right spectrum comes from the doubly weighted matrix
``W = L* K`` through the spectral mapping: every eigenvalue ``mu`` of
``psi(W)`` (real, in ``[-2, 2]``) maps to the pair
``lam = mu/2 +- i sqrt(1 - (mu/2)^2)``, 4n mapped values in all.  The
prefactor ``(1 - t^2)^(2 m0 - 2n) (1 + t)^(2 m1)`` of the quaternionic
Bass identity fixes the rest as signed multiplicities: ``2 m0 - 2n``
more copies of +1 and ``2 m0 + 2 m1 - 2n`` more copies of -1.  Only a
tree core (``m0 = n - 1``) makes a count negative; each missing pair
then cancels a mapped pair {+1, +1} or {-1, -1}.

Eigenvectors for non-real classes lift from eigenvectors ``v`` of the
doubly weighted matrix via ``e = J0 L v - L v (1/lam)``; eigenvectors
for the classes of +-1 are extracted directly from ``psi(U)``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateLiftError, NumericalError, ValidationError
from .graph import Graph
from .qmatrix import (
    QMatrix,
    psi,
    qvec,
    right_eigenbasis,
)
from .quaternion import CLASS_TOL, Quaternion, as_quaternion

__all__ = [
    "LiftedVector",
    "OracleComparison",
    "SpectrumClass",
    "SpectrumReport",
    "StructureCheck",
    "StructureReport",
    "UnitarityReport",
    "VertexUnitarity",
    "WalkOperators",
    "WeightMap",
    "build_kl",
    "build_walk",
    "check_unitary_condition",
    "full_spectrum",
    "group_mus",
    "lift_eigenvector",
    "match_multisets",
    "random_instance",
    "spectral_map",
    "verify_structure",
    "walk_eigenvectors",
]

#: Per-vertex unitarity condition tolerance.
UNITARITY_TOL = 1e-10
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

_SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class WeightMap:
    """Arc weights ``q``: a mapping ``(origin, terminus) -> Quaternion``."""

    values: dict

    @classmethod
    def from_dict(cls, mapping) -> "WeightMap":
        values = {}
        for key, raw in mapping.items():
            u, v = key
            values[(int(u), int(v))] = as_quaternion(raw)
        return cls(values)

    @classmethod
    def uniform(cls, graph: Graph) -> "WeightMap":
        """Classical choice ``q(e) = 1/sqrt(outdeg(o(e)))``."""
        values = {}
        for u in range(graph.n):
            arcs = graph.out_arcs(u)
            if not arcs:
                raise ValidationError(f"vertex {u} has no outgoing arcs")
            w = 1.0 / math.sqrt(len(arcs))
            for arc in arcs:
                values[arc.key] = Quaternion(w)
        return cls(values)

    def get(self, origin: int, terminus: int) -> Quaternion:
        try:
            return self.values[(origin, terminus)]
        except KeyError:
            raise ValidationError(
                f"no weight for arc ({origin},{terminus})"
            ) from None

    def aligned(self, graph: Graph) -> list[Quaternion]:
        """Weights in canonical arc order; demands an exact key match."""
        keys = {arc.key for arc in graph.arcs}
        given = set(self.values)
        missing = sorted(keys - given)
        extra = sorted(given - keys)
        if missing:
            raise ValidationError(f"missing weights for arcs {missing}")
        if extra:
            raise ValidationError(f"weights given for non-arcs {extra}")
        return [self.values[arc.key] for arc in graph.arcs]


def _aligned_nonzero(graph: Graph, weights: WeightMap) -> list[Quaternion]:
    q = weights.aligned(graph)
    for arc, value in zip(graph.arcs, q):
        if value.norm_sq() == 0.0:
            raise ValidationError(
                f"weight on arc ({arc.origin},{arc.terminus}) is zero"
            )
    return q


@dataclass(frozen=True)
class VertexUnitarity:
    vertex: int
    total: float
    deviation: float
    ok: bool

    def to_dict(self) -> dict:
        return {
            "vertex": self.vertex,
            "total": self.total,
            "deviation": self.deviation,
            "ok": self.ok,
        }


@dataclass(frozen=True)
class UnitarityReport:
    """Per-vertex sums of squared weight norms against the target 1."""

    vertices: tuple[VertexUnitarity, ...]
    tol: float
    passed: bool
    max_deviation: float

    def failing_vertices(self) -> list[int]:
        return [v.vertex for v in self.vertices if not v.ok]

    def to_dict(self) -> dict:
        return {
            "tol": self.tol,
            "passed": self.passed,
            "max_deviation": self.max_deviation,
            "vertices": [v.to_dict() for v in self.vertices],
        }


def check_unitary_condition(
    graph: Graph, weights: WeightMap, tol: float = UNITARITY_TOL
) -> UnitarityReport:
    """Check ``sum |q(e)|^2 = 1`` over the arcs leaving each vertex."""
    q = _aligned_nonzero(graph, weights)
    rows = []
    worst = 0.0
    for u in range(graph.n):
        total = sum(q[arc.index].norm_sq() for arc in graph.out_arcs(u))
        deviation = abs(total - 1.0)
        worst = max(worst, deviation)
        rows.append(VertexUnitarity(u, total, deviation, deviation <= tol))
    return UnitarityReport(
        vertices=tuple(rows),
        tol=tol,
        passed=all(r.ok for r in rows),
        max_deviation=worst,
    )


def build_kl(graph: Graph, a, b) -> tuple[QMatrix, QMatrix]:
    """Incidence-type weight matrices from arc maps ``a`` and ``b``.

    ``K[e, o(e)] = a(e)`` and ``L[e, t(e)] = b(e)``; all other entries
    vanish.  Inputs are sequences aligned with the canonical arc order,
    or ``m' x 1`` QMatrix columns.
    """
    rows = np.arange(graph.m_prime)
    out = []
    for values, columns in ((a, graph.origin), (b, graph.terminus)):
        if not isinstance(values, QMatrix):
            values = qvec(values)
        mat = QMatrix.zeros(graph.m_prime, graph.n)
        mat.a[rows, columns] = values.a[:, 0]
        mat.b[rows, columns] = values.b[:, 0]
        out.append(mat)
    return tuple(out)


@dataclass(frozen=True)
class WalkOperators:
    """All matrices attached to one walk instance.

    Attributes
    ----------
    U : QMatrix
        Transition matrix on arcs.
    K, L : QMatrix
        Origin/terminus incidence weight matrices with rows indexed by
        arcs and columns by vertices.
    W : QMatrix
        Doubly weighted matrix ``L* K``; Hermitian by construction.
    D : QMatrix
        Weighted-degree diagonal ``L* J0 K``; equals ``2 I`` under the
        unitarity condition.
    """

    graph: Graph
    q: tuple[Quaternion, ...]
    U: QMatrix
    K: QMatrix
    L: QMatrix
    W: QMatrix
    D: QMatrix


def build_walk(graph: Graph, weights: WeightMap) -> WalkOperators:
    """Construct the walk matrices, cross-checking three U constructions.

    The direct entrywise formula, the factorization ``K L* - J0``, and
    the shift-times-coin product ``J0 (L L* - I)`` must agree entrywise
    to ``1e-14``; disagreement indicates a broken invariant, not bad
    input, and raises NumericalError.  Unitarity of the weights is NOT
    required here: non-unitary instances still define all matrices.
    """
    q = _aligned_nonzero(graph, weights)
    rows, inv = np.arange(graph.m_prime), graph.inverse
    qcol = qvec(q)
    qinv = qcol.take_rows(inv)
    K, L = build_kl(graph, qcol.scale(_SQRT2), qinv.scale(_SQRT2))

    # Direct entrywise construction: 2 q(e) q(f^-1)* where t(f) = o(e),
    # overwritten by 2 |q(e)|^2 - 1 at f = e^-1.
    U = qcol.scale(2.0) @ qinv.H
    off = graph.origin[:, None] != graph.terminus[None, :]
    U.a[off] = 0.0
    U.b[off] = 0.0
    s, p = qcol.a[:, 0], qcol.b[:, 0]
    norm_sq = s.real**2 + s.imag**2 + p.real**2 + p.imag**2
    U.a[rows, inv] = 2.0 * norm_sq - 1.0
    U.b[rows, inv] = 0.0

    U_kl = K @ L.H
    U_kl.a[rows, inv] -= 1.0
    _cross_check(U, U_kl, "K L* - J0")
    del U_kl
    # Coin: C[e, f] = 2 q(e^-1) q(f^-1)* - delta when t(e) = t(f); the
    # shift J0 then permutes its rows.
    coin = qinv.scale(2.0) @ qinv.H
    off = graph.terminus[:, None] != graph.terminus[None, :]
    coin.a[off] = 0.0
    coin.b[off] = 0.0
    coin.a[rows, rows] -= 1.0
    coin = coin.take_rows(inv)
    _cross_check(U, coin, "J0 (L L* - I)")
    del coin

    W = L.H @ K
    herm_gap = (W.H - W).max_entry_norm()
    if herm_gap > 1e-13 * max(1.0, W.max_entry_norm()):
        raise NumericalError(
            f"doubly weighted matrix lost Hermitian symmetry by {herm_gap:.3g}"
        )
    D = L.take_rows(inv).H @ K
    return WalkOperators(
        graph=graph,
        q=tuple(q),
        U=U,
        K=K,
        L=L,
        W=W,
        D=D,
    )


def _cross_check(U: QMatrix, other: QMatrix, label: str) -> None:
    """Entrywise gap between two U constructions; overwrites ``other``."""
    other.a -= U.a
    other.b -= U.b
    gap = other.max_entry_norm()
    if gap > CROSS_CHECK_TOL:
        raise NumericalError(
            f"transition-matrix construction paths disagree: direct vs "
            f"{label} differ by {gap:.3g}"
        )


def spectral_map(mu: float, clamp_tol: float = MU_CLAMP_TOL):
    """Map a base eigenvalue ``mu`` to the walk eigenvalue pair.

    Returns ``(lam_plus, lam_minus)`` with
    ``lam = mu/2 +- i sqrt(1 - (mu/2)^2)``; the pair is conjugate and of
    unit modulus.  ``mu`` must be real in ``[-2, 2]``; values beyond by
    at most ``clamp_tol`` are clamped with a warning, anything further
    out raises, since it signals a non-unitary instance upstream.
    """
    mu = float(mu)
    excess = abs(mu) - 2.0
    if excess > clamp_tol:
        raise ValidationError(
            f"base eigenvalue {mu!r} lies outside [-2, 2]; the spectral map "
            "applies only to walks satisfying the unitarity condition"
        )
    if excess > 0.0:
        warnings.warn(
            f"clamping base eigenvalue {mu!r} to the interval [-2, 2]"
        )
        mu = 2.0 if mu > 0 else -2.0
    half = 0.5 * mu
    imag = math.sqrt(max(0.0, 1.0 - half * half))
    return complex(half, imag), complex(half, -imag)


def _base_spectrum(w: QMatrix) -> list[float]:
    """Real eigenvalues of psi(W), ascending, boundary values snapped."""
    out = []
    for value in np.linalg.eigvalsh(psi(w)).tolist():
        for boundary in (-2.0, 2.0):
            if abs(value - boundary) <= MU_SNAP_TOL:
                value = boundary
                break
        out.append(float(value))
    return out


@dataclass(frozen=True)
class SpectrumClass:
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


@dataclass(frozen=True)
class OracleComparison:
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


@dataclass(frozen=True)
class LiftedVector:
    """An eigenvector of the walk with its provenance and residual.

    ``residual`` is the absolute ``|U e - e lam|``; ``base`` is the
    eigenvector of W that a lift started from (None for "direct").
    """

    lam: complex
    mu: float | None
    vector: QMatrix
    residual: float
    origin: str  # "lift", "lift-companion", or "direct"
    base: QMatrix | None = field(default=None, repr=False, compare=False)

    @property
    def relative_residual(self) -> float:
        return self.residual / max(self.vector.fro_norm(), 1e-300)

    def to_dict(self) -> dict:
        return {
            "lambda": [self.lam.real, self.lam.imag],
            "mu": self.mu,
            "residual": self.residual,
            "origin": self.origin,
            "vector": self.vector.components()[:, 0].tolist(),
        }


@dataclass(frozen=True)
class SpectrumReport:
    """Full right spectrum of a walk, with optional extras."""

    classes: tuple[SpectrumClass, ...]
    mu_spectrum: tuple[float, ...]
    psi_u_spectrum: tuple[complex, ...]
    tree_case: str
    oracle: OracleComparison | None = None
    eigenvectors: tuple[LiftedVector, ...] | None = None

    def to_dict(self) -> dict:
        data = {
            "tree_case": self.tree_case,
            "mu_spectrum": list(self.mu_spectrum),
            "classes": [c.to_dict() for c in self.classes],
            "psi_u_spectrum": [[z.real, z.imag] for z in self.psi_u_spectrum],
        }
        if self.oracle is not None:
            data["oracle"] = self.oracle.to_dict()
        if self.eigenvectors is not None:
            data["eigenvectors"] = [v.to_dict() for v in self.eigenvectors]
        return data


def match_multisets(left, right, tol: float = SPECTRUM_TOL):
    """Greedy globally-minimal pairing of two complex multisets.

    Returns ``(max_distance, matched)`` where ``matched`` requires equal
    sizes and every pair within ``tol``.  Pairs are taken closest first,
    ties broken by left then right index, skipping any whose left or
    right value is already paired: one stable sort of the N x N distance
    matrix, robust against near-ties that break sort-based pairing.
    """
    left = np.array([complex(z) for z in left], dtype=complex)
    right = np.array([complex(z) for z in right], dtype=complex)
    if len(left) != len(right):
        return float("inf"), False
    size = len(left)
    if not size:
        return 0.0, True
    dist = np.abs(left[:, None] - right[None, :])
    order = np.argsort(dist, axis=None, kind="stable")
    rows, cols = np.divmod(order, size)
    used_l = [False] * size
    used_r = [False] * size
    max_distance = 0.0
    paired = 0
    for r, c in zip(rows.tolist(), cols.tolist()):
        if used_l[r] or used_r[c]:
            continue
        used_l[r] = used_r[c] = True
        max_distance = max(max_distance, float(dist[r, c]))
        paired += 1
        if paired == size:
            break
    return max_distance, max_distance <= tol


class _ClassLedger:
    """Accumulates (representative, psi-count, source) contributions."""

    def __init__(self):
        self.entries: list[list] = []  # [rep, psi_count, set(sources)]

    def add(self, rep: complex, psi_count: int, source: str):
        if psi_count <= 0:
            return
        rep = complex(rep.real, abs(rep.imag))
        for entry in self.entries:
            anchor = entry[0]
            scale = max(1.0, abs(anchor))
            if abs(anchor - rep) <= CLASS_TOL * scale:
                entry[1] += psi_count
                entry[2].add(source)
                return
        self.entries.append([rep, psi_count, {source}])

    def classes(self) -> tuple[SpectrumClass, ...]:
        out = []
        for rep, count, sources in self.entries:
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
            out.append(
                SpectrumClass(rep, count // 2, tuple(sorted(sources)))
            )
        out.sort(key=lambda c: (c.rep.real, c.rep.imag))
        return tuple(out)


def full_spectrum(
    graph: Graph,
    weights: WeightMap,
    *,
    want_oracle: bool = False,
    want_eigenvectors: bool = False,
    tol: float = SPECTRUM_TOL,
) -> SpectrumReport:
    """Right spectrum of the walk via the spectral mapping theorem.

    Requires the unitarity condition and a connected graph (the
    multiplicities at +-1 are counted for one component).  With
    ``want_oracle`` the theorem-path multiset is matched against direct
    diagonalization of ``psi(U)``; with ``want_eigenvectors`` lifted
    eigenvectors for the non-real classes and directly extracted ones
    for +-1 are attached.
    """
    unitarity = check_unitary_condition(graph, weights)
    if not unitarity.passed:
        raise ValidationError(
            "weights violate the unitarity condition at vertices "
            f"{unitarity.failing_vertices()}"
        )
    if not graph.is_connected():
        raise ValidationError(
            "spectral mapping bookkeeping requires a connected graph"
        )
    ops = build_walk(graph, weights)
    n, m0, m1 = graph.n, graph.m0, graph.m1
    mus = _base_spectrum(ops.W)
    mapped = [spectral_map(mu)[0] for mu in mus]

    # The Bass prefactor as signed psi counts at +1 and -1.  A negative
    # count (tree core only) cancels mapped values, which sit exactly at
    # +-1 because base eigenvalues within MU_SNAP_TOL of +-2 are snapped.
    extra = {1.0: 2 * m0 - 2 * n, -1.0: 2 * m0 + 2 * m1 - 2 * n}
    for target, count in extra.items():
        for _ in range(max(-count, 0) // 2):
            if complex(target) not in mapped:
                raise NumericalError(
                    "tree-case spectrum lacks the required eigenvalue "
                    f"{target:+g}"
                )
            mapped.remove(complex(target))

    ledger = _ClassLedger()
    theorem_values: list[complex] = []
    for lam in mapped:
        ledger.add(lam, 2, "mapped")
        # A real value goes in twice as itself: conjugating it would
        # write -0.0 into the report.
        theorem_values += (lam, lam.conjugate() if lam.imag else lam)
    for target, count in extra.items():
        ledger.add(complex(target), count, f"trivial{target:+g}")
        theorem_values += [complex(target)] * max(count, 0)
    classes = ledger.classes()

    if len(theorem_values) != 2 * graph.m_prime:
        raise NumericalError(
            f"theorem path produced {len(theorem_values)} eigenvalues, "
            f"expected {2 * graph.m_prime}"
        )

    oracle = None
    if want_oracle:
        direct = [complex(z) for z in np.linalg.eigvals(psi(ops.U))]
        max_distance, matched = match_multisets(theorem_values, direct, tol)
        oracle = OracleComparison(
            max_distance=max_distance,
            matched=matched,
            direct_spectrum=tuple(sorted(direct, key=lambda z: (z.real, z.imag))),
        )

    eigenvectors = None
    if want_eigenvectors:
        boundary = [
            target for target, count in extra.items()
            if count > 0 or complex(target) in mapped
        ]
        eigenvectors = tuple(walk_eigenvectors(
            ops, [mu for mu, _count in group_mus(mus)], boundary
        ))

    return SpectrumReport(
        classes=classes,
        mu_spectrum=tuple(mus),
        psi_u_spectrum=tuple(
            sorted(theorem_values, key=lambda z: (z.real, z.imag))
        ),
        tree_case=(
            "non-tree" if not graph.is_tree_core()
            else "tree-with-loops" if m1 else "tree"
        ),
        oracle=oracle,
        eigenvectors=eigenvectors,
    )


def group_mus(mus, tol: float = SPECTRUM_TOL) -> list[tuple[float, int]]:
    """Cluster sorted base eigenvalues into (cluster mean, psi count) pairs."""
    groups: list[list[float]] = []
    for mu in mus:
        if groups and abs(mu - groups[-1][0]) <= tol * max(1.0, abs(mu)):
            groups[-1].append(mu)
        else:
            groups.append([mu])
    return [(sum(g) / len(g), len(g)) for g in groups]


def walk_eigenvectors(ops: WalkOperators, mus, boundary) -> list[LiftedVector]:
    """Walk eigenvectors lifted from base eigenvalues or extracted at +-1.

    Every vector ``v`` of the right eigenbasis of W at each ``mu`` in
    ``mus`` is lifted together with its companion ``v j`` to
    ``lam = mu/2 + i sqrt(1 - (mu/2)^2)``; base eigenvalues within
    ``MU_SNAP_TOL`` of +-2 map to +-1, where the lift degenerates, and
    are skipped.  Each target in ``boundary`` (+1 or -1) then gets its
    eigenbasis extracted directly from ``psi(U)``; a target that is not
    an eigenvalue of the walk is skipped.
    """
    vectors: list[LiftedVector] = []
    for mu in mus:
        if abs(abs(mu) - 2.0) <= MU_SNAP_TOL:
            continue
        lam_p, _ = spectral_map(mu)
        for v in right_eigenbasis(ops.W, complex(mu)):
            for base, origin in (
                (v, "lift"),
                (v.right_scalar(Quaternion(0, 0, 1, 0)), "lift-companion"),
            ):
                lifted, residual = _lift(ops, base, lam_p)
                vectors.append(
                    LiftedVector(lam_p, mu, lifted, residual, origin, base)
                )
    for target in boundary:
        lam = complex(target)
        try:
            basis = right_eigenbasis(ops.U, lam)
        except ValidationError:
            continue
        for v in basis:
            residual = _walk_residual(ops, v, lam)
            vectors.append(LiftedVector(lam, None, v, residual, "direct"))
    return vectors


def _walk_residual(ops: WalkOperators, vec: QMatrix, lam: complex) -> float:
    return (ops.U @ vec - vec.right_scalar(lam)).fro_norm()


def lift_eigenvector(
    ops: WalkOperators,
    v: QMatrix,
    lam: complex,
    residual_tol: float = SPECTRUM_TOL,
) -> QMatrix:
    """Lift a doubly-weighted-matrix eigenvector to the walk.

    ``v`` must satisfy ``W v = v mu`` for ``mu = lam + 1/lam`` (checked;
    ``mu`` must come out real since W is Hermitian).  The lift is

        e = J0 L v - L v (1/lam),

    right-complex-linear in ``v``, and satisfies ``U e = e lam``.  At
    ``lam = +-1`` the two branches coincide and the lift degenerates;
    a vanishing result raises DegenerateLiftError.
    """
    return _lift(ops, v, lam, residual_tol)[0]


def _lift(
    ops: WalkOperators, v, lam, residual_tol: float = SPECTRUM_TOL
) -> tuple[QMatrix, float]:
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
    if base_residual > residual_tol * vnorm:
        raise ValidationError(
            f"input is not an eigenvector of the doubly weighted matrix: "
            f"residual {base_residual:.3g} exceeds {residual_tol * vnorm:.3g}"
        )
    lv = ops.L @ v
    lifted = lv.take_rows(ops.graph.inverse) - lv.right_scalar(1.0 / lam)
    if lifted.fro_norm() <= 1e-10 * max(lv.fro_norm(), vnorm):
        raise DegenerateLiftError(
            f"lift at lambda = {lam:.6g} collapsed to zero; the classes of "
            "+1 and -1 need direct eigenvector extraction instead"
        )
    residual = _walk_residual(ops, lifted, lam)
    if residual > residual_tol * lifted.fro_norm():
        raise NumericalError(
            f"lifted vector residual {residual:.3g} exceeds "
            f"{residual_tol * lifted.fro_norm():.3g}"
        )
    return lifted, residual


@dataclass(frozen=True)
class StructureCheck:
    name: str
    residual: float
    tol: float
    ok: bool

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "residual": self.residual,
            "tol": self.tol,
            "ok": self.ok,
        }


@dataclass(frozen=True)
class StructureReport:
    """Residuals of the structural identities tying U, K, L together."""

    checks: tuple[StructureCheck, ...]
    passed: bool

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "checks": [c.to_dict() for c in self.checks],
        }


def verify_structure(
    ops: WalkOperators,
    identity_tol: float = 1e-12,
    unitary_tol: float = 1e-10,
) -> StructureReport:
    """Machine-check the incidence identities and unitarity.

    ``J0 K L* = L L*`` and ``L* J0 L = W`` hold for every weighting;
    ``K* K = L* L = 2I``, ``D = 2I``, and ``U* U = I`` additionally
    require the unitarity condition, so failures there flag the
    instance rather than the code.
    """
    graph = ops.graph
    n, m = graph.n, graph.m_prime
    eye_n = QMatrix.eye(n)
    inv = graph.inverse
    two_eye = eye_n.scale(2.0)
    rows = [
        ("K* K = 2I", (ops.K.H @ ops.K - two_eye).max_entry_norm(), identity_tol),
        ("L* L = 2I", (ops.L.H @ ops.L - two_eye).max_entry_norm(), identity_tol),
        (
            "J0 K L* = L L*",
            (ops.K.take_rows(inv) @ ops.L.H - ops.L @ ops.L.H)
            .max_entry_norm(),
            identity_tol,
        ),
        (
            "L* J0 L = W",
            (ops.L.take_rows(inv).H @ ops.L - ops.W).max_entry_norm(),
            identity_tol,
        ),
        ("D = 2I", (ops.D - two_eye).max_entry_norm(), identity_tol),
        (
            "U* U = I",
            (ops.U.H @ ops.U - QMatrix.eye(m)).max_entry_norm(),
            unitary_tol,
        ),
    ]
    checks = tuple(
        StructureCheck(name, float(residual), tol, residual <= tol)
        for name, residual, tol in rows
    )
    return StructureReport(checks=checks, passed=all(c.ok for c in checks))


def random_instance(graph: Graph, seed: int) -> WeightMap:
    """Random quaternionic weights satisfying the unitarity condition.

    Per vertex, each outgoing arc gets four standard normal components
    (resampled while the magnitude is below 1e-6), then the group is
    rescaled so the squared norms sum to one.  Deterministic in
    ``seed`` via a dedicated generator.
    """
    rng = np.random.default_rng(seed)
    values: dict[tuple[int, int], Quaternion] = {}
    for u in range(graph.n):
        arcs = graph.out_arcs(u)
        if not arcs:
            raise ValidationError(f"vertex {u} has no outgoing arcs")
        samples = []
        for _ in arcs:
            comps = rng.standard_normal(4)
            while float(comps @ comps) < 1e-12:
                comps = rng.standard_normal(4)
            samples.append(comps)
        total = sum(float(c @ c) for c in samples)
        factor = 1.0 / math.sqrt(total)
        for arc, comps in zip(arcs, samples):
            values[arc.key] = Quaternion(*(comps * factor))
    return WeightMap(values)
