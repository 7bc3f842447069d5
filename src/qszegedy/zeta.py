"""Graph zeta determinant identities, machine-checked at sample points.

Three families of identities relate arc-level determinants to
vertex-level ones:

* Second weighted (loopless): with a complex weight matrix ``W``
  supported on arcs, ``Dw = diag(row sums of W)`` and
  ``Bw[e,f] = w(f) [t(e) = o(f)]``,

      det(I - t(Bw - J0))
          = (1 - t^2)^(m - n) det(I - tW + t^2 (Dw - I)).

* Ihara/Bass (loopless): the second weighted form at ``W = A``, so
  ``Dw`` is the degree matrix.

* Quaternionic (loops allowed): for arbitrary arc maps ``a, b`` with
  ``K, L`` the incidence weight matrices, ``W = L* K``, ``D = L* J0 K``,

      det(I - t psi(K L* - J0))
          = (1 - t^2)^(2 m0 - 2 n) (1 + t)^(2 m1)
            det(I - t psi(W) + t^2 (psi(D) - I)).

All three read ``det(I - t X) = (1 - t^2)^e (1 + t)^l
det(I - t V + t^2 (D - I))`` for their own ``(X, V, D, e, l)`` and go
through one evaluator.  Both sides factor over the components of the
graph, so none of the identities needs it connected.  Tree components
can make ``e`` negative; the check then cross-multiplies
``(1 - t^2)^|e|`` to the arc side instead of dividing, so neither
side has a pole.  The underlying cancellation lemma

    det(alpha I_m - A B) alpha^n = alpha^m det(alpha I_n - B A)

is exposed as its own check.  Default samples are eight uniform points
on the circle ``|t| = 1/4`` plus ``t = 0``.
"""

from __future__ import annotations

import cmath
import math
from typing import NamedTuple

import numpy as np

from .errors import ValidationError
from .graph import Graph
from .qmatrix import psi
from .szegedy import (
    EigenspaceCount,
    StructureReport,
    UnitarityReport,
    _check_weights,
    build_kl,
    build_walk,
    check_pm1_eigenspaces,
    check_unitary_condition,
    verify_structure,
)

__all__ = [
    "IdentityCheck",
    "VerifyReport",
    "default_samples",
    "ihara_identity",
    "quaternionic_identity",
    "second_weighted_identity",
    "sylvester_det_property",
    "verify_walk",
]

#: Relative error allowed at each sample point.
IDENTITY_TOL = 1e-8
#: Tolerance for the determinant cancellation lemma.
SYLVESTER_TOL = 1e-10

DEFAULT_SAMPLE_COUNT = 8
DEFAULT_SAMPLE_RADIUS = 0.25


def default_samples(
    count: int = DEFAULT_SAMPLE_COUNT,
    radius: float = DEFAULT_SAMPLE_RADIUS,
) -> list[complex]:
    """Uniform points on ``|t| = radius`` plus the origin."""
    if count < 1:
        raise ValidationError("need at least one sample point")
    points = [
        radius * cmath.exp(2j * cmath.pi * k / count) for k in range(count)
    ]
    points.append(0j)
    return points


class IdentityCheck(NamedTuple):
    """Outcome of comparing two determinant expressions at samples."""

    name: str
    samples: tuple[complex, ...]
    lhs: tuple[complex, ...]
    rhs: tuple[complex, ...]
    max_rel_error: float
    passed: bool

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "max_rel_error": self.max_rel_error,
            "samples": [[t.real, t.imag] for t in self.samples],
            "lhs": [[z.real, z.imag] for z in self.lhs],
            "rhs": [[z.real, z.imag] for z in self.rhs],
        }


def _rel_error(lhs: complex, rhs: complex) -> float:
    # Relative on the scale of the larger side, floored at 1 so that
    # near-zero values are compared absolutely.
    return abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1.0)


def _check_samples(samples) -> tuple[complex, ...]:
    out = tuple(complex(t) for t in samples)
    for t in out:
        if min(abs(t - 1.0), abs(t + 1.0)) < 1e-9:
            raise ValidationError(
                f"sample t = {t:.6g} sits on the prefactor zeros at +-1"
            )
    return out


def _diagonal(a: np.ndarray) -> np.ndarray:
    """Writable view of the diagonal of a C-contiguous square array."""
    return a.reshape(-1)[:: a.shape[0] + 1]


def _arc_side(x, e: int, samples) -> tuple[complex, ...]:
    """``det(I - t X) (1 - t^2)^max(-e, 0)`` at each sample.

    ``I - tX`` goes into one buffer for every sample, freed on return:
    ``0 - tX``, then 1 added on the diagonal, gives the bits of
    ``np.eye(N) - t * x``, signed zeros included.
    """
    buf = np.empty(x.shape, dtype=complex)
    diagonal = _diagonal(buf)
    lhs = []
    for t in samples:
        np.multiply(t, x, out=buf)
        np.subtract(0.0, buf, out=buf)
        diagonal += 1.0
        lhs.append(complex(
            np.linalg.det(buf) * (1.0 - t * t) ** max(-e, 0)
        ))
    return tuple(lhs)


def _bass_identity(
    name, x, v, d, e: int, l: int, t_samples, tol
) -> IdentityCheck:
    """Compare ``det(I - t X)`` with ``(1 - t^2)^e (1 + t)^l
    det(I - t V + t^2 (D - I))`` at each sample.

    A negative ``e`` puts ``(1 - t^2)^|e|`` on the arc side instead, so
    neither side has a pole.  Each side then has degree at most
    ``D = size(X) + 2 size(V) + 2|e| + 2l`` in ``t``, so agreement at
    ``D + 1`` distinct samples proves the identity.
    """
    samples = _check_samples(
        default_samples() if t_samples is None else t_samples
    )
    lhs = _arc_side(x, e, samples)
    # The vertex side keeps its expression: on arrays of 256 KB or more
    # numpy evaluates ``t * t * (d - eye_v)`` in place with the operands
    # swapped, and a rewrite would move its last bits.
    eye_v = np.eye(v.shape[0], dtype=complex)
    rhs = tuple(
        complex(
            (1.0 + t) ** l
            * np.linalg.det(eye_v - t * v + t * t * (d - eye_v))
            * (1.0 - t * t) ** max(e, 0)
        )
        for t in samples
    )
    # np.max keeps a NaN, which then fails the check.
    worst = float(np.max([_rel_error(a, b) for a, b in zip(lhs, rhs)]))
    return IdentityCheck(name, samples, lhs, rhs, worst, worst <= tol)


def _require_loopless(graph: Graph, what: str):
    if graph.m1:
        raise ValidationError(f"{what} requires a loopless graph")


def _arc_matrix(graph: Graph, w: np.ndarray) -> np.ndarray:
    """``Bw - J0`` with ``Bw[e, f] = w[o(f), t(f)]`` where ``t(e) = o(f)``."""
    follows = graph.terminus[:, None] == graph.origin[None, :]
    b = np.where(follows, w[graph.origin, graph.terminus], 0.0)
    b[np.arange(graph.m_prime), graph.inverse] -= 1.0
    return b


def ihara_identity(
    graph: Graph,
    t_samples=None,
    tol: float = IDENTITY_TOL,
) -> IdentityCheck:
    """Bass determinant form of the Ihara zeta function: the second
    weighted form at ``w = A``."""
    _require_loopless(graph, "the Ihara identity")
    a = graph.adjacency()
    return _bass_identity(
        "ihara", _arc_matrix(graph, a), a, np.diag(np.sum(a, axis=1)),
        graph.m0 - graph.n, 0, t_samples, tol,
    )


def _validate_weight_matrix(graph: Graph, w) -> np.ndarray:
    w = np.asarray(w, dtype=complex)
    if w.shape != (graph.n, graph.n):
        raise ValidationError(
            f"weight matrix must be {graph.n} x {graph.n}, got {w.shape}"
        )
    off = ~graph.arc_mask() & (w != 0)
    if np.any(off):
        u, v = np.argwhere(off)[0]
        raise ValidationError(
            f"weight matrix is nonzero at non-arc position ({u},{v})"
        )
    return w


def second_weighted_identity(
    graph: Graph,
    w,
    t_samples=None,
    tol: float = IDENTITY_TOL,
) -> IdentityCheck:
    """Second weighted zeta identity.

    ``w`` is a complex vertex-pair matrix supported on arcs (zero
    entries on arcs are fine).  At ``w = A`` it is the Ihara identity.
    """
    _require_loopless(graph, "the second weighted identity")
    w = _validate_weight_matrix(graph, w)
    return _bass_identity(
        "second-weighted", _arc_matrix(graph, w), w, np.diag(np.sum(w, axis=1)),
        graph.m0 - graph.n, 0, t_samples, tol,
    )


def quaternionic_identity(
    graph: Graph,
    a,
    b,
    t_samples=None,
    tol: float = IDENTITY_TOL,
) -> IdentityCheck:
    """Quaternionic determinant identity over the complex embedding.

    ``a`` and ``b`` are arbitrary quaternionic arc maps: array-likes of
    shape ``(m', 4)``, one row of components per arc in canonical order.
    Only their shape is checked; no unitarity is assumed, and a
    non-finite determinant gives a NaN error that fails the check.
    Loops are allowed and feed the ``(1 + t)^(2 m1)`` prefactor.
    """
    return _bass_identity(*_quaternionic_operands(graph, *build_kl(
        graph,
        _check_weights(graph, a, "arc map 'a'", shape_only=True)[0],
        _check_weights(graph, b, "arc map 'b'", shape_only=True)[0],
    )), t_samples, tol)


def _quaternionic_operands(graph: Graph, K, L, psi_w=None) -> tuple:
    """:func:`_bass_identity`'s operands for the quaternionic identity on
    K, L and ``psi(W)`` for ``W = L* K`` (formed here when not given);
    none is kept."""
    # K L* - J0 subtracts 1 at every (e, e^-1); L* J0 = (J0 L)* gathers.
    u_edge = K @ L.H
    u_edge.a[np.arange(graph.m_prime), graph.inverse] -= 1.0
    x = psi(u_edge)
    del u_edge
    v = psi(L.H @ K) if psi_w is None else psi_w
    d = psi(L.take_rows(graph.inverse).H @ K)
    return ("quaternionic", x, v, d,
            2 * graph.m0 - 2 * graph.n, 2 * graph.m1)


def _times_power(slogdet, alpha: complex, k: int) -> tuple[complex, float]:
    """``det * alpha**k`` as (unit phase, log modulus) from the
    ``slogdet`` of ``det``, with ``0**0 = 1``."""
    phase, logabs = complex(slogdet[0]), float(slogdet[1])
    if k == 0:
        return phase, logabs
    if alpha == 0:
        return 0j, -math.inf
    r = abs(alpha)
    return phase * (alpha / r) ** k, logabs + k * math.log(r)


def _from_log(phase: complex, logabs: float) -> complex:
    # Overflows to an infinite part where the determinant exceeds the
    # float range; the comparison itself never leaves log form.
    with np.errstate(over="ignore"):
        mag = float(np.exp(logabs))
    return complex(
        phase.real * mag if phase.real else 0.0,
        phase.imag * mag if phase.imag else 0.0,
    )


def sylvester_det_property(a, b, alpha: complex) -> IdentityCheck:
    """Determinant cancellation ``det(aI - AB) a^n = a^m det(aI - BA)``.

    ``a`` is ``m x n`` and ``b`` is ``n x m``; holds for every complex
    ``alpha``, including 0.  Both sides are compared in log form
    (``slogdet`` plus ``k log alpha``), so the relative error stays
    meaningful where the determinants overflow.  Passes when that error
    is at most ``SYLVESTER_TOL`` (1e-10).
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.ndim != 2 or b.ndim != 2 or a.shape != b.shape[::-1]:
        raise ValidationError(
            f"need A (m x n) and B (n x m); got {a.shape} and {b.shape}"
        )
    return _sylvester_rows(a, b, [alpha])


def _sylvester_rows(a, b, alphas) -> IdentityCheck:
    """:func:`sylvester_det_property` at each of ``alphas`` as one check,
    with ``AB`` and ``BA`` formed once: the largest error, passed when
    every alpha passes."""
    alphas = tuple(map(complex, alphas))
    # -AB and -BA once; each alpha rewrites only their diagonals.
    ab, ba = a @ b, b @ a
    m, n = a.shape
    ab_diag, ba_diag = _diagonal(ab).copy(), _diagonal(ba).copy()
    np.negative(ab, out=ab)
    np.negative(ba, out=ba)
    lhs, rhs, errors = [], [], []
    for alpha in alphas:
        np.subtract(alpha, ab_diag, out=_diagonal(ab))
        np.subtract(alpha, ba_diag, out=_diagonal(ba))
        lphase, llog = _times_power(np.linalg.slogdet(ab), alpha, n)
        rphase, rlog = _times_power(np.linalg.slogdet(ba), alpha, m)
        # _rel_error with both sides divided by max(|lhs|, |rhs|, 1).
        top = max(llog, rlog, 0.0)
        errors.append(abs(lphase * math.exp(llog - top)
                          - rphase * math.exp(rlog - top)))
        lhs.append(_from_log(lphase, llog))
        rhs.append(_from_log(rphase, rlog))
    worst = float(np.max(errors))  # np.max keeps a NaN, which fails
    return IdentityCheck("sylvester", alphas, tuple(lhs), tuple(rhs), worst,
                         worst <= SYLVESTER_TOL)


class VerifyReport(NamedTuple):
    """The ``verify`` battery on one weighted graph: :func:`verify_walk`.

    ``sylvester`` is the cancellation lemma at every ``alpha``; ``skipped``
    maps each part that did not run to the reason.
    """

    unitarity: UnitarityReport
    structure: StructureReport
    identities: tuple[IdentityCheck, ...]
    sylvester: IdentityCheck
    eigenspaces: tuple[EigenspaceCount, ...]
    skipped: dict[str, str]

    @property
    def passed(self) -> bool:
        checks = (self.unitarity, self.structure, self.sylvester,
                  *self.identities)
        return (all(check.passed for check in checks)
                and all(count.ok for count in self.eigenspaces))

    def to_dict(self) -> dict:
        counts = self.eigenspaces
        return {
            "unitarity": self.unitarity.to_dict(),
            "structure": self.structure.to_dict(),
            "identities": [check.to_dict() for check in self.identities],
            "sylvester": {"max_rel_error": self.sylvester.max_rel_error,
                          "passed": self.sylvester.passed},
            "eigenspaces": (
                {"skipped": self.skipped["eigenspaces"]}
                if "eigenspaces" in self.skipped
                else {"passed": all(count.ok for count in counts),
                      "targets": [count.to_dict() for count in counts]}
            ),
        }

def verify_walk(graph: Graph, weights, *, tol: float = IDENTITY_TOL,
                samples: int = DEFAULT_SAMPLE_COUNT, seed: int = 0
                ) -> VerifyReport:
    """Run the checks of ``verify`` on one weighted graph, in its order.

    The structure row and the quaternionic identity read the walk's own
    K, L and W; Ihara and the second weighted identity (arc weights
    drawn from ``seed``) run on loopless graphs only, the +-1 eigenspace
    counts on unitary weights.
    """
    unitarity = check_unitary_condition(graph, weights)
    ops = build_walk(graph, weights)
    structure = verify_structure(ops)
    points = default_samples(samples)
    skipped = {}

    identities = [_bass_identity(
        *_quaternionic_operands(graph, ops.K, ops.L, ops.psi_W), points, tol,
    )]
    if graph.m1 == 0:
        identities.append(ihara_identity(graph, points, tol))
        rng = np.random.default_rng(seed)
        w = np.where(
            graph.arc_mask(),
            rng.standard_normal((graph.n, graph.n))
            + 1j * rng.standard_normal((graph.n, graph.n)),
            0.0,
        )
        identities.append(second_weighted_identity(graph, w, points, tol))
    else:
        skipped["ihara/second-weighted"] = "graph has loops"

    # Nonzero eigenvalues of psi(K L*) are real (psi(W) is Hermitian), so
    # 2i stays at distance >= 2 from them; alpha = 2 can sit on one.
    alphas = [2j] + default_samples(samples, radius=1.0)
    sylvester = _sylvester_rows(psi(ops.K), psi(ops.L).conj().T, alphas)

    eigenspaces = ()
    if unitarity.passed:  # the theorem path needs unitary weights
        eigenspaces = check_pm1_eigenspaces(ops)
    else:
        skipped["eigenspaces"] = "weights violate the unitarity condition"
    return VerifyReport(unitarity, structure, tuple(identities), sylvester,
                        eigenspaces, skipped)
