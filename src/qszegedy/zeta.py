"""Graph zeta determinant identities, machine-checked at sample points.

Three families of identities relate arc-level determinants to
vertex-level ones:

* Ihara/Bass (loopless): with ``B[e,f] = [t(e) = o(f)]``,

      det(I - t(B - J0)) = (1 - t^2)^(m - n) det(I - tA + t^2 (D - I)).

* Second weighted (loopless): with a complex weight matrix
  ``W`` supported on arcs and ``Bw[e,f] = w(f) [t(e) = o(f)]``,

      det(I - t(Bw - J0))
          = (1 - t^2)^(m - n) det(I - tW + t^2 (Dw - I)),

  together with the transposed variant (Bw^T and W^T, same Dw).

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
``(1 - t^2)^|e|`` to the arc side instead of dividing, so both sides
stay polynomial.  The underlying cancellation lemma

    det(alpha I_m - A B) alpha^n = alpha^m det(alpha I_n - B A)

is exposed as its own check.  Default samples are eight uniform points
on the circle ``|t| = 1/4`` plus ``t = 0``; an opt-in mode interpolates
both sides as polynomials in ``t`` and compares coefficients.
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
    "EdgeMatrices",
    "IdentityCheck",
    "VerifyReport",
    "build_edge_matrices",
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
#: Tolerance for interpolated polynomial coefficients (opt-in mode).
POLY_TOL = 1e-7

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


class EdgeMatrices(NamedTuple):
    """Arc-indexed matrices of a graph: adjacency-with-weights and J0."""

    b: np.ndarray
    bw: np.ndarray | None
    j0: np.ndarray


def build_edge_matrices(graph: Graph, w=None) -> EdgeMatrices:
    """Arc matrices ``B`` (and ``Bw`` when ``w`` is given) plus ``J0``.

    ``B[e, f] = 1`` when ``t(e) = o(f)``; ``Bw`` scales column ``f`` by
    the arc weight ``w(f)`` drawn from a vertex-pair matrix.
    """
    follows = graph.terminus[:, None] == graph.origin[None, :]
    bw = None
    if w is not None:
        bw = np.where(follows, w[graph.origin, graph.terminus], 0.0)
    return EdgeMatrices(
        b=follows.astype(complex), bw=bw, j0=graph.j0_matrix()
    )


class _IdentityFields(NamedTuple):
    name: str
    samples: tuple[complex, ...]
    lhs: tuple[complex, ...]
    rhs: tuple[complex, ...]
    max_rel_error: float
    passed: bool
    variants: dict | None = None


class IdentityCheck(_IdentityFields):
    """Outcome of comparing two determinant expressions at samples.

    ``variants`` maps each variant's label to its worst relative error;
    left out, it is a new empty dict.
    """

    __slots__ = ()

    def __new__(cls, name, samples, lhs, rhs, max_rel_error, passed,
                variants=None):
        return super().__new__(
            cls, name, samples, lhs, rhs, max_rel_error, passed,
            {} if variants is None else variants,
        )

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "max_rel_error": self.max_rel_error,
            "samples": [[t.real, t.imag] for t in self.samples],
            "lhs": [[z.real, z.imag] for z in self.lhs],
            "rhs": [[z.real, z.imag] for z in self.rhs],
            "variants": dict(self.variants),
        }


def _rel_error(lhs: complex, rhs: complex) -> float:
    # Relative on the scale of the larger side, floored at 1 so that
    # near-zero values are compared absolutely.
    return abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1.0)


def _check_samples(samples) -> list[complex]:
    out = [complex(t) for t in samples]
    for t in out:
        if min(abs(t - 1.0), abs(t + 1.0)) < 1e-9:
            raise ValidationError(
                f"sample t = {t:.6g} sits on the prefactor zeros at +-1"
            )
    return out


def _compare(name, samples, sides, tol) -> IdentityCheck:
    """Evaluate ``{variant: (lhs_fn, rhs_fn)}`` at samples and compare."""
    samples = _check_samples(samples)
    variants: dict[str, float] = {}
    first_lhs: list[complex] = []
    first_rhs: list[complex] = []
    for idx, (label, (lhs_fn, rhs_fn)) in enumerate(sides.items()):
        errs = []
        for t in samples:
            lhs = complex(lhs_fn(t))
            rhs = complex(rhs_fn(t))
            if idx == 0:
                first_lhs.append(lhs)
                first_rhs.append(rhs)
            errs.append(_rel_error(lhs, rhs))
        variants[label] = float(np.max(errs))  # np.max keeps a NaN
    worst = float(np.max(list(variants.values())))
    return IdentityCheck(
        name=name,
        samples=tuple(samples),
        lhs=tuple(first_lhs),
        rhs=tuple(first_rhs),
        max_rel_error=worst,
        passed=worst <= tol,
        variants=variants,
    )


def _poly_coeff_error(lhs_fn, rhs_fn, degree: int) -> float:
    """Interpolate both sides on roots of unity and compare coefficients.

    Both callables must already be polynomial (prefactors cross-
    multiplied), so sampling on ``|t| = 1`` is stable and the inverse
    FFT recovers coefficients without radius amplification.
    """
    count = degree + 1
    points = np.exp(2j * np.pi * np.arange(count) / count)
    lhs = np.fft.ifft(np.array([lhs_fn(t) for t in points]))
    rhs = np.fft.ifft(np.array([rhs_fn(t) for t in points]))
    scale = max(1.0, float(np.max(np.abs(lhs))), float(np.max(np.abs(rhs))))
    return float(np.max(np.abs(lhs - rhs))) / scale


def _bass_identity(
    name, variants, d, e: int, l: int, t_samples, tol, polynomial
) -> IdentityCheck:
    """Compare ``det(I - t X)`` with ``(1 - t^2)^e (1 + t)^l
    det(I - t V + t^2 (D - I))`` for each ``{label: (X, V)}``.

    A negative ``e`` puts ``(1 - t^2)^|e|`` on the arc side instead, so
    both sides stay polynomial; their degree is at most
    ``size(X) + 2 size(V) + 2|e| + 2l``, the degree polynomial mode
    interpolates the first variant at.
    """
    samples = default_samples() if t_samples is None else t_samples

    def sides(x, v):
        eye_x = np.eye(x.shape[0], dtype=complex)
        eye_v = np.eye(v.shape[0], dtype=complex)

        def lhs(t):
            return np.linalg.det(eye_x - t * x) * (1.0 - t * t) ** max(-e, 0)

        def rhs(t):
            return (
                (1.0 + t) ** l
                * np.linalg.det(eye_v - t * v + t * t * (d - eye_v))
                * (1.0 - t * t) ** max(e, 0)
            )

        return lhs, rhs

    built = {label: sides(x, v) for label, (x, v) in variants.items()}
    check = _compare(name, samples, built, tol)
    if not polynomial:
        return check
    x, v = next(iter(variants.values()))
    degree = x.shape[0] + 2 * v.shape[0] + 2 * abs(e) + 2 * l
    err = _poly_coeff_error(*next(iter(built.values())), degree)
    check.variants["polynomial"] = err
    return check._replace(
        max_rel_error=float(np.max([check.max_rel_error, err])),
        passed=check.passed and err <= POLY_TOL,
    )


def _require_loopless(graph: Graph, what: str):
    if graph.m1:
        raise ValidationError(f"{what} requires a loopless graph")


def ihara_identity(
    graph: Graph,
    t_samples=None,
    tol: float = IDENTITY_TOL,
    polynomial: bool = False,
) -> IdentityCheck:
    """Bass determinant form of the Ihara zeta function."""
    _require_loopless(graph, "the Ihara identity")
    em = build_edge_matrices(graph)
    return _bass_identity(
        "ihara",
        {"standard": (em.b - em.j0, graph.adjacency())},
        np.diag(graph.degrees().astype(complex)),
        graph.m0 - graph.n, 0, t_samples, tol, polynomial,
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
    polynomial: bool = False,
) -> IdentityCheck:
    """Second weighted zeta identity, plus its transposed variant.

    ``w`` is a complex vertex-pair matrix supported on arcs (zero
    entries on arcs are fine).  With all-ones weights this reduces to
    the Ihara identity.
    """
    _require_loopless(graph, "the second weighted identity")
    w = _validate_weight_matrix(graph, w)
    em = build_edge_matrices(graph, w)
    return _bass_identity(
        "second-weighted",
        {
            "standard": (em.bw - em.j0, w),
            "transposed": (em.bw.T - em.j0, w.T),
        },
        np.diag(np.sum(w, axis=1)),
        graph.m0 - graph.n, 0, t_samples, tol, polynomial,
    )


def quaternionic_identity(
    graph: Graph,
    a,
    b,
    t_samples=None,
    tol: float = IDENTITY_TOL,
    polynomial: bool = False,
) -> IdentityCheck:
    """Quaternionic determinant identity over the complex embedding.

    ``a`` and ``b`` are arbitrary quaternionic arc maps: array-likes of
    shape ``(m', 4)``, one row of components per arc in canonical order.
    Only their shape is checked; no unitarity is assumed, and a
    non-finite determinant gives a NaN error that fails the check.
    Loops are allowed and feed the ``(1 + t)^(2 m1)`` prefactor.
    """
    K, L = build_kl(
        graph,
        _check_weights(graph, a, "arc map 'a'", shape_only=True)[0],
        _check_weights(graph, b, "arc map 'b'", shape_only=True)[0],
    )
    # K L* - J0 subtracts 1 at every (e, e^-1); L* J0 = (J0 L)* gathers.
    u_edge = K @ L.H
    u_edge.a[np.arange(graph.m_prime), graph.inverse] -= 1.0
    return _bass_identity(
        "quaternionic",
        {"standard": (psi(u_edge), psi(L.H @ K))},
        psi(L.take_rows(graph.inverse).H @ K),
        2 * graph.m0 - 2 * graph.n, 2 * graph.m1, t_samples, tol, polynomial,
    )


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
    m, n = a.shape
    alpha = complex(alpha)
    lphase, llog = _times_power(
        np.linalg.slogdet(alpha * np.eye(m) - a @ b), alpha, n
    )
    rphase, rlog = _times_power(
        np.linalg.slogdet(alpha * np.eye(n) - b @ a), alpha, m
    )
    # _rel_error with both sides divided by max(|lhs|, |rhs|, 1).
    top = max(llog, rlog, 0.0)
    err = abs(lphase * math.exp(llog - top) - rphase * math.exp(rlog - top))
    return IdentityCheck(
        name="sylvester",
        samples=(alpha,),
        lhs=(_from_log(lphase, llog),),
        rhs=(_from_log(rphase, rlog),),
        max_rel_error=err,
        passed=err <= SYLVESTER_TOL,
    )


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

    The structure identities follow :func:`build_walk`; Ihara and the
    second weighted identity (arc weights drawn from ``seed``) run on
    loopless graphs only, the +-1 eigenspace counts on unitary weights.
    """
    unitarity = check_unitary_condition(graph, weights)
    ops = build_walk(graph, weights)
    structure = verify_structure(ops)
    points = default_samples(samples)
    skipped = {}

    a = ops.q * math.sqrt(2.0)
    identities = [
        quaternionic_identity(graph, a, a[graph.inverse], points, tol)
    ]
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
    k, lh = psi(ops.K), psi(ops.L).conj().T
    outcomes = [sylvester_det_property(k, lh, alpha) for alpha in alphas]
    sylvester = IdentityCheck(
        "sylvester", tuple(alphas),
        tuple(o.lhs[0] for o in outcomes), tuple(o.rhs[0] for o in outcomes),
        float(np.max([o.max_rel_error for o in outcomes])),  # keeps a NaN
        all(o.passed for o in outcomes),
    )

    eigenspaces = ()
    if unitarity.passed:  # the theorem path needs unitary weights
        eigenspaces = check_pm1_eigenspaces(ops)
    else:
        skipped["eigenspaces"] = "weights violate the unitarity condition"
    return VerifyReport(unitarity, structure, tuple(identities), sylvester,
                        eigenspaces, skipped)
