"""The paper's worked examples, checked against frozen values.

``qszegedy examples`` formats the records of :func:`run_examples`; only
that command imports this module.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .instances import load_bundled
from .qmatrix import (QMatrix, h_rank, minimal_polynomial, qvec,
                      right_eigenbasis, right_eigenvalues, root_subspaces)
from .quaternion import I as QI, J as QJ, K as QK, Quaternion
from .szegedy import (build_walk, full_spectrum, group_mus, lift_eigenvector,
                      spectral_map)

__all__ = ["EXAMPLES_TOL", "ExampleCheck", "run_examples"]

#: Distance allowed between a computed value and its frozen one.
EXAMPLES_TOL = 1e-9


class ExampleCheck(NamedTuple):
    """One check of :func:`run_examples`."""

    description: str
    ok: bool
    detail: str


def run_examples() -> list[ExampleCheck]:
    """The paper's worked examples, each compared with its frozen value at
    ``EXAMPLES_TOL``.  A mismatch's ``detail`` carries the observed value,
    so failures are diagnosable from the output alone."""
    tol = EXAMPLES_TOL
    sq2 = math.sqrt(2.0)
    sq5 = math.sqrt(5.0)
    checks: list[ExampleCheck] = []

    def add(description: str, ok: bool, detail: str = ""):
        checks.append(ExampleCheck(description, bool(ok), detail))

    def classes(description: str, got, want, sep: str = "; "):
        # (value, multiplicity) pairs against ``want``, in order.
        add(description, len(got) == len(want) and all(
            abs(value - target) <= tol and count == expected
            for (value, count), (target, expected) in zip(got, want)
        ), "got " + sep.join(f"{value:.6g} x{count}" for value, count in got))

    def factors(description: str, got, want):
        # Minimal-polynomial factors, each of exponent 1, against ``want``.
        add(description, len(got) == len(want) and all(
            f.exponent == 1 and np.allclose(f.coefficients, coeffs, atol=tol)
            for f, coeffs in zip(got, want)
        ), f"got {[f.coefficients for f in got]}")

    def span(description: str, vector: QMatrix, golden: list):
        # ``vector`` spans the same right H-line as the known ``golden``.
        add(description, h_rank(QMatrix.hstack([vector, qvec(golden)])) == 1)

    # Quaternion algebra.
    add("i*j = k and j*i = -k",
        (QI * QJ - QK).is_zero() and (QJ * QI + QK).is_zero())
    x = Quaternion(1.0, 2.0, -3.0, 0.5)
    add("x * x^-1 = 1", abs(x * x.inverse() - Quaternion(1.0)) <= 1e-15)

    # Example A: diag(1, k).
    m1 = QMatrix.diag([Quaternion(1.0), QK])
    classes("diag(1,k): classes {class of i, class of 1}",
            [(c.rep, m) for c, m in right_eigenvalues(m1)],
            [(1j, 1), (1.0, 1)])
    factors("diag(1,k): minimal polynomial (y^2+1)(y-1)",
            minimal_polynomial(m1).factors, [(1.0, 0.0, 1.0), (1.0, -1.0)])
    span("diag(1,k): eigenvector for i proportional to (0, 1-j)",
         right_eigenbasis(m1, 1j)[0],
         [Quaternion(), Quaternion(1, 0, -1, 0)])

    # Example B: [[0, i], [j, 0]].
    m2 = QMatrix.from_rows([[Quaternion(), QI], [QJ, Quaternion()]])
    classes("[[0,i],[j,0]]: classes {(+-1+i)/sqrt2}",
            [(c.rep, m) for c, m in right_eigenvalues(m2)],
            [(complex(-1.0, 1.0) / sq2, 1), (complex(1.0, 1.0) / sq2, 1)])
    factors("[[0,i],[j,0]]: minimal polynomial (y^2+sqrt2 y+1)(y^2-sqrt2 y+1)",
            minimal_polynomial(m2).factors,
            [(1.0, sq2, 1.0), (1.0, -sq2, 1.0)])
    span("[[0,i],[j,0]]: eigenvector for (1+i)/sqrt2 matches the known span",
         right_eigenbasis(m2, complex(1.0, 1.0) / sq2)[0],
         [Quaternion(1, 0, -1, 0),
          Quaternion(1 / sq2, -1 / sq2, 1 / sq2, 1 / sq2)])

    # Example C: the complete triangle with loops at every vertex.
    instance = load_bundled("k3_loops")
    graph, weights = instance.graph, instance.weights
    ops = build_walk(graph, weights)
    w_golden = QMatrix.from_real(np.full((3, 3), -2.0 / 3.0)
                                 + np.diag([4.0 / 3.0] * 3))
    add("k3_loops: doubly weighted matrix has 2/3 diagonal, -2/3 off",
        (ops.W - w_golden).max_entry_norm() <= tol)
    spot = [
        (0, 1, Quaternion(-1.0 / 3.0)),
        (0, 4, Quaternion(0, 0, -2.0 / 3.0, 0)),
        (0, 6, Quaternion(0, 2.0 / 3.0, 0, 0)),
        (1, 3, Quaternion(0, 0, 0, 2.0 / 3.0)),
        (8, 2, Quaternion(0, 0, 2.0 / 3.0, 0)),
        (8, 8, Quaternion(-1.0 / 3.0)),
    ]
    ok = all(abs(ops.U.entry(r, c) - val) <= tol for r, c, val in spot)
    add("k3_loops: transition matrix spot entries", ok)

    spectrum = full_spectrum(graph, weights, want_oracle=True, tol=tol)
    classes("k3_loops: base spectrum {-2/3 x2, 4/3 x4}",
            group_mus(spectrum.mu_spectrum),
            [(-2.0 / 3.0, 2), (4.0 / 3.0, 4)], sep=", ")
    classes("k3_loops: classes {-1 x3, (-1+2sqrt2 i)/3 x2, (2+sqrt5 i)/3 x4}",
            [(c.rep, c.multiplicity) for c in spectrum.classes],
            [(complex(-1.0), 3), (complex(-1.0 / 3.0, 2.0 * sq2 / 3.0), 2),
             (complex(2.0 / 3.0, sq5 / 3.0), 4)])
    add("k3_loops: theorem spectrum matches direct diagonalization",
        spectrum.oracle is not None and spectrum.oracle.matched,
        f"max distance {spectrum.oracle.max_distance:.3g}")

    subspaces = root_subspaces(ops.U)
    factors("k3_loops: minimal polynomial (y+1)(y^2+2/3 y+1)(y^2-4/3 y+1)",
            [s.factor for s in subspaces],
            [(1.0, 1.0), (1.0, 2.0 / 3.0, 1.0), (1.0, -4.0 / 3.0, 1.0)])
    dims = [s.dimension for s in subspaces]
    add("k3_loops: root subspace dimensions (3, 2, 4) summing to 9",
        dims == [3, 2, 4], f"got {dims}")

    lam_p, _ = spectral_map(-2.0 / 3.0)
    span("k3_loops: lift of (1,1,1) at mu=-2/3 is proportional to the "
         "known eigenvector",
         lift_eigenvector(ops, qvec([1.0, 1.0, 1.0]), lam_p),
         [Quaternion(sq2, 1), Quaternion(-sq2, -1),
          Quaternion(0, 0, 1, sq2), Quaternion(0, 0, -1, -sq2),
          Quaternion(0, 0, -sq2, 1), Quaternion(0, 0, sq2, -1),
          Quaternion(2, sq2), Quaternion(2, sq2), Quaternion(2, sq2)])

    direct_goldens = [
        qvec([QI, QI, Quaternion(), Quaternion(), Quaternion(), Quaternion(),
              Quaternion(-1.0), Quaternion(1.0), Quaternion()]),
        qvec([QJ, QJ, -QI, -QI, Quaternion(1.0), Quaternion(1.0),
              Quaternion(), Quaternion(), Quaternion()]),
        qvec([QI, QI, QJ, QJ, Quaternion(), Quaternion(),
              Quaternion(-1.0), Quaternion(), Quaternion(1.0)]),
    ]
    ok = all(
        (ops.U @ g - g.right_scalar(-1.0)).fro_norm() <= tol * g.fro_norm()
        for g in direct_goldens
    ) and h_rank(QMatrix.hstack(direct_goldens)) == 3
    add("k3_loops: three independent eigenvectors at lambda=-1", ok)

    return checks
