"""Reference spectra and report checks, independent of the program.

The walk matrix is built here from the instance file with the entrywise
formula

    U[e, f] = 2 q(e) q(f^-1)*   if t(f) = o(e) and f != e^-1,
              2 |q(e)|^2 - 1    if f = e^-1,

and embedded in complex 2m' x 2m' form through the standard
representation ``a + b i + c j + d k -> [[a + b i, c + d i],
[-c + d i, a - b i]]``.  ``numpy.linalg.eigvals`` of that matrix is the
reference right spectrum.  Nothing from the program is imported.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from workloads import GraphSpec, Job

#: Default comparison tolerance of the CLI; every check uses it.
TOL = 1e-8


@dataclass(frozen=True)
class Reference:
    arcs: int
    walk: np.ndarray  # complex 2m' x 2m' embedding of U
    spectrum: np.ndarray  # its eigenvalues


def _hamilton(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise quaternion products of two (k, 4) component arrays."""
    a0, a1, a2, a3 = a.T
    b0, b1, b2, b3 = b.T
    return np.stack([
        a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3,
        a0 * b1 + a1 * b0 + a2 * b3 - a3 * b2,
        a0 * b2 - a1 * b3 + a2 * b0 + a3 * b1,
        a0 * b3 + a1 * b2 - a2 * b1 + a3 * b0,
    ], axis=1)


def walk_matrix(graph: GraphSpec, weights: np.ndarray) -> np.ndarray:
    """Complex embedding of the walk matrix, entry by entry."""
    arcs = graph.arcs
    m = len(arcs)
    origin = np.array([u for u, _ in arcs])
    terminus = np.array([v for _, v in arcs])
    position = {arc: index for index, arc in enumerate(arcs)}
    inverse = np.array([position[(v, u)] for u, v in arcs])
    pairs_e, pairs_f = [], []
    for vertex in range(graph.n):
        out = np.flatnonzero(origin == vertex)
        into = np.flatnonzero(terminus == vertex)
        pairs_e.append(np.repeat(out, len(into)))
        pairs_f.append(np.tile(into, len(out)))
    e = np.concatenate(pairs_e)
    f = np.concatenate(pairs_f)
    conj = weights[inverse[f]] * np.array([1.0, -1.0, -1.0, -1.0])
    value = 2.0 * _hamilton(weights[e], conj)
    back = f == inverse[e]
    value[back] = 0.0
    value[back, 0] = 2.0 * np.einsum("ij,ij->i", weights[e[back]],
                                     weights[e[back]]) - 1.0
    alpha = value[:, 0] + 1j * value[:, 1]
    beta = value[:, 2] + 1j * value[:, 3]
    big = np.zeros((2 * m, 2 * m), dtype=complex)
    big[2 * e, 2 * f] = alpha
    big[2 * e, 2 * f + 1] = beta
    big[2 * e + 1, 2 * f] = -np.conj(beta)
    big[2 * e + 1, 2 * f + 1] = np.conj(alpha)
    return big


def load_reference(path: Path) -> Reference:
    raw = json.loads(Path(path).read_text(encoding="utf-8"))
    g = raw["graph"]
    graph = GraphSpec(g["n"], tuple(tuple(e) for e in g["edges"]),
                      tuple(g.get("loops", [])))
    weights = np.array([raw["weights"][f"{u}->{v}"] for u, v in graph.arcs],
                       dtype=float)
    walk = walk_matrix(graph, weights)
    return Reference(len(graph.arcs), walk, np.linalg.eigvals(walk))


def circular_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Largest pair distance after pairing by angle on the unit circle.

    The circle is cut in the widest gap of ``b``, so values near -1 sort
    the same way whatever the sign of their rounding-level imaginary part.
    """
    if len(a) != len(b):
        return math.inf
    angles = np.sort(np.angle(b))
    gaps = np.diff(np.append(angles, angles[0] + 2 * math.pi))
    widest = int(np.argmax(gaps))
    cut = angles[widest] + 0.5 * gaps[widest]

    def by_angle(z):
        return z[np.argsort(np.mod(np.angle(z) - cut, 2 * math.pi),
                            kind="stable")]

    return float(np.max(np.abs(by_angle(a) - by_angle(b))))


def _complex_list(pairs) -> np.ndarray:
    return np.array([complex(re, im) for re, im in pairs], dtype=complex)


def _check_vectors(entries, ref: Reference) -> list[str]:
    """Each vector must be a right eigenvector of U for its lambda."""
    problems = []
    if len(entries) != ref.arcs:
        problems.append(f"{len(entries)} eigenvectors, expected {ref.arcs}")
    if not entries:
        return problems
    lam = _complex_list([e["lambda"] for e in entries])
    comps = np.array([e["vector"] for e in entries], dtype=float)
    # First column of the 2x2 block of each quaternion entry.
    cols = np.empty((2 * comps.shape[1], len(entries)), dtype=complex)
    cols[0::2] = (comps[:, :, 0] + 1j * comps[:, :, 1]).T
    cols[1::2] = -(comps[:, :, 2] - 1j * comps[:, :, 3]).T
    norms = np.linalg.norm(cols, axis=0)
    residual = np.linalg.norm(ref.walk @ cols - cols * lam, axis=0)
    worst = float(np.max(residual / np.maximum(norms, 1e-300)))
    if worst > TOL:
        problems.append(f"eigenvector relative residual {worst:.3g}")
    gap = float(np.max(np.min(np.abs(lam[:, None] - ref.spectrum[None, :]),
                              axis=1)))
    if gap > TOL:
        problems.append(f"eigenvector lambda off the spectrum by {gap:.3g}")
    return problems


def _check_spectrum(report: dict, job: Job, ref: Reference) -> list[str]:
    spec = report.get("spectrum")
    if not isinstance(spec, dict):
        return ["no spectrum block"]
    problems = []
    total = sum(c["multiplicity"] for c in spec["classes"])
    if total != ref.arcs:
        problems.append(f"class multiplicities sum to {total}, not {ref.arcs}")
    values = _complex_list(spec["psi_u_spectrum"])
    if len(values) != 2 * ref.arcs:
        return problems + [f"{len(values)} psi(U) eigenvalues, "
                           f"expected {2 * ref.arcs}"]
    modulus = float(np.max(np.abs(np.abs(values) - 1.0)))
    if modulus > TOL:
        problems.append(f"eigenvalue off the unit circle by {modulus:.3g}")
    closure = circular_distance(values, np.conj(values))
    if closure > TOL:
        problems.append(f"spectrum not closed under conjugation ({closure:.3g})")
    distance = circular_distance(values, ref.spectrum)
    if distance > TOL:
        problems.append(f"spectrum differs from the reference by {distance:.3g}")
    if job.oracle and not (spec.get("oracle") or {}).get("matched"):
        problems.append("oracle did not match")
    if job.eigenvectors:
        problems.extend(_check_vectors(spec.get("eigenvectors") or [], ref))
    return problems


def _verify_section_ok(section: dict) -> bool:
    return (
        section["unitarity"]["passed"]
        and section["structure"]["passed"]
        and all(check["passed"] for check in section["identities"])
        and section["sylvester"]["passed"]
    )


def check_report(report: dict, job: Job, ref: Reference | None) -> list[str]:
    """Problems found in one job's JSON report; empty when it passes."""
    try:
        problems = [] if report.get("passed") is True else ["passed is not true"]
        if job.kind == "spectrum":
            problems += _check_spectrum(report, job, ref)
        elif job.kind == "lift":
            problems += _check_vectors(report.get("eigenvectors") or [], ref)
        elif job.kind == "verify":
            if not _verify_section_ok(report):
                problems.append("a verify check failed")
        elif job.kind == "verify-random":
            runs = report.get("runs") or []
            if len(runs) != job.count:
                problems.append(f"{len(runs)} runs, expected {job.count}")
            if not all(_verify_section_ok(run) for run in runs):
                problems.append("a verify check failed")
        elif job.kind == "examples":
            checks = report.get("checks") or []
            if not checks or not all(c["ok"] for c in checks):
                problems.append("a worked example failed")
        return problems
    except (KeyError, TypeError, ValueError) as exc:
        return [f"malformed report: {exc!r}"]
