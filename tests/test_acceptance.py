"""End-to-end acceptance battery.

Every test prints one summary line, visible in plain pytest runs, so the
outcome of each numbered criterion can be read off directly.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from qszegedy.instances import bundled_names, load_bundled, parse_graph_spec
from qszegedy.qmatrix import (
    QMatrix,
    h_linear_independent,
    is_unitary,
    minimal_polynomial,
    psi,
    qvec,
    right_eigenvalues,
    root_subspaces,
)
from qszegedy.quaternion import I, J, K, ONE, Quaternion
from qszegedy.szegedy import (
    build_walk,
    check_unitary_condition,
    full_spectrum,
    lift_eigenvector,
    match_multisets,
    random_instance,
    spectral_map,
    verify_structure,
)
from qszegedy.zeta import (
    ihara_identity,
    quaternionic_identity,
    second_weighted_identity,
    sylvester_det_property,
)

FAMILIES = ("K3+loops", "K4", "P3", "star3+loop", "C5")

S2 = math.sqrt(2.0)
S5 = math.sqrt(5.0)
Q = Quaternion


@pytest.fixture
def announce(capsys):
    """One printed line per criterion, shown even when capture is on."""

    @contextmanager
    def factory(number, description):
        outcome = "FAIL"
        try:
            yield
            outcome = "PASS"
        finally:
            with capsys.disabled():
                print(f"\nACCEPTANCE {number}: {outcome} - {description}")

    return factory


def assert_multiset(actual, want, tol):
    dist, matched = match_multisets(list(actual), list(want), tol)
    assert matched, f"multisets differ, best pairing distance {dist}"


def test_criterion_1_frozen_triangle_spectra(announce):
    with announce(1, "triangle-with-loops spectra match frozen values at 1e-9"):
        start = time.perf_counter()
        inst = load_bundled("k3_loops")
        report = full_spectrum(inst.graph, inst.weights, want_oracle=True)
        elapsed = time.perf_counter() - start

        assert_multiset(
            report.mu_spectrum, [-2 / 3] * 2 + [4 / 3] * 4, 1e-9
        )
        lam_a = -1 / 3 + 2 * S2 / 3 * 1j
        lam_b = 2 / 3 + S5 / 3 * 1j
        want_u = (
            [lam_a] * 2
            + [lam_a.conjugate()] * 2
            + [lam_b] * 4
            + [lam_b.conjugate()] * 4
            + [-1.0 + 0j] * 6
        )
        assert_multiset(report.psi_u_spectrum, want_u, 1e-9)

        classes = sorted(report.classes, key=lambda c: c.rep.real)
        assert len(classes) == 3
        assert abs(classes[0].rep - (-1.0)) <= 1e-9 and classes[0].multiplicity == 3
        assert abs(classes[1].rep - lam_a) <= 1e-9 and classes[1].multiplicity == 2
        assert abs(classes[2].rep - lam_b) <= 1e-9 and classes[2].multiplicity == 4
        assert elapsed < 1.0


def test_criterion_2_bench_matrices(announce):
    with announce(2, "two bench matrices give known classes and minimal polynomials"):
        m1 = QMatrix.from_rows([[ONE, Q()], [Q(), K]])
        classes = right_eigenvalues(m1)
        assert len(classes) == 2
        assert abs(classes[0][0].rep - 1j) <= 1e-9 and classes[0][1] == 1
        assert abs(classes[1][0].rep - 1.0) <= 1e-9 and classes[1][1] == 1
        mp = minimal_polynomial(m1)
        assert len(mp.factors) == 2
        assert np.allclose(mp.factors[0].coefficients, [1.0, 0.0, 1.0], atol=1e-9)
        assert np.allclose(mp.factors[1].coefficients, [1.0, -1.0], atol=1e-9)
        assert all(f.exponent == 1 for f in mp.factors)

        m2 = QMatrix.from_rows([[Q(), I], [J, Q()]])
        classes = right_eigenvalues(m2)
        assert len(classes) == 2
        assert abs(classes[0][0].rep - (-1 + 1j) / S2) <= 1e-9 and classes[0][1] == 1
        assert abs(classes[1][0].rep - (1 + 1j) / S2) <= 1e-9 and classes[1][1] == 1
        mp = minimal_polynomial(m2)
        assert len(mp.factors) == 2
        assert np.allclose(mp.factors[0].coefficients, [1.0, S2, 1.0], atol=1e-9)
        assert np.allclose(mp.factors[1].coefficients, [1.0, -S2, 1.0], atol=1e-9)
        assert all(f.exponent == 1 for f in mp.factors)


def test_criterion_3_randomized_oracle_agreement(announce):
    with announce(3, "theorem path equals direct diagonalization on 250 random walks"):
        start = time.perf_counter()
        cases = set()
        for spec in FAMILIES:
            graph = parse_graph_spec(spec)
            for seed in range(50):
                weights = random_instance(graph, seed)
                report = full_spectrum(graph, weights, want_oracle=True, tol=1e-8)
                assert report.oracle.matched, f"{spec} seed {seed}"
                cases.add(report.tree_case)
        assert cases == {"non-tree", "tree", "tree-with-loops"}
        assert time.perf_counter() - start < 30.0


def test_criterion_4_determinant_identities(announce):
    with announce(4, "determinant identities hold on randomized inputs and graphs"):
        rng = np.random.default_rng(404)
        for spec in FAMILIES:
            graph = parse_graph_spec(spec)
            for _ in range(20):
                a = rng.standard_normal((graph.m_prime, 4))
                b = rng.standard_normal((graph.m_prime, 4))
                check = quaternionic_identity(graph, a, b, tol=1e-8)
                assert check.passed and check.max_rel_error <= 1e-8

        for _ in range(100):
            rows, cols = rng.integers(1, 7, size=2)
            a = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal(
                (rows, cols)
            )
            b = rng.standard_normal((cols, rows)) + 1j * rng.standard_normal(
                (cols, rows)
            )
            alpha = complex(*rng.standard_normal(2))
            check = sylvester_det_property(a, b, alpha, tol=1e-10)
            assert check.passed and check.max_rel_error <= 1e-10

        loopless = [n for n in bundled_names() if not load_bundled(n).graph.loops]
        assert loopless  # the battery must actually exercise these
        for name in loopless:
            graph = load_bundled(name).graph
            assert ihara_identity(graph, tol=1e-8).passed
            w = np.zeros((graph.n, graph.n), dtype=complex)
            mask = graph.arc_mask()
            w[mask] = rng.standard_normal(mask.sum()) + 1j * rng.standard_normal(
                mask.sum()
            )
            assert second_weighted_identity(graph, w, tol=1e-8).passed


GOLDEN_BASE_VECTORS = {
    1: qvec([1.0, 1.0, 1.0]),
    2: qvec([Q(0, 0, 1), Q(0, 0, 1), Q(0, 0, 1)]),
    3: qvec([1.0, 0.0, -1.0]),
    4: qvec([0.0, 1.0, -1.0]),
    5: qvec([Q(0, 0, 1), Q(), Q(0, 0, -1)]),
    6: qvec([Q(), Q(0, 0, 1), Q(0, 0, -1)]),
}

GOLDEN_LIFTS = {
    1: qvec([
        Q(S2, 1), Q(-S2, -1), Q(0, 0, 1, S2), Q(0, 0, -1, -S2),
        Q(0, 0, -S2, 1), Q(0, 0, S2, -1), Q(2, S2), Q(2, S2), Q(2, S2),
    ]),
    2: qvec([
        Q(0, 0, -S2, 1), Q(0, 0, S2, -1), Q(-1, S2), Q(1, -S2),
        Q(-S2, -1), Q(S2, 1), Q(0, 0, 2, -S2), Q(0, 0, 2, -S2), Q(0, 0, 2, -S2),
    ]),
    3: qvec([
        Q(0, 3), Q(-S5, -2), Q(0, 0, -2, -S5), Q(0, 0, 3),
        Q(0, 0, -S5, -1), Q(0, 0, -S5, -1), Q(1, S5), Q(), Q(-1, -S5),
    ]),
    4: qvec([
        Q(S5, 2), Q(0, -3), Q(0, 0, 1, -S5), Q(0, 0, 1, -S5),
        Q(0, 0, 0, -3), Q(0, 0, -S5, 2), Q(), Q(1, S5), Q(-1, -S5),
    ]),
    5: qvec([
        Q(0, 0, 0, 3), Q(0, 0, S5, -2), Q(2, -S5), Q(-3),
        Q(-S5, 1), Q(-S5, 1), Q(0, 0, 1, -S5), Q(), Q(0, 0, -1, S5),
    ]),
    6: qvec([
        Q(0, 0, -S5, 2), Q(0, 0, 0, -3), Q(-1, -S5), Q(-1, -S5),
        Q(0, 3), Q(-S5, -2), Q(), Q(0, 0, 1, -S5), Q(0, 0, -1, S5),
    ]),
}


def test_criterion_5_eigenvector_lifting(announce):
    with announce(5, "lifted eigenvectors match frozen vectors and span root subspaces"):
        inst = load_bundled("k3_loops")
        ops = build_walk(inst.graph, inst.weights)
        lifted = {}
        for idx in range(1, 7):
            mu = -2.0 / 3.0 if idx <= 2 else 4.0 / 3.0
            lam, _ = spectral_map(mu)
            vec = lift_eigenvector(ops, GOLDEN_BASE_VECTORS[idx], lam)
            residual = (ops.U @ vec - vec.right_scalar(lam)).fro_norm()
            assert residual <= 1e-8 * vec.fro_norm()
            # Equality up to a right scalar is exactly H-linear dependence.
            assert not h_linear_independent([vec, GOLDEN_LIFTS[idx]])
            lifted[idx] = vec
        assert h_linear_independent([lifted[1], lifted[2]])
        assert h_linear_independent([lifted[3], lifted[4], lifted[5], lifted[6]])

        subspaces = root_subspaces(ops.U)
        by_root = {}
        for sub in subspaces:
            coeffs = np.asarray(sub.factor.coefficients, dtype=float)
            roots = np.roots(coeffs)
            root = max(roots, key=lambda z: z.imag)
            by_root[complex(round(root.real, 6), round(max(root.imag, 0.0), 6))] = (
                sub.dimension
            )
        lam_a = complex(round(-1 / 3, 6), round(2 * S2 / 3, 6))
        lam_b = complex(round(2 / 3, 6), round(S5 / 3, 6))
        assert by_root == {complex(-1, 0): 3, lam_a: 2, lam_b: 4}
        assert sum(by_root.values()) == 9


def test_criterion_6_structure_identities(announce):
    with announce(6, "operator structure identities hold on all unitary instances"):
        checked = 0
        for name in bundled_names():
            inst = load_bundled(name)
            ops = build_walk(inst.graph, inst.weights)
            report = verify_structure(ops)
            assert report.passed
            assert all(c.residual <= 1e-10 for c in report.checks)
            checked += 1
        for spec in FAMILIES:
            graph = parse_graph_spec(spec)
            for seed in range(5):
                ops = build_walk(graph, random_instance(graph, seed))
                report = verify_structure(ops)
                assert report.passed
                assert all(c.residual <= 1e-10 for c in report.checks)
                checked += 1
        assert checked == 30


def test_criterion_7_unitarity_agreement(announce):
    with announce(7, "vertex condition and operator unitarity agree on 500 weightings"):
        for spec in FAMILIES:
            graph = parse_graph_spec(spec)
            for seed in range(50):
                weights = random_instance(graph, seed)
                condition = check_unitary_condition(graph, weights)
                operator = is_unitary(build_walk(graph, weights).U)
                assert condition.passed and operator

            for seed in range(50):
                weights = random_instance(graph, 1000 + seed)
                vertex = seed % graph.n
                out_arcs = np.flatnonzero(graph.origin == vertex)
                norm_sq = (weights[out_arcs] ** 2).sum(axis=1)
                broken = weights.copy()
                broken[out_arcs[np.argmax(norm_sq)]] *= 1.3
                condition = check_unitary_condition(graph, broken)
                operator = is_unitary(build_walk(graph, broken).U)
                assert not condition.passed and not operator
                assert condition.failing_vertices() == [vertex]


def test_criterion_8_property_suite(announce):
    with announce(8, "algebraic property suite holds over 200 randomized trials"):
        rng = np.random.default_rng(808)

        def random_qmatrix(rows, cols):
            comps = rng.standard_normal((rows, cols, 4))
            return QMatrix.from_rows(
                [[Q(*comps[r, c]) for c in range(cols)] for r in range(rows)]
            )

        for trial in range(200):
            p, q, r = rng.integers(1, 4, size=3)
            m = random_qmatrix(p, q)
            n = random_qmatrix(q, r)
            left = psi(m @ n)
            right = psi(m) @ psi(n)
            scale = max(1.0, float(np.abs(right).max()))
            assert np.max(np.abs(left - right)) <= 1e-12 * scale

            s = random_qmatrix(3, 3)
            spec = np.linalg.eigvals(psi(s))
            assert_multiset(spec, np.conj(spec), 1e-8 * max(1.0, np.abs(spec).max()))

            graph = parse_graph_spec(FAMILIES[trial % len(FAMILIES)])
            ops = build_walk(graph, random_instance(graph, trial))
            w_psi = psi(ops.W)
            assert np.max(np.abs(w_psi - w_psi.conj().T)) <= 1e-12
            base = np.linalg.eigvalsh(w_psi)
            assert base.min() >= -2.0 - 1e-10
            assert base.max() <= 2.0 + 1e-10
