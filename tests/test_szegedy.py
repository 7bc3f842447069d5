from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qszegedy import szegedy
from qszegedy.cli import main
from qszegedy.errors import (
    DegenerateLiftError,
    NumericalError,
    ValidationError,
)
from qszegedy.graph import build_graph
from qszegedy.instances import (
    bundled_names,
    instance_to_dict,
    load_bundled,
    parse_graph_spec,
)
from qszegedy.qmatrix import (
    QMatrix,
    _h_basis,
    _j_conj,
    _nullspace,
    h_linear_independent,
    h_rank,
    psi,
    is_unitary,
    qvec,
    right_eigenbasis,
)
from qszegedy.quaternion import CLASS_TOL, J, K, Quaternion
from qszegedy.szegedy import (
    LiftedVector,
    _base_spectrum,
    arc_weights,
    build_walk,
    check_pm1_eigenspaces,
    check_unitary_condition,
    direct_spectrum,
    full_spectrum,
    group_mus,
    lift_eigenvector,
    lift_groups,
    match_multisets,
    nearest_mu,
    random_instance,
    spectral_map,
    uniform_weights,
    verify_structure,
    walk_eigenvectors,
)
from qszegedy.zeta import verify_walk

SQ2 = math.sqrt(2.0)
SQ23 = math.sqrt(2.0 / 3.0)
T23 = 2.0 / 3.0


def _k3_loops():
    inst = load_bundled("k3_loops")
    return inst.graph, inst.weights


# Transition matrix of the triangle-with-loops example, frozen entrywise:
# rows/columns follow the canonical arc order e1..e9.
U_GOLDEN = {
    (0, 1): Quaternion(-1 / 3), (0, 4): Quaternion(0, 0, -T23, 0), (0, 6): Quaternion(0, T23, 0, 0),
    (1, 0): Quaternion(-1 / 3), (1, 3): Quaternion(0, 0, 0, T23), (1, 7): Quaternion(0, -T23, 0, 0),
    (2, 0): Quaternion(0, 0, 0, -T23), (2, 3): Quaternion(-1 / 3), (2, 7): Quaternion(0, 0, T23, 0),
    (3, 2): Quaternion(-1 / 3), (3, 5): Quaternion(0, T23, 0, 0), (3, 8): Quaternion(0, 0, -T23, 0),
    (4, 2): Quaternion(0, -T23, 0, 0), (4, 5): Quaternion(-1 / 3), (4, 8): Quaternion(0, 0, 0, T23),
    (5, 1): Quaternion(0, 0, T23, 0), (5, 4): Quaternion(-1 / 3), (5, 6): Quaternion(0, 0, 0, -T23),
    (6, 1): Quaternion(0, -T23, 0, 0), (6, 4): Quaternion(0, 0, 0, T23), (6, 6): Quaternion(-1 / 3),
    (7, 0): Quaternion(0, T23, 0, 0), (7, 3): Quaternion(0, 0, -T23, 0), (7, 7): Quaternion(-1 / 3),
    (8, 2): Quaternion(0, 0, T23, 0), (8, 5): Quaternion(0, 0, 0, -T23), (8, 8): Quaternion(-1 / 3),
}

L_GOLDEN = {
    (0, 1): Quaternion(0, -SQ23, 0, 0),
    (1, 0): Quaternion(0, SQ23, 0, 0),
    (2, 2): Quaternion(0, 0, -SQ23, 0),
    (3, 1): Quaternion(0, 0, SQ23, 0),
    (4, 0): Quaternion(0, 0, 0, -SQ23),
    (5, 2): Quaternion(0, 0, 0, SQ23),
    (6, 0): Quaternion(SQ23),
    (7, 1): Quaternion(SQ23),
    (8, 2): Quaternion(SQ23),
}


def test_unitarity_condition_golden():
    graph, weights = _k3_loops()
    report = check_unitary_condition(graph, weights)
    assert report.passed
    assert report.max_deviation <= 1e-14
    assert [row.vertex for row in report.vertices] == [0, 1, 2]


def test_unitarity_condition_failure_vertex():
    graph, weights = _k3_loops()
    broken = weights.copy()
    broken[graph.arc_index(1, 2)] *= 1.5  # breaks vertex 1 only
    report = check_unitary_condition(graph, broken)
    assert not report.passed
    assert report.failing_vertices() == [1]



def _unitarity_by_loop(graph, weights, tol):
    """The per-arc loop the array pass replaced: each vertex's squared
    norms summed in arc order with ``sum``."""
    rows = []
    for u in range(graph.n):
        total = sum(
            x0 * x0 + x1 * x1 + x2 * x2 + x3 * x3
            for (x0, x1, x2, x3), origin in zip(
                weights.tolist(), graph.origin.tolist()
            )
            if origin == u
        )
        rows.append((u, total, abs(total - 1.0), abs(total - 1.0) <= tol))
    return rows


@pytest.mark.parametrize("spec, seed, scale", [
    ("K3+loops", 1, 1.0), ("C7", 2, 1.0), ("star5+loop", 3, 1.0 + 1e-9),
    ("K6", 4, 1.0 + 3e-11), ("P4", 5, 0.7),
])
def test_unitarity_sums_match_the_arc_loop(spec, seed, scale, monkeypatch):
    graph = parse_graph_spec(spec)
    weights = szegedy.random_instance(graph, seed) * scale
    for tol in (1e-10, 1e-8):
        monkeypatch.setattr(szegedy, "UNITARITY_TOL", tol)
        report = check_unitary_condition(graph, weights)
        assert report.tol == tol
        want = _unitarity_by_loop(graph, weights, tol)
        got = [(r.vertex, r.total, r.deviation, r.ok) for r in report.vertices]
        assert got == want  # bit for bit
        assert [type(r.total) for r in report.vertices] == [
            type(row[1]) for row in want
        ]
        assert report.max_deviation == max(row[2] for row in want)
        assert report.passed == all(row[3] for row in want)


def test_unitarity_of_a_vertex_without_arcs():
    graph = build_graph(3, [(0, 1)])
    weights = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]])
    report = check_unitary_condition(graph, weights)
    got = [(r.vertex, r.total, r.deviation, r.ok) for r in report.vertices]
    assert got == _unitarity_by_loop(graph, weights, 1e-10)
    assert type(report.vertices[2].total) is int
    assert report.failing_vertices() == [2]
    assert report.max_deviation == 1.0


def test_unitarity_names_the_first_zero_weight():
    graph, weights = _k3_loops()
    broken = weights.copy()
    broken[[graph.arc_index(2, 0), graph.arc_index(2, 2)]] = 0.0
    with pytest.raises(ValidationError, match=r"arc \(2,0\) is zero"):
        check_unitary_condition(graph, broken)
    with pytest.raises(ValidationError, match="expected 9 entries"):
        check_unitary_condition(graph, weights[:-1])
    values = dict(zip(zip(graph.origin.tolist(), graph.terminus.tolist()),
                      weights))
    del values[(1, 2)]
    with pytest.raises(ValidationError, match=r"missing .* \[\(1, 2\)\]"):
        arc_weights(graph, values)
    values[(1, 2)] = values[(0, 5)] = weights[0]
    with pytest.raises(ValidationError, match=r"non-arcs \[\(0, 5\)\]"):
        arc_weights(graph, values)

def test_walk_matrices_match_frozen_example():
    graph, weights = _k3_loops()
    ops = build_walk(graph, weights)
    for r in range(9):
        for c in range(9):
            want = U_GOLDEN.get((r, c), Quaternion())
            assert abs(ops.U.entry(r, c) - want) <= 1e-14, (r, c)
    for r in range(9):
        for c in range(3):
            want = L_GOLDEN.get((r, c), Quaternion())
            assert abs(ops.L.entry(r, c) - want) <= 1e-14, (r, c)
        # K[e, o(e)] = sqrt(2) q(e), zero elsewhere.
        got = ops.K.entry(r, graph.origin[r])
        assert abs(got - Quaternion(*weights[r]) * SQ2) <= 1e-14
    w_golden = QMatrix.from_real(np.full((3, 3), -T23) + np.diag([2 * T23] * 3))
    assert (ops.W - w_golden).max_entry_norm() <= 1e-14


def test_walk_operator_unitary_iff_condition():
    graph, weights = _k3_loops()
    assert is_unitary(build_walk(graph, weights).U)
    broken = weights.copy()
    broken[graph.arc_index(0, 1)] *= 1.5
    assert not is_unitary(build_walk(graph, broken).U)


def test_build_walk_rejects_zero_weight():
    graph, weights = _k3_loops()
    broken = weights.copy()
    broken[graph.arc_index(0, 1)] = 0.0
    with pytest.raises(ValidationError, match="zero"):
        build_walk(graph, broken)


@pytest.mark.parametrize("value, problem", [
    (math.nan, "is not finite"), (math.inf, "is not finite"),
    (-math.inf, "is not finite"), (1e160, "has a squared norm that overflows"),
])
@pytest.mark.parametrize("check", [check_unitary_condition, build_walk])
def test_non_finite_weights_are_rejected(check, value, problem):
    # A NaN once read as a unitarity deviation of 2.2e-16, and an infinite
    # component built a W of NaN that passed the cross-checks.
    graph, weights = _k3_loops()
    broken = weights.copy()
    broken[graph.arc_index(2, 1), 3] = value
    with pytest.raises(ValidationError, match=rf"arc \(2,1\) {problem}"):
        check(graph, broken)


def test_support_check_fails_on_a_nan_gap(monkeypatch):
    unperturbed = szegedy._coin_entries

    def perturbed(graph, qinv):
        rows, cols, values = unperturbed(graph, qinv)
        values.a[0, 0] = complex(math.nan, 0.0)
        return rows, cols, values

    monkeypatch.setattr(szegedy, "_coin_entries", perturbed)
    inst = load_bundled("k3_loops")
    with pytest.raises(NumericalError, match=r"differ by nan"):
        build_walk(inst.graph, inst.weights)


def test_build_kl_reads_arrays_as_quaternion_columns():
    graph = parse_graph_spec("K3+loops")
    rows = np.random.default_rng(3).standard_normal((graph.m_prime, 4))
    rows[0] = [-0.0, 0.0, -0.0, -0.0]
    rows[1, 2] = -0.0
    from_array = szegedy.build_kl(graph, rows, rows[::-1])
    columns = (qvec([Quaternion(*row) for row in rows]),
               qvec([Quaternion(*row) for row in rows[::-1]]))
    for got, want in zip(from_array, szegedy.build_kl(graph, *columns)):
        assert np.array_equal(got.components(), want.components())
        assert np.array_equal(np.signbit(got.components()),
                              np.signbit(want.components()))


def test_spectral_map_goldens():
    assert spectral_map(2.0) == (complex(1, 0), complex(1, 0))
    assert spectral_map(-2.0) == (complex(-1, 0), complex(-1, 0))
    assert spectral_map(0.0) == (1j, -1j)
    lam_p, lam_m = spectral_map(1.0)
    assert abs(lam_p - complex(0.5, math.sqrt(3) / 2)) <= 1e-15
    assert lam_m == lam_p.conjugate()
    assert abs(abs(lam_p) - 1.0) <= 1e-15


def test_spectral_map_clamp_and_reject():
    with pytest.warns(UserWarning, match="clamping"):
        lam_p, _ = spectral_map(2.0 + 1e-10)
    assert lam_p == complex(1, 0)
    with pytest.raises(ValidationError, match="outside"):
        spectral_map(2.1)


def test_base_spectrum_snaps_boundary():
    graph = build_graph(3, [(0, 1), (1, 2)])
    ops = build_walk(graph, uniform_weights(graph))
    mus = _base_spectrum(ops.W)
    assert np.allclose(mus, [-2.0, -2.0, 0.0, 0.0, 2.0, 2.0], atol=1e-10)
    # Boundary values are snapped exactly, not merely approximated.
    assert mus[0] == -2.0 and mus[1] == -2.0
    assert mus[4] == 2.0 and mus[5] == 2.0


K3_LOOPS_CLASSES = [
    (complex(-1, 0), 3),
    (complex(-1 / 3, 2 * SQ2 / 3), 2),
    (complex(2 / 3, math.sqrt(5) / 3), 4),
]
# Uniform-weight expectations derived by hand from the base spectra:
# P3 gives mu in {2, 0, -2}; star+loop solves y^2 - y/2 - 3; K4 scales
# its adjacency by 2/3; C5 has mu = 2cos(2 pi r / 5).
P3_CLASSES = [
    (complex(-1, 0), 1),
    (complex(0, 1), 2),
    (complex(1, 0), 1),
]
STAR_LOOP_CLASSES = [
    (complex(-0.75, math.sqrt(7) / 4), 2),
    (complex(0, 1), 4),
    (complex(1, 0), 1),
]
K4_CLASSES = [
    (complex(-1, 0), 2),
    (complex(-1 / 3, 2 * SQ2 / 3), 6),
    (complex(1, 0), 4),
]
C5_CLASSES = [
    (complex(math.cos(4 * math.pi / 5), math.sin(4 * math.pi / 5)), 4),
    (complex(math.cos(2 * math.pi / 5), math.sin(2 * math.pi / 5)), 4),
    (complex(1, 0), 2),
]


def _assert_classes(report, want):
    got = [(c.rep, c.multiplicity) for c in report.classes]
    assert len(got) == len(want)
    for (rep, mult), (wrep, wmult) in zip(got, want):
        assert abs(rep - wrep) <= 1e-9, (rep, wrep)
        assert mult == wmult


@pytest.mark.parametrize(
    "name, tree_case, want",
    [
        ("k3_loops", "non-tree", K3_LOOPS_CLASSES),
        ("k4", "non-tree", K4_CLASSES),
        ("c5", "non-tree", C5_CLASSES),
        ("p3_tree", "tree", P3_CLASSES),
        ("star_loop", "tree-with-loops", STAR_LOOP_CLASSES),
    ],
)
def test_full_spectrum_branches(name, tree_case, want):
    inst = load_bundled(name)
    report = full_spectrum(inst.graph, inst.weights, want_oracle=True)
    assert report.tree_case == tree_case
    assert report.oracle is not None and report.oracle.matched
    assert report.oracle.max_distance <= 1e-10
    assert len(report.psi_u_spectrum) == 2 * inst.graph.m_prime
    assert sum(c.multiplicity for c in report.classes) == inst.graph.m_prime
    _assert_classes(report, want)


def test_full_spectrum_k3_mu_multiset():
    graph, weights = _k3_loops()
    report = full_spectrum(graph, weights)
    want = [-2 / 3, -2 / 3, 4 / 3, 4 / 3, 4 / 3, 4 / 3]
    assert np.allclose(report.mu_spectrum, want, atol=1e-9)


def test_full_spectrum_rejects_bad_inputs():
    graph, weights = _k3_loops()
    broken = weights.copy()
    broken[graph.arc_index(2, 0)] *= 2.0
    with pytest.raises(ValidationError, match="unitarity"):
        full_spectrum(graph, broken)
    # A disconnected graph is accepted as a direct sum; an isolated vertex
    # without a loop can never meet the unitarity condition.
    disconnected = build_graph(4, [(0, 1), (2, 3)])
    report = full_spectrum(
        disconnected, uniform_weights(disconnected), want_oracle=True
    )
    assert report.oracle.matched and report.tree_case == "forest"
    isolated = build_graph(3, [(0, 1)])
    with pytest.raises(ValidationError, match=r"unitarity.*vertices \[3\]"):
        full_spectrum(isolated, uniform_weights(build_graph(2, [(0, 1)])))


# Tree, tree-with-loops and non-tree families; uniform weights (seed None)
# are real and degenerate, random ones generic.
@pytest.mark.parametrize("seed", [None, 1, 2, 3])
@pytest.mark.parametrize(
    "spec, tree_case",
    [
        ("P2", "tree"),
        ("P5", "tree"),
        ("star4", "tree"),
        ("star3+loop", "tree-with-loops"),
        ("P4+loops", "tree-with-loops"),
        ("C6", "non-tree"),
        ("C7+loop", "non-tree"),
        ("K5", "non-tree"),
        ("K4+loops", "non-tree"),
    ],
)
def test_full_spectrum_pm1_multiplicities(spec, tree_case, seed):
    graph = parse_graph_spec(spec)
    weights = (
        uniform_weights(graph) if seed is None
        else random_instance(graph, seed)
    )
    report = full_spectrum(
        graph, weights, want_oracle=True, want_eigenvectors=True
    )
    assert report.tree_case == tree_case
    assert report.oracle.matched
    assert len(report.eigenvectors) == graph.m_prime
    for target in (1.0, -1.0):
        direct = [
            v for v in report.eigenvectors
            if v.origin == "direct" and v.lam == target
        ]
        multiplicity = sum(
            c.multiplicity for c in report.classes if c.rep == target
        )
        assert len(direct) == multiplicity, target


def test_full_spectrum_tree_guard(monkeypatch):
    # A tree core needs one mapped pair at +1 to cancel; without it the
    # multiplicity bookkeeping must refuse rather than report.
    inst = load_bundled("p3_tree")
    base_spectrum = szegedy._base_spectrum
    monkeypatch.setattr(
        szegedy,
        "_base_spectrum",
        lambda w: [1.9 if mu == 2.0 else mu for mu in base_spectrum(w)],
    )
    with pytest.raises(
        NumericalError, match=r"lacks the required eigenvalue \+1"
    ):
        full_spectrum(inst.graph, inst.weights)


U1_PLUS = qvec([
    Quaternion(SQ2, 1), Quaternion(-SQ2, -1),
    Quaternion(0, 0, 1, SQ2), Quaternion(0, 0, -1, -SQ2),
    Quaternion(0, 0, -SQ2, 1), Quaternion(0, 0, SQ2, -1),
    Quaternion(2, SQ2), Quaternion(2, SQ2), Quaternion(2, SQ2),
])


def test_lift_matches_frozen_eigenvector():
    graph, weights = _k3_loops()
    ops = build_walk(graph, weights)
    lam_p, _ = spectral_map(-2 / 3)
    lifted = lift_eigenvector(ops, qvec([1.0, 1.0, 1.0]), lam_p)
    assert not h_linear_independent([lifted, U1_PLUS])
    residual = (ops.U @ lifted - lifted.right_scalar(lam_p)).fro_norm()
    assert residual <= 1e-12 * lifted.fro_norm()


def test_lift_right_linearity_gives_companion():
    graph, weights = _k3_loops()
    ops = build_walk(graph, weights)
    lam_p, _ = spectral_map(-2 / 3)
    v = qvec([1.0, 1.0, 1.0])
    companion = lift_eigenvector(ops, v.right_scalar(J), lam_p)
    direct = lift_eigenvector(ops, v, lam_p)
    # lift(v j) equals lift_minus(v) j, another lambda_plus eigenvector
    # H-independent from lift(v).
    assert h_linear_independent([direct, companion])
    residual = (ops.U @ companion - companion.right_scalar(lam_p)).fro_norm()
    assert residual <= 1e-12 * companion.fro_norm()


def test_lift_degenerates_at_boundary():
    graph = build_graph(3, [(0, 1), (1, 2)])
    ops = build_walk(graph, uniform_weights(graph))
    for mu, lam in ((2.0, complex(1.0)), (-2.0, complex(-1.0))):
        v = right_eigenbasis(ops.W, complex(mu))[0]
        with pytest.raises(DegenerateLiftError):
            lift_eigenvector(ops, v, lam)


def test_lift_input_validation():
    graph, weights = _k3_loops()
    ops = build_walk(graph, weights)
    with pytest.raises(ValidationError, match="lambda = 0"):
        lift_eigenvector(ops, qvec([1.0, 1.0, 1.0]), 0.0)
    with pytest.raises(ValidationError, match="not real"):
        lift_eigenvector(ops, qvec([1.0, 1.0, 1.0]), complex(0.3, 0.4))
    with pytest.raises(ValidationError, match="not an eigenvector"):
        lift_eigenvector(ops, qvec([1.0, 0.0, 0.0]), spectral_map(-2 / 3)[0])


def test_direct_eigenvectors_at_minus_one():
    graph, weights = _k3_loops()
    ops = build_walk(graph, weights)
    basis = right_eigenbasis(ops.U, complex(-1.0))
    assert len(basis) == 3
    assert h_linear_independent(basis)
    for v in basis:
        residual = (ops.U @ v + v).fro_norm()
        assert residual <= 1e-10 * v.fro_norm()


def test_spectrum_report_eigenvectors():
    graph, weights = _k3_loops()
    report = full_spectrum(graph, weights, want_eigenvectors=True)
    assert report.eigenvectors is not None
    origins = [v.origin for v in report.eigenvectors]
    assert origins.count("lift") == 3  # one mu=-2/3 vector, two mu=4/3
    assert origins.count("lift-companion") == 3
    assert origins.count("direct") == 3
    for item in report.eigenvectors:
        assert item.residual <= 1e-8 * item.vector.fro_norm()
    by_lam: dict = {}
    for item in report.eigenvectors:
        if item.origin != "direct":
            key = (round(item.lam.real, 9), round(item.lam.imag, 9))
            by_lam.setdefault(key, []).append(item.vector)
    for group in by_lam.values():
        assert h_linear_independent(group)


def test_verify_structure_all_bundled():
    for name in ("k3_loops", "p3_tree", "star_loop", "k4", "c5"):
        inst = load_bundled(name)
        report = verify_structure(build_walk(inst.graph, inst.weights))
        assert report.passed, name
        assert {c.name for c in report.checks} == {"L* J0 L = W"}


def test_verify_structure_w_row_fails_on_a_moved_w_entry(monkeypatch):
    # W comes from _adjoint_product; the row recomputes (J0 L)* L.
    adjoint_product = szegedy._adjoint_product

    def moved(L, K):
        W = adjoint_product(L, K)
        W.a[0, 1] += 1e-9
        W.a[1, 0] += 1e-9
        return W

    monkeypatch.setattr(szegedy, "_adjoint_product", moved)
    inst = load_bundled("k4")
    report = verify_structure(build_walk(inst.graph, inst.weights))
    assert [c.name for c in report.checks if not c.ok] == ["L* J0 L = W"]


def test_scaled_weight_fails_the_unitarity_line_not_the_structure():
    # Unitarity is read once, from the vertex condition.
    inst = load_bundled("k4")
    q = np.array(inst.weights)
    q[0] *= math.sqrt(1.0 + 1e-9)
    result = verify_walk(inst.graph, q)
    assert not result.unitarity.passed
    assert result.unitarity.failing_vertices() == [0]
    assert not result.passed
    assert result.structure.passed


def test_verify_walk_builds_no_dense_u(monkeypatch):
    def dense_u(ops):
        raise AssertionError("verify read the dense U")

    monkeypatch.setattr(szegedy.WalkOperators, "U", property(dense_u))
    inst = load_bundled("k4")
    assert verify_walk(inst.graph, inst.weights).passed


def test_match_multisets():
    assert match_multisets([1j, 2.0], [2.0, 1j]) == (0.0, True)
    dist, ok = match_multisets([0.0, 1.0], [0.0, 1.0 + 5e-9])
    assert ok and dist <= 5e-9
    dist, ok = match_multisets([0.0], [0.0, 1.0])
    assert not ok
    _dist, ok = match_multisets([0.0, 1.0], [0.5, 0.5])
    assert not ok


def _greedy_match_reference(left, right, tol):
    # The O(N^3) loop match_multisets replaced: repeatedly take the
    # smallest remaining distance, first in row-major order on ties.
    left = [complex(z) for z in left]
    right = [complex(z) for z in right]
    if len(left) != len(right):
        return float("inf"), False
    if not left:
        return 0.0, True
    dist = np.abs(np.array(left)[:, None] - np.array(right)[None, :])
    max_distance = 0.0
    remaining_l = list(range(len(left)))
    remaining_r = list(range(len(right)))
    while remaining_l:
        sub = dist[np.ix_(remaining_l, remaining_r)]
        r, c = divmod(int(np.argmin(sub)), sub.shape[1])
        max_distance = max(max_distance, float(sub[r, c]))
        remaining_l.pop(r)
        remaining_r.pop(c)
    return max_distance, max_distance <= tol


def _row_scan_reference(left, right, tol):
    # match_multisets before it scanned equal left values as one group:
    # the same prefix rounds, taking candidates one left row at a time.
    left = np.array([complex(z) for z in left], dtype=complex)
    right = np.array([complex(z) for z in right], dtype=complex)
    if len(left) != len(right):
        return float("inf"), False
    size = len(left)
    if not size:
        return 0.0, True
    dist = np.abs(left[:, None] - right[None, :]).ravel()
    used_l = [False] * size
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
            chunk = np.flatnonzero(~(dist <= low))
        rows, cols = np.divmod(chunk, size)
        live = ~(np.array(used_l)[rows] | np.array(used_r)[cols])
        order = np.argsort(dist[chunk[live]], kind="stable")
        for r, c in zip(rows[live][order].tolist(), cols[live][order].tolist()):
            if used_l[r] or used_r[c]:
                continue
            used_l[r] = used_r[c] = True
            max_distance = max(max_distance, float(dist[r * size + c]))
            paired += 1
            if paired == size:
                break
        low = high
        k *= 2
    return max_distance, max_distance <= tol


# A coarse grid, so draws repeat values exactly and distances tie.
_grid_points = st.builds(
    complex,
    st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0]),
    st.sampled_from([-1.0, 0.0, 1.0]),
)


@settings(max_examples=300, deadline=None)
@given(
    pairs=st.lists(st.tuples(_grid_points, _grid_points), max_size=12),
    extra=st.lists(_grid_points, max_size=1),
    tol=st.sampled_from([0.0, 0.5, 1.0]),
)
def test_match_multisets_equals_greedy_loop(pairs, extra, tol):
    left = [a for a, _ in pairs] + extra
    right = [b for _, b in pairs]
    assert match_multisets(left, right, tol) == _greedy_match_reference(
        left, right, tol
    ) == _row_scan_reference(left, right, tol)
    # Right is a reordering of left: everything pairs at distance 0.
    assert match_multisets(left, left[::-1], tol) == (0.0, True)


# Grid points, and points with a NaN, infinite or signed zero part: NaN
# distances sort last, and -0.0 equals 0.0.
_special_points = st.builds(
    complex,
    st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0]),
    st.sampled_from([-1.0, -0.0, 0.0, 1.0, math.nan]),
)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@settings(max_examples=400, deadline=None)
@given(
    left=st.lists(_grid_points | _special_points, max_size=24),
    right=st.lists(_grid_points | _special_points, max_size=24),
    same_size=st.booleans(),
    tol=st.sampled_from([0.0, 0.5, math.inf]),
)
def test_match_multisets_equals_row_scan(left, right, same_size, tol):
    if same_size:  # right shares values with left
        right = (right + left)[:len(left)]
    assert match_multisets(left, right, tol) == _row_scan_reference(
        left, right, tol
    )


@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("size, grid", [(30, 3), (45, 5), (70, 3), (70, 9)])
def test_match_multisets_prefix_rounds_equal_greedy_loop(size, grid, seed):
    # N^2 exceeds the first prefix of 16 N distances, and coarse grids
    # make clusters whose ties need further rounds.
    rng = np.random.default_rng(seed)
    points = np.linspace(-1.0, 1.0, grid)
    left = points[rng.integers(grid, size=size)] + 1j * points[
        rng.integers(grid, size=size)
    ]
    right = left[rng.permutation(size)] + 1e-3 * rng.integers(
        -1, 2, size=size
    )
    for tol in (0.0, 1e-3, 0.5):
        assert match_multisets(left, right, tol) == _greedy_match_reference(
            left, right, tol
        ) == _row_scan_reference(left, right, tol)


def _pm1_cases():
    for name in ("c5", "k3_loops", "k4", "p3_tree", "star_loop"):
        yield name, None
    for spec in ("P5", "star4+loop", "C6", "C7", "K4", "C8+loop", "K5",
                 "K4+loops", "K8+loops"):
        for seed in (None, 1, 2, 3):
            yield spec, seed


def _h_rank(vectors) -> int:
    return h_rank(QMatrix.hstack(vectors)) if vectors else 0


@pytest.mark.parametrize("spec, seed", list(_pm1_cases()))
def test_pm1_eigenspaces_match_psi_u(spec, seed):
    if seed is None and spec in bundled_names():
        inst = load_bundled(spec)
        graph, weights = inst.graph, inst.weights
    else:
        graph = parse_graph_spec(spec)
        weights = (
            uniform_weights(graph) if seed is None
            else random_instance(graph, seed)
        )
    ops = build_walk(graph, weights)
    mus = [mu for mu, _count in group_mus(_base_spectrum(ops.W))]
    vectors = walk_eigenvectors(ops, mus, (1.0, -1.0))
    counts = {count.lam: count for count in check_pm1_eigenspaces(ops)}
    for lam in (1.0, -1.0):
        # verify's rank count sizes the same two parts that are built.
        birth, inherited = szegedy._pm1_eigenspace(ops, lam)
        assert counts[lam].ok
        assert (counts[lam].birth, counts[lam].inherited) == (
            birth.cols, inherited.cols
        )
        items = [v for v in vectors if v.origin == "direct" and v.lam == lam]
        new = [item.vector for item in items]
        try:
            old = right_eigenbasis(ops.U, lam)
        except ValidationError:
            old = []
        assert len(new) == len(old), lam
        assert _h_rank(new + old) == _h_rank(new) == _h_rank(old) == len(old)
        if new:
            assert h_linear_independent(new)
        for item in items:
            assert abs(item.vector.fro_norm() - 1.0) <= 1e-12
            assert item.relative_residual <= 1e-12


@pytest.mark.parametrize("spec, seed", [("K10+loops", 1), ("K12", 7),
                                        ("K12", 1009), ("K6", None)])
def test_birth_kernel_spans_the_svd_kernel(spec, seed):
    graph = parse_graph_spec(spec)
    weights = (
        uniform_weights(graph) if seed is None
        else random_instance(graph, seed)
    )
    ops = build_walk(graph, weights)
    counts = {count.lam: count for count in check_pm1_eigenspaces(ops)}
    for lam in (1.0, -1.0):
        p, (_first, edge, _second) = szegedy._birth_matrix(ops, lam)
        kernel = szegedy._birth_kernel(p, np.where(edge, SQ2, 1.0))
        birth = szegedy._pm1_eigenspace(ops, lam)[0]
        assert birth.cols == kernel.cols == counts[lam].birth > 0
        # psi(P) x = 0 for the kernel columns; B x is H-orthonormal.
        assert np.abs(psi(p) @ np.vstack([kernel.a, kernel.b])).max() <= 1e-12
        gram = psi(birth).conj().T @ psi(birth)
        assert np.abs(gram - np.eye(2 * birth.cols)).max() <= 1e-12
        # The same span as the halved SVD kernel of psi(P).
        reference = _h_basis(_nullspace(psi(p)))
        assert reference.cols == kernel.cols
        assert h_rank(QMatrix.hstack([kernel, reference])) == kernel.cols


@pytest.mark.parametrize("argv", [("spectrum", "k4", "--eigenvectors"),
                                  ("lift", "c5", "--all")])
def test_eigenvector_jobs_do_not_import_numpy_ma(argv):
    # numpy.ma costs import time and heap; helpers such as np.setdiff1d
    # load it.
    script = (
        "import sys\n"
        "from qszegedy.cli import main\n"
        "code = main(sys.argv[1:])\n"
        "sys.stderr.write(f'{code} {\"numpy.ma\" in sys.modules}')\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(szegedy.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", script, *argv],
                          capture_output=True, env=env, text=True,
                          timeout=120)
    assert done.stderr == "0 False"


@pytest.mark.parametrize("spec, seed", [("k3_loops", None), ("c5", None),
                                        ("K4+loops", 2), ("C6", 1)])
def test_lift_groups_partition_with_independence(spec, seed):
    if seed is None:
        inst = load_bundled(spec)
        graph, weights = inst.graph, inst.weights
    else:
        graph = parse_graph_spec(spec)
        weights = random_instance(graph, seed)
    ops = build_walk(graph, weights)
    mus = [mu for mu, _count in group_mus(ops.mu_spectrum)]
    vectors = walk_eigenvectors(ops, mus, (1.0, -1.0))
    groups = lift_groups(ops, mus, (1.0, -1.0))
    # The groups are walk_eigenvectors' output, in order, cut where
    # (mu, lam) changes; each lifted group carries its own verdict.
    def key(item):
        return (item.mu, item.lam, item.origin, item.residual,
                item.vector.components().tobytes())

    assert [key(item) for g in groups for item in g.vectors] == [
        key(item) for item in vectors
    ]
    keys = [(g.mu, g.lam) for g in groups]
    assert len(set(keys)) == len(keys)
    for group in groups:
        assert all((v.mu, v.lam) == (group.mu, group.lam)
                   for v in group.vectors)
        if group.mu is None:
            assert group.independent is None
        else:
            assert group.independent is h_linear_independent(
                [item.vector for item in group.vectors]
            )
            assert group.independent


def _split_weights(spec: str, share: float, eps: float):
    """Uniform weights, except vertex 0's first two arcs at
    ``sqrt(share +- eps)``; unitary whenever ``share`` is the uniform one."""
    graph = parse_graph_spec(spec)
    weights = uniform_weights(graph).copy()
    first, second = np.flatnonzero(graph.origin == 0)[:2]
    weights[first, 0] = math.sqrt(share + eps)
    weights[second, 0] = math.sqrt(share - eps)
    return graph, weights


@pytest.mark.parametrize("spec, share", [("K4", 1 / 3), ("C6", 1 / 2)])
def test_walk_eigenvectors_near_degenerate_clusters(spec, share):
    # Base eigenvalues about 1e-8 apart: group_mus keeps them in separate
    # clusters, and each cluster lifts only its own eigh columns rather
    # than a kernel that spans its neighbours too.
    graph, weights = _split_weights(spec, share, 1e-8)
    report = full_spectrum(
        graph, weights, want_oracle=True, want_eigenvectors=True
    )
    assert report.oracle.matched
    assert len(report.eigenvectors) == graph.m_prime
    assert h_linear_independent([item.vector for item in report.eigenvectors])
    for item in report.eigenvectors:
        # The +-1 vectors carry W's top eigenvalue 2 - O(1e-17), snapped
        # to 2, at the walk's square-root scale: O(1e-9).
        bound = 1e-8 if item.origin == "direct" else 1e-12
        assert item.relative_residual <= bound


@pytest.mark.parametrize("mean", [-2.0 / 3.0, 4.0 / 3.0])
def test_nearest_mu_window(mean):
    # lift --mu matches within MU_MATCH_TOL * max(1, |requested|).
    distinct = [(-2.0 / 3.0, 2), (4.0 / 3.0, 4)]
    window = szegedy.MU_MATCH_TOL * max(1.0, abs(mean))
    for sign in (1.0, -1.0):
        assert nearest_mu(distinct, mean + sign * 0.99 * window) == mean
        assert nearest_mu(distinct, mean + sign * 1.01 * window) is None


def test_nearest_mu_tie_picks_the_lower_mean():
    # Both means lie exactly 2**-8 from the request, inside the window.
    distinct = [(1.0, 2), (1.0 + 2.0 ** -7, 2)]
    assert nearest_mu(distinct, 1.0 + 2.0 ** -8) == 1.0


def test_direct_spectrum_of_non_unitary_weights():
    # k4 with arc 0->1's weight doubled fails the unitarity condition;
    # the direct path still accounts for all m' quaternionic eigenvalues.
    instance = load_bundled("k4")
    weights = instance.weights.copy()
    weights[instance.graph.arc_index(0, 1)] *= 2.0
    assert not check_unitary_condition(instance.graph, weights).passed
    classes = direct_spectrum(instance.graph, weights)
    assert sum(cls.multiplicity for cls in classes) == instance.graph.m_prime
    assert all(cls.sources == ("direct",) for cls in classes)
    assert len(classes) == 6


def test_bridged_triangles_split_clusters_at_walk_scale(tmp_path):
    # Two triangles joined by an edge of weight 1e-4: W has 2 and
    # 2 - 1.3e-8, one base tolerance apart but 1.15e-4 apart as walk
    # values.  Clustered together, the lift at their mean missed both.
    graph = build_graph(
        6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (2, 3)]
    )
    weights = np.zeros((graph.m_prime, 4))
    arcs = zip(graph.origin.tolist(), graph.terminus.tolist())
    for e, (u, v) in enumerate(arcs):
        if (u, v) in ((2, 3), (3, 2)):
            weights[e, 0] = 1e-4
        elif u in (2, 3):
            weights[e, 0] = math.sqrt((1 - 1e-8) / 2)
        else:
            weights[e, 0] = 1 / SQ2
    report = full_spectrum(
        graph, weights, want_oracle=True, want_eigenvectors=True
    )
    assert report.oracle.matched
    assert len(report.eigenvectors) == graph.m_prime == 14
    assert h_linear_independent([item.vector for item in report.eigenvectors])
    assert all(item.relative_residual <= 1e-8 for item in report.eigenvectors)
    path = tmp_path / "bridge.json"
    path.write_text(json.dumps(instance_to_dict(graph, weights)))
    assert main(["lift", str(path), "--all"]) == 0


def test_walk_eigenvectors_no_walk_sized_svd(monkeypatch):
    graph = parse_graph_spec("K12")
    weights = random_instance(graph, 7)
    shapes = []
    svd = np.linalg.svd

    def recorded(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recorded)
    report = full_spectrum(graph, weights, want_eigenvectors=True)
    monkeypatch.undo()
    assert len(report.eigenvectors) == graph.m_prime
    assert shapes
    assert max(max(shape) for shape in shapes) < 2 * graph.m_prime


@pytest.mark.parametrize("lam", [1.0, -1.0])
def test_right_eigenbasis_pm1_on_k12(monkeypatch, lam):
    graph = parse_graph_spec("K12")
    ops = build_walk(graph, random_instance(graph, 7))
    c = psi(ops.U) - lam * np.eye(2 * graph.m_prime)
    s = np.linalg.svd(c, compute_uv=False)
    nullity = int(np.sum(s <= 1e-8 * s[0]))
    assert nullity >= 4 and nullity % 2 == 0

    calls = []
    svd = np.linalg.svd

    def counted(*args, **kwargs):
        calls.append(1)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    vectors = right_eigenbasis(ops.U, lam)
    monkeypatch.undo()
    # One SVD for the nullspace; the per-pick SVD loop would add one per
    # quaternionic vector.
    assert len(calls) <= 1
    assert len(vectors) == nullity // 2

    picks = np.hstack([np.vstack([v.a, v.b]) for v in vectors])
    frame = np.hstack([picks, _j_conj(picks)])
    gram = frame.conj().T @ frame
    assert np.max(np.abs(gram - np.eye(gram.shape[0]))) <= 1e-12
    assert h_linear_independent(vectors)
    for v in vectors:
        assert (ops.U @ v - v.scale(lam)).fro_norm() <= 1e-8


def test_lifted_vector_to_dict_matches_entry_path():
    a = np.array([0.0, -0.0, 1.5 - 0.25j, complex(-0.0, 2.0), -3.0])
    b = np.array([complex(0.0, -0.0), -0.5j, 0.0, complex(-1.0, 0.0), 2.0 + 1j])
    vec = QMatrix(a.reshape(-1, 1), b.reshape(-1, 1))
    data = LiftedVector(1j, None, vec, 0.0, "direct").to_dict()
    expected = [list(vec.entry(r, 0).components) for r in range(vec.rows)]
    # repr tells -0.0 from 0.0, which == does not.
    assert repr(data["vector"]) == repr(expected)


def test_random_instance_deterministic_and_unitary():
    graph = build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)], loops=[2])
    w1 = random_instance(graph, seed=11)
    w2 = random_instance(graph, seed=11)
    assert np.array_equal(w1, w2)
    assert not np.array_equal(random_instance(graph, seed=12), w1)
    assert w1.shape == (graph.m_prime, 4) and not w1.flags.writeable
    assert check_unitary_condition(graph, w1).passed
    # Weights are genuinely quaternionic, not complex-valued.
    assert (np.abs(w1[:, 2:]) > 1e-3).any()


def test_build_walk_cross_check_guard():
    # The three construction routes agree on every bundled instance.
    for name in ("k3_loops", "p3_tree", "star_loop"):
        inst = load_bundled(name)
        ops = build_walk(inst.graph, inst.weights)  # raises on mismatch
        assert ops.U.shape == (inst.graph.m_prime, inst.graph.m_prime)


def test_build_walk_matches_entrywise_loop():
    # Reference: the defining formula, entry by entry in Quaternion
    # arithmetic.  The vectorised build multiplies in complex arithmetic,
    # so entries of size <= 2 may differ by a few ulps.
    graph = parse_graph_spec("K4+loops")
    weights = random_instance(graph, 3)
    q = [Quaternion(*row) for row in weights]
    origin, terminus = graph.origin.tolist(), graph.terminus.tolist()
    ops = build_walk(graph, weights)
    for e in range(graph.m_prime):
        inv_e = graph.inverse_index(e)
        assert ops.K.entry(e, origin[e]) == q[e] * SQ2
        assert ops.L.entry(e, terminus[e]) == q[inv_e] * SQ2
        for f in range(graph.m_prime):
            if f == inv_e:
                want = Quaternion(2.0 * q[e].norm_sq() - 1.0)
            elif terminus[f] == origin[e]:
                q_inv_f = q[graph.inverse_index(f)]
                want = q[e] * q_inv_f.conjugate() * 2.0
            else:
                want = Quaternion()
            assert abs(ops.U.entry(e, f) - want) <= 1e-14


def test_build_walk_cross_check_fires(monkeypatch):
    # Of the three U constructions only K L* - J0 reads the scatter of L
    # (and K, its row gather); a 1e-12 error in L's entries is far above
    # the 1e-14 gate.
    unperturbed = szegedy._l_matrix

    def perturbed(graph, q):
        L = unperturbed(graph, q)
        L.a[np.arange(graph.m_prime), graph.terminus] += 1e-12
        return L

    monkeypatch.setattr(szegedy, "_l_matrix", perturbed)
    inst = load_bundled("k3_loops")
    with pytest.raises(NumericalError, match=r"K L\* - J0"):
        build_walk(inst.graph, inst.weights)


def test_build_walk_peak_memory():
    # The three U constructions are compared on U's support and no dense
    # m' x m' array is formed: the peak is 1.5 m'^2-sized complex arrays
    # with numpy 2.4, against 6.5 when each construction was dense.
    graph = parse_graph_spec("K12")
    weights = random_instance(graph, 7)
    unit = graph.m_prime ** 2 * np.dtype(complex).itemsize
    tracemalloc.start()
    try:
        build_walk(graph, weights)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * unit


def test_build_walk_w_product_peak_memory():
    # W = L* K is formed with no m' x n array besides K and L, and K and
    # L are freed before the Hermitian check.  On C120 (m' = 240, n = 120)
    # with numpy 2.4 the tracemalloc peak is 5.5 units of m' n complex
    # entries, against 8.6 when W came from L.H @ K and its copies.
    graph = parse_graph_spec("C120")
    weights = random_instance(graph, 7)
    unit = graph.m_prime * graph.n * np.dtype(complex).itemsize
    tracemalloc.start()
    try:
        build_walk(graph, weights)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6.5 * unit


def test_build_walk_coin_check_fires(monkeypatch):
    # The coin reads only q(e^-1); a 1e-12 error in its input is far
    # above the 1e-14 gate.
    unperturbed = szegedy._coin_entries

    def perturbed(graph, qinv):
        return unperturbed(graph, QMatrix(qinv.a + 1e-12, qinv.b))

    monkeypatch.setattr(szegedy, "_coin_entries", perturbed)
    inst = load_bundled("k3_loops")
    with pytest.raises(NumericalError, match=r"J0 \(L L\* - I\) differ by"):
        build_walk(inst.graph, inst.weights)


@pytest.mark.parametrize("scale", [10.0, 100.0, 1e8])
def test_build_walk_cross_check_scales_with_the_weights(monkeypatch, scale):
    # U's entry (e, f) has size up to 2 |q(e)| |q(f^-1)|.  With one arc of
    # norm s its rounding exceeds 1e-14: 2.8e-14 at s = 10, 3.6e-12 at
    # s = 100 and 4 at s = 1e8, on the entry 2 |q(e)|^2 - 1.  Held to
    # 1e-14 max(1, |q(e)| |q(f^-1)|), the three constructions agree.
    inst = load_bundled("k3_loops")
    graph, weights = inst.graph, np.array(inst.weights)
    weights[graph.arc_index(0, 1)] = (scale, 0.3, 0.2, 0.1)
    build_walk(graph, weights)
    # A relative 1e-12 move of U's largest entry is still far outside.
    unperturbed = szegedy._kl_entries

    def perturbed(graph, K, L):
        rows, cols, values = unperturbed(graph, K, L)
        k = np.argmax(np.abs(values.a[:, 0]) + np.abs(values.b[:, 0]))
        values.a[k] *= 1.0 + 1e-12
        values.b[k] *= 1.0 + 1e-12
        return rows, cols, values

    monkeypatch.setattr(szegedy, "_kl_entries", perturbed)
    with pytest.raises(NumericalError, match=r"K L\* - J0 differ by"):
        build_walk(graph, weights)


@pytest.mark.parametrize("name, label", [
    ("_direct_entries", r"K L\* - J0"),
    ("_kl_entries", r"K L\* - J0"),
    ("_coin_entries", r"J0 \(L L\* - I\)"),
])
def test_build_walk_support_check_fires(monkeypatch, name, label):
    # One construction loses a pair of U's support: the remaining values
    # still agree, but the key sets differ.
    unpatched = getattr(szegedy, name)

    def dropped(*args):
        rows, cols, values = unpatched(*args)
        return rows[1:], cols[1:], values.take_rows(slice(1, None))

    monkeypatch.setattr(szegedy, name, dropped)
    inst = load_bundled("k3_loops")
    with pytest.raises(NumericalError, match=label + " differ in support"):
        build_walk(inst.graph, inst.weights)


def test_dense_u_matches_support_on_first_access():
    graph = parse_graph_spec("K4+loops")
    weights = random_instance(graph, 3)
    ops = build_walk(graph, weights)
    assert "U" not in vars(ops)
    e, f, values = szegedy._direct_entries(graph, ops.q)
    u = ops.U
    on_support = QMatrix(u.a[e, f][:, None], u.b[e, f][:, None])
    assert (on_support - values).max_entry_norm() <= 1e-14
    off = np.ones(u.shape, dtype=bool)
    off[e, f] = False
    assert not u.a[off].any() and not u.b[off].any()
    assert ops.U is u


def test_theorem_path_never_reads_dense_u(monkeypatch, capsys):
    def refuse(self):
        raise AssertionError("dense U was read")

    monkeypatch.setattr(szegedy.WalkOperators, "U", property(refuse))
    graph = parse_graph_spec("K4+loops")
    weights = random_instance(graph, 3)
    report = full_spectrum(graph, weights, want_eigenvectors=True)
    assert len(report.eigenvectors) == graph.m_prime
    assert all(v.residual <= 1e-12 for v in report.eigenvectors)
    assert main(["lift", "k3_loops", "--all"]) == 0
    assert "result: PASS" in capsys.readouterr().out
    # The oracle is the one theorem-path option that diagonalises psi(U),
    # and it scatters psi(U) from U's support instead of reading U.
    unpatched, calls = szegedy._psi_u, []

    def counted(*args):
        calls.append(args)
        return unpatched(*args)

    monkeypatch.setattr(szegedy, "_psi_u", counted)
    assert full_spectrum(graph, weights, want_oracle=True).oracle.matched
    assert len(calls) == 1


def test_walk_applies_cached_adjoint(monkeypatch):
    # L* is built once per walk: the lifts' residuals and the +-1 birth
    # matrices read ops.LH.  When every residual apply rebuilt L.H, the
    # eigenvectors of generated C200 took 406 conjugate transposes.
    graph = parse_graph_spec("P30")
    weights = random_instance(graph, 7)
    unpatched, calls = QMatrix.conj_transpose, []

    def counted(self):
        calls.append(self.shape)
        return unpatched(self)

    monkeypatch.setattr(QMatrix, "conj_transpose", counted)
    monkeypatch.setattr(QMatrix, "H", property(counted))
    report = full_spectrum(graph, weights, want_eigenvectors=True)
    assert len(report.eigenvectors) == graph.m_prime
    # W's Hermitian check in build_walk, then L* once.
    assert calls == [(graph.n, graph.n), (graph.m_prime, graph.n)]


def test_walk_residual_keeps_its_bits():
    # The cached L* holds the bits of a fresh L.H, so U x does too.
    graph = parse_graph_spec("K6+loops")
    ops = build_walk(graph, random_instance(graph, 1))
    x = ops.L
    fresh = ops.K @ (ops.L.H @ x) - x.take_rows(graph.inverse)
    applied = szegedy._apply_walk(ops, x)
    assert applied.a.tobytes() == fresh.a.tobytes()
    assert applied.b.tobytes() == fresh.b.tobytes()


def test_walk_stores_only_graph_weights_and_w():
    graph = parse_graph_spec("K4+loops")
    ops = build_walk(graph, random_instance(graph, 3))
    assert set(vars(ops)) == {"graph", "q", "W"}
    # Built on first read (entries: test_build_walk_matches_entrywise_loop).
    assert ops.K is ops.K and ops.L is ops.L


def test_plain_spectrum_never_reads_k_or_l(monkeypatch, capsys):
    def refuse(self):
        raise AssertionError("dense K or L was read")

    monkeypatch.setattr(szegedy.WalkOperators, "K", property(refuse))
    monkeypatch.setattr(szegedy.WalkOperators, "L", property(refuse))
    graph = parse_graph_spec("K4+loops")
    weights = random_instance(graph, 3)
    report = full_spectrum(graph, weights)
    assert len(report.psi_u_spectrum) == 2 * graph.m_prime
    assert main(["spectrum", "k3_loops"]) == 0
    assert "result: PASS" in capsys.readouterr().out
    # The lifts read L (and the walk residuals K).
    with pytest.raises(AssertionError, match="dense K or L was read"):
        full_spectrum(graph, weights, want_eigenvectors=True)


def test_full_spectrum_diagonalises_psi_w_once(monkeypatch):
    # The lifts and both +-1 eigenspaces share one eigh(psi(W)).
    graph = parse_graph_spec("P30")
    weights = random_instance(graph, 7)
    unpatched = np.linalg.eigh
    shapes = []

    def counted(a, *args, **kwargs):
        shapes.append(a.shape)
        return unpatched(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    full_spectrum(graph, weights, want_eigenvectors=True)
    assert shapes == [(60, 60)]


def test_theorem_path_peak_memory():
    # build_walk compares the three U constructions on U's support and
    # the theorem path reads no dense U: 0.73 m'^2-sized complex arrays
    # with numpy 2.4, against 6.25 when every build formed U three times.
    graph = parse_graph_spec("K24+loops")
    weights = random_instance(graph, 7)
    unit = graph.m_prime ** 2 * np.dtype(complex).itemsize
    tracemalloc.start()
    try:
        build_walk(graph, weights)
        full_spectrum(graph, weights)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * unit


class _LoopLedger:
    """The class merge rule as a scan over every entry: a contribution
    joins the first entry whose anchor lies within its radius."""

    def __init__(self):
        self.entries = []

    def add(self, rep, psi_count, source):
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

    def classes(self):
        out = []
        for rep, count, sources in self.entries:
            snap = 1e-12 * max(1.0, abs(rep))
            rep = complex(
                0.0 if abs(rep.real) <= snap else rep.real,
                0.0 if abs(rep.imag) <= snap else rep.imag,
            )
            out.append(szegedy.SpectrumClass(
                rep, count // 2, tuple(sorted(sources))
            ))
        return tuple(sorted(out, key=lambda c: (c.rep.real, c.rep.imag)))


_BASE_VALUES = st.one_of(
    # Base eigenvalues snapped to the boundary.
    st.sampled_from([-2.0, 2.0]),
    # Steps of CLASS_TOL off a few anchors: walk values up to a few
    # merge radii apart (two steps make one radius at mu = 0).
    st.builds(
        lambda a, k: a + k * CLASS_TOL,
        st.sampled_from([-1.5, -0.5, 0.0, 1.0, 1.9]),
        st.integers(-4, 4),
    ),
    # Within 1e-6 of +-2, where the square root stretches base gaps.
    st.builds(
        lambda side, d: side * (2.0 - d),
        st.sampled_from([-1.0, 1.0]),
        st.floats(0.0, 1e-6),
    ),
    st.floats(-2.0, 2.0),
)


@settings(max_examples=200, deadline=None)
# Walk values one merge radius apart near i, so rounding decides each
# merge; the Bass counts then join the snapped classes at +-1.
@example([-2.0, 0.0, 2 * CLASS_TOL, 4 * CLASS_TOL, 2.0], (2, 4))
@given(
    st.lists(_BASE_VALUES, max_size=40),
    st.tuples(*[st.integers(-2, 3).map(lambda k: 2 * k)] * 2),
)
def test_class_ledger_matches_entry_scan(mus, counts):
    # Ascending base eigenvalues map along the upper semicircle, so the
    # one-pass classes (newest class, then a first match for each Bass
    # count) equal a first-match scan over every entry.
    mapped = [spectral_map(mu)[0] for mu in sorted(mus)]
    extra = {1.0: counts[0], -1.0: counts[1]}
    reference = _LoopLedger()
    for lam in mapped:
        reference.add(lam, 2, "mapped")
    for target, count in extra.items():
        reference.add(complex(target), count, f"trivial{target:+g}")
    assert szegedy._spectrum_classes(mapped, extra) == reference.classes()
