from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qszegedy import szegedy
from qszegedy.errors import (
    DegenerateLiftError,
    NumericalError,
    ValidationError,
)
from qszegedy.graph import build_graph
from qszegedy.instances import load_bundled, parse_graph_spec
from qszegedy.qmatrix import (
    QMatrix,
    _j_conj,
    h_linear_independent,
    psi,
    is_unitary,
    qvec,
    right_eigenbasis,
)
from qszegedy.quaternion import I, J, K, ONE, Quaternion
from qszegedy.szegedy import (
    LiftedVector,
    WeightMap,
    _base_spectrum,
    build_walk,
    check_unitary_condition,
    full_spectrum,
    lift_eigenvector,
    match_multisets,
    random_instance,
    spectral_map,
    verify_structure,
)

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
    values = dict(weights.values)
    values[(1, 2)] = values[(1, 2)] * 1.5  # breaks vertex 1 only
    report = check_unitary_condition(graph, WeightMap(values))
    assert not report.passed
    assert report.failing_vertices() == [1]


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
        arc = graph.arc(r)
        got = ops.K.entry(r, arc.origin)
        assert abs(got - weights.get(*arc.key) * SQ2) <= 1e-14
    w_golden = QMatrix.from_real(np.full((3, 3), -T23) + np.diag([2 * T23] * 3))
    assert (ops.W - w_golden).max_entry_norm() <= 1e-14
    assert (ops.D - QMatrix.eye(3).scale(2.0)).max_entry_norm() <= 1e-14


def test_walk_operator_unitary_iff_condition():
    graph, weights = _k3_loops()
    assert is_unitary(build_walk(graph, weights).U)
    values = dict(weights.values)
    values[(0, 1)] = values[(0, 1)] * 1.5
    assert not is_unitary(build_walk(graph, WeightMap(values)).U)


def test_build_walk_rejects_zero_weight():
    graph, weights = _k3_loops()
    values = dict(weights.values)
    values[(0, 1)] = Quaternion()
    with pytest.raises(ValidationError, match="zero"):
        build_walk(graph, WeightMap(values))


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
    ops = build_walk(graph, WeightMap.uniform(graph))
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
    values = dict(weights.values)
    values[(2, 0)] = values[(2, 0)] * 2.0
    with pytest.raises(ValidationError, match="unitarity"):
        full_spectrum(graph, WeightMap(values))
    disconnected = build_graph(4, [(0, 1), (2, 3)])
    with pytest.raises(ValidationError, match="connected"):
        full_spectrum(disconnected, WeightMap.uniform(disconnected))


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
        WeightMap.uniform(graph) if seed is None
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
    ops = build_walk(graph, WeightMap.uniform(graph))
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
        assert {c.name for c in report.checks} == {
            "K* K = 2I", "L* L = 2I", "J0 K L* = L L*",
            "L* J0 L = W", "D = 2I", "U* U = I",
        }


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
    )
    # Right is a reordering of left: everything pairs at distance 0.
    assert match_multisets(left, left[::-1], tol) == (0.0, True)


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
    assert w1.values == w2.values
    assert random_instance(graph, seed=12).values != w1.values
    assert check_unitary_condition(graph, w1).passed
    # Weights are genuinely quaternionic, not complex-valued.
    assert any(
        abs(q.x2) > 1e-3 or abs(q.x3) > 1e-3 for q in w1.values.values()
    )


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
    q = weights.aligned(graph)
    ops = build_walk(graph, weights)
    for e in graph.arcs:
        inv_e = graph.inverse_index(e.index)
        assert ops.K.entry(e.index, e.origin) == q[e.index] * SQ2
        assert ops.L.entry(e.index, e.terminus) == q[inv_e] * SQ2
        for f in graph.arcs:
            if f.index == inv_e:
                want = Quaternion(2.0 * q[e.index].norm_sq() - 1.0)
            elif f.terminus == e.origin:
                q_inv_f = q[graph.inverse_index(f.index)]
                want = q[e.index] * q_inv_f.conjugate() * 2.0
            else:
                want = Quaternion()
            assert abs(ops.U.entry(e.index, f.index) - want) <= 1e-14


def test_build_walk_cross_check_fires(monkeypatch):
    # Of the three U constructions only K L* - J0 reads K; a 1e-12 error
    # there is far above the 1e-14 gate.
    unperturbed = szegedy.build_kl

    def perturbed(graph, a, b):
        K, L = unperturbed(graph, a, b)
        K.a += 1e-12
        return K, L

    monkeypatch.setattr(szegedy, "build_kl", perturbed)
    inst = load_bundled("k3_loops")
    with pytest.raises(NumericalError, match=r"K L\* - J0"):
        build_walk(inst.graph, inst.weights)


def test_build_walk_peak_memory():
    # Each alternative U is masked in place and dropped once checked, so
    # the peak stays a small multiple of one dense m' x m' array: 6.5 of
    # them with numpy 2.4, 8.5 if the masks copied (np.where) instead.
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
