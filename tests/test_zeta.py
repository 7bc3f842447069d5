from __future__ import annotations

import cmath
import math
import tracemalloc

import numpy as np
import pytest

from qszegedy import zeta
from qszegedy.errors import ValidationError
from qszegedy.graph import build_graph
from qszegedy.instances import load_bundled, parse_graph_spec
from qszegedy.qmatrix import QMatrix, psi
from qszegedy.szegedy import build_walk, random_instance
from qszegedy.zeta import (
    _arc_matrix,
    default_samples,
    ihara_identity,
    quaternionic_identity,
    second_weighted_identity,
    sylvester_det_property,
    verify_walk,
)

SQ2 = math.sqrt(2.0)


def _k3():
    return build_graph(3, [(0, 1), (1, 2), (2, 0)])


def _degree_samples(x_size, v_size, e, l):
    """The ``D + 1`` points ``exp(2 pi i (k + 1/4) / (D + 1))`` for the
    Bass form's degree bound ``D = size(X) + 2 size(V) + 2|e| + 2l``.

    Both sides have degree at most D, so agreement at these points is
    agreement as polynomials in t; none of the points is +-1.
    """
    count = x_size + 2 * v_size + 2 * abs(e) + 2 * l + 1
    return [cmath.exp(2j * cmath.pi * (k + 0.25) / count)
            for k in range(count)]


def _bass_samples(g):
    """Degree samples of the Ihara and second weighted identities."""
    return _degree_samples(g.m_prime, g.n, g.m0 - g.n, 0)


def test_default_samples_layout():
    samples = default_samples(4)
    assert len(samples) == 5
    assert samples[-1] == 0j
    assert all(abs(abs(t) - 0.25) <= 1e-15 for t in samples[:-1])
    with pytest.raises(ValidationError):
        default_samples(0)


def test_samples_near_prefactor_zeros_rejected():
    with pytest.raises(ValidationError, match="prefactor zeros"):
        ihara_identity(_k3(), t_samples=[0.5, 1.0])


def test_edge_matrix_excludes_nothing_but_nonadjacent():
    g = _k3()
    b = _arc_matrix(g, g.adjacency()) + np.eye(g.m_prime)[g.inverse]
    # B counts tail-to-head incidences including backtracking.
    assert b[0, 2] == 1.0  # (0,1) then (1,2)
    assert b[0, 1] == 1.0  # (0,1) then (1,0): backtracking included
    assert b[0, 4] == 0.0  # (0,1) then (2,0): not incident


def test_ihara_triangle_frozen_value():
    # Adjacency spectrum of the triangle is {2, -1, -1}, so both sides
    # equal (1-t)^2 (1+t+t^2)^2 = 49/64 at t = 1/2.
    check = ihara_identity(_k3(), t_samples=[0.5])
    assert check.passed
    assert abs(check.lhs[0] - 49.0 / 64.0) <= 1e-12
    assert abs(check.rhs[0] - 49.0 / 64.0) <= 1e-12


def test_ihara_square_cycle_frozen_value():
    # C4 spectrum {2, 0, 0, -2}: product is (1-t)^2 (1+t)^2 (1+t^2)^2.
    g = build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    check = ihara_identity(g, t_samples=[0.5])
    assert check.passed
    assert abs(check.lhs[0] - 225.0 / 256.0) <= 1e-12


def test_ihara_tree_cross_multiplied():
    # Single edge: the arc side is constant 1 and m - n = -1 moves the
    # (1 - t^2) factor onto the arc side; both sides become 1 - t^2.
    g = build_graph(2, [(0, 1)])
    check = ihara_identity(g, t_samples=[0.3])
    assert check.passed
    assert abs(check.lhs[0] - 0.91) <= 1e-12
    assert abs(check.rhs[0] - 0.91) <= 1e-12


def test_ihara_rejects_loops_and_disconnection():
    with pytest.raises(ValidationError, match="loopless"):
        ihara_identity(load_bundled("k3_loops").graph)
    # Disconnection is no reason to reject: both sides factor over P2 + P2.
    assert ihara_identity(build_graph(4, [(0, 1), (2, 3)])).passed


def test_ihara_as_a_polynomial_identity():
    samples = _bass_samples(_k3())
    assert len(samples) == 13  # D = 6 + 2 * 3
    check = ihara_identity(_k3(), samples)
    assert check.passed
    assert len(check.samples) == 13
    assert check.max_rel_error <= 1e-10


def test_second_weighted_reduces_to_ihara():
    g = build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
    samples = [0.3, 0.2 + 0.1j, 0j]
    base = ihara_identity(g, t_samples=samples)
    reduced = second_weighted_identity(g, g.adjacency(), t_samples=samples)
    assert reduced.passed
    # Ihara is the weighted form at w = A: the same sides, bit for bit.
    assert reduced.lhs == base.lhs
    assert reduced.rhs == base.rhs


def test_second_weighted_random_weights():
    rng = np.random.default_rng(5)
    for g in (_k3(), build_graph(3, [(0, 1), (1, 2)])):
        w = np.where(
            g.arc_mask(),
            rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)),
            0.0,
        )
        samples = _bass_samples(g)
        check = second_weighted_identity(g, w, samples)
        assert check.passed, check.max_rel_error
        assert len(check.samples) == len(samples) == 13
        assert check.max_rel_error <= 1e-8


def test_second_weighted_rejects_off_arc_support():
    g = build_graph(3, [(0, 1), (1, 2)])
    w = np.ones((3, 3), dtype=complex)  # (0,2) is not an arc
    with pytest.raises(ValidationError, match="non-arc"):
        second_weighted_identity(g, w)
    with pytest.raises(ValidationError, match="3 x 3"):
        second_weighted_identity(g, np.ones((2, 2)))


def test_quaternionic_identity_matches_frozen_spectrum():
    # For the triangle-with-loops walk the arc-side determinant is the
    # characteristic-like product over the known psi(U) spectrum.
    inst = load_bundled("k3_loops")
    graph = inst.graph
    ops = build_walk(graph, inst.weights)
    a = ops.q * SQ2
    b = a[graph.inverse]
    samples = [0.5, 0.25]
    check = quaternionic_identity(graph, a, b, t_samples=samples)
    assert check.passed
    lam1 = complex(-1 / 3, 2 * SQ2 / 3)
    lam2 = complex(2 / 3, math.sqrt(5) / 3)
    for t, lhs in zip(check.samples, check.lhs):
        product = (
            (1 + t) ** 6
            * abs(1 - t * lam1) ** 4
            * abs(1 - t * lam2) ** 8
        )
        assert abs(lhs - product) <= 1e-10 * abs(product)


def test_quaternionic_identity_random_nonunitary():
    rng = np.random.default_rng(17)

    def draw(m):
        return rng.standard_normal((m, 4))

    # D = 2 m' + 4 n + 2 |2 m0 - 2 n| + 4 m1, and D + 1 samples.
    for maker, count in (
        (lambda: build_graph(3, [(0, 1), (1, 2)], loops=[1]), 31),
        (lambda: build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]),
         41),
        (_k3, 25),
    ):
        g = maker()
        samples = _degree_samples(2 * g.m_prime, 2 * g.n,
                                  2 * g.m0 - 2 * g.n, 2 * g.m1)
        check = quaternionic_identity(
            g, draw(g.m_prime), draw(g.m_prime), samples
        )
        assert check.passed, (g.n, check.max_rel_error)
        assert len(check.samples) == len(samples) == count


def test_quaternionic_identity_checks_map_shape():
    g = build_graph(2, [(0, 1)], loops=[0])  # arcs (0,1), (1,0), (0,0)
    a = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]]
    b = [[2, 0, 0, 0], [0, 0, 0, 1], [1, 1, 0, 0]]
    assert quaternionic_identity(g, a, b).passed
    with pytest.raises(ValidationError, match="'a': expected 3 entries"):
        quaternionic_identity(g, [[1, 0, 0, 0]], b)
    with pytest.raises(ValidationError, match="'b': expected 3 entries"):
        quaternionic_identity(g, a, [row[:3] for row in b])


def test_quaternionic_identity_fails_on_a_nan_determinant():
    # Weights of 1e160 overflow the determinants to NaN; a NaN error must
    # fail the check, not vanish from the maximum.
    inst = load_bundled("k4")
    a = inst.weights * 1e160 * SQ2
    b = a[inst.graph.inverse]
    with np.errstate(all="ignore"):
        check = quaternionic_identity(inst.graph, a, b)
    assert not check.passed
    assert math.isnan(check.max_rel_error)


def test_sylvester_rectangular_frozen():
    a = np.array([[1.0, 2.0]])
    b = np.array([[3.0], [4.0]])
    check = sylvester_det_property(a, b, 2.0)
    assert check.passed
    # det(2 - 11) * 2^2 = -36 and 2^1 * det(2I - BA) = 2 * (-18) = -36.
    assert abs(check.lhs[0] - (-36.0)) <= 1e-12
    assert abs(check.rhs[0] - (-36.0)) <= 1e-12


def test_sylvester_alpha_zero_and_random():
    rng = np.random.default_rng(23)
    for _ in range(20):
        m, n = rng.integers(1, 6, size=2)
        a = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
        b = rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))
        for alpha in (0.0, 1.0, complex(rng.standard_normal(), rng.standard_normal())):
            assert sylvester_det_property(a, b, alpha).passed
    with pytest.raises(ValidationError, match="m x n"):
        sylvester_det_property(np.ones((2, 2)), np.ones((3, 2)), 1.0)


def test_sylvester_large_m_in_log_form():
    # det(2i I - AB) has modulus about 2^1200, past the float range, as
    # does (2i)^m; the log-form comparison neither overflows nor raises.
    rng = np.random.default_rng(5)
    m, n = 1200, 6
    a = (rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))) / 40
    b = (rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))) / 40
    check = sylvester_det_property(a, b, 2j)
    assert check.passed and check.max_rel_error <= 1e-10
    check = sylvester_det_property(a, b, 0.0)
    assert check.passed and check.max_rel_error == 0.0


def _perturbed(monkeypatch, name, make):
    real = getattr(zeta, name)
    monkeypatch.setattr(zeta, name, lambda *args: make(real(*args)))


@pytest.mark.parametrize("which", ["ihara", "second-weighted"])
def test_perturbed_arc_side_fails(monkeypatch, which):
    # The arc matrix Bw - J0 feeds only the arc side, so 1e-3 on it must
    # fail the comparison: the evaluator cannot be comparing a side with
    # itself.
    g = build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
    w = g.adjacency() * (1.0 + 0.5j)
    check = (
        (lambda: ihara_identity(g)) if which == "ihara"
        else (lambda: second_weighted_identity(g, w))
    )
    assert check().passed
    _perturbed(monkeypatch, "_arc_matrix", lambda x: x + 1e-3)
    result = check()
    assert not result.passed and result.max_rel_error > 1e-5


def test_quaternionic_perturbed_arc_side_fails(monkeypatch):
    inst = load_bundled("k3_loops")
    graph = inst.graph
    ops = build_walk(graph, inst.weights)
    a = [q * SQ2 for q in ops.q]
    b = [ops.q[graph.inverse_index(r)] * SQ2 for r in range(graph.m_prime)]
    assert quaternionic_identity(graph, a, b).passed
    # K enters both sides, and the identity holds for every (K, L), so a
    # perturbed K still passes.
    _perturbed(monkeypatch, "build_kl", lambda kl: (
        kl[0] + QMatrix(np.full(kl[0].shape, 1e-3)), kl[1]
    ))
    assert quaternionic_identity(graph, a, b).passed
    monkeypatch.undo()
    # psi(K L* - J0) is the only 2m' x 2m' embedding: perturb it alone.
    _perturbed(monkeypatch, "psi", lambda c: (
        c + 1e-3 if c.shape[0] == 2 * graph.m_prime else c
    ))
    result = quaternionic_identity(graph, a, b)
    assert not result.passed and result.max_rel_error > 1e-5


@pytest.mark.parametrize("spec", ["C40", "K8+loops", "K10"])
def test_verify_walk_peak_memory(spec):
    # Each determinant row reuses one buffer across its samples, so the
    # peak is X, that buffer and n-sized arrays: 2.2 to 3.2 arrays of
    # (2m')^2 complex values with numpy 2.4, against 4.8 to 6.4 when
    # every sample formed I - tX and its temporaries afresh.
    graph = parse_graph_spec(spec)
    weights = random_instance(graph, 3)
    unit = (2 * graph.m_prime) ** 2 * np.dtype(complex).itemsize
    tracemalloc.start()
    try:
        verify_walk(graph, weights)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3.5 * unit


def test_verify_quaternionic_row_reads_the_walks_psi_w(monkeypatch):
    # The row's psi(W) operand is the array the walk keeps, not a copy.
    walks, operands = [], []

    def kept_walk(*args):
        walks.append(build_walk(*args))
        return walks[-1]

    bass_identity = zeta._bass_identity

    def seen(name, x, v, *rest):
        operands.append((name, v))
        return bass_identity(name, x, v, *rest)

    monkeypatch.setattr(zeta, "build_walk", kept_walk)
    monkeypatch.setattr(zeta, "_bass_identity", seen)
    inst = load_bundled("k3_loops")
    assert verify_walk(inst.graph, inst.weights).passed
    (walk,) = walks
    assert operands[0][0] == "quaternionic"
    assert operands[0][1] is walk.psi_W


# K6's 2m' x 2m' matrices (57.6 KB) are below the 256 KB at which numpy
# reuses temporaries in place, C80's (1.6 MB) above it.
@pytest.mark.parametrize("spec", ["K6", "C80"])
def test_reused_buffers_give_the_bits_of_fresh_matrices(monkeypatch, spec):
    graph = parse_graph_spec(spec)
    ops = build_walk(graph, random_instance(graph, 1))
    size = 2 * graph.m_prime
    embeddings, arc_sides = [], []

    def keep_x(c):
        out = psi(c)
        if out.shape[0] == size:
            embeddings.append(out)
        return out

    det = np.linalg.det

    def keep_arc_side(c):
        if c.shape[0] == size:
            arc_sides.append(c.copy())
        return det(c)

    monkeypatch.setattr(zeta, "psi", keep_x)
    monkeypatch.setattr(np.linalg, "det", keep_arc_side)
    a = ops.q * SQ2
    check = quaternionic_identity(graph, a, a[graph.inverse])
    monkeypatch.undo()
    (x,) = embeddings
    fresh = [np.eye(size) - t * x for t in check.samples]
    # The same bytes, signed zeros included.
    assert [c.tobytes() for c in arc_sides] == [c.tobytes() for c in fresh]
    assert 2 * graph.m0 - 2 * graph.n >= 0  # no prefactor on the arc side
    assert check.lhs == tuple(complex(det(c)) for c in fresh)

    # verify's Sylvester rows: alpha I - AB, then alpha I - BA.
    a, b = psi(ops.K), psi(ops.L).conj().T
    m, n = a.shape
    ab, ba = a @ b, b @ a
    slogdet = np.linalg.slogdet
    seen = []

    def keep_row(c):
        row = slogdet(c)
        seen.append((c.copy(), tuple(row)))
        return row

    monkeypatch.setattr(np.linalg, "slogdet", keep_row)
    alphas = [2j] + default_samples(radius=1.0)
    zeta._sylvester_rows(a, b, alphas)
    monkeypatch.undo()
    fresh = [alpha * np.eye(k) - product
             for alpha in alphas for k, product in ((m, ab), (n, ba))]
    # Equal entries; only the sign of a zero off the diagonal may differ.
    assert len(seen) == len(fresh)
    for (c, row), f in zip(seen, fresh):
        assert np.array_equal(c, f)
        assert row == tuple(slogdet(f))
