"""Property-based gate over graph space, disconnected graphs included.

A drawn graph has n <= 10 vertices in one to three components.  Each
component is a random spanning tree plus extra edges; any subset of the
vertices carries a loop, and every isolated vertex does (without one it
has no arc and can never meet the unitarity condition).  Weights are
``random_instance`` at a drawn seed or the real, degenerate
``uniform_weights``.  A disconnected graph is the direct sum of its
components: W is block diagonal and both signed counts of the Bass
prefactor add over components, so every invariant below holds for it
exactly as for a connected one.

A second draw has the same shape at 15 to 40 vertices, with the pairs
outside the spanning trees joined at a drawn density, so that the
oracle, the lifts and the determinant rows run at m' in the hundreds.
"""

from __future__ import annotations

import json
import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qszegedy.graph import build_graph
from qszegedy.qmatrix import h_linear_independent
from qszegedy.szegedy import (
    build_walk,
    check_pm1_eigenspaces,
    full_spectrum,
    match_multisets,
    random_instance,
    uniform_weights,
    verify_structure,
)
from qszegedy.zeta import ihara_identity, quaternionic_identity

TOL = 1e-8
TRIANGLE = [(0, 1), (1, 2), (2, 0)]


@st.composite
def graphs(draw):
    components = draw(st.integers(1, 3))
    n = draw(st.integers(components, 10))
    # Vertex labels are shuffled, so components interleave.
    labels = draw(st.permutations(range(n)))
    cuts = sorted(draw(
        st.sets(st.integers(1, n - 1), min_size=components - 1,
                max_size=components - 1)
    )) if components > 1 else []
    edges, isolated = [], []
    for start, stop in zip([0] + cuts, cuts + [n]):
        part = labels[start:stop]
        if len(part) == 1:
            isolated.append(part[0])
        tree = [(part[draw(st.integers(0, i - 1))], part[i])
                for i in range(1, len(part))]
        others = [(u, v) for i, u in enumerate(part) for v in part[i + 1:]
                  if (u, v) not in tree and (v, u) not in tree]
        extra = draw(st.integers(0, 2 ** len(others) - 1))  # a subset mask
        edges += tree + [e for k, e in enumerate(others) if extra >> k & 1]
    # Shuffled edge order, each edge in a drawn orientation.
    flips = draw(st.integers(0, 2 ** len(edges) - 1))
    edges = [
        (v, u) if flips >> k & 1 else (u, v)
        for k, (u, v) in enumerate(draw(st.permutations(edges)))
    ]
    loops = draw(st.integers(0, 2 ** n - 1)) if draw(st.booleans()) else 0
    loops = [v for v in range(n) if loops >> v & 1 or v in isolated]
    return build_graph(n, edges, loops)


def _large_case(seed):
    """A graph of 15 to 40 vertices in the shape of :func:`graphs`, its
    pairs outside the spanning trees joined at a drawn density, and a
    weight seed (None for uniform weights), all from one seed."""
    rnd = random.Random(seed)
    components = rnd.randint(1, 3)
    n = rnd.randint(15, 40)
    density = rnd.uniform(0.05, 0.2)
    labels = rnd.sample(range(n), n)
    cuts = sorted(rnd.sample(range(1, n), components - 1))
    edges, isolated = [], []
    for start, stop in zip([0] + cuts, cuts + [n]):
        part = labels[start:stop]
        if len(part) == 1:
            isolated.append(part[0])
        tree = [(part[rnd.randrange(i)], part[i])
                for i in range(1, len(part))]
        linked = set(tree) | {(v, u) for u, v in tree}
        edges += tree + [(u, v) for i, u in enumerate(part)
                         for v in part[i + 1:]
                         if (u, v) not in linked and rnd.random() < density]
    rnd.shuffle(edges)
    edges = [(v, u) if rnd.random() < 0.5 else (u, v) for u, v in edges]
    share = rnd.choice([0.0, 0.2, 1.0])  # no, some or all vertices
    loops = [v for v in range(n) if v in isolated or rnd.random() < share]
    weight_seed = rnd.choice([None, rnd.getrandbits(32)])
    return build_graph(n, edges, loops), weight_seed


# Hypothesis draws one seed per case: with the many per-pair choices
# drawn from its own stream, derandomised runs repeat small graphs.
large_cases = st.integers(0, 2**32 - 1).map(_large_case)


def _weights(graph, seed):
    if seed is None:
        return uniform_weights(graph)
    return random_instance(graph, seed)


def _closed_under_conjugation(values) -> bool:
    """A psi spectrum: conjugate-closed, with its real values (+-1 for a
    unitary walk) each of even multiplicity."""
    values = list(values)
    if not match_multisets(values, [z.conjugate() for z in values], TOL)[1]:
        return False
    reals = [z.real for z in values if abs(z.imag) <= TOL]
    counts = [sum(abs(r - t) <= TOL for r in reals) for t in (1.0, -1.0)]
    return sum(counts) == len(reals) and all(c % 2 == 0 for c in counts)


@settings(max_examples=120, deadline=None)
@example(graph=build_graph(6, TRIANGLE + [(3, 4), (4, 5), (5, 3)]), seed=1)
@example(graph=build_graph(6, TRIANGLE + [(3, 4), (4, 5), (5, 3)]), seed=None)
# K3 + P2: the +1 count 2 m0 - 2 n is -2 with no tree core.
@example(graph=build_graph(5, TRIANGLE + [(3, 4)]), seed=2)
@example(graph=build_graph(5, [(0, 1), (1, 2), (3, 4)]), seed=3)
@example(graph=build_graph(5, [(0, 1), (1, 2), (3, 4)], [0, 4]), seed=None)
@example(graph=build_graph(4, TRIANGLE, [3]), seed=4)
@example(graph=build_graph(2, [], [0, 1]), seed=5)
@given(graph=graphs(), seed=st.none() | st.integers(0, 2**32 - 1))
def test_invariants_over_graph_space(graph, seed):
    _assert_invariants(graph, seed)


# 40 cases, up to m' = 300 or so, take about 8 s on two cores.
@settings(max_examples=40, deadline=None)
@given(case=large_cases)
def test_invariants_over_larger_graphs(case):
    _assert_invariants(*case)


def _assert_invariants(graph, seed):
    weights = _weights(graph, seed)
    report = full_spectrum(
        graph, weights, want_oracle=True, want_eigenvectors=True, tol=TOL
    )
    m = graph.m_prime
    assert report.oracle.matched, report.oracle.max_distance
    assert sum(c.multiplicity for c in report.classes) == m
    assert _closed_under_conjugation(report.psi_u_spectrum)
    assert _closed_under_conjugation(report.oracle.direct_spectrum)

    vectors = report.eigenvectors
    assert len(vectors) == m
    assert h_linear_independent([item.vector for item in vectors])
    assert all(item.relative_residual <= TOL for item in vectors)

    ops = build_walk(graph, weights)
    assert all(count.ok for count in check_pm1_eigenspaces(ops))
    assert verify_structure(ops).passed
    a = ops.q * math.sqrt(2.0)
    b = a[graph.inverse]
    assert quaternionic_identity(graph, a, b, tol=TOL).passed
    # Ihara on the loopless core, which may be edgeless or have isolated
    # vertices.
    assert ihara_identity(build_graph(graph.n, graph.edges), tol=TOL).passed

    data = report.to_dict()
    assert json.loads(json.dumps(data)) == data


@pytest.mark.parametrize(
    "n, edges, loops, label",
    [
        (5, [(0, 1), (1, 2), (3, 4)], [], "forest"),
        (5, [(0, 1), (1, 2), (3, 4)], [2], "forest-with-loops"),
        (2, [], [0, 1], "forest-with-loops"),
        (5, TRIANGLE + [(3, 4)], [], "non-tree"),
        (4, TRIANGLE, [3], "non-tree"),
        (3, [(0, 1), (1, 2)], [], "tree"),
        (1, [], [0], "tree-with-loops"),
    ],
)
def test_tree_case_reads_acyclic_core(n, edges, loops, label):
    # tree/forest: the loopless core is acyclic, m0 = n - components.
    graph = build_graph(n, edges, loops)
    assert full_spectrum(graph, _weights(graph, None)).tree_case == label
