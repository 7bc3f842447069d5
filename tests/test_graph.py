from __future__ import annotations

import numpy as np
import pytest

from qszegedy.errors import ValidationError
from qszegedy.graph import build_graph


def test_triangle_with_loops_arc_order():
    g = build_graph(3, [(0, 1), (1, 2), (2, 0)], loops=[0, 1, 2])
    assert (g.n, g.m0, g.m1, g.m_prime) == (3, 3, 3, 9)
    pairs = list(zip(g.origin.tolist(), g.terminus.tolist()))
    # Edge r emits arcs 2r and 2r+1 (the inverse pair); loops follow.
    assert pairs == [
        (0, 1), (1, 0),
        (1, 2), (2, 1),
        (2, 0), (0, 2),
        (0, 0), (1, 1), (2, 2),
    ]
    assert [u == v for u, v in pairs] == [False] * 6 + [True] * 3
    assert [g.arc_index(u, v) for u, v in pairs] == list(range(9))
    assert g.inverse.tolist() == [g.arc_index(v, u) for u, v in pairs]
    for values in (g.origin, g.terminus, g.inverse):
        assert not values.flags.writeable


def test_inverse_index():
    g = build_graph(3, [(0, 1), (1, 2)], loops=[2])
    assert g.inverse_index(0) == 1
    assert g.inverse_index(1) == 0
    assert g.inverse_index(2) == 3
    assert g.inverse_index(4) == 4  # loops are their own inverses


def test_j0_is_an_involution():
    g = build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)], loops=[1])
    j0 = np.eye(g.m_prime)[g.inverse]
    assert j0.shape == (9, 9)
    assert np.array_equal(j0 @ j0, np.eye(9))
    for e in range(g.m_prime):
        assert j0[e, g.inverse_index(e)] == 1.0


def test_adjacency_and_degrees():
    g = build_graph(3, [(0, 1), (1, 2), (2, 0)], loops=[0])
    adj = g.adjacency()
    assert np.array_equal(adj, np.array([[0, 1, 1], [1, 0, 1], [1, 1, 0]]))
    # The loop at 0 is no edge of A: row sums are the loopless degrees,
    # the D of the Ihara identity.
    assert adj.sum(axis=1).tolist() == [2, 2, 2]


def test_arc_mask_and_lookup():
    g = build_graph(3, [(0, 1)], loops=[2])
    mask = g.arc_mask()
    assert mask[0, 1] and mask[1, 0] and mask[2, 2]
    assert not mask[0, 2]
    assert g.has_arc(0, 1) and not g.has_arc(1, 2)
    assert g.arc_index(1, 0) == 1


def test_connectivity_and_tree_core():
    path = build_graph(3, [(0, 1), (1, 2)])
    assert path.is_connected()
    assert path.m0 == path.n - 1 and path.is_connected()
    loops_only = build_graph(2, [], loops=[0, 1])
    assert not loops_only.is_connected()  # loops never join components
    cycle = build_graph(3, [(0, 1), (1, 2), (2, 0)])
    assert not (cycle.m0 == cycle.n - 1 and cycle.is_connected())
    tree_with_loops = build_graph(3, [(0, 1), (1, 2)], loops=[0, 2])
    assert (tree_with_loops.m0 == tree_with_loops.n - 1
            and tree_with_loops.is_connected())
    assert tree_with_loops.m1 == 2


def test_single_vertex_with_loop():
    g = build_graph(1, [], loops=[0])
    assert g.is_connected()
    assert g.m0 == g.n - 1 and g.is_connected()
    assert g.m_prime == 1


@pytest.mark.parametrize(
    "n, edges, loops, fragment",
    [
        (0, [], [], "positive int"),
        (2, [(0, 2)], [], "edge #0"),
        (2, [(0, 0)], [], "loops list"),
        (2, [(0, 1), (1, 0)], [], "duplicate edge"),
        (2, [], [3], "loop #0"),
        (2, [], [1, 1], "duplicate loop"),
        (2, [(0, "x")], [], "edge #0"),
    ],
)
def test_build_graph_validation(n, edges, loops, fragment):
    with pytest.raises(ValidationError, match=fragment):
        build_graph(n, edges, loops)


def test_to_dict_roundtrip_shape():
    g = build_graph(3, [(0, 1), (1, 2)], loops=[1])
    d = g.to_dict()
    assert d == {"n": 3, "edges": [[0, 1], [1, 2]], "loops": [1]}
