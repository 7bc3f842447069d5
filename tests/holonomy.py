"""Weight transformations with a known effect on the walk spectrum.

Weights are ``(m', 4)`` component arrays in canonical arc order.  Each
transformation returns new arrays (and a new graph where the graph
changes); none of them touches the input.

* :func:`rotate_arc` right-multiplies one arc's weight by a unit
  quaternion ``r``.  Norms, and so unitarity, are unchanged; W's entry
  for that edge is multiplied by ``r`` and the reverse entry by ``r*``,
  so every cycle through the edge has its holonomy multiplied by ``r``.
* :func:`apply_gauge` sets ``q'(e) = c(edge) q(e) d(o(e))`` for unit
  ``c`` (one per edge, equal on both arcs; one per loop) and unit ``d``
  (one per vertex).  Then ``W' = D* W D``, which has W's spectrum.
* :func:`relabel` renames the vertices; the arc order, and with it the
  weight array, stays as it is.
* :func:`disjoint_union` places two weighted graphs side by side.
"""

from __future__ import annotations

import numpy as np

from qszegedy.graph import build_graph


def qmul(p, q) -> np.ndarray:
    """Hamilton products of ``(..., 4)`` component arrays, broadcast."""
    p0, p1, p2, p3 = np.moveaxis(np.asarray(p, dtype=float), -1, 0)
    q0, q1, q2, q3 = np.moveaxis(np.asarray(q, dtype=float), -1, 0)
    return np.stack([
        p0 * q0 - p1 * q1 - p2 * q2 - p3 * q3,
        p0 * q1 + p1 * q0 + p2 * q3 - p3 * q2,
        p0 * q2 - p1 * q3 + p2 * q0 + p3 * q1,
        p0 * q3 + p1 * q2 - p2 * q1 + p3 * q0,
    ], axis=-1)


def unit(theta: float, axis) -> np.ndarray:
    """The unit quaternion ``cos theta + sin theta u``, with ``u`` the
    normalised pure quaternion of the three components ``axis``."""
    u = np.asarray(axis, dtype=float)
    u = u / np.linalg.norm(u)
    return np.concatenate([[np.cos(theta)], np.sin(theta) * u])


def random_units(rng: np.random.Generator, count: int) -> np.ndarray:
    """``count`` unit quaternions, uniform on the 3-sphere."""
    x = rng.standard_normal((count, 4))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def rotate_arc(weights, arc: int, r) -> np.ndarray:
    """The weights with arc ``arc``'s weight right-multiplied by ``r``."""
    out = np.array(weights, dtype=float)
    out[arc] = qmul(out[arc], r)
    return out


def edge_of_arc(graph) -> np.ndarray:
    """Each arc's edge: ``e // 2`` for the non-loop arcs, then the loops
    numbered ``m0 .. m0 + m1 - 1``."""
    arcs = np.arange(graph.m_prime)
    return np.where(arcs < 2 * graph.m0, arcs // 2, arcs - graph.m0)


def apply_gauge(graph, weights, c, d) -> np.ndarray:
    """``q'(e) = c(edge(e)) q(e) d(o(e))``: ``c`` is ``(m0 + m1, 4)`` and
    ``d`` is ``(n, 4)``, both of unit quaternions."""
    c = np.asarray(c, dtype=float)[edge_of_arc(graph)]
    d = np.asarray(d, dtype=float)[graph.origin]
    return qmul(qmul(c, weights), d)


def relabel(graph, perm):
    """The graph with vertex ``v`` renamed ``perm[v]``, edges and loops in
    the same order and orientation, so the weights carry over as they
    are."""
    perm = [int(v) for v in perm]
    return build_graph(
        graph.n,
        [(perm[u], perm[v]) for u, v in graph.edges],
        [perm[v] for v in graph.loops],
    )


def disjoint_union(first, first_weights, second, second_weights):
    """The union of two weighted graphs, the second's vertices shifted by
    ``first.n``, with its weights in the union's canonical arc order
    (both graphs' edge arcs, then both graphs' loops)."""
    shift = first.n
    graph = build_graph(
        first.n + second.n,
        list(first.edges) + [(u + shift, v + shift) for u, v in second.edges],
        list(first.loops) + [v + shift for v in second.loops],
    )
    k1, k2 = 2 * first.m0, 2 * second.m0
    weights = np.concatenate([
        first_weights[:k1], second_weights[:k2],
        first_weights[k1:], second_weights[k2:],
    ])
    return graph, weights
