"""Base spectra known in closed form, on graphs larger than the bundled
ones, under a random gauge.

With uniform weights on a d-regular graph, ``W = (2/d) A``, and a gauge
``q'(e) = c(edge) q(e) d(o(e))`` keeps W's spectrum while making every
weight a full quaternion.  So ``mu_spectrum`` is ``2/d`` times the
adjacency spectrum, each value ``psi``-doubled:

* the hypercube Q_k: ``2(k - 2i)/k`` with psi count ``2 C(k, i)``;
* K_n: ``2`` once and ``-2/(n - 1)`` for the other ``n - 1``;
* K_n with a loop on every vertex (``W = (2/n) J``): ``2`` once and ``0``
  for the other ``n - 1``.

The walk's +1 eigenspace of a connected graph has dimension
``m0 - n + 2`` and its -1 eigenspace ``m0 + m1 - n + 2b``, with ``b`` 1
for a bipartite loopless graph and 0 otherwise.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from qszegedy.graph import build_graph
from qszegedy.instances import parse_graph_spec
from qszegedy.szegedy import build_walk, check_pm1_eigenspaces, uniform_weights
from holonomy import apply_gauge, random_units

#: How far a computed base eigenvalue may lie from its closed form.
CLOSE = 1e-12


def _hypercube(k: int):
    n = 2**k
    edges = [(u, u ^ (1 << b)) for u in range(n) for b in range(k)
             if u < u ^ (1 << b)]
    return build_graph(n, edges)


def _cases():
    """``(label, graph, closed-form mu values with psi counts, b)``."""
    for k in range(2, 7):
        yield (f"Q{k}", _hypercube(k),
               [(2 * (k - 2 * i) / k, 2 * math.comb(k, i))
                for i in range(k + 1)], 1)
    for n in (5, 8):
        yield f"K{n}", parse_graph_spec(f"K{n}"), [
            (2.0, 2), (-2 / (n - 1), 2 * (n - 1))], 0
        yield f"K{n}+loops", parse_graph_spec(f"K{n}+loops"), [
            (2.0, 2), (0.0, 2 * (n - 1))], 0


CASES = list(_cases())


@pytest.fixture(params=CASES, ids=[case[0] for case in CASES])
def case(request):
    label, graph, closed_form, bipartite = request.param
    rng = np.random.default_rng(sum(map(ord, label)))
    weights = apply_gauge(graph, uniform_weights(graph),
                          random_units(rng, graph.m0 + graph.m1),
                          random_units(rng, graph.n))
    return graph, build_walk(graph, weights), closed_form, bipartite


def test_base_spectrum_matches_closed_form(case):
    graph, ops, closed_form, _ = case
    expected = sorted(mu for mu, count in closed_form for _ in range(count))
    assert len(expected) == 2 * graph.n
    assert np.max(np.abs(np.array(ops.mu_spectrum) - expected)) <= CLOSE


def test_pm1_eigenspaces_match_closed_form(case):
    graph, ops, _, bipartite = case
    plus, minus = check_pm1_eigenspaces(ops)
    assert (plus.lam, minus.lam) == (1.0, -1.0)
    assert plus.ok and minus.ok
    assert plus.multiplicity == graph.m0 - graph.n + 2
    assert minus.multiplicity == graph.m0 + graph.m1 - graph.n + 2 * bipartite
