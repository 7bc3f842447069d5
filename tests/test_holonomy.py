"""Spectra known in closed form, and relations that must keep a spectrum.

A cycle C_n with uniform weights and one arc rotated by the unit
quaternion ``r = cos theta + sin theta u`` has holonomy ``r``, and
``psi(W)`` then has exactly the eigenvalues ``2cos((2 pi k +- theta)/n)``,
k = 0..n-1.  Holonomy ``-r`` puts ``theta + pi`` in place of ``theta``.

Over ``tests/test_graph_space.py``'s graphs, a gauge and a vertex
relabelling keep the walk spectrum, and a disjoint union has the union
of its parts' spectra.  These relations reach the parts the oracle
shares with the theorem path (the graph, the weight checks and the
direct entries), which the ``theorem == oracle`` gate cannot see.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qszegedy.graph import build_graph
from qszegedy.quaternion import Quaternion
from qszegedy.szegedy import full_spectrum, match_multisets, uniform_weights
from holonomy import (
    apply_gauge,
    disjoint_union,
    qmul,
    random_units,
    relabel,
    rotate_arc,
    unit,
)
from test_graph_space import _weights, graphs

#: A fixed pure unit quaternion axis, off the coordinate axes.
AXIS = (1.0, 2.0, 2.0)
#: How far two computations of the same spectrum may differ.
CLOSE = 1e-12

seeds = st.none() | st.integers(0, 2**32 - 1)


def _cycle(n: int):
    return build_graph(n, [(k, (k + 1) % n) for k in range(n)])


def test_qmul_is_the_hamilton_product():
    rng = np.random.default_rng(3)
    p, q = rng.standard_normal((2, 5, 4))
    got = qmul(p, q)
    for row, a, b in zip(got, p, q):
        assert tuple(row) == (Quaternion(*a) * Quaternion(*b)).components


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("theta", [0.0, 1e-3, 1e-2, math.pi / 3])
@pytest.mark.parametrize("n", [3, 10, 101])
def test_rotated_cycle_closed_form(n, theta, sign):
    graph = _cycle(n)
    weights = rotate_arc(uniform_weights(graph), 0, sign * unit(theta, AXIS))
    phi = theta if sign > 0 else theta + math.pi
    k = 2 * math.pi * np.arange(n)
    want = np.sort(2 * np.cos(np.concatenate([k + phi, k - phi]) / n))
    report = full_spectrum(graph, weights, want_oracle=True)
    assert np.max(np.abs(np.array(report.mu_spectrum) - want)) <= CLOSE
    assert report.oracle.matched, report.oracle.max_distance


def _assert_same_spectrum(report, other):
    """The same classes with the same multiplicities, ``mu`` and reps
    within ``CLOSE``, and the same oracle verdict."""
    assert ([c.multiplicity for c in other.classes]
            == [c.multiplicity for c in report.classes])
    for mine, theirs in zip(report.classes, other.classes):
        assert abs(mine.rep - theirs.rep) <= CLOSE
    assert np.max(np.abs(np.subtract(report.mu_spectrum,
                                     other.mu_spectrum))) <= CLOSE
    assert other.oracle.matched == report.oracle.matched


@settings(max_examples=100, deadline=None)
@given(graph=graphs(), seed=seeds, gauge=st.integers(0, 2**32 - 1))
def test_gauge_keeps_the_spectrum(graph, seed, gauge):
    weights = _weights(graph, seed)
    rng = np.random.default_rng(gauge)
    c = random_units(rng, graph.m0 + graph.m1)
    d = random_units(rng, graph.n)
    report = full_spectrum(graph, weights, want_oracle=True)
    gauged = full_spectrum(graph, apply_gauge(graph, weights, c, d),
                           want_oracle=True)
    assert report.oracle.matched
    _assert_same_spectrum(report, gauged)


@settings(max_examples=100, deadline=None)
@given(graph=graphs(), seed=seeds, order=st.integers(0, 2**32 - 1))
def test_relabelling_keeps_the_spectrum(graph, seed, order):
    weights = _weights(graph, seed)
    perm = np.random.default_rng(order).permutation(graph.n)
    report = full_spectrum(graph, weights, want_oracle=True)
    moved = full_spectrum(relabel(graph, perm), weights, want_oracle=True)
    assert report.oracle.matched
    _assert_same_spectrum(report, moved)


@settings(max_examples=60, deadline=None)
@given(first=graphs(), first_seed=seeds, second=graphs(), second_seed=seeds)
def test_disjoint_union_joins_the_spectra(first, first_seed, second,
                                          second_seed):
    parts = [full_spectrum(g, _weights(g, s))
             for g, s in ((first, first_seed), (second, second_seed))]
    graph, weights = disjoint_union(first, _weights(first, first_seed),
                                    second, _weights(second, second_seed))
    report = full_spectrum(graph, weights, want_oracle=True)
    want = np.sort(np.concatenate([part.mu_spectrum for part in parts]))
    assert np.max(np.abs(np.array(report.mu_spectrum) - want)) <= CLOSE
    assert match_multisets(
        report.psi_u_spectrum,
        [z for part in parts for z in part.psi_u_spectrum], CLOSE,
    )[1]
    assert report.oracle.matched, report.oracle.max_distance
