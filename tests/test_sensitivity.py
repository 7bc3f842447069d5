"""Which checks see a fault: verify's battery and the oracle under
injected errors.

Each row names an injector, a bundled instance and the checks that fail
under it; every other check of that instance must pass.  The checks are
``build_walk``'s cross-check of the three U constructions, verify's rows
(the structure row ``L* J0 L = W``, the determinant identities, the
Sylvester lemma and the +-1 eigenspace counts) and ``spectrum
--oracle``'s match of the theorem path against ``psi(U)``.  When the
cross-check raises, no walk exists and the row ends there.  The
injectors move one value by 1e-6, or relabel:

* ``w-pair``: one Hermitian pair of ``W = L* K``, as
  ``szegedy._adjoint_product`` returns it.  Only the rows that read the
  walk's own W see it; the Sylvester lemma reads K and L alone.
* ``psi-u``: one entry of the oracle's ``psi(U)``.  No verify row reads
  that matrix, so only the oracle sees it.
* ``phase``: the phase of both values of ``spectral_map``.
* ``l-columns``: ``szegedy._l_matrix`` scatters into the vertex columns
  with 0 and 1 swapped, and K, its row gather, with it.  That relabels
  the vertices consistently, so W keeps its spectrum; only the
  cross-check, which decides the support of ``K L* - J0`` from K's and
  L's non-zero entries, sees it.
"""

from __future__ import annotations

import cmath

import numpy as np
import pytest

from qszegedy import szegedy
from qszegedy.cli import main
from qszegedy.errors import NumericalError
from qszegedy.instances import load_bundled
from qszegedy.zeta import verify_walk

DELTA = 1e-6


def _w_pair(adjoint_product):
    def moved(L, K):
        W = adjoint_product(L, K)
        W.a[0, 1] += DELTA
        W.a[1, 0] += DELTA
        return W
    return moved


def _psi_u_entry(psi_u):
    def moved(graph, q):
        out = psi_u(graph, q)
        out[0, 0] += DELTA
        return out
    return moved


def _phase(spectral_map):
    turn = cmath.exp(1j * DELTA)

    def moved(mu):
        lam_plus, lam_minus = spectral_map(mu)
        return lam_plus * turn, lam_minus * turn.conjugate()
    return moved


def _l_columns(l_matrix):
    def relabelled(graph, q):
        L = l_matrix(graph, q)
        swap = np.arange(graph.n)
        swap[[0, 1]] = [1, 0]
        return type(L)._adopt(L.a[:, swap], L.b[:, swap])
    return relabelled


INJECTORS = {
    "w-pair": ("_adjoint_product", _w_pair),
    "psi-u": ("_psi_u", _psi_u_entry),
    "phase": ("spectral_map", _phase),
    "l-columns": ("_l_matrix", _l_columns),
}

#: ``(injector, instance, checks that fail)``; all other checks pass.
ROWS = [
    ("w-pair", "k3_loops", {"L* J0 L = W", "quaternionic", "oracle"}),
    ("psi-u", "k4", {"oracle"}),
    ("psi-u", "k3_loops", {"oracle"}),
    # At +-2 the turned value is no longer +-1: the counts see it too.
    ("phase", "k4", {"oracle", "eigenspaces"}),
    ("phase", "c5", {"oracle", "eigenspaces"}),
    ("phase", "k3_loops", {"oracle"}),
    ("l-columns", "k4", {"cross-check"}),
]


def _checks(name: str) -> dict[str, bool]:
    """Each check of one bundled instance, by name: passed or not.  A
    failed cross-check is the only check."""
    instance = load_bundled(name)
    graph, weights = instance.graph, instance.weights
    try:
        szegedy.build_walk(graph, weights)
    except NumericalError:
        return {"cross-check": False}
    report = verify_walk(graph, weights)
    checks = {"cross-check": True}
    checks.update((check.name, check.ok) for check in report.structure.checks)
    checks.update((check.name, check.passed) for check in report.identities)
    checks["sylvester"] = report.sylvester.passed
    checks["eigenspaces"] = all(count.ok for count in report.eigenspaces)
    checks["oracle"] = szegedy.full_spectrum(
        graph, weights, want_oracle=True).oracle.matched
    return checks


def _inject(monkeypatch, injector: str) -> None:
    target, wrap = INJECTORS[injector]
    monkeypatch.setattr(szegedy, target, wrap(getattr(szegedy, target)))


@pytest.mark.parametrize("injector, name, failing", ROWS,
                         ids=[f"{row[0]}-{row[1]}" for row in ROWS])
def test_checks_that_see_the_fault(monkeypatch, injector, name, failing):
    _inject(monkeypatch, injector)
    checks = _checks(name)
    assert {check for check, ok in checks.items() if not ok} == failing
    assert set(checks) > failing or failing == {"cross-check"}


def test_relabelled_l_columns_fail_the_cross_check_on_support(monkeypatch):
    # Column 0 and column 1 both hold three entries of K and of L, so
    # the counts agree; the support differs all the same.
    _inject(monkeypatch, "l-columns")
    instance = load_bundled("k4")
    with pytest.raises(NumericalError, match=(
            r"direct vs K L\* - J0 differ in support \(36 vs 36 entries\)$")):
        szegedy.build_walk(instance.graph, instance.weights)


def test_moved_w_pair_on_k4_stops_verify_in_the_spectral_map(monkeypatch,
                                                              capsys):
    # k4's top base eigenvalue moves past 2 + MU_CLAMP_TOL, so the +-1
    # counts stop on the spectral map's range check before any report.
    _inject(monkeypatch, "w-pair")
    code = main(["verify", "k4"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err.startswith("error: base eigenvalue 2.0000005")
    assert "lies outside [-2, 2]" in captured.err

