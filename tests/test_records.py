"""Value records: field order, immutability, equality, repr and to_dict.

These pin what callers may rely on, whatever form the records take.
"""

from __future__ import annotations

import copy
import pickle
from dataclasses import FrozenInstanceError

import numpy as np
import pytest

from qszegedy.graph import Graph, build_graph
from qszegedy.instances import Instance, instance_to_dict
from qszegedy.qmatrix import MinimalPolynomial, PolyFactor, RootSubspace, qvec
from qszegedy.quaternion import ConjugacyClass, Quaternion
from qszegedy.szegedy import (
    EigenspaceCount,
    LiftedVector,
    LiftGroup,
    OracleComparison,
    SpectrumClass,
    SpectrumReport,
    StructureCheck,
    StructureReport,
    UnitarityReport,
    VertexUnitarity,
    WalkOperators,
    build_walk,
    uniform_weights,
)
from qszegedy.zeta import EdgeMatrices, IdentityCheck

_GRAPH = build_graph(2, [(0, 1)])
_WEIGHTS = uniform_weights(_GRAPH)
_FACTOR = PolyFactor((1.0, -1.0), 1, 1 + 0j)
_VERTEX = VertexUnitarity(0, 1.0, 0.0, True)
_CLASS = SpectrumClass(1j, 2, ("lift",))
_CHECK = StructureCheck("K* K = 2I", 0.0, 1e-12, True)
_B = np.zeros((2, 2), dtype=complex)
_J0 = np.eye(2, dtype=complex)
_BASIS = (qvec([1.0, 0.0]),)

# Each record with its field values in declaration order.
RECORDS = [
    (ConjugacyClass, (1 + 2j,)),
    (Instance, ("k2", _GRAPH, _WEIGHTS, None, "ab" * 32)),
    (PolyFactor, ((1.0, -1.0), 1, 1 + 0j)),
    (MinimalPolynomial, ((_FACTOR,), ("note",))),
    (RootSubspace, (_FACTOR, _BASIS)),
    (VertexUnitarity, (0, 1.0, 0.0, True)),
    (UnitarityReport, ((_VERTEX,), 1e-10, True, 0.0)),
    (SpectrumClass, (1j, 2, ("lift",))),
    (OracleComparison, (0.0, True, (1j, -1j))),
    (LiftGroup, (None, -1 + 0j, (), None)),
    (SpectrumReport, ((_CLASS,), (2.0,), (1j, -1j), "tree", None, None)),
    (EigenspaceCount, (1.0, 1, 2, 3)),
    (StructureCheck, ("K* K = 2I", 0.0, 1e-12, True)),
    (StructureReport, ((_CHECK,), True)),
    (EdgeMatrices, (_B, None, _J0)),
    (IdentityCheck, ("ihara", (0j,), (1 + 0j,), (1 + 0j,), 0.0, True, {})),
]

FIELDS = {
    ConjugacyClass: ("rep",),
    Instance: ("name", "graph", "weights", "seed", "sha256"),
    PolyFactor: ("coefficients", "exponent", "root"),
    MinimalPolynomial: ("factors", "warnings"),
    RootSubspace: ("factor", "basis"),
    VertexUnitarity: ("vertex", "total", "deviation", "ok"),
    UnitarityReport: ("vertices", "tol", "passed", "max_deviation"),
    SpectrumClass: ("rep", "multiplicity", "sources"),
    OracleComparison: ("max_distance", "matched", "direct_spectrum"),
    LiftGroup: ("mu", "lam", "vectors", "independent"),
    SpectrumReport: (
        "classes", "mu_spectrum", "psi_u_spectrum", "tree_case", "oracle",
        "eigenvectors",
    ),
    EigenspaceCount: ("lam", "birth", "inherited", "multiplicity"),
    StructureCheck: ("name", "residual", "tol", "ok"),
    StructureReport: ("checks", "passed"),
    EdgeMatrices: ("b", "bw", "j0"),
    IdentityCheck: (
        "name", "samples", "lhs", "rhs", "max_rel_error", "passed", "variants",
    ),
}

_IDS = [cls.__name__ for cls, _values in RECORDS]


@pytest.mark.parametrize("cls, values", RECORDS, ids=_IDS)
def test_positional_fields_in_order(cls, values):
    record = cls(*values)
    names = FIELDS[cls]
    assert len(names) == len(values)
    for name, value in zip(names, values):
        assert getattr(record, name) is value
    assert cls(**dict(zip(names, values))) == record


@pytest.mark.parametrize("cls, values", RECORDS, ids=_IDS)
def test_records_are_immutable(cls, values):
    record = cls(*values)
    for name in FIELDS[cls]:
        with pytest.raises(AttributeError):
            setattr(record, name, values[0])


@pytest.mark.parametrize("cls, values", RECORDS, ids=_IDS)
def test_equal_fields_compare_equal(cls, values):
    assert cls(*values) == cls(*values)
    assert not cls(*values) != cls(*values)


@pytest.mark.parametrize("cls, values", RECORDS, ids=_IDS)
def test_repr_names_the_fields_in_order(cls, values):
    text = repr(cls(*values))
    assert text.startswith(cls.__name__ + "(")
    assert text.endswith(")")
    positions = [text.index(f"{name}=") for name in FIELDS[cls]]
    assert positions == sorted(positions)


def test_defaults():
    assert MinimalPolynomial((_FACTOR,)).warnings == ()
    report = SpectrumReport((_CLASS,), (2.0,), (1j, -1j), "tree")
    assert report.oracle is None and report.eigenvectors is None
    check = IdentityCheck("ihara", (0j,), (1j,), (1j,), 0.0, True)
    assert check.variants == {}


def test_identity_checks_do_not_share_variants():
    first = IdentityCheck("a", (), (), (), 0.0, True)
    second = IdentityCheck("b", (), (), (), 0.0, True)
    first.variants["polynomial"] = 1e-12
    assert second.variants == {}
    assert first.variants is not second.variants


def test_conjugacy_class_canonical_representative():
    assert ConjugacyClass(1 - 2j).rep == 1 + 2j
    assert ConjugacyClass(1 + 2j).rep == 1 + 2j
    assert ConjugacyClass(1 - 2j) == ConjugacyClass(1 + 2j)
    rep = ConjugacyClass(3).rep
    assert type(rep) is complex and rep == 3
    assert type(ConjugacyClass(2.5).rep) is complex
    assert hash(ConjugacyClass(1 - 2j)) == hash(ConjugacyClass(1 + 2j))


def test_hashable_records_hash_by_value():
    assert hash(SpectrumClass(1j, 2, ("lift",))) == hash(_CLASS)
    assert hash(StructureReport((_CHECK,), True)) == hash(
        StructureReport((_CHECK,), True)
    )


def test_record_methods_and_properties():
    assert _FACTOR.degree == 1
    quadratic = PolyFactor((1.0, 0.0, 1.0), 2, 1j)
    mp = MinimalPolynomial((_FACTOR, quadratic))
    assert mp.degree == 5
    assert mp.coefficients() == (1.0, -1.0, 2.0, -2.0, 1.0, -1.0)
    assert RootSubspace(_FACTOR, _BASIS).dimension == 1
    assert _WEIGHTS.tolist() == [[1.0, 0.0, 0.0, 0.0]] * 2
    failing = UnitarityReport(
        (_VERTEX, VertexUnitarity(1, 0.5, 0.5, False)), 1e-10, False, 0.5
    )
    assert failing.failing_vertices() == [1]
    assert EigenspaceCount(1.0, 1, 2, 3).ok
    assert not EigenspaceCount(-1.0, 1, 1, 3).ok
    cls = ConjugacyClass(0.5 - 0.25j)
    assert cls.matches(ConjugacyClass(0.5 + 0.25j))
    assert str(cls) == "0.5+0.25i"


def test_to_dict_output():
    assert _VERTEX.to_dict() == {
        "vertex": 0, "total": 1.0, "deviation": 0.0, "ok": True,
    }
    assert UnitarityReport((_VERTEX,), 1e-10, True, 0.0).to_dict() == {
        "tol": 1e-10,
        "passed": True,
        "max_deviation": 0.0,
        "vertices": [{"vertex": 0, "total": 1.0, "deviation": 0.0,
                      "ok": True}],
    }
    assert _CLASS.to_dict() == {
        "rep": [0.0, 1.0], "multiplicity": 2, "sources": ["lift"],
    }
    oracle = OracleComparison(1e-12, True, (1j, -1j))
    assert oracle.to_dict() == {
        "max_distance": 1e-12,
        "matched": True,
        "direct_spectrum": [[0.0, 1.0], [0.0, -1.0]],
    }
    report = SpectrumReport((_CLASS,), (2.0,), (1j, -1j), "tree")
    assert report.to_dict() == {
        "tree_case": "tree",
        "mu_spectrum": [2.0],
        "classes": [_CLASS.to_dict()],
        "psi_u_spectrum": [[0.0, 1.0], [0.0, -1.0]],
    }
    with_oracle = SpectrumReport((_CLASS,), (2.0,), (1j,), "tree", oracle, ())
    assert list(with_oracle.to_dict()) == [
        "tree_case", "mu_spectrum", "classes", "psi_u_spectrum", "oracle",
        "eigenvectors",
    ]
    assert with_oracle.to_dict()["eigenvectors"] == []
    assert EigenspaceCount(-1.0, 1, 1, 3).to_dict() == {
        "lambda": -1.0, "birth": 1, "inherited": 1, "multiplicity": 3,
        "ok": False,
    }
    assert _CHECK.to_dict() == {
        "name": "K* K = 2I", "residual": 0.0, "tol": 1e-12, "ok": True,
    }
    assert StructureReport((_CHECK,), False).to_dict() == {
        "passed": False, "checks": [_CHECK.to_dict()],
    }
    check = IdentityCheck(
        "ihara", (0.25 + 0j,), (1 + 1j,), (1 + 1j,), 0.0, True,
        {"plain": 0.0},
    )
    data = check.to_dict()
    assert data == {
        "name": "ihara",
        "passed": True,
        "max_rel_error": 0.0,
        "samples": [[0.25, 0.0]],
        "lhs": [[1.0, 1.0]],
        "rhs": [[1.0, 1.0]],
        "variants": {"plain": 0.0},
    }
    assert data["variants"] is not check.variants
    instance = Instance("k2", _GRAPH, _WEIGHTS, 7, "ab" * 32)
    assert instance.to_dict() == instance_to_dict(
        _GRAPH, _WEIGHTS, name="k2", seed=7
    )


def test_replace_keeps_the_record_type_and_invariants():
    # ``_replace`` is the named-tuple form of ``dataclasses.replace``.
    moved = ConjugacyClass(1j)._replace(rep=2 - 1j)
    assert type(moved) is ConjugacyClass and moved.rep == 2 + 1j
    check = IdentityCheck("ihara", (0j,), (1j,), (1j,), 0.0, True)
    failed = check._replace(max_rel_error=1.0, passed=False)
    assert type(failed) is IdentityCheck
    assert (failed.max_rel_error, failed.passed) == (1.0, False)
    assert failed.variants is check.variants


# The plain immutable classes: Quaternion, Graph, WalkOperators and
# LiftedVector (tests/test_quaternion.py covers Quaternion's refusals).


def _frozen_object(cls):
    if cls is LiftedVector:
        return LiftedVector(1j, None, _BASIS[0], 0.0, "direct"), "lam"
    if cls is WalkOperators:
        return build_walk(_GRAPH, _WEIGHTS), "W"
    return _GRAPH, "n"


@pytest.mark.parametrize(
    "cls", [Graph, WalkOperators, LiftedVector],
    ids=lambda cls: cls.__name__,
)
def test_frozen_classes_refuse_assignment_and_deletion(cls):
    obj, field = _frozen_object(cls)
    for name in (field, "other"):
        with pytest.raises(FrozenInstanceError, match=repr(name)):
            setattr(obj, name, 1.0)
        with pytest.raises(FrozenInstanceError, match=repr(name)):
            delattr(obj, name)


def test_quaternion_repr_equality_hash_and_copies():
    q = Quaternion(1, 2, x3=4)
    assert type(q.x0) is float and type(q.x3) is float
    assert repr(q) == "Quaternion(x0=1.0, x1=2.0, x2=0.0, x3=4.0)"
    assert q == Quaternion(1.0, 2.0, 0.0, 4.0) and q != Quaternion(1, 2)
    assert hash(q) == hash(Quaternion(1.0, 2.0, 0.0, 4.0))
    assert q != (1.0, 2.0, 0.0, 4.0) and Quaternion(1) != 1
    assert pickle.loads(pickle.dumps(q)) == q
    assert copy.copy(q) == q and copy.deepcopy(q) == q


def test_graph_equality_hash_and_repr_skip_its_arrays():
    twin = build_graph(2, [(0, 1)])
    assert twin == _GRAPH and hash(twin) == hash(_GRAPH)
    assert twin.origin is not _GRAPH.origin
    assert build_graph(2, [(0, 1)], loops=[1]) != _GRAPH
    assert build_graph(2, [(1, 0)]) != _GRAPH
    assert repr(_GRAPH) == "Graph(n=2, edges=((0, 1),), loops=())"
    restored = pickle.loads(pickle.dumps(_GRAPH))
    assert restored == _GRAPH
    np.testing.assert_array_equal(restored.inverse, _GRAPH.inverse)
    assert restored.arc_index(1, 0) == 1


def test_walk_operators_cache_their_matrices():
    ops = build_walk(_GRAPH, _WEIGHTS)
    assert "L" not in vars(ops)
    assert ops.L is ops.L and vars(ops)["L"] is ops.L
    assert ops.K is ops.K and ops.U is ops.U
    assert ops == ops and hash(ops) == hash(ops)
    # W is compared by identity, so a second build is a different walk.
    assert build_walk(_GRAPH, _WEIGHTS) != ops
    assert repr(ops).startswith("WalkOperators(graph=Graph(n=2, ")


def test_lifted_vector_leaves_base_out_of_repr_and_equality():
    vector = _BASIS[0]
    lifted = LiftedVector(1j, 0.5, vector, 0.0, "lift", base=vector)
    plain = LiftedVector(1j, 0.5, vector, 0.0, "lift")
    assert plain.base is None and lifted.base is vector
    assert lifted == plain and hash(lifted) == hash(plain)
    assert "base" not in repr(lifted)
    assert repr(lifted).startswith("LiftedVector(lam=1j, mu=0.5, vector=")
    assert LiftedVector(1j, 0.5, vector, 0.0, "direct") != plain
    assert LiftedVector(1j, 0.5, qvec([1.0, 0.0]), 0.0, "lift") != plain
