"""What a CLI job imports before it starts work.

Every job pays its imports on top of the interpreter and numpy.  The
zeta identities are loaded only by ``verify``, the package exports them
on first access, instance digests come from CPython's builtin SHA-256
rather than OpenSSL's, and value records are named tuples, which compile
no code at import; the few dataclasses left are listed here.
"""

import dataclasses
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qszegedy
from qszegedy import cli, errors, graph, instances, qmatrix, quaternion
from qszegedy import szegedy, zeta

SRC = Path(qszegedy.__file__).parents[1]

#: Classes of the package that stay dataclasses, each for a reason the
#: README's start-up note gives.
DATACLASSES = {
    "qszegedy.graph.Graph",
    "qszegedy.quaternion.Quaternion",
    "qszegedy.szegedy.LiftedVector",
    "qszegedy.szegedy.WalkOperators",
}

ALL = [
    "ConjugacyClass",
    "DegenerateLiftError",
    "Graph",
    "IdentityCheck",
    "MinimalPolynomial",
    "NumericalError",
    "PolyFactor",
    "QMatrix",
    "QWalkError",
    "Quaternion",
    "RootSubspace",
    "SpectrumReport",
    "UnitarityReport",
    "ValidationError",
    "WalkOperators",
    "arc_weights",
    "build_graph",
    "build_walk",
    "check_unitary_condition",
    "class_of",
    "complex_eigen",
    "format_quaternion",
    "full_spectrum",
    "h_linear_independent",
    "ihara_identity",
    "is_unitary",
    "lift_eigenvector",
    "minimal_polynomial",
    "psi",
    "quaternionic_identity",
    "qvec",
    "random_instance",
    "right_eigenbasis",
    "right_eigenvalues",
    "right_eigenvector",
    "root_subspaces",
    "same_class",
    "second_weighted_identity",
    "spectral_map",
    "sylvester_det_property",
    "symplectic_decompose",
    "uniform_weights",
    "verify_structure",
    "__version__",
]


def _imported_modules(argv, tmp_path) -> set[str]:
    """Modules ``python -X importtime -m qszegedy.cli ARGV`` imports."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "qszegedy.cli", *argv,
         "--output", str(tmp_path / "report.json")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return {
        line.rsplit("|", 1)[1].strip()
        for line in done.stderr.splitlines()
        if line.startswith("import time:")
    }


def test_zeta_is_imported_by_verify_only(tmp_path):
    spectrum = _imported_modules(["spectrum", "k4"], tmp_path)
    assert "qszegedy.szegedy" in spectrum
    assert "qszegedy.zeta" not in spectrum
    assert "qszegedy.zeta" in _imported_modules(["verify", "k4"], tmp_path)


@pytest.mark.parametrize(
    "argv",
    [["spectrum", "k4"], ["lift", "k4", "--all"], ["examples"],
     ["verify", "k3_loops"]],
)
def test_instance_digests_leave_openssl_unloaded(argv, tmp_path):
    # hashlib's SHA-256 loads OpenSSL's libcrypto as ``_hashlib``.
    # ``verify`` on a loopless graph loads it anyway: numpy.random imports
    # ``secrets``.
    assert "_hashlib" not in _imported_modules(argv, tmp_path)


def test_package_exports_are_unchanged():
    assert qszegedy.__all__ == ALL
    from qszegedy import IdentityCheck, ihara_identity

    assert IdentityCheck is zeta.IdentityCheck
    assert ihara_identity is zeta.ihara_identity
    namespace: dict = {}
    exec("from qszegedy import *", namespace)
    assert set(ALL) <= set(namespace)
    assert set(ALL) <= set(dir(qszegedy))
    with pytest.raises(AttributeError, match="no attribute 'nonexistent'"):
        qszegedy.nonexistent


def test_only_the_listed_classes_are_dataclasses():
    found = {
        f"{module.__name__}.{name}"
        for module in (qszegedy, cli, errors, graph, instances, qmatrix,
                       quaternion, szegedy, zeta)
        for name, obj in vars(module).items()
        if inspect.isclass(obj) and obj.__module__ == module.__name__
        and dataclasses.is_dataclass(obj)
    }
    assert found == DATACLASSES
