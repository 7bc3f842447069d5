"""What a CLI job imports before it starts work.

A job imports in two stages.  ``qszegedy.cli``, the front, holds the
parser and imports neither numpy nor the library, so ``--version``,
``--help``, ``<command> --help`` and usage errors exit before numpy
loads; ``import qszegedy`` loads no submodule, because the package
serves its exports from their modules on first access.  Once the
arguments parse, ``main`` imports ``qszegedy.commands`` and, with it,
numpy and the library.  The zeta identities are loaded only by
``verify``, instance digests come from CPython's builtin SHA-256
rather than OpenSSL's, value records are named tuples, which compile
no code at import, and no class is a dataclass, so ``dataclasses`` is
never loaded.
"""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qszegedy
from qszegedy import zeta

SRC = Path(qszegedy.__file__).parents[1]

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


def _importtime(argv, code: int = 0) -> tuple[set[str], str, str]:
    """Modules ``python -X importtime -m qszegedy.cli ARGV`` imports, its
    stdout, and its stderr without the import-time lines; it must exit
    with ``code``."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for name in ("COLUMNS", "LINES"):  # argparse wraps usage to COLUMNS
        env.pop(name, None)
    done = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "qszegedy.cli", *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == code, done.stderr
    timed = [line for line in done.stderr.splitlines(keepends=True)
             if line.startswith("import time:")]
    rest = "".join(line for line in done.stderr.splitlines(keepends=True)
                   if not line.startswith("import time:"))
    return {line.rsplit("|", 1)[1].strip() for line in timed}, done.stdout, rest


def _imported_modules(argv, tmp_path) -> set[str]:
    """Modules a job that writes ``--output`` imports."""
    return _importtime([*argv, "--output", str(tmp_path / "report.json")])[0]


#: What the front must not import: numpy, and every module that needs it.
NUMERIC = {"numpy", "qszegedy.commands", "qszegedy.graph",
           "qszegedy.quaternion", "qszegedy.qmatrix", "qszegedy.szegedy",
           "qszegedy.instances", "qszegedy.zeta"}
USAGE = (
    "usage: qszegedy [-h] [--version] "
    "{spectrum,verify,lift,examples,generate} ...\n"
)
SPECTRUM_USAGE = (
    "usage: qszegedy spectrum [-h] [--oracle] [--eigenvectors] [--force]\n"
    "                         [--tol TOL] [--output OUTPUT]\n"
    "                         instance\n"
)


@pytest.mark.parametrize("argv, code, out, err", [
    (["--version"], 0, "qszegedy 0.1.0\n", ""),
    (["--help"], 0, USAGE, ""),
    (["spectrum", "--help"], 0, SPECTRUM_USAGE, ""),
    (["spectrum"], 2, "", SPECTRUM_USAGE + "qszegedy spectrum: error: the "
                         "following arguments are required: instance\n"),
], ids=["version", "help", "spectrum-help", "usage-error"])
def test_front_paths_exit_before_numpy_loads(argv, code, out, err):
    modules, stdout, stderr = _importtime(argv, code)
    assert {"argparse", "qszegedy", "qszegedy.errors"} <= modules
    assert modules & NUMERIC == set()
    # --help prints the whole help after its usage lines.
    assert (stdout[:len(out)] if argv[-1] == "--help" else stdout) == out
    assert stderr == err


def test_package_import_loads_no_numpy():
    code = ("import sys, qszegedy; "
            "print(sorted(m for m in sys.modules if m == 'numpy' "
            "or m.startswith('qszegedy')))")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=str(SRC)),
                          timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "['qszegedy']\n"


def test_export_table_names_each_defining_module():
    table = qszegedy._EXPORTS
    assert set(table) == set(qszegedy.__all__) - {"__version__"}
    for name, module in table.items():
        defining = importlib.import_module(f"qszegedy.{module}")
        assert getattr(qszegedy, name) is getattr(defining, name), name
        assert getattr(defining, name).__module__ == defining.__name__, name


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


def test_jobs_leave_dataclasses_unloaded(tmp_path):
    # Graph, Quaternion, WalkOperators and LiftedVector are plain
    # classes; numpy does not import dataclasses either.
    for argv in (["spectrum", "k4"], ["lift", "k4", "--all"],
                 ["verify", "k3_loops"]):
        assert "dataclasses" not in _imported_modules(argv, tmp_path), argv
