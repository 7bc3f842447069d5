"""Quaternionic Szegedy quantum walks on finite graphs.

Core objects: quaternion scalars and matrices with their right-spectrum
machinery, the walk construction with its unitarity condition, the
spectral mapping through the doubly weighted matrix, eigenvector
lifting, and a battery of graph zeta determinant identities.
"""

__version__ = "0.1.0"

#: The module that defines each exported name.  The package imports it
#: when one of its names is first read (PEP 562), so ``import qszegedy``
#: and the CLI's argument parsing load no numpy.
_EXPORTS = {
    name: module
    for module, names in (
        ("errors", "DegenerateLiftError NumericalError QWalkError "
                   "ValidationError"),
        ("graph", "Graph build_graph"),
        ("qmatrix", "MinimalPolynomial PolyFactor QMatrix RootSubspace "
                    "h_linear_independent is_unitary "
                    "minimal_polynomial psi qvec right_eigenbasis "
                    "right_eigenvalues right_eigenvector root_subspaces"),
        ("quaternion", "ConjugacyClass Quaternion class_of format_quaternion "
                       "same_class symplectic_decompose"),
        ("szegedy", "SpectrumReport UnitarityReport WalkOperators arc_weights "
                    "build_walk check_unitary_condition full_spectrum "
                    "lift_eigenvector random_instance spectral_map "
                    "uniform_weights verify_structure"),
        ("zeta", "IdentityCheck ihara_identity quaternionic_identity "
                 "second_weighted_identity sylvester_det_property"),
    )
    for name in names.split()
}


def __getattr__(name: str):
    if name in _EXPORTS:
        from importlib import import_module

        return getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_EXPORTS))

__all__ = [
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
