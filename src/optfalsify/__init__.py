"""Finite-dimensional quantum and classical theory cores with falsification
tests, and a Monte Carlo harness for falsifying random generators.

Each public name is imported from its module on first use (PEP 562), so
importing the package, or one of its modules such as optfalsify.cli, loads
only the modules that the caller runs.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# Each module that is an attribute of the package, and the public names it
# gives the package.
_EXPORTS = {
    "classical": ("ClassicalState", "classical_falsifier_exists", "embed_classical"),
    "coins": (
        "BaselineVerdict", "CampaignReport", "NaryGenerator", "classical_verdict",
        "coin_falsification_test", "count_classical_coin", "count_generator",
        "falsify_campaign", "make_coin", "make_nary",
    ),
    "errors": (
        "DimensionMismatchError", "EigConvergenceError", "NotCompressibleError",
        "NotDeterministicError", "NotHermitianError", "NotPSDError",
        "NotTracePreservingError", "NumericalContaminationError", "OptFalsifyError",
        "OutOfRangeError", "PurificationMismatchError", "SchemaError",
        "UnfalsifiableHypothesisError",
    ),
    "falsification": (
        "FalsificationTest", "SupportHypothesis", "TestOutcome",
        "falsification_probability", "run_test", "support_falsification_test",
    ),
    "linalg": (
        "DEFAULT_RANK_TOL", "HermitianEig", "dagger", "doubleket_to_mat",
        "hermitian_eig", "kernel_projector", "mat_to_doubleket", "partial_trace",
        "support_projector", "tensor",
    ),
    "postulates": ("PropertyResult", "run_postulate_checks"),
    "quantum": (
        "CanonicalForm", "CompressionResult", "Dilation", "DiscriminationResult",
        "Effect", "KrausChannel", "LocalFalsifier", "Purification", "QuantumState",
        "apply_channel", "born_probability", "canonical_form", "compress",
        "connecting_unitary", "dilate", "local_falsifier", "perfectly_discriminable",
        "purify",
    ),
    "random_ops": (),
}

_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name in _EXPORTS:
        # Importing a submodule makes it an attribute of the package.
        return _import_module(f".{name}", __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
