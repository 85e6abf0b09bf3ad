"""Dominance-based H-matrix analysis with verifiable certificates.

Decides whether a diagonally dominant matrix is an H-matrix by a
recursive restriction to its non-strict rows, and backs every verdict
with an independently checkable artifact: reachability chains,
interwoven index sequences, a non-dominant witness block, or a positive
diagonal scaling with a strict dominance margin.
"""

__version__ = "0.1.0"

from .core import (
    DominanceClass,
    InconsistencyError,
    IndexSet,
    Matrix,
    Peel,
    SparsePattern,
    classify_dominance,
    comparison_matrix,
    comparison_rows,
    layers_out_of,
    non_sdd_rows,
    peel_levels,
    principal_submatrix,
)
from .graph import (
    chain_condition,
    chains_out_of,
)
from .hmatrix import (
    HVerdict,
    PeelReason,
    ScalingCertificate,
    SHReport,
    find_ssdd_set_dd,
    is_h_dd,
    peel_outcome,
    s_h_check,
    s_h_from_peel,
    s_sdd_check,
    scaling_certificate,
    scaling_margin,
    solved_scaling,
)
from .interwoven import (
    InterwovenCertificate,
    interwoven_from_peeling,
    is_interwoven,
    verify_certificate,
)
from .mmio import ParseError, parse_matrix_market, read_matrix_file, write_matrix_market
from .oracle import (
    _ENSEMBLE_NAMES,
    LuFactorization,
    inverse_nonneg_oracle,
    jacobi_oracle,
    jacobi_spectral_radius,
    lu_factor,
    lu_solve,
    spectral_radius,
)


def __getattr__(name: str):
    """The ensemble generator's names, from ``ensemble`` on first use: ``analyze`` loads none."""
    if name in _ENSEMBLE_NAMES:
        from . import ensemble

        return getattr(ensemble, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "__version__",
    "DominanceClass",
    "EnsembleSpec",
    "HVerdict",
    "InconsistencyError",
    "IndexSet",
    "InterwovenCertificate",
    "LuFactorization",
    "Matrix",
    "ParseError",
    "Peel",
    "PeelReason",
    "RandomStream",
    "SHReport",
    "ScalingCertificate",
    "SparsePattern",
    "chain_condition",
    "chains_out_of",
    "classify_dominance",
    "comparison_matrix",
    "comparison_rows",
    "derive_seed",
    "find_ssdd_set_dd",
    "interwoven_from_peeling",
    "inverse_nonneg_oracle",
    "is_h_dd",
    "is_interwoven",
    "jacobi_oracle",
    "jacobi_spectral_radius",
    "layers_out_of",
    "lu_factor",
    "lu_solve",
    "non_sdd_rows",
    "parse_matrix_market",
    "peel_levels",
    "peel_outcome",
    "principal_submatrix",
    "random_dd_matrix",
    "read_matrix_file",
    "s_h_check",
    "s_h_from_peel",
    "s_sdd_check",
    "scaling_certificate",
    "scaling_margin",
    "solved_scaling",
    "spectral_radius",
    "verify_certificate",
    "write_matrix_market",
]
