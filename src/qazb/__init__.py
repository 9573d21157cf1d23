"""Desk-scale numerics for the quantum az+b group.

The package evaluates the quantum exponential function on the modulus
lattice, builds finite Schrodinger models of regular q^2-pairs, constructs
the unitary representations they generate, verifies the defining operator
identities through interior-window residuals, and decomposes
representations back into their generating pairs.
"""

from .errors import (
    AmbiguityError,
    DimensionError,
    DomainError,
    ExtractionError,
    KernelConditionError,
    ParameterError,
    QazbError,
)
from .gamma import (
    GammaGrid,
    GammaPoint,
    chi,
    grid,
    make_point,
    rational_point,
    zero_point,
)
from .qexp import (
    QExpParams,
    candidate_separation,
    fq,
    fq_family,
    fq_on_operator,
    invert_fq_family,
)
from .opalg import (
    Eigensystem,
    NormalMatrix,
    chi_op,
    gamma_distance,
)
from .q2pair import (
    Q2Pair,
    closure_sum,
    exp_identity_residual,
    interior_window,
    random_regular_pair,
    schrodinger_pair,
    seeded_block_specs,
    verify_q2,
    weyl_residual,
    windowed_modulus_distance,
)
from .corep import (
    Representation,
    build_rep,
    corep_residual,
    extract_pair,
    load_representation,
    save_representation,
)

__version__ = "0.1.0"

__all__ = [
    "AmbiguityError", "DimensionError", "DomainError", "ExtractionError",
    "KernelConditionError", "ParameterError", "QazbError",
    "GammaGrid", "GammaPoint", "chi", "grid", "make_point",
    "rational_point", "zero_point",
    "QExpParams", "candidate_separation", "fq", "fq_family",
    "fq_on_operator", "invert_fq_family",
    "Eigensystem", "NormalMatrix", "chi_op", "closure_sum", "gamma_distance",
    "Q2Pair", "exp_identity_residual", "interior_window",
    "random_regular_pair", "schrodinger_pair", "seeded_block_specs",
    "verify_q2", "weyl_residual", "windowed_modulus_distance",
    "Representation", "build_rep", "corep_residual",
    "extract_pair", "load_representation", "save_representation",
    "__version__",
]
