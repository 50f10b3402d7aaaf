"""Coherent configurations, their adjacency algebras, and a test of
semisimplicity over prime fields.

The headline computation: build a configuration, take its Frame number
F = prod |R| / prod m^(f^2) from the complex Wedderburn decomposition, and
check that the algebra over F_p is semisimple exactly when p does not
divide F.
"""

from .discriminant import (
    discriminant_standard,
    gram_standard,
    product_cell_sizes,
    product_relation_sizes,
    standard_character,
)
from .generators import (
    build_scheme,
    corpus_ids,
    cyclic_table,
    dihedral_table,
    direct_sum,
    discrete,
    hamming,
    johnson,
    product_table,
    quaternion_table,
    rank2,
    schurian,
    symmetric_table,
    thin_group_scheme,
)
from .harness import (
    VerifyOptions,
    candidate_primes,
    verify_corpus,
    verify_scheme,
)
from .radical import (
    BudgetExceeded,
    ModularAlgebra,
    RadicalResult,
    central_nilpotent_witness,
    modular_algebra,
    radical_chain,
    radical_oracle,
)
from .scheme import (
    Scheme,
    SchemeError,
    classify,
    from_color_matrix,
    relation_stats,
    verify_regularity,
)
from .wedderburn import (
    DecompositionError,
    FrameNumber,
    FrameNumberError,
    WedderburnData,
    center_basis,
    decompose,
    frame_number,
)

__version__ = "0.1.0"

__all__ = [
    "BudgetExceeded",
    "DecompositionError",
    "FrameNumber",
    "FrameNumberError",
    "ModularAlgebra",
    "RadicalResult",
    "Scheme",
    "SchemeError",
    "VerifyOptions",
    "WedderburnData",
    "build_scheme",
    "candidate_primes",
    "center_basis",
    "central_nilpotent_witness",
    "classify",
    "corpus_ids",
    "cyclic_table",
    "decompose",
    "dihedral_table",
    "direct_sum",
    "discrete",
    "discriminant_standard",
    "frame_number",
    "from_color_matrix",
    "gram_standard",
    "hamming",
    "johnson",
    "modular_algebra",
    "product_cell_sizes",
    "product_relation_sizes",
    "product_table",
    "quaternion_table",
    "radical_chain",
    "radical_oracle",
    "rank2",
    "relation_stats",
    "schurian",
    "standard_character",
    "symmetric_table",
    "thin_group_scheme",
    "verify_corpus",
    "verify_regularity",
    "verify_scheme",
]
