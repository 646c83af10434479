"""Block-transitive 3-designs on the projective line over GF(q).

The starter block is the multiplicative subgroup of order k in GF(q); its
orbit under PSL(2,q) is a 3-design exactly when a signed count over the
block's 3-subsets vanishes. This package decides that criterion exactly,
expands and verifies the designs explicitly, and sweeps parameter ranges.
"""

from psldesigns.gf import (
    FieldSpec,
    field_for_order,
    make_extension_field,
    make_prime_field,
)
from psldesigns.starter import (
    CharSequence,
    StarterContext,
    admissible_k,
    char_sequence,
    delta_sum,
    gives_design,
    lambda_formula,
    make_starter_context,
    thm510_conditions,
    thm1326_condition,
)

__version__ = "0.1.0"

__all__ = [
    "FieldSpec",
    "field_for_order",
    "make_extension_field",
    "make_prime_field",
    "CharSequence",
    "StarterContext",
    "admissible_k",
    "char_sequence",
    "delta_sum",
    "gives_design",
    "lambda_formula",
    "make_starter_context",
    "thm510_conditions",
    "thm1326_condition",
    "__version__",
]
