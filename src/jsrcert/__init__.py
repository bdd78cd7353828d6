"""Exact, certificate-producing joint spectral radius computation for
finite sets of small integer matrices."""

from .algebraic import (
    FieldElement,
    IntPolynomial,
    NumberFieldContext,
    Ordering,
    RealAlgebraic,
    compare,
    isolate_real_roots,
    nth_root,
)
from .geometry import (
    HullKind,
    VertexPolytope,
    classify_with_fallback,
    minkowski_norm,
    simplex_solve,
)
from .ipa import (
    IpaResult,
    IpaStatus,
    run_ipa,
    verify_certificate,
)
from .matcore import (
    IntMatrix,
    MatrixFamily,
    Product,
    char_poly,
    evaluate,
    frobenius_norm_sq,
    leading_eigenvector,
    spectral_radius,
    two_norm_sq,
)
from .reduce import (
    PairCode,
    canonical_key,
    decode,
    encode,
    enumerate_campaign,
    irreducible,
    quick_decide,
)
from .smp import CandidateSet, gripenberg_search

__version__ = "0.1.0"
