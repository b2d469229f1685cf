"""Combinatorics and symbolic algebra of Deodhar cells in types A and B.

The toolkit covers Weyl group arithmetic, root systems with Chevalley
structure constants, distinguished subexpressions and their cell data,
commutator collection in the unipotent radical with an exact adjoint oracle,
finite-field cross-checks in SL_3, and the catalog of counterexamples to
stratification and closure-intersection expectations.
"""

from .cells import (
    CLOSURE_OBSTRUCTION,
    DISJOINTNESS,
    DISJOINTNESS_EXTENDED,
    CatalogEntry,
    CellDescriptor,
    PhiEntry,
    Subexpression,
    catalog,
    cell,
    cells_with_endpoint,
    closure_upper_bound,
    enumerate_subexpressions,
    hasse_dot,
    is_distinguished,
    point_count_polynomial,
    preceq,
    subexpression,
)
from .chevalley import (
    AdjointRep,
    ClosureWitnessReport,
    Factor,
    LimitError,
    UnipotentWord,
    VerificationError,
    adjoint_rep,
    build_closure_witness_words,
    collect,
    evaluate_adjoint,
    limit_at_infinity,
    verify_closure_witness,
)
from .laurent import LaurentPoly, Monomial
from .roots import CommutatorTerm, Root, root_system
from .search import (
    DisjointnessCertificate,
    ObstructionReport,
    disjointness_certificate,
    find_obstructions,
    scan_disjointness,
)
from .weyl import (
    CoxeterContext,
    ReducedWord,
    WeylElement,
    all_reduced_words,
    bruhat_leq,
    context,
    parse_word,
)

__version__ = "0.1.0"
