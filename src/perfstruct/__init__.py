"""Algebra of perfect structures: triples (M, P, S) with M·P = P·S."""

from .matrix import (
    CLUSTER_RADIUS,
    COMPLEX,
    DEFAULT_TOL,
    EXACT,
    EigenSystem,
    Matrix,
    Spectrum,
    cluster_values,
    eig,
    eigensystem_on,
    eigenvalues,
    is_diagonalizable,
    kron,
    multiset_discrepancy,
    multiset_leq,
    poly_eval,
    rank,
)
from .structures import (
    CanonicalForm,
    PerfectStructure,
    UnityClassification,
    canonical_form,
    classify_identity,
    classify_unity,
    compose,
    eigenvector_structure,
    is_nonsingular,
    parameters_from_structure,
    similar_transform,
    spectrum_inclusion_check,
    structure_space_basis,
    transform_polynomial,
    verify,
)
from .graphs import (
    Graph,
    bipartite_double,
    closed_form_spectrum,
    complement_spectrum,
    double_graph,
    from_edges,
    is_connected,
    is_regular,
    make_family,
    numeric_spectrum,
)
from .products import (
    ProductSpec,
    build_product,
    cartesian_spec,
    identity_eigensystem,
    joint_eigensystems,
    lexicographic_spec,
    lexicographic_structure,
    normal_spec,
    product_eigenvector,
    product_spectrum,
    product_structures,
    tensor_spec,
    unity_eigensystem,
)
from .contraction import (
    ContractionInput,
    contract,
    contract_named,
    verify_contraction_theorem,
)
from .colorings import (
    CensusResult,
    Coloring,
    FractionalColoring,
    canonical_colors,
    census,
    check_covering,
    complete_graph_parameters,
    orthogonality_check,
    product_coloring,
    verify_coloring,
    verify_fractional,
)
from . import errors

__version__ = "0.1.0"
