"""LCD subspace codes: finite-field linear algebra, subspace distance,
association schemes, distance-regular graphs, unbiased Hadamard/weighing
matrices, and the construction pipelines that tie them together."""

from .codes import (
    CodeParams,
    DecodeOutcome,
    ProjectionDecoder,
    SubspaceCode,
    classical_lcd_check,
    decode_naive,
    decode_naive_many,
    decode_projection,
    is_lcd_subspace_code,
    params,
    sampled_min_distance,
)
from .constructions import (
    AlgebraBasis,
    BushSchemes,
    ClassicalCodeReport,
    ConstructionReport,
    algebra_closure,
    build_block,
    bush_schemes,
    lcd_code_thm42,
    murh_scheme,
    subspace_code_from_algebra,
    theorem_pipeline,
)
from .drg import (
    Graph,
    IntersectionArray,
    PermutationGroup,
    check_distance_regular,
    intersection_array,
    orbit_partition,
    scheme_from_drg,
)
from .errors import LcdError
from .gf import GF, field_from_order, field_new
from .hadamard import (
    HadamardMatrix,
    UnbiasedSet,
    WeighingMatrix,
    all_hadamard,
    are_unbiased,
    bush_unbiased_pair_16,
    gramian_B,
    is_bush,
    is_regular,
    load_bundled,
    search_unbiased_extension,
    sylvester,
)
from .schemes import (
    AssociationScheme,
    EquitablePartition,
    divisibility_screen,
    quotient_matrices,
    scheme_from_matrices,
    verify_equitable,
    verify_quotient_algebra,
)
from .simulator import ChannelSpec, TrialStats, corrupt, run_experiment
from .subspaces import (
    Subspace,
    distance,
    dual,
    intersect,
    is_lcd,
    pairwise_lcd,
    projector_complement,
    span,
    subspace_sum,
)

__version__ = "1.0.0"

__all__ = [
    "AlgebraBasis", "AssociationScheme", "BushSchemes", "ChannelSpec",
    "ClassicalCodeReport", "CodeParams", "ConstructionReport", "DecodeOutcome",
    "EquitablePartition", "GF", "Graph", "HadamardMatrix", "IntersectionArray",
    "LcdError", "PermutationGroup", "ProjectionDecoder", "Subspace",
    "SubspaceCode", "TrialStats", "UnbiasedSet", "WeighingMatrix",
    "algebra_closure", "all_hadamard", "are_unbiased", "build_block",
    "bush_schemes", "bush_unbiased_pair_16", "check_distance_regular",
    "classical_lcd_check", "corrupt", "decode_naive", "decode_naive_many",
    "decode_projection",
    "distance", "divisibility_screen", "dual", "field_from_order", "field_new",
    "gramian_B", "intersect", "intersection_array", "is_bush", "is_lcd",
    "is_lcd_subspace_code", "is_regular", "lcd_code_thm42", "load_bundled",
    "murh_scheme", "orbit_partition", "pairwise_lcd", "params",
    "projector_complement", "quotient_matrices", "run_experiment",
    "sampled_min_distance", "scheme_from_drg", "scheme_from_matrices",
    "search_unbiased_extension", "span", "subspace_code_from_algebra",
    "subspace_sum", "sylvester", "theorem_pipeline", "verify_equitable",
    "verify_quotient_algebra",
]
