"""patex: ordered 0-1 matrix pattern tools.

Containment with independently checkable certificates, structural
classification of patterns, exact complete-bipartite copy counting,
density-increment and dense-or-balanced engines with explicit constants,
and exact extremal numbers ex(n, A) with verified witnesses at desk scale.
"""

from .cache import CacheStore
from .classify import (
    Drawing,
    PartiteProfile,
    WindingProfile,
    drawing,
    is_acyclic,
    is_cycle,
    is_permutation,
    is_positive_cycle,
    is_t_by_s,
    is_x_monotone,
    min_column_parts,
    min_row_parts,
    partite_profile,
    winding_profile,
)
from .count import (
    CopyCount,
    SteppingBound,
    SupersatBound,
    common_lines,
    count_copies,
    ext_binom,
    stepping_bound,
    supersat_bound,
)
from .cycles import (
    BalancedCertificate,
    DichotomyResult,
    balance_violation,
    cycle_driver,
    dense_or_balanced,
    embed_xmonotone_balanced,
    enumerate_cycles,
    is_r_balanced,
)
from .errors import (
    BudgetError,
    CacheError,
    DivisibilityError,
    DomainError,
    FormatError,
    InputError,
    PatexError,
    PreconditionError,
    UnsupportedError,
)
from .increment import (
    IncrementTrace,
    LambdaSchedule,
    ProofConstants,
    StepResult,
    TraceLevel,
    density_increment_step,
    lambda_schedule,
    make_constants,
    run_driver,
    symmetric_increment_step,
)
from .matrix import (
    BlockPartition,
    Embedding,
    ZeroOneMatrix,
    canonical_key,
    embedding_violation,
    find_embedding,
    from_ordered_bigraph,
    parse_pattern,
    partition,
    verify_embedding,
)
from .ohypergraph import (
    AvoidanceThreshold,
    EdgeClass,
    LabelMap,
    OrderedHypergraph,
    TCut,
    avoidance_threshold,
    build_column_hypergraph,
    classify_edge,
    cut_cuts_edge,
    cut_probability,
    edges_cut,
    find_ordered_complete_t_partite,
    heavy_label_classes,
    random_t_cut,
)
from .rng import DEFAULT_SEED, SplitMix64
from .search import (
    ExtremalRecord,
    brute_force_ex,
    deletion_lower_bound,
    exact_ex,
    extremal_table,
)

__version__ = "0.1.0"
