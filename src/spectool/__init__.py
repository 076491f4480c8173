"""Spectral extremal graph theory toolkit.

Small-graph spectral analysis: adjacency eigendecomposition, spectral-radius
bounds with tightness classes, the spectral Mantel trichotomy, walk-count
machinery, cycle-length detection with degree peeling, and an exhaustive
enumeration / fuzzing harness over all of the above.
"""

from .bounds import (
    BoundKind,
    BoundReport,
    SpectralMantelResult,
    bound_value,
    evaluate_all,
    mantel_check,
    spectral_mantel_classify,
    tightness_check,
)
from .cycles import (
    CycleSpectrum,
    PeelingResult,
    Theorem7Pipeline,
    bondy_pancyclicity_check,
    consecutive_even_cycles_check,
    cycle_spectrum,
    erdos_peel,
    has_cycle_of_length,
    theorem7_pipeline,
    validate_cycle,
)
from .errors import SpectoolError
from .families import (
    complete,
    complete_bipartite,
    cycle,
    gnp,
    path,
    petersen,
    random_bipartite,
    random_regular,
    star,
)
from .graph import (
    BasicStats,
    Bipartition,
    Graph,
    RegularityClass,
    basic_stats,
    bipartition,
    classify_regularity,
    connectivity,
    count_triangles_brute,
    from_edges,
    induced_subgraph,
    is_complete_bipartite_plus_isolated,
    neighborhood_degree_sums,
)
from .graph6 import (
    from_edge_list,
    from_graph6,
    read_graph6_lines,
    to_edge_list,
    to_graph6,
)
from .spectrum import (
    CLUSTER_EPS,
    EQ_EPS,
    TOL,
    Spectrum,
    distinct_eigenvalue_count,
    eigendecompose,
    is_spectrum_symmetric,
    jacobi_eigh,
    perron_check,
    power_iteration_radius,
    spectral_radius,
    triangle_count_spectral,
    triangle_count_spectral_int,
)
from .verdicts import CounterexampleReport, Verdict
from .verify import (
    ALL_THEOREMS,
    SweepConfig,
    SweepReport,
    TheoremId,
    check_theorem,
    exhaustive_spectral_audit,
    fuzz,
    replay,
    sweep,
)
from .walks import (
    SpectralWalkExpansion,
    WalkTable,
    a_greater_b_check,
    decomposition_identity_check,
    nikiforov_walk_inequality,
    ratio_convergence,
    walk_counts,
    walk_expansion,
)

__version__ = "0.1.0"
