"""blockspectra: clique-chain graph families and their Fiedler vectors.

Construct block-path and block-starlike graphs, compute algebraic
connectivity and Fiedler eigenspaces with a self-contained symmetric
eigensolver, classify graphs into the two Fiedler sign-pattern cases by two
independent methods, and verify the structural identities relating them over
parameter sweeps.
"""

__version__ = "0.1.0"

from .blocks import (
    BlockDecomposition,
    StarlikeProfile,
    block_decomposition,
    is_block_graph,
    starlike_profile,
)
from .fileio import (
    format_dot,
    format_edge_list,
    format_json,
    parse_edge_list,
)
from .generators import (
    block_path,
    block_starlike,
    broom_tree,
    center_label,
    complete_graph,
    path_graph,
    star_graph,
)
from .graph import (
    Graph,
    build_graph,
    center,
    coalesce,
)
from .linalg import (
    ConvergenceError,
    EigenDecomposition,
    PerronData,
    eig_sym,
    laplacian,
)
from .spectral import (
    CaseClassification,
    ClassificationError,
    SpectralSummary,
    VertexPerronData,
    classify_perron,
    classify_structural,
    spectral_summary,
)
from .verify import (
    TheoremReport,
    check_coalescence,
    check_kirkland_identities,
    check_path_parity,
    check_starlike_case_a,
    check_starlike_equal_arms,
    check_twins_lemma,
    parse_arms,
    parse_grid,
    reports_to_csv,
    reports_to_json,
    run_theorem,
    sweep,
)

__all__ = [
    "__version__",
    "BlockDecomposition",
    "CaseClassification",
    "ClassificationError",
    "ConvergenceError",
    "EigenDecomposition",
    "Graph",
    "PerronData",
    "SpectralSummary",
    "StarlikeProfile",
    "TheoremReport",
    "VertexPerronData",
    "block_decomposition",
    "block_path",
    "block_starlike",
    "broom_tree",
    "build_graph",
    "center",
    "center_label",
    "check_coalescence",
    "check_kirkland_identities",
    "check_path_parity",
    "check_starlike_case_a",
    "check_starlike_equal_arms",
    "check_twins_lemma",
    "classify_perron",
    "classify_structural",
    "coalesce",
    "complete_graph",
    "eig_sym",
    "format_dot",
    "format_edge_list",
    "format_json",
    "is_block_graph",
    "laplacian",
    "parse_arms",
    "parse_edge_list",
    "parse_grid",
    "path_graph",
    "reports_to_csv",
    "reports_to_json",
    "run_theorem",
    "spectral_summary",
    "star_graph",
    "starlike_profile",
    "sweep",
]
