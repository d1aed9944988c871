"""Clustered graph coloring over layered tree decompositions.

The library builds colorings in which every monochromatic component is
small, with the component-size bound depending only on the layered width
of a tree decomposition and the maximum degree. Alongside the coloring
pipeline it provides the supporting machinery: structural validators,
decomposition enlargement, instance generators, an exhaustive
verification oracle, and PACE-format files.

It implements the s = 1 case of the paper's theorem, the 3-coloring of
bounded-degree graphs; it has no colorer for K_{s,t}-free graphs with
s >= 2. Every module is one that the commands load.
"""

from .errors import (
    BudgetExceeded,
    ClusteringBoundError,
    GroupBudgetError,
    InternalInvariantError,
    InvalidDecomposition,
    InvalidLayering,
    PaceParseError,
)
from .generators import (
    gen_grid,
    gen_kst,
    gen_kst_instance,
    gen_path,
    gen_rect_grid,
)
from .graph import (
    AxiomCheck,
    DecompositionReport,
    Graph,
    LayeredTreeDecomposition,
    Layering,
    TreeDecomposition,
    ValidationReport,
    bfs_layering,
    check_decomposition,
)
from .threecolor import (
    ThreeColorConstants,
    ThreeColorResult,
    compute_constants,
    three_color_lists,
)
from .twocolor import (
    EdgeGroup,
    GroupBudget,
    cluster_bound,
    enlarge_lists,
    two_color_bounded_treewidth,
)
from .verify import (
    ClusterReport,
    edge_components,
    trigrid_path_oracle,
)

__version__ = "0.1.0"

__all__ = [
    "AxiomCheck",
    "BudgetExceeded",
    "ClusterReport",
    "ClusteringBoundError",
    "DecompositionReport",
    "EdgeGroup",
    "Graph",
    "GroupBudget",
    "GroupBudgetError",
    "InternalInvariantError",
    "InvalidDecomposition",
    "InvalidLayering",
    "LayeredTreeDecomposition",
    "Layering",
    "PaceParseError",
    "ThreeColorConstants",
    "ThreeColorResult",
    "TreeDecomposition",
    "ValidationReport",
    "bfs_layering",
    "check_decomposition",
    "cluster_bound",
    "compute_constants",
    "edge_components",
    "enlarge_lists",
    "gen_grid",
    "gen_kst",
    "gen_kst_instance",
    "gen_path",
    "gen_rect_grid",
    "three_color_lists",
    "trigrid_path_oracle",
    "two_color_bounded_treewidth",
]
