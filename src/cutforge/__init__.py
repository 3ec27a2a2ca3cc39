"""cutforge: exact cuts, path-counting measures, and structure trees.

Everything is exact integer arithmetic over finite universes: plain graphs
or Cayley balls.  The layers build on each other in order: graphs, groups,
cuts, series, sieve, trees, ends.
"""

from .graphs import (
    Graph,
    GraphError,
    collapse_blocks,
    components,
    graph_from_json_dict,
    graph_to_json_dict,
    is_forest,
    is_tree,
    reduced_path,
    tree_distance,
)
from .groups import (
    FreeOracle,
    FreeProductOracle,
    GroupError,
    PermOracle,
    TableOracle,
    ZdOracle,
    ball,
    make_oracle,
)
from .cuts import (
    Cut,
    CutAlgebra,
    CutError,
    act_left_cut,
    boolean_closure,
    cut_from_members,
    is_almost_right_stable,
    nested_report,
    orbit_cuts,
)
from .series import (
    TruncatedSeries,
    certified_length,
    corner_series,
    crossing_distance,
    enumeration_counts,
    measure,
    odd_crossing_series,
    transfer_counts,
)
from .sieve import (
    SieveReport,
    classify,
    irreducible_family,
    select_nested_generating,
)
from .trees import (
    NestedSystem,
    StructureTree,
    TreeAction,
    TreeError,
    blow_up,
    collapse_compressible,
    induce_action,
    paired_tree,
    size_polynomial,
    unpaired_tree,
    verify_system,
    vertex_embed,
)
from .ends import (
    EndsError,
    balanced_cut,
    ends_profile,
    splitting_pipeline,
)

__version__ = "0.1.0"

__all__ = [
    "Graph", "GraphError", "collapse_blocks", "components",
    "graph_from_json_dict", "graph_to_json_dict", "is_forest", "is_tree",
    "reduced_path", "tree_distance",
    "FreeOracle", "FreeProductOracle", "GroupError", "PermOracle",
    "TableOracle", "ZdOracle", "ball", "make_oracle",
    "Cut", "CutAlgebra", "CutError", "act_left_cut", "boolean_closure",
    "cut_from_members", "is_almost_right_stable", "nested_report",
    "orbit_cuts",
    "TruncatedSeries", "certified_length", "corner_series",
    "crossing_distance", "enumeration_counts", "measure",
    "odd_crossing_series", "transfer_counts",
    "SieveReport", "classify", "irreducible_family",
    "select_nested_generating",
    "NestedSystem", "StructureTree", "TreeAction", "TreeError", "blow_up",
    "collapse_compressible", "induce_action", "paired_tree",
    "size_polynomial", "unpaired_tree", "verify_system", "vertex_embed",
    "EndsError", "balanced_cut", "ends_profile", "splitting_pipeline",
]
