"""Distance-based vertex identification in connected graphs.

A rank assignment gives every vertex an integer; vertex v's string lists,
for each distance i up to the diameter, the total rank sitting at distance
exactly i from v.  This package computes the minimum number of distinct
rank values needed to make all strings differ (``id_index_exact``), the
minimum red set whose distance counts do the same (``id_number_exact``),
closed-form optimal assignments for several graph families, and the
structural analysis (twin classes, distance profiles) behind the bounds.
"""

from .graphs import (
    DisconnectedError,
    DistanceMatrix,
    Graph,
    all_pairs_distances,
    build_graph,
    is_connected,
    parse_edge_list,
)
from .families import FamilySpec, generate, parse_family_spec
from .strings_codes import code_table, first_collision, is_distinguishing, string_table
from .structure import (
    TupletClass,
    TupletClasses,
    counting_lower_bound,
    distance_profile,
    tuplet_classes,
)
from .solvers import (
    IdIndexCertificate,
    Partition,
    certificate_ranks,
    greedy_upper_bound,
    id_index_exact,
    id_number_exact,
    to_restricted_growth,
)
from .constructions import (
    construct_assignment,
    expected_id_index,
    universal_assignment,
)

__all__ = [
    "DisconnectedError",
    "DistanceMatrix",
    "Graph",
    "all_pairs_distances",
    "build_graph",
    "is_connected",
    "parse_edge_list",
    "FamilySpec",
    "generate",
    "parse_family_spec",
    "code_table",
    "first_collision",
    "is_distinguishing",
    "string_table",
    "TupletClass",
    "TupletClasses",
    "counting_lower_bound",
    "distance_profile",
    "tuplet_classes",
    "IdIndexCertificate",
    "Partition",
    "certificate_ranks",
    "greedy_upper_bound",
    "id_index_exact",
    "id_number_exact",
    "to_restricted_growth",
    "construct_assignment",
    "expected_id_index",
    "universal_assignment",
]

__version__ = "0.1.0"
