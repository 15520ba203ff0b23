"""Planarity certification for simple graphs.

Every decision comes with a checkable witness: a genus-0 rotation system
for planar graphs, or a K5/K3,3 subdivision certificate for non-planar
ones.  The harness module replays the supporting theory (obstruction
characterizations, certificate lifting, face-boundary structure)
exhaustively at small scale.
"""

from .errors import (
    CapacityError,
    InternalInconsistencyError,
    SearchBudgetExceeded,
    StepBudget,
)
from .graphs import (
    Edge,
    Graph,
    VertexMap,
    complete_bipartite,
    complete_graph,
    contract_edge,
    cycle_graph,
    delete_edge,
    delete_vertex,
    delete_vertices,
    enumerate_labeled_graphs,
    from_edge_mask,
    path_graph,
    petersen_graph,
    subdivide_edge,
)
from .embedding import (
    FaceSet,
    Rotation,
    find_covering_planar_rotation,
    find_planar_rotation,
    genus,
    lr_kuratowski,
    lr_planar_rotation,
    trace_faces,
)
from .subdivision import (
    MinorCertificate,
    Pattern,
    SubdivisionCertificate,
    contains_theta,
    find_kuratowski,
    find_minor,
    find_subdivision,
    lift_certificate,
    minor_to_subdivision,
    validate_minor,
    validate_subdivision,
)
from .lemmas import (
    LemmaReport,
    condition1,
    condition2,
    condition3,
    lemma_report,
)
from .documents import format_edge_list, parse_edge_list
from .planarity import (
    DecisionConfig,
    DecisionPath,
    Verdict,
    decide,
    decide_via_minor,
)

__version__ = "0.1.0"
