"""Exact rigidity analysis for bar-joint frameworks in polyhedral norms.

The package decides infinitesimal rigidity, redundant rigidity and global
rigidity of frameworks whose ambient norm has a centrally symmetric
polytope as its unit ball, entirely in rational arithmetic.  See the
README for a tour; the CLI entry point is ``polyrigid``.
"""

__version__ = "0.1.0"

from .errors import (
    BudgetExceededError,
    DimensionMismatchError,
    FrameworkFileError,
    InconsistentSystemError,
    NotWellPositionedError,
    ParameterError,
    PolyrigidError,
)
from .graph import (
    Graph,
    complete_graph,
    connected_components,
    cycle_graph,
    is_2_connected,
    is_2_edge_connected,
    is_connected,
    path_graph,
)
from .norm import LinearIsometry, PolytopeNorm, preset
from .framework import (
    Framework,
    colouring_matrix,
    edge_lengths,
    induced_colouring,
    induced_colourings,
    is_infinitesimally_rigid,
    is_redundantly_rigid,
    is_rigid_linf_by_colour,
    is_well_positioned,
    monochromatic_subgraphs,
    rank_exact,
    rigidity_matrix,
)
from .sparsity import (
    SparsityParams,
    edges_in_circuits,
    fundamental_circuit,
    is_Mdd_connected,
    is_dd_redundant,
    is_sparse,
    is_tight,
    max_sparse_subset,
    pebble_rank,
)
from .global_rigidity import (
    BUDGET_EXCEEDED,
    GLOBALLY_RIGID,
    NOT_GLOBALLY_RIGID,
    NOT_RIGID,
    NOT_WELL_POSITIONED,
    GlobalVerdict,
    certify_generic_global,
    decide_generic_global_linf2,
    decide_global_rigidity,
    equivalent_witness_lp,
    is_strong_colouring_exhaustive,
    is_strong_colouring_linf,
)
from .constructions import (
    GadgetSpec,
    NpGadget,
    build_flexible_open,
    build_hypercube,
    build_k2d,
    build_np_gadget,
    build_octahedron,
    project_framework,
    randomize_realisation,
)
from .oracle import SearchParams, congruence_check, numeric_witness_search
