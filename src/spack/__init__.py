"""Constructive (1,1,2,2)-packing colorings of non-3-regular subcubic
graphs, an exact small-graph oracle, and supporting tooling.

The main entry points are :func:`color_graph` (constructive coloring),
:func:`verify` (S-packing coloring checker), :func:`decide` /
:func:`chi_rho` (exact backtracking oracle), and
:func:`derive_subdivision_coloring` (lift a (1,1,2,2) coloring of G to
a (1,2,3,4,5) coloring of its subdivision).
"""
from .colorer import (
    ColorOptions,
    ColorResult,
    CubicComponentError,
    color_core,
    color_graph,
    extend_coloring,
    peel,
)
from .exact import ChiRhoResult, DecisionOutcome, Status, chi_rho, decide
from .exchange import (
    BipartitionState,
    MoveBudgetExceededError,
    StuckError,
    apply_move,
    find_move,
    initial_state,
    run_to_fixpoint,
)
from .graph import (
    Graph,
    GraphError,
    build_graph,
    components,
    induced,
    subdivide,
)
from .graphio import (
    FormatError,
    coloring_from_json,
    coloring_to_json,
    encode_edge_list,
    encode_graph6,
    parse_edge_list,
    parse_graph6,
)
from .verify import (
    ColorClass,
    PackingColoring,
    VerifyResult,
    derive_subdivision_coloring,
    make_coloring,
    verify,
    verify_sequence_shape,
)
from .weights import Potential, compute_weights, potential

__version__ = "0.1.0"

__all__ = [
    "BipartitionState",
    "ChiRhoResult",
    "ColorClass",
    "ColorOptions",
    "ColorResult",
    "CubicComponentError",
    "DecisionOutcome",
    "FormatError",
    "Graph",
    "GraphError",
    "MoveBudgetExceededError",
    "PackingColoring",
    "Potential",
    "Status",
    "StuckError",
    "VerifyResult",
    "apply_move",
    "build_graph",
    "chi_rho",
    "color_core",
    "color_graph",
    "coloring_from_json",
    "coloring_to_json",
    "components",
    "compute_weights",
    "decide",
    "derive_subdivision_coloring",
    "encode_edge_list",
    "encode_graph6",
    "extend_coloring",
    "find_move",
    "induced",
    "initial_state",
    "make_coloring",
    "parse_edge_list",
    "parse_graph6",
    "peel",
    "potential",
    "run_to_fixpoint",
    "subdivide",
    "verify",
    "verify_sequence_shape",
]
