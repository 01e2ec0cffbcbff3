"""Constructive (1,1,2,2)-packing colorings of non-3-regular subcubic
graphs, an exact small-graph oracle, and supporting tooling.

The main entry points are :func:`color_graph` (constructive coloring),
:func:`verify` (S-packing coloring checker), :func:`decide` /
:func:`chi_rho` (exact backtracking oracle), and
:func:`derive_subdivision_coloring` (lift a (1,1,2,2) coloring of G to
a (1,2,3,4,5) coloring of its subdivision).  The package re-exports
them with their option, result and error types and the graph I/O.  The
stages of the search (peeling, weights, the exchange state and its
moves) stay in their modules: ``spack.colorer``, ``spack.weights`` and
``spack.exchange``.
"""
from .colorer import ColorOptions, ColorResult, CubicComponentError, color_graph
from .exact import ChiRhoResult, DecisionOutcome, Status, chi_rho, decide
from .exchange import MoveBudgetExceededError, StuckError
from .graph import Graph, GraphError, build_graph, subdivide
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
    verify,
    verify_sequence_shape,
)

__version__ = "0.1.0"

__all__ = [
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
    "Status",
    "StuckError",
    "VerifyResult",
    "build_graph",
    "chi_rho",
    "color_graph",
    "coloring_from_json",
    "coloring_to_json",
    "decide",
    "derive_subdivision_coloring",
    "encode_edge_list",
    "encode_graph6",
    "parse_edge_list",
    "parse_graph6",
    "subdivide",
    "verify",
    "verify_sequence_shape",
]
