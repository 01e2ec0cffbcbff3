"""Constructive (1,1,2,2)-packing colorings of non-3-regular subcubic
graphs, an exact small-graph oracle, and supporting tooling.

The package re-exports :func:`color_graph`, :func:`verify`,
:func:`decide`, :func:`chi_rho` and :func:`derive_subdivision_coloring`
with their option, result and error types and the graph I/O; the
stages of the search stay in ``spack.colorer``, ``spack.weights`` and
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
