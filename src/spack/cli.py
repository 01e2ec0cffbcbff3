"""Command-line surface: spack {color,verify,exact,chi-rho,subdivide,gen}.

Data goes to stdout, diagnostics to stderr.  Exit codes: 0 success,
1 domain failure (uncolorable component, UNSAT, verification failure),
2 malformed input or parameters, 3 search budget exhausted.  Graph
input defaults to graph6 on stdin; ``-`` means stdin anywhere a file is
expected.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict
from pathlib import Path

from .colorer import ColorOptions, CubicComponentError, color_graph
from .exact import DEFAULT_BUDGET, InvalidSequenceError, Status, chi_rho, decide
from .exchange import MoveBudgetExceededError, StuckError
from .gen import FAMILIES, generate
from .graph import GraphError, subdivide
from .graphio import (
    FormatError,
    coloring_from_json,
    coloring_to_json,
    encode_edge_list,
    encode_graph6,
    parse_edge_list,
    parse_graph6,
)
from .verify import ColoringError, InvalidInputColoringError, derive_subdivision_coloring, verify

SEED_ENV = "SPACK_SEED"


def _read_text(path: str) -> str:
    try:
        if path == "-":
            return sys.stdin.read()
        return Path(path).read_text()
    except UnicodeDecodeError as exc:
        raise FormatError(f"{'stdin' if path == '-' else path} is not text: {exc}") from None


def _graph_from_text(text: str, fmt: str):
    if fmt == "edges":
        return parse_edge_list(text)
    for line in text.splitlines():
        if line.strip():
            return parse_graph6(line)
    raise FormatError("no graph6 line found in input")


def _read_graph(args):
    return _graph_from_text(_read_text(args.input), args.format)


def _add_input_options(sp) -> None:
    sp.add_argument("--input", default="-", help="graph file, or - for stdin (default)")
    sp.add_argument(
        "--format", choices=("g6", "edges"), default="g6", help="graph input format"
    )


def _emit_graph(g, fmt: str) -> None:
    if fmt == "edges":
        sys.stdout.write(encode_edge_list(g))
    else:
        print(encode_graph6(g))


def _cmd_color(args) -> int:
    g = _read_graph(args)
    options = ColorOptions(
        fallback_exact=args.fallback_exact,
        exact_budget=args.exact_budget,
        max_moves=args.max_moves,
    )
    result = color_graph(g, options)
    if args.trace:
        for run in result.components:
            core = run.core_run
            if core is None:
                continue
            for record in core.moves:
                print(
                    f"component {run.vertices[0]}..: {record.move} "
                    f"{tuple(record.before)} -> {tuple(record.after)}",
                    file=sys.stderr,
                )
    if args.json:
        print(encode_graph6(g))
    print(coloring_to_json(result.coloring))
    return 0


def _cmd_verify(args) -> int:
    if args.graph == "-" and args.coloring == "-":
        if args.format == "edges":
            raise FormatError("an edge list cannot share stdin with the coloring; pass --graph a file")
        # the first non-blank line is the graph, the rest the coloring
        lines = _read_text("-").lstrip().splitlines()
        if not lines:
            raise FormatError("expected a graph6 line and a coloring document on stdin")
        g = parse_graph6(lines[0])
        coloring = coloring_from_json("\n".join(lines[1:]))
    else:
        g = _graph_from_text(_read_text(args.graph), args.format)
        coloring = coloring_from_json(_read_text(args.coloring))
    result = verify(g, coloring)
    print(json.dumps([asdict(v) for v in result.violations], separators=(",", ":")))
    if result.missing:
        print(f"unassigned vertices: {sorted(result.missing)}", file=sys.stderr)
    if result.multiply_assigned:
        print(f"multiply assigned: {sorted(result.multiply_assigned)}", file=sys.stderr)
    return 0 if result.ok else 1


def _count(text: str) -> int:
    """An argparse type for budgets and move caps: a non-negative integer."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return int(text)


def _parse_seq(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise FormatError(f"bad radius sequence {text!r}") from None


def _cmd_exact(args) -> int:
    g = _read_graph(args)
    outcome = decide(g, _parse_seq(args.seq), budget=args.budget)
    if outcome.status is Status.SAT:
        print("SAT")
        print(coloring_to_json(outcome.coloring))
        return 0
    if outcome.status is Status.UNSAT:
        print("UNSAT")
        return 1
    print("BUDGET")
    return 3


def _cmd_chi_rho(args) -> int:
    g = _read_graph(args)
    result = chi_rho(g, args.max_k, budget=args.budget)
    if result.value is not None:
        print(result.value)
        return 0
    print("UNKNOWN")
    return 3 if result.limited else 1


def _cmd_subdivide(args) -> int:
    g = _read_graph(args)
    lift = None
    if args.with_coloring is not None:
        coloring = coloring_from_json(_read_text(args.with_coloring))
        # the lift only relabels, so outside input is verified here, first
        checked = verify(g, coloring)
        if not checked.ok:
            raise InvalidInputColoringError(
                f"input coloring does not verify: {len(checked.violations)} violation(s), "
                f"missing={checked.missing}, multiply_assigned={checked.multiply_assigned}"
            )
        lift = derive_subdivision_coloring(g, coloring)
    sub, _ = subdivide(g)
    print(encode_graph6(sub))
    if lift is not None:
        print(coloring_to_json(lift))
    return 0


def _cmd_gen(args) -> int:
    seed = args.seed
    if seed is None and SEED_ENV in os.environ:
        try:
            seed = int(os.environ[SEED_ENV])
        except ValueError:
            raise FormatError(f"{SEED_ENV} must be an integer") from None
    g = generate(
        args.family, n=args.n, m=args.m, seed=seed, require_non_cubic=args.non_cubic
    )
    _emit_graph(g, args.out_format)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spack",
        description="(1,1,2,2)-packing coloring toolkit for subcubic graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("color", help="constructively color a subcubic graph")
    _add_input_options(sp)
    sp.add_argument("--fallback-exact", action="store_true",
                    help="hand 3-regular components to the exact oracle")
    sp.add_argument("--exact-budget", type=_count, default=DEFAULT_BUDGET)
    sp.add_argument("--max-moves", type=_count, default=None)
    sp.add_argument("--trace", action="store_true", help="log moves to stderr")
    sp.add_argument("--json", action="store_true",
                    help="prefix output with the input graph6 line")
    sp.set_defaults(func=_cmd_color)

    sp = sub.add_parser("verify", help="check a coloring against a graph")
    sp.add_argument("--graph", required=True)
    sp.add_argument("--coloring", required=True)
    sp.add_argument("--format", choices=("g6", "edges"), default="g6")
    sp.set_defaults(func=_cmd_verify)

    sp = sub.add_parser("exact", help="decide colorability by backtracking")
    _add_input_options(sp)
    sp.add_argument("--seq", required=True, help="radii, e.g. 1,1,2,2")
    sp.add_argument("--budget", type=_count, default=DEFAULT_BUDGET)
    sp.set_defaults(func=_cmd_exact)

    sp = sub.add_parser("chi-rho", help="packing chromatic number")
    _add_input_options(sp)
    sp.add_argument("--max-k", type=int, required=True)
    sp.add_argument("--budget", type=_count, default=DEFAULT_BUDGET)
    sp.set_defaults(func=_cmd_chi_rho)

    sp = sub.add_parser("subdivide", help="emit the edge subdivision")
    _add_input_options(sp)
    sp.add_argument("--with-coloring", default=None,
                    help="(1,1,2,2)-coloring JSON to lift to radii 1..5")
    sp.set_defaults(func=_cmd_subdivide)

    sp = sub.add_parser("gen", help="generate a test-family graph")
    sp.add_argument("--family", required=True, choices=FAMILIES)
    sp.add_argument("--n", type=int, default=None)
    sp.add_argument("--m", type=int, default=None)
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--non-cubic", action="store_true",
                    help="resample until the result is not 3-regular")
    sp.add_argument("--out-format", choices=("g6", "edges"), default="g6")
    sp.set_defaults(func=_cmd_gen)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CubicComponentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except StuckError as exc:
        print(f"error: exchange search stuck: {exc}", file=sys.stderr)
        return 1
    except MoveBudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (FormatError, GraphError, ColoringError, InvalidSequenceError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def console() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
