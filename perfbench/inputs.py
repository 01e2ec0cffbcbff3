"""Workload inputs for the benchmark, built from the workload seed.

Each workload is a list of tasks.  A task carries its graph as graph6
text: the library only ever receives that text, never the seed or the
generator parameters.  Building the tasks is the
benchmark's set-up.  ``build`` yields the tasks one at a time, so the
caller can time each task's set-up; the generator and encoder calls are
also timed through the tracer handed in.
"""
from __future__ import annotations

import random
from collections.abc import Iterator
from dataclasses import dataclass
from pathlib import Path

from spack.gen import petersen, random_subcubic
from spack.graph import is_cubic
from spack.graphio import encode_graph6, parse_graph6

CORPUS_FILE = Path("tests") / "data" / "connected_subcubic.g6"
CHI_REFERENCE = Path(__file__).resolve().parent / "chi_rho_corpus.txt"


@dataclass(frozen=True)
class Task:
    """One input of a workload.

    ``kind`` selects the pipeline: ``color`` (solve and certify a
    (1,1,2,2)-coloring), ``chi`` (``chi_rho`` with ``arg`` as k_max and
    ``expect`` the known value, if there is one),
    ``decide`` (``decide`` with ``arg`` as the radius sequence and
    ``expect`` the status value) or ``fallback`` (``color_graph`` with
    the exact fallback on a 3-regular graph, ``expect`` being ``sat``
    or the ``CubicComponentError`` reason).
    """

    name: str
    kind: str
    text: str
    n: int
    m: int
    arg: object = None
    expect: str | None = None


@dataclass(frozen=True)
class Sizes:
    """Input sizes; the defaults are the benchmark's, the self-test shrinks them."""

    dense_n: int = 1000
    dense_graphs: int = 12
    sweep_random: int = 2000
    sweep_max_n: int = 200
    oracle_random: int = 300
    oracle_n: tuple[int, int] = (18, 22)
    corpus_stride: int = 1


def _non_cubic_cap(n: int) -> int:
    """Largest edge count of a connected non-3-regular subcubic graph on n vertices."""
    cap = min(3 * n // 2, n * (n - 1) // 2)
    if n >= 4 and n % 2 == 0 and cap == 3 * n // 2:
        cap -= 1
    return max(n - 1, cap)


def _generate(tr, n: int, m: int, seed: int, non_cubic: bool = True):
    with tr.span("gen.generate"):
        return random_subcubic(n, m, seed=seed, require_non_cubic=non_cubic)


def _graph6(tr, g) -> str:
    with tr.span("graphio.encode"):
        return encode_graph6(g)


def _corpus(root: Path, stride: int) -> list[tuple[int, str, object]]:
    """(line number, graph6 text, parsed graph) for every corpus line."""
    lines = (root / CORPUS_FILE).read_text(encoding="ascii").split()
    return [(i, text, parse_graph6(text)) for i, text in enumerate(lines, 1)][::stride]


def _chi_reference() -> dict[int, int]:
    """Known chi_rho per corpus line, for the graphs with n <= 8."""
    rows = (line.split() for line in CHI_REFERENCE.read_text(encoding="ascii").splitlines())
    return {int(line): int(chi) for line, chi in (r for r in rows if r and not r[0].startswith("#"))}


def build(workload: str, seed: int, root: Path, tr, sizes: Sizes = Sizes()) -> Iterator[Task]:
    """Yield the tasks of ``workload`` for ``seed``; same seed, same tasks."""
    if workload == "dense-1k":
        n, rng = sizes.dense_n, random.Random(seed)
        for i in range(sizes.dense_graphs):
            g = _generate(tr, n, 3 * n // 2 - 1, rng.randrange(2**32))
            yield Task(f"dense:{i}", "color", _graph6(tr, g), g.n, g.edge_count)
    elif workload == "corpus-sweep":
        yield from _corpus_sweep(seed, root, tr, sizes)
    elif workload == "oracle":
        yield from _oracle(seed, root, tr, sizes)
    else:
        raise ValueError(f"unknown workload {workload!r}")


def _corpus_sweep(seed: int, root: Path, tr, sizes: Sizes) -> Iterator[Task]:
    """Non-cubic corpus graphs plus the acceptance gate's random mix."""
    for line, text, g in _corpus(root, sizes.corpus_stride):
        if not is_cubic(g):
            yield Task(f"corpus:{line}", "color", text, g.n, g.edge_count)
    rng = random.Random(seed)
    for trial in range(sizes.sweep_random):
        n = rng.randint(2, sizes.sweep_max_n)
        cap = _non_cubic_cap(n)
        style = trial % 3
        if style == 0:  # near-tree
            m = min(cap, n - 1 + rng.randint(0, max(1, n // 10)))
        elif style == 1:  # medium density
            m = min(cap, max(n - 1, round(1.25 * (n - 1))))
        else:  # near the subcubic ceiling
            m = rng.randint(max(n - 1, cap - max(1, n // 10)), cap)
        g = _generate(tr, n, m, rng.randrange(2**32))
        yield Task(f"random:{trial}", "color", _graph6(tr, g), g.n, g.edge_count)


def _oracle(seed: int, root: Path, tr, sizes: Sizes) -> Iterator[Task]:
    """Inputs that only the exact module serves."""
    corpus, known = _corpus(root, sizes.corpus_stride), _chi_reference()
    for line, text, g in corpus:
        if g.n <= 8:
            yield Task(f"chi:corpus:{line}", "chi", text, g.n, g.edge_count, arg=8, expect=str(known[line]))
    rng = random.Random(seed)
    lo, hi = sizes.oracle_n
    for trial in range(sizes.oracle_random):
        # Each n in turn: the search cost grows steeply with n, and an equal
        # share of each n keeps a seed's total cost close to another's.
        n = lo + trial % (hi - lo + 1)
        m = round(1.25 * (n - 1))
        g = _generate(tr, n, m, rng.randrange(2**32), non_cubic=False)
        yield Task(f"chi:random:{trial}", "chi", _graph6(tr, g), g.n, g.edge_count, arg=10)
    p = petersen()
    pg = _graph6(tr, p)
    yield Task("decide:petersen:1122", "decide", pg, p.n, p.edge_count, arg=(1, 1, 2, 2), expect="unsat")
    yield Task("decide:petersen:11223", "decide", pg, p.n, p.edge_count, arg=(1, 1, 2, 2, 3), expect="sat")
    # Every 3-regular corpus graph (n <= 8) admits a (1,1,2,2)-coloring;
    # the witness is verified, so "sat" is checked, not assumed.
    for line, text, g in corpus:
        if is_cubic(g):
            yield Task(f"fallback:corpus:{line}", "fallback", text, g.n, g.edge_count, expect="sat")
    yield Task("fallback:petersen", "fallback", pg, p.n, p.edge_count, expect="oracle-unsat")
