import hashlib
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import assert_canonical, ball
from spack.gen import (
    FAMILIES,
    InfeasibleParamsError,
    _below,
    cycle,
    generate,
    path,
    petersen,
    prism,
    random_subcubic,
    random_tree,
)
from spack.graph import build_graph, components, is_cubic
from spack.graphio import encode_graph6


def test_cycle_shape():
    g = cycle(5)
    assert g.n == 5 and g.edge_count == 5
    assert all(g.degree(v) == 2 for v in range(5))
    with pytest.raises(InfeasibleParamsError):
        cycle(2)


def test_path_shape():
    assert path(1) == build_graph(1, [])
    g = path(5)
    assert g.edge_count == 4
    assert g.degree(0) == g.degree(4) == 1
    with pytest.raises(InfeasibleParamsError):
        path(0)


def test_petersen_shape():
    g = petersen()
    assert g.n == 10 and g.edge_count == 15
    assert is_cubic(g)


def test_petersen_girth_five():
    g = petersen()
    # Girth >= 5: removing any edge leaves its endpoints at distance >= 4.
    for u, v in g.edges():
        trimmed = build_graph(g.n, [e for e in g.edges() if e != (u, v)])
        assert v not in ball(trimmed, (u,), 3)
    # ... and the outer cycle realizes length 5.
    assert all(g.has_edge(i, (i + 1) % 5) for i in range(5))


def test_prism_shape():
    g = prism(3)
    assert g.n == 6 and g.edge_count == 9
    assert is_cubic(g)
    assert len(components(g)) == 1
    with pytest.raises(InfeasibleParamsError):
        prism(2)


@given(st.integers(1, 40), st.integers(0, 2**31 - 1))
def test_random_tree_is_a_subcubic_tree(n, seed):
    g = random_tree(n, seed)
    assert g.n == n and g.edge_count == n - 1
    assert len(components(g)) == 1
    assert all(g.degree(v) <= 3 for v in range(n))
    assert g == random_tree(n, seed)


def test_random_tree_rejects_zero():
    with pytest.raises(InfeasibleParamsError):
        random_tree(0)


def test_random_tree_outputs_pinned():
    # Taken from the generator that drew with ``rng.randrange``; the
    # trees share ``_tree_edges`` with ``random_subcubic``.
    digest = hashlib.sha256()
    for n in (1, 2, 3, 4, 7, 50, 300, 1000, 5000):
        for seed in range(20):
            g = random_tree(n, seed)
            assert_canonical(g)
            digest.update(encode_graph6(g).encode() + b"\n")
    assert digest.hexdigest() == "e5203d754b2ac41620ef9150ab7192339dd57a2c3ed7e0e782aaa6dc56886096"


@pytest.mark.parametrize(
    "size",
    [1, 2, 3, 255, 256, 257, 2**31 - 1, 2**32, 2**32 + 1, 2**40 + 3]
    + [random.Random(7).randrange(1, 2**k) for k in range(1, 64, 6)],
)
def test_below_is_randrange(size):
    # ``_below`` restates ``Random.randrange(n)``: the same values, draw
    # for draw, and the generators left in the same state.
    ours, theirs = random.Random(size), random.Random(size)
    bits = ours.getrandbits
    assert [_below(bits, size) for _ in range(300)] == [theirs.randrange(size) for _ in range(300)]
    assert ours.getstate() == theirs.getstate()


@given(st.integers(2, 40), st.data())
def test_random_subcubic_properties(n, data):
    cap = min(3 * n // 2, n * (n - 1) // 2)
    m = data.draw(st.integers(n - 1, cap), label="m")
    seed = data.draw(st.integers(0, 2**31 - 1), label="seed")
    g = random_subcubic(n, m, seed=seed)
    assert g.n == n
    assert len(components(g)) == 1
    assert all(g.degree(v) <= 3 for v in range(n))
    assert n - 1 <= g.edge_count <= m


def test_random_subcubic_determinism():
    assert random_subcubic(50, 70, seed=1) == random_subcubic(50, 70, seed=1)


def test_random_subcubic_non_cubic_option():
    for seed in range(10):
        g = random_subcubic(8, 12, seed=seed, require_non_cubic=True)
        assert not is_cubic(g)
    assert random_subcubic(1, 0, require_non_cubic=True) == build_graph(1, [])


def test_random_subcubic_outputs_pinned():
    # One digest over graph6 lines for every (n, m, seed, non-cubic) cell
    # pins the sampler draw for draw; it was taken from the sampler that
    # rebuilt its pool list for every edge.  The grid holds pools of up
    # to five 256-member blocks (n = 2000) and runs whose rejection
    # sampling fails and falls back to exhaustive enumeration, such as
    # (6, 9, seed 6, non-cubic).  Each graph must also be exactly what
    # ``build_graph`` makes of its own edges.
    digest = hashlib.sha256()
    for n in (2, 3, 6, 7, 50, 200, 600, 1000, 2000):
        cap = min(3 * n // 2, n * (n - 1) // 2)
        for m in sorted({n - 1, round(1.25 * (n - 1)), cap}):
            for seed in range(20):
                for non_cubic in (False, True):
                    g = random_subcubic(n, m, seed, require_non_cubic=non_cubic)
                    assert_canonical(g)
                    digest.update(encode_graph6(g).encode() + b"\n")
    assert digest.hexdigest() == "468ac57fa20a08a01d0e7d6c4641b52021e3ff6f7312cedd58279121be9bc467"


def test_random_subcubic_large_pool_pinned():
    # A pool of about 80 blocks of 256 members, at the sparsest and the
    # densest non-cubic edge counts; taken from the generator that drew
    # with ``rng.randrange`` and kept its adjacency in sets.
    digest = hashlib.sha256()
    for m in (29_999, 20_000):
        for seed in range(3):
            g = random_subcubic(20_000, m, seed)
            digest.update(encode_graph6(g).encode() + b"\n")
    assert digest.hexdigest() == "aac83b8782f7cd2793bfa11be779ce36180a44b0963c2d5691b55fb6b6130c8e"


@pytest.mark.parametrize(
    "call",
    [
        lambda: random_subcubic(10, 12.5, seed=1),
        lambda: random_subcubic(10.0, 12, seed=1),
        lambda: random_subcubic(True, 0),
        lambda: random_subcubic(2, True),
        lambda: random_tree(4.0, 1),
        lambda: random_tree(True, 1),
    ],
    ids=["float_m", "float_n", "bool_n", "bool_m", "tree_float_n", "tree_bool_n"],
)
def test_generators_reject_non_int_sizes(call):
    with pytest.raises(InfeasibleParamsError, match="must be an int"):
        call()


def test_random_subcubic_rejects_bad_params():
    with pytest.raises(InfeasibleParamsError):
        random_subcubic(0, 0)
    with pytest.raises(InfeasibleParamsError):
        random_subcubic(5, 3)
    with pytest.raises(InfeasibleParamsError):
        random_subcubic(5, 8)
    with pytest.raises(InfeasibleParamsError):
        random_subcubic(4, 7)


def test_random_subcubic_infeasible_non_cubic():
    # n=4, m=6 admits only K4, which is 3-regular.
    with pytest.raises(InfeasibleParamsError):
        random_subcubic(4, 6, seed=0, require_non_cubic=True)


def test_generate_dispatch():
    assert generate("petersen") == petersen()
    assert generate("cycle", n=6) == cycle(6)
    assert generate("path", n=4) == path(4)
    assert generate("prism", n=4) == prism(4)
    assert generate("random-tree", n=9, seed=3) == random_tree(9, 3)
    assert generate("random-subcubic", n=9, m=10, seed=3) == random_subcubic(9, 10, 3)


def test_generate_default_edge_target():
    g = generate("random-subcubic", n=20, seed=5)
    assert g.edge_count <= min(30, round(1.25 * 19))


def test_generate_rejects_missing_or_unknown():
    with pytest.raises(InfeasibleParamsError):
        generate("cycle")
    with pytest.raises(InfeasibleParamsError):
        generate("moebius", n=8)
    assert "random-subcubic" in FAMILIES
