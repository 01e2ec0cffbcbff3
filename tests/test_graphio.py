import json
import random

import networkx as nx
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import (
    CORPUS_FILE,
    assert_canonical,
    make_coloring,
    reference_encode_graph6,
    reference_parse_graph6,
)
from spack.gen import path, petersen, random_subcubic
from spack.graph import DuplicateEdgeError, build_graph
from spack.graphio import (
    BadCharError,
    ColoringDocumentError,
    EdgeListError,
    FormatError,
    MalformedHeaderError,
    TrailingBitsError,
    _parse_size,
    _size_prefix,
    coloring_from_json,
    coloring_to_json,
    encode_edge_list,
    encode_graph6,
    parse_edge_list,
    parse_graph6,
)
from strategies import loose_graphs, subcubic_graphs

K4 = build_graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])


def test_graph6_k4():
    assert encode_graph6(K4) == "C~"
    assert parse_graph6("C~") == K4


def test_graph6_p3():
    assert encode_graph6(path(3)) == "Bg"
    assert parse_graph6("Bg") == path(3)


def test_graph6_header_and_whitespace_stripped():
    assert parse_graph6(">>graph6<<C~\n") == K4


def test_graph6_empty_and_singleton():
    assert parse_graph6(encode_graph6(build_graph(0, []))) == build_graph(0, [])
    assert parse_graph6(encode_graph6(build_graph(1, []))) == build_graph(1, [])


def test_graph6_long_size_form():
    g = path(100)
    line = encode_graph6(g)
    assert line.startswith("~")
    assert parse_graph6(line) == g


def test_graph6_accepts_non_canonical_size_forms():
    # The same path(5) via the 4-byte and 8-byte size encodings.
    assert parse_graph6("~??DhC") == path(5)
    assert parse_graph6("~~?????DhC") == path(5)


@pytest.mark.parametrize("n", [258047, 258048, (1 << 36) - 1])
def test_graph6_size_prefix_roundtrips_at_the_long_forms(n):
    # 258047 is the last 4-byte size, 258048 the first 8-byte one, and
    # 2^36 - 1 the largest size graph6 can state.
    prefix = _size_prefix(n)
    assert len(prefix) == (4 if n <= 258047 else 8)
    assert _parse_size(prefix + "rest") == (n, "rest")


def test_graph6_size_prefix_refuses_n_beyond_36_bits():
    with pytest.raises(FormatError, match="cannot encode"):
        _size_prefix(1 << 36)


def test_graph6_rejects_bad_bytes():
    with pytest.raises(BadCharError):
        parse_graph6("B" + chr(127))
    with pytest.raises(BadCharError, match=r"character '\\udcff' out of graph6 range"):
        parse_graph6("B\udcff")
    # In a long body the first character out of range is the one named.
    line = encode_graph6(path(1000))
    with pytest.raises(BadCharError, match=r"character ' ' out of graph6 range"):
        parse_graph6(line[:-3] + " " + line[-2] + chr(127))


def test_graph6_rejects_wrong_length():
    with pytest.raises(TrailingBitsError):
        parse_graph6("Bgg")
    with pytest.raises(TrailingBitsError):
        parse_graph6("B")


def test_graph6_rejects_nonzero_padding():
    with pytest.raises(TrailingBitsError):
        parse_graph6("Bj")


def test_graph6_rejects_truncated_size():
    with pytest.raises(MalformedHeaderError):
        parse_graph6("")
    with pytest.raises(MalformedHeaderError):
        parse_graph6("~B")


def test_graph6_corpus_roundtrip_and_networkx_agreement(corpus_all):
    for g in corpus_all:
        line = encode_graph6(g)
        assert parse_graph6(line) == g
        mirror = nx.from_graph6_bytes(line.encode())
        assert set(mirror.nodes()) == set(range(g.n))
        assert {tuple(sorted(e)) for e in mirror.edges()} == set(g.edges())


@given(subcubic_graphs(min_n=1, max_n=80))
def test_graph6_matches_networkx_encoding(g):
    mirror = nx.Graph()
    mirror.add_nodes_from(range(g.n))
    mirror.add_edges_from(g.edges())
    expected = nx.to_graph6_bytes(mirror, header=False).strip().decode()
    assert encode_graph6(g) == expected


@given(loose_graphs(max_n=9, max_degree=8))
def test_graph6_roundtrip_arbitrary(g):
    assert parse_graph6(encode_graph6(g)) == g


def _decode_outcome(decode, data):
    try:
        return decode(data)
    except FormatError as exc:
        return type(exc), str(exc)


MALFORMED_GRAPH6 = [
    "B" + chr(127),
    "été",
    "B>",
    "C~\x7f",
    "Bgg",
    "B",
    "Bj",
    "C" + chr(200),
    "",
    "~B",
    "~~?????DhD",
]


def test_graph6_decode_matches_per_bit_reference_on_corpus():
    for line in CORPUS_FILE.read_text().split():
        g = parse_graph6(line)
        assert_canonical(g)
        assert g == reference_parse_graph6(line)


@given(loose_graphs(max_n=40, max_degree=40))
def test_graph6_decode_matches_per_bit_reference_on_random_graphs(g):
    line = encode_graph6(g)
    assert_canonical(parse_graph6(line))
    assert parse_graph6(line) == reference_parse_graph6(line) == g


@given(subcubic_graphs(min_n=1, max_n=300))
def test_graph6_decode_matches_per_bit_reference_on_subcubic_graphs(g):
    line = encode_graph6(g)
    assert_canonical(parse_graph6(line))
    assert parse_graph6(line) == reference_parse_graph6(line) == g


def test_graph6_encode_matches_per_pair_reference_on_corpus():
    for line in CORPUS_FILE.read_text().split():
        g = parse_graph6(line)
        assert encode_graph6(g) == reference_encode_graph6(g) == line


@given(loose_graphs(max_n=70, max_degree=70))
def test_graph6_encode_matches_per_pair_reference_on_random_graphs(g):
    assert encode_graph6(g) == reference_encode_graph6(g)


@given(subcubic_graphs(min_n=1, max_n=300))
def test_graph6_encode_matches_per_pair_reference_on_subcubic_graphs(g):
    assert encode_graph6(g) == reference_encode_graph6(g)


@pytest.mark.parametrize("n", [0, 1, 62, 63, 64])
def test_graph6_encode_matches_per_pair_reference_at_size_form_switch(n):
    # n = 62 is the last one-character size prefix, 63 the first "~" form
    pairs = [(u, v) for v in range(n) for u in range(v)]
    for edges in ([], pairs[: n - 1], pairs[::3], pairs):
        g = build_graph(n, edges)
        assert encode_graph6(g) == reference_encode_graph6(g)
        assert parse_graph6(encode_graph6(g)) == g


def test_graph6_decode_matches_per_bit_reference_on_malformed_input():
    for data in MALFORMED_GRAPH6:
        outcome = _decode_outcome(parse_graph6, data)
        assert isinstance(outcome, tuple), data
        assert outcome == _decode_outcome(reference_parse_graph6, data), data


@given(st.text(alphabet=st.characters(min_codepoint=60, max_codepoint=130), max_size=12))
def test_graph6_decode_matches_per_bit_reference_on_arbitrary_text(data):
    # Mostly malformed lines: wrong lengths, bytes out of range, set
    # padding bits; the two decoders must agree on each outcome.
    assert _decode_outcome(parse_graph6, data) == _decode_outcome(reference_parse_graph6, data)


@pytest.mark.parametrize("n", [63, 64, 1000, 2000])
def test_graph6_decode_matches_per_bit_reference_on_long_dense_lines(n):
    # (3n - 1) // 2 edges is the densest non-cubic subcubic graph; n = 63
    # and 64 straddle the switch to the four-character size form
    g = random_subcubic(n, (3 * n - 1) // 2, seed=n, require_non_cubic=True)
    line = encode_graph6(g)
    assert_canonical(parse_graph6(line))
    assert parse_graph6(line) == reference_parse_graph6(line) == g


def test_graph6_decode_matches_per_bit_reference_on_a_loose_graph_of_high_degree():
    # about half of all pairs, so most body characters hold several set bits
    rng = random.Random(7)
    n = 101
    g = build_graph(n, [(u, v) for v in range(n) for u in range(v) if rng.random() < 0.5])
    assert max(map(len, g.adj)) > 60
    line = encode_graph6(g)
    assert_canonical(parse_graph6(line))
    assert parse_graph6(line) == reference_parse_graph6(line) == g


def _long_line_mutations():
    # n = 1001 leaves two padding bits in the last character; n = 1000
    # fills its last character exactly
    line = encode_graph6(random_subcubic(1001, 1500, seed=3, require_non_cubic=True))
    head, last = line[:-1], line[-1]
    return {
        "padding_bit": head + chr(((ord(last) - 63) | 1) + 63),
        "del_character": head[:-5] + chr(127) + head[-4:] + last,
        "non_ascii": head[:-2] + "é" + head[-1] + last,
        "lone_surrogate": head + "\udcff",
    }


@pytest.mark.parametrize("kind", sorted(_long_line_mutations()))
def test_graph6_decode_matches_per_bit_reference_on_long_malformed_lines(kind):
    line = _long_line_mutations()[kind]
    outcome = _decode_outcome(parse_graph6, line)
    assert isinstance(outcome, tuple)
    assert outcome == _decode_outcome(reference_parse_graph6, line)


def test_edge_list_infers_size():
    assert parse_edge_list("0 1\n1 2\n2 3") == path(4)
    assert parse_edge_list("0 1") == build_graph(2, [(0, 1)])
    assert parse_edge_list("1 2") == build_graph(3, [(1, 2)])


def test_edge_list_header_rule_wins_on_ambiguity():
    # "0 1" followed by exactly one line reads as a header with n=0,
    # so the body edge lands out of range.
    with pytest.raises(EdgeListError) as exc:
        parse_edge_list("0 1\n1 2")
    assert exc.value.line == 2


def test_edge_list_header_forms():
    assert parse_edge_list("3 2\n0 1\n1 2") == path(3)
    assert parse_edge_list("5 1\n0 1") == build_graph(5, [(0, 1)])
    assert parse_edge_list("0 0") == build_graph(0, [])
    assert parse_edge_list("4 0") == build_graph(4, [])
    assert parse_edge_list("") == build_graph(0, [])


def test_edge_list_header_only_when_count_matches():
    # "2 1" followed by one line is a header; followed by two it is an edge.
    assert parse_edge_list("2 1\n0 1") == build_graph(2, [(0, 1)])
    assert parse_edge_list("2 1\n0 1\n0 2") == build_graph(3, [(1, 2), (0, 1), (0, 2)])


def test_edge_list_comments_and_blanks():
    text = "# a triangle\n\n0 1  # first\n0 2\n1 2\n"
    assert parse_edge_list(text) == build_graph(3, [(0, 1), (0, 2), (1, 2)])


def test_edge_list_errors_carry_line_numbers():
    with pytest.raises(EdgeListError) as exc:
        parse_edge_list("0 1\nx y")
    assert exc.value.line == 2
    with pytest.raises(EdgeListError) as exc:
        parse_edge_list("0 1 2")
    assert exc.value.line == 1
    with pytest.raises(EdgeListError) as exc:
        parse_edge_list("0 -1")
    assert exc.value.line == 1
    with pytest.raises(EdgeListError) as exc:
        parse_edge_list("2 1\n0 5")
    assert exc.value.line == 2


def test_edge_list_duplicate_edge_surfaces_graph_error():
    with pytest.raises(DuplicateEdgeError):
        parse_edge_list("0 1\n1 0\n1 2")
    with pytest.raises(DuplicateEdgeError):
        parse_edge_list("2 2\n0 1\n0 1\n")


def test_edge_list_roundtrip():
    for g in (path(3), petersen(), build_graph(5, [])):
        assert parse_edge_list(encode_edge_list(g)) == g
    assert encode_edge_list(path(3)) == "3 2\n0 1\n1 2\n"


def test_coloring_json_roundtrip():
    coloring = make_coloring(5, [("1_a", 1, [4, 0]), ("2_a", 2, [1])])
    doc = json.loads(coloring_to_json(coloring))
    assert doc == {
        "n": 5,
        "classes": [
            {"label": "1_a", "radius": 1, "vertices": [0, 4]},
            {"label": "2_a", "radius": 2, "vertices": [1]},
        ],
    }
    assert coloring_from_json(coloring_to_json(coloring)) == coloring


def test_coloring_json_rejects_malformed_documents():
    with pytest.raises(ColoringDocumentError):
        coloring_from_json("not json")
    for doc in (
        [],
        {"n": -1, "classes": []},
        {"n": 2, "classes": {}},
        {"n": 2, "classes": ["x"]},
        {"n": 2, "classes": [{"label": 3, "radius": 1, "vertices": []}]},
        {"n": 2, "classes": [{"label": "a", "radius": 0, "vertices": []}]},
        {"n": 2, "classes": [{"label": "a", "radius": 1, "vertices": [True]}]},
    ):
        with pytest.raises(ColoringDocumentError):
            coloring_from_json(json.dumps(doc))


@pytest.mark.parametrize("vertices", [[0, 2, 2], [2, 0, 2]])
def test_coloring_json_rejects_a_vertex_listed_twice(vertices):
    # a class is a set: collapsing the repeat would accept the document
    doc = {"n": 3, "classes": [{"label": "a", "radius": 1, "vertices": [1]},
                               {"label": "b", "radius": 1, "vertices": vertices}]}
    with pytest.raises(ColoringDocumentError, match=r"^class 1: vertex 2 is listed twice$"):
        coloring_from_json(json.dumps(doc))


@pytest.mark.parametrize(
    "doc",
    [
        {"n": True, "classes": [{"label": "a", "radius": 1, "vertices": [0]}]},
        {"n": False, "classes": []},
        {"n": 1, "classes": [{"label": "a", "radius": True, "vertices": [0]}]},
        {"n": 1, "classes": [{"label": "a", "radius": False, "vertices": [0]}]},
    ],
)
def test_coloring_json_rejects_bools_as_integers(doc):
    # bool is a subclass of int, so JSON true/false must be refused by name
    with pytest.raises(ColoringDocumentError):
        coloring_from_json(json.dumps(doc))


def test_coloring_json_is_compact():
    text = coloring_to_json(make_coloring(1, [("1", 1, [0])]))
    assert " " not in text
    assert json.loads(text)["classes"][0]["vertices"] == [0]
