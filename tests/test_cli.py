import io
import json

import pytest

import spack.colorer
from spack.cli import main
from spack.exchange import StuckError, initial_state
from spack.gen import cycle, path, petersen, random_subcubic
from spack.graph import build_graph, subdivide
from spack.graphio import coloring_from_json, encode_graph6, parse_graph6
from spack.verify import verify, verify_sequence_shape


def run_cli(monkeypatch, capsys, argv, stdin=""):
    if isinstance(stdin, bytes):  # raw bytes, decoded as strict UTF-8
        stdin = io.TextIOWrapper(io.BytesIO(stdin), encoding="utf-8")
    else:
        stdin = io.StringIO(stdin)
    monkeypatch.setattr("sys.stdin", stdin)
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_petersen_then_exact_unsat(monkeypatch, capsys):
    code, out, _ = run_cli(monkeypatch, capsys, ["gen", "--family", "petersen"])
    assert code == 0
    assert parse_graph6(out.strip()) == petersen()
    code, out, _ = run_cli(
        monkeypatch, capsys, ["exact", "--seq", "1,1,2,2"], stdin=out
    )
    assert code == 1
    assert out.strip() == "UNSAT"


def test_exact_sat_payload_verifies(monkeypatch, capsys):
    code, out, _ = run_cli(
        monkeypatch,
        capsys,
        ["exact", "--seq", "1,1,2,2,3"],
        stdin=encode_graph6(petersen()) + "\n",
    )
    assert code == 0
    status, payload = out.strip().splitlines()
    assert status == "SAT"
    coloring = coloring_from_json(payload)
    assert verify(petersen(), coloring).ok


def test_exact_budget_exit_code(monkeypatch, capsys):
    code, out, _ = run_cli(
        monkeypatch,
        capsys,
        ["exact", "--seq", "1,1,2,2,3", "--budget", "1"],
        stdin=encode_graph6(petersen()) + "\n",
    )
    assert code == 3
    assert out.strip() == "BUDGET"


def test_color_verify_pipeline(monkeypatch, capsys):
    code, gen_out, _ = run_cli(monkeypatch, capsys, ["gen", "--family", "cycle", "--n", "5"])
    assert code == 0
    code, color_out, _ = run_cli(monkeypatch, capsys, ["color", "--json"], stdin=gen_out)
    assert code == 0
    assert len(color_out.strip().splitlines()) == 2
    code, verify_out, _ = run_cli(
        monkeypatch,
        capsys,
        ["verify", "--graph", "-", "--coloring", "-"],
        stdin=color_out,
    )
    assert code == 0
    assert json.loads(verify_out.strip()) == []


def test_color_without_json_prints_only_coloring(monkeypatch, capsys):
    code, out, _ = run_cli(
        monkeypatch, capsys, ["color"], stdin=encode_graph6(cycle(5)) + "\n"
    )
    assert code == 0
    coloring = coloring_from_json(out.strip())
    assert verify(cycle(5), coloring).ok
    verify_sequence_shape(coloring, (1, 1, 2, 2))


def test_color_cubic_without_fallback_fails(monkeypatch, capsys):
    code, out, err = run_cli(
        monkeypatch, capsys, ["color"], stdin=encode_graph6(petersen()) + "\n"
    )
    assert code == 1
    assert out == ""
    assert "3-regular component" in err


def test_color_cubic_with_fallback(monkeypatch, capsys):
    k4 = parse_graph6("C~")
    code, out, _ = run_cli(
        monkeypatch, capsys, ["color", "--fallback-exact"], stdin="C~\n"
    )
    assert code == 0
    assert verify(k4, coloring_from_json(out.strip())).ok


def test_color_petersen_with_fallback_still_fails(monkeypatch, capsys):
    code, _, err = run_cli(
        monkeypatch,
        capsys,
        ["color", "--fallback-exact"],
        stdin=encode_graph6(petersen()) + "\n",
    )
    assert code == 1
    assert "oracle-unsat" in err


def test_color_trace_goes_to_stderr(monkeypatch, capsys):
    code, gen_out, _ = run_cli(
        monkeypatch,
        capsys,
        ["gen", "--family", "random-subcubic", "--n", "20", "--m", "26", "--seed", "6"],
    )
    code, out, err = run_cli(monkeypatch, capsys, ["color", "--trace"], stdin=gen_out)
    assert code == 0
    assert "component" in err
    coloring = coloring_from_json(out.strip())
    assert coloring.n == 20


def test_color_trace_skips_a_tree_component(monkeypatch, capsys):
    # The edge 0-1 is a tree with no core run, so only the moves of the
    # random graph on 2..21 are traced.
    busy = random_subcubic(20, 26, seed=6)
    g = build_graph(22, [(0, 1)] + [(u + 2, v + 2) for u, v in busy.edges()])
    code, out, err = run_cli(monkeypatch, capsys, ["color", "--trace"], stdin=encode_graph6(g) + "\n")
    assert code == 0
    lines = err.splitlines()
    assert lines and all(line.startswith("component 2..: ") for line in lines)
    assert verify(g, coloring_from_json(out.strip())).ok


def test_color_max_moves_budget_exit(monkeypatch, capsys):
    code, gen_out, _ = run_cli(
        monkeypatch,
        capsys,
        ["gen", "--family", "random-subcubic", "--n", "53", "--m", "73", "--seed", "178"],
    )
    code, _, err = run_cli(
        monkeypatch, capsys, ["color", "--max-moves", "0"], stdin=gen_out
    )
    assert code == 3
    assert "budget" in err


def test_color_stuck_search_exit_one(monkeypatch, capsys):
    def stuck(g, w, **_):
        raise StuckError("no swap for the test", initial_state(g, w), [])

    monkeypatch.setattr(spack.colorer, "color_core", stuck)
    code, out, err = run_cli(monkeypatch, capsys, ["color"], stdin=encode_graph6(cycle(5)) + "\n")
    assert code == 1
    assert out == ""
    assert "exchange search stuck" in err


def test_verify_reports_violations(monkeypatch, capsys):
    bad = {
        "n": 3,
        "classes": [
            {"label": "1_a", "radius": 1, "vertices": [0, 1]},
            {"label": "1_b", "radius": 1, "vertices": [2]},
        ],
    }
    stdin = encode_graph6(cycle(3)) + "\n" + json.dumps(bad) + "\n"
    code, out, _ = run_cli(
        monkeypatch,
        capsys,
        ["verify", "--graph", "-", "--coloring", "-"],
        stdin=stdin,
    )
    assert code == 1
    violations = json.loads(out.strip())
    assert violations == [
        {"label": "1_a", "radius": 1, "pair": [0, 1], "distance": 1}
    ]


def test_verify_reports_partition_defects_on_stderr(monkeypatch, capsys):
    doc = {"n": 3, "classes": [{"label": "1_a", "radius": 1, "vertices": [0, 1]}]}
    stdin = encode_graph6(cycle(3)) + "\n" + json.dumps(doc) + "\n"
    code, _, err = run_cli(
        monkeypatch, capsys, ["verify", "--graph", "-", "--coloring", "-"], stdin=stdin
    )
    assert code == 1
    assert "unassigned" in err
    doc = {
        "n": 3,
        "classes": [
            {"label": "1_a", "radius": 1, "vertices": [0]},
            {"label": "1_b", "radius": 1, "vertices": [0, 1]},
            {"label": "2_a", "radius": 2, "vertices": [2]},
        ],
    }
    stdin = encode_graph6(cycle(3)) + "\n" + json.dumps(doc) + "\n"
    code, _, err = run_cli(
        monkeypatch, capsys, ["verify", "--graph", "-", "--coloring", "-"], stdin=stdin
    )
    assert code == 1
    assert err == "multiply assigned: [0]\n"


def test_verify_blank_shared_stdin_exits_two(monkeypatch, capsys):
    code, out, err = run_cli(
        monkeypatch, capsys, ["verify", "--graph", "-", "--coloring", "-"], stdin="\n  \n"
    )
    assert code == 2
    assert out == ""
    assert err == "error: expected a graph6 line and a coloring document on stdin\n"


def test_undecodable_input_exits_two(monkeypatch, capsys, tmp_path):
    bad = tmp_path / "bad.g6"
    bad.write_bytes(b"\xff")
    good = tmp_path / "c3.g6"
    good.write_text(encode_graph6(cycle(3)) + "\n")
    for argv, stdin in [
        (["color", "--input", str(bad)], ""),
        (["verify", "--graph", str(bad), "--coloring", str(good)], ""),
        (["verify", "--graph", str(good), "--coloring", str(bad)], ""),
        (["color"], b"\xff\n"),
        (["verify", "--graph", "-", "--coloring", "-"], b"\xff\n"),
        # A POSIX-locale stdin decodes byte 0xff to the lone surrogate U+DCFF.
        (["color"], "\udcff\n"),
    ]:
        code, out, err = run_cli(monkeypatch, capsys, argv, stdin=stdin)
        assert code == 2, argv
        assert out == "" and err.startswith("error: "), argv
    assert err == "error: character '\\udcff' out of graph6 range\n"


@pytest.mark.parametrize(
    "doc",
    [
        {"n": True, "classes": [{"label": "a", "radius": 1, "vertices": [0]}]},
        {"n": 1, "classes": [{"label": "a", "radius": True, "vertices": [0]}]},
    ],
)
def test_verify_rejects_bool_integers_exit_two(monkeypatch, capsys, doc):
    stdin = encode_graph6(path(1)) + "\n" + json.dumps(doc) + "\n"
    code, out, err = run_cli(
        monkeypatch, capsys, ["verify", "--graph", "-", "--coloring", "-"], stdin=stdin
    )
    assert code == 2
    assert out == ""
    assert "must be" in err


def test_chi_rho_values(monkeypatch, capsys):
    line = encode_graph6(cycle(5)) + "\n"
    code, out, _ = run_cli(monkeypatch, capsys, ["chi-rho", "--max-k", "5"], stdin=line)
    assert code == 0 and out.strip() == "4"
    code, out, _ = run_cli(monkeypatch, capsys, ["chi-rho", "--max-k", "2"], stdin=line)
    assert code == 1 and out.strip() == "UNKNOWN"
    code, out, _ = run_cli(
        monkeypatch,
        capsys,
        ["chi-rho", "--max-k", "8", "--budget", "1"],
        stdin=encode_graph6(petersen()) + "\n",
    )
    assert code == 3 and out.strip() == "UNKNOWN"


def test_chi_rho_k1(monkeypatch, capsys):
    code, out, _ = run_cli(monkeypatch, capsys, ["chi-rho", "--max-k", "1"], stdin="@\n")
    assert code == 0 and out.strip() == "1"


def test_subdivide_with_lifted_coloring(monkeypatch, capsys, tmp_path):
    g = cycle(3)
    code, color_out, _ = run_cli(
        monkeypatch, capsys, ["color"], stdin=encode_graph6(g) + "\n"
    )
    coloring_path = tmp_path / "triangle.json"
    coloring_path.write_text(color_out)
    code, out, _ = run_cli(
        monkeypatch,
        capsys,
        ["subdivide", "--with-coloring", str(coloring_path)],
        stdin=encode_graph6(g) + "\n",
    )
    assert code == 0
    sub_line, lifted_line = out.strip().splitlines()
    expected, _ = subdivide(g)
    assert parse_graph6(sub_line) == expected
    lifted = coloring_from_json(lifted_line)
    verify_sequence_shape(lifted, (1, 2, 3, 4, 5))
    assert verify(expected, lifted).ok


def _classes(*classes):
    """JSON class documents from (label, radius, vertices) triples."""
    return [{"label": label, "radius": r, "vertices": vs} for label, r, vs in classes]


_DOES_NOT_VERIFY = "error: input coloring does not verify: 1 violation(s), missing=[], multiply_assigned=[]\n"


@pytest.mark.parametrize(
    "graph, doc, expected_err",
    [
        # the triangle's two radius-1 classes hold adjacent vertices 0 and 1
        (cycle(3), {"n": 3, "classes": _classes(("1_a", 1, [0, 1]), ("1_b", 1, [2]))}, _DOES_NOT_VERIFY),
        (cycle(3),
         {"n": 4, "classes": _classes(("1_a", 1, [0]), ("1_b", 1, [1]), ("2_a", 2, [2]), ("2_b", 2, [3]))},
         "error: coloring is for n=4, graph has n=3\n"),
        (cycle(3), {"n": 3, "classes": _classes(("1_a", 1, [0]), ("1_b", 1, [1]), ("2_a", 2, [2, 7]))},
         "error: class '2_a' mentions vertex 7 outside 0..2\n"),
        # verify runs before the shape check, so the clash is reported first
        (cycle(3), {"n": 3, "classes": _classes(("1_a", 1, [0]), ("3", 3, [1, 2]))}, _DOES_NOT_VERIFY),
        (path(3), {"n": 3, "classes": _classes(("1", 1, [0, 2]), ("3", 3, [1]))},
         "error: expected radii drawn from (1, 1, 2, 2), got (1, 3)\n"),
    ],
    ids=["clash", "n_4", "vertex_out_of_range", "radius_3_clash", "wrong_shape"],
)
def test_subdivide_invalid_coloring_prints_nothing(monkeypatch, capsys, tmp_path, graph, doc, expected_err):
    coloring_path = tmp_path / "bad.json"
    coloring_path.write_text(json.dumps(doc))
    code, out, err = run_cli(
        monkeypatch,
        capsys,
        ["subdivide", "--with-coloring", str(coloring_path)],
        stdin=encode_graph6(graph) + "\n",
    )
    assert code == 2
    assert out == ""
    assert err == expected_err


def test_subdivide_plain(monkeypatch, capsys):
    code, out, _ = run_cli(
        monkeypatch, capsys, ["subdivide"], stdin=encode_graph6(cycle(3)) + "\n"
    )
    assert code == 0
    assert parse_graph6(out.strip()) == subdivide(cycle(3))[0]


def test_gen_seed_env_matches_flag(monkeypatch, capsys):
    args = ["gen", "--family", "random-subcubic", "--n", "12", "--m", "14"]
    code, with_flag, _ = run_cli(monkeypatch, capsys, args + ["--seed", "5"])
    monkeypatch.setenv("SPACK_SEED", "5")
    code, with_env, _ = run_cli(monkeypatch, capsys, args)
    assert code == 0
    assert with_env == with_flag
    monkeypatch.setenv("SPACK_SEED", "not-a-number")
    code, _, err = run_cli(monkeypatch, capsys, args)
    assert code == 2
    assert "SPACK_SEED" in err


def test_gen_non_cubic_and_edges_output(monkeypatch, capsys):
    code, out, _ = run_cli(
        monkeypatch,
        capsys,
        [
            "gen", "--family", "random-subcubic", "--n", "8", "--m", "12",
            "--seed", "1", "--non-cubic", "--out-format", "edges",
        ],
    )
    assert code == 0
    assert out.startswith("8 ")


def test_input_file_and_edges_format(monkeypatch, capsys, tmp_path):
    graph_path = tmp_path / "c5.edges"
    graph_path.write_text("5 5\n0 1\n1 2\n2 3\n3 4\n0 4\n")
    code, out, _ = run_cli(
        monkeypatch,
        capsys,
        ["color", "--input", str(graph_path), "--format", "edges"],
    )
    assert code == 0
    assert verify(cycle(5), coloring_from_json(out.strip())).ok


def test_malformed_inputs_exit_two(monkeypatch, capsys):
    code, _, err = run_cli(monkeypatch, capsys, ["color"], stdin="!!not graph6!!\n")
    assert code == 2 and "error" in err
    code, _, _ = run_cli(
        monkeypatch, capsys, ["exact", "--seq", "1,x"], stdin="C~\n"
    )
    assert code == 2
    code, _, _ = run_cli(monkeypatch, capsys, ["color", "--input", "/nonexistent"])
    assert code == 2
    code, _, _ = run_cli(monkeypatch, capsys, ["color"], stdin="")
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["exact", "--seq", "1,1,2,2", "--budget", "-1"],
        ["chi-rho", "--max-k", "4", "--budget", "-5"],
        ["color", "--max-moves", "-1"],
        ["color", "--exact-budget", "-1"],
    ],
)
def test_negative_counts_exit_two(monkeypatch, capsys, argv):
    stdin = encode_graph6(cycle(5)) + "\n"
    with pytest.raises(SystemExit) as exc:
        run_cli(monkeypatch, capsys, argv, stdin=stdin)
    assert exc.value.code == 2
    assert "non-negative" in capsys.readouterr().err


def test_zero_counts_stay_valid(monkeypatch, capsys):
    stdin = encode_graph6(cycle(5)) + "\n"
    code, _, _ = run_cli(monkeypatch, capsys, ["color", "--exact-budget", "0"], stdin=stdin)
    assert code == 0
    code, out, _ = run_cli(monkeypatch, capsys, ["exact", "--seq", "1,1,2,2", "--budget", "0"], stdin=stdin)
    assert (code, out.strip()) == (3, "BUDGET")


def _color_json(monkeypatch, capsys, g):
    code, out, _ = run_cli(monkeypatch, capsys, ["color", "--json"], stdin=encode_graph6(g) + "\n")
    assert code == 0
    return out


def test_verify_stdin_skips_leading_blank_lines(monkeypatch, capsys):
    stdin = "\n  \n" + _color_json(monkeypatch, capsys, cycle(5))
    code, out, _ = run_cli(monkeypatch, capsys, ["verify", "--graph", "-", "--coloring", "-"], stdin=stdin)
    assert code == 0
    assert json.loads(out.strip()) == []


def test_verify_stdin_rejects_edge_list_format(monkeypatch, capsys):
    stdin = _color_json(monkeypatch, capsys, cycle(5))
    code, out, err = run_cli(
        monkeypatch,
        capsys,
        ["verify", "--graph", "-", "--coloring", "-", "--format", "edges"],
        stdin=stdin,
    )
    assert code == 2
    assert out == ""
    assert "edge list" in err


def test_gen_unknown_family_is_a_parser_error(monkeypatch, capsys):
    with pytest.raises(SystemExit):
        main(["gen", "--family", "hypercube"])
