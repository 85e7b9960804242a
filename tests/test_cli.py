import contextlib
import copy
import dataclasses
import io
import json
import re
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from czgraph import cli, minors
from czgraph.ceresa import V_TAU_K4, k4_graph, l3_graph
from czgraph.cli import (EXIT_INVARIANT, EXIT_OK, EXIT_PARSE,
                         EXIT_PRECONDITION, main, run_command, verify_theorem)
from czgraph.graph import graph_to_json_dict, render_graph_text, subdivide_edge

from conftest import graph_file_text

ROOT = Path(__file__).resolve().parent.parent
K4_TEXT = render_graph_text(k4_graph())
L3_TEXT = render_graph_text(l3_graph())


@pytest.fixture
def k4_file(tmp_path):
    path = tmp_path / "k4.txt"
    path.write_text(K4_TEXT)
    return str(path)


@pytest.fixture
def l3_file(tmp_path):
    path = tmp_path / "l3.txt"
    path.write_text(L3_TEXT)
    return str(path)


def run_json(capsys, argv):
    code = main(argv + ["--json"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    return json.loads(out)


def test_qmatrix_k4(capsys, k4_file):
    report = run_json(capsys, ["qmatrix", k4_file])
    assert report["exact"] is True
    assert report["result"]["Q"] == [
        ["x1 + x5 + x6", "-x6", "-x5"],
        ["-x6", "x2 + x4 + x6", "-x4"],
        ["-x5", "-x4", "x3 + x4 + x5"]]


def test_qmatrix_l3_with_pinned_tree(capsys, l3_file):
    report = run_json(capsys, ["qmatrix", l3_file, "--tree", "5,6"])
    assert report["result"]["Q"][0] == ["x1 + x6", "0", "x6", "x6"]
    assert report["result"]["tree"] == ["5", "6"]


def test_cz_test_curve_not_trivial(capsys, k4_file):
    report = run_json(capsys, ["cz-test", k4_file, "--cocycle", "builtin:K4",
                               "--lengths", "1,1,1,1,1,1"])
    assert report["result"]["trivial"] is False
    assert report["result"]["method"] == "curve-lattice"
    assert report["result"]["specialized_class"] == [-2]


def test_cz_test_curve_trivial(capsys, k4_file):
    report = run_json(capsys, ["cz-test", k4_file, "--cocycle", "builtin:K4",
                               "--lengths", "2,1,1,1,1,1"])
    assert report["result"]["trivial"] is True


def test_cz_test_graph_level(capsys, k4_file, l3_file):
    report = run_json(capsys, ["cz-test", k4_file, "--cocycle", "builtin:K4"])
    assert report["result"]["trivial"] is False
    assert report["result"]["method"] == "graph-diophantine"
    report = run_json(capsys, ["cz-test", l3_file, "--cocycle", "builtin:L3"])
    assert report["result"]["trivial"] is False


def test_cz_test_cocycle_file(capsys, tmp_path, k4_file):
    cpath = tmp_path / "vtau.json"
    cpath.write_text(json.dumps(V_TAU_K4.to_json_dict()))
    report = run_json(capsys, ["cz-test", k4_file, "--cocycle", str(cpath)])
    assert report["result"]["trivial"] is False


def test_cz_test_lengths_in_file(capsys, tmp_path):
    path = tmp_path / "k4len.txt"
    lengths = {"1": 2, "2": 1, "3": 1, "4": 1, "5": 1, "6": 1}
    path.write_text(render_graph_text(k4_graph(), lengths))
    report = run_json(capsys, ["cz-test", str(path), "--cocycle", "builtin:K4"])
    assert report["result"]["method"] == "curve-lattice"
    assert report["result"]["trivial"] is True


def test_classify_command(capsys, k4_file):
    report = run_json(capsys, ["classify", k4_file])
    assert report["result"]["trivial"] is False
    assert report["result"]["witness"]["pattern"] == "K4"
    assert report["result"]["hyperelliptic_type"] is False


def test_minor_command(capsys, l3_file):
    report = run_json(capsys, ["minor", l3_file, "--pattern", "L3"])
    assert report["result"]["found"] is True
    assert report["result"]["replays"] is True
    report = run_json(capsys, ["minor", l3_file, "--pattern", "K4"])
    assert report["result"]["found"] is False


def test_lattice_command(capsys, l3_file):
    report = run_json(capsys, ["lattice", l3_file, "--lengths", "1,1,1,1,1,1",
                               "--tree", "5,6"])
    assert report["result"]["hnf"] == [[2, 2, 0, 2], [0, 4, 0, 0],
                                       [0, 0, 2, 2], [0, 0, 0, 4]]
    assert report["result"]["triples"] == ["123", "124", "134", "234"]


def test_verify_theorem_command(capsys):
    report = run_json(capsys, ["verify-theorem", "--max-edges", "4"])
    assert report["result"]["violations"] == []
    assert report["result"]["fixtures_ok"] is True
    assert report["result"]["counts"]["graphs"] > 0
    assert "note" in report["result"]


def test_verify_theorem_six_matches_hand_count(capsys):
    report = run_json(capsys, ["verify-theorem", "--max-edges", "6"])
    counts = report["result"]["counts"]
    # exactly the two forbidden graphs are non-trivial at six edges
    assert counts["nontrivial"] == 2


def test_output_is_deterministic(capsys, k4_file):
    code1 = main(["classify", k4_file, "--json"])
    out1 = capsys.readouterr().out
    code2 = main(["classify", k4_file, "--json"])
    out2 = capsys.readouterr().out
    assert code1 == code2 == EXIT_OK
    assert out1 == out2


def test_text_output_is_valid_json_too(capsys, k4_file):
    assert main(["qmatrix", k4_file]) == EXIT_OK
    out = capsys.readouterr().out
    assert json.loads(out)["command"] == "qmatrix"


def test_exit_code_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("v 1\nzzz\n")
    assert main(["qmatrix", str(bad)]) == EXIT_PARSE
    err = capsys.readouterr().err
    assert "line 2" in err


def test_exit_code_missing_file(capsys):
    assert main(["qmatrix", "/nonexistent/g.txt"]) == EXIT_PARSE


def test_exit_code_disconnected(tmp_path, capsys):
    bad = tmp_path / "disc.txt"
    bad.write_text("v 1\nv 2\nv 3\ne 1 1 2\n")
    assert main(["qmatrix", str(bad)]) == EXIT_PRECONDITION


@pytest.mark.parametrize("vertices, edges, message", [
    (["1"], [("1", "1", "1"), ("2", "1", "1"), ("1", "1", "1")],
     "duplicate edge ids: ['1']"),
    ([], [], "graph needs at least one vertex"),
    (["1", "2", "3"], [("1", "1", "2")], "graph is not connected"),
], ids=["repeated-ids", "empty", "disconnected"])
def test_text_and_json_refuse_a_malformed_graph_alike(tmp_path, capsys, vertices,
                                                      edges, message):
    """The graph a file describes is checked once, by MultiGraph, so both
    formats give the same exit code and the same message."""
    for fmt in ("txt", "json"):
        path = tmp_path / f"g.{fmt}"
        path.write_text(graph_file_text(fmt, vertices, edges))
        assert main(["qmatrix", str(path)]) == EXIT_PRECONDITION
        assert capsys.readouterr().err == f"precondition violated: {message}\n"


def test_exit_code_wrong_length_count(k4_file, capsys):
    assert main(["cz-test", k4_file, "--cocycle", "builtin:K4",
                 "--lengths", "1,1"]) == EXIT_PRECONDITION


def test_exit_code_wrong_builtin_graph(l3_file, capsys):
    assert main(["cz-test", l3_file, "--cocycle", "builtin:K4"]) == EXIT_PRECONDITION


def test_exit_code_unknown_pattern(k4_file, capsys):
    # argparse rejects the choice; usage errors share the parse-error code
    assert main(["minor", k4_file, "--pattern", "K5"]) == EXIT_PARSE


@pytest.mark.parametrize("mode", ["psi", "diophantine"])
def test_exit_code_removed_mode_option(k4_file, capsys, mode):
    # cz-test has one graph-level system and no --mode option any more
    assert main(["cz-test", k4_file, "--cocycle", "builtin:K4",
                 "--mode", mode]) == EXIT_PARSE
    err = capsys.readouterr().err
    assert err.startswith("usage:") and "Traceback" not in err
    assert err.endswith(f"error: unrecognized arguments: --mode {mode}\n")


def test_run_command_programmatic(k4_file):
    report = run_command(["classify", k4_file])
    assert report.command == "classify"
    assert report.exact is True
    assert report.result["trivial"] is False


def test_verify_theorem_rejects_large_budget():
    from czgraph.graph import PreconditionError
    with pytest.raises(PreconditionError):
        verify_theorem(12)


def test_verify_theorem_refuses_eleven_edges_before_enumerating(monkeypatch, capsys):
    def unreachable(max_edges):
        raise AssertionError("enumerate_graphs called")
    monkeypatch.setattr(cli, "enumerate_graphs", unreachable)
    monkeypatch.setattr(minors, "enumerate_graphs", unreachable)
    assert main(["verify-theorem", "--max-edges", "11"]) == EXIT_PRECONDITION
    out, err = capsys.readouterr()
    assert out == "" and "Traceback" not in err
    assert err.startswith("precondition violated:") and err.count("\n") == 1


@pytest.mark.parametrize("max_edges", ["0", "-1"])
def test_verify_theorem_below_two_edges_checks_only_the_family(capsys, max_edges):
    report = run_json(capsys, ["verify-theorem", "--max-edges", max_edges])["result"]
    assert report["counts"]["graphs"] == 0 and report["counts"]["family_members"] == 2
    assert report["violations"] == [] and report["fixtures_ok"] is True


_TWO_LOOPS = [{"id": "2", "tail": "1", "head": "1"}, {"id": "3", "tail": "1", "head": "1"}]


@pytest.mark.parametrize("edges", [
    [{"id": "1", "tail": "1"}],                        # no head
    [{"id": "1", "tail": "1", "head": "1", "length": "abc"}],
    5,
    # ids that are not JSON strings: no str() pass may turn 1 and 1.0 into
    # two vertices, nor null and false into the edges "None" and "False"
    [{"id": "1", "tail": 1, "head": 1.0}] + _TWO_LOOPS,
    [{"id": None, "tail": "1", "head": "1"}] + _TWO_LOOPS,
    [{"id": False, "tail": "1", "head": "1"}] + _TWO_LOOPS,
])
def test_exit_code_bad_graph_json(tmp_path, capsys, edges):
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"vertices": ["1"], "edges": edges}))
    assert main(["classify", str(path)]) == EXIT_PARSE
    err = capsys.readouterr().err
    assert err.startswith("parse error: bad graph JSON") and err.count("\n") == 1


@pytest.mark.parametrize("name, text", [
    ("g.txt", "v a\nv b\ne 1 a b\ne e-1 a b\ne 3 a b\n"),
    ("g.txt", "e 1 a a\ne a.b a a\n"),
    ("g.json", json.dumps({"edges": [{"id": "1", "tail": "a", "head": "b"},
                                     {"id": "e-1", "tail": "a", "head": "b"}]})),
    ("g.json", json.dumps({"edges": [{"id": "", "tail": "a", "head": "a"}]})),
], ids=["text-minus", "text-dot", "json-minus", "json-empty"])
def test_exit_code_edge_id_outside_the_polynomial_grammar(tmp_path, capsys, name, text):
    # "e-1" would render in Q as "xe-1", which reads back as xe - 1
    path = tmp_path / name
    path.write_text(text)
    assert main(["qmatrix", str(path)]) == EXIT_PARSE
    err = capsys.readouterr().err
    assert err.startswith("parse error:") and "edge id" in err and err.count("\n") == 1


@pytest.mark.parametrize("edit", [
    lambda data: [1],                                      # not an object
    lambda data: {k: v for k, v in data.items() if k != "b"},
    lambda data: {**data, "b": [{**data["b"][0], "poly": "x1 +* x2"}]},
    lambda data: {**data, "tree": 7},
    lambda data: {**data, "tree": [4, 5, 6]},
], ids=["list", "no-b", "bad-poly", "tree-int", "tree-ints"])
def test_exit_code_bad_cocycle_json(tmp_path, capsys, k4_file, edit):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(edit(V_TAU_K4.to_json_dict())))
    assert main(["cz-test", k4_file, "--cocycle", str(path)]) == EXIT_PARSE
    err = capsys.readouterr().err
    assert err.startswith("parse error: bad cocycle JSON") and err.count("\n") == 1


def test_exit_code_cocycle_not_homogeneous_and_unknown_edge(tmp_path, capsys, k4_file):
    data = V_TAU_K4.to_json_dict()
    data["b"][0]["poly"] = "x1*x9 + x2"
    path = tmp_path / "c.json"
    path.write_text(json.dumps(data))
    assert main(["cz-test", k4_file, "--cocycle", str(path)]) == EXIT_PRECONDITION
    assert capsys.readouterr().err == (
        "precondition violated: cocycle coefficient at (1, 1, 2) is not homogeneous "
        "linear: x1*x9 + x2\n")


def test_exit_code_cocycle_is_a_directory(tmp_path, capsys, k4_file):
    assert main(["cz-test", k4_file, "--cocycle", str(tmp_path)]) == EXIT_PARSE
    err = capsys.readouterr().err
    assert err.startswith("parse error:") and err.count("\n") == 1


def test_exit_code_walk_without_accepted_step(tmp_path, capsys, monkeypatch):
    # an oracle that accepts the input but none of its single-step minors
    import czgraph.minors as minors
    graph = subdivide_edge(k4_graph(), "1")
    path = tmp_path / "k4sub.txt"
    path.write_text(render_graph_text(graph))
    monkeypatch.setattr(minors, "_contains", lambda g, pattern: g == graph)
    assert main(["minor", str(path), "--pattern", "K4"]) == EXIT_INVARIANT
    err = capsys.readouterr().err
    assert err.startswith("internal invariant failure:") and err.count("\n") == 1


def _corrupt_solutions(monkeypatch):
    """Make every Diophantine solution wrong in its first coordinate."""
    import czgraph.intlin as intlin
    real = intlin.solve_diophantine

    def corrupted(A, b):
        result = real(A, b)
        x = list(result.solution)
        x[0] += 1
        return dataclasses.replace(result, solution=tuple(x))

    monkeypatch.setattr(intlin, "solve_diophantine", corrupted)


def test_exit_code_corrupted_graph_solution(capsys, monkeypatch):
    """A graph-level solution that does not replay to the class is an
    invariant failure."""
    _corrupt_solutions(monkeypatch)
    stem = ROOT / "tests" / "golden" / "inputs" / "pool-g3-7"
    assert main(["cz-test", f"{stem}.txt", "--cocycle",
                 f"{stem}-trivial.json"]) == EXIT_INVARIANT
    err = capsys.readouterr().err
    assert err == "internal invariant failure: graph-level witness does not replay to the class\n"


def test_exit_code_corrupted_curve_solution(capsys, monkeypatch):
    """A curve-level lattice coefficient vector that does not replay to the
    specialized class is an invariant failure."""
    _corrupt_solutions(monkeypatch)
    stem = ROOT / "tests" / "golden" / "inputs" / "pool-g3-7"
    assert main(["cz-test", f"{stem}-curve.txt", "--cocycle",
                 f"{stem}-trivial.json"]) == EXIT_INVARIANT
    err = capsys.readouterr().err
    assert err == "internal invariant failure: curve-level witness does not replay to the class\n"


@pytest.mark.parametrize("graph, cocycle, extra", [
    ("fixtures/k4.txt", None, []),
    ("fixtures/k4.txt", None, ["--lengths", "1,1,1,1,1,1"]),
    ("tests/golden/inputs/pool-g4-0.txt", "tests/golden/inputs/pool-g4-0-trivial.json", []),
    ("tests/golden/inputs/pool-g4-0-curve.txt", "tests/golden/inputs/pool-g4-0-trivial.json", []),
], ids=["graph", "curve", "pool-graph", "pool-curve"])
def test_cz_test_computes_the_class_once(tmp_path, monkeypatch, capsys,
                                         graph, cocycle, extra):
    """The verdict and the reported class share one call of the class's
    closed form, `image1_forms`."""
    import czgraph.ceresa as ceresa
    if cocycle is None:
        path = tmp_path / "c.json"
        path.write_text(json.dumps(V_TAU_K4.to_json_dict()))
    else:
        path = ROOT / cocycle
    real, calls = ceresa.image1_forms, []
    monkeypatch.setattr(ceresa, "image1_forms",
                        lambda *args: calls.append(1) or real(*args))
    for _ in range(2):
        calls.clear()
        report = run_json(capsys, ["cz-test", str(ROOT / graph),
                                   "--cocycle", str(path)] + extra)
        assert report["result"]["class"] and len(calls) == 1


# -- parse boundaries ---------------------------------------------------------

K4_FIXTURE = str(ROOT / "fixtures" / "k4.txt")
COCYCLE_OK = V_TAU_K4.to_json_dict()
GRAPH_JSON_OK = graph_to_json_dict(k4_graph(), {str(i): i for i in range(1, 7)})


def _run_on_file(path: Path, data: bytes, argv: list[str]) -> tuple[int, str]:
    """Write `data` to `path`, run the CLI, return (exit code, stderr)."""
    path.write_bytes(data)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def _graph_argv(path: Path) -> list[str]:
    return ["qmatrix", str(path)]


def _cocycle_argv(path: Path) -> list[str]:
    return ["cz-test", K4_FIXTURE, "--cocycle", str(path)]


def _lengths_argv(lengths: str):
    return lambda path: ["lattice", str(path), "--lengths", lengths]


def _bad_poly(poly: str) -> bytes:
    return json.dumps(COCYCLE_OK).replace('"poly": "x2"', json.dumps({"poly": poly})[1:-1],
                                          1).encode()


THREE_LOOPS = b"v 1\ne 1 1 1\ne 2 1 1\ne 3 1 1\n"
_USAGE = "usage"


def assert_usage_error(err: str) -> None:
    """argparse's usage, wrapped to the terminal width, then one error line."""
    *usage, last = err.splitlines()
    assert err.startswith("usage:") and err.endswith("\n") and "Traceback" not in err
    assert last.startswith("czgraph ") and ": error: " in last
    assert not any(": error:" in line for line in usage)


@pytest.mark.parametrize("argv, data, stderr", [
    (_graph_argv, b'{"edges": [{"id": "1", "tail": "1", "head": "1", "length": 1e400}]}', None),
    (_graph_argv, b'{"edges": [{"id": "1", "tail": "1", "head": "1", "length": 2.5}]}', None),
    (_graph_argv, b'{"edges": [{"id": "1", "tail": "1", "head": "1", "length": true}]}', None),
    (_cocycle_argv, json.dumps(COCYCLE_OK).replace('"i": 1,', '"i": 1e400,', 1).encode(), None),
    (_graph_argv, b"\xff\xfe", None),
    (_cocycle_argv, b"\xff\xfe", None),
    (_graph_argv, b"v 1\ne 1 1 1 1_0\ne 2 1 1 3\ne 3 1 1 1\n", None),
    (_graph_argv, "v 1\ne 1 1 1 1\ne 2 1 1 \u0663\ne 3 1 1 1\n".encode(), None),
    (_lengths_argv("1_0,3, +2"), THREE_LOOPS, None),
    (_lengths_argv("1,\u0663, +2"), THREE_LOOPS, None),
    (lambda path: ["verify-theorem", "--max-edges", " 0_6"], b"", _USAGE),
    (_cocycle_argv, _bad_poly("\u0663*x2"), None),
    (_cocycle_argv, _bad_poly("x2^\u0663"), None),
    (_cocycle_argv, _bad_poly("\u00b2*x2"), None),
    (_cocycle_argv, _bad_poly("x2^100"), None),
    (_lengths_argv(",".join(["1" + "0" * 4300] * 3)), THREE_LOOPS, None),
], ids=["graph-length-1e400", "graph-length-float", "graph-length-bool",
        "cocycle-index-1e400", "graph-not-utf8", "cocycle-not-utf8",
        "graph-text-length-underscore", "graph-text-length-arabic-indic",
        "lengths-underscore", "lengths-arabic-indic", "max-edges-underscore",
        "poly-coefficient-arabic-indic", "poly-exponent-arabic-indic",
        "poly-coefficient-superscript", "poly-exponent-three-digits",
        "lengths-4301-digits"])
def test_exit_code_malformed_numbers_and_bytes(tmp_path, argv, data, stderr):
    code, err = _run_on_file(tmp_path / "input", data, argv(tmp_path / "input"))
    assert code == EXIT_PARSE
    if stderr == _USAGE:
        assert_usage_error(err)
    else:
        assert err.startswith("parse error:") and err.count("\n") == 1


# 2,501 digits: the class and the lattice at these lengths are 5,001-digit
# integers, past CPython's 4,300-digit limit on int -> str
BIG_LENGTHS = ",".join(["1" + "0" * 2500] * 6)


@pytest.mark.parametrize("argv, expect", [
    (["cz-test", K4_FIXTURE, "--cocycle", "builtin:K4"], "-2" + "0" * 5000),
    (["lattice", K4_FIXTURE], "8" + "0" * 5000),
], ids=["cz-test", "lattice"])
@pytest.mark.parametrize("flags", [[], ["--json"]], ids=["indented", "json"])
def test_oversized_integers_print_in_full(capsys, argv, expect, flags):
    """K4 at six lengths of 10^2500: the specialized class is -2 * 10^5000
    and the lattice 8 * 10^5000 (-2 and 8 at unit lengths).  Reports print
    them in full and exit 0, through main and through run_command, and the
    limit is back in place after each."""
    argv = argv + ["--lengths", BIG_LENGTHS]
    limit = sys.get_int_max_str_digits()
    assert main(argv + flags) == EXIT_OK
    out = capsys.readouterr().out
    assert expect in re.findall(r"-?[0-9]+", out)
    assert run_command(argv).render(compact=bool(flags)) == out.rstrip("\n")
    assert sys.get_int_max_str_digits() == limit


# K4 with three terms of 4,300-digit coefficients, the longest a text input
# reads: a coefficient of the class has 4,301 digits
BIG_COEFFICIENT_COCYCLE = {
    "graph": graph_to_json_dict(k4_graph()), "tree": ["4", "5", "6"],
    "b": [{"i": i, "j": j, "k": k, "poly": "9" * 4300 + "*x2"}
          for i, j, k in ((1, 1, 2), (2, 1, 3), (3, 2, 3))]}


@pytest.mark.parametrize("flags", [[], ["--lengths", "1,1,1,1,1,1"]], ids=["graph", "curve"])
def test_class_coefficients_past_the_digit_limit_print_in_full(tmp_path, capsys, flags):
    """The class's polynomial text holds a 4,301-digit coefficient; the
    report prints it and exits 0 at both levels."""
    path = tmp_path / "big.json"
    path.write_text(json.dumps(BIG_COEFFICIENT_COCYCLE))
    assert main(["cz-test", K4_FIXTURE, "--cocycle", str(path)] + flags) == EXIT_OK
    out = capsys.readouterr().out
    assert max(map(len, re.findall(r"[0-9]+", out))) > 4300


@pytest.mark.parametrize("columns", ["50", "200"])
def test_usage_error_shape_does_not_depend_on_width(tmp_path, monkeypatch, columns):
    monkeypatch.setenv("COLUMNS", columns)
    code, err = _run_on_file(tmp_path / "input", b"", ["verify-theorem", "--max-edges", " 0_6"])
    assert code == EXIT_PARSE
    assert_usage_error(err)


SUPERSCRIPT_VERTEX = "e 1 1\u00b2 2\ne 2 2 1\u00b2\ne 3 1\u00b2 2\n".encode()


def test_superscript_digit_vertex_id_exits_ok(tmp_path):
    """A vertex id "1²" holds a character that is a digit to `isdigit` but
    not to `int`; sorting the vertices must not raise."""
    code, err = _run_on_file(tmp_path / "graph.txt", SUPERSCRIPT_VERTEX,
                             _graph_argv(tmp_path / "graph.txt"))
    assert code == EXIT_OK and err == ""


def test_signed_ascii_lengths_still_parse(tmp_path):
    """The integer grammar is [+-]?[0-9]+; a space after a --lengths comma
    is separator whitespace, not part of the number."""
    path = tmp_path / "loops.txt"
    path.write_bytes(b"v 1\ne 1 1 1 +1\ne 2 1 1 2\ne 3 1 1 3\n")
    assert main(["lattice", str(path)]) == EXIT_OK
    assert main(["lattice", str(path), "--lengths", "1, +2,3"]) == EXIT_OK


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6)
_TOKENS = st.sampled_from(["v", "e", "1", "2", "3", "01", "a", "-1", "0", "2.5",
                           "9" * 30, "#", "e-1", "{", "1_0", "\u0663", "+2"])


def _paths(doc, path=()):
    """Every position in a JSON document, the root included."""
    items = (doc.items() if isinstance(doc, dict)
             else enumerate(doc) if isinstance(doc, list) else ())
    out = [path]
    for key, value in items:
        out += _paths(value, path + (key,))
    return out


def _replaced(doc, path, value):
    if not path:
        return value
    doc = copy.deepcopy(doc)
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


def _mutated(doc):
    """A valid document with one position replaced by an arbitrary value."""
    return st.builds(lambda path, value: json.dumps(_replaced(doc, path, value)).encode(),
                     st.sampled_from(_paths(doc)), _JSON_VALUES)


_GRAPH_BYTES = st.one_of(
    st.binary(max_size=48),
    st.lists(st.lists(_TOKENS, max_size=6).map(" ".join), max_size=8)
    .map(lambda lines: "\n".join(lines).encode()),
    _mutated(GRAPH_JSON_OK))
_COCYCLE_BYTES = st.one_of(st.binary(max_size=48), _mutated(COCYCLE_OK))
_EXIT_CODES = {EXIT_OK, EXIT_PARSE, EXIT_PRECONDITION, EXIT_INVARIANT}


@settings(max_examples=150, deadline=None)
@given(data=_GRAPH_BYTES)
@example(data=SUPERSCRIPT_VERTEX)
def test_any_graph_file_ends_in_a_documented_exit_code(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("fuzz") / "graph"
    code, err = _run_on_file(path, data, _graph_argv(path))
    assert code in _EXIT_CODES and err.count("\n") <= 1


@settings(max_examples=150, deadline=None)
@given(data=_COCYCLE_BYTES)
def test_any_cocycle_file_ends_in_a_documented_exit_code(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("fuzz") / "cocycle.json"
    code, err = _run_on_file(path, data, _cocycle_argv(path))
    assert code in _EXIT_CODES and err.count("\n") <= 1
