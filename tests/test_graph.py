import random
import re
import time

import pytest

from czgraph.graph import (Edge, GraphError, MultiGraph, ParseError,
                           PreconditionError, TropicalCurve, blocks, bridges,
                           build_cycle_context, contract_edge, delete_edge,
                           genus, graph_from_json_dict, graph_to_json_dict,
                           is_bridge, load_graph_file, parse_graph_text,
                           render_graph_text, specialize_Q, stabilize,
                           subdivide_edge, two_edge_connectivize)
from czgraph.intlin import IntMatrix
from czgraph.polyring import idkey
from czgraph.polyring import parse_polynomial as P

from conftest import graph_file_text, random_multigraph, random_spanning_tree
from lin_oracles import determinant


def q_strings(ctx):
    return [[str(e) for e in row] for row in ctx.Q]


K4_Q = [["x1 + x5 + x6", "-x6", "-x5"],
        ["-x6", "x2 + x4 + x6", "-x4"],
        ["-x5", "-x4", "x3 + x4 + x5"]]

L3_Q = [["x1 + x6", "0", "x6", "x6"],
        ["0", "x2 + x5", "x5", "x5"],
        ["x6", "x5", "x3 + x5 + x6", "x5 + x6"],
        ["x6", "x5", "x5 + x6", "x4 + x5 + x6"]]


def test_genus_examples(k4, l3):
    assert genus(k4) == 3
    assert genus(l3) == 4
    path = MultiGraph(["1", "2", "3"], [("1", "1", "2"), ("2", "2", "3")])
    assert genus(path) == 0


def test_k4_q_matrix(k4, k4_ctx):
    assert q_strings(k4_ctx) == K4_Q
    # default spanning tree picks the same star at the hub
    assert q_strings(build_cycle_context(k4)) == K4_Q


def test_l3_q_matrix(l3, l3_ctx):
    assert q_strings(l3_ctx) == L3_Q
    assert l3_ctx.tree == ("5", "6")


def test_single_loop_context():
    loop = MultiGraph(["1"], [("1", "1", "1")])
    ctx = build_cycle_context(loop)
    assert q_strings(ctx) == [["x1"]]


def test_q_diagonal_contains_own_edge(k4_ctx, l3_ctx):
    for ctx in (k4_ctx, l3_ctx):
        for j, eid in enumerate(ctx.basis_edges()):
            assert ctx.Q[j][j].terms.get((eid,), 0) == 1


def test_specialize_examples(k4, k4_ctx):
    ones = TropicalCurve(k4, {str(i): 1 for i in range(1, 7)})
    assert specialize_Q(k4_ctx, ones) == [[3, -1, -1], [-1, 3, -1], [-1, -1, 3]]
    two = TropicalCurve(k4, {"1": 2, "2": 1, "3": 1, "4": 1, "5": 1, "6": 1})
    assert specialize_Q(k4_ctx, two) == [[4, -1, -1], [-1, 3, -1], [-1, -1, 3]]
    loop = MultiGraph(["1"], [("1", "1", "1")])
    ctx = build_cycle_context(loop)
    assert specialize_Q(ctx, TropicalCurve(loop, {"1": 5})) == [[5]]


def test_tropical_curve_validation(k4):
    with pytest.raises(PreconditionError):
        TropicalCurve(k4, {"1": 1})
    lengths = {str(i): 1 for i in range(1, 7)}
    lengths["2"] = 0
    with pytest.raises(PreconditionError):
        TropicalCurve(k4, lengths)


def test_contract_tree_edge_of_k4(k4):
    out = contract_edge(k4, "4")
    assert len(out.vertices) == 3
    assert len(out.edges) == 5
    assert genus(out) == 3


def test_contract_middle_of_path():
    path = MultiGraph(["1", "2", "3"], [("1", "1", "2"), ("2", "2", "3")])
    out = contract_edge(path, "1")
    assert len(out.vertices) == 2 and len(out.edges) == 1
    assert genus(out) == 0


def test_contract_bridge_of_barbell():
    barbell = MultiGraph(["1", "2"], [("1", "1", "1"), ("2", "1", "2"), ("3", "2", "2")])
    out = contract_edge(barbell, "2")
    assert len(out.vertices) == 1
    assert genus(out) == 2
    assert all(e.is_loop() for e in out.edges)


def test_contract_rejects_loop():
    loop = MultiGraph(["1"], [("1", "1", "1"), ("2", "1", "1")])
    with pytest.raises(PreconditionError):
        contract_edge(loop, "1")


def test_delete_parallel_edge():
    banana = MultiGraph(["1", "2"], [("1", "1", "2"), ("2", "1", "2")])
    out = delete_edge(banana, "1")
    assert genus(out) == 0 and len(out.edges) == 1


def test_delete_loop_drops_genus():
    g = MultiGraph(["1", "2"], [("1", "1", "1"), ("2", "1", "2"), ("3", "1", "2")])
    out = delete_edge(g, "1")
    assert genus(out) == genus(g) - 1


def test_delete_bridge_rejected():
    barbell = MultiGraph(["1", "2"], [("1", "1", "1"), ("2", "1", "2"), ("3", "2", "2")])
    with pytest.raises(PreconditionError):
        delete_edge(barbell, "2")


def test_blocks_k4_single_block(k4):
    out = blocks(k4)
    assert len(out) == 1 and out[0] == k4


def test_blocks_two_triangles_sharing_a_vertex():
    g = MultiGraph(["1", "2", "3", "4", "5"], [
        ("1", "1", "2"), ("2", "2", "3"), ("3", "3", "1"),
        ("4", "1", "4"), ("5", "4", "5"), ("6", "5", "1")])
    out = blocks(g)
    assert len(out) == 2
    assert sorted(len(b.edges) for b in out) == [3, 3]
    assert sum(genus(b) for b in out) == genus(g)


def test_blocks_barbell():
    barbell = MultiGraph(["1", "2"], [("1", "1", "1"), ("2", "1", "2"), ("3", "2", "2")])
    out = blocks(barbell)
    assert len(out) == 3
    sizes = sorted(len(b.edges) for b in out)
    assert sizes == [1, 1, 1]
    assert sum(genus(b) for b in out) == 2


def test_stabilize_subdivided_k4(k4):
    sub = subdivide_edge(k4, "2")
    out = stabilize(sub)
    assert len(out.vertices) == 4 and len(out.edges) == 6
    assert all(out.valence(v) == 3 for v in out.vertices)


def test_stabilize_pendant_path(k4):
    g = MultiGraph(k4.vertices | {"9", "10"},
                   list(k4.edges) + [Edge("7", "1", "9"), Edge("8", "9", "10")])
    out = stabilize(g)
    assert len(out.vertices) == 4 and len(out.edges) == 6


def test_stabilize_idempotent(k4, l3, theta):
    for g in (k4, l3, theta):
        once = stabilize(g)
        assert stabilize(once) == once
        assert genus(once) == genus(g)


def test_stabilize_needs_genus_two():
    loop = MultiGraph(["1"], [("1", "1", "1")])
    with pytest.raises(PreconditionError):
        stabilize(loop)


def test_two_edge_connectivize():
    barbell = MultiGraph(["1", "2"], [("1", "1", "1"), ("2", "1", "2"), ("3", "2", "2")])
    out = two_edge_connectivize(barbell)
    assert len(out.vertices) == 1 and genus(out) == 2
    assert bridges(out) == []


def test_connectivity_enforced():
    with pytest.raises(GraphError):
        MultiGraph(["1", "2", "3"], [("1", "1", "2")])


def test_duplicate_edge_ids_rejected():
    with pytest.raises(GraphError):
        MultiGraph(["1", "2"], [("1", "1", "2"), ("1", "2", "1")])


def test_tree_hint_validation(k4):
    with pytest.raises(PreconditionError):
        build_cycle_context(k4, tree_hint=["1", "2"])  # wrong size
    with pytest.raises(PreconditionError):
        build_cycle_context(k4, tree_hint=["1", "2", "3"])  # triangle, not spanning
    with pytest.raises(PreconditionError, match="repeats"):
        build_cycle_context(k4, tree_hint=["4", "4", "5"])
    looped = MultiGraph(k4.vertices, list(k4.edges) + [Edge("7", "1", "1")])
    with pytest.raises(PreconditionError, match="loop"):
        build_cycle_context(looped, tree_hint=["4", "5", "7"])


def test_fundamental_cycles_are_closed_on_random_graphs():
    rng = random.Random(17)
    for _ in range(200):
        g = random_multigraph(rng, rng.randint(1, 5))
        for hint in (None, random_spanning_tree(rng, g)):
            ctx = build_cycle_context(g, tree_hint=hint)
            tree = set(ctx.tree)
            for j, cycle in enumerate(ctx.cycles):
                basis_edge = ctx.order[j]
                assert cycle[basis_edge] == 1
                assert set(cycle) - {basis_edge} <= tree
                boundary = dict.fromkeys(g.vertices, 0)
                for eid, sign in cycle.items():
                    e = g.edge(eid)
                    boundary[e.head] += sign
                    boundary[e.tail] -= sign
                assert set(boundary.values()) == {0}, (g, hint, basis_edge, cycle)


def test_q_properties_on_random_graphs():
    rng = random.Random(5)
    for _ in range(200):
        g = random_multigraph(rng, rng.randint(1, 5))
        ctx = build_cycle_context(g)
        n = ctx.g
        for i in range(n):
            for j in range(n):
                assert ctx.Q[i][j] == ctx.Q[j][i]
            # diagonal is the sum of the cycle's own edges
            expect = sum((P(f"x{eid}") for eid in ctx.cycles[i]),
                         start=P("0"))
            assert ctx.Q[i][i] == expect
        # positive definiteness at random positive lengths: all leading
        # principal minors positive (exact integer determinants)
        lengths = {e.id: rng.randint(1, 6) for e in g.edges}
        M = specialize_Q(ctx, TropicalCurve(g, lengths))
        for k in range(1, n + 1):
            lead = IntMatrix.from_rows([row[:k] for row in M[:k]])
            assert determinant(lead) > 0


def test_genus_invariants_under_minor_ops():
    rng = random.Random(9)
    for _ in range(120):
        g = random_multigraph(rng, rng.randint(1, 4))
        nonloops = [e.id for e in g.edges if not e.is_loop()]
        if nonloops:
            f = rng.choice(nonloops)
            assert genus(contract_edge(g, f)) == genus(g)
        deletable = [e.id for e in g.edges if not is_bridge(g, e.id)]
        if deletable:
            f = rng.choice(deletable)
            assert genus(delete_edge(g, f)) == genus(g) - 1


def test_text_round_trip(k4, l3):
    for g in (k4, l3):
        text = render_graph_text(g)
        parsed, lengths = parse_graph_text(text)
        assert parsed == g and lengths is None
        assert render_graph_text(parsed) == text


def test_text_round_trip_with_lengths(k4):
    lengths = {str(i): i for i in range(1, 7)}
    text = render_graph_text(k4, lengths)
    parsed, got = parse_graph_text(text)
    assert parsed == k4 and got == lengths


def test_json_round_trip(l3):
    lengths = {e.id: 2 for e in l3.edges}
    data = graph_to_json_dict(l3, lengths)
    parsed, got = graph_from_json_dict(data)
    assert parsed == l3 and got == lengths


def test_lengths_past_the_digit_limit_render_in_full(k4):
    """A 4,401-digit length prints in full; the text reader keeps CPython's
    4,300-digit limit and refuses it as a ParseError."""
    text = render_graph_text(k4, {e.id: 10 ** 4400 for e in k4.edges})
    assert text.count(" 1" + "0" * 4400 + "\n") == 6
    with pytest.raises(ParseError, match="bad length"):
        parse_graph_text(text)


def test_renderers_refuse_non_integer_lengths(k4):
    """Both renderers read lengths by `json_int`, as `TropicalCurve` does,
    so a float, a bool or a string is refused, not truncated or converted,
    and parse(render(g)) cannot come back with another length."""
    for bad in (1.9, True, "2"):
        lengths = {e.id: 1 for e in k4.edges} | {"1": bad}
        for render in (render_graph_text, graph_to_json_dict):
            with pytest.raises(PreconditionError, match=re.escape(
                    f"edge '1' length: expected an integer, got {bad!r}")):
                render(k4, lengths)


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError) as err:
        parse_graph_text("v 1\nq 2 3\n")
    assert err.value.line == 2
    with pytest.raises(ParseError):
        parse_graph_text("e 1 1 2 x\n")
    with pytest.raises(ParseError):
        parse_graph_text("e 1 1 2 3\ne 2 2 1\n")  # incomplete lengths


def test_json_vertex_list_ids_must_be_json_strings():
    """A vertex list entry is refused, not converted, when it is not a JSON
    string, as edge ids and ends are (test_cli's bad-graph-JSON inputs)."""
    data = {"vertices": [1], "edges": [{"id": "1", "tail": "1", "head": "1"}]}
    with pytest.raises(ParseError, match="bad graph JSON: expected a string id, got 1"):
        graph_from_json_dict(data)


def _doubled_cycle(ids: list[str]) -> tuple[list[str], list[tuple[str, str, str]]]:
    """A cycle with every edge doubled: edges 2m and 2m + 1, named by ids,
    join vertices m and m + 1 (mod the number of vertices)."""
    n = len(ids) // 2
    return ([str(v) for v in range(n)],
            [(i, str(k // 2), str((k // 2 + 1) % n)) for k, i in enumerate(ids)])


@pytest.mark.parametrize("fmt", ["txt", "json"])
def test_twenty_thousand_edge_files_are_checked_in_linear_time(tmp_path, fmt):
    """A 20,000-edge file loads, and one in which every edge id appears
    twice is refused by MultiGraph, each within 2 s in either format.  A
    scan for repeated ids on each edge line, or a count of each id, takes
    several seconds on these files."""
    path = tmp_path / f"g.{fmt}"
    path.write_text(graph_file_text(fmt, *_doubled_cycle([f"e{k}" for k in range(20_000)])))
    start = time.perf_counter()
    graph, lengths = load_graph_file(str(path))
    assert time.perf_counter() - start < 2.0
    assert len(graph.edges) == 20_000 and lengths is None and genus(graph) == 10_001
    path.write_text(graph_file_text(fmt, *_doubled_cycle([f"e{k // 2}" for k in range(20_000)])))
    start = time.perf_counter()
    with pytest.raises(GraphError) as info:
        load_graph_file(str(path))
    assert time.perf_counter() - start < 2.0
    assert not isinstance(info.value, ParseError)
    assert str(info.value).startswith("duplicate edge ids: ['e0', 'e1', 'e10', ")


def test_library_lengths_are_refused_not_truncated(k4):
    """TropicalCurve takes lengths by the JSON readers' integer rule: a
    float, bool or string is refused, not truncated or converted."""
    ones = {e.id: 1 for e in k4.edges}
    for edge_id, value in (("1", 1.9), ("2", True), ("6", "7")):
        with pytest.raises(PreconditionError) as info:
            TropicalCurve(k4, {**ones, edge_id: value})
        assert str(info.value) == f"edge {edge_id!r} length: expected an integer, got {value!r}"


def test_library_ids_are_refused_not_converted(k4):
    """MultiGraph takes ids by the JSON readers' rule (`json_str`): a vertex
    id, edge id or edge end that is not a str is refused, not converted, so
    the edge from "1" to 1.0 is not built as a non-loop.  A lookup by a
    non-str id fails as one by an unknown id does, an unhashable one too."""
    for vertices, edges in ((["1"], [("1", 1, 1.0), ("2", "1", "1")]),
                            ([1], [("1", "1", "1")]),
                            ([["1"]], [("1", "1", "1")]),
                            (["1"], [(1, "1", "1")])):
        with pytest.raises(GraphError, match="expected a string id, got "):
            MultiGraph(vertices, edges)
    ctx = build_cycle_context(k4)
    for bad in (4, ["4"]):
        for call in (k4.edge, ctx.beta_class, lambda e: contract_edge(k4, e),
                     lambda e: subdivide_edge(k4, e), lambda e: is_bridge(k4, e),
                     lambda e: delete_edge(k4, e)):
            with pytest.raises(GraphError, match="no edge with id"):
                call(bad)
        with pytest.raises(GraphError, match="no edge with id"):
            build_cycle_context(k4, tree_hint=[bad, "5", "6"])
        with pytest.raises(GraphError, match="no edge with id"):
            build_cycle_context(k4, basis_order=[bad, "2", "3"])
    with pytest.raises(GraphError, match="no edge with id 4"):
        build_cycle_context(k4, tree_hint=[4, 5, 6])
    ones = {e.id: 1 for e in k4.edges}
    with pytest.raises(PreconditionError, match=r"lengths given for unknown edges \[1, 'x'\]"):
        TropicalCurve(k4, {**ones, 1: 1, "x": 1})


def test_comments_and_blanks_ignored():
    g, _ = parse_graph_text("# banana\n\nv 1\nv 2\ne 1 1 2\ne 2 2 1 # back\n")
    assert genus(g) == 1


def test_edge_ids_survive_render_and_parse():
    """Every graph the parsers accept renders and parses back to itself,
    and so does every entry of its Q; ids outside [A-Za-z0-9_]+ are refused
    by both parsers."""
    rng = random.Random(29)

    def char():
        return rng.choice("-.+*^" if rng.random() < 0.04 else "abxyz019_")
    accepted = refused = 0
    for _ in range(300):
        base = random_multigraph(rng, rng.randint(1, 4), max_vertices=4)
        ids = set()
        while len(ids) < len(base.edges):
            ids.add("".join(char() for _ in range(rng.randint(1, 4))))
        edges = [(i, e.tail, e.head) for i, e in zip(sorted(ids), base.edges)]
        g = MultiGraph(base.vertices, edges)
        text, data = render_graph_text(g), graph_to_json_dict(g)
        if not all(re.fullmatch(r"[A-Za-z0-9_]+", i) for i in ids):
            refused += 1
            with pytest.raises(ParseError, match="edge id"):
                parse_graph_text(text)
            with pytest.raises(ParseError, match="edge id"):
                graph_from_json_dict(data)
            continue
        accepted += 1
        assert parse_graph_text(text) == (g, None)
        assert graph_from_json_dict(data) == (g, None)
        for row in build_cycle_context(g).Q:
            for entry in row:
                assert P(str(entry)) == entry
    assert accepted > 50 and refused > 50


def test_ids_equal_as_numbers_keep_one_order():
    """Ids such as "01" and "1" have one fixed order, so products of Q
    entries and graphs do not depend on the order of factors or edges."""
    edges = [("1", "1", "2"), ("01", "1", "2"), ("2", "1", "2"), ("3", "1", "2")]
    g = MultiGraph(["1", "2"], edges)
    assert MultiGraph(["1", "2"], edges[::-1]) == g
    Q = build_cycle_context(g).Q
    assert Q[0][0] * Q[1][1] == Q[1][1] * Q[0][0]
    assert str(Q[0][0] * Q[1][1]) == str(Q[1][1] * Q[0][0])
    assert sorted(["1", "01", "001", "1a", "01a"], key=idkey) == \
        ["001", "01", "01a", "1", "1a"]
