import contextlib
import io
import itertools
import json
import random
from collections import Counter

import pytest

from czgraph import graph, minors
from czgraph.ceresa import classify, k4_graph
from czgraph.cli import EXIT_OK, main
from czgraph.graph import (GraphError, MultiGraph, PreconditionError, blocks,
                           bridges, delete_edge, genus, is_bridge,
                           render_graph_text, subdivide_edge)
from czgraph.minors import (MinorWitness, canonical_form, clear_minor_cache,
                            enumerate_graphs, has_k4_minor_fast, has_minor,
                            is_hyperelliptic_type, is_k4, is_l3,
                            single_step_minors)

import minor_oracles as oracles
from conftest import (from_pairs, ladder, random_multigraph,
                      random_series_parallel, thick_cycle)


def wheel5():
    """Four-cycle plus hub vertex joined to every rim vertex."""
    rim = [("1", "1", "2"), ("2", "2", "3"), ("3", "3", "4"), ("4", "4", "1")]
    spokes = [("5", "5", "1"), ("6", "5", "2"), ("7", "5", "3"), ("8", "5", "4")]
    return MultiGraph(["1", "2", "3", "4", "5"], rim + spokes)


def test_k4_is_its_own_minor(k4):
    found, wit = has_minor(k4, "K4")
    assert found and wit.ops == ()
    assert wit.verify(k4)


def test_l3_is_its_own_minor(l3):
    found, wit = has_minor(l3, "L3")
    assert found and wit.ops == ()


def test_l3_missing_parallel_edge_has_no_l3_minor(l3):
    smaller = delete_edge(l3, "1")
    assert genus(smaller) == 3
    found, _ = has_minor(smaller, "L3")
    assert not found


def test_wheel_has_k4_minor():
    found, wit = has_minor(wheel5(), "K4")
    assert found
    assert wit.verify(wheel5())
    assert set(wit.contraction_set) | set(wit.deletion_set) == {eid for _, eid in wit.ops}


def test_witness_naming_a_missing_edge_does_not_verify(k4):
    assert not MinorWitness("K4", (("delete", "99"),)).verify(k4)
    assert not MinorWitness("K4", (("contract", "1"),)).verify(
        MultiGraph(["1"], [("1", "1", "1")]))


def test_unknown_pattern_rejected(k4):
    with pytest.raises(PreconditionError):
        has_minor(k4, "K5")


def test_hyperelliptic_type_examples(k4, l3, theta):
    assert not is_hyperelliptic_type(k4)
    assert not is_hyperelliptic_type(l3)
    assert is_hyperelliptic_type(theta)
    # any genus-2 graph is of hyperelliptic type: both patterns need genus >= 3
    rng = random.Random(3)
    for _ in range(30):
        g = random_multigraph(rng, 2)
        assert is_hyperelliptic_type(g)


def test_pattern_predicates(k4, l3, theta):
    assert is_k4(k4) and not is_k4(l3) and not is_k4(theta)
    assert is_l3(l3) and not is_l3(k4) and not is_l3(theta)


def test_fast_k4_agrees_with_search():
    rng = random.Random(17)
    for _ in range(100):
        g = random_multigraph(rng, rng.randint(1, 5))
        found, wit = has_minor(g, "K4")
        assert found == has_k4_minor_fast(g)
        if found:
            assert wit.verify(g)


def test_minor_closure_spot_checks():
    rng = random.Random(29)
    checked = 0
    while checked < 150:
        g = random_multigraph(rng, rng.randint(1, 4))
        if not is_hyperelliptic_type(g):
            continue
        for _, _, child in single_step_minors(g):
            assert is_hyperelliptic_type(child)
            checked += 1


def test_canonical_form_invariant_under_relabeling():
    rng = random.Random(41)
    for _ in range(60):
        g = random_multigraph(rng, rng.randint(1, 4))
        verts = g.sorted_vertices()
        image = list(verts)
        rng.shuffle(image)
        relabel = dict(zip(verts, image))
        moved = MultiGraph([relabel[v] for v in verts],
                           [(e.id, relabel[e.tail], relabel[e.head]) for e in g.edges])
        assert canonical_form(g) == canonical_form(moved)


def test_canonical_form_separates_nonisomorphic(k4, l3, theta):
    forms = {canonical_form(k4), canonical_form(l3), canonical_form(theta)}
    assert len(forms) == 3


def test_enumerate_two_edges_genus_two():
    graphs = [g for g in enumerate_graphs(2) if genus(g) == 2]
    assert len(graphs) == 1
    g = graphs[0]
    assert len(g.vertices) == 1 and len(g.edges) == 2
    assert all(e.is_loop() for e in g.edges)


def test_enumerate_three_edges_hand_count():
    # stable graphs with <= 3 edges: two loops; three loops; theta;
    # dumbbell (two loops joined by a bridge)
    graphs = list(enumerate_graphs(3))
    assert len(graphs) == 4
    profile = sorted((len(g.vertices), len(g.edges), genus(g)) for g in graphs)
    assert profile == [(1, 2, 2), (1, 3, 3), (2, 3, 2), (2, 3, 2)]


def test_enumerate_no_duplicates_and_all_stable():
    forms = set()
    for g in enumerate_graphs(6):
        f = canonical_form(g)
        assert f not in forms
        forms.add(f)
        assert g.is_stable()
        assert genus(g) >= 2
    # K4 and L3 are both in range at six edges
    assert canonical_form(MultiGraph(
        ["1", "2", "3", "4"],
        [("1", "3", "4"), ("2", "4", "2"), ("3", "2", "3"),
         ("4", "1", "2"), ("5", "1", "3"), ("6", "1", "4")])) in forms


def test_enumerate_genus_window():
    window = [g for g in enumerate_graphs(6) if genus(g) == 3]
    assert window
    for g in window:
        assert genus(g) == 3


def test_genus_prunes_minor_search(theta):
    # pattern genus exceeds the graph's genus, no search happens
    clear_minor_cache()
    found, wit = has_minor(theta, "K4")
    assert not found and wit is None


# -- equivalence with the reference implementations in minor_oracles --------


def relabeled(g, rng):
    """Isomorphic copy with shuffled vertex names, edge ids and orientations."""
    verts = g.sorted_vertices()
    names = [f"v{i}" for i in range(len(verts))]
    rng.shuffle(names)
    rename = dict(zip(verts, names))
    edges = list(g.edges)
    rng.shuffle(edges)
    return MultiGraph(names, [(str(i), *((rename[e.head], rename[e.tail])
                                         if rng.random() < 0.5 else
                                         (rename[e.tail], rename[e.head])))
                              for i, e in enumerate(edges, start=1)])


def prism(n):
    """The circular ladder C_n x K_2: cubic on 2n vertices."""
    rims = [(f"{s}{i}", f"{s}{(i + 1) % n}") for s in "uw" for i in range(n)]
    return from_pairs([(f"u{i}", f"w{i}") for i in range(n)] + rims)


def mobius_ladder(n):
    """Cycle on 2n vertices plus its n long diagonals: cubic."""
    return from_pairs([(i, (i + 1) % (2 * n)) for i in range(2 * n)]
                      + [(i, i + n) for i in range(n)])


def k33():
    return from_pairs([(f"a{i}", f"b{j}") for i in range(3) for j in range(3)])


def random_regular(rng, n, degree):
    """Connected simple degree-regular graph (configuration model).

    Refinement cannot split a regular simple graph's vertices, so only the
    individualization search tells them apart."""
    while True:
        stubs = [v for v in range(n) for _ in range(degree)]
        rng.shuffle(stubs)
        pairs = list(zip(stubs[::2], stubs[1::2]))
        simple = len({frozenset(p) for p in pairs}) == len(pairs)
        if simple and all(a != b for a, b in pairs):
            try:
                return from_pairs(pairs)
            except GraphError:  # disconnected: draw again
                pass


def subdivided_k4(rng):
    g = k4_graph()
    for f in rng.sample([e.id for e in g.edges], rng.randint(1, 4)):
        g = subdivide_edge(g, f)
    return g


def oracle_graphs():
    """200 random multigraphs of genus 3-6, then structured ones; those on
    fewer than 8 vertices also relabeled (the reference canonical form
    tries 8! orders on a vertex-transitive graph with 8 vertices)."""
    rng = random.Random(20261018)
    graphs = [random_multigraph(rng, rng.randint(3, 6), max_vertices=rng.randint(2, 7))
              for _ in range(200)]
    graphs += [ladder(4), ladder(5), prism(3), prism(4), mobius_ladder(3),
               mobius_ladder(4), k33()]
    graphs += [subdivided_k4(rng) for _ in range(6)]
    return graphs + [relabeled(g, rng) for g in graphs[200:] if len(g.vertices) < 8]


def test_has_minor_ops_match_dfs_oracle():
    clear_minor_cache()
    mismatches = []
    for g in oracle_graphs():
        for pattern in ("K4", "L3"):
            found, wit = has_minor(g, pattern)
            want = oracles.minor_dfs(g, pattern)
            got = wit.ops if found else None
            if got != want:
                mismatches.append((repr(g), pattern, got, want))
            elif found:
                assert wit.verify(g)
    assert not mismatches, mismatches[:3]


def test_canonical_form_equality_matches_oracle():
    rng = random.Random(77)
    graphs = [random_multigraph(rng, rng.randint(2, 5), max_vertices=rng.randint(3, 6))
              for _ in range(120)]
    graphs += [prism(3), mobius_ladder(3), k33(), ladder(4)]
    graphs += [random_regular(rng, 7, 4) for _ in range(6)]
    graphs += [relabeled(g, rng) for g in graphs[::4] + graphs[-6:]]
    larger = [random_regular(rng, n, 3) for n in (8, 10) for _ in range(6)]
    for g in graphs + larger + [prism(4), mobius_ladder(4), prism(5)]:
        assert canonical_form(relabeled(g, rng)) == canonical_form(g)
    # every pair, isomorphic or not: the two forms agree on equality
    new = [canonical_form(g) for g in graphs]
    old = [oracles.canonical_form(g) for g in graphs]
    for i, j in itertools.combinations(range(len(graphs)), 2):
        assert (new[i] == new[j]) == (old[i] == old[j]), (graphs[i], graphs[j])
    # 58 classes at six edges stay 58 distinct forms under both
    stable = list(enumerate_graphs(6))
    assert len({canonical_form(g) for g in stable}) == len(stable) == 58
    assert len({oracles.canonical_form(g) for g in stable}) == 58


def test_bridges_and_blocks_match_reference():
    rng = random.Random(55)
    for _ in range(300):
        g = random_multigraph(rng, rng.randint(0, 5), max_vertices=8)
        assert bridges(g) == [e.id for e in g.edges if is_bridge(g, e.id)]
        assert blocks(g) == oracles.blocks(g)


# -- the L3 decision: exact, and without search ------------------------------


def agrees_with_dfs(g):
    """The decision on g, after checking it against `minor_dfs`."""
    found = minors._contains(g, "L3")
    assert found == (oracles.minor_dfs(g, "L3") is not None), g
    return found


def test_l3_decision_matches_dfs_on_stable_blocks():
    counts = Counter(agrees_with_dfs(b) for g in enumerate_graphs(7) for b in blocks(g))
    assert counts[True] and counts[False]


def test_l3_decision_matches_dfs_on_random_multigraphs():
    rng = random.Random(600)
    counts = Counter(agrees_with_dfs(random_multigraph(rng, rng.randint(3, 6),
                                                       max_vertices=rng.randint(2, 7)))
                     for _ in range(600))
    assert counts[True] and counts[False]


def test_l3_decision_matches_dfs_on_series_parallel_blocks():
    rng = random.Random(1982)
    counts = Counter(agrees_with_dfs(random_series_parallel(rng, g, rng.randint(2, 4)))
                     for g in range(4, 8) for _ in range(10))
    assert counts[True] and counts[False]


@pytest.mark.parametrize("rungs", range(2, 9))
def test_ladders_have_no_l3(rungs):
    assert not has_k4_minor_fast(ladder(rungs))
    assert has_minor(ladder(rungs), "L3") == (False, None)


@pytest.mark.parametrize("thick", range(6))
def test_cycle_with_thick_edges_has_l3_iff_three(thick):
    for length in range(max(thick, 3), max(thick, 3) + 3):
        g = thick_cycle(thick, length)
        assert agrees_with_dfs(g) == (thick >= 3)


def test_theta_with_one_thick_edge_per_arc_has_no_l3():
    arcs = [[("s", "a"), ("a", "b"), ("a", "b"), ("b", "t")],
            [("s", "c"), ("c", "c2"), ("c", "c2"), ("c2", "d"), ("d", "t")],
            [("s", "e"), ("s", "e"), ("e", "t")]]
    g = from_pairs(pair for arc in arcs for pair in arc)
    assert genus(g) == 5
    assert not agrees_with_dfs(g)


K4_PAIRS = [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]


def k4_with_ear(subdivide, ear):
    """K4 with each edge in `subdivide` split at the listed new vertices, in
    order from its lower end, plus one edge `ear`."""
    pairs = []
    for a, b in K4_PAIRS:
        path = [a, *subdivide.get((a, b), ()), b]
        pairs += zip(path, path[1:])
    return from_pairs(pairs + [ear])


# The six places an S-path with distinct ends can attach to a subdivided K4.
ONE_EAR_K4S = {
    "two-branch-vertices": k4_with_ear({}, (1, 2)),
    "vertex-and-incident-edge": k4_with_ear({(1, 2): ["m"]}, (1, "m")),
    "vertex-and-disjoint-edge": k4_with_ear({(3, 4): ["m"]}, (1, "m")),
    "same-edge": k4_with_ear({(1, 2): ["m", "n"]}, ("m", "n")),
    "adjacent-edges": k4_with_ear({(1, 2): ["a"], (1, 3): ["b"]}, ("a", "b")),
    "disjoint-edges": k4_with_ear({(1, 2): ["a"], (3, 4): ["b"]}, ("a", "b")),
}


@pytest.mark.parametrize("name", ONE_EAR_K4S)
def test_one_ear_k4_extensions_have_l3(name):
    g = ONE_EAR_K4S[name]
    assert genus(g) == 4 and has_k4_minor_fast(g)
    assert agrees_with_dfs(g)
    found, wit = has_minor(g, "L3")
    assert found and wit.verify(g)
    assert wit.ops == oracles.minor_dfs(g, "L3")


def test_l3_decision_searches_nothing(monkeypatch, tmp_path):
    long_ladder, doubled = ladder(40), thick_cycle(20, 20)
    calls = Counter()
    for module, name in ((minors, "canonical_form"), (minors, "contract_edge"),
                         (minors, "delete_edge"), (graph, "contract_edge"),
                         (graph, "delete_edge")):
        def counted(*args, _real=getattr(module, name), _name=name):
            calls[_name] += 1
            return _real(*args)
        monkeypatch.setattr(module, name, counted)
    assert not minors._contains(long_ladder, "L3")
    assert minors._contains(doubled, "L3")
    assert not calls
    monkeypatch.undo()

    assert classify(long_ladder).trivial
    verdict = classify(doubled)
    assert not verdict.trivial and verdict.witness.pattern == "L3"
    assert verdict.witness.verify(doubled)
    path = tmp_path / "ladder40.txt"
    path.write_text(render_graph_text(long_ladder), encoding="utf-8")
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert main(["classify", str(path), "--json"]) == EXIT_OK
    assert json.loads(out.getvalue())["result"]["trivial"] is True
