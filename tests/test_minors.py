import contextlib
import io
import itertools
import json
import random
from collections import Counter
from pathlib import Path

import pytest

from czgraph import graph, minors
from czgraph.ceresa import classify, k4_graph
from czgraph.cli import EXIT_OK, main
from czgraph.graph import (GraphError, MultiGraph, PreconditionError,
                           block_parts, blocks, bridges, contract_edge, delete_edge, genus,
                           is_bridge, load_graph_file, render_graph_text, subdivide_edge)
from czgraph.minors import (PATTERNS, MinorWitness, canonical_form,
                            clear_minor_cache, enumerate_graphs,
                            has_k4_minor_fast, has_minor,
                            is_hyperelliptic_type, is_k4, is_l3,
                            single_step_minors)
from czgraph.polyring import idkey

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


def _classes_by_size(graphs):
    """Canonical forms, bucketed by (vertex count, edge count)."""
    buckets: dict[tuple[int, int], set] = {}
    for g in graphs:
        buckets.setdefault((len(g.vertices), len(g.edges)), set()).add(canonical_form(g))
    return buckets


def test_enumeration_matches_slot_multiset_oracle():
    """Every bucket at <= 7 edges holds the classes that the walk over every
    slot multiset finds, and each graph is stable, connected, labelled 1..n
    and degree-ordered."""
    graphs = list(enumerate_graphs(7))
    assert _classes_by_size(graphs) == _classes_by_size(oracles.enumerate_by_slot_multisets(7))
    assert len({canonical_form(g) for g in graphs}) == len(graphs) == 157
    for g in graphs:
        labels = [str(v) for v in range(1, len(g.vertices) + 1)]
        assert g.vertices == set(labels)
        assert MultiGraph(labels, g.edges) == g  # raises if disconnected
        valences = [g.valence(v) for v in labels]
        assert valences[-1] >= 3 and valences == sorted(valences, reverse=True)


def test_enumeration_yields_each_class_once_without_canonical_form(monkeypatch):
    """Orderly generation keeps no set of seen classes: it never calls
    `canonical_form`, and no two of its yields are isomorphic."""
    calls = []
    real = minors.canonical_form
    monkeypatch.setattr(minors, "canonical_form", lambda g: calls.append(1) or real(g))
    assert sum(1 for _ in enumerate_graphs(8)) == 458
    assert not calls
    forms = [canonical_form(g) for g in enumerate_graphs(9)]
    assert len(set(forms)) == len(forms) == 1438


def test_enumeration_keeps_the_maximal_degree_ordered_labelling():
    """Brute force over every vertex permutation that keeps the valences
    non-increasing: no such relabelling of a yielded graph gives a greater
    row-major slot vector (loops on the diagonal)."""
    relabelled = 0
    for count, g in enumerate(enumerate_graphs(8), start=1):
        n = len(g.vertices)
        a = [[0] * n for _ in range(n)]
        for e in g.edges:
            u, v = int(e.tail) - 1, int(e.head) - 1
            a[u][v] += 1
            a[v][u] += u != v
        val = [g.valence(str(v + 1)) for v in range(n)]
        slots = [(i, j) for i in range(n) for j in range(i, n)]
        vectors = {tuple(a[p[i]][p[j]] for i, j in slots)
                   for p in itertools.permutations(range(n))
                   if all(val[p[i]] == val[i] for i in range(n))}
        assert tuple(a[i][j] for i, j in slots) == max(vectors), g
        relabelled += len(vectors) > 1
    assert count == 458 and relabelled == 224


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


def test_classify_is_invariant_under_relabelling():
    """Relabelling a graph, with its vertex and edge ids in mixed styles,
    changes neither the classify verdict nor hyperelliptic type, and every
    non-trivial verdict's witness replays on the graph it was found on."""
    rng = random.Random(41)
    styles = ("{}", "0{}", "{}a", "e{}", "x_{}")
    seen = Counter()
    for n in range(40):
        g = random_multigraph(rng, 3 + n % 4, max_vertices=8)
        trivial, hyperelliptic = classify(g).trivial, is_hyperelliptic_type(g)
        for h in [g] + [relabeled(g, rng) for _ in range(2)]:
            name = {v: rng.choice(styles).format(i)
                    for i, v in enumerate(h.sorted_vertices(), start=1)}
            h = MultiGraph(name.values(), [(rng.choice(styles).format(e.id),
                                            name[e.tail], name[e.head]) for e in h.edges])
            verdict = classify(h)
            assert (verdict.trivial, is_hyperelliptic_type(h)) == (trivial, hyperelliptic)
            assert verdict.trivial or verdict.witness.verify(h)
        seen[trivial] += 1
    assert seen[True] and seen[False], seen


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


GOLDEN_INPUTS = Path(__file__).resolve().parent / "golden" / "inputs"


def test_witness_is_one_pass_over_the_edges(monkeypatch):
    """Every witness of the golden petersen and k4-subdivided inputs and of
    the stable graphs with <= 8 edges: `_witness` decides at most twice per
    edge, searches no bridge and no single-step minor, and acts on edges
    in rising `idkey` order."""
    graphs = [load_graph_file(str(GOLDEN_INPUTS / f"{name}.txt"))[0]
              for name in ("petersen", "k4-subdivided")]
    graphs += enumerate_graphs(8)
    calls = Counter()

    def counted(name, real):
        def wrapper(*args):
            calls[name] += 1
            return real(*args)
        return wrapper
    for name in ("_contains", "bridges", "single_step_minors"):
        monkeypatch.setattr(minors, name, counted(name, getattr(minors, name)))
    witnesses = 0
    for g in graphs:
        for pattern in PATTERNS:
            if not minors._contains(g, pattern):
                continue
            calls.clear()
            ops = minors._witness(g, pattern).ops
            assert calls["_contains"] <= 2 * len(g.edges), (g, pattern)
            assert not calls["bridges"] and not calls["single_step_minors"]
            keys = [idkey(eid) for _, eid in ops]
            assert keys == sorted(keys) and len(set(keys)) == len(keys)
            witnesses += 1
    assert witnesses == 44, witnesses


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
        assert bridges(g) == [e.id for e in g.edges if oracles.separates(
            g.vertices, [x for x in g.edges if x is not e])]
        assert blocks(g) == oracles.blocks(g)


def with_loops(rng, g, count):
    """g plus `count` loops at random vertices, every edge renumbered at
    random so that the loops fall between the other edges."""
    edges = list(g.edges) + [(None, v, v) for v in rng.choices(g.sorted_vertices(), k=count)]
    rng.shuffle(edges)
    return MultiGraph(g.vertices, [(str(i), t, h) for i, (_, t, h) in enumerate(edges, start=1)])


def test_blocks_and_bridges_match_brute_force_on_graphs_with_loops():
    rng = random.Random(1515)
    looped = 0
    for _ in range(200):
        g = random_multigraph(rng, rng.randint(0, 4), max_vertices=rng.randint(1, 7))
        g = with_loops(rng, g, rng.randint(1, 3))
        parts = blocks(g)
        loops = [b for b in parts if b.edges[0].is_loop()]
        assert sorted(b.edges for b in loops) == sorted((e,) for e in g.edges if e.is_loop())
        rest = [e.id for b in parts if b not in loops for e in b.edges]
        assert sorted(rest) == sorted(e.id for e in g.edges if not e.is_loop())
        for b in parts:
            for v in b.vertices:
                assert not oracles.separates(
                    b.vertices - {v}, [e for e in b.edges if v not in (e.tail, e.head)])
        assert {frozenset(b.edge_ids()) for b in parts} == oracles.block_partition(g)
        want = [e.id for e in g.edges
                if oracles.separates(g.vertices, [x for x in g.edges if x is not e])]
        assert bridges(g) == want == [e.id for e in g.edges if is_bridge(g, e.id)]
        looped += len(loops) > 0 and len(g.vertices) > 1
    assert looped


def test_block_parts_builds_only_blocks_of_the_given_genus():
    """`block_parts(g, k)` sizes the blocks by their back edges and returns
    exactly the unfiltered blocks of genus >= k, in the same order."""
    rng = random.Random(311)
    graphs = []
    for g in enumerate_graphs(7):
        graphs += [g, *(child for _, _, child in single_step_minors(g))]
    graphs += [with_loops(rng, random_multigraph(rng, rng.randint(0, 4),
                                                 max_vertices=rng.randint(1, 7)),
                          rng.randint(1, 3)) for _ in range(200)]
    at_bound = Counter()
    for g in graphs:
        parts = block_parts(g)
        for k in range(7):
            assert block_parts(g, k) == [(vs, es) for vs, es in parts
                                         if len(es) - len(vs) + 1 >= k], (g, k)
        at_bound.update(len(es) - len(vs) + 1 for vs, es in parts)
    # every threshold meets blocks of exactly its genus
    assert all(at_bound[k] for k in range(7)), at_bound


def assert_validated_copy(g):
    """A derived graph is exactly what public construction builds from it."""
    copy = MultiGraph(g.vertices, g.edges)
    assert type(g.vertices) is frozenset and type(g.edges) is tuple
    assert g == copy and g._by_id == copy._by_id, g


def test_derived_graphs_equal_validated_copies():
    rng = random.Random(14)
    graphs = list(enumerate_graphs(7))
    graphs += [random_multigraph(rng, rng.randint(0, 5), max_vertices=rng.randint(1, 7))
               for _ in range(150)]
    graphs += [with_loops(rng, random_multigraph(rng, rng.randint(0, 4), max_vertices=5),
                          rng.randint(1, 3)) for _ in range(50)]
    for g in graphs:
        assert_validated_copy(g)
        for b in blocks(g):
            assert_validated_copy(b)
        public = []
        for e in g.edges:
            if not e.is_loop():
                public.append(("contract", e.id, contract_edge(g, e.id)))
            if not is_bridge(g, e.id):
                public.append(("delete", e.id, delete_edge(g, e.id)))
        children = list(single_step_minors(g))
        assert children == public
        for _, _, child in children:
            assert_validated_copy(child)


def test_derived_graphs_skip_validation(monkeypatch):
    long_ladder, doubled = ladder(40), thick_cycle(20, 20)
    graphs = [k4_graph(), long_ladder, doubled, random_multigraph(random.Random(3), 5)]
    calls = Counter()
    real_init, real_derived = MultiGraph.__init__, MultiGraph._derived.__func__

    def init(self, *args):
        calls["__init__"] += 1
        real_init(self, *args)

    def derived(cls, *args):
        calls["_derived"] += 1
        return real_derived(cls, *args)
    monkeypatch.setattr(MultiGraph, "__init__", init)
    monkeypatch.setattr(MultiGraph, "_derived", classmethod(derived))
    assert not minors._contains(long_ladder, "L3")
    assert minors._contains(doubled, "L3")
    assert not calls
    for g in graphs:
        blocks(g)
        for e in g.edges:
            if not e.is_loop():
                contract_edge(g, e.id)
            if not is_bridge(g, e.id):
                delete_edge(g, e.id)
    assert calls["_derived"] and not calls["__init__"]


# -- the L3 decision: exact, and without search ------------------------------


def agrees_with_dfs(g):
    """The decision on g, after checking it against `minor_dfs`."""
    found = minors._contains(g, "L3")
    assert found == (oracles.minor_dfs(g, "L3") is not None), g
    return found


def test_l3_decision_matches_dfs_on_stable_blocks():
    counts = Counter(agrees_with_dfs(b) for g in enumerate_graphs(7) for b in blocks(g))
    assert counts[True] and counts[False]


def test_hyperelliptic_type_is_both_decisions_in_one_pass():
    """On every stable graph with <= 8 edges, each of its blocks and each of
    its single-step minors, the one block pass agrees with deciding K4 and
    L3 apart, and at <= 7 edges with the DFS oracle too."""
    counts = Counter()
    for g in enumerate_graphs(8):
        for h in [g, *blocks(g), *(child for _, _, child in single_step_minors(g))]:
            het = is_hyperelliptic_type(h)
            assert het == (not (minors._contains(h, "K4") or minors._contains(h, "L3"))), h
            if len(h.edges) <= 7:
                assert het == all(oracles.minor_dfs(h, p) is None for p in PATTERNS), h
                counts["dfs"] += 1
            counts[het] += 1
    assert counts[False] and counts["dfs"], counts


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


# -- one reduction: K4 against the degree-reduction oracle -------------------


def with_pendant_tree(rng, g, size):
    """g plus `size` new vertices, each hung by one edge from a random
    earlier vertex: a forest of pendant trees."""
    verts = g.sorted_vertices()
    edges = [(e.id, e.tail, e.head) for e in g.edges]
    for k in range(size):
        edges.append((f"t{k}", rng.choice(verts), f"t{k}"))
        verts.append(f"t{k}")
    return MultiGraph(verts, edges)


def reduction_corpus():
    """Every stable graph with <= 8 edges and each of its single-step minors,
    the blocks of all of those, and 2,000 random multigraphs with bridges,
    pendant trees and loops."""
    graphs = []
    for g in enumerate_graphs(8):
        graphs += [g, *(child for _, _, child in single_step_minors(g))]
    graphs += [b for g in graphs for b in blocks(g)]
    rng = random.Random(1965)
    for _ in range(2000):
        g = random_multigraph(rng, rng.randint(0, 6), max_vertices=rng.randint(1, 7))
        g = with_pendant_tree(rng, g, rng.randint(0, 4))
        graphs.append(with_loops(rng, g, rng.randint(0, 3)))
    return graphs


def test_k4_reduction_matches_degree_reduction_oracle():
    graphs = reduction_corpus()
    assert len(graphs) >= 20000
    counts = Counter()
    for g in graphs:
        found = has_k4_minor_fast(g)
        assert found == oracles.k4_by_degree_reduction(g), g
        counts[found, any(e.is_loop() for e in g.edges), bool(bridges(g))] += 1
    # K4 found and missed, on graphs with loops and with bridges
    assert all(counts[found, True, True] for found in (True, False)), counts


def thick_ear_k4(tag):
    """K4 whose edge 1-2 has a parallel chain with three doubled edges, as
    vertex pairs named with `tag`: a block of genus 7 on which the reduction
    closes a cycle node with three virtual edges, a count of 3, before it
    stalls on the K4."""
    chain = [(1, "a"), ("a", "b"), ("a", "b"), ("b", "c"), ("c", "d"), ("c", "d"),
             ("d", "e"), ("e", "f"), ("e", "f"), ("f", 2)]
    return [(f"{tag}{a}", f"{tag}{b}") for a, b in K4_PAIRS + chain]


def test_classify_names_the_pattern_of_the_first_failing_block():
    """A non-trivial verdict names K4 exactly when the first block without
    hyperelliptic type has a K4 minor, by the degree-reduction oracle."""
    l3 = [("u", "v"), ("u", "v"), ("v", "w"), ("v", "w"), ("w", "u"), ("w", "u")]
    bridge = [("u", "x1"), ("x3", "x3")]
    # the thick-eared K4 alone, after an L3 block, and before one
    extra = [from_pairs(thick_ear_k4("x")), from_pairs(l3 + bridge + thick_ear_k4("x")),
             from_pairs(thick_ear_k4("x") + bridge + l3)]
    named = Counter()
    for g in reduction_corpus() + extra:
        if genus(g) < 2:
            continue
        verdict = classify(g)
        if verdict.trivial:
            continue
        first = next(b for b in blocks(g) if not is_hyperelliptic_type(b))
        pattern = "K4" if oracles.k4_by_degree_reduction(first) else "L3"
        assert verdict.note == f"{pattern} minor found: not hyperelliptic type", g
        assert verdict.witness.pattern == pattern
        named[pattern, genus(first) >= 4] += 1
    assert named["K4", True] and named["L3", True] and named["K4", False], named
    assert [classify(g).witness.pattern for g in extra] == ["K4", "L3", "K4"]
