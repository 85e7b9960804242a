import json
import random
from pathlib import Path

import pytest

from czgraph import graph, intlin, minors
from czgraph.ceresa import (V_TAU_K4, V_TAU_L3, CeresaCocycle, CZClass,
                            TrivialityVerdict, _graph_system,
                            _specialized_generators, classify, compute_w,
                            image_lattice,
                            is_cz_trivial_curve, is_cz_trivial_graph,
                            k4_context, k4_graph, l3_context, l3_graph,
                            pushforward_contract, pushforward_subdivide,
                            specialize)
from czgraph.cli import run_command
from czgraph.extalg import (HElement, LElement, aab_keys, alpha, beta,
                            image2_coeffs, triple_indices)
from czgraph.graph import (MultiGraph, PreconditionError, TropicalCurve,
                           blocks, build_cycle_context, genus, load_graph_file,
                           parse_graph_text, specialize_Q)
from czgraph.intlin import IntMatrix, solve_diophantine
from czgraph.polyring import IntPolynomial
from czgraph.polyring import parse_polynomial as P

from conftest import (random_aab_map, random_abb_map, random_multigraph,
                      random_spanning_tree, trivial_cocycle)
from ceresa_oracles import psi_system, solve_psi
from extalg_oracles import psi_G, wedge_with_omega
from lin_oracles import solve_by_hermite
from poly_oracles import evaluate, render_order, substitute

NEG2X2X5 = P("-2*x2*x5")
NEG2X5X6 = P("-2*x5*x6")


def ones_curve(graph):
    return TropicalCurve(graph, {e.id: 1 for e in graph.edges})


def test_compute_w_k4():
    w = compute_w(V_TAU_K4)
    assert w.c == {(1, 2, 3): NEG2X2X5}


def test_compute_w_l3():
    w = compute_w(V_TAU_L3)
    assert w.c == {(1, 2, 3): NEG2X5X6, (1, 2, 4): NEG2X5X6}


def test_compute_w_zero_cocycle(k4_ctx):
    v = CeresaCocycle(k4_ctx, {})
    assert compute_w(v).is_zero()


def test_cocycle_validation(k4_ctx):
    """Cocycles and classes reject a bad coefficient with one message each,
    checked in the order index, homogeneity, unknown edges."""
    cases = [
        (CeresaCocycle, (1, 2, 1), "x1",  # needs j < k
         "cocycle index (1, 2, 1) out of range"),
        (CeresaCocycle, (1, 1, 2), "x1*x2",
         "cocycle coefficient at (1, 1, 2) is not homogeneous linear: x1*x2"),
        (CeresaCocycle, (1, 1, 2), "3",
         "cocycle coefficient at (1, 1, 2) is not homogeneous linear: 3"),
        (CeresaCocycle, (1, 1, 2), "x9 - x10 + x1",
         "cocycle coefficient at (1, 1, 2) uses unknown edges ['10', '9']"),
        (CeresaCocycle, (1, 1, 2), "x1*x9 + x8",  # both: homogeneity wins
         "cocycle coefficient at (1, 1, 2) is not homogeneous linear: x1*x9 + x8"),
        (CZClass, (1, 2, 4), "x1*x2",
         "class index (1, 2, 4) out of range"),
        (CZClass, (1, 2, 3), "x1",
         "class coefficient at (1, 2, 3) is not homogeneous quadratic: x1"),
        (CZClass, (1, 2, 3), "x1*x2 + 1",
         "class coefficient at (1, 2, 3) is not homogeneous quadratic: 1 + x1*x2"),
        (CZClass, (1, 2, 3), "x1*x9 + x7^2",
         "class coefficient at (1, 2, 3) uses unknown edges ['7', '9']"),
        (CZClass, (1, 2, 3), "x1*x9 + x7",  # both: homogeneity wins
         "class coefficient at (1, 2, 3) is not homogeneous quadratic: x1*x9 + x7"),
    ]
    for cls, key, poly, message in cases:
        with pytest.raises(PreconditionError) as info:
            cls(k4_ctx, {key: P(poly)})
        assert str(info.value) == message


def test_cocycle_indices_are_refused_not_truncated(k4_ctx):
    """Index entries from a library caller follow the JSON readers' integer
    rule: a float or bool is refused, not truncated to (1, 1, 2) or (1, 2, 3)."""
    for key in ((1.9, 1, 2), (True, 2, 3)):
        with pytest.raises(PreconditionError) as info:
            CeresaCocycle(k4_ctx, {key: P("x1")})
        assert str(info.value) == (f"cocycle index {key!r}: expected an integer, "
                                   f"got {key[0]!r}")


def test_value_classes_are_unhashable_on_purpose(k4_ctx):
    """Contexts, curves, cocycles and classes compare by value and refuse
    hash() by their own name, not through a field."""
    twin_ctx = build_cycle_context(k4_graph(), tree_hint=["4", "5", "6"])
    w = compute_w(V_TAU_K4)
    for value, twin in ((k4_ctx, twin_ctx),
                        (ones_curve(k4_graph()), ones_curve(k4_graph())),
                        (V_TAU_K4, CeresaCocycle(twin_ctx, V_TAU_K4.b)),
                        (w, CZClass(twin_ctx, w.c))):
        with pytest.raises(TypeError, match=f"unhashable type: '{type(value).__name__}'"):
            hash(value)
        assert value == twin and value is not twin


def test_graph_verdicts_not_trivial():
    vk = is_cz_trivial_graph(k4_graph(), V_TAU_K4)
    assert not vk.trivial and vk.method == "graph-diophantine"
    vl = is_cz_trivial_graph(l3_graph(), V_TAU_L3)
    assert not vl.trivial


def test_psi_mode_agrees_on_fixtures():
    for graph, v in ((k4_graph(), V_TAU_K4), (l3_graph(), V_TAU_L3)):
        main = is_cz_trivial_graph(graph, v)
        feasible, _, _ = solve_psi(v.context, compute_w(v))
        assert main.trivial == feasible


def test_psi_mode_agrees_on_random_cocycles():
    """The decision and the psi oracle agree on random and on
    trivial-by-construction cocycles at genus 3 to 5, and a psi solution
    has no a^a^a part and an a part that replays to the class."""
    rng = random.Random(101)
    seen = {True: 0, False: 0}
    for n in range(24):
        g = random_multigraph(rng, 3 + n % 3, max_vertices=4)
        ctx = build_cycle_context(g)
        v = (trivial_cocycle(rng, ctx) if n % 2
             else CeresaCocycle(ctx, random_abb_map(rng, ctx, density=0.3)))
        main = is_cz_trivial_graph(g, v)
        w = compute_w(v)
        feasible, a, d = solve_psi(ctx, w)
        assert main.trivial == feasible
        if feasible:
            assert d == {}
            assert image2_coeffs(ctx, a) == w.c
        seen[feasible] += 1
    assert all(seen.values()), seen


def test_zero_cocycle_trivial_with_zero_witness(k4_ctx):
    v = CeresaCocycle(k4_ctx, {})
    verdict = is_cz_trivial_graph(k4_graph(), v)
    assert verdict.trivial and verdict.certificate == {"a": {}}


def test_low_genus_always_trivial(theta):
    ctx = build_cycle_context(theta)
    v = CeresaCocycle(ctx, {(1, 1, 2): P("x1")})
    verdict = is_cz_trivial_graph(theta, v)
    assert verdict.trivial and "genus < 3" in verdict.note


def test_context_mismatch_rejected(k4_ctx):
    with pytest.raises(PreconditionError):
        is_cz_trivial_graph(l3_graph(), V_TAU_K4)


def test_specialize_examples():
    wk = compute_w(V_TAU_K4)
    assert specialize(wk, ones_curve(k4_graph())) == [-2]
    wl = compute_w(V_TAU_L3)
    assert specialize(wl, ones_curve(l3_graph())) == [-2, -2, 0, 0]
    zero = CZClass(k4_context(), {})
    assert specialize(zero, ones_curve(k4_graph())) == [0]


def test_image_lattice_k4():
    # the squared twist map carries a global factor 2, so at unit lengths
    # the K4 lattice is 8Z and doubling one edge length coarsens it to 2Z
    assert image_lattice(ones_curve(k4_graph()), k4_context()) == [[8]]
    two = TropicalCurve(k4_graph(), {"1": 2, "2": 1, "3": 1, "4": 1, "5": 1, "6": 1})
    assert image_lattice(two, k4_context()) == [[2]]


def test_image_lattice_l3():
    assert image_lattice(ones_curve(l3_graph()), l3_context()) == [
        [2, 2, 0, 2], [0, 4, 0, 0], [0, 0, 2, 2], [0, 0, 0, 4]]


def test_curve_verdict_builds_each_generator_once(monkeypatch):
    """The curve path builds the kernel's minors once per verdict, never
    calls the image2_forms replay and factors the generators in one
    elimination; `image_lattice` eliminates them with no transform columns."""
    import czgraph.ceresa as ceresa
    import czgraph.intlin as intlin
    calls = {"minors": 0, "image2_forms": 0, "echelon": 0}
    carried = []  # per elimination: how many columns its rows carry past n

    def counted(name, real):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return wrapper

    def recorded(rows, n):
        carried.append({len(row) - n for row in rows})
        return echelon(rows, n)

    echelon = intlin._echelon
    monkeypatch.setattr(ceresa, "_q_minors", counted("minors", ceresa._q_minors))
    monkeypatch.setattr(ceresa, "image2_forms",
                        counted("image2_forms", ceresa.image2_forms))
    monkeypatch.setattr(intlin, "_echelon", counted("echelon", recorded))
    curve = ones_curve(l3_graph())
    verdict = is_cz_trivial_curve(curve, V_TAU_L3)
    assert not verdict.trivial
    assert calls == {"minors": 1, "image2_forms": 0, "echelon": 1}
    carried.clear()
    lattice = image_lattice(curve, l3_context())
    assert carried == [{0}]
    assert verdict.certificate["lattice_hnf"] == lattice


def _oracle_system(ctx, w):
    """Every (triple, monomial) equation of the graph-level system, one
    column per unit, each column built by the image2_coeffs oracle."""
    zero = IntPolynomial.zero()
    gens = [image2_coeffs(ctx, {key: 1}) for key in aab_keys(ctx.g)]
    monos = sorted({m for gen in gens for p in gen.values() for m in p.terms}
                   | {m for p in w.c.values() for m in p.terms}, key=render_order)
    rows, rhs = [], []
    for tr in triple_indices(ctx.g):
        cols, target = [gen.get(tr, zero).terms for gen in gens], w.c.get(tr, zero).terms
        for m in monos:
            rows.append([col.get(m, 0) for col in cols])
            rhs.append(target.get(m, 0))
    return gens, rows, rhs


def test_kernel_matches_image2_oracle(monkeypatch):
    """The minor kernel against image2_coeffs, unit by unit: at graph level
    as the columns of the full system, at curve level evaluated at random
    lengths; and dropping the equations with zero A-row and zero right-hand
    side leaves the Diophantine solution unchanged.  Every graph-level
    verdict, certificate and replay hash is the one the full system's solve
    gives, and a verdict eliminates nothing exactly when a kept equation has
    a zero A-row.  A non-trivial curve verdict's `lattice_hnf` is the image
    lattice."""
    eliminations = []
    echelon = intlin._echelon
    monkeypatch.setattr(intlin, "_echelon",
                        lambda rows, n: eliminations.append(n) or echelon(rows, n))
    rng = random.Random(8)
    zero = IntPolynomial.zero()
    seen = {"feasible": 0, "infeasible": 0, "dropped": 0, "zero_row_kept": 0,
            "zero_row_exit": 0, "curve_nontrivial": 0}
    for n in range(150):
        # 60 / 45 / 30 / 15 graphs of genus 3 / 4 / 5 / 6
        graph = random_multigraph(rng, (3, 3, 3, 3, 4, 4, 4, 5, 5, 6)[n % 10],
                                  max_vertices=5)
        for tree in (None, random_spanning_tree(rng, graph)):
            ctx = build_cycle_context(graph, tree_hint=tree)
            v = None
            if rng.random() < 0.5:
                v = CeresaCocycle(ctx, random_abb_map(rng, ctx))
                w = compute_w(v)
            else:
                w = CZClass(ctx, image2_coeffs(
                    ctx, random_aab_map(rng, ctx, density=0.2, integers=True)))
            gens, rows, rhs = _oracle_system(ctx, w)
            n_equations, kernel_rows, kernel_rhs = _graph_system(ctx, w)
            kept = [(r, b) for r, b in zip(rows, rhs) if any(r) or b]
            assert n_equations == len(rows)
            assert list(zip(kernel_rows, kernel_rhs)) == kept
            seen["dropped"] += len(rows) - len(kept)
            seen["zero_row_kept"] += sum(1 for r, _ in kept if not any(r))
            full = solve_diophantine(IntMatrix.from_rows(rows), rhs)
            reduced = solve_diophantine(
                IntMatrix.from_rows(kernel_rows, cols=len(gens)), kernel_rhs)
            assert (reduced.feasible, reduced.solution) == (full.feasible, full.solution)
            seen["feasible" if full.feasible else "infeasible"] += 1
            if v is not None:
                certificate = (
                    {"a": {key: c for key, c in zip(aab_keys(ctx.g), full.solution) if c}}
                    if full.feasible else
                    {"infeasible": True, "unknowns": len(gens), "equations": len(rows)})
                expect = TrivialityVerdict(full.feasible, "graph-diophantine",
                                           certificate=certificate)
                eliminations.clear()
                verdict = is_cz_trivial_graph(graph, v)
                assert ((verdict.trivial, verdict.certificate, verdict.replay_hash())
                        == (expect.trivial, expect.certificate, expect.replay_hash()))
                exit_taken = not eliminations
                assert exit_taken == any(not any(r) for r, _ in kept)
                seen["zero_row_exit"] += exit_taken

            lengths = {e.id: rng.randint(1, 5) for e in graph.edges}
            curve = TropicalCurve(graph, lengths)
            specialized = _specialized_generators(ctx, curve)
            for key, gen in zip(aab_keys(ctx.g), gens):
                assert specialized[key] == [evaluate(gen.get(tr, zero), lengths)
                                            for tr in triple_indices(ctx.g)]
            verdict = is_cz_trivial_curve(curve, v) if v is not None else None
            if verdict is not None and not verdict.trivial:
                assert verdict.certificate["lattice_hnf"] == image_lattice(curve, ctx)
                seen["curve_nontrivial"] += 1
    assert all(seen.values()), seen


def _assert_solve_matches_hermite(A, b):
    result = solve_diophantine(A, b)
    assert (result.feasible, result.solution, result.basis) == solve_by_hermite(A, b)
    return result.feasible


def test_solve_matches_hermite_oracle_on_cz_systems():
    """The echelon solve gives the Hermite oracle's verdict, solution and
    basis on every pool cz input at graph and at curve level, with either
    cocycle, and on graph-level systems at genus 7 and 8."""
    pool = json.loads((Path(__file__).resolve().parent.parent / "perfbench"
                       / "pool.json").read_text(encoding="utf-8"))
    seen = {True: 0, False: 0}
    for entries in pool["cz"].values():
        for entry in entries:
            graph, _ = parse_graph_text(entry["graph"])
            _, lengths = parse_graph_text(entry["curve"])
            curve = TropicalCurve(graph, lengths)
            for cocycle in entry["cocycles"].values():
                ctx = build_cycle_context(graph, tree_hint=cocycle["tree"])
                w = compute_w(CeresaCocycle(ctx, {(i, j, k): P(poly)
                                                  for i, j, k, poly in cocycle["b"]}))
                _, rows, rhs = _graph_system(ctx, w)
                A = IntMatrix.from_rows(rows, cols=len(aab_keys(ctx.g)))
                seen[_assert_solve_matches_hermite(A, rhs)] += 1
                gens = _specialized_generators(ctx, curve)
                A = IntMatrix.from_rows(gens.values()).transpose()
                seen[_assert_solve_matches_hermite(A, specialize(w, curve))] += 1
    rng = random.Random(78)
    for g in (7, 7, 8, 8):
        graph = random_multigraph(rng, g, max_vertices=5)
        ctx = build_cycle_context(graph)
        for v in (CeresaCocycle(ctx, random_abb_map(rng, ctx)), trivial_cocycle(rng, ctx)):
            _, rows, rhs = _graph_system(ctx, compute_w(v))
            A = IntMatrix.from_rows(rows, cols=len(aab_keys(g)))
            seen[_assert_solve_matches_hermite(A, rhs)] += 1
    assert all(seen.values()), seen


def _terms(coeffs) -> dict:
    """(wedge triple, monomial) -> coefficient, from triple -> polynomial."""
    return {(triple, m): c for triple, poly in coeffs.items()
            for m, c in poly.terms.items()}


def test_psi_columns_match_element_oracles():
    """Every column of the psi system against the element-level maps,
    signs included: a against image2_coeffs, d against psi_G on a^a^a, and
    h = (l, m) against -m (omega ^ b_l); the right-hand side against the
    class.  Negating any one block of columns fails this test, although it
    leaves every verdict unchanged."""
    rng = random.Random(11)
    for n in range(9):
        graph = random_multigraph(rng, 3 + n % 3, max_vertices=5)
        ctx = build_cycle_context(graph, tree_hint=random_spanning_tree(rng, graph))
        w = compute_w(CeresaCocycle(ctx, random_abb_map(rng, ctx)))
        keys, units, rows, rhs = psi_system(ctx, w)
        columns = [{} for _ in units]
        for key, row in zip(keys, rows):
            for col, c in enumerate(row):
                if c:
                    columns[col][key] = c
        bbb = {tr: tuple(beta(x) for x in tr) for tr in triple_indices(ctx.g)}
        omega = {l: wedge_with_omega(HElement.basis(ctx.g, beta(l)))
                 for l in range(1, ctx.g + 1)}
        for (kind, key), column in zip(units, columns):
            if kind == "a":
                image = image2_coeffs(ctx, {key: 1})
                expect = _terms({bbb[tr]: p for tr, p in image.items()})
            elif kind == "d":
                aaa = LElement.wedge_basis(ctx.g, tuple(alpha(i) for i in key))
                expect = _terms(psi_G(ctx, aaa).terms)
            else:
                l, m = key
                expect = _terms(omega[l].scale(IntPolynomial({m: -1})).terms)
            assert column == expect, (kind, key)
        assert {key: b for key, b in zip(keys, rhs) if b} == _terms(
            {bbb[tr]: p for tr, p in w.c.items()})
        assert all(any(row) or b for row, b in zip(rows, rhs))
        assert [kind for kind, _ in units] == sorted(kind for kind, _ in units)


def test_zero_row_with_nonzero_rhs_is_infeasible(monkeypatch):
    """A class term on a bridge variable meets no generator: its equation
    keeps a zero A-row, and the verdict is non-trivial before any
    elimination."""
    eliminations = []
    monkeypatch.setattr(intlin, "_echelon", lambda rows, n: eliminations.append(n))
    graph = MultiGraph(["1", "2"], [("1", "1", "1"), ("2", "1", "1"), ("3", "2", "2"),
                                    ("4", "1", "2")])
    ctx = build_cycle_context(graph)
    v = CeresaCocycle(ctx, {(1, 2, 3): P("2*x4")})
    w = compute_w(v)
    assert w.c == {(1, 2, 3): P("2*x1*x4")}
    n_equations, rows, rhs = _graph_system(ctx, w)
    assert ([0] * len(aab_keys(3)), 2) in zip(rows, rhs)
    verdict = is_cz_trivial_graph(graph, v)
    assert not verdict.trivial
    assert verdict.certificate == {"infeasible": True, "unknowns": len(aab_keys(3)),
                                   "equations": n_equations}
    assert eliminations == []


def test_image_lattice_generators_are_even():
    rng = random.Random(103)
    for _ in range(15):
        g = random_multigraph(rng, rng.randint(3, 4), max_vertices=4)
        lengths = {e.id: rng.randint(1, 4) for e in g.edges}
        for row in image_lattice(TropicalCurve(g, lengths)):
            assert all(x % 2 == 0 for x in row)


def test_curve_verdicts():
    assert not is_cz_trivial_curve(ones_curve(k4_graph()), V_TAU_K4).trivial
    two = TropicalCurve(k4_graph(), {"1": 2, "2": 1, "3": 1, "4": 1, "5": 1, "6": 1})
    verdict = is_cz_trivial_curve(two, V_TAU_K4)
    assert verdict.trivial
    assert verdict.certificate["a"]  # nonzero witness, replayed internally
    assert not is_cz_trivial_curve(ones_curve(l3_graph()), V_TAU_L3).trivial


def test_curve_witness_replays():
    two = TropicalCurve(k4_graph(), {"1": 2, "2": 1, "3": 1, "4": 1, "5": 1, "6": 1})
    verdict = is_cz_trivial_curve(two, V_TAU_K4)
    from czgraph.ceresa import _specialized_generators
    gens = _specialized_generators(k4_context(), two)
    total = [0]
    for key, coeff in verdict.certificate["a"].items():
        total = [t + coeff * x for t, x in zip(total, gens[key])]
    assert total == specialize(compute_w(V_TAU_K4), two)


def test_pushforward_contract_commutes_on_k4():
    for tree_edge in ("4", "5", "6"):
        moved = pushforward_contract(V_TAU_K4, tree_edge)
        lhs = compute_w(moved).c
        rhs = {key: substitute(poly, tree_edge, 0)
               for key, poly in compute_w(V_TAU_K4).c.items()}
        rhs = {k: p for k, p in rhs.items() if not p.is_zero()}
        assert lhs == rhs


def test_pushforward_contract_requires_tree_edge():
    with pytest.raises(PreconditionError):
        pushforward_contract(V_TAU_K4, "1")
    loop = MultiGraph(["1", "2"], [("1", "1", "1"), ("2", "1", "2"), ("3", "2", "2"),
                                   ("4", "1", "2")])
    ctx = build_cycle_context(loop)
    v = CeresaCocycle(ctx, {})
    with pytest.raises(PreconditionError):
        pushforward_contract(v, "1")  # loop


def test_pushforwards_refuse_non_string_edge_ids():
    """An edge id that is not a str names no edge, as for `MultiGraph.edge`;
    it is not converted, and an unhashable one raises no TypeError."""
    for bad in (4, 2, ["4"]):
        for push in (pushforward_contract, pushforward_subdivide):
            with pytest.raises(graph.GraphError, match="no edge with id"):
                push(V_TAU_K4, bad)


def test_contract_separating_edge_leaves_class():
    # a cocycle supported away from a bridge is untouched by contracting it
    g = MultiGraph(["1", "2", "3", "4", "5"], [
        ("1", "2", "3"), ("2", "3", "1"), ("3", "1", "2"), ("4", "2", "3"),
        ("5", "1", "4"),  # bridge
        ("6", "4", "5"), ("7", "5", "4")])
    ctx = build_cycle_context(g)
    assert "5" in ctx.tree
    v = CeresaCocycle(ctx, {(1, 1, 2): P("x1"), (2, 1, 3): P("x2 - x3")})
    moved = pushforward_contract(v, "5")
    assert moved.b == v.b
    assert compute_w(moved).c == compute_w(v).c


def test_pushforward_subdivide_k4_example():
    moved = pushforward_subdivide(V_TAU_K4, "2")
    w = compute_w(moved)
    assert w.c == {(1, 2, 3): P("-2*x2a*x5 - 2*x2b*x5")}


def test_pushforward_subdivide_commutes():
    rng = random.Random(107)
    for _ in range(20):
        g = random_multigraph(rng, rng.randint(3, 4), max_vertices=4)
        ctx = build_cycle_context(g)
        v = CeresaCocycle(ctx, random_abb_map(rng, ctx, density=0.4))
        f = rng.choice([e.id for e in g.edges])
        moved = pushforward_subdivide(v, f)
        repl = IntPolynomial.variable(f + "a") + IntPolynomial.variable(f + "b")
        expect = {key: substitute(poly, f, repl)
                  for key, poly in compute_w(v).c.items()}
        expect = {k: p for k, p in expect.items() if not p.is_zero()}
        assert compute_w(moved).c == expect
        # at any positive lengths the subdivided curve is the base curve
        # with l_f = l_fa + l_fb: same specialized class, same image lattice
        lengths = {e.id: rng.randint(1, 5) for e in g.edges if e.id != f}
        halves = {f + "a": rng.randint(1, 5), f + "b": rng.randint(1, 5)}
        sub_curve = TropicalCurve(moved.graph, {**lengths, **halves})
        base_curve = TropicalCurve(g, {**lengths, f: sum(halves.values())})
        assert (specialize(compute_w(moved), sub_curve)
                == specialize(compute_w(v), base_curve))
        assert (image_lattice(sub_curve, moved.context)
                == image_lattice(base_curve, ctx))


def test_subdivision_keeps_verdicts_on_random_cocycles():
    """Subdividing one edge keeps the graph-level verdict, and keeps the
    curve-level verdict when the halves' lengths add up to the edge's."""
    rng = random.Random(5)
    trivial = {"graph": 0, "curve": 0}
    for _ in range(60):
        g = random_multigraph(rng, rng.randint(3, 5))
        ctx = build_cycle_context(g)
        v = CeresaCocycle(ctx, random_abb_map(rng, ctx, density=rng.choice([0.1, 0.3])))
        f = rng.choice([e.id for e in g.edges])
        moved = pushforward_subdivide(v, f)
        graph_verdict = is_cz_trivial_graph(g, v).trivial
        assert is_cz_trivial_graph(moved.graph, moved).trivial == graph_verdict
        lengths = {e.id: rng.randint(2, 5) for e in g.edges}
        half = rng.randint(1, lengths[f] - 1)
        halves = {f + "a": half, f + "b": lengths[f] - half}
        sub_lengths = {e: n for e, n in lengths.items() if e != f} | halves
        curve_verdict = is_cz_trivial_curve(TropicalCurve(g, lengths), v).trivial
        assert is_cz_trivial_curve(TropicalCurve(moved.graph, sub_lengths),
                                   moved).trivial == curve_verdict
        trivial["graph"] += graph_verdict
        trivial["curve"] += curve_verdict
    assert 0 < trivial["graph"] < 60 and 0 < trivial["curve"] < 60


def test_decisions_do_no_polynomial_arithmetic(monkeypatch):
    """Once the cocycle is parsed, the class, both verdicts, the
    specialization of Q and the transport along contraction and subdivision
    compute on integer forms, and the reports of the cocycle, the class and
    `qmatrix` print the forms: on pool-g5-1 with either cocycle, no
    IntPolynomial is added, negated, multiplied or built."""
    inputs = Path(__file__).resolve().parent / "golden" / "inputs"
    _, lengths = load_graph_file(str(inputs / "pool-g5-1-curve.txt"))
    cocycles = [CeresaCocycle.from_json_dict(json.loads(
        (inputs / f"pool-g5-1-{kind}.json").read_text(encoding="utf-8")))
        for kind in ("trivial", "random")]
    calls = []
    for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__",
                 "__mul__", "__rmul__"):
        monkeypatch.setattr(IntPolynomial, name,
                            lambda *args, _name=name, _real=getattr(IntPolynomial, name):
                            calls.append(_name) or _real(*args))
    monkeypatch.setattr(IntPolynomial, "__init__",
                        lambda *args, _real=IntPolynomial.__init__:
                        calls.append("__init__") or _real(*args))
    verdicts, moved = [], 0
    run_command(["qmatrix", str(inputs / "pool-g5-1.txt")])
    for v in cocycles:
        v.to_json_dict()
        compute_w(v).to_json_dict()
        curve = TropicalCurve(v.graph, lengths)
        verdicts.append(is_cz_trivial_graph(v.graph, v).trivial)
        verdicts.append(is_cz_trivial_curve(curve, v).trivial)
        specialize_Q(v.context, curve)
        for f in v.context.tree:
            if not v.graph.edge(f).is_loop():
                moved += not compute_w(pushforward_contract(v, f)).is_zero()
        for e in v.graph.edges:
            moved += not compute_w(pushforward_subdivide(v, e.id)).is_zero()
    assert calls == []
    assert verdicts == [True, True, False, False]
    assert moved > 0


def test_pushforward_contract_commutes_random():
    rng = random.Random(109)
    done = 0
    while done < 20:
        g = random_multigraph(rng, rng.randint(3, 4), max_vertices=4)
        ctx = build_cycle_context(g)
        tree_nonloop = [t for t in ctx.tree if not g.edge(t).is_loop()]
        if not tree_nonloop:
            continue
        v = CeresaCocycle(ctx, random_abb_map(rng, ctx, density=0.4))
        f = rng.choice(tree_nonloop)
        moved = pushforward_contract(v, f)
        expect = {key: substitute(poly, f, 0)
                  for key, poly in compute_w(v).c.items()}
        expect = {k: p for k, p in expect.items() if not p.is_zero()}
        assert compute_w(moved).c == expect
        done += 1


def test_subdivide_then_contract_half_round_trips():
    moved = pushforward_subdivide(V_TAU_K4, "5")
    back = pushforward_contract(moved, "5b")
    # the remaining half keeps the subdivided edge's role under the new name
    assert back.context.g == 3
    renamed = {key: substitute(poly, "5", P("x5a"))
               for key, poly in V_TAU_K4.b.items()}
    assert back.b == renamed


def test_transport_when_half_ids_sort_around_another_edge():
    """K4 with edge 6 renamed 2a0: subdividing 2 orders the edges 1, 2a,
    2a0, 2b, 3, 4, 5, so the halves are not adjacent.  Both pushforwards
    and subdivide-then-contract agree with substitution on the
    polynomials, with 2 in the tree and out of it."""
    base = k4_graph()
    graph = MultiGraph(base.vertices, [("2a0" if e.id == "6" else e.id, e.tail, e.head)
                                       for e in base.edges])
    half = P("x2a + x2b")
    rng = random.Random(23)
    for tree in (["4", "5", "2a0"], ["2", "5", "2a0"]):
        ctx = build_cycle_context(graph, tree_hint=tree)
        for _ in range(4):
            v = CeresaCocycle(ctx, random_abb_map(rng, ctx, density=0.6))
            w = compute_w(v).c
            moved = pushforward_subdivide(v, "2")
            assert moved.graph.edge_ids() == ["1", "2a", "2a0", "2b", "3", "4", "5"]
            assert moved.b == _substituted(v.b, "2", half)
            assert compute_w(moved).c == _substituted(w, "2", half)
            contracted = pushforward_contract(v, "2a0")
            assert contracted.b == _substituted(v.b, "2a0", 0)
            assert compute_w(contracted).c == _substituted(w, "2a0", 0)
            back = pushforward_contract(moved, "2b")
            assert back.b == _substituted(v.b, "2", P("x2a"))
            assert compute_w(back).c == _substituted(w, "2", P("x2a"))
            for f in ("2a0",) + (("2a",) if "2" in tree else ()):
                assert (pushforward_contract(moved, f).b
                        == _substituted(moved.b, f, 0))


def _substituted(coeffs, var, replacement):
    out = {key: substitute(poly, var, replacement) for key, poly in coeffs.items()}
    return {key: poly for key, poly in out.items() if not poly.is_zero()}


def test_subdivide_zero_cocycle(k4_ctx):
    v = CeresaCocycle(k4_ctx, {})
    assert pushforward_subdivide(v, "3").is_zero()
    assert pushforward_contract(v, "4").is_zero()


def test_classify_examples(k4, l3, theta):
    vk = classify(k4)
    assert not vk.trivial and vk.witness is not None and vk.witness.ops == ()
    assert classify(theta).trivial
    assert not classify(l3).trivial


def test_classify_two_k4_blocks():
    # two copies of K4 glued at a vertex
    e = [("1", "1", "2"), ("2", "1", "3"), ("3", "1", "4"), ("4", "2", "3"),
         ("5", "2", "4"), ("6", "3", "4"),
         ("7", "1", "5"), ("8", "1", "6"), ("9", "1", "7"), ("10", "5", "6"),
         ("11", "5", "7"), ("12", "6", "7")]
    g = MultiGraph([str(i) for i in range(1, 8)], e)
    verdict = classify(g)
    assert not verdict.trivial
    assert verdict.witness.verify(g)


def test_classify_decides_in_one_block_pass(monkeypatch):
    """A trivial verdict costs one block decomposition of the whole graph,
    not one more per block of genus >= 3."""
    # two banana blocks of genus 3 joined by a bridge, and a loop
    e = [("1", "1", "2"), ("2", "1", "2"), ("3", "1", "2"), ("4", "1", "2"),
         ("5", "2", "3"),
         ("6", "3", "4"), ("7", "3", "4"), ("8", "3", "4"), ("9", "3", "4"),
         ("10", "4", "4")]
    g = MultiGraph([], e)
    assert sorted(genus(b) for b in blocks(g)) == [0, 1, 3, 3]
    calls = []
    real = graph._lowpoint_dfs
    monkeypatch.setattr(graph, "_lowpoint_dfs", lambda h: calls.append(h) or real(h))
    assert classify(g).trivial
    assert calls == [g]


def test_classify_decides_once(monkeypatch):
    """A non-trivial verdict decides G once, in the block pass that names
    the pattern; the witness walk asks the decision only about G's minors."""
    g = MultiGraph([], [("1", "1", "2"), ("2", "2", "3"), ("3", "3", "1"), ("4", "1", "4"),
                        ("5", "2", "4"), ("6", "3", "4"), ("7", "4", "5"), ("8", "5", "5")])
    asked = []
    real = minors._contains
    monkeypatch.setattr(minors, "_contains", lambda h, p: asked.append(h) or real(h, p))
    verdict = classify(g)
    assert not verdict.trivial and verdict.witness.verify(g)
    assert asked and all(h is not g for h in asked)


def test_classify_requires_genus_two():
    loop = MultiGraph(["1"], [("1", "1", "1")])
    with pytest.raises(PreconditionError):
        classify(loop)


def test_subdivision_chain_preserves_graph_verdict():
    rng = random.Random(113)
    for base in (V_TAU_K4, V_TAU_L3):
        v = base
        for _ in range(3):
            f = rng.choice([e.id for e in v.graph.edges])
            v = pushforward_subdivide(v, f)
            algebraic = is_cz_trivial_graph(v.graph, v)
            assert not algebraic.trivial
            assert not classify(v.graph).trivial


def test_specialization_soundness():
    # a graph-level witness specializes to a curve-level witness at any
    # positive lengths: replay the same integer vector through the
    # specialized generators
    rng = random.Random(127)
    trivial_seen = 0
    for _ in range(60):
        g = random_multigraph(rng, 3, max_vertices=4)
        ctx = build_cycle_context(g)
        b = random_abb_map(rng, ctx, density=0.25)
        v = CeresaCocycle(ctx, b)
        verdict = is_cz_trivial_graph(g, v)
        if not verdict.trivial:
            continue
        trivial_seen += 1
        for _ in range(3):
            lengths = {e.id: rng.randint(1, 5) for e in g.edges}
            curve = TropicalCurve(g, lengths)
            assert is_cz_trivial_curve(curve, v).trivial
    assert trivial_seen >= 1  # the zero cocycle arises, and usually more


def test_cocycle_json_round_trip():
    for v in (V_TAU_K4, V_TAU_L3):
        data = json.loads(json.dumps(v.to_json_dict()))
        back = CeresaCocycle.from_json_dict(data)
        assert back.b == v.b
        assert back.context.graph == v.context.graph
        assert back.context.tree == v.context.tree
        assert compute_w(back).c == compute_w(v).c


def _greedy_tree(graph, order):
    parent = {v: v for v in graph.vertices}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    tree = []
    for eid in order:
        e = graph.edge(eid)
        if e.is_loop():
            continue
        a, b = find(e.tail), find(e.head)
        if a != b:
            parent[a] = b
            tree.append(eid)
    return tree


def _wedge_cubed_transform(B, g):
    """Coordinate change on triple wedges induced by beta'_j = sum_i B[i][j] beta_i."""
    from itertools import combinations
    triples = list(combinations(range(g), 3))

    def minor(rows, cols):
        (a, b, c) = rows
        (x, y, z) = cols
        return (B[a][x] * (B[b][y] * B[c][z] - B[b][z] * B[c][y])
                - B[a][y] * (B[b][x] * B[c][z] - B[b][z] * B[c][x])
                + B[a][z] * (B[b][x] * B[c][y] - B[b][y] * B[c][x]))

    def apply(vec):
        out = [0] * len(triples)
        for col_idx, cols in enumerate(triples):
            c = vec[col_idx]
            if not c:
                continue
            for row_idx, rows in enumerate(triples):
                out[row_idx] += c * minor(rows, cols)
        return out

    return apply


def test_image_lattice_is_intrinsic_across_spanning_trees():
    # different spanning trees give congruent coordinates; the image lattice
    # transported through the wedge-cubed basis change must coincide, so
    # membership verdicts cannot depend on the tree choice
    from czgraph.intlin import hnf_basis

    rng = random.Random(137)
    done = 0
    while done < 10:
        g = random_multigraph(rng, rng.randint(3, 4), max_vertices=4)
        ctx1 = build_cycle_context(g)
        ids = [e.id for e in g.edges]
        rng.shuffle(ids)
        tree = _greedy_tree(g, ids)
        ctx2 = build_cycle_context(g, tree_hint=tree)
        lengths = {e.id: rng.randint(1, 4) for e in g.edges}
        curve = TropicalCurve(g, lengths)
        lat1 = image_lattice(curve, ctx1)
        lat2 = image_lattice(curve, ctx2)
        n = ctx1.g
        B = [[0] * n for _ in range(n)]
        for j, eid in enumerate(ctx2.basis_edges()):
            signs = ctx1.beta_class(eid)
            for i in range(n):
                B[i][j] = signs[i]
        apply = _wedge_cubed_transform(B, n)
        moved = [apply(row) for row in lat2]
        assert hnf_basis(moved) == lat1
        done += 1


def test_verdict_json_is_deterministic():
    a = is_cz_trivial_graph(k4_graph(), V_TAU_K4).to_json_dict()
    b = is_cz_trivial_graph(k4_graph(), V_TAU_K4).to_json_dict()
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
    assert a["replay_hash"]
