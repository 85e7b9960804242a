"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Each test prints one PASS/FAIL line.  Scope note, stated here as required:
the forbidden-minor classifier is verified exhaustively on small stable
graphs, while the algebraic verdict is cross-checked only where a cocycle
exists (the two pinned base graphs and their subdivision family), because
cocycles for arbitrary graphs are input data to this toolkit, not computed
by it.

Criterion 8 checks curve-level *consistency* under transport, not
non-triviality: a curve on a subdivided graph must give the same verdict,
image lattice and specialized class as its base curve with each edge's
length the sum of its pieces.  The method does not promise that the
specialized class is non-trivial at every length.
"""

import random
from collections import Counter

import pytest

from czgraph.ceresa import (V_TAU_K4, V_TAU_L3, CeresaCocycle, classify,
                            compute_w, image_lattice, is_cz_trivial_curve,
                            is_cz_trivial_graph, k4_context, k4_graph,
                            l3_context, l3_graph, pushforward_contract,
                            pushforward_subdivide, specialize)
from czgraph.extalg import (aab_keys, aab_to_l_element, delta_G_H,
                            delta_G_minus_I_L, image1_coeffs, image2_coeffs,
                            triple_indices, HElement)
from czgraph.graph import (TropicalCurve, build_cycle_context, genus,
                           specialize_Q)
from czgraph.intlin import hnf_basis, lattice_membership
from czgraph.minors import enumerate_graphs, is_hyperelliptic_type, single_step_minors
from czgraph.polyring import IntPolynomial
from czgraph.polyring import parse_polynomial as P

from conftest import (random_aab_map, random_abb_map, random_linear_form,
                      random_multigraph)
from ceresa_oracles import solve_psi
from extalg_oracles import abb_to_l_element, bbb_coeffs, delta_minus_I_sum_check
from poly_oracles import evaluate, substitute


def _report(n, name, checks):
    failed = [(label, detail) for label, ok, detail in checks if not ok]
    status = "PASS" if not failed else "FAIL"
    print(f"ACCEPTANCE {n} ({name}): {status}")
    if failed:
        lines = "\n".join(f"  - {label}: {detail}" for label, detail in failed)
        passed = [label for label, ok, _ in checks if ok]
        pytest.fail(
            f"criterion {n} ({name}) failed sub-checks:\n{lines}\n"
            f"  passing sub-checks: {passed}",
            pytrace=False)


def ones(graph):
    return TropicalCurve(graph, {e.id: 1 for e in graph.edges})


K4_LENGTH2 = {"1": 2, "2": 1, "3": 1, "4": 1, "5": 1, "6": 1}


def test_criterion_1_q_matrix_fixtures():
    checks = []
    qk = [[str(e) for e in row] for row in k4_context().Q]
    checks.append(("K4 matrix", qk == [["x1 + x5 + x6", "-x6", "-x5"],
                                       ["-x6", "x2 + x4 + x6", "-x4"],
                                       ["-x5", "-x4", "x3 + x4 + x5"]], qk))
    ql = [[str(e) for e in row] for row in l3_context().Q]
    checks.append(("L3 matrix", ql == [["x1 + x6", "0", "x6", "x6"],
                                       ["0", "x2 + x5", "x5", "x5"],
                                       ["x6", "x5", "x3 + x5 + x6", "x5 + x6"],
                                       ["x6", "x5", "x5 + x6", "x4 + x5 + x6"]], ql))
    _report(1, "Q-matrix fixtures", checks)


def test_criterion_2_cocycle_to_class():
    checks = []
    wk = compute_w(V_TAU_K4).c
    checks.append(("K4 class", wk == {(1, 2, 3): P("-2*x2*x5")}, wk))
    wl = compute_w(V_TAU_L3).c
    checks.append(("L3 class",
                   wl == {(1, 2, 3): P("-2*x5*x6"), (1, 2, 4): P("-2*x5*x6")}, wl))
    _report(2, "cocycle-to-class", checks)


def _direct_image_lattice(curve, ctx):
    """Image lattice from applying delta_G - I twice to each unit
    a_i^a_j^b_k as an exterior-power element, without image2_coeffs."""
    triples = triple_indices(ctx.g)
    rows = []
    for key in aab_keys(ctx.g):
        el = aab_to_l_element(ctx.g, {key: 1})
        img = bbb_coeffs(delta_G_minus_I_L(ctx, delta_G_minus_I_L(ctx, el)))
        rows.append([evaluate(img[tr], curve.lengths) if tr in img else 0
                     for tr in triples])
    return hnf_basis(rows)


def test_criterion_3_k4_curve_verdicts():
    # The pinned magnitudes 4 and 1 are the gcd of the 2x2 minors of Q at
    # all-ones lengths and at x1 = 2.  The lattice is twice that: the squared
    # twist map always carries a factor 2, since
    #   (delta - I)^2 (a_i^a_j^b_k) = 2 * Qb_i ^ Qb_j ^ b_k
    # (the two cross terms Qb_i^a_j^b_k and a_i^Qb_j^b_k each map to
    # Qb_i^Qb_j^b_k, and Qb_i^Qb_j^b_k maps to 0).  The same lattices are
    # also derived from direct exterior-power application.
    checks = []
    lat_ones = image_lattice(ones(k4_graph()), k4_context())
    checks.append(("all-ones lattice HNF = (2*4)", lat_ones == [[2 * 4]],
                   lat_ones))
    v_ones = is_cz_trivial_curve(ones(k4_graph()), V_TAU_K4)
    checks.append(("all-ones verdict not trivial", not v_ones.trivial, v_ones))
    two = TropicalCurve(k4_graph(), K4_LENGTH2)
    lat_two = image_lattice(two, k4_context())
    checks.append(("length-2 lattice = 2*Z", lat_two == [[2 * 1]], lat_two))
    v_two = is_cz_trivial_curve(two, V_TAU_K4)
    checks.append(("length-2 verdict trivial", v_two.trivial, v_two))
    direct = (_direct_image_lattice(ones(k4_graph()), k4_context()),
              _direct_image_lattice(two, k4_context()))
    checks.append(("direct (delta - I)^2 oracle gives (2*4) and 2*Z",
                   direct == ([[2 * 4]], [[2 * 1]]), direct))
    _report(3, "K4 curve verdicts", checks)


def test_criterion_4_l3_curve_verdict():
    checks = []
    listed = [[2, 2, 0, 2], [0, 4, 0, 0], [0, 0, 2, 2], [0, 0, 0, 4]]
    lat = image_lattice(ones(l3_graph()), l3_context())
    checks.append(("lattice HNF equals listed generators' HNF",
                   lat == hnf_basis(listed), lat))
    member, _ = lattice_membership(listed, [-2, -2, 0, 0])
    checks.append(("membership of (-2,-2,0,0) fails", not member, member))
    verdict = is_cz_trivial_curve(ones(l3_graph()), V_TAU_L3)
    checks.append(("verdict not trivial", not verdict.trivial, verdict))
    _report(4, "L3 curve verdict", checks)


def test_criterion_5_graph_level_verdicts():
    checks = []
    vk = is_cz_trivial_graph(k4_graph(), V_TAU_K4)
    checks.append(("K4 infeasible", not vk.trivial, vk.certificate))
    vl = is_cz_trivial_graph(l3_graph(), V_TAU_L3)
    checks.append(("L3 infeasible", not vl.trivial, vl.certificate))
    vk_psi, _, _ = solve_psi(V_TAU_K4.context, compute_w(V_TAU_K4))
    vl_psi, _, _ = solve_psi(V_TAU_L3.context, compute_w(V_TAU_L3))
    checks.append(("secondary mode agrees",
                   vk_psi == vk.trivial and vl_psi == vl.trivial,
                   (vk_psi, vl_psi)))
    _report(5, "graph-level Diophantine verdicts", checks)


@pytest.fixture(scope="module")
def stable_graphs_8():
    return list(enumerate_graphs(8))


def test_enumeration_class_counts(stable_graphs_8):
    # isomorphism classes of connected stable graphs with at most 6 / 7 / 8
    # edges; a canonical form that merged or split classes would move these
    counts = [sum(len(g.edges) <= m for g in stable_graphs_8) for m in (6, 7, 8)]
    assert counts == [58, 157, 458]


def test_criterion_6_classifier_and_minors(stable_graphs_8):
    checks = []
    witness_failures = []
    tautology_failures = []
    for g in stable_graphs_8:
        verdict = classify(g)
        if verdict.trivial != is_hyperelliptic_type(g):
            tautology_failures.append(repr(g))
        if not verdict.trivial:
            if verdict.witness is None or not verdict.witness.verify(g):
                witness_failures.append(repr(g))
    checks.append(("classifier matches minor test on all graphs",
                   not tautology_failures, tautology_failures[:5]))
    checks.append((f"witness validity over {len(stable_graphs_8)} graphs",
                   not witness_failures, witness_failures[:5]))

    rng = random.Random(20260810)
    het = [g for g in stable_graphs_8 if is_hyperelliptic_type(g)]
    closure_violations = []
    for _ in range(500):
        g = rng.choice(het)
        steps = list(single_step_minors(g))
        if not steps:
            continue
        op, eid, child = rng.choice(steps)
        if not is_hyperelliptic_type(child):
            closure_violations.append((repr(g), op, eid))
    checks.append(("500 single-step minors preserve hyperelliptic type",
                   not closure_violations, closure_violations[:5]))
    _report(6, "classifier and minor witnesses", checks)


def test_criterion_7_oracle_equivalence():
    rng = random.Random(731)
    violations = []
    graphs_done = 0
    while graphs_done < 200:
        target_genus = rng.randint(3, 5)
        g = random_multigraph(rng, target_genus, max_vertices=5)
        ctx = build_cycle_context(g)
        edge_ids = [e.id for e in g.edges]
        n = ctx.g
        graphs_done += 1

        # closed forms against direct exterior-power application
        b = random_abb_map(rng, ctx, density=0.3)
        if bbb_coeffs(delta_G_minus_I_L(ctx, abb_to_l_element(n, b))) != \
                image1_coeffs(ctx, b):
            violations.append(("image1", repr(g)))
        a = random_aab_map(rng, ctx, density=0.3)
        el = aab_to_l_element(n, a)
        if bbb_coeffs(delta_G_minus_I_L(ctx, delta_G_minus_I_L(ctx, el))) != \
                image2_coeffs(ctx, a):
            violations.append(("image2", repr(g)))

        # twist product splits into a sum of single-twist differences
        h = HElement(n, [random_linear_form(rng, edge_ids) for _ in range(n)],
                     [random_linear_form(rng, edge_ids) for _ in range(n)])
        exponents = {e: rng.randint(-2, 2) for e in edge_ids if rng.random() < 0.6}
        if not delta_minus_I_sum_check(ctx, exponents, h).is_zero():
            violations.append(("prod2sum", repr(g)))

        # unipotency on H
        once = delta_G_H(ctx, h) - h
        if not (delta_G_H(ctx, once) - once).is_zero():
            violations.append(("unipotency", repr(g)))

        # filtration shift on a random mixed element
        x = abb_to_l_element(n, b) + aab_to_l_element(n, a)
        level = x.filtration_level()
        if not delta_G_minus_I_L(ctx, x).in_filtration(level + 1):
            violations.append(("filtration", repr(g)))

        # commutation squares for contraction and subdivision
        v = CeresaCocycle(ctx, b)
        tree_nonloop = [t for t in ctx.tree if not g.edge(t).is_loop()]
        if tree_nonloop:
            f = rng.choice(tree_nonloop)
            moved = pushforward_contract(v, f)
            expect = {k: substitute(p, f, 0) for k, p in compute_w(v).c.items()}
            expect = {k: p for k, p in expect.items() if not p.is_zero()}
            if compute_w(moved).c != expect:
                violations.append(("contraction square", repr(g)))
        f = rng.choice(edge_ids)
        moved = pushforward_subdivide(v, f)
        repl = IntPolynomial.variable(f + "a") + IntPolynomial.variable(f + "b")
        expect = {k: substitute(p, f, repl) for k, p in compute_w(v).c.items()}
        expect = {k: p for k, p in expect.items() if not p.is_zero()}
        if compute_w(moved).c != expect:
            violations.append(("subdivision square", repr(g)))

    _report(7, "oracle equivalence over 200 random graphs",
            [("zero violations", not violations, violations[:8])])


def test_criterion_8_transport_consistency():
    # Subdividing an edge into two unit halves gives the same tropical curve
    # as that edge at length 2, so an all-ones curve on a subdivided graph is
    # checked against its base curve at piece-count lengths, not asserted to
    # be non-trivial (criterion 3 pins K4 with x1 = 2 as trivial).
    rng = random.Random(808)
    graph_failures = []
    curve_failures = []
    chains = 0
    for base in (V_TAU_K4, V_TAU_L3):
        for _ in range(10):
            v = base
            origin = {e.id: e.id for e in base.graph.edges}
            for _ in range(rng.randint(1, 3)):
                f = rng.choice([e.id for e in v.graph.edges])
                v = pushforward_subdivide(v, f)
                origin[f + "a"] = origin[f + "b"] = origin.pop(f)
            chains += 1
            if is_cz_trivial_graph(v.graph, v).trivial:
                graph_failures.append(repr(v.graph))
            if classify(v.graph).trivial:
                graph_failures.append("classifier: " + repr(v.graph))
            curve = ones(v.graph)
            pieces = Counter(origin.values())
            base_curve = TropicalCurve(base.graph, dict(pieces))
            got = (is_cz_trivial_curve(curve, v).to_json_dict(),
                   image_lattice(curve, v.context),
                   specialize(compute_w(v), curve))
            want = (is_cz_trivial_curve(base_curve, base).to_json_dict(),
                    image_lattice(base_curve, base.context),
                    specialize(compute_w(base), base_curve))
            if got != want:
                curve_failures.append(
                    f"{v.graph!r} vs base lengths {dict(sorted(pieces.items()))}: "
                    f"(verdict, lattice, target) {got} != {want}")
    checks = [
        (f"{chains} chains generated (>= 20)", chains >= 20, chains),
        ("graph-level verdicts all not trivial", not graph_failures,
         graph_failures[:4]),
        ("all-ones curve on each chain matches its base curve at piece-count "
         "lengths (verdict, lattice HNF, target)", not curve_failures,
         f"{len(curve_failures)}/{chains} chains differ, e.g. "
         + "; ".join(curve_failures[:2])),
    ]
    _report(8, "transport consistency", checks)
