import random
from itertools import permutations

import pytest

from czgraph.extalg import (HElement, LElement, aab_keys, aab_to_l_element,
                            abb_keys, alpha, beta, delta_G_H, delta_G_L,
                            delta_G_minus_I_L, image1_coeffs, image2_coeffs,
                            label_key, pairing, sort_triple, triple_indices,
                            wedge3)
from czgraph.graph import build_cycle_context
from czgraph.polyring import IntPolynomial
from czgraph.polyring import parse_polynomial as P

from conftest import (random_aab_map, random_abb_map, random_linear_form,
                      random_multigraph)
from extalg_oracles import (abb_to_l_element, bbb_coeffs, delta_ell_H,
                            delta_minus_I_sum_check, parse_l_element, psi_G,
                            sum_delta_e_minus_I_L, wedge_with_omega)


def test_pairing_values():
    assert pairing(alpha(1), beta(1)) == 1
    assert pairing(alpha(1), alpha(2)) == 0
    assert pairing(beta(1), alpha(1)) == -1
    assert pairing(beta(2), beta(2)) == 0
    assert pairing(alpha(1), beta(2)) == 0


def test_sort_triple_signs():
    # brute-force sign oracle: count inversions of the label keys
    labels = [alpha(1), beta(1), beta(2)]
    for perm in permutations(labels):
        triple, sign = sort_triple(perm)
        keys = [label_key(l) for l in perm]
        inversions = sum(1 for i in range(3) for j in range(i + 1, 3)
                         if keys[i] > keys[j])
        assert triple == tuple(labels)
        assert sign == (-1) ** inversions
    assert sort_triple([alpha(1), alpha(1), beta(2)]) == (None, 0)


def test_delta_e1_on_alpha1(k4_ctx):
    h = HElement.basis(3, alpha(1))
    out = delta_ell_H(k4_ctx, "1", h)
    assert out.coefficient(alpha(1)) == IntPolynomial.one()
    assert out.coefficient(beta(1)) == P("x1")
    assert out.coefficient(beta(2)).is_zero()


def test_delta_fixes_beta(k4_ctx):
    for eid in ("1", "4", "6"):
        for j in (1, 2, 3):
            h = HElement.basis(3, beta(j))
            assert delta_ell_H(k4_ctx, eid, h) == h


def test_delta_inverse_round_trip(k4_ctx):
    rng = random.Random(13)
    edge_ids = [e.id for e in k4_ctx.graph.edges]
    for _ in range(25):
        h = HElement(3,
                     [random_linear_form(rng, edge_ids) for _ in range(3)],
                     [random_linear_form(rng, edge_ids) for _ in range(3)])
        e = rng.choice(edge_ids)
        assert delta_ell_H(k4_ctx, e, delta_ell_H(k4_ctx, e, h, inverse=True)) == h


def test_delta_G_matches_q_column(k4_ctx):
    out = delta_G_H(k4_ctx, HElement.basis(3, alpha(1)))
    assert out.coefficient(alpha(1)) == IntPolynomial.one()
    assert out.coefficient(beta(1)) == P("x1 + x5 + x6")
    assert out.coefficient(beta(2)) == P("-x6")
    assert out.coefficient(beta(3)) == P("-x5")
    for j in (1, 2, 3):
        b = HElement.basis(3, beta(j))
        assert delta_G_H(k4_ctx, b) == b


def test_delta_G_is_product_of_edge_twists(k4_ctx, l3_ctx):
    rng = random.Random(19)
    for ctx in (k4_ctx, l3_ctx):
        edge_ids = [e.id for e in ctx.graph.edges]
        for _ in range(10):
            h = HElement(ctx.g,
                         [random_linear_form(rng, edge_ids) for _ in range(ctx.g)],
                         [random_linear_form(rng, edge_ids) for _ in range(ctx.g)])
            acc = h
            for eid in edge_ids:
                acc = delta_ell_H(ctx, eid, acc)
            assert acc == delta_G_H(ctx, h)


def test_unipotency_on_random_graphs():
    rng = random.Random(37)
    for _ in range(30):
        g = random_multigraph(rng, rng.randint(1, 4))
        ctx = build_cycle_context(g)
        edge_ids = [e.id for e in g.edges]
        h = HElement(ctx.g,
                     [random_linear_form(rng, edge_ids) for _ in range(ctx.g)],
                     [random_linear_form(rng, edge_ids) for _ in range(ctx.g)])
        once = delta_G_H(ctx, h) - h
        twice = delta_G_H(ctx, once) - once
        assert twice.is_zero()
        # the displacement lands in the Lagrangian
        assert once.in_y()


def test_prod2sum_identity(k4_ctx):
    h = HElement.basis(3, alpha(1))
    assert delta_minus_I_sum_check(
        k4_ctx, {e.id: 1 for e in k4_ctx.graph.edges}, h).is_zero()
    assert delta_minus_I_sum_check(
        k4_ctx, {"1": -2, "4": 3, "6": -1}, h).is_zero()
    assert delta_minus_I_sum_check(k4_ctx, {}, h).is_zero()


def test_prod2sum_on_random_data():
    rng = random.Random(43)
    for _ in range(25):
        g = random_multigraph(rng, rng.randint(1, 4))
        ctx = build_cycle_context(g)
        edge_ids = [e.id for e in g.edges]
        h = HElement(ctx.g,
                     [random_linear_form(rng, edge_ids) for _ in range(ctx.g)],
                     [random_linear_form(rng, edge_ids) for _ in range(ctx.g)])
        exponents = {e: rng.randint(-2, 2) for e in edge_ids if rng.random() < 0.7}
        assert delta_minus_I_sum_check(ctx, exponents, h).is_zero()


def test_wedge_with_omega_genus_two():
    a1 = wedge_with_omega(HElement.basis(2, alpha(1)))
    assert a1 == LElement.wedge_basis(2, (alpha(1), alpha(2), beta(2)))
    b1 = wedge_with_omega(HElement.basis(2, beta(1)))
    assert b1 == LElement.wedge_basis(2, (alpha(2), beta(1), beta(2)), -1)
    assert wedge_with_omega(HElement(2)).is_zero()


def test_delta_formulas_on_simple_wedges():
    rng = random.Random(53)
    for _ in range(20):
        g = random_multigraph(rng, rng.randint(3, 5))
        ctx = build_cycle_context(g)
        n = ctx.g
        i, j = sorted(rng.sample(range(1, n + 1), 2))
        k = rng.randint(1, n)

        def Qa(idx):
            return HElement(n, None, [ctx.Q[r][idx - 1] for r in range(n)])

        ai, aj = HElement.basis(n, alpha(i)), HElement.basis(n, alpha(j))
        bk = HElement.basis(n, beta(k))
        # (delta - I) of a^b^b keeps only the twisted first factor
        x = wedge3(ai, HElement.basis(n, beta(i % n + 1)), bk)
        lhs = delta_G_minus_I_L(ctx, x)
        rhs = wedge3(Qa(i), HElement.basis(n, beta(i % n + 1)), bk)
        assert lhs == rhs
        # b^b^b is fixed
        bbb = wedge3(HElement.basis(n, beta(i)), HElement.basis(n, beta(j)), bk)
        assert delta_G_minus_I_L(ctx, bbb).is_zero()
        # squared action on a^a^b doubles the twice-twisted wedge
        aab = wedge3(ai, aj, bk)
        twice = delta_G_minus_I_L(ctx, delta_G_minus_I_L(ctx, aab))
        expect = wedge3(Qa(i), Qa(j), bk)
        assert twice == expect + expect


def test_image1_matches_direct_application():
    rng = random.Random(59)
    for _ in range(40):
        g = random_multigraph(rng, rng.randint(3, 5))
        ctx = build_cycle_context(g)
        b = random_abb_map(rng, ctx)
        closed = image1_coeffs(ctx, b)
        direct = delta_G_minus_I_L(ctx, abb_to_l_element(ctx.g, b))
        assert bbb_coeffs(direct) == closed
        assert direct.graded_part(3) == direct  # lands in the top stage


def test_image2_matches_double_application_and_is_even():
    rng = random.Random(67)
    for _ in range(40):
        g = random_multigraph(rng, rng.randint(3, 5))
        ctx = build_cycle_context(g)
        a = random_aab_map(rng, ctx)
        closed = image2_coeffs(ctx, a)
        el = aab_to_l_element(ctx.g, a)
        direct = delta_G_minus_I_L(ctx, delta_G_minus_I_L(ctx, el))
        assert bbb_coeffs(direct) == closed
        for poly in closed.values():
            assert all(c % 2 == 0 for c in poly.terms.values())


def test_image_maps_reject_bad_indices(k4_ctx):
    with pytest.raises(Exception):
        image1_coeffs(k4_ctx, {(1, 2, 1): P("x1")})  # needs j < k
    with pytest.raises(Exception):
        image2_coeffs(k4_ctx, {(2, 1, 1): 1})  # needs i < j
    with pytest.raises(Exception):
        image2_coeffs(k4_ctx, {(1, 2, 7): 1})


def test_psi_case_formulas(k4_ctx):
    ctx = k4_ctx
    assert psi_G(ctx, LElement.wedge_basis(3, (beta(1), beta(2), beta(3)))).is_zero()
    abb = LElement.wedge_basis(3, (alpha(1), beta(2), beta(3)))
    assert psi_G(ctx, abb).is_zero()
    aab = LElement.wedge_basis(3, (alpha(1), alpha(2), beta(3)))
    twice = delta_G_minus_I_L(ctx, delta_G_minus_I_L(ctx, aab))
    assert psi_G(ctx, aab) == twice
    # on a^a^a the top-stage part carries the triple product three times over
    aaa = LElement.wedge_basis(3, (alpha(1), alpha(2), alpha(3)))
    def Qa(idx):
        return HElement(3, None, [ctx.Q[r][idx - 1] for r in range(3)])
    top = psi_G(ctx, aaa).graded_part(3)
    cube = wedge3(Qa(1), Qa(2), Qa(3))
    assert top == cube.scale(3)


def test_filtration_shift():
    rng = random.Random(71)
    for _ in range(25):
        g = random_multigraph(rng, rng.randint(3, 5))
        ctx = build_cycle_context(g)
        n = ctx.g
        edge_ids = [e.id for e in g.edges]
        for q in (0, 1, 2, 3):
            x = LElement.zero(n)
            for _ in range(3):
                labs = ([beta(rng.randint(1, n)) for _ in range(q)]
                        + [alpha(rng.randint(1, n)) for _ in range(3 - q)])
                x = x + LElement.wedge_basis(n, labs,
                                             random_linear_form(rng, edge_ids))
            if x.is_zero():
                continue
            assert x.in_filtration(q)
            assert delta_G_minus_I_L(ctx, x).in_filtration(q + 1)


def test_h_image_is_preserved():
    # (delta - I)(h ^ omega) equals ((delta - I)h) ^ omega on the nose for
    # these unipotent twists, so the correction has at least two Y labels
    rng = random.Random(73)
    for _ in range(20):
        g = random_multigraph(rng, rng.randint(2, 5))
        ctx = build_cycle_context(g)
        n = ctx.g
        edge_ids = [e.id for e in g.edges]
        h = HElement(n,
                     [random_linear_form(rng, edge_ids) for _ in range(n)],
                     [random_linear_form(rng, edge_ids) for _ in range(n)])
        lhs = delta_G_minus_I_L(ctx, wedge_with_omega(h))
        rhs = wedge_with_omega(delta_G_H(ctx, h) - h)
        assert (lhs - rhs).in_filtration(2)
        assert lhs == rhs


def test_graded_additivity_on_aab():
    # on wedges with a single Y label, the full twist and the sum of edge
    # twists differ only in higher filtration
    rng = random.Random(79)
    for _ in range(20):
        g = random_multigraph(rng, rng.randint(3, 4))
        ctx = build_cycle_context(g)
        n = ctx.g
        a = random_aab_map(rng, ctx)
        x = aab_to_l_element(n, a)
        diff = delta_G_minus_I_L(ctx, x) - sum_delta_e_minus_I_L(ctx, x)
        assert diff.in_filtration(2)


def test_l_element_text_round_trip(k4_ctx):
    rng = random.Random(83)
    edge_ids = [e.id for e in k4_ctx.graph.edges]
    for _ in range(15):
        x = LElement.zero(3)
        for _ in range(rng.randint(0, 4)):
            labs = rng.sample([alpha(1), alpha(2), alpha(3),
                               beta(1), beta(2), beta(3)], 3)
            x = x + LElement.wedge_basis(3, labs, random_linear_form(rng, edge_ids))
        assert parse_l_element(str(x), 3) == x
