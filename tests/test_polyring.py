import pytest
from hypothesis import given, settings, strategies as st

from czgraph.polyring import (IntPolynomial, PolynomialError, form_text,
                              from_form, idkey, parse_polynomial, to_form)

from poly_oracles import MissingVariableError, evaluate, substitute

x = IntPolynomial.variable


def test_add_cancellation():
    assert (x("1") + x("5")) + (x("6") - x("5")) == x("1") + x("6")


def test_add_identity():
    p = x("1") * x("2") - 3 * x("4")
    assert p + IntPolynomial.zero() == p


def test_add_merges_coefficients():
    assert x("2") + x("2") == IntPolynomial.variable("2", coeff=2)


def test_mul_distributes_over_monomial():
    lhs = (x("1") + x("5") + x("6")) * x("2")
    assert lhs == x("1") * x("2") + x("2") * x("5") + x("2") * x("6")


def test_mul_identity():
    p = 2 * x("5") * x("6") - x("3")
    assert p * IntPolynomial.one() == p


def test_mul_variables():
    assert str(x("5") * x("6")) == "x5*x6"


def test_eval_all_ones():
    p = x("1") + x("5") + x("6")
    assert evaluate(p, {"1": 1, "5": 1, "6": 1}) == 3


def test_eval_quadratic_term():
    p = -2 * x("2") * x("5")
    assert evaluate(p, {"2": 1, "5": 1}) == -2
    assert evaluate(p, {"2": 3, "5": 2}) == -12


def test_eval_zero_polynomial():
    assert evaluate(IntPolynomial.zero(), {}) == 0


def test_eval_missing_variable():
    with pytest.raises(MissingVariableError):
        evaluate(x("1") + x("2"), {"1": 1})


def test_substitute_kills_variable():
    p = x("f") * x("2") + x("3")
    assert substitute(p, "f", 0) == x("3")


def test_substitute_subdivision():
    repl = x("e1") + x("e2")
    assert substitute(x("f"), "f", repl) == repl


def test_substitute_absent_variable():
    p = x("1") + 2 * x("2")
    assert substitute(p, "9", x("1") * x("1")) == p


def test_substitute_respects_exponents():
    p = IntPolynomial.variable("f", exp=2)
    out = substitute(p, "f", x("a") + x("b"))
    assert out == x("a") * x("a") + 2 * x("a") * x("b") + x("b") * x("b")


def test_render_ordering_is_deterministic():
    p = x("10") + x("2") - x("2") * x("5")
    assert str(p) == "x2 - x2*x5 + x10"


def test_parse_round_trip():
    p = x("1") * x("2") + 2 * x("5") * x("6") - x("3")
    assert parse_polynomial(str(p)) == p
    assert parse_polynomial("x1*x2 + 2*x5*x6 - x3") == p


def test_parse_exponents_and_constants():
    assert parse_polynomial("x5^2 - 4") == x("5") * x("5") - IntPolynomial.constant(4)
    assert parse_polynomial("0") == IntPolynomial.zero()


def test_parse_rejects_garbage():
    for bad in ("", "x", "1 +", "x1**2", "y3", "\u0663*x1", "x1^\u0663", "\u00b2*x1",
                "1_0*x1", "x1^1_0"):
        with pytest.raises(PolynomialError):
            parse_polynomial(bad)


def test_parse_refuses_exponents_of_three_digits():
    """An exponent has at most two digits, so parsing x1^N never builds N
    names: memory stays linear in the text."""
    assert parse_polynomial("x1^99") == IntPolynomial.variable("1", exp=99)
    for bad in ("x1^100", "x1^099", "2*x1^100*x2"):
        with pytest.raises(PolynomialError, match="bad factor 'x1\\^"):
            parse_polynomial(bad)


def test_monomial_rejects_negative_exponent():
    with pytest.raises(PolynomialError):
        IntPolynomial.variable("1", exp=-1)


def test_monomial_keys_are_canonical():
    """A term's key is its names sorted by `idkey`, whatever order they
    come in; a bare string is refused, since sorting would split it."""
    assert IntPolynomial({("2", "1"): 1}) == IntPolynomial({("1", "2"): 1})
    assert IntPolynomial({("10", "2", "2a", "2"): 3}).terms == {("2", "2", "2a", "10"): 3}
    with pytest.raises(TypeError):
        IntPolynomial({"12": 1})


def test_idkey_natural_order():
    ids = ["10", "2", "2a", "1", "2b"]
    assert sorted(ids, key=idkey) == ["1", "2", "2a", "2b", "10"]


def test_idkey_is_total_on_superscript_digits():
    """"²" is `isdigit` but not a decimal digit: `\\d` does not match it and
    `int` refuses it, so it sorts as text instead of raising."""
    ids = ["²", "1²", "0²0", "1", "2"]
    keys = [idkey(i) for i in ids]
    assert len(set(keys)) == len(ids)
    assert sorted(ids, key=idkey) == ["0²0", "1", "1²", "2", "²"]
    assert sorted(reversed(ids), key=idkey) == sorted(ids, key=idkey)


# -- property tests ----------------------------------------------------------

_vars = st.sampled_from(["1", "2", "3", "4", "5"])


@st.composite
def polys(draw, max_terms=4):
    p = IntPolynomial.zero()
    for _ in range(draw(st.integers(0, max_terms))):
        coeff = draw(st.integers(-5, 5))
        exps = {}
        for _ in range(draw(st.integers(0, 2))):
            exps[draw(_vars)] = draw(st.integers(1, 2))
        p = p + IntPolynomial({tuple(v for v, e in exps.items() for _ in range(e)): coeff})
    return p


@settings(max_examples=60, deadline=None)
@given(polys(), polys(), polys())
def test_ring_axioms(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) + r == p + (q + r)
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r


@settings(max_examples=60, deadline=None)
@given(polys(), polys())
def test_parse_inverts_render(p, q):
    s = p * q + p
    assert parse_polynomial(str(s)) == s


@settings(max_examples=60, deadline=None)
@given(polys(), st.sampled_from(["1", "2", "3"]),
       st.dictionaries(_vars, st.integers(-4, 4), min_size=5, max_size=5))
def test_eval_compose_substitute(p, var, assignment):
    assignment = {v: assignment.get(v, 1) for v in ["1", "2", "3", "4", "5"]}
    replacement = IntPolynomial.variable("4") + IntPolynomial.constant(2)
    composed = dict(assignment)
    composed[var] = evaluate(replacement, assignment)
    assert evaluate(substitute(p, var, replacement), assignment) == evaluate(p, composed)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(_vars, st.integers(-3, 3)), min_size=1, max_size=3),
       st.lists(st.tuples(_vars, st.integers(-3, 3)), min_size=1, max_size=3))
def test_products_of_linear_forms_are_homogeneous(ts1, ts2):
    f = IntPolynomial.zero()
    g = IntPolynomial.zero()
    for v, c in ts1:
        f = f + IntPolynomial.variable(v, c)
    for v, c in ts2:
        g = g + IntPolynomial.variable(v, c)
    pos = {v: n for n, v in enumerate(["1", "2", "3", "4", "5"])}
    assert {len(m) for m in to_form(f, pos)} <= {1}
    prod = f * g
    assert {len(m) for m in to_form(prod, pos)} <= {2}


_IDS = ["1", "2", "2a", "10", "b_1"]


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(st.lists(st.integers(0, len(_IDS) - 1), max_size=3)
                       .map(lambda ps: tuple(sorted(ps))),
                       st.integers(-20, 20).filter(bool), max_size=6))
def test_form_text_renders_and_parses(form):
    """`form_text` prints a form over ids in `idkey` order exactly as the
    polynomial prints, and the text parses back to that polynomial."""
    assert sorted(_IDS, key=idkey) == _IDS
    poly = from_form(form, _IDS)
    assert form_text(form, _IDS) == str(poly)
    assert parse_polynomial(form_text(form, _IDS)) == poly
