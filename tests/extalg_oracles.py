"""Reference routes through the third exterior power that the closed forms
in `czgraph.extalg` are checked against.

These go the long way, through `LElement` arithmetic and text, and are kept
because they are easy to trust, not because anything decides with them:

* `psi_G`, with `sum_delta_e_minus_I_L` and `delta_ell_L`, and
  `wedge_with_omega`: the maps whose closed forms fill the columns of the
  "psi" mode's system (`czgraph.ceresa._psi_system`), applied element by
  element;
* `abb_to_l_element` and `bbb_coeffs`: build sum b_ijk a_i^b_j^b_k as an
  element and read back its b^b^b coefficients, so `image1_coeffs` and
  `image2_coeffs` can be compared with applying `delta_G_minus_I_L` directly;
* `delta_ell_H`, with `pair_h` and `edge_beta_element`: one edge's twist
  on H, element by element;
* `delta_minus_I_sum_check`: the twist-splitting identity on H as an
  executable harness;
* `parse_l_element`: the inverse of `str()` on an `LElement`.
"""

from __future__ import annotations

import re
from typing import Mapping

from czgraph.extalg import (HElement, LElement, _apply_multiplicative, alpha,
                            beta, delta_G_minus_I_L, triple_beta_count, wedge3)
from czgraph.graph import CycleBasisContext, PreconditionError
from czgraph.polyring import IntPolynomial, parse_polynomial


def pair_h(x: HElement, y: HElement) -> IntPolynomial:
    """Bilinear extension of the symplectic pairing to H elements."""
    x._check(y)
    total = IntPolynomial.zero()
    for i in range(x.g):
        total = total + x.alpha[i] * y.beta[i] - x.beta[i] * y.alpha[i]
    return total


def edge_beta_element(ctx: CycleBasisContext, edge_id: str) -> HElement:
    """The class [e] in the b-basis: signed incidences in the cycles."""
    signs = ctx.beta_class(edge_id)
    g = ctx.g
    return HElement(g, None, [IntPolynomial.constant(s) for s in signs])


def delta_ell_H(ctx: CycleBasisContext, edge_id: str, h: HElement,
                inverse: bool = False) -> HElement:
    """Single-edge twist h -> h + <h, [e]> [e] x_e (minus for the inverse)."""
    ell = edge_beta_element(ctx, edge_id)
    factor = pair_h(h, ell) * IntPolynomial.variable(str(edge_id))
    if inverse:
        factor = -factor
    return h + ell.scale(factor)


def delta_minus_I_sum_check(ctx: CycleBasisContext,
                            exponents: Mapping[str, int],
                            h: HElement) -> HElement:
    """Difference (prod_e delta_e^(n_e) - I)(h) - sum_e n_e (delta_e - I)(h).

    The twist product splits into a sum of single-twist differences, so the
    returned element is identically zero; kept executable as a harness.
    """
    lhs = h
    for edge_id, n in sorted(exponents.items()):
        for _ in range(abs(int(n))):
            lhs = delta_ell_H(ctx, edge_id, lhs, inverse=n < 0)
    lhs = lhs - h
    rhs = HElement(ctx.g)
    for edge_id, n in exponents.items():
        diff = delta_ell_H(ctx, edge_id, h) - h
        rhs = rhs + diff.scale(IntPolynomial.constant(int(n)))
    return lhs - rhs


def abb_to_l_element(g: int,
                     b: Mapping[tuple[int, int, int], IntPolynomial | int]) -> LElement:
    """sum b_ijk a_i ^ b_j ^ b_k as an LElement."""
    out = LElement.zero(g)
    for (i, j, k), poly in b.items():
        out = out + LElement.wedge_basis(g, (alpha(i), beta(j), beta(k)),
                                         IntPolynomial.coerce(poly))
    return out


def bbb_coeffs(x: LElement) -> dict[tuple[int, int, int], IntPolynomial]:
    """Extract the coefficients of b_r ^ b_s ^ b_t terms, keyed (r, s, t)."""
    out = {}
    for triple, poly in x.terms.items():
        if triple_beta_count(triple) == 3:
            out[tuple(idx for _, idx in triple)] = poly
    return out


_L_TERM_RE = re.compile(r"\(([^()]*)\)\*([ab]\d+)\^([ab]\d+)\^([ab]\d+)")


def parse_l_element(text: str, g: int) -> LElement:
    """Parse the LElement rendering, e.g. "(x1 + x2)*a1^b1^b2 + (-2)*b1^b2^b3".

    Inverse of str() on canonical elements.
    """
    text = text.strip()
    if text == "0":
        return LElement.zero(g)
    out = LElement.zero(g)
    consumed = 0
    for m in _L_TERM_RE.finditer(text):
        between = text[consumed:m.start()].strip()
        if between not in ("", "+"):
            raise PreconditionError(f"bad element text near {between!r}")
        consumed = m.end()
        poly = parse_polynomial(m.group(1))
        labels = tuple((lab[0], int(lab[1:])) for lab in m.groups()[1:])
        for _, idx in labels:
            if not 1 <= idx <= g:
                raise PreconditionError(f"label index {idx} out of range 1..{g}")
        out = out + LElement.wedge_basis(g, labels, poly)
    if text[consumed:].strip():
        raise PreconditionError(f"trailing element text {text[consumed:]!r}")
    return out


def wedge_with_omega(h: HElement) -> LElement:
    """h wedged with the symplectic 2-form sum_i a_i ^ b_i.

    This is the embedding of H into L; its image is the submodule the
    quotient L/H divides out.
    """
    g = h.g
    out = LElement.zero(g)
    for i in range(1, g + 1):
        ai = HElement.basis(g, alpha(i))
        bi = HElement.basis(g, beta(i))
        out = out + wedge3(h, ai, bi)
    return out


def delta_ell_L(ctx: CycleBasisContext, edge_id: str, x: LElement,
                inverse: bool = False) -> LElement:
    """Third exterior power of a single edge twist."""
    return _apply_multiplicative(
        ctx.g, x,
        lambda lab: delta_ell_H(ctx, edge_id, HElement.basis(ctx.g, lab), inverse))


def sum_delta_e_minus_I_L(ctx: CycleBasisContext, x: LElement) -> LElement:
    """sum over edges of (delta_e - I) acting on L.

    Differs from delta_G - I in general; the two agree on H and on graded
    pieces of L/H but not on all of L.
    """
    out = LElement.zero(ctx.g)
    for e in ctx.graph.edges:
        out = out + (delta_ell_L(ctx, e.id, x) - x)
    return out


def psi_G(ctx: CycleBasisContext, x: LElement) -> LElement:
    """(delta_G - I) composed with sum_e (delta_e - I).

    Kills every wedge with two or more Y labels; on a_i^a_j^b_k it doubles
    the square of the twist action, and on a_i^a_j^a_k it produces the
    symmetric double terms plus three times the full cube.
    """
    return delta_G_minus_I_L(ctx, sum_delta_e_minus_I_L(ctx, x))
