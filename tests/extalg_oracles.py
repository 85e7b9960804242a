"""Reference routes through the third exterior power that the closed forms
in `czgraph.extalg` are checked against.

These go the long way, through `LElement` arithmetic and text, and are kept
because they are easy to trust, not because anything decides with them:

* `abb_to_l_element` and `bbb_coeffs`: build sum b_ijk a_i^b_j^b_k as an
  element and read back its b^b^b coefficients, so `image1_coeffs` and
  `image2_coeffs` can be compared with applying `delta_G_minus_I_L` directly;
* `delta_minus_I_sum_check`: the twist-splitting identity on H as an
  executable harness;
* `parse_l_element`: the inverse of `str()` on an `LElement`.
"""

from __future__ import annotations

import re
from typing import Mapping

from czgraph.extalg import (HElement, LElement, alpha, beta, delta_ell_H,
                            triple_beta_count)
from czgraph.graph import CycleBasisContext, PreconditionError
from czgraph.polyring import IntPolynomial, parse_polynomial


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
