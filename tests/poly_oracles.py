"""Reference ring maps on `IntPolynomial`: substitution, powers and
evaluation.

The library transports cocycles along contraction and subdivision and
specializes Q and the class on forms keyed by edge position.  These maps
are the textbook ring homomorphisms on polynomials, built only from the
ring arithmetic, so the tests use them as an independent route to the same
results.
"""

from __future__ import annotations

from itertools import groupby
from typing import Mapping

from czgraph.polyring import IntPolynomial, PolynomialError, idkey


class MissingVariableError(PolynomialError):
    """Raised when evaluating a polynomial with an incomplete assignment."""


def render_order(mono: tuple[str, ...]) -> tuple:
    """Sort key of a monomial, a tuple of names sorted by `idkey`, in the
    order `form_text` prints terms: its (idkey(name), exponent) runs.  A
    plain tuple sort would put x1^2 before x1*x2."""
    return tuple((idkey(v), len(list(run))) for v, run in groupby(mono))


def power(poly: IntPolynomial, n: int) -> IntPolynomial:
    if n < 0:
        raise PolynomialError("negative powers are not defined")
    result = IntPolynomial.one()
    for _ in range(n):
        result = result * poly
    return result


def evaluate(poly: IntPolynomial, assignment: Mapping[str, int]) -> int:
    """Apply the ring homomorphism x_e -> assignment[e].

    Every variable occurring in the polynomial must be assigned.
    """
    total = 0
    for mono, coeff in poly.terms.items():
        value = coeff
        for var in mono:
            if var not in assignment:
                raise MissingVariableError(f"no value for variable x{var}")
            value *= int(assignment[var])
        total += value
    return total


def substitute(poly: IntPolynomial, var: str, replacement) -> IntPolynomial:
    """Ring homomorphism sending x_var to `replacement`, fixing the rest.

    substitute(p, var, 0) kills every term containing the variable;
    substitute(p, var, x_a + x_b) realizes an edge subdivision.
    """
    var = str(var)
    replacement = IntPolynomial.coerce(replacement)
    out = IntPolynomial.zero()
    for mono, coeff in poly.terms.items():
        rest = tuple(v for v in mono if v != var)
        part = IntPolynomial({rest: coeff})
        if len(rest) < len(mono):
            part = part * power(replacement, len(mono) - len(rest))
        out = out + part
    return out
