"""Reference ring maps on `IntPolynomial`: substitution, powers and
evaluation.

The library transports cocycles along contraction and subdivision and
specializes Q and the class on forms keyed by edge position.  These maps
are the textbook ring homomorphisms on polynomials, built only from the
ring arithmetic, so the tests use them as an independent route to the same
results.
"""

from __future__ import annotations

from typing import Mapping

from czgraph.polyring import IntPolynomial, Monomial, PolynomialError


class MissingVariableError(PolynomialError):
    """Raised when evaluating a polynomial with an incomplete assignment."""


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
        for var, exp in mono.factors:
            if var not in assignment:
                raise MissingVariableError(f"no value for variable x{var}")
            value *= int(assignment[var]) ** exp
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
        exps = dict(mono.factors)
        exp = exps.pop(var, 0)
        part = IntPolynomial({Monomial(exps): coeff})
        if exp:
            part = part * power(replacement, exp)
        out = out + part
    return out
