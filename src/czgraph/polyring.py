"""Exact sparse multivariate polynomials over the integers: the text and
JSON boundary of the edge polynomial ring.

Variables are indexed by edge identifiers and rendered as ``x<id>``, so the
ring is Z[x_e : e an edge id].  The text form reads back only for ids made of
ASCII letters, digits and underscores (`is_variable_name`); the graph
parsers reject any other edge id.  Coefficients are Python ints, hence
arbitrary precision; all operations are exact and return canonical
polynomials (no zero coefficients stored).  The arithmetic serves only the
element-level maps of `extalg` and the benchmark's pool builder.

Cocycles, classes and Q store only forms, and the rest computes on them: a
form maps the sorted positions of a monomial's variables, with repetition,
to its coefficient (its key's length is its degree), so over the edges 1, 2,
3, x1*x3 - 2*x3^2 is {(0, 2): 1, (2, 2): -2}.  `to_form` reads parsed text,
and `from_form` renders the views `CeresaCocycle.b`, `CZClass.c` and `Q`.

Polynomials are immutable values: every operation returns a new object and
instances may be shared freely between threads.
"""

from __future__ import annotations

import re
from collections import Counter
from collections.abc import Iterable, Mapping, Sequence
from functools import cache, total_ordering


class PolynomialError(ValueError):
    pass


_RUN_RE = re.compile(r"\d+|\D+")


@cache
def idkey(name: str) -> tuple:
    """Deterministic sort key for edge/vertex ids.

    Digit runs compare numerically, so "2" < "2a" < "10".  Subdivision ids
    like "2a", "2b" therefore slot in right after their parent edge "2".
    A digit run keeps its text as a tie-break, so "01" < "1": equal keys
    mean equal ids, and the order is total.  A digit run is a run of
    decimal digits (`str.isdecimal`), exactly what `\\d` matches and `int`
    reads; a superscript such as "²" is not one and sorts as text.
    Memoized: a run keys the same few ids again in every sort and
    contraction, and a key is an immutable tuple.
    """
    parts = []
    for run in _RUN_RE.findall(str(name)):
        if run.isdecimal():
            parts.append((0, int(run), run))
        else:
            parts.append((1, 0, run))
    return tuple(parts)


@total_ordering
class Monomial:
    """Product of variables with positive integer exponents.

    The empty monomial is the ring unit.  Factors are kept sorted by
    :func:`idkey`, which fixes the term order used for rendering.
    """

    __slots__ = ("_factors", "_hash")

    def __init__(self, exponents: Mapping[str, int] | Iterable[tuple[str, int]] = ()):
        items = exponents.items() if isinstance(exponents, Mapping) else exponents
        factors = []
        for var, exp in items:
            if exp < 0:
                raise PolynomialError(f"negative exponent for x{var}")
            if exp:
                factors.append((str(var), int(exp)))
        factors.sort(key=lambda f: idkey(f[0]))
        seen = {v for v, _ in factors}
        if len(seen) != len(factors):
            raise PolynomialError("repeated variable in monomial")
        self._factors = tuple(factors)
        self._hash = hash(self._factors)

    @property
    def factors(self) -> tuple[tuple[str, int], ...]:
        return self._factors

    def variables(self) -> set[str]:
        return {v for v, _ in self._factors}

    def is_unit(self) -> bool:
        return not self._factors

    def mul(self, other: "Monomial") -> "Monomial":
        exps = dict(self._factors)
        for v, e in other._factors:
            exps[v] = exps.get(v, 0) + e
        return Monomial(exps)

    def sort_key(self) -> tuple:
        return tuple((idkey(v), e) for v, e in self._factors)

    def __eq__(self, other) -> bool:
        return isinstance(other, Monomial) and self._factors == other._factors

    def __lt__(self, other: "Monomial") -> bool:
        return self.sort_key() < other.sort_key()

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        if not self._factors:
            return "1"
        return "*".join(f"x{v}" if e == 1 else f"x{v}^{e}" for v, e in self._factors)

    def __repr__(self) -> str:
        return f"Monomial({self})"


_UNIT = Monomial()


class IntPolynomial:
    """Sparse polynomial with integer coefficients, canonical form.

    Two polynomials are equal iff their term maps are equal; hashing is
    consistent with that, so polynomials can key dicts and sets.
    """

    __slots__ = ("_terms", "_hash")

    def __init__(self, terms: Mapping[Monomial, int] | Iterable[tuple[Monomial, int]] = ()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        clean: dict[Monomial, int] = {}
        for mono, coeff in items:
            coeff = int(coeff)
            if coeff:
                clean[mono] = clean.get(mono, 0) + coeff
                if clean[mono] == 0:
                    del clean[mono]
        self._terms = clean
        self._hash = None

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> "IntPolynomial":
        return cls()

    @classmethod
    def one(cls) -> "IntPolynomial":
        return cls.constant(1)

    @classmethod
    def constant(cls, c: int) -> "IntPolynomial":
        return cls({_UNIT: c})

    @classmethod
    def variable(cls, name: str, coeff: int = 1, exp: int = 1) -> "IntPolynomial":
        return cls({Monomial({str(name): exp}): coeff})

    @classmethod
    def coerce(cls, value) -> "IntPolynomial":
        if isinstance(value, IntPolynomial):
            return value
        if isinstance(value, int):
            return cls.constant(value)
        raise PolynomialError(f"cannot coerce {value!r} to IntPolynomial")

    # -- queries -------------------------------------------------------

    @property
    def terms(self) -> dict[Monomial, int]:
        return dict(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def variables(self) -> set[str]:
        out: set[str] = set()
        for m in self._terms:
            out |= m.variables()
        return out

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other) -> "IntPolynomial":
        other = IntPolynomial.coerce(other)
        terms = dict(self._terms)
        for m, c in other._terms.items():
            new = terms.get(m, 0) + c
            if new:
                terms[m] = new
            else:
                terms.pop(m, None)
        return IntPolynomial(terms)

    __radd__ = __add__

    def __neg__(self) -> "IntPolynomial":
        return IntPolynomial({m: -c for m, c in self._terms.items()})

    def __sub__(self, other) -> "IntPolynomial":
        return self + (-IntPolynomial.coerce(other))

    def __rsub__(self, other) -> "IntPolynomial":
        return IntPolynomial.coerce(other) + (-self)

    def __mul__(self, other) -> "IntPolynomial":
        other = IntPolynomial.coerce(other)
        out: dict[Monomial, int] = {}
        for m1, c1 in self._terms.items():
            for m2, c2 in other._terms.items():
                m = m1.mul(m2)
                new = out.get(m, 0) + c1 * c2
                if new:
                    out[m] = new
                else:
                    del out[m]
        return IntPolynomial(out)

    __rmul__ = __mul__

    # -- identity ------------------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = IntPolynomial.constant(other)
        return isinstance(other, IntPolynomial) and self._terms == other._terms

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(frozenset(self._terms.items()))
        return self._hash

    # -- text form -------------------------------------------------------

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for mono in sorted(self._terms):
            coeff = self._terms[mono]
            sign = "-" if coeff < 0 else "+"
            mag = abs(coeff)
            if mono.is_unit():
                body = str(mag)
            elif mag == 1:
                body = str(mono)
            else:
                body = f"{mag}*{mono}"
            parts.append((sign, body))
        first_sign, first_body = parts[0]
        text = ("-" if first_sign == "-" else "") + first_body
        for sign, body in parts[1:]:
            text += f" {sign} {body}"
        return text

    def __repr__(self) -> str:
        return f"IntPolynomial({self})"


def to_form(poly: IntPolynomial, pos: Mapping[str, int]) -> dict[tuple[int, ...], int]:
    """The polynomial as a form; pos gives each variable's position."""
    return {tuple(sorted(pos[v] for v, e in mono.factors for _ in range(e))): c
            for mono, c in poly._terms.items()}


def from_form(form: Mapping[tuple[int, ...], int], names: Sequence[str]) -> IntPolynomial:
    """The form as a polynomial in the variables names[position]."""
    return IntPolynomial({Monomial(Counter(names[p] for p in key)): c
                          for key, c in form.items()})


_NAME_RE = re.compile(r"[A-Za-z0-9_]+")
_TOKEN_RE = re.compile(rf"x({_NAME_RE.pattern})(?:\^([0-9]+))?$")
_INT_RE = re.compile(r"[+-]?[0-9]+")


def ascii_int(text: str) -> int:
    """The integer written as [+-]?[0-9]+, the one integer grammar of every
    text input.  Python's int() also reads underscores, surrounding
    whitespace and non-ASCII digits; here they raise ValueError."""
    if _INT_RE.fullmatch(text) is None:
        raise ValueError(f"not an integer: {text!r}")
    return int(text)


def is_variable_name(name: str) -> bool:
    """True when x<name> is one token of the polynomial text grammar."""
    return _NAME_RE.fullmatch(name) is not None


def parse_polynomial(text: str) -> IntPolynomial:
    """Parse the rendering grammar, e.g. "x1*x2 + 2*x5*x6 - x3" or "-2*x2^2".

    Inverse of str() on canonical polynomials; whitespace is ignored.
    """
    s = text.strip()
    if not s:
        raise PolynomialError("empty polynomial text")
    if s == "0":
        return IntPolynomial.zero()
    if s.endswith(("+", "-")):
        raise PolynomialError(f"dangling operator in {text!r}")
    s = s.replace("-", "+-")
    terms = []
    for chunk in s.split("+"):
        chunk = chunk.strip()
        if not chunk:
            continue
        negative = chunk.startswith("-")
        if negative:
            chunk = chunk[1:].strip()
        if not chunk:
            raise PolynomialError(f"dangling sign in {text!r}")
        coeff = -1 if negative else 1
        exps: dict[str, int] = {}
        for factor in chunk.split("*"):
            factor = factor.strip()
            if not factor:
                raise PolynomialError(f"empty factor in term {chunk!r}")
            m = _TOKEN_RE.match(factor)
            if not m:
                try:
                    coeff *= ascii_int(factor)
                except ValueError:
                    raise PolynomialError(f"bad factor {factor!r} in {text!r}") from None
                continue
            var, exp = m.group(1), int(m.group(2) or 1)
            exps[var] = exps.get(var, 0) + exp
        terms.append((Monomial(exps), coeff))
    return IntPolynomial(terms)
