"""Exact sparse multivariate polynomials over the integers: the text and
JSON boundary of the edge polynomial ring.

Variables are indexed by edge identifiers and rendered as ``x<id>``, so the
ring is Z[x_e : e an edge id].  The text form reads back only for ids made of
ASCII letters, digits and underscores (`is_variable_name`); the graph
parsers reject any other edge id.  Coefficients are Python ints, hence
arbitrary precision; all operations are exact and return canonical
polynomials (no zero coefficients stored).  The arithmetic serves only the
element-level maps of `extalg` and the benchmark's pool builder.

A monomial is the tuple of its variable names with repetition, sorted by
`idkey`, so x1^2*x3 is ("1", "1", "3") and () is the unit; it keys a term of
an `IntPolynomial`.  Cocycles, classes and Q store only forms, and the rest
computes on them: a form is the same map with each name replaced by its
position, so over the edges 1, 2, 3, x1*x3 - 2*x3^2 is {(0, 2): 1,
(2, 2): -2}.  `to_form` reads parsed text, `from_form` renders the views
`CeresaCocycle.b`, `CZClass.c` and `Q`, and `form_text` is the one renderer:
it prints polynomials and the forms of reports directly.

Polynomials are immutable values: every operation returns a new object and
instances may be shared freely between threads.
"""

from __future__ import annotations

import re
import sys
from collections.abc import Iterable, Mapping, Sequence
from functools import cache, wraps
from itertools import groupby


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


class IntPolynomial:
    """Sparse polynomial with integer coefficients, canonical form.

    A term is keyed by its monomial, the tuple of its variable names with
    repetition, sorted by `idkey`: x1^2*x3 is ("1", "1", "3") and () is the
    unit.  Keys are sorted on construction, so any order of the names may
    be given.  Two polynomials are equal iff their term maps are equal;
    hashing is consistent with that, so polynomials can key dicts and sets.
    """

    __slots__ = ("_terms", "_hash")

    def __init__(self, terms: Mapping | Iterable[tuple[Iterable[str], int]] = ()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        clean: dict[tuple[str, ...], int] = {}
        for mono, coeff in items:
            if isinstance(mono, str):
                raise TypeError(f"a monomial is a tuple of variable names, got {mono!r}")
            mono = tuple(sorted(mono, key=idkey))
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
        return cls({(): c})

    @classmethod
    def variable(cls, name: str, coeff: int = 1, exp: int = 1) -> "IntPolynomial":
        if exp < 0:
            raise PolynomialError(f"negative exponent for x{name}")
        return cls({(name,) * exp: coeff})

    @classmethod
    def coerce(cls, value) -> "IntPolynomial":
        if isinstance(value, IntPolynomial):
            return value
        if isinstance(value, int):
            return cls.constant(value)
        raise PolynomialError(f"cannot coerce {value!r} to IntPolynomial")

    # -- queries -------------------------------------------------------

    @property
    def terms(self) -> dict[tuple[str, ...], int]:
        return dict(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def variables(self) -> set[str]:
        return set().union(*self._terms)

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other) -> "IntPolynomial":
        other = IntPolynomial.coerce(other)
        return IntPolynomial([*self._terms.items(), *other._terms.items()])

    __radd__ = __add__

    def __neg__(self) -> "IntPolynomial":
        return IntPolynomial({m: -c for m, c in self._terms.items()})

    def __sub__(self, other) -> "IntPolynomial":
        return self + (-IntPolynomial.coerce(other))

    def __rsub__(self, other) -> "IntPolynomial":
        return IntPolynomial.coerce(other) + (-self)

    def __mul__(self, other) -> "IntPolynomial":
        other = IntPolynomial.coerce(other)
        return IntPolynomial((m1 + m2, c1 * c2) for m1, c1 in self._terms.items()
                             for m2, c2 in other._terms.items())

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
        names = sorted(self.variables(), key=idkey)
        return form_text(to_form(self, {v: n for n, v in enumerate(names)}), names)

    def __repr__(self) -> str:
        return f"IntPolynomial({self})"


def to_form(poly: IntPolynomial, pos: Mapping[str, int]) -> dict[tuple[int, ...], int]:
    """The polynomial as a form; pos gives each variable's position."""
    return {tuple(sorted(pos[v] for v in mono)): c for mono, c in poly._terms.items()}


def from_form(form: Mapping[tuple[int, ...], int], names: Sequence[str]) -> IntPolynomial:
    """The form as a polynomial in the variables names[position]."""
    return IntPolynomial({tuple(names[p] for p in key): c for key, c in form.items()})


def in_full(f):
    """The renderer f, which has no side effects, writing every int in full.
    CPython writes no int of more than 4,300 digits: a call that raises
    ValueError runs again with that limit lifted, for the call alone."""
    @wraps(f)
    def render(*args, **kwargs):
        try:
            return f(*args, **kwargs)
        except ValueError:
            limit = sys.get_int_max_str_digits()
            sys.set_int_max_str_digits(0)
            try:
                return f(*args, **kwargs)
            finally:
                sys.set_int_max_str_digits(limit)
    return render


@in_full
def form_text(form: Mapping[tuple[int, ...], int], names: Sequence[str]) -> str:
    """The form as text in the variables names[position], in the grammar
    `parse_polynomial` reads; the one renderer of polynomials and forms.

    The positions must follow the `idkey` order of the names.  Terms are
    ordered by their (position, exponent) runs: the unit first, then by the
    first variable, x_a*x_b before x_a^2.
    """
    if not form:
        return "0"
    parts = []
    for runs, coeff in sorted((tuple((p, len(list(run))) for p, run in groupby(key)), c)
                              for key, c in form.items()):
        mono = "*".join(f"x{names[p]}" if e == 1 else f"x{names[p]}^{e}" for p, e in runs)
        mag = abs(coeff)
        if not mono:
            body = str(mag)
        elif mag == 1:
            body = mono
        else:
            body = f"{mag}*{mono}"
        parts.append(("- " if coeff < 0 else "+ ") + body)
    text = " ".join(parts)
    return text[2:] if text[0] == "+" else "-" + text[2:]


_NAME_RE = re.compile(r"[A-Za-z0-9_]+")
_TOKEN_RE = re.compile(rf"x({_NAME_RE.pattern})(?:\^([0-9]{{1,2}}))?$")
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

    Inverse of str() on canonical polynomials with every exponent below 100;
    whitespace is ignored.  An exponent has at most two digits, so a term
    expands to at most 99 names per factor and memory stays linear in the
    text; x1^100 is a bad factor.
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
        names: list[str] = []
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
            names += [m.group(1)] * int(m.group(2) or 1)
        terms.append((names, coeff))
    return IntPolynomial(terms)
