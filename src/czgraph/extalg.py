"""The symplectic module H with basis a_1..a_g, b_1..b_g, its third exterior
power L, the filtration by b-count, and the unipotent multitwist action.

Conventions.  The pairing is <a_i, b_i> = 1, <b_i, a_i> = -1, all other
basis pairings 0; Y = span(b_1..b_g) is Lagrangian.  Wedge triples are kept
sorted under a_1 < ... < a_g < b_1 < ... < b_g with signs by permutation
parity.  F_q consists of the elements all of whose triples contain at least
q labels from Y, so applying (delta - I) raises the filtration level.

Coefficients live in the edge polynomial ring; every edge e acts by

    delta_e(h) = h + <h, [e]> [e] x_e

where [e] is the edge's class in the b-basis (the signed incidences of e in
the fundamental cycles).  The product of all delta_e is the block-unipotent
map sending a_j to a_j + sum_i q_ij b_i and fixing every b_j.

The closed forms `image1_forms` and `image2_forms` give the top-filtration
coefficients of (delta_G - I) and its square on forms keyed by edge position
(see `polyring`); `image1_coeffs` and `image2_coeffs` apply them to
polynomials.  No decision uses the element-level maps (`HElement`,
`LElement`, `delta_G_L`): the benchmark's pool builder makes its trivial
cocycles with `aab_to_l_element` and `delta_G_minus_I_L`, and the tests
check the closed forms against them.  Other routes that only check the
closed forms live with the tests (`tests/extalg_oracles.py`).
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, Mapping, Sequence

from .graph import CycleBasisContext, PreconditionError
from .polyring import IntPolynomial, from_form, to_form

Label = tuple[str, int]  # ("a"|"b", 1-based index)


def alpha(i: int) -> Label:
    return ("a", i)


def beta(i: int) -> Label:
    return ("b", i)


def label_key(lab: Label) -> tuple[int, int]:
    kind, idx = lab
    return (0 if kind == "a" else 1, idx)


def pairing(x: Label, y: Label) -> int:
    """Symplectic intersection pairing on basis labels."""
    if x[1] != y[1]:
        return 0
    if x[0] == "a" and y[0] == "b":
        return 1
    if x[0] == "b" and y[0] == "a":
        return -1
    return 0


def sort_triple(labels: Iterable[Label]) -> tuple[tuple[Label, ...] | None, int]:
    """Sort three labels, returning (sorted triple, sign); None if repeated."""
    labs = list(labels)
    sign = 1
    # insertion sort on 3 elements, tracking parity
    for i in range(1, 3):
        j = i
        while j > 0 and label_key(labs[j - 1]) > label_key(labs[j]):
            labs[j - 1], labs[j] = labs[j], labs[j - 1]
            sign = -sign
            j -= 1
    if labs[0] == labs[1] or labs[1] == labs[2]:
        return None, 0
    return tuple(labs), sign


def triple_beta_count(triple: tuple[Label, ...]) -> int:
    return sum(1 for kind, _ in triple if kind == "b")


def render_triple(triple: tuple[Label, ...]) -> str:
    return "^".join(f"{kind}{idx}" for kind, idx in triple)


class HElement:
    """Element of H with polynomial coefficients (alpha block, beta block)."""

    __slots__ = ("g", "alpha", "beta")

    def __init__(self, g: int,
                 alpha_coeffs: Iterable[IntPolynomial] | None = None,
                 beta_coeffs: Iterable[IntPolynomial] | None = None):
        zero = IntPolynomial.zero()
        self.g = g
        self.alpha = tuple(alpha_coeffs) if alpha_coeffs is not None else (zero,) * g
        self.beta = tuple(beta_coeffs) if beta_coeffs is not None else (zero,) * g
        if len(self.alpha) != g or len(self.beta) != g:
            raise PreconditionError("coefficient blocks must have length g")

    @classmethod
    def basis(cls, g: int, lab: Label) -> "HElement":
        kind, idx = lab
        if not 1 <= idx <= g:
            raise PreconditionError(f"index {idx} out of range 1..{g}")
        one = IntPolynomial.one()
        coeffs = [IntPolynomial.zero()] * g
        coeffs[idx - 1] = one
        if kind == "a":
            return cls(g, coeffs, None)
        return cls(g, None, coeffs)

    def coefficient(self, lab: Label) -> IntPolynomial:
        kind, idx = lab
        return (self.alpha if kind == "a" else self.beta)[idx - 1]

    def terms(self) -> list[tuple[Label, IntPolynomial]]:
        out = []
        for i, c in enumerate(self.alpha, start=1):
            if not c.is_zero():
                out.append((alpha(i), c))
        for i, c in enumerate(self.beta, start=1):
            if not c.is_zero():
                out.append((beta(i), c))
        return out

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.alpha) and all(c.is_zero() for c in self.beta)

    def in_y(self) -> bool:
        """Membership in the Lagrangian Y: the alpha block vanishes."""
        return all(c.is_zero() for c in self.alpha)

    def __add__(self, other: "HElement") -> "HElement":
        self._check(other)
        return HElement(self.g,
                        [a + b for a, b in zip(self.alpha, other.alpha)],
                        [a + b for a, b in zip(self.beta, other.beta)])

    def __sub__(self, other: "HElement") -> "HElement":
        self._check(other)
        return HElement(self.g,
                        [a - b for a, b in zip(self.alpha, other.alpha)],
                        [a - b for a, b in zip(self.beta, other.beta)])

    def __neg__(self) -> "HElement":
        return HElement(self.g, [-a for a in self.alpha], [-a for a in self.beta])

    def scale(self, factor) -> "HElement":
        f = IntPolynomial.coerce(factor)
        return HElement(self.g, [f * a for a in self.alpha], [f * a for a in self.beta])

    def __eq__(self, other) -> bool:
        return (isinstance(other, HElement) and self.g == other.g
                and self.alpha == other.alpha and self.beta == other.beta)

    def __hash__(self) -> int:
        return hash((self.g, self.alpha, self.beta))

    def __repr__(self) -> str:
        parts = [f"({c})*{kind}{idx}" for (kind, idx), c in self.terms()]
        return " + ".join(parts) if parts else "0"

    def _check(self, other: "HElement") -> None:
        if self.g != other.g:
            raise PreconditionError("mixing HElements of different genus")


class LElement:
    """Element of the third exterior power with polynomial coefficients.

    Canonical: keys are sorted wedge triples, values nonzero polynomials.
    """

    __slots__ = ("g", "_terms")

    def __init__(self, g: int,
                 terms: Mapping[tuple[Label, ...], IntPolynomial] | None = None):
        self.g = g
        clean: dict[tuple[Label, ...], IntPolynomial] = {}
        if terms:
            for triple, poly in terms.items():
                if poly.is_zero():
                    continue
                sorted_triple, sign = sort_triple(triple)
                if sorted_triple is None:
                    continue
                prev = clean.get(sorted_triple, IntPolynomial.zero())
                new = prev + (poly if sign == 1 else -poly)
                if new.is_zero():
                    clean.pop(sorted_triple, None)
                else:
                    clean[sorted_triple] = new
        self._terms = clean

    @classmethod
    def zero(cls, g: int) -> "LElement":
        return cls(g)

    @classmethod
    def wedge_basis(cls, g: int, labels: Iterable[Label],
                    coeff=1) -> "LElement":
        return cls(g, {tuple(labels): IntPolynomial.coerce(coeff)})

    @property
    def terms(self) -> dict[tuple[Label, ...], IntPolynomial]:
        return dict(self._terms)

    def coefficient(self, labels: Iterable[Label]) -> IntPolynomial:
        triple, sign = sort_triple(labels)
        if triple is None:
            return IntPolynomial.zero()
        c = self._terms.get(triple, IntPolynomial.zero())
        return c if sign == 1 else -c

    def is_zero(self) -> bool:
        return not self._terms

    def __add__(self, other: "LElement") -> "LElement":
        self._check(other)
        terms = dict(self._terms)
        for t, p in other._terms.items():
            prev = terms.get(t, IntPolynomial.zero())
            new = prev + p
            if new.is_zero():
                terms.pop(t, None)
            else:
                terms[t] = new
        out = LElement(self.g)
        out._terms = terms
        return out

    def __sub__(self, other: "LElement") -> "LElement":
        return self + (-other)

    def __neg__(self) -> "LElement":
        out = LElement(self.g)
        out._terms = {t: -p for t, p in self._terms.items()}
        return out

    def scale(self, factor) -> "LElement":
        f = IntPolynomial.coerce(factor)
        out = LElement(self.g)
        if not f.is_zero():
            out._terms = {t: f * p for t, p in self._terms.items()}
        return out

    def filtration_level(self) -> int:
        """Least Y-label count over terms; 3 for zero (F_3 is the top stage,
        and zero belongs to every stage, see in_filtration)."""
        if not self._terms:
            return 3
        return min(triple_beta_count(t) for t in self._terms)

    def in_filtration(self, q: int) -> bool:
        return self.is_zero() or self.filtration_level() >= q

    def graded_part(self, q: int) -> "LElement":
        """Terms with exactly q labels from Y."""
        out = LElement(self.g)
        out._terms = {t: p for t, p in self._terms.items()
                      if triple_beta_count(t) == q}
        return out

    def __eq__(self, other) -> bool:
        return (isinstance(other, LElement) and self.g == other.g
                and self._terms == other._terms)

    def __hash__(self) -> int:
        return hash((self.g, frozenset(self._terms.items())))

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        keys = sorted(self._terms, key=lambda t: tuple(label_key(l) for l in t))
        parts = []
        for t in keys:
            parts.append(f"({self._terms[t]})*{render_triple(t)}")
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"LElement({self})"

    def _check(self, other: "LElement") -> None:
        if self.g != other.g:
            raise PreconditionError("mixing LElements of different genus")


def wedge3(h1: HElement, h2: HElement, h3: HElement) -> LElement:
    """Trilinear wedge of H elements into L."""
    g = h1.g
    terms: dict[tuple[Label, ...], IntPolynomial] = {}
    t1, t2, t3 = h1.terms(), h2.terms(), h3.terms()
    for l1, c1 in t1:
        for l2, c2 in t2:
            c12 = c1 * c2
            for l3, c3 in t3:
                triple, sign = sort_triple((l1, l2, l3))
                if triple is None:
                    continue
                coeff = c12 * c3
                if sign < 0:
                    coeff = -coeff
                prev = terms.get(triple, IntPolynomial.zero())
                new = prev + coeff
                if new.is_zero():
                    terms.pop(triple, None)
                else:
                    terms[triple] = new
    out = LElement(g)
    out._terms = terms
    return out


# -- multitwist actions ------------------------------------------------------


def delta_G_H(ctx: CycleBasisContext, h: HElement) -> HElement:
    """Composite of all edge twists: a_j += sum_i q_ij b_i, b_j fixed."""
    g = ctx.g
    new_beta = list(h.beta)
    for j in range(g):
        cj = h.alpha[j]
        if cj.is_zero():
            continue
        for i in range(g):
            q = ctx.Q[i][j]
            if not q.is_zero():
                new_beta[i] = new_beta[i] + q * cj
    return HElement(g, h.alpha, new_beta)


def _apply_multiplicative(g: int, x: LElement, act) -> LElement:
    """Extend an H-endomorphism (given on basis labels) to L by wedges."""
    images: dict[Label, HElement] = {}
    for i in range(1, g + 1):
        for lab in (alpha(i), beta(i)):
            images[lab] = act(lab)
    out = LElement.zero(g)
    for triple, poly in x.terms.items():
        l1, l2, l3 = triple
        out = out + wedge3(images[l1], images[l2], images[l3]).scale(poly)
    return out


def delta_G_L(ctx: CycleBasisContext, x: LElement) -> LElement:
    """Third exterior power of the full multitwist."""
    return _apply_multiplicative(
        ctx.g, x, lambda lab: delta_G_H(ctx, HElement.basis(ctx.g, lab)))


def delta_G_minus_I_L(ctx: CycleBasisContext, x: LElement) -> LElement:
    return delta_G_L(ctx, x) - x


# -- closed-form images ------------------------------------------------------


def triple_indices(g: int) -> list[tuple[int, int, int]]:
    """Sorted index triples (r, s, t), 1-based, indexing the top filtration."""
    return [tuple(c) for c in combinations(range(1, g + 1), 3)]


def abb_keys(g: int) -> list[tuple[int, int, int]]:
    """Keys (i; j<k) for a_i ^ b_j ^ b_k coefficient maps."""
    return [(i, j, k) for i in range(1, g + 1)
            for j in range(1, g + 1) for k in range(j + 1, g + 1)]


def aab_keys(g: int) -> list[tuple[int, int, int]]:
    """Keys (i<j; k) for a_i ^ a_j ^ b_k coefficient maps."""
    return [(i, j, k) for i in range(1, g + 1) for j in range(i + 1, g + 1)
            for k in range(1, g + 1)]


Form = dict[tuple[int, ...], int]


def _add_product(out: Form, f: Form, g: Form, factor: int) -> None:
    """out += factor * f * g, over forms."""
    for ka, ca in f.items():
        for kb, cb in g.items():
            key = tuple(sorted(ka + kb))
            out[key] = out.get(key, 0) + factor * ca * cb


def _nonzero(out: dict[tuple[int, int, int], Form]) -> dict[tuple[int, int, int], Form]:
    clean = ((t, {k: c for k, c in f.items() if c}) for t, f in out.items())
    return {t: f for t, f in clean if f}


def image1_forms(q: Sequence[Sequence[Form]], b: Mapping[tuple[int, int, int], Form]
                 ) -> dict[tuple[int, int, int], Form]:
    """Top-filtration coefficients of (delta_G - I) applied to
    sum b_ijk a_i^b_j^b_k, over forms (q is Q, indexed from 0):

        c_rst = sum_i (b_irs q_ti - b_irt q_si + b_ist q_ri).

    Each b_ijk reaches the triples {j, k, m}, m != j, k, with the factor
    q_mi, negated when j < m < k.
    """
    out: dict[tuple[int, int, int], Form] = {}
    for (i, j, k), f in b.items():
        for m in range(1, len(q) + 1):
            if m != j and m != k:
                triple = tuple(sorted((j, k, m)))
                _add_product(out.setdefault(triple, {}), f, q[m - 1][i - 1],
                             -1 if j < m < k else 1)
    return _nonzero(out)


def image2_forms(q: Sequence[Sequence[Form]], a: Mapping[tuple[int, int, int], Form]
                 ) -> dict[tuple[int, int, int], Form]:
    """Top-filtration coefficients of (delta_G - I)^2 applied to sum a_ijk
    a_i^a_j^b_k, over forms (q is Q, indexed from 0): twice the 3x3 determinants

        c_rst = 2 sum_{i<j} | q_ri q_rj a_ijr ; q_si q_sj a_ijs ; q_ti q_tj a_ijt |.

    Expanded along the last column, a_ijk reaches the triples {u, v, k},
    u < v, times the minor q_ui q_vj - q_uj q_vi, negated when u < k < v.
    """
    out: dict[tuple[int, int, int], Form] = {}
    for (i, j, k), f in a.items():
        for u, v in combinations([m for m in range(1, len(q) + 1) if m != k], 2):
            minor: Form = {}
            _add_product(minor, q[u - 1][i - 1], q[v - 1][j - 1], 1)
            _add_product(minor, q[u - 1][j - 1], q[v - 1][i - 1], -1)
            triple = tuple(sorted((u, v, k)))
            _add_product(out.setdefault(triple, {}), f, minor, -2 if u < k < v else 2)
    return _nonzero(out)


def _boundary(ctx: CycleBasisContext, coeffs: Mapping, legal: set, image
              ) -> dict[tuple[int, int, int], IntPolynomial]:
    """Apply a closed form to polynomial or integer coefficients: convert
    them to forms over the graph's edges, then any other variable they use,
    and the image back to polynomials."""
    bad = [key for key in coeffs if key not in legal]
    if bad:
        raise PreconditionError(f"index {bad[0]} out of range for genus {ctx.g}")
    polys = {key: IntPolynomial.coerce(v) for key, v in coeffs.items()}
    names = [e.id for e in ctx.graph.edges]
    names += sorted(set().union(*(p.variables() for p in polys.values())) - set(names))
    pos = {v: n for n, v in enumerate(names)}
    forms = image(ctx.q_forms, {key: to_form(p, pos) for key, p in polys.items()})
    return {t: from_form(f, names) for t, f in forms.items()}


def image1_coeffs(ctx: CycleBasisContext, b: Mapping[tuple[int, int, int], IntPolynomial | int]
                  ) -> dict[tuple[int, int, int], IntPolynomial]:
    """`image1_forms` on polynomial coefficients.  Agrees with applying
    delta_G_L directly and reading off b^b^b terms."""
    return _boundary(ctx, b, set(abb_keys(ctx.g)), image1_forms)


def image2_coeffs(ctx: CycleBasisContext, a: Mapping[tuple[int, int, int], IntPolynomial | int]
                  ) -> dict[tuple[int, int, int], IntPolynomial]:
    """`image2_forms` on polynomial coefficients.  Every output coefficient
    is even.  Agrees with applying delta_G_L twice."""
    if ctx.g < 3:
        raise PreconditionError("image2_coeffs needs genus >= 3")
    return _boundary(ctx, a, set(aab_keys(ctx.g)), image2_forms)


def aab_to_l_element(g: int,
                     a: Mapping[tuple[int, int, int], IntPolynomial | int]) -> LElement:
    """sum a_ijk a_i ^ a_j ^ b_k as an LElement."""
    out = LElement.zero(g)
    for (i, j, k), poly in a.items():
        out = out + LElement.wedge_basis(g, (alpha(i), alpha(j), beta(k)),
                                         IntPolynomial.coerce(poly))
    return out
