"""Ceresa-Zharkov cocycles and the triviality decision procedures.

A cocycle is a representative with a_i^b_j^b_k coefficients, homogeneous
linear in the edge variables.  Its class is the image under (delta_G - I),
living in the top filtration stage with quadratic coefficients.  Triviality
of the class is decided two ways:

* graph level: integer feasibility of the system expressing the class as
  (delta_G - I)^2 of an integer combination of a_i^a_j^b_k wedges, obtained
  by equating coefficients of every quadratic monomial (method
  "graph-diophantine");
* curve level: after evaluating at edge lengths, membership of the
  specialized class in the integer image lattice (method "curve-lattice").
  One `intlin.solve_diophantine` call on the evaluated generators decides
  it, and a non-trivial verdict's `lattice_hnf` is the Hermite basis
  reduced from the echelon rows of that same elimination, so each verdict
  factors its generators once.

Both levels take the squared-twist generators from one integer kernel.  The
unit a_i^a_j^b_k reaches only the triples that contain k, where its
coefficient is +-2 times a 2x2 minor of Q with columns i, j and rows the
other two indices (`_twist_pattern`).  The C(g,2)^2 minors are computed once
per decision (`_q_minors`) as quadratic forms over edge-position pairs: the
graph level fills its integer equations straight from them
(`_graph_system`), and the curve level evaluates them at the edge lengths.
The class is `extalg.image1_forms` of the cocycle, and every trivial
graph-level verdict is replayed through `extalg.image2_forms`, the
3x3-determinant closed form, derived independently of the kernel.

`CeresaCocycle` and `CZClass` store their coefficients only as forms keyed
by edge position (see `polyring`), and the class, the decisions and the
transport are integer arithmetic on them.  Polynomials exist only where
text is read: the public constructors validate polynomials into forms.
Reports print the forms with `polyring.form_text`, and the views `b` and
`c`, which no report reads, render them as polynomials when first read.

The minor-theoretic classifier ("minor-theorem") decides triviality of the
graph itself: trivial exactly when there is no K4 or L3 minor.
"""

from __future__ import annotations

import hashlib
from collections import defaultdict
from dataclasses import dataclass
from functools import cache, cached_property
from itertools import combinations
from math import prod
from typing import Mapping

from . import intlin
from .extalg import (Form, aab_keys, abb_keys, image1_forms, image2_forms,
                     triple_indices)
from .graph import (CycleBasisContext, InvariantError, MultiGraph,
                    ParseError, PreconditionError, TropicalCurve,
                    build_cycle_context, contract_edge, genus,
                    graph_from_json_dict, graph_to_json_dict, json_int,
                    json_str, json_text, subdivide_edge)
from .minors import MinorWitness, _first_pattern, _witness
from .polyring import IntPolynomial, form_text, from_form, parse_polynomial, to_form


def _validated(ctx: CycleBasisContext, coeffs: Mapping, keys, degree: int, what: str
               ) -> dict[tuple[int, int, int], Form]:
    """The nonzero coefficients, keyed by keys(g) of ints (`json_int`), as
    forms over the graph's edge positions; each must be a homogeneous
    polynomial of the given degree in the graph's edge variables."""
    legal = set(keys(ctx.g))
    # an id that is not an edge reads -1, so a form key that uses one starts with -1
    pos = defaultdict(lambda: -1, ((e.id, n) for n, e in enumerate(ctx.graph.edges)))
    forms = {}
    for key, poly in coeffs.items():
        try:
            key = tuple(json_int(x) for x in key)
        except TypeError as exc:
            raise PreconditionError(f"{what} index {key!r}: {exc}") from None
        if key not in legal:
            raise PreconditionError(f"{what} index {key} out of range")
        poly = IntPolynomial.coerce(poly)
        form = to_form(poly, pos)
        if not form:
            continue
        if any(len(m) != degree for m in form):
            raise PreconditionError(f"{what} coefficient at {key} is not homogeneous "
                                    f"{('linear', 'quadratic')[degree - 1]}: {poly}")
        if any(m[0] < 0 for m in form):
            stray = sorted(v for v in poly.variables() if pos[v] < 0)
            raise PreconditionError(f"{what} coefficient at {key} uses unknown edges {stray}")
        forms[key] = form
    return forms


@dataclass(frozen=True)
class _Coefficients:
    """Nonzero coefficients keyed by index triples, stored only as forms
    over the positions of the context graph's edges (see `polyring`)."""

    context: CycleBasisContext
    forms: Mapping[tuple[int, int, int], Form]

    @classmethod
    def _derived(cls, context: CycleBasisContext, forms: dict[tuple[int, int, int], Form]):
        """An instance on new forms the caller knows to be valid (legal keys and
        degree, the context's edge positions, no zero term); nothing is checked."""
        obj = cls.__new__(cls)
        _Coefficients.__init__(obj, context, forms)
        return obj

    def _rendered(self) -> dict[tuple[int, int, int], IntPolynomial]:
        names = self.context.graph.edge_ids()
        return {key: from_form(form, names) for key, form in self.forms.items()}

    def _texts(self) -> list[tuple[tuple[int, int, int], str]]:
        """The coefficients as text (`form_text`), sorted by key."""
        names = self.context.graph.edge_ids()
        return [(key, form_text(form, names)) for key, form in sorted(self.forms.items())]

    def is_zero(self) -> bool:
        return not self.forms


@dataclass(frozen=True, init=False)
class CeresaCocycle(_Coefficients):
    """Representative v with coefficients b[(i, j, k)] on a_i^b_j^b_k, j < k.

    Every coefficient is a homogeneous linear form in the edge variables of
    the context's graph.  `to_json_dict` prints the stored `forms` with
    `form_text`; the view `b` renders them as polynomials when first read.
    Cocycles compare by value and are unhashable on purpose.
    """

    __hash__ = None

    def __init__(self, context: CycleBasisContext, b: Mapping):
        super().__init__(context, _validated(context, b, abb_keys, 1, "cocycle"))

    b = cached_property(_Coefficients._rendered)

    @property
    def graph(self) -> MultiGraph:
        return self.context.graph

    @cached_property
    def cz_class(self) -> CZClass:
        """The class (delta_G - I)(v) via the closed form on forms, computed
        once per cocycle; `compute_w` returns it."""
        return CZClass._derived(self.context, image1_forms(self.context.q_forms, self.forms))

    def to_json_dict(self) -> dict:
        return {
            "graph": graph_to_json_dict(self.graph),
            "tree": list(self.context.tree),
            "b": [{"i": i, "j": j, "k": k, "poly": p} for (i, j, k), p in self._texts()],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "CeresaCocycle":
        """Raises ParseError for malformed data, before any graph check."""
        try:
            graph_data, tree = data["graph"], data.get("tree")
            if tree is not None:
                if not isinstance(tree, list):
                    raise TypeError("tree must be a list of edge ids")
                tree = [json_str(t) for t in tree]
            b = {(json_int(item["i"]), json_int(item["j"]), json_int(item["k"])):
                 parse_polynomial(item["poly"]) for item in data["b"]}
        except KeyError as exc:
            raise ParseError(f"bad cocycle JSON: missing key {exc}") from None
        except (AttributeError, TypeError, ValueError) as exc:
            raise ParseError(f"bad cocycle JSON: {exc}") from None
        graph, _ = graph_from_json_dict(graph_data)
        return cls(build_cycle_context(graph, tree_hint=tree), b)


@dataclass(frozen=True, init=False)
class CZClass(_Coefficients):
    """Class w with coefficients c[(r, s, t)] on b_r^b_s^b_t, r < s < t,
    homogeneous quadratic in the edge variables.  The decisions and
    `to_json_dict` read only the stored `forms`; the view `c` renders them
    as polynomials when first read.  Classes compare by value and are
    unhashable on purpose."""

    __hash__ = None

    def __init__(self, context: CycleBasisContext, c: Mapping):
        super().__init__(context, _validated(context, c, triple_indices, 2, "class"))

    c = cached_property(_Coefficients._rendered)

    def to_json_dict(self) -> dict:
        return {"c": [{"r": r, "s": s, "t": t, "poly": p} for (r, s, t), p in self._texts()]}


@dataclass(frozen=True)
class TrivialityVerdict:
    """Decision outcome with a replayable certificate.

    For algebraic methods a trivial verdict carries integer coefficients
    a[(i, j, k)] whose image under the squared twist map reproduces the
    tested class exactly; a non-trivial verdict records the infeasible
    system's shape.  For the minor classifier a non-trivial verdict carries
    the forbidden-minor witness.
    """

    trivial: bool
    method: str  # "graph-diophantine" | "curve-lattice" | "minor-theorem"
    certificate: dict | None = None
    witness: MinorWitness | None = None
    note: str | None = None

    def to_json_dict(self) -> dict:
        out = {"trivial": self.trivial, "method": self.method, "exact": True}
        if self.certificate is not None:
            out["certificate"] = _jsonable(self.certificate)
        if self.witness is not None:
            out["witness"] = self.witness.to_json_dict()
        if self.note:
            out["note"] = self.note
        out["replay_hash"] = self.replay_hash()
        return out

    def replay_hash(self) -> str:
        body = json_text(_jsonable({
            "trivial": self.trivial,
            "method": self.method,
            "certificate": self.certificate,
        }), compact=True)
        return hashlib.sha256(body.encode()).hexdigest()[:16]


def _jsonable(obj):
    if isinstance(obj, dict):
        return {_key_str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def _key_str(key) -> str:
    if isinstance(key, tuple):
        return ",".join(str(x) for x in key)
    return str(key)


# -- cocycle to class --------------------------------------------------------


def compute_w(v: CeresaCocycle) -> CZClass:
    """The Ceresa-Zharkov class (delta_G - I)(v), via the closed form."""
    return v.cz_class


# -- the squared-twist kernel ------------------------------------------------


@cache
def _twist_pattern(g: int) -> tuple[tuple[int, int, int, int], ...]:
    """Where the squared-twist generators are nonzero, at genus g.

    The unit a_i^a_j^b_k (i < j) reaches only the triples (r, s, t) that
    contain k, where image2_forms gives it the coefficient +2 M(s, t; i, j)
    if k = r, -2 M(r, t; i, j) if k = s and +2 M(r, s; i, j) if k = t.  Each
    entry is (column in aab_keys order, index in triple_indices, factor +-2,
    index of the minor in _q_minors).
    """
    pairs = {p: n for n, p in enumerate(combinations(range(1, g + 1), 2))}
    out = []
    for col, (i, j, k) in enumerate(aab_keys(g)):
        ij = pairs[(i, j)]
        for t, (r, s, u) in enumerate(triple_indices(g)):
            if k in (r, s, u):
                factor, other = {r: (2, (s, u)), s: (-2, (r, u)), u: (2, (r, s))}[k]
                out.append((col, t, factor, pairs[other] * len(pairs) + ij))
    return tuple(out)


def _q_minors(ctx: CycleBasisContext) -> list[Form]:
    """The 2x2 minors M(u, v; i, j) = q_ui q_vj - q_uj q_vi of Q for u < v
    and i < j, row pairs major, as quadratic forms keyed (a, b), a <= b."""
    lin = ctx.q_forms
    pairs = list(combinations(range(ctx.g), 2))
    minors = []
    for u, v in pairs:
        for i, j in pairs:
            form: dict[tuple[int, ...], int] = {}
            for x, y, sign in ((lin[u][i], lin[v][j], 1), (lin[u][j], lin[v][i], -1)):
                for (a,), ca in x.items():
                    for (b,), cb in y.items():
                        key = (a, b) if a <= b else (b, a)
                        form[key] = form.get(key, 0) + sign * ca * cb
            minors.append({key: c for key, c in form.items() if c})
    return minors


def _graph_system(ctx: CycleBasisContext, w: CZClass
                  ) -> tuple[int, list[list[int]], list[int]]:
    """The graph-level system: the number of equations, then the A rows and
    right-hand sides of the equations that can constrain a solution.

    The equations are triple-major over the sorted monomials of the minors
    and the class, one column per unit in aab_keys order, filled straight
    from the minors.  An equation whose A-row and right-hand side are both
    zero is a zero column of A^T, which never takes a pivot in the
    elimination, so dropping it leaves the solution unchanged.  A zero A-row
    with a nonzero right-hand side stays and makes the system infeasible.
    """
    minors = _q_minors(ctx)
    target = {t: w.forms[tr] for t, tr in enumerate(triple_indices(ctx.g)) if tr in w.forms}
    # form_text's order: by the first edge, then x_a x_b before x_a^2
    monos = sorted(set().union(*minors, *target.values()),
                   key=lambda ab: (ab[0], ab[0] == ab[1], ab[1]))
    row_of = {m: n for n, m in enumerate(monos)}
    width, n_units = len(monos), len(aab_keys(ctx.g))
    rows: dict[int, list[int]] = {}
    for col, t, factor, minor in _twist_pattern(ctx.g):
        for m, c in minors[minor].items():
            r = t * width + row_of[m]
            if r not in rows:
                rows[r] = [0] * n_units
            rows[r][col] = factor * c
    rhs = {t * width + row_of[m]: c for t, form in target.items() for m, c in form.items()}
    kept = sorted(rows.keys() | rhs.keys())
    zero = [0] * n_units
    return (len(triple_indices(ctx.g)) * width, [rows.get(r, zero) for r in kept],
            [rhs.get(r, 0) for r in kept])


# -- graph-level decision ----------------------------------------------------


def is_cz_trivial_graph(G: MultiGraph, v: CeresaCocycle) -> TrivialityVerdict:
    """Graph-level triviality: is the class of v an integer combination of
    squared-twist images of a_i^a_j^b_k wedges?

    Builds one linear equation per (triple, quadratic monomial) pair
    (`_graph_system`) and decides exact integer feasibility.  An equation
    with a zero A-row and a nonzero right-hand side makes the verdict
    non-trivial at once; otherwise `intlin.solve_diophantine` decides on
    the echelon form, and a trivial verdict is replayed through
    `image2_forms`.  The larger "psi" system, which also admits a^a^a
    generators modulo the embedded H, provably agrees for classes in the
    top filtration; it is kept with the tests as an oracle
    (`tests/ceresa_oracles.py`).
    """
    if v.context.graph != G:
        raise PreconditionError("cocycle context does not match the graph")
    ctx = v.context
    w = compute_w(v)
    if ctx.g < 3:
        # the top filtration stage vanishes, so every class is trivial
        return TrivialityVerdict(True, "graph-diophantine", certificate={"a": {}},
                                 note="genus < 3: top filtration stage is zero")
    units = aab_keys(ctx.g)
    n_equations, rows, rhs = _graph_system(ctx, w)
    infeasible = TrivialityVerdict(
        False, "graph-diophantine",
        certificate={"infeasible": True, "unknowns": len(units), "equations": n_equations})
    if any(b and not any(row) for row, b in zip(rows, rhs)):
        return infeasible
    result = intlin.solve_diophantine(intlin.IntMatrix.from_rows(rows, cols=len(units)), rhs)
    if not result.feasible:
        return infeasible
    a = {key: coeff for key, coeff in zip(units, result.solution) if coeff}
    if image2_forms(ctx.q_forms, {key: {(): c} for key, c in a.items()}) != w.forms:
        raise InvariantError("graph-level witness does not replay to the class")
    return TrivialityVerdict(True, "graph-diophantine", certificate={"a": a})


# -- curve-level decision ----------------------------------------------------


def specialize(w: CZClass, curve: TropicalCurve) -> list[int]:
    """Evaluate each class coefficient at the curve's edge lengths.

    Returns the integer vector over sorted triples (r < s < t).
    """
    if curve.graph != w.context.graph:
        raise PreconditionError("curve does not match the class's graph")
    lengths = [curve.lengths[e.id] for e in w.context.graph.edges]
    return [sum(c * prod(lengths[p] for p in key) for key, c in w.forms.get(tr, {}).items())
            for tr in triple_indices(w.context.g)]


def image_lattice(curve: TropicalCurve,
                  ctx: CycleBasisContext | None = None) -> list[list[int]]:
    """Hermite basis of the image lattice of the squared twist map at the
    curve's edge lengths, in coordinates over sorted triples (r < s < t).

    Every generator is even (the squared map carries a global factor 2).
    """
    if genus(curve.graph) < 3:
        return []
    if ctx is None:
        ctx = build_cycle_context(curve.graph)
    elif ctx.graph != curve.graph:
        raise PreconditionError("context does not match the curve's graph")
    gens = _specialized_generators(ctx, curve)
    return intlin.hnf_basis(gens.values())


def _specialized_generators(ctx: CycleBasisContext, curve: TropicalCurve
                            ) -> dict[tuple[int, int, int], list[int]]:
    """Each unit's squared-twist image at the curve's edge lengths, over
    sorted triples: the kernel's minors evaluated to integers."""
    lengths = [curve.lengths[e.id] for e in ctx.graph.edges]
    minors = [sum(c * lengths[a] * lengths[b] for (a, b), c in form.items())
              for form in _q_minors(ctx)]
    units = aab_keys(ctx.g)
    gens = [[0] * len(triple_indices(ctx.g)) for _ in units]
    for col, t, factor, minor in _twist_pattern(ctx.g):
        gens[col][t] = factor * minors[minor]
    return dict(zip(units, gens))


def is_cz_trivial_curve(curve: TropicalCurve, v: CeresaCocycle) -> TrivialityVerdict:
    """Curve-level triviality: membership of the specialized class in the
    specialized image lattice.

    The verdict is membership in a finite quotient (the specialized top
    filtration stage modulo the image lattice), so it can be trivial at
    special lengths while the graph-level class is not: K4 with x1 = 2 is
    trivial here although K4 is not of hyperelliptic type.  Subdivision
    transports Q and the class by x_f -> x_fa + x_fb, so the verdict is
    invariant under subdivision when the lengths of the halves add up to the
    length of the edge.
    """
    if curve.graph != v.context.graph:
        raise PreconditionError("curve does not match the cocycle's graph")
    ctx = v.context
    if ctx.g < 3:
        return TrivialityVerdict(True, "curve-lattice", certificate={"a": {}},
                                 note="genus < 3: top filtration stage is zero")
    target = specialize(compute_w(v), curve)
    gens = _specialized_generators(ctx, curve)
    result = intlin.solve_diophantine(
        intlin.IntMatrix.from_rows(gens.values()).transpose(), target)
    if not result.feasible:
        return TrivialityVerdict(
            False, "curve-lattice",
            certificate={"infeasible": True, "target": target,
                         "lattice_hnf": result.basis})
    a = {u: c for u, c in zip(gens, result.solution) if c}
    replay = [0] * len(target)
    for u, c in a.items():
        replay = [r + c * x for r, x in zip(replay, gens[u])]
    if replay != target:
        raise InvariantError("curve-level witness does not replay to the class")
    return TrivialityVerdict(True, "curve-lattice", certificate={"a": a})


# -- pushforwards ------------------------------------------------------------


def pushforward_contract(v: CeresaCocycle, edge_id: str) -> CeresaCocycle:
    """Transport the cocycle along contraction of a non-loop tree edge.

    Drops the contracted edge's position from every form (x_f -> 0),
    shifts each later position down by one, and rebuilds the context on
    the contracted graph with the induced tree, so the basis cycles and
    indices carry over unchanged.  Commutes with taking classes: killing
    the variable before or after (delta - I) gives the same result.
    """
    ctx = v.context
    # refuses an unknown edge and a loop, which no spanning tree contains
    contracted = contract_edge(ctx.graph, edge_id)
    if edge_id not in ctx.tree:
        raise PreconditionError(
            f"edge {edge_id!r} is not in the context's spanning tree; "
            "rebuild the context with a tree containing it first")
    new_tree = [t for t in ctx.tree if t != edge_id]
    new_ctx = build_cycle_context(contracted, tree_hint=new_tree,
                                  basis_order=ctx.basis_edges())
    gone = ctx.graph.edge_ids().index(edge_id)
    new_forms = {}
    for key, form in v.forms.items():
        moved = {(p - (p > gone),): c for (p,), c in form.items() if p != gone}
        if moved:
            new_forms[key] = moved
    return CeresaCocycle._derived(new_ctx, new_forms)


def pushforward_subdivide(v: CeresaCocycle, edge_id: str) -> CeresaCocycle:
    """Transport the cocycle along subdivision of an edge into halves.

    The halves are named <id>a and <id>b; the first half takes over the
    edge's role (basis slot or tree membership) and the second half joins
    the tree.  Coefficients substitute x_f -> x_fa + x_fb: each position
    moves to its edge's position in the subdivided graph, where the halves
    need not be adjacent (2a < 2a0 < 2b), and f's coefficient goes to both.
    """
    ctx = v.context
    divided = subdivide_edge(ctx.graph, edge_id)
    id1, id2 = edge_id + "a", edge_id + "b"
    if edge_id in ctx.tree:
        new_tree = [t for t in ctx.tree if t != edge_id] + [id1, id2]
        new_basis = list(ctx.basis_edges())
    else:
        new_tree = list(ctx.tree) + [id2]
        new_basis = [id1 if b == edge_id else b for b in ctx.basis_edges()]
    new_ctx = build_cycle_context(divided, tree_hint=new_tree, basis_order=new_basis)
    pos = {e.id: n for n, e in enumerate(divided.edges)}
    # each old position's positions in the subdivided graph: f's are both halves'
    move = [(pos[id1], pos[id2]) if e.id == edge_id else (pos[e.id],)
            for e in ctx.graph.edges]
    new_forms = {key: {(q,): c for (p,), c in form.items() for q in move[p]}
                 for key, form in v.forms.items()}
    return CeresaCocycle._derived(new_ctx, new_forms)


# -- minor-theoretic classifier ----------------------------------------------


def classify(G: MultiGraph) -> TrivialityVerdict:
    """Decide triviality of the graph itself by the forbidden-minor route.

    One block decomposition of G finds the first block with a K4 or an L3
    minor and names the pattern (`_first_pattern`): K4 when that block has
    one, else L3.  The witness walk then runs once, on G itself, so that it
    replays there.
    """
    if genus(G) < 2:
        raise PreconditionError(f"classify needs genus >= 2, got {genus(G)}")
    pattern = _first_pattern(G, 3)
    if pattern is None:
        return TrivialityVerdict(True, "minor-theorem",
                                 note="no K4 or L3 minor: hyperelliptic type")
    witness = _witness(G, pattern)
    if not witness.verify(G):
        raise InvariantError("block test found a minor but no witness replays on G")
    return TrivialityVerdict(False, "minor-theorem", witness=witness,
                             note=f"{pattern} minor found: not hyperelliptic type")


# -- pinned fixtures ---------------------------------------------------------


def k4_graph() -> MultiGraph:
    """K4 with the pinned labeling: tree edges 4, 5, 6 star the hub vertex 1."""
    return MultiGraph(
        ["1", "2", "3", "4"],
        [("1", "3", "4"), ("2", "4", "2"), ("3", "2", "3"),
         ("4", "1", "2"), ("5", "1", "3"), ("6", "1", "4")])


def k4_context() -> CycleBasisContext:
    return build_cycle_context(k4_graph(), tree_hint=["4", "5", "6"])


def l3_graph() -> MultiGraph:
    """L3 (doubled triangle) with the pinned labeling: parallel pairs
    (1, 6), (2, 5), (3, 4); tree edges 5 and 6."""
    return MultiGraph(
        ["1", "2", "3"],
        [("1", "3", "2"), ("2", "2", "1"), ("3", "3", "1"),
         ("4", "3", "1"), ("5", "1", "2"), ("6", "2", "3")])


def l3_context() -> CycleBasisContext:
    return build_cycle_context(l3_graph(), tree_hint=["5", "6"])


V_TAU_K4 = CeresaCocycle(k4_context(), {
    (1, 1, 2): parse_polynomial("x2"),
    (2, 1, 2): parse_polynomial("-x5"),
    (2, 2, 3): parse_polynomial("-x5"),
    (2, 1, 3): parse_polynomial("x5"),
})
V_TAU_L3 = CeresaCocycle(l3_context(), {
    (2, 2, 3): parse_polynomial("x6"),
    (2, 2, 4): parse_polynomial("x6"),
    (2, 1, 2): parse_polynomial("-x6"),
    (1, 1, 2): parse_polynomial("-x5"),
    (1, 1, 3): parse_polynomial("-x5"),
    (1, 1, 4): parse_polynomial("-x5"),
})

BUILTIN_COCYCLES = {"K4": V_TAU_K4, "L3": V_TAU_L3}
