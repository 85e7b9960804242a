"""The graph-level "psi" system: a second route to the graph-level verdict
that `czgraph.ceresa.is_cz_trivial_graph` is checked against.

The psi system asks whether the class lies in psi_G(L/H) over a^a^b and
a^a^a generators: a larger system than the decision's, which admits only
a^a^b.  The two provably agree for classes in the top filtration (see
`solve_psi`), so nothing decides with it; it is kept because it reaches the
verdict a different way.  Its columns are closed forms over Q, and
`tests/test_ceresa.py` checks each one against the element-level maps of
`tests/extalg_oracles.py`.
"""

from __future__ import annotations

from itertools import combinations

from czgraph.ceresa import CZClass, _q_minors, _twist_pattern
from czgraph.extalg import aab_keys, triple_indices
from czgraph.graph import CycleBasisContext
from czgraph.intlin import IntMatrix, solve_diophantine
from czgraph.polyring import form_text, to_form

from poly_oracles import render_order


def psi_system(ctx: CycleBasisContext, w: CZClass
               ) -> tuple[list[tuple], list[tuple], list[list[int]], list[int]]:
    """The psi system: its equations as sorted (wedge triple, monomial)
    keys, its unknowns, the A rows and the right-hand sides.

    The unknowns are ("a", (i, j, k)) in aab_keys order, ("d", (i, j, k))
    for i < j < k, and ("h", (l, m)) for each l and each quadratic monomial
    m in the order `form_text` prints terms.  Each column is a closed form
    over Q.  With Qa_i = sum_r q_ri b_r and M the 2x2 minors of `_q_minors`:

    * a: the squared twist of a_i^a_j^b_k, the entries of
      `czgraph.ceresa._graph_system`;
    * d: psi_G(a_i^a_j^a_k) = 2(Qa_i^Qa_j^a_k + Qa_i^a_j^Qa_k + a_i^Qa_j^Qa_k)
      + 3 Qa_i^Qa_j^Qa_k, which is +2 M(r, s; i, j) on a_k^b_r^b_s,
      -2 M(r, s; i, k) on a_j^b_r^b_s, +2 M(r, s; j, k) on a_i^b_r^b_s and
      3 det Q[r, s, t; i, j, k] on b_r^b_s^b_t (expanded along row r);
    * h: -m (omega ^ b_l), where omega ^ b_l = sum_{j != l} b_l^a_j^b_j, so
      +1 on (a_j^b_l^b_j, m) for l < j and -1 on (a_j^b_j^b_l, m) for l > j.

    The equations are the (triple, monomial) pairs that some column or the
    class reaches, sorted by the text of the labels and then of the
    monomial.  That order and the order of the unknowns fix the Hermite
    form's row swaps, and so the certificate.
    """
    g = ctx.g
    ids = [e.id for e in ctx.graph.edges]
    pos = {e: n for n, e in enumerate(ids)}
    lin = [[to_form(q, pos) for q in row] for row in ctx.Q]
    minors = _q_minors(ctx)
    pairs = list(combinations(range(1, g + 1), 2))
    index = {p: n for n, p in enumerate(pairs)}

    def minor(r, s, i, j):
        return minors[index[r, s] * len(pairs) + index[i, j]]

    triples = triple_indices(g)
    bbb = [tuple(("b", x) for x in tr) for tr in triples]
    units = [("a", key) for key in aab_keys(g)] + [("d", key) for key in triples]
    columns: dict[tuple, dict[int, int]] = {}

    def put(triple, form, col, factor):
        for m, c in form.items():
            columns.setdefault((triple, m), {})[col] = factor * c

    for col, t, factor, n in _twist_pattern(g):
        put(bbb[t], minors[n], col, factor)
    for col, (i, j, k) in enumerate(triples, start=len(aab_keys(g))):
        for r, s in pairs:
            for a, other, factor in ((k, (i, j), 2), (j, (i, k), -2), (i, (j, k), 2)):
                put((("a", a), ("b", r), ("b", s)), minor(r, s, *other), col, factor)
        for t, (r, s, u) in enumerate(triples):
            det: dict[tuple[int, ...], int] = {}
            for q, other, sign in ((i, (j, k), 1), (j, (i, k), -1), (k, (i, j), 1)):
                for (e,), cq in lin[r - 1][q - 1].items():
                    for (x, y), cm in minor(s, u, *other).items():
                        key = tuple(sorted((e, x, y)))
                        det[key] = det.get(key, 0) + sign * cq * cm
            put(bbb[t], {m: c for m, c in det.items() if c}, col, 3)
    target = {(bbb[t], m): c for t, tr in enumerate(triples) if tr in w.c
              for m, c in to_form(w.c[tr], pos).items()}
    for key in target:
        columns.setdefault(key, {})
    mono = {m: tuple(ids[x] for x in m) for _, m in columns}
    quadratic = sorted({m for _, m in columns if len(m) == 2},
                       key=lambda m: render_order(mono[m]))
    for l in range(1, g + 1):
        for m in quadratic:
            units.append(("h", (l, mono[m])))
            for j in range(1, g + 1):
                if j != l:
                    triple = (("a", j), ("b", min(j, l)), ("b", max(j, l)))
                    columns.setdefault((triple, m), {})[len(units) - 1] = 1 if l < j else -1
    keys = sorted(columns, key=lambda km: (tuple(map(str, km[0])), form_text({km[1]: 1}, ids)))
    rows = [[0] * len(units) for _ in keys]
    for row, key in zip(rows, keys):
        for col, c in columns[key].items():
            row[col] = c
    return ([(triple, mono[m]) for triple, m in keys], units, rows,
            [target.get(key, 0) for key in keys])


def solve_psi(ctx: CycleBasisContext, w: CZClass
              ) -> tuple[bool, dict[tuple[int, int, int], int],
                         dict[tuple[int, int, int], int]]:
    """Whether w lies in psi_G(L/H), and the nonzero a and d parts of the
    solution (both empty when it does not).

    Unknowns: integers a_ijk (i<j; k) and d_ijk (i<j<k), plus the
    coefficients of an H-element h (beta block, quadratic monomials) that
    absorbs the two-Y-label part of psi(a^a^a) modulo H (`psi_system`).
    The system splits into the main system on a and a homogeneous block on
    (d, h): a and w reach only b^b^b equations with quadratic monomials, d
    reaches b^b^b equations with cubic monomials and a^b^b equations, and h
    only the latter.  The Hermite form of A^T combines two rows only where
    both are nonzero in one column, so it never mixes the blocks, and the
    zero right-hand side of the homogeneous block gives d = 0.  Feasibility
    therefore coincides with the graph-level decision's.
    """
    keys, units, rows, rhs = psi_system(ctx, w)
    result = solve_diophantine(IntMatrix.from_rows(rows, cols=len(units)), rhs)
    if not result.feasible:
        return False, {}, {}
    a = {key: c for (kind, key), c in zip(units, result.solution) if kind == "a" and c}
    d = {key: c for (kind, key), c in zip(units, result.solution) if kind == "d" and c}
    return True, a, d
