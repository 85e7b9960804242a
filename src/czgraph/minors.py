"""Forbidden-minor machinery: K4/L3 detection with replayable witnesses,
graph canonical forms, and enumeration of stable multigraphs.

K4 is the complete graph on four vertices; L3 is the triangle with every
edge doubled ("loop of 3 loops", genus 4).  A connected graph is of
hyperelliptic type exactly when it has neither as a minor.

Every decision is one series-parallel reduction, `_reduce`, and searches
nothing: a graph has no K4 minor exactly when it is series-parallel
(Duffin 1965), and a block without one has L3 exactly when a cycle node of
its decomposition has three virtual edges (Valdes-Tarjan-Lawler 1982).  K4
is decided on the whole graph (`has_k4_minor_fast`); L3, hyperelliptic
type and the pattern `classify` names, on the blocks (`_first_pattern`).

A witness is found by one pass over the edges (`_witness`): each is
contracted if that keeps the pattern, else deleted if that does, else kept,
the operations a depth-first search over the single-step minors would take.

Canonical forms use individualization-refinement (McKay-Piperno 2014).
Enumeration is orderly and uses neither them nor a set of seen classes: it
keeps, of each class, the degree-ordered labelling whose slot vector is
maximal, and emits classes in the walk order of those labellings
(`enumerate_graphs`).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Iterator

from .graph import (Edge, GraphError, InvariantError, MultiGraph,
                    PreconditionError, _without, block_parts, bridges,
                    contract_edge, delete_edge, genus)

PATTERNS = ("K4", "L3")


# -- canonical forms -------------------------------------------------------


def _ranks(keys: list) -> list[int]:
    """Each key's position among the distinct keys, in sorted order."""
    rank = {key: i for i, key in enumerate(sorted(set(keys)))}
    return [rank[key] for key in keys]


def _refine(adj: list[dict[int, int]], colors: list[int]) -> list[int]:
    """Refine a vertex coloring until it is equitable.

    Colors are ranks.  A vertex's new color is the rank of its color
    together with the multiset of (neighbor color, multiplicity); cells only
    split and keep their order, and nothing depends on vertex labels.
    """
    while True:
        new = _ranks([(colors[v], tuple(sorted((colors[w], m) for w, m in nbrs.items())))
                      for v, nbrs in enumerate(adj)])
        if new == colors:
            return colors
        colors = new


def canonical_form(g: MultiGraph) -> tuple:
    """Hashable certificate, equal for two graphs iff they are isomorphic.

    Individualization-refinement: refine the coloring by loop count and
    valence; at each node individualize, in turn, every vertex of the first
    smallest non-singleton cell and refine again.  The form is the least
    sorted (loop-count, edge-multiset) encoding over the discrete leaves.
    The search tree depends only on the graph's structure, so isomorphic
    graphs reach the same set of encodings.
    """
    verts = g.sorted_vertices()
    n = len(verts)
    vidx = {v: i for i, v in enumerate(verts)}
    adj: list[dict[int, int]] = [dict() for _ in range(n)]
    loops = [0] * n
    for e in g.edges:
        a, b = vidx[e.tail], vidx[e.head]
        if a == b:
            loops[a] += 1
        else:
            adj[a][b] = adj[a].get(b, 0) + 1
            adj[b][a] = adj[b].get(a, 0) + 1

    best: tuple | None = None
    todo = [_refine(adj, _ranks([(loops[v], sum(adj[v].values())) for v in range(n)]))]
    while todo:
        colors = todo.pop()
        cells = [(size, c) for c, size in Counter(colors).items() if size > 1]
        if cells:
            # individualize: split v off the front of the target cell
            target = min(cells)[1]
            todo.extend(_refine(adj, _ranks([(c, w != v) for w, c in enumerate(colors)]))
                        for v in range(n) if colors[v] == target)
            continue
        enc_loops = tuple(sorted((colors[v], loops[v]) for v in range(n) if loops[v]))
        enc_edges = tuple(sorted((*sorted((colors[a], colors[b])), m)
                                 for a in range(n) for b, m in adj[a].items() if a < b))
        enc = (n, enc_loops, enc_edges)
        if best is None or enc < best:
            best = enc
    return best


# -- pattern predicates -----------------------------------------------------


def _pair_counts(g: MultiGraph) -> list[int] | None:
    """Sorted vertex-pair multiplicities of g if it has six edges and no loop, else None."""
    if len(g.edges) != 6 or any(e.is_loop() for e in g.edges):
        return None
    return sorted(Counter(frozenset((e.tail, e.head)) for e in g.edges).values())


def is_k4(g: MultiGraph) -> bool:
    """Exactly K4: four vertices, six edges, simple, all valences 3."""
    return len(g.vertices) == 4 and _pair_counts(g) == [1] * 6


def is_l3(g: MultiGraph) -> bool:
    """Exactly L3: three vertices, each pair joined by exactly two edges."""
    return len(g.vertices) == 3 and _pair_counts(g) == [2, 2, 2]


_IS_PATTERN = {"K4": is_k4, "L3": is_l3}


# -- the series-parallel reduction -----------------------------------------


def _reduce(vs: Iterable[str], es: Iterable[Edge]) -> str | None:
    """"K4" if the graph on vertices `vs` and edges `es` has a K4 minor;
    else, on a block, "L3" if it has an L3 minor; else None.

    One series-parallel reduction, run until two vertices are left: loops
    are skipped, a vertex with at most one neighbour is removed, two
    elements joining the same two vertices collapse into one (parallel
    step), and a vertex with two neighbours is smoothed (series step).  A
    graph has no K4 minor iff it is series-parallel (Duffin 1965), iff the
    steps reach two vertices; a stall leaves minimum simple degree >= 3, a
    K4 minor.

    A block of genus >= 2 is loopless and 2-connected, and the series and
    parallel steps keep it so: while three vertices are left, each has two
    neighbours, and the loop and pendant steps never fire.  Without a K4
    minor it splits into cycle nodes and bond nodes joined by virtual edges
    (Valdes-Tarjan-Lawler 1982), and holds L3 iff some cycle node has three
    virtual edges.  Each leads to a bond node, two internally disjoint
    paths between its ends, so contracting the cycle's arcs between three of
    them gives L3.  Contraction and deletion keep every count <= 2: a bond
    node that dissolves merges the two cycle nodes it joined, of counts a
    and b, into one of (a - 1) + (b - 1).  L3 has a count of 3.

    An element's t counts the thick pieces (parallel steps' results) in its
    series chain: the virtual edges it holds of its cycle node.  An edge has
    t = 0; a series step adds.  A parallel step before the last two vertices
    makes a bond node whose far side is the rest of the block: an element
    with t >= 2 closes a cycle node with t + 1 >= 3, and the bond becomes
    one element with t = 1.  At the last two vertices two elements form a
    cycle node with t1 + t2; a bond collapsed between them before has
    t = 1, so the other element closes a count of 3 iff its t >= 2, as at
    any bond.  A block of two vertices holds only edges, t = 0.  Off a block
    a vertex pair may separate, the far side is not the rest, and t means
    nothing: only "K4" is read there.

    The reduction runs on after a count reaches 3.  On a block of genus >= 4
    a K4 minor implies L3, so a count may come before the stall: K4 is
    cubic, so the block holds a subdivided K4, S, and (2-connected, genus
    >= 4) an S-path with distinct ends: at two branch vertices; at a branch
    vertex and a point of an incident or a disjoint edge; or at points of
    the same, adjacent or disjoint edges.  These six contract to K4 plus a
    parallel edge, W4, the prism or K3,3, and each of those to L3.  Only
    the stall tells such a block from one that holds L3 alone.
    """
    ts: dict[str, dict[str, int]] = {v: {} for v in vs}  # ts[u][v] = ts[v][u] = t
    l3 = False

    def join(a: str, c: str, t: int) -> None:
        nonlocal l3
        old = ts[a].get(c)
        if old is not None:  # parallel step
            l3 = l3 or (max(old, t) >= 2 if len(ts) > 2 else old + t >= 3)
            t = 1
        ts[a][c] = ts[c][a] = t
    for _, tail, head in es:
        if tail != head:
            join(tail, head, 0)
    todo = list(ts)
    while len(ts) > 2:
        if not todo:
            return "K4"
        v = todo.pop()
        nbrs = ts.get(v)
        if nbrs is None or len(nbrs) > 2:
            continue
        del ts[v]
        for a in nbrs:
            del ts[a][v]
        if len(nbrs) == 2:  # series step; else pendant step
            (a, ta), (c, tc) = nbrs.items()
            join(a, c, ta + tc)
        todo += nbrs
    return "L3" if l3 else None


def has_k4_minor_fast(g: MultiGraph) -> bool:
    """K4-minor test: one series-parallel reduction of the whole graph
    (`_reduce`), with no block decomposition."""
    return _reduce(g.vertices, g.edges) == "K4"


def _first_pattern(g: MultiGraph, min_genus: int) -> str | None:
    """`_reduce` on the first block of g of genus >= min_genus, in
    `block_parts` order, that has a K4 or an L3 minor; None if none has.

    Both patterns are 2-connected, so each is a minor of g iff it is a
    minor of a block, of genus >= 3 for K4 and >= 4 for L3.  One block
    decomposition, one reduction per block, no witness.
    """
    if genus(g) < min_genus:
        return None
    return next(filter(None, (_reduce(vs, es) for vs, es in block_parts(g, min_genus))), None)


def is_hyperelliptic_type(g: MultiGraph) -> bool:
    """No K4 and no L3 minor (`_first_pattern`)."""
    return _first_pattern(g, 3) is None


# -- minor search with witnesses --------------------------------------------


@dataclass(frozen=True)
class MinorWitness:
    """Replayable minor map: contract/delete the listed edges in order."""

    pattern: str
    ops: tuple[tuple[str, str], ...]  # ("contract"|"delete", edge_id)

    @property
    def contraction_set(self) -> tuple[str, ...]:
        return tuple(eid for op, eid in self.ops if op == "contract")

    @property
    def deletion_set(self) -> tuple[str, ...]:
        return tuple(eid for op, eid in self.ops if op == "delete")

    def replay(self, g: MultiGraph) -> MultiGraph:
        for op, eid in self.ops:
            g = contract_edge(g, eid) if op == "contract" else delete_edge(g, eid)
        return g

    def verify(self, g: MultiGraph) -> bool:
        try:
            result = self.replay(g)
        except GraphError:
            return False
        return _IS_PATTERN[self.pattern](result)

    def to_json_dict(self) -> dict:
        return {"pattern": self.pattern,
                "ops": [[op, eid] for op, eid in self.ops],
                "contract": list(self.contraction_set),
                "delete": list(self.deletion_set)}


# Never filled: no search is left to cache; the benchmark still reads it.
_negative_cache: dict[tuple, bool] = {}


def clear_minor_cache() -> None:
    _negative_cache.clear()


def _contains(g: MultiGraph, pattern: str) -> bool:
    """Exact decision: is `pattern` a minor of g?  K4 on the whole graph,
    L3 on its blocks of genus >= 4, where a K4 minor implies L3 (`_reduce`).
    """
    if pattern == "K4":
        return genus(g) >= 3 and has_k4_minor_fast(g)
    return _first_pattern(g, 4) is not None


def _witness(g: MultiGraph, pattern: str) -> MinorWitness:
    """The witness of a `pattern` minor that g is known to have.

    One pass over g's edges in edge order, each read again from the current
    graph (an edge parallel to a contracted one is a loop), until only the
    six edges of an exact copy are left: contract a non-loop edge if that
    keeps the pattern, else delete it if that does, else keep it.  A walk to
    the first single-step minor (`single_step_minors` order) keeping the
    pattern takes the same steps: an edge that fails stays failed (a later
    graph is a minor of g that still has it, and operations on different
    edges commute), and a bridge is never deleted (both patterns are
    2-connected, so its contraction keeps them, and every graph stays connected).
    """
    ops = []
    for eid in g.edge_ids():
        if len(g.edges) == 6:
            break
        if not g.edge(eid).is_loop() and _contains(child := contract_edge(g, eid), pattern):
            ops.append(("contract", eid))
            g = child
        elif _contains(child := _without(g, g.edge(eid)), pattern):
            ops.append(("delete", eid))
            g = child
    if not _IS_PATTERN[pattern](g):
        raise InvariantError(f"{pattern} minor decided but the pass ended at {g!r}")
    return MinorWitness(pattern, tuple(ops))


def has_minor(g: MultiGraph, pattern: str) -> tuple[bool, MinorWitness | None]:
    """Decide whether `pattern` (K4 or L3) is a minor of g (`_contains`),
    with a witness (`_witness`) when it is."""
    if pattern not in PATTERNS:
        raise PreconditionError(f"unknown pattern {pattern!r}; choose from {PATTERNS}")
    if not _contains(g, pattern):
        return False, None
    return True, _witness(g, pattern)


# -- enumeration of stable multigraphs --------------------------------------


def _slot_list(n: int) -> list[tuple[int, int]]:
    slots = [(v, v) for v in range(n)]
    slots += [(u, v) for u in range(n) for v in range(u + 1, n)]
    slots.sort()
    return slots


def _connected_mult(n: int, slots: list[tuple[int, int]], mult: list[int]) -> bool:
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for (u, v), m in zip(slots, mult):
        if m and u != v:
            parent[find(u)] = find(v)
    return len({find(v) for v in range(n)}) == 1


def _degree_ordered(n: int, slots: list[tuple[int, int]],
                    total: int) -> Iterator[tuple[int, ...]]:
    """Multiplicities for `slots` with `total` edges in all whose valences
    are >= 3 and do not increase from vertex 0 to vertex n - 1.

    Depth first, slot by slot.  Row u of the slot order ends with (u, n-1),
    and val[u] is final there.  Three prunes cut the walk: inside row u, m
    stops rising once val[u] > val[u-1] (val[u] only grows with m); a row
    ends only with val[u] >= 3; and no branch is taken whose vertices lack
    more valence than twice the edges left can add.  Either of the last two
    alone keeps every yield stable; together they halve the walk.  The
    rows before u have ended with valence >= 3, so the lack over all
    vertices, `short`, is the lack from u on; a slot changes it only at its
    two ends, so each call passes it down instead of summing it again.
    """
    mult = [0] * len(slots)
    val = [0] * n
    lack = [3, 2, 1] + [0] * (2 * total)  # lack[x] = max(0, 3 - x)

    def walk(i: int, left: int, short: int) -> Iterator[tuple[int, ...]]:
        if short > 2 * left:
            return
        u, v = slots[i]
        last = i + 1 == len(slots)
        base_u, base_v = val[u], val[v]
        # the lack of every vertex but u and v
        rest = short - lack[base_u] - (lack[base_v] if u != v else 0)
        for m in (left,) if last else range(left + 1):
            val[v] = base_v + m
            val[u] = base_u + (2 * m if u == v else m)
            if u and val[u] > val[u - 1]:
                break
            if v == n - 1 and val[u] < 3:
                continue
            mult[i] = m
            if last:
                yield tuple(mult)
            else:
                yield from walk(i + 1, left - m,
                                rest + lack[val[u]] + (lack[val[v]] if u != v else 0))
        mult[i] = 0
        val[u], val[v] = base_u, base_v

    yield from walk(0, total, 3 * n)


def _is_maximal(n: int, slots: list[tuple[int, int]], mult: tuple[int, ...]) -> bool:
    """Whether no relabelling that permutes vertices within equal-valence
    blocks gives `mult` a lexicographically greater slot vector.

    Backtracking places p[0], p[1], ... (the old vertex that takes each new
    label) in order.  Row 0 of the relabelled vector is compared entry by
    entry as each vertex is placed: a greater entry ends the search, a
    smaller one skips the branch.  The other rows are compared once p is
    complete.
    """
    a = [[0] * n for _ in range(n)]
    for (u, v), m in zip(slots, mult):
        a[u][v] = a[v][u] = m
    row0 = a[0]
    val = [sum(row) + row[k] for k, row in enumerate(a)]  # a loop counts twice
    block = [[w for w in range(n) if val[w] == val[k]] for k in range(n)]
    rest = list(zip(slots[n:], mult[n:]))  # row 0 is the first n slots
    p = [0] * n
    used = [False] * n

    def beaten(k: int) -> bool:
        if k == n:
            for (i, j), m in rest:
                x = a[p[i]][p[j]]
                if x != m:
                    return x > m
            return False
        for w in block[k]:
            if used[w]:
                continue
            x = a[p[0]][w] if k else a[w][w]
            if x > row0[k]:
                return True
            if x == row0[k]:
                p[k], used[w] = w, True
                if beaten(k + 1):
                    return True
                used[w] = False
        return False

    return not beaten(0)


def enumerate_graphs(max_edges: int) -> Iterator[MultiGraph]:
    """All isomorphism classes of connected stable multigraphs, each once.

    Stable means every valence >= 3 (loops counting twice), which forces
    genus >= 2; the degenerate single-vertex edgeless graph is excluded.

    Orderly generation (Read 1978; Faradzev 1978; McKay 1998): every class
    has a labelling with val(1) >= val(2) >= ... >= val(n), and
    `_degree_ordered` walks every stable one.  Two such labellings of one
    graph differ by a permutation within equal-valence blocks, so each
    class has exactly one slot vector that is maximal over those
    permutations (`_is_maximal`), and the walk meets it once.  No set of
    seen classes is kept, and a graph is built only for that labelling.
    Emission order is deterministic: by vertex count, then edge count, then
    the walk position of each class's maximal labelling.
    """
    max_vertices = max(1, (2 * max_edges) // 3)
    for n in range(1, max_vertices + 1):
        slots = _slot_list(n)
        for total in range(max(2, n), max_edges + 1):
            if total - n + 1 < 2:
                continue
            for mult in _degree_ordered(n, slots, total):
                if not (_connected_mult(n, slots, mult) and _is_maximal(n, slots, mult)):
                    continue
                edges = []
                eid = 1
                for (u, v), m in zip(slots, mult):
                    for _ in range(m):
                        edges.append(Edge(str(eid), str(u + 1), str(v + 1)))
                        eid += 1
                # ids 1..m rise with idkey; _connected_mult checked the rest
                yield MultiGraph._derived(frozenset(str(v + 1) for v in range(n)), edges)


def single_step_minors(g: MultiGraph) -> Iterator[tuple[str, str, MultiGraph]]:
    """All connected one-operation minors: (op, edge_id, result), edge by
    edge in edge order, each edge's contraction before its deletion."""
    separating = set(bridges(g))
    for e in g.edges:
        if not e.is_loop():
            yield "contract", e.id, contract_edge(g, e.id)
        if e.id not in separating:
            yield "delete", e.id, _without(g, e)
