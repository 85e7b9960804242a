"""Forbidden-minor machinery: K4/L3 detection with replayable witnesses,
graph canonical forms, and enumeration of stable multigraphs.

K4 is the complete graph on four vertices; L3 is the triangle with every
edge doubled ("loop of 3 loops", genus 4).  A connected graph is of
hyperelliptic type exactly when it has neither as a minor.

The witness walk rests on an exact decision that searches nothing.  K4 is
decided by series-parallel reduction (a graph has no K4 minor exactly when
it is series-parallel, Duffin 1965), and L3 block by block (`_contains`).

A witness is found by a guided walk on the unreduced graph: each step scans
the single-step minors in a fixed order and moves to the first one the
oracle accepts.  Non-loop contractions and non-bridge deletions reach every
connected minor, so the walk never stalls and returns the same operations
as a depth-first search over that order would.

Canonical forms use individualization-refinement (McKay-Piperno 2014).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import combinations_with_replacement
from typing import Iterator

from .graph import (Edge, GraphError, InvariantError, MultiGraph,
                    PreconditionError, blocks, bridges, contract_edge,
                    delete_edge, genus)
from .polyring import idkey

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


def is_k4(g: MultiGraph) -> bool:
    """Exactly K4: four vertices, six edges, simple, all valences 3."""
    if len(g.vertices) != 4 or len(g.edges) != 6:
        return False
    if any(e.is_loop() for e in g.edges):
        return False
    pairs = {frozenset((e.tail, e.head)) for e in g.edges}
    return len(pairs) == 6


def is_l3(g: MultiGraph) -> bool:
    """Exactly L3: three vertices, each pair joined by exactly two edges."""
    if len(g.vertices) != 3 or len(g.edges) != 6:
        return False
    if any(e.is_loop() for e in g.edges):
        return False
    count: dict[frozenset, int] = {}
    for e in g.edges:
        key = frozenset((e.tail, e.head))
        count[key] = count.get(key, 0) + 1
    return len(count) == 3 and all(m == 2 for m in count.values())


_IS_PATTERN = {"K4": is_k4, "L3": is_l3}


# -- fast K4 test (series-parallel reduction) -------------------------------


def has_k4_minor_fast(g: MultiGraph) -> bool:
    """K4-minor test by degree-<=2 reduction of the underlying simple graph.

    A graph has no K4 minor iff it reduces to nothing by repeatedly deleting
    loops/parallels and eliminating vertices of degree <= 2 (treewidth <= 2);
    a simple graph with minimum degree >= 3 always contains a K4 minor.
    """
    adj: dict[str, set[str]] = {v: set() for v in g.vertices}
    for e in g.edges:
        if not e.is_loop():
            adj[e.tail].add(e.head)
            adj[e.head].add(e.tail)
    changed = True
    while changed:
        changed = False
        for v in list(adj):
            deg = len(adj[v])
            if deg <= 1:
                for w in adj[v]:
                    adj[w].discard(v)
                del adj[v]
                changed = True
            elif deg == 2:
                a, b = sorted(adj[v], key=idkey)
                adj[a].discard(v)
                adj[b].discard(v)
                del adj[v]
                if a != b:
                    adj[a].add(b)
                    adj[b].add(a)
                changed = True
    return bool(adj)


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
    """Exact decision: is `pattern` a minor of g?

    L3 is 2-connected, so it is a minor of g iff it is a minor of a block
    of genus >= 4.  Such a block b is loopless, and:

    * With a K4 minor, b contains L3.  K4 is cubic, so b holds a subdivided
      K4, S, and (2-connected, genus >= 4) an S-path with distinct ends: at
      two branch vertices; at a branch vertex and a point of an incident or
      a disjoint edge; or at points of the same, adjacent or disjoint edges.
      These six contract to K4 plus a parallel edge, W4, the prism or K3,3,
      and each of those to L3.
    * Without one, b splits into cycle nodes and bond nodes joined by
      virtual edges (Valdes-Tarjan-Lawler 1982), and contains L3 iff some
      cycle node has three virtual edges.  Each leads to a bond node, two
      internally disjoint paths between its ends, so contracting the
      cycle's arcs between three of them gives L3.  Contraction and deletion
      keep every count <= 2: a bond node that dissolves merges the two cycle
      nodes it joined, of counts a and b, into one of (a - 1) + (b - 1).
      L3 has a count of 3.
    """
    if pattern == "K4":
        return genus(g) >= 3 and has_k4_minor_fast(g)
    return genus(g) >= 4 and any(_block_contains_l3(b) for b in blocks(g) if genus(b) >= 4)


def _block_contains_l3(b: MultiGraph) -> bool:
    """L3 test on a block of genus >= 4, by one series-parallel reduction.

    An element's t counts the thick pieces (parallel steps' results) in its
    series chain: the virtual edges it holds of its cycle node.  An edge has
    t = 0; a series step adds.  A parallel step before the last two vertices
    makes a bond node whose far side is the rest of b: an element with
    t >= 2 closes a cycle node with t + 1 >= 3, else all become t = 1.  At
    two vertices, two elements form a cycle node with t1 + t2, and more a
    bond node.  A stalled reduction leaves minimum degree 3: a K4 minor.
    """
    # ts[u][v] lists the t of the elements joining u and v; ts[v][u] is the same list
    ts: dict[str, dict[str, list[int]]] = {v: {} for v in b.vertices}
    for e in b.edges:
        ts[e.head][e.tail] = ts[e.tail].setdefault(e.head, [])
        ts[e.tail][e.head].append(0)
    todo = list(ts)
    while len(ts) > 2:
        if not todo:
            return True
        v = todo.pop()
        for pieces in ts.get(v, {}).values():
            if len(pieces) > 1:  # parallel step
                if max(pieces) >= 2:
                    return True
                pieces[:] = [1]
        if len(ts.get(v, {})) == 2:  # series step
            (a, [ta]), (c, [tc]) = ts.pop(v).items()
            del ts[a][v], ts[c][v]
            ts[c][a] = ts[a].setdefault(c, [])
            ts[a][c].append(ta + tc)
            todo += (a, c)
    (pieces,) = next(iter(ts.values())).values()
    return sum(pieces) >= 3 if len(pieces) == 2 else max(pieces) >= 2


def has_minor(g: MultiGraph, pattern: str) -> tuple[bool, MinorWitness | None]:
    """Decide whether `pattern` (K4 or L3) is a minor of g.

    The oracle decides; the witness is a walk that at each step takes the
    first single-step minor (in `single_step_minors` order) that still
    contains the pattern.  It replays on g to an exact copy of the pattern;
    contraction never touches loops and deletion never uses bridges, so
    every intermediate graph stays connected.
    """
    if pattern not in PATTERNS:
        raise PreconditionError(f"unknown pattern {pattern!r}; choose from {PATTERNS}")
    if not _contains(g, pattern):
        return False, None
    ops = []
    while not _IS_PATTERN[pattern](g):
        step = next(((op, eid, child) for op, eid, child in single_step_minors(g)
                     if _contains(child, pattern)), None)
        if step is None:
            raise InvariantError(
                f"{pattern} minor decided but no single-step minor of {g!r} keeps it")
        op, eid, g = step
        ops.append((op, eid))
    return True, MinorWitness(pattern, tuple(ops))


def is_hyperelliptic_type(g: MultiGraph) -> bool:
    """No K4 and no L3 minor; asks the oracle and builds no witness."""
    return not (_contains(g, "K4") or _contains(g, "L3"))


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


def enumerate_graphs(max_edges: int) -> Iterator[MultiGraph]:
    """All isomorphism classes of connected stable multigraphs, each once.

    Stable means every valence >= 3 (loops counting twice), which forces
    genus >= 2; the degenerate single-vertex edgeless graph is excluded.
    Emission order is deterministic: by vertex count, then edge count, then
    discovery order of the canonical representative.
    """
    seen: set[tuple] = set()
    max_vertices = max(1, (2 * max_edges) // 3)
    for n in range(1, max_vertices + 1):
        slots = _slot_list(n)
        for total in range(max(2, n), max_edges + 1):
            if total - n + 1 < 2:
                continue
            for combo in combinations_with_replacement(range(len(slots)), total):
                mult = [0] * len(slots)
                for idx in combo:
                    mult[idx] += 1
                val = [0] * n
                for (u, v), m in zip(slots, mult):
                    if u == v:
                        val[u] += 2 * m
                    else:
                        val[u] += m
                        val[v] += m
                if any(x < 3 for x in val):
                    continue
                if not _connected_mult(n, slots, mult):
                    continue
                edges = []
                eid = 1
                for (u, v), m in zip(slots, mult):
                    for _ in range(m):
                        edges.append(Edge(str(eid), str(u + 1), str(v + 1)))
                        eid += 1
                graph = MultiGraph({str(v + 1) for v in range(n)}, edges)
                form = canonical_form(graph)
                if form in seen:
                    continue
                seen.add(form)
                yield graph


def single_step_minors(g: MultiGraph) -> Iterator[tuple[str, str, MultiGraph]]:
    """All connected one-operation minors: (op, edge_id, result), edge by
    edge in edge order, each edge's contraction before its deletion."""
    separating = set(bridges(g))
    for e in g.edges:
        if not e.is_loop():
            yield "contract", e.id, contract_edge(g, e.id)
        if e.id not in separating:
            yield "delete", e.id, delete_edge(g, e.id)
