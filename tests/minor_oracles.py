"""Reference implementations that the minor search is checked against.

These are the straightforward versions of six `czgraph` functions, kept
because they are easy to trust, not because they are fast:

* `k4_by_degree_reduction`: `has_k4_minor_fast` on neighbour sets, without
  the t counts of the series-parallel reduction;
* `canonical_form`: minimizes the encoding over every vertex order that
  permutes only within the classes of a refined coloring;
* `minor_dfs`: depth-first search over the raw single-step minors, each
  edge's contraction before its deletion, with negative results cached by
  canonical form;
* `blocks`: biconnected components emitted from the edge stack of a
  lowpoint DFS;
* `block_partition` and `separates`: the blocks' edge sets and the
  bridges, by deleting each vertex or edge in turn and taking components;
* `enumerate_by_slot_multisets`: `enumerate_graphs` as every multiset of
  vertex-pair slots, kept when stable, connected and of a new class.
"""

from __future__ import annotations

from itertools import combinations_with_replacement, permutations
from typing import Iterator

from czgraph.graph import Edge, MultiGraph, contract_edge, delete_edge, genus
from czgraph.minors import _connected_mult, _slot_list, is_k4, is_l3
from czgraph.polyring import idkey

_IS_PATTERN = {"K4": is_k4, "L3": is_l3}
_PATTERN_GENUS = {"K4": 3, "L3": 4}
_PATTERN_MIN_VERTICES = {"K4": 4, "L3": 3}


def _refine_colors(n: int, adj: list[dict[int, int]], loops: list[int]) -> list[int]:
    signature = [(loops[v], sum(adj[v].values())) for v in range(n)]
    rank = {sig: i for i, sig in enumerate(sorted(set(signature)))}
    colors = [rank[signature[v]] for v in range(n)]
    for _ in range(n):
        sigs = []
        for v in range(n):
            neigh = sorted((colors[w], m) for w, m in adj[v].items())
            sigs.append((colors[v], tuple(neigh)))
        rank = {sig: i for i, sig in enumerate(sorted(set(sigs)))}
        new = [rank[sigs[v]] for v in range(n)]
        if new == colors:
            break
        colors = new
    return colors


def _class_permutations(class_list: list[list[int]]) -> Iterator[list[int]]:
    if not class_list:
        yield []
        return
    head, rest = class_list[0], class_list[1:]
    for perm in permutations(head):
        for tail in _class_permutations(rest):
            yield list(perm) + tail


def canonical_form(g: MultiGraph) -> tuple:
    """Least sorted (loop-count, edge-multiset) encoding over every vertex
    order that permutes only within refinement classes."""
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
    colors = _refine_colors(n, adj, loops)
    classes: dict[int, list[int]] = {}
    for v in range(n):
        classes.setdefault(colors[v], []).append(v)
    best = None
    for parts in _class_permutations([classes[c] for c in sorted(classes)]):
        pos = [0] * n
        for i, v in enumerate(parts):
            pos[v] = i
        enc_loops = tuple(sorted((pos[v], loops[v]) for v in range(n) if loops[v]))
        enc_edges = []
        for a in range(n):
            for b, m in adj[a].items():
                if a < b:
                    x, y = sorted((pos[a], pos[b]))
                    enc_edges.append((x, y, m))
        enc = (n, enc_loops, tuple(sorted(enc_edges)))
        if best is None or enc < best:
            best = enc
    return best


def k4_by_degree_reduction(g: MultiGraph) -> bool:
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
                a, b = adj[v]
                adj[a].discard(v)
                adj[b].discard(v)
                del adj[v]
                if a != b:
                    adj[a].add(b)
                    adj[b].add(a)
                changed = True
    return bool(adj)


_negative: set[tuple[str, tuple]] = set()


def minor_dfs(g: MultiGraph, pattern: str) -> tuple[tuple[str, str], ...] | None:
    """Operations of the first witness in depth-first order, or None."""
    if genus(g) < _PATTERN_GENUS[pattern]:
        return None
    if len(g.vertices) < _PATTERN_MIN_VERTICES[pattern] or len(g.edges) < 6:
        return None
    if _IS_PATTERN[pattern](g):
        return ()
    key = (pattern, canonical_form(g))
    if key in _negative:
        return None
    if pattern == "K4" and not k4_by_degree_reduction(g):
        _negative.add(key)
        return None
    for e in g.edges:
        if not e.is_loop():
            sub = minor_dfs(contract_edge(g, e.id), pattern)
            if sub is not None:
                return (("contract", e.id),) + sub
        if not separates(g.vertices, [x for x in g.edges if x is not e]):
            sub = minor_dfs(delete_edge(g, e.id), pattern)
            if sub is not None:
                return (("delete", e.id),) + sub
    _negative.add(key)
    return None


def blocks(g: MultiGraph) -> list[MultiGraph]:
    """Biconnected components; each loop is its own block."""
    out = [MultiGraph({e.tail}, [e]) for e in g.edges if e.is_loop()]
    inc: dict[str, list[Edge]] = {v: [] for v in g.vertices}
    for e in g.edges:
        if not e.is_loop():
            inc[e.tail].append(e)
            inc[e.head].append(e)
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    stack: list[Edge] = []
    used: set[str] = set()
    roots = [v for v in g.sorted_vertices() if inc[v]]
    if roots:
        root = roots[0]
        index[root] = low[root] = 0
        work = [(root, None, iter(inc[root]))]
        while work:
            v, parent_edge, it = work[-1]
            advanced = False
            for e in it:
                if e.id in used:
                    continue
                w = e.other(v)
                if w not in index:
                    used.add(e.id)
                    stack.append(e)
                    index[w] = low[w] = len(index)
                    work.append((w, e, iter(inc[w])))
                    advanced = True
                    break
                elif index[w] < index[v]:
                    used.add(e.id)
                    stack.append(e)
                    low[v] = min(low[v], index[w])
            if not advanced:
                work.pop()
                if work:
                    u = work[-1][0]
                    low[u] = min(low[u], low[v])
                    if low[v] >= index[u]:
                        comp = []
                        while True:
                            e = stack.pop()
                            comp.append(e)
                            if e.id == parent_edge.id:
                                break
                        vs = {e.tail for e in comp} | {e.head for e in comp}
                        out.append(MultiGraph(vs, comp))
    out.sort(key=lambda b: idkey(b.edges[0].id))
    return out


def components(vertices, edges) -> dict[str, str]:
    """Each vertex -> the least vertex (by idkey) of its component."""
    root = {v: v for v in vertices}

    def find(v):
        while root[v] != v:
            v = root[v]
        return v
    for e in edges:
        a, b = sorted((find(e.tail), find(e.head)), key=idkey)
        root[b] = a
    return {v: find(v) for v in vertices}


def separates(vertices, edges) -> bool:
    """Whether the vertices fall into more than one component."""
    return len(set(components(vertices, edges).values())) > 1


def block_partition(g: MultiGraph) -> set[frozenset[str]]:
    """The blocks' edge-id sets: each loop alone, and two non-loop edges
    together iff no vertex separates them.  A vertex v separates them when,
    in g - v, their ends other than v lie in different components."""
    keys: dict[str, list[str]] = {e.id: [] for e in g.edges if not e.is_loop()}
    for v in g.sorted_vertices():
        comp = components(g.vertices - {v},
                          [e for e in g.edges if v not in (e.tail, e.head)])
        for e in g.edges:
            if e.id in keys:
                keys[e.id].append(comp[e.head if e.tail == v else e.tail])
    parts: dict[tuple[str, ...], set[str]] = {}
    for eid, key in keys.items():
        parts.setdefault(tuple(key), set()).add(eid)
    return ({frozenset(p) for p in parts.values()}
            | {frozenset([e.id]) for e in g.edges if e.is_loop()})


def enumerate_by_slot_multisets(max_edges: int) -> Iterator[MultiGraph]:
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
