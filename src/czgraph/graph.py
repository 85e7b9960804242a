"""Connected multigraphs with loops and parallel edges, and the polynomial
polarization matrix attached to a cycle basis.

Edges carry string ids and a stored (tail, head) orientation.  A
CycleBasisContext fixes an edge ordering e_1..e_n whose last n-g edges form
a spanning tree; the fundamental cycles of the g non-tree edges give a basis
of the cycle space and the symmetric g x g matrix Q whose entry q_ij is the
signed sum of x_e over edges traversed by both cycles.

A graph stores no adjacency: each traversal builds the incidence it reads
(`_incidence`).  There are two.  A breadth-first search returns a rooted
tree (`_bfs_tree`): it checks connectivity and builds the single spanning
tree, rooted at the least vertex id, from which every fundamental cycle is
read by walking parent edges.  A low-point depth-first search
(`_lowpoint_dfs`) finds the bridges and the blocks.

Public construction validates: `MultiGraph(...)` sorts the edges and
refuses repeated edge ids, an empty graph and a disconnected one; the file
readers check only their own grammar.  A graph derived from a valid one by
an operation that keeps validity skips those checks (`MultiGraph._derived`):
`contract_edge`, `delete_edge` once its bridge test has passed, each block
of `blocks`, the non-bridge deletions of `minors.single_step_minors` and of
the witness pass `minors._witness`, and the labellings of
`minors.enumerate_graphs`.

All structures are immutable values.
"""

from __future__ import annotations

import json
from collections import Counter, deque
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, NamedTuple, Sequence

from .polyring import (IntPolynomial, ascii_int, from_form, idkey, in_full,
                       is_variable_name)


class GraphError(ValueError):
    pass


class ParseError(GraphError):
    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class PreconditionError(GraphError):
    pass


class InvariantError(RuntimeError):
    """A certificate failed to replay; indicates an internal bug."""


class Edge(NamedTuple):
    id: str
    tail: str
    head: str

    def is_loop(self) -> bool:
        return self.tail == self.head

    def other(self, v: str) -> str:
        if v == self.tail:
            return self.head
        if v == self.head:
            return self.tail
        raise KeyError(v)


class MultiGraph:
    """Connected multigraph; loops and parallel edges allowed.

    Public construction validates that every vertex id, edge id and edge
    end is a str (the rule of `json_str`), edge-id uniqueness, at least one
    vertex and connectivity, and sorts the edges by id.  Isolated vertices,
    named only in `vertices`, make the graph disconnected unless they are
    all of it.  Graphs that an operation derives from a valid graph, keeping
    validity, are built by `_derived` without the checks.  A graph holds its
    vertices, its edges and an index of the edges by id, and no adjacency.
    """

    __slots__ = ("vertices", "edges", "_by_id")

    def __init__(self, vertices: Iterable[str], edges: Iterable[Edge | tuple]):
        try:
            vs = {json_str(v) for v in vertices}
            es = [Edge(json_str(e[0]), json_str(e[1]), json_str(e[2])) for e in edges]
        except TypeError as exc:
            raise GraphError(str(exc)) from None
        for e in es:
            vs.add(e.tail)
            vs.add(e.head)
        es.sort(key=lambda e: idkey(e.id))
        ids = [e.id for e in es]
        if len(set(ids)) != len(ids):
            dup = sorted(i for i, n in Counter(ids).items() if n > 1)
            raise GraphError(f"duplicate edge ids: {dup}")
        if not vs:
            raise GraphError("graph needs at least one vertex")
        self.vertices = frozenset(vs)
        self.edges = tuple(es)
        self._by_id = {e.id: e for e in es}
        if len(_bfs_tree(_incidence(vs, es), next(iter(vs)))) != len(vs) - 1:
            raise GraphError("graph is not connected")

    @classmethod
    def _derived(cls, vertices: frozenset[str], edges: Sequence[Edge]) -> MultiGraph:
        """A graph the caller knows to be valid: str vertices, edges sorted
        by `idkey` with unique ids, and connected.  Nothing is checked."""
        g = cls.__new__(cls)
        g.vertices = vertices
        g.edges = tuple(edges)
        g._by_id = {e.id: e for e in g.edges}
        return g

    # -- basic queries ---------------------------------------------------

    def edge(self, edge_id: str) -> Edge:
        try:
            return self._by_id[edge_id]
        except (KeyError, TypeError):
            raise GraphError(f"no edge with id {edge_id!r}") from None

    def edge_ids(self) -> list[str]:
        return [e.id for e in self.edges]

    def incident(self, v: str) -> list[Edge]:
        return [e for e in self.edges if v in (e.tail, e.head)]

    def valence(self, v: str) -> int:
        """Number of half-edges at v; a loop contributes 2."""
        return sum((e.tail == v) + (e.head == v) for e in self.edges)

    def sorted_vertices(self) -> list[str]:
        return sorted(self.vertices, key=idkey)

    def is_stable(self) -> bool:
        return all(self.valence(v) >= 3 for v in self.vertices)

    def __eq__(self, other) -> bool:
        return (isinstance(other, MultiGraph) and self.vertices == other.vertices
                and self.edges == other.edges)

    def __hash__(self) -> int:
        return hash((self.vertices, self.edges))

    def __repr__(self) -> str:
        return f"MultiGraph(|V|={len(self.vertices)}, edges={[e.id for e in self.edges]})"


def _incidence(vertices: Iterable[str], edges: Iterable[Edge]) -> dict[str, list[Edge]]:
    """The edges at each vertex, in edge order; a loop is listed once."""
    inc: dict[str, list[Edge]] = {v: [] for v in vertices}
    for e in edges:
        _, t, h = e
        inc[t].append(e)
        if t != h:
            inc[h].append(e)
    return inc


def _bfs_tree(inc: Mapping[str, list[Edge]], root: str) -> dict[str, Edge]:
    """Breadth-first search from root over an incidence map: each vertex
    reached, other than root, -> the edge it was reached by, in discovery
    order.  The edges form a spanning tree of root's component, and
    `edge.other(v)` is v's parent."""
    tree: dict[str, Edge] = {}
    todo = deque([root])
    while todo:
        u = todo.popleft()
        for e in inc[u]:
            w = e.other(u)
            if w != root and w not in tree:
                tree[w] = e
                todo.append(w)
    return tree


def genus(g: MultiGraph) -> int:
    """First Betti number |E| - |V| + 1 of a connected graph."""
    return len(g.edges) - len(g.vertices) + 1


def is_bridge(g: MultiGraph, edge_id: str) -> bool:
    return g.edge(edge_id).id in bridges(g)


class _LowpointDFS(NamedTuple):
    """Preorder `index` of each vertex; `low`, the least index that the
    subtree below a vertex reaches by one back edge; `tree`, v -> (parent,
    tree edge) in preorder; `back`, (deeper endpoint, edge) of the rest."""

    index: dict[str, int]
    low: dict[str, int]
    tree: dict[str, tuple[str, Edge]]
    back: list[tuple[str, Edge]]


def _lowpoint_dfs(g: MultiGraph) -> _LowpointDFS:
    """One depth-first search over the non-loop edges, from the tail of the
    first edge (or the only vertex of an edgeless graph).

    Iterative, so deep graphs cannot blow the recursion limit.  Every
    non-tree edge joins a vertex to one of its ancestors.  A vertex skips
    the edge it was reached by (the same `Edge` object) and any edge to a
    vertex below it: that edge was recorded, as a back edge from its deeper
    end, when the subtree below finished.  So each non-tree edge is kept
    once, when its deeper end meets it.
    """
    inc = _incidence(g.vertices, g.edges)
    root = g.edges[0].tail if g.edges else next(iter(g.vertices))
    index = {root: 0}
    low = {root: 0}
    tree: dict[str, tuple[str, Edge]] = {}
    back: list[tuple[str, Edge]] = []
    work = [(root, iter(inc[root]), None)]
    while work:
        v, it, up = work[-1]
        iv = index[v]
        for e in it:
            _, t, h = e
            if e is up or t == h:
                continue
            w = h if t == v else t
            iw = index.get(w)
            if iw is None:
                index[w] = low[w] = len(index)
                tree[w] = (v, e)
                work.append((w, iter(inc[w]), e))
                break
            if iw < iv:
                back.append((v, e))
                if iw < low[v]:
                    low[v] = iw
        else:
            work.pop()
            if work:
                u = work[-1][0]
                if low[v] < low[u]:
                    low[u] = low[v]
    return _LowpointDFS(index, low, tree, back)


def bridges(g: MultiGraph) -> list[str]:
    """Ids of the separating edges, in edge order: the tree edges u -> v
    whose subtree below v reaches nothing above v."""
    dfs = _lowpoint_dfs(g)
    found = {e.id for v, (u, e) in dfs.tree.items() if dfs.low[v] > dfs.index[u]}
    return [e.id for e in g.edges if e.id in found]


def contract_edge(g: MultiGraph, edge_id: str) -> MultiGraph:
    """Contract a non-loop edge; genus is preserved, |V| and |E| drop by 1.

    The surviving vertex is the endpoint with the smaller id.  Edges
    parallel to the contracted one become loops.
    """
    e = g.edge(edge_id)
    if e.is_loop():
        raise PreconditionError(f"cannot contract loop edge {edge_id!r}")
    keep, gone = sorted((e.tail, e.head), key=idkey)
    new_edges = []
    for x in g.edges:
        if x is e:
            continue
        i, t, h = x
        if t == gone or h == gone:
            x = Edge(i, keep if t == gone else t, keep if h == gone else h)
        new_edges.append(x)
    # edge order and connectivity are kept
    return MultiGraph._derived(g.vertices - {gone}, new_edges)


def delete_edge(g: MultiGraph, edge_id: str) -> MultiGraph:
    """Delete an edge; rejected if the deletion would disconnect the graph."""
    e = g.edge(edge_id)
    if is_bridge(g, edge_id):
        raise PreconditionError(f"deleting bridge {edge_id!r} would disconnect the graph")
    return _without(g, e)


def _without(g: MultiGraph, e: Edge) -> MultiGraph:
    """g minus the edge e, which the caller knows is not a bridge."""
    return MultiGraph._derived(g.vertices, [x for x in g.edges if x.id != e.id])


def subdivide_edge(g: MultiGraph, edge_id: str) -> MultiGraph:
    """Replace edge f = (t, h) by t -> m -> h through a fresh 2-valent vertex.

    The half ids are f+"a" and f+"b"; `MultiGraph` refuses one already in use.
    The new vertex id is "m"+f.
    """
    e = g.edge(edge_id)
    id1, id2 = e.id + "a", e.id + "b"
    mid = f"m{e.id}"
    while mid in g.vertices:
        mid += "_"
    new_edges = [x for x in g.edges if x.id != e.id]
    new_edges.append(Edge(id1, e.tail, mid))
    new_edges.append(Edge(id2, mid, e.head))
    return MultiGraph(g.vertices | {mid}, new_edges)


def block_parts(g: MultiGraph, min_genus: int = 0) -> list[tuple[frozenset[str], list[Edge]]]:
    """Each block of genus >= min_genus as (vertex set, edges in edge
    order), ordered by least edge id; each loop is its own block.

    A tree edge u -> v opens a new block unless the subtree below v reaches
    above u; a back edge belongs to the block of its deeper endpoint's tree
    edge.  Preorder labels every parent's tree edge first.  A non-loop
    block with T tree edges has T + 1 vertices, so its genus is its number
    of back edges, and a loop's is 1: the blocks are sized before any is
    built, and none is built when none reaches min_genus.  One pass in edge
    order then lists each kept block's edges sorted, and meets the blocks
    in the order of their least edges.
    """
    dfs = _lowpoint_dfs(g)
    # a block is keyed by the id of the tree edge that opens it, a loop by its own
    opener: dict[str, str] = {}  # vertex -> the block of its tree edge
    block: dict[str, str] = {}   # non-loop edge id -> its block
    for v, (u, e) in dfs.tree.items():
        opener[v] = e.id if dfs.low[v] >= dfs.index[u] else opener[u]
        block[e.id] = opener[v]
    size: dict[str, int] = {}    # non-loop block -> its back edges, its genus
    for v, e in dfs.back:
        key = block[e.id] = opener[v]
        size[key] = size.get(key, 0) + 1
    if min_genus > 1 and max(size.values(), default=0) < min_genus:
        return []
    comps: dict[str, list[Edge]] = {}
    for e in g.edges:
        key = block.get(e.id)
        if key is None:
            if min_genus <= 1:
                comps[e.id] = [e]
        elif size.get(key, 0) >= min_genus:
            comps.setdefault(key, []).append(e)
    return [(frozenset(v for e in es for v in (e.tail, e.head)), es)
            for es in comps.values()]


def blocks(g: MultiGraph) -> list[MultiGraph]:
    """Biconnected components (blocks); each loop is its own block.

    The genera of the blocks sum to the genus of the graph.
    """
    return [MultiGraph._derived(vs, es) for vs, es in block_parts(g)]


def two_edge_connectivize(g: MultiGraph) -> MultiGraph:
    """Contract every separating (bridge) edge; genus is unchanged.

    Contracting a bridge leaves the other bridges bridges and makes no new
    ones, so one bridge set serves the whole loop.
    """
    for edge_id in bridges(g):
        g = contract_edge(g, edge_id)
    return g


def stabilize(g: MultiGraph) -> MultiGraph:
    """The unique stable graph tropically equivalent to g (genus >= 2 only).

    Removes 1-valent vertices and smooths 2-valent ones until every vertex
    has valence >= 3 (loops count twice).  Smoothing merges the two distinct
    incident edges, keeping the smaller edge id.  Idempotent.
    """
    if genus(g) < 2:
        raise PreconditionError(f"stabilize needs genus >= 2, got {genus(g)}")
    while True:
        leaf = next((v for v in g.sorted_vertices() if g.valence(v) == 1), None)
        if leaf is not None:
            e = g.incident(leaf)[0]
            g = MultiGraph(g.vertices - {leaf}, [x for x in g.edges if x.id != e.id])
            continue
        mid = next((v for v in g.sorted_vertices()
                    if g.valence(v) == 2 and len(g.vertices) > 1), None)
        if mid is None:
            return g
        inc = g.incident(mid)
        if len(inc) != 2:
            raise GraphError(f"2-valent vertex {mid!r} with a loop cannot be smoothed")
        e1, e2 = sorted(inc, key=lambda e: idkey(e.id))
        a, b = e1.other(mid), e2.other(mid)
        merged = Edge(e1.id, a, b)
        keep = [x for x in g.edges if x.id not in (e1.id, e2.id)]
        g = MultiGraph(g.vertices - {mid}, keep + [merged])


# -- cycle basis and the polynomial matrix Q ------------------------------


@dataclass(frozen=True)
class CycleBasisContext:
    """Edge ordering, spanning tree, fundamental cycles and the matrix Q.

    order[:g] are the non-tree (basis) edges e_1..e_g; order[g:] is the
    spanning tree.  cycles[j] maps edge ids to +1/-1 signs of the j-th
    fundamental cycle, oriented along its defining edge.  Q[i][j] is the
    linear form sum_e s_i(e) s_j(e) x_e: `q_forms` holds it as a form over
    the positions of the edges in graph.edges, and `Q` as a polynomial.
    Contexts compare by value and are unhashable on purpose.
    """

    __hash__ = None
    graph: MultiGraph
    order: tuple[str, ...]
    tree: tuple[str, ...]
    cycles: tuple[Mapping[str, int], ...]

    @cached_property
    def q_forms(self) -> tuple[tuple[dict[tuple[int, ...], int], ...], ...]:
        pos = {e.id: n for n, e in enumerate(self.graph.edges)}
        return tuple(tuple({(pos[e],): s * cj[e] for e, s in ci.items() if e in cj}
                           for cj in self.cycles) for ci in self.cycles)

    @cached_property
    def Q(self) -> tuple[tuple[IntPolynomial, ...], ...]:
        names = [e.id for e in self.graph.edges]
        return tuple(tuple(from_form(f, names) for f in row) for row in self.q_forms)

    @property
    def g(self) -> int:
        return len(self.cycles)

    def basis_edges(self) -> tuple[str, ...]:
        return self.order[:self.g]

    def beta_class(self, edge_id: str) -> tuple[int, ...]:
        """Signs (s_1(e), ..., s_g(e)): the homology class dual to the edge,
        written in the beta basis.  Non-tree edge e_j gives the unit vector j;
        a bridge gives the zero vector."""
        self.graph.edge(edge_id)
        return tuple(c.get(edge_id, 0) for c in self.cycles)


def _validate_tree(g: MultiGraph, ids: list[str], root: str) -> dict[str, Edge]:
    """The hinted spanning tree, rooted at root as `_bfs_tree` returns it."""
    edges = [g.edge(t) for t in ids]
    if len(set(ids)) != len(ids):
        raise PreconditionError("tree hint repeats edges")
    if len(ids) != len(g.vertices) - 1:
        raise PreconditionError(
            f"tree hint has {len(ids)} edges, need {len(g.vertices) - 1}")
    if any(e.is_loop() for e in edges):
        raise PreconditionError("tree hint contains a loop")
    # |V| - 1 edges that reach every vertex form a spanning tree
    tree = _bfs_tree(_incidence(g.vertices, edges), root)
    if len(tree) != len(ids):
        raise PreconditionError("tree hint does not span the graph")
    return tree


def _path_to_root(tree: Mapping[str, Edge], v: str) -> list[tuple[str, Edge]]:
    """The (vertex, edge to its parent) steps from v up to the root."""
    steps = []
    while v in tree:
        steps.append((v, tree[v]))
        v = tree[v].other(v)
    return steps


def _fundamental_cycle(tree: Mapping[str, Edge], e: Edge) -> dict[str, int]:
    """Signs of the cycle that runs along e, then back from e.head to
    e.tail through the rooted tree; listed from e, then e.tail's end."""
    up_tail, up_head = _path_to_root(tree, e.tail), _path_to_root(tree, e.head)
    while up_tail and up_head and up_tail[-1] == up_head[-1]:
        up_tail.pop()
        up_head.pop()
    signs = {e.id: 1}
    # from e.tail up to the common ancestor, each edge walked downward
    for v, up in up_tail:
        signs[up.id] = 1 if up.head == v else -1
    # then down to e.head, each edge walked upward
    for v, up in reversed(up_head):
        signs[up.id] = 1 if up.tail == v else -1
    return signs


def build_cycle_context(g: MultiGraph, tree_hint: Iterable[str] | None = None,
                        basis_order: Iterable[str] | None = None) -> CycleBasisContext:
    """Build the cycle basis and Q for a connected graph.

    One spanning tree, rooted at the least vertex id, carries every
    fundamental cycle: each is read by walking parent edges up to the
    common ancestor of the basis edge's ends.  Without a hint the tree is
    the breadth-first tree from that root, scanning edges by least id.
    basis_order may pin the ordering of the non-tree edges; by default they
    are sorted by id.
    """
    root = min(g.vertices, key=idkey)
    if tree_hint is None:
        tree = _bfs_tree(_incidence(g.vertices, g.edges), root)
        tree_ids = [e.id for e in tree.values()]
    else:
        tree_ids = list(tree_hint)
        tree = _validate_tree(g, tree_ids, root)
    in_tree = set(tree_ids)
    nontree = [e.id for e in g.edges if e.id not in in_tree]
    if basis_order is not None:
        basis = [g.edge(b).id for b in basis_order]
        if sorted(basis, key=idkey) != sorted(nontree, key=idkey):
            raise PreconditionError("basis_order must list exactly the non-tree edges")
    else:
        basis = sorted(nontree, key=idkey)
    tree_sorted = sorted(tree_ids, key=idkey)
    cycles = [_fundamental_cycle(tree, g.edge(b)) for b in basis]
    return CycleBasisContext(
        graph=g,
        order=tuple(basis + tree_sorted),
        tree=tuple(tree_sorted),
        cycles=tuple(cycles),
    )


# -- tropical curves -------------------------------------------------------


@dataclass(frozen=True)
class TropicalCurve:
    """A connected multigraph with positive integer edge lengths, each an
    int by `json_int`.  Curves compare by value and are unhashable on purpose."""

    __hash__ = None
    graph: MultiGraph
    lengths: Mapping[str, int]

    def __post_init__(self):
        lens = dict(self.lengths)
        for e in self.graph.edges:
            if e.id not in lens:
                raise PreconditionError(f"edge {e.id!r} has no length")
            if _length(lens, e.id) < 1:
                raise PreconditionError(f"edge {e.id!r} has non-positive length")
        extra = set(lens) - {e.id for e in self.graph.edges}
        if extra:
            raise PreconditionError(f"lengths given for unknown edges {sorted(extra, key=str)}")
        object.__setattr__(self, "lengths", lens)

    def genus(self) -> int:
        return genus(self.graph)


def _length(lengths: Mapping[str, int], edge_id: str) -> int:
    """The edge's length, an int by `json_int`, else a PreconditionError."""
    try:
        return json_int(lengths[edge_id])
    except TypeError as exc:
        raise PreconditionError(f"edge {edge_id!r} length: {exc}") from None


def specialize_Q(ctx: CycleBasisContext, curve: TropicalCurve) -> list[list[int]]:
    """Q's forms at the curve's edge lengths; positive definite integer matrix."""
    if curve.graph != ctx.graph:
        raise PreconditionError("curve does not match the context's graph")
    lengths = [curve.lengths[e.id] for e in ctx.graph.edges]
    return [[sum(c * lengths[p] for (p,), c in f.items()) for f in row] for row in ctx.q_forms]


# -- text and JSON formats -------------------------------------------------


def read_input_file(path: str) -> str:
    """The text of an input file; bytes that are not UTF-8 are a ParseError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason} at byte "
                         f"{exc.start})") from None


def parse_json(text: str, what: str):
    """json.loads with every failure, including integers too long to convert
    and nesting too deep to decode, raised as ParseError("bad <what>: ...")."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"bad {what}: {exc.msg}", exc.lineno) from None
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"bad {what}: {exc}") from None


@in_full
def json_text(data, compact: bool) -> str:
    """The data as JSON with sorted keys, compact or indented by two, every
    integer in full; parsing keeps CPython's 4,300-digit limit."""
    return json.dumps(data, sort_keys=True, indent=None if compact else 2,
                      separators=(",", ":") if compact else None)


def json_int(value) -> int:
    """The one rule for an integer given as data.  Floats, booleans and
    strings are refused, not truncated or converted; JSON readers report the
    TypeError as a ParseError, library constructors as a PreconditionError."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"expected an integer, got {value!r}")
    return value


def json_str(value) -> str:
    """An id of a JSON input: only a JSON string, so that 1 and 1.0 cannot
    name two vertices; callers report the TypeError as a ParseError."""
    if not isinstance(value, str):
        raise TypeError(f"expected a string id, got {value!r}")
    return value


def _check_edge_id(eid: str, line: int | None = None) -> None:
    """Edge ids name polynomial variables, so they must read back from the
    text form x<id>; vertex ids never reach it and are not restricted."""
    if not is_variable_name(eid):
        raise ParseError(f"edge id {eid!r} is not made of letters, digits and "
                         "underscores only", line)


def _described(vertices: list[str], edges: list[Edge], lengths: dict[str, int]
               ) -> tuple[MultiGraph, dict[str, int] | None]:
    """The graph a parsed file describes, checked by `MultiGraph`, and its
    lengths: on every edge or on none, else a ParseError."""
    graph = MultiGraph(vertices, edges)
    missing = lengths and [e.id for e in graph.edges if e.id not in lengths]
    if missing:
        raise ParseError(f"lengths missing for edges {missing}")
    return graph, lengths or None


def parse_graph_text(text: str) -> tuple[MultiGraph, dict[str, int] | None]:
    """Parse the line format: 'v <id>' and 'e <id> <tail> <head> [length]'.

    '#' starts a comment.  Returns the graph and, when any edge carried a
    length, the (complete) length map.  Only the line grammar is checked
    here, with line numbers; `_described` checks the rest.
    """
    vertices: list[str] = []
    edges: list[Edge] = []
    lengths: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "v":
            if len(parts) != 2:
                raise ParseError("vertex line needs exactly one id", lineno)
            vertices.append(parts[1])
        elif parts[0] == "e":
            if len(parts) not in (4, 5):
                raise ParseError("edge line needs: e <id> <tail> <head> [length]", lineno)
            eid, tail, head = parts[1], parts[2], parts[3]
            _check_edge_id(eid, lineno)
            edges.append(Edge(eid, tail, head))
            if len(parts) == 5:
                try:
                    lengths[eid] = ascii_int(parts[4])
                except ValueError:
                    raise ParseError(f"bad length {parts[4]!r}", lineno) from None
        else:
            raise ParseError(f"unknown directive {parts[0]!r}", lineno)
    return _described(vertices, edges, lengths)


@in_full
def render_graph_text(g: MultiGraph, lengths: Mapping[str, int] | None = None) -> str:
    """Canonical text form; parse(render(g)) reproduces g bit-exactly.
    Lengths must be ints by `json_int`; others raise PreconditionError.
    Every length prints in full, but the readers keep CPython's limit: a
    length of more than 4,300 digits reads back as a ParseError."""
    lines = [f"v {v}" for v in g.sorted_vertices()]
    for e in g.edges:
        if lengths is not None:
            lines.append(f"e {e.id} {e.tail} {e.head} {_length(lengths, e.id)}")
        else:
            lines.append(f"e {e.id} {e.tail} {e.head}")
    return "\n".join(lines) + "\n"


def graph_to_json_dict(g: MultiGraph, lengths: Mapping[str, int] | None = None) -> dict:
    """The JSON graph format, lengths checked as by `render_graph_text`."""
    edges = []
    for e in g.edges:
        item = {"id": e.id, "tail": e.tail, "head": e.head}
        if lengths is not None:
            item["length"] = _length(lengths, e.id)
        edges.append(item)
    return {"vertices": g.sorted_vertices(), "edges": edges}


def graph_from_json_dict(data: dict) -> tuple[MultiGraph, dict[str, int] | None]:
    """Read the JSON graph format.  Only its shape is checked here: ids must
    be JSON strings, lengths JSON integers; `_described` checks the rest."""
    try:
        vertices = [json_str(v) for v in data.get("vertices", [])]
        edges = []
        lengths: dict[str, int] = {}
        for item in data["edges"]:
            edge = Edge(json_str(item["id"]), json_str(item["tail"]), json_str(item["head"]))
            edges.append(edge)
            if "length" in item:
                lengths[edge.id] = json_int(item["length"])
    except KeyError as exc:
        raise ParseError(f"bad graph JSON: missing key {exc}") from None
    except (AttributeError, TypeError, ValueError) as exc:
        raise ParseError(f"bad graph JSON: {exc}") from None
    for edge in edges:
        _check_edge_id(edge.id)
    return _described(vertices, edges, lengths)


def load_graph_file(path: str) -> tuple[MultiGraph, dict[str, int] | None]:
    """Load either the text or the JSON graph format, by sniffing."""
    text = read_input_file(path)
    if text.lstrip().startswith("{"):
        return graph_from_json_dict(parse_json(text, "JSON"))
    return parse_graph_text(text)
