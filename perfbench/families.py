"""Seeded input recipes for the benchmark's input pool.

Every function takes a `random.Random` and returns plain data (vertex ids
and `(id, tail, head)` edge triples), so the pool can be rebuilt exactly
from its master seed.  `random_multigraph` and `random_abb_map` follow the
recipes of the test suite's `conftest.py`.
"""

from __future__ import annotations

import random

Edges = list[tuple[str, str, str]]
DENSITY = 0.35  # share of wedge keys that get a coefficient


def random_multigraph(rng: random.Random, target_genus: int,
                      max_vertices: int) -> tuple[list[str], Edges]:
    """A random spanning tree plus `target_genus` random extra edges."""
    n = rng.randint(1, max_vertices)
    vertices = [str(i + 1) for i in range(n)]
    edges = []
    order = vertices[:]
    rng.shuffle(order)
    for i in range(1, n):
        j = rng.randrange(i)
        edges.append((str(len(edges) + 1), order[j], order[i]))
    for _ in range(target_genus):
        edges.append((str(len(edges) + 1), rng.choice(vertices), rng.choice(vertices)))
    return vertices, edges


def random_linear_form(rng: random.Random, edge_ids: list[str]) -> dict[str, int]:
    """Sparse integer linear form in the edge variables, as {edge id: coeff}."""
    form: dict[str, int] = {}
    for _ in range(rng.randint(1, 3)):
        e = rng.choice(edge_ids)
        form[e] = form.get(e, 0) + rng.choice([-3, -2, -1, 1, 2, 3])
    return {e: c for e, c in form.items() if c}


def relabel(rng: random.Random, vertices: list[str], pairs: list[tuple[str, str]]
            ) -> tuple[list[str], Edges]:
    """Shuffle vertex ids, edge order and edge orientations."""
    names = [str(i + 1) for i in range(len(vertices))]
    rng.shuffle(names)
    rename = dict(zip(vertices, names))
    pairs = pairs[:]
    rng.shuffle(pairs)
    edges = []
    for i, (u, v) in enumerate(pairs, start=1):
        if rng.random() < 0.5:
            u, v = v, u
        edges.append((str(i), rename[u], rename[v]))
    return sorted(names, key=int), edges


def random_cubic_graph(rng: random.Random, n: int) -> tuple[list[str], Edges]:
    """Uniform-ish random connected simple 3-regular graph on n vertices
    (configuration model with rejection)."""
    while True:
        stubs = [v for v in range(n) for _ in range(3)]
        rng.shuffle(stubs)
        pairs = [(stubs[i], stubs[i + 1]) for i in range(0, len(stubs), 2)]
        keys = {frozenset(p) for p in pairs}
        if any(u == v for u, v in pairs) or len(keys) != len(pairs):
            continue
        if _connected(n, pairs):
            verts = [str(v) for v in range(n)]
            return relabel(rng, verts, [(str(u), str(v)) for u, v in pairs])


def ladder(rng: random.Random, rungs: int) -> tuple[list[str], Edges]:
    """Ladder P_rungs x K2, randomly labeled."""
    verts = [f"u{i}" for i in range(rungs)] + [f"w{i}" for i in range(rungs)]
    pairs = [(f"u{i}", f"w{i}") for i in range(rungs)]
    for i in range(rungs - 1):
        pairs += [(f"u{i}", f"u{i + 1}"), (f"w{i}", f"w{i + 1}")]
    return relabel(rng, verts, pairs)


def subdivided_k4(rng: random.Random) -> tuple[list[str], Edges]:
    """K4 with every edge subdivided once, randomly labeled."""
    verts = ["a", "b", "c", "d"]
    pairs = []
    for i, u in enumerate(verts[:4]):
        for v in verts[i + 1:4]:
            mid = f"m{u}{v}"
            verts.append(mid)
            pairs += [(u, mid), (mid, v)]
    return relabel(rng, verts, pairs)


def _connected(n: int, pairs) -> bool:
    adj: dict[int, set[int]] = {v: set() for v in range(n)}
    for u, v in pairs:
        adj[u].add(v)
        adj[v].add(u)
    seen, todo = {0}, [0]
    while todo:
        for w in adj[todo.pop()] - seen:
            seen.add(w)
            todo.append(w)
    return len(seen) == n


def random_abb_map(rng: random.Random, genus: int, edge_ids: list[str]
                   ) -> dict[tuple[int, int, int], dict[str, int]]:
    """Random a_i^b_j^b_k cocycle coefficients (j < k), as linear forms."""
    out = {}
    for i in range(1, genus + 1):
        for j in range(1, genus + 1):
            for k in range(j + 1, genus + 1):
                if rng.random() < DENSITY:
                    form = random_linear_form(rng, edge_ids)
                    if form:
                        out[(i, j, k)] = form
    return out


def random_aab_integers(rng: random.Random, genus: int) -> dict[tuple[int, int, int], int]:
    """Random small integer a_i^a_j^b_k coefficients (i < j), never empty."""
    keys = [(i, j, k) for i in range(1, genus + 1) for j in range(i + 1, genus + 1)
            for k in range(1, genus + 1)]
    out = {key: rng.choice([-2, -1, 1, 2]) for key in keys if rng.random() < DENSITY}
    if not out:
        out[rng.choice(keys)] = 1
    return out
