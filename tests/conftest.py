import random

import pytest

from czgraph.ceresa import k4_context, k4_graph, l3_context, l3_graph
from czgraph.extalg import abb_keys, aab_keys
from czgraph.graph import MultiGraph, build_cycle_context
from czgraph.polyring import IntPolynomial


def random_multigraph(rng: random.Random, target_genus: int,
                      max_vertices: int = 6) -> MultiGraph:
    """Random connected multigraph of the requested genus.

    A random spanning tree plus `target_genus` extra edges; loops and
    parallel edges arise naturally from the extra edges.
    """
    n = rng.randint(1, max_vertices)
    vertices = [str(i + 1) for i in range(n)]
    edges = []
    eid = 1
    order = vertices[:]
    rng.shuffle(order)
    for i in range(1, n):
        j = rng.randrange(i)
        edges.append((str(eid), order[j], order[i]))
        eid += 1
    for _ in range(target_genus):
        u = rng.choice(vertices)
        v = rng.choice(vertices)
        edges.append((str(eid), u, v))
        eid += 1
    return MultiGraph(vertices, edges)


def random_spanning_tree(rng: random.Random, g: MultiGraph) -> list[str]:
    """Ids of a random spanning tree: a union-find pass over shuffled edges."""
    edges = list(g.edges)
    rng.shuffle(edges)
    root = {v: v for v in g.vertices}

    def find(v):
        while root[v] != v:
            v = root[v]
        return v
    tree = []
    for e in edges:
        a, b = find(e.tail), find(e.head)
        if a != b:
            root[a] = b
            tree.append(e.id)
    return tree


def random_linear_form(rng: random.Random, edge_ids, max_terms: int = 3) -> IntPolynomial:
    poly = IntPolynomial.zero()
    for _ in range(rng.randint(1, max_terms)):
        e = rng.choice(edge_ids)
        c = rng.choice([-3, -2, -1, 1, 2, 3])
        poly = poly + IntPolynomial.variable(e, c)
    return poly


def random_abb_map(rng: random.Random, ctx, density: float = 0.35):
    edge_ids = [e.id for e in ctx.graph.edges]
    out = {}
    for key in abb_keys(ctx.g):
        if rng.random() < density:
            out[key] = random_linear_form(rng, edge_ids)
    return out


def random_aab_map(rng: random.Random, ctx, density: float = 0.35,
                   integers: bool = False):
    edge_ids = [e.id for e in ctx.graph.edges]
    out = {}
    for key in aab_keys(ctx.g):
        if rng.random() < density:
            if integers:
                out[key] = IntPolynomial.constant(rng.choice([-3, -2, -1, 1, 2, 3]))
            else:
                out[key] = random_linear_form(rng, edge_ids)
    return out


@pytest.fixture(scope="session")
def k4():
    return k4_graph()


@pytest.fixture(scope="session")
def k4_ctx():
    return k4_context()


@pytest.fixture(scope="session")
def l3():
    return l3_graph()


@pytest.fixture(scope="session")
def l3_ctx():
    return l3_context()


@pytest.fixture(scope="session")
def theta():
    """Genus-2 graph: two vertices joined by three parallel edges."""
    return MultiGraph(["1", "2"], [("1", "1", "2"), ("2", "1", "2"), ("3", "1", "2")])
