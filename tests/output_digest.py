"""Digest of the CLI's output on a fixed set of calls, for comparing two
checkouts byte for byte.

    PYTHONPATH=src python tests/output_digest.py > after.txt
    PYTHONPATH=/path/to/other/checkout/src python tests/output_digest.py > before.txt
    diff before.txt after.txt

Each line is `<call id> <exit code> <sha256 of stdout + stderr>`, one per
CLI call, in a fixed order.  The czgraph package comes from PYTHONPATH, so
the same script drives either checkout.  The inputs are

* the benchmark pool (`perfbench/pool.json`, read only): for every cz input,
  qmatrix, cz-test with both cocycles at graph and at curve level, and
  lattice; for every classify input, classify and minor;
* seeded random multigraphs from `conftest.random_multigraph`, at genus 1-5,
  with four edge-id styles, random spanning trees in half of them, lengths
  1..5 and sparse random cocycles: every subcommand;
* seeded random multigraphs at genus 7 and 8, lengths 1..5, each with a
  sparse random cocycle and a cocycle that is trivial by construction
  (`conftest.trivial_cocycle`): cz-test at graph and at curve level;
* a few inputs that exercise the integer grammar of the text formats;
* cz-test at graph and at curve level on every single subdivision and every
  tree-edge contraction of the two builtin cocycles and of the first three
  pool inputs at genus 3 and at genus 4 (both cocycles), the cocycle files
  written from `pushforward_subdivide` and `pushforward_contract`;
* cz-test and lattice on K4 at six lengths of 2,501 digits, whose outputs
  hold integers past CPython's 4,300-digit limit on int -> str;
* classify and minor on series-parallel blocks: ladders with 5-8 rungs,
  cycles with 1-5 doubled edges, and seeded random series-parallel
  compositions at genus 4-8;
* minor on the stable graphs with <= 6 edges, each with a seeded pendant
  tree of 1-3 vertices and a loop at its last vertex;
* classify and minor on the 157 stable graphs with <= 7 edges;
* cz-test at graph and at curve level on K4 with three cocycle terms of
  4,300-digit coefficients, whose class holds a 4,301-digit coefficient;
* verify-theorem --max-edges 6;
* three malformed graphs, each in the text and in the JSON format: a
  repeated edge id, an empty file and a disconnected graph;
* ids that are not JSON strings: qmatrix on graph JSON with an integer
  vertex in the vertex list, numeric edge ends (1 and 1.0), a null and a
  false edge id, each next to two string loops; and cz-test with K4 cocycle
  files whose graph has an integer edge end, or whose tree lists integers.

Input files are written to a temporary directory that is the working
directory during the calls, so paths in the output do not depend on it.
An exception that escapes `main` is recorded as exit code 1, as the
`czgraph` process would exit.  Pytest does not collect this file.

Against a checkout whose `polyring.form_text` still used plain `str()`,
only the two 4,300-digit-coefficient calls differ: they exit 1 there and 0
here.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import tempfile
from pathlib import Path

from czgraph.ceresa import (BUILTIN_COCYCLES, CeresaCocycle, k4_graph,
                            pushforward_contract, pushforward_subdivide)
from czgraph.cli import main
from czgraph.graph import (MultiGraph, build_cycle_context, genus,
                           parse_graph_text, render_graph_text)
from czgraph.minors import enumerate_graphs

from conftest import (graph_file_text, ladder, random_abb_map, random_multigraph,
                      random_series_parallel, random_spanning_tree, thick_cycle,
                      trivial_cocycle)

POOL = Path(__file__).resolve().parent.parent / "perfbench" / "pool.json"
SEED = 20261018
RANDOM_GRAPHS = 300
LARGE_GENERA = (7, 7, 8, 8)
ID_STYLES = ("{}", "{}a", "e{}", "x_{}")
# Inputs whose integers are outside [+-]?[0-9]+, or inside it with a sign.
GRAMMAR_FILES = {
    "text-length-underscore": "v 1\ne 1 1 1 1_0\ne 2 1 1 3\ne 3 1 1 1\n",
    "text-length-arabic-indic": "v 1\ne 1 1 1 1\ne 2 1 1 ٣\ne 3 1 1 1\n",
    "text-length-plus": "v 1\ne 1 1 1 +2\ne 2 1 1 3\ne 3 1 1 1\n",
}
GRAMMAR_LENGTHS = ("1_0,3, +2", "1,٣,2", "1, +2,3", " 1,2,3 ")
GRAMMAR_POLYS = ("٣*x2", "x2^٣", "²*x2", "3*x2^2", "+2*x2")
# (vertices, (id, tail, head) edges) that both graph formats must refuse alike
PARITY_GRAPHS = {
    "repeated-ids": (["1"], [("1", "1", "1"), ("2", "1", "1"), ("1", "1", "1")]),
    "empty": ([], []),
    "disconnected": (["1", "2", "3"], [("1", "1", "2")]),
}
TWO_LOOPS = [{"id": "2", "tail": "1", "head": "1"}, {"id": "3", "tail": "1", "head": "1"}]
NONSTRING_GRAPHS = {
    "vertex-int": {"vertices": [1], "edges": [{"id": "1", "tail": "1", "head": "1"}] + TWO_LOOPS},
    "ends-numbers": {"edges": [{"id": "1", "tail": 1, "head": 1.0}] + TWO_LOOPS},
    "id-null": {"edges": [{"id": None, "tail": "1", "head": "1"}] + TWO_LOOPS},
    "id-false": {"edges": [{"id": False, "tail": "1", "head": "1"}] + TWO_LOOPS},
}
TRANSPORT_POOL = {"g3": 3, "g4": 3}
BIG_LENGTH = "1" + "0" * 2500


def call(call_id: str, argv: list[str]) -> None:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv + ["--json"])
        except Exception:
            code = 1
    digest = hashlib.sha256((out.getvalue() + err.getvalue()).encode()).hexdigest()
    print(call_id, code, digest[:16])


def write(name: str, text: str) -> str:
    Path(name).write_text(text, encoding="utf-8")
    return name


def graph_dict(graph: MultiGraph) -> dict:
    return {"vertices": list(graph.vertices),
            "edges": [{"id": e.id, "tail": e.tail, "head": e.head} for e in graph.edges]}


def pool_cocycle(graph_text: str, cocycle: dict) -> dict:
    """The cocycle JSON of a pool entry's compact cocycle."""
    return {"graph": graph_dict(parse_graph_text(graph_text)[0]), "tree": cocycle["tree"],
            "b": [{"i": i, "j": j, "k": k, "poly": poly} for i, j, k, poly in cocycle["b"]]}


def pool_calls(pool: dict) -> None:
    for stratum, entries in pool["cz"].items():
        for n, entry in enumerate(entries):
            stem = f"pool-{stratum}-{n}"
            graph = write(f"{stem}.txt", entry["graph"])
            curve = write(f"{stem}-curve.txt", entry["curve"])
            call(f"{stem}/qmatrix", ["qmatrix", graph])
            call(f"{stem}/lattice", ["lattice", curve])
            for kind, cocycle in sorted(entry["cocycles"].items()):
                body = pool_cocycle(entry["graph"], cocycle)
                path = write(f"{stem}-{kind}.json", json.dumps(body))
                call(f"{stem}/cz-test-diophantine-{kind}",
                     ["cz-test", graph, "--cocycle", path])
                call(f"{stem}/cz-test-curve-{kind}", ["cz-test", curve, "--cocycle", path])
    for stratum, entries in pool["classify"].items():
        for n, entry in enumerate(entries):
            stem = f"pool-{stratum}-{n}"
            graph = write(f"{stem}.txt", entry["graph"])
            call(f"{stem}/classify", ["classify", graph])
            for pattern in ("K4", "L3"):
                call(f"{stem}/minor-{pattern}", ["minor", graph, "--pattern", pattern])


def random_calls() -> None:
    rng = random.Random(SEED)
    for n in range(RANDOM_GRAPHS):
        base = random_multigraph(rng, 1 + n % 5, max_vertices=5)
        style = ID_STYLES[n % len(ID_STYLES)]
        graph = MultiGraph(base.vertices, [(style.format(e.id), e.tail, e.head)
                                           for e in base.edges])
        tree = random_spanning_tree(rng, graph) if n % 2 else None
        ctx = build_cycle_context(graph, tree_hint=tree)
        lengths = {e.id: rng.randint(1, 5) for e in graph.edges}
        stem = f"random-{n}"
        path = write(f"{stem}.txt", render_graph_text(graph))
        curve = write(f"{stem}-curve.txt", render_graph_text(graph, lengths))
        tree_args = ["--tree", ",".join(tree)] if tree else []
        call(f"{stem}/qmatrix", ["qmatrix", path] + tree_args)
        call(f"{stem}/lattice", ["lattice", curve] + tree_args)
        if genus(graph) >= 2:
            call(f"{stem}/classify", ["classify", path])
        for pattern in ("K4", "L3"):
            call(f"{stem}/minor-{pattern}", ["minor", path, "--pattern", pattern])
        b = random_abb_map(rng, ctx, density=0.2)
        body = {"graph": graph_dict(graph), "tree": list(ctx.tree),
                "b": [{"i": i, "j": j, "k": k, "poly": str(p)}
                      for (i, j, k), p in sorted(b.items())]}
        cocycle = write(f"{stem}-cocycle.json", json.dumps(body))
        call(f"{stem}/cz-test-diophantine", ["cz-test", path, "--cocycle", cocycle])
        call(f"{stem}/cz-test-curve", ["cz-test", curve, "--cocycle", cocycle])


def large_calls() -> None:
    rng = random.Random(SEED)
    for n, g in enumerate(LARGE_GENERA):
        graph = random_multigraph(rng, g, max_vertices=5)
        ctx = build_cycle_context(graph)
        lengths = {e.id: rng.randint(1, 5) for e in graph.edges}
        stem = f"large-g{g}-{n}"
        path = write(f"{stem}.txt", render_graph_text(graph))
        curve = write(f"{stem}-curve.txt", render_graph_text(graph, lengths))
        cocycles = {"random": CeresaCocycle(ctx, random_abb_map(rng, ctx, density=0.2)),
                    "trivial": trivial_cocycle(rng, ctx)}
        for kind, v in cocycles.items():
            cocycle = write(f"{stem}-{kind}.json", json.dumps(v.to_json_dict()))
            call(f"{stem}/cz-test-diophantine-{kind}", ["cz-test", path, "--cocycle", cocycle])
            call(f"{stem}/cz-test-curve-{kind}", ["cz-test", curve, "--cocycle", cocycle])


def grammar_calls() -> None:
    for name, text in GRAMMAR_FILES.items():
        call(f"grammar/{name}", ["lattice", write(f"{name}.txt", text)])
    loops = write("loops.txt", "v 1\ne 1 1 1\ne 2 1 1\ne 3 1 1\n")
    for n, lengths in enumerate(GRAMMAR_LENGTHS):
        call(f"grammar/lengths-{n}", ["lattice", loops, "--lengths", lengths])
    for value in ("6", " 0_6", "+6"):
        call(f"grammar/max-edges-{value.strip()}", ["verify-theorem", "--max-edges", value])
    k4_path = write("k4.txt", render_graph_text(k4_graph()))
    for n, poly in enumerate(GRAMMAR_POLYS):
        body = {"graph": graph_dict(k4_graph()), "tree": ["4", "5", "6"],
                "b": [{"i": 1, "j": 1, "k": 2, "poly": poly}]}
        call(f"grammar/poly-{n}", ["cz-test", k4_path, "--cocycle",
                                   write(f"poly-{n}.json", json.dumps(body))])


def transport_calls(pool: dict) -> None:
    cocycles = {f"builtin-{name}": v for name, v in sorted(BUILTIN_COCYCLES.items())}
    for stratum, count in TRANSPORT_POOL.items():
        for n, entry in enumerate(pool["cz"][stratum][:count]):
            for kind, cocycle in sorted(entry["cocycles"].items()):
                body = pool_cocycle(entry["graph"], cocycle)
                cocycles[f"pool-{stratum}-{n}-{kind}"] = CeresaCocycle.from_json_dict(body)
    rng = random.Random(SEED)
    for stem, v in cocycles.items():
        moved = {f"subdivide-{e.id}": pushforward_subdivide(v, e.id) for e in v.graph.edges}
        moved |= {f"contract-{f}": pushforward_contract(v, f) for f in v.context.tree
                  if not v.graph.edge(f).is_loop()}
        for step, w in moved.items():
            name = f"{stem}-{step}"
            lengths = {e.id: rng.randint(1, 5) for e in w.graph.edges}
            path = write(f"{name}.txt", render_graph_text(w.graph))
            curve = write(f"{name}-curve.txt", render_graph_text(w.graph, lengths))
            cocycle = write(f"{name}.json", json.dumps(w.to_json_dict()))
            call(f"transport-{name}/cz-test-diophantine", ["cz-test", path, "--cocycle", cocycle])
            call(f"transport-{name}/cz-test-curve", ["cz-test", curve, "--cocycle", cocycle])


def oversized_calls() -> None:
    k4_path = write("k4-big.txt", render_graph_text(k4_graph()))
    lengths = ",".join([BIG_LENGTH] * 6)
    call("oversized/cz-test", ["cz-test", k4_path, "--cocycle", "builtin:K4",
                               "--lengths", lengths])
    call("oversized/lattice", ["lattice", k4_path, "--lengths", lengths])


def series_parallel_calls() -> None:
    graphs = {f"ladder-{r}": ladder(r) for r in range(5, 9)}
    graphs |= {f"thick-cycle-{k}-{n}": thick_cycle(k, n)
               for k in range(1, 6) for n in range(max(k, 3), k + 3)}
    rng = random.Random(SEED)
    graphs |= {f"series-parallel-{g}-{n}": random_series_parallel(rng, g, rng.randint(2, 8))
               for g in range(4, 9) for n in range(6)}
    for stem, graph in graphs.items():
        path = write(f"{stem}.txt", render_graph_text(graph))
        call(f"{stem}/classify", ["classify", path])
        for pattern in ("K4", "L3"):
            call(f"{stem}/minor-{pattern}", ["minor", path, "--pattern", pattern])


def pendant_calls() -> None:
    rng = random.Random(SEED)
    for n, base in enumerate(enumerate_graphs(6)):
        verts = base.sorted_vertices()
        edges = [(e.id, e.tail, e.head) for e in base.edges]
        for k in range(rng.randint(1, 3)):
            edges.append((f"t{k}", rng.choice(verts), f"t{k}"))
            verts.append(f"t{k}")
        edges.append(("loop", verts[-1], verts[-1]))
        path = write(f"pendant-{n}.txt", render_graph_text(MultiGraph(verts, edges)))
        for pattern in ("K4", "L3"):
            call(f"pendant-{n}/minor-{pattern}", ["minor", path, "--pattern", pattern])


def stable_calls() -> None:
    for n, graph in enumerate(enumerate_graphs(7)):
        path = write(f"stable-{n}.txt", render_graph_text(graph))
        call(f"stable-{n}/classify", ["classify", path])
        for pattern in ("K4", "L3"):
            call(f"stable-{n}/minor-{pattern}", ["minor", path, "--pattern", pattern])


def big_coefficient_calls() -> None:
    body = {"graph": graph_dict(k4_graph()), "tree": ["4", "5", "6"],
            "b": [{"i": i, "j": j, "k": k, "poly": "9" * 4300 + "*x2"}
                  for i, j, k in ((1, 1, 2), (2, 1, 3), (3, 2, 3))]}
    k4_path = write("k4-big-coefficient.txt", render_graph_text(k4_graph()))
    cocycle = write("big-coefficient.json", json.dumps(body))
    call("big-coefficient/cz-test-diophantine", ["cz-test", k4_path, "--cocycle", cocycle])
    call("big-coefficient/cz-test-curve", ["cz-test", k4_path, "--cocycle", cocycle,
                                           "--lengths", "1,1,1,1,1,1"])


def file_calls() -> None:
    for name, (vertices, edges) in PARITY_GRAPHS.items():
        for fmt in ("txt", "json"):
            path = write(f"parity-{name}.{fmt}", graph_file_text(fmt, vertices, edges))
            call(f"parity/{name}-{fmt}", ["qmatrix", path])
    for name, data in NONSTRING_GRAPHS.items():
        call(f"nonstring/{name}", ["qmatrix", write(f"{name}.json", json.dumps(data))])
    k4_path = write("k4-nonstring.txt", render_graph_text(k4_graph()))
    end_int = BUILTIN_COCYCLES["K4"].to_json_dict()
    end_int["graph"]["edges"][0]["tail"] = int(end_int["graph"]["edges"][0]["tail"])
    tree_ints = {**BUILTIN_COCYCLES["K4"].to_json_dict(), "tree": [4, 5, 6]}
    cocycles = {"cocycle-end-int": end_int, "cocycle-tree-ints": tree_ints}
    for name, data in cocycles.items():
        call(f"nonstring/{name}", ["cz-test", k4_path, "--cocycle",
                                   write(f"{name}.json", json.dumps(data))])


def run() -> None:
    pool = json.loads(POOL.read_text(encoding="utf-8"))
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            pool_calls(pool)
            random_calls()
            large_calls()
            grammar_calls()
            transport_calls(pool)
            oversized_calls()
            series_parallel_calls()
            pendant_calls()
            stable_calls()
            big_coefficient_calls()
            call("verify-theorem-6", ["verify-theorem", "--max-edges", "6"])
            file_calls()
        finally:
            os.chdir(here)


if __name__ == "__main__":
    run()
