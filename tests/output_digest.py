"""Digest of the CLI's output on a fixed set of calls, for comparing two
checkouts byte for byte.

    PYTHONPATH=src python tests/output_digest.py > after.txt
    PYTHONPATH=/path/to/other/checkout/src python tests/output_digest.py > before.txt
    diff before.txt after.txt

Each line is `<call id> <exit code> <sha256 of stdout + stderr>`, one per
CLI call, in a fixed order.  The czgraph package comes from PYTHONPATH, so
the same script drives either checkout.  The inputs are

* the benchmark pool (`perfbench/pool.json`, read only): for every cz input,
  qmatrix, cz-test with both cocycles at graph level in both modes and at
  curve level, and lattice; for every classify input, classify and minor;
* seeded random multigraphs from `conftest.random_multigraph`, at genus 1-5,
  with four edge-id styles, random spanning trees in half of them, lengths
  1..5 and sparse random cocycles: every subcommand, psi mode included;
* a few inputs that exercise the integer grammar of the text formats;
* classify and minor on series-parallel blocks: ladders with 5-8 rungs,
  cycles with 1-5 doubled edges, and seeded random series-parallel
  compositions at genus 4-8;
* verify-theorem --max-edges 6.

Input files are written to a temporary directory that is the working
directory during the calls, so paths in the output do not depend on it.
Pytest does not collect this file.
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

from czgraph.ceresa import k4_graph
from czgraph.cli import main
from czgraph.graph import (MultiGraph, build_cycle_context, genus,
                           parse_graph_text, render_graph_text)

from conftest import (ladder, random_abb_map, random_multigraph,
                      random_series_parallel, random_spanning_tree, thick_cycle)

POOL = Path(__file__).resolve().parent.parent / "perfbench" / "pool.json"
SEED = 20261018
RANDOM_GRAPHS = 300
ID_STYLES = ("{}", "{}a", "e{}", "x_{}")
# Inputs whose integers are outside [+-]?[0-9]+, or inside it with a sign.
GRAMMAR_FILES = {
    "text-length-underscore": "v 1\ne 1 1 1 1_0\ne 2 1 1 3\ne 3 1 1 1\n",
    "text-length-arabic-indic": "v 1\ne 1 1 1 1\ne 2 1 1 ٣\ne 3 1 1 1\n",
    "text-length-plus": "v 1\ne 1 1 1 +2\ne 2 1 1 3\ne 3 1 1 1\n",
}
GRAMMAR_LENGTHS = ("1_0,3, +2", "1,٣,2", "1, +2,3", " 1,2,3 ")
GRAMMAR_POLYS = ("٣*x2", "x2^٣", "²*x2", "3*x2^2", "+2*x2")


def call(call_id: str, argv: list[str]) -> None:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv + ["--json"])
    digest = hashlib.sha256((out.getvalue() + err.getvalue()).encode()).hexdigest()
    print(call_id, code, digest[:16])


def write(name: str, text: str) -> str:
    Path(name).write_text(text, encoding="utf-8")
    return name


def graph_dict(graph: MultiGraph) -> dict:
    return {"vertices": list(graph.vertices),
            "edges": [{"id": e.id, "tail": e.tail, "head": e.head} for e in graph.edges]}


def pool_calls(pool: dict) -> None:
    for stratum, entries in pool["cz"].items():
        for n, entry in enumerate(entries):
            stem = f"pool-{stratum}-{n}"
            graph = write(f"{stem}.txt", entry["graph"])
            curve = write(f"{stem}-curve.txt", entry["curve"])
            call(f"{stem}/qmatrix", ["qmatrix", graph])
            call(f"{stem}/lattice", ["lattice", curve])
            for kind, cocycle in sorted(entry["cocycles"].items()):
                body = {"graph": graph_dict(parse_graph_text(entry["graph"])[0]),
                        "tree": cocycle["tree"],
                        "b": [{"i": i, "j": j, "k": k, "poly": poly}
                              for i, j, k, poly in cocycle["b"]]}
                path = write(f"{stem}-{kind}.json", json.dumps(body))
                for mode in ("diophantine", "psi"):
                    call(f"{stem}/cz-test-{mode}-{kind}",
                         ["cz-test", graph, "--cocycle", path, "--mode", mode])
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
        for mode in ("diophantine", "psi"):
            call(f"{stem}/cz-test-{mode}", ["cz-test", path, "--cocycle", cocycle,
                                            "--mode", mode])
        call(f"{stem}/cz-test-curve", ["cz-test", curve, "--cocycle", cocycle])


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


def run() -> None:
    pool = json.loads(POOL.read_text(encoding="utf-8"))
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            pool_calls(pool)
            random_calls()
            grammar_calls()
            series_parallel_calls()
            call("verify-theorem-6", ["verify-theorem", "--max-edges", "6"])
        finally:
            os.chdir(here)


if __name__ == "__main__":
    run()
