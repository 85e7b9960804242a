"""Rebuild `pool.json`: the benchmark's input pool and its pinned verdicts.

    python3 perfbench/build_pool.py

The pool is drawn from fixed master seeds with the recipes in
`families.py`.  Every input is run once through the CLI code path and the
digest of its verdict (see `gate.verdict_digest`) is pinned next to it, so
rebuilding on a commit whose verdicts differ changes the pins: rebuild only
on a commit whose verdicts are trusted.  The build also asserts the
construction invariants the gate relies on.  Per-input run times go to
`perfbench/out/pool_costs.json` for tuning the workload mix.
"""

from __future__ import annotations

import json
import random
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import families  # noqa: E402
from gate import verdict_digest  # noqa: E402
from workloads import cocycle_file_text  # noqa: E402

from czgraph.ceresa import CeresaCocycle  # noqa: E402
from czgraph.cli import run_command  # noqa: E402
from czgraph.extalg import aab_to_l_element, delta_G_minus_I_L  # noqa: E402
from czgraph.graph import (MultiGraph, build_cycle_context,  # noqa: E402
                           render_graph_text)
from czgraph.minors import clear_minor_cache  # noqa: E402
from czgraph.polyring import IntPolynomial  # noqa: E402

MASTER_SEED = 2204_06316
# stratum -> (genus, pool size, inclusive band on the term count of Q)
CZ_STRATA = {
    "g3": (3, 40, None),
    "g4": (4, 36, None),
    "g5": (5, 6, (10, 33)),
    "g6": (6, 2, (12, 32)),
    "g7": (7, 1, (14, 40)),
}
CLASSIFY_STRATA = {"random_g3": 16, "random_g4": 16, "random_g5": 16, "random_g6": 16,
                   "cubic8": 16, "ladder5": 12, "ladder6": 12, "k4sub": 16, "ladder7": 1}
VERIFY_MAX_EDGES = (6, 8)

WORK = HERE / "out" / "pool_build"


def _run(argv: list[str]) -> tuple[dict, float]:
    clear_minor_cache()
    t0 = time.perf_counter()
    text = run_command(argv + ["--json"]).render(compact=True)
    return json.loads(text)["result"], time.perf_counter() - t0


def _write(name: str, text: str) -> str:
    path = WORK / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def _linear(form: dict[str, int]) -> IntPolynomial:
    poly = IntPolynomial.zero()
    for e, c in form.items():
        poly = poly + IntPolynomial.variable(e, c)
    return poly


def _trivial_cocycle(rng: random.Random, ctx) -> CeresaCocycle:
    """v = the a^b^b part of (delta_G - I) applied to an integer a^a^b
    element, so (delta_G - I)(v) is a squared-twist image: trivial."""
    a = families.random_aab_integers(rng, ctx.g)
    image = delta_G_minus_I_L(ctx, aab_to_l_element(ctx.g, a))
    b = {}
    for triple, poly in image.terms.items():
        if [kind for kind, _ in triple] == ["a", "b", "b"]:
            b[tuple(idx for _, idx in triple)] = poly
    return CeresaCocycle(ctx, b)


def _compact_cocycle(v: CeresaCocycle) -> dict:
    return {"tree": list(v.context.tree),
            "b": [[i, j, k, str(p)] for (i, j, k), p in sorted(v.b.items())]}


def _q_terms(ctx) -> int:
    return sum(len(entry.terms) for row in ctx.Q for entry in row)


def build_cz(rng: random.Random, genus: int, band, name: str) -> tuple[dict, dict]:
    while True:
        vertices, edges = families.random_multigraph(rng, genus, genus + 1)
        graph = MultiGraph(vertices, edges)
        ctx = build_cycle_context(graph)
        if band is None or band[0] <= _q_terms(ctx) <= band[1]:
            break
    lengths = {e.id: rng.randint(1, 5) for e in graph.edges}
    edge_ids = graph.edge_ids()
    cocycles = {
        "random": CeresaCocycle(ctx, {key: _linear(form) for key, form in
                                      families.random_abb_map(rng, genus, edge_ids).items()}),
        "trivial": _trivial_cocycle(rng, ctx),
    }
    entry = {"graph": render_graph_text(graph),
             "curve": render_graph_text(graph, lengths),
             "cocycles": {k: _compact_cocycle(v) for k, v in cocycles.items()},
             "pins": {}}
    costs = {}
    gpath = _write(f"{name}.txt", entry["graph"])
    cpath = _write(f"{name}.curve.txt", entry["curve"])
    for kind in ("random", "trivial"):
        vpath = _write(f"{name}.{kind}.json", cocycle_file_text(entry["graph"],
                                                                 entry["cocycles"][kind]))
        graph_res, costs[f"graph.{kind}"] = _run(["cz-test", gpath, "--cocycle", vpath])
        curve_res, costs[f"curve.{kind}"] = _run(["cz-test", cpath, "--cocycle", vpath])
        if kind == "trivial" and not (graph_res["trivial"] and curve_res["trivial"]):
            raise AssertionError(f"{name}: trivial-by-construction cocycle came out non-trivial")
        if graph_res["trivial"] and not curve_res["trivial"]:
            raise AssertionError(f"{name}: graph-trivial but curve-non-trivial")
        entry["pins"][f"graph.{kind}"] = {"digest": verdict_digest("cz-graph", graph_res),
                                          "trivial": graph_res["trivial"]}
        entry["pins"][f"curve.{kind}"] = {"digest": verdict_digest("cz-curve", curve_res),
                                          "trivial": curve_res["trivial"]}
    lattice_res, costs["lattice"] = _run(["lattice", cpath])
    entry["pins"]["lattice"] = {"digest": verdict_digest("lattice", lattice_res)}
    return entry, costs


def classify_graph(rng: random.Random, stratum: str):
    if stratum.startswith("random_g"):
        genus = int(stratum[len("random_g"):])
        return families.random_multigraph(rng, genus, genus + 1)
    if stratum == "cubic8":
        return families.random_cubic_graph(rng, 8)
    if stratum.startswith("ladder"):
        return families.ladder(rng, int(stratum[len("ladder"):]))
    if stratum == "k4sub":
        return families.subdivided_k4(rng)
    raise ValueError(stratum)


def build_classify(rng: random.Random, stratum: str, name: str) -> tuple[dict, dict]:
    text = render_graph_text(MultiGraph(*classify_graph(rng, stratum)))
    result, cost = _run(["classify", _write(f"{name}.txt", text)])
    if stratum in ("cubic8", "k4sub") and result["trivial"]:
        raise AssertionError(f"{name}: K4-minor graph came out trivial")
    return {"graph": text, "pins": {"classify": {
        "digest": verdict_digest("classify", result), "trivial": result["trivial"]}}}, \
        {"classify": cost}


def _dump_pool(pool: dict) -> str:
    """One input per line, so a rebuild diffs line by line."""
    lines = ["{", f' "master_seed": {pool["master_seed"]},']
    for family in ("cz", "classify"):
        lines.append(f' "{family}": {{')
        strata = list(pool[family].items())
        for si, (stratum, entries) in enumerate(strata):
            lines.append(f'  "{stratum}": [')
            for ei, entry in enumerate(entries):
                comma = "," if ei < len(entries) - 1 else ""
                lines.append("   " + json.dumps(entry, sort_keys=True) + comma)
            lines.append("  ]" + ("," if si < len(strata) - 1 else ""))
        lines.append(" },")
    lines.append(' "verify": ' + json.dumps(pool["verify"], sort_keys=True))
    lines.append("}")
    return "\n".join(lines) + "\n"


def main() -> None:
    WORK.mkdir(parents=True, exist_ok=True)
    pool = {"master_seed": MASTER_SEED, "cz": {}, "classify": {}, "verify": {}}
    costs = {}
    for stratum, (genus, size, band) in CZ_STRATA.items():
        rng = random.Random(f"{MASTER_SEED}/cz/{stratum}")
        pool["cz"][stratum] = []
        for i in range(size):
            name = f"cz-{stratum}-{i:03d}"
            entry, costs[name] = build_cz(rng, genus, band, name)
            pool["cz"][stratum].append(entry)
        print(stratum, "done", flush=True)
    for stratum, size in CLASSIFY_STRATA.items():
        rng = random.Random(f"{MASTER_SEED}/classify/{stratum}")
        pool["classify"][stratum] = []
        for i in range(size):
            name = f"classify-{stratum}-{i:03d}"
            entry, costs[name] = build_classify(rng, stratum, name)
            pool["classify"][stratum].append(entry)
        print(stratum, "done", flush=True)
    for max_edges in VERIFY_MAX_EDGES:
        result, costs[f"verify-{max_edges}"] = _run(["verify-theorem", "--max-edges",
                                                     str(max_edges)])
        if result["violations"] or not result["fixtures_ok"]:
            raise AssertionError(f"verify-theorem {max_edges}: {result['violations']}")
        pool["verify"][str(max_edges)] = {"counts": result["counts"]}
    (HERE / "pool.json").write_text(_dump_pool(pool),
                                    encoding="utf-8")
    (HERE / "out" / "pool_costs.json").write_text(json.dumps(costs, indent=1),
                                                  encoding="utf-8")


if __name__ == "__main__":
    main()
