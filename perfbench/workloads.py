"""Workload definitions: which pool inputs a run uses, and the op list.

A run's ops are a seeded sample of the pinned input pool (`pool.json`),
stratified so that every seed gets the same number of ops per stratum.
The sample is one *pass*; a run repeats the pass whole (see `worker.py`).
"""

from __future__ import annotations

import json
import random
from pathlib import Path

HERE = Path(__file__).resolve().parent
POOL_PATH = HERE / "pool.json"

# Inputs per pass, per pool stratum.  A cz input runs with both of its
# cocycles (random and trivial by construction), so half the cocycles are of
# each kind on every seed.  A stratum that holds the median or the tail
# percentile, or most of a pass's time, is used whole, so those figures do
# not move with the seed; the other strata are sampled.  The counts put the
# median and the tail percentile inside one stratum, not on the edge between
# two, with at least ten ops beyond the tail in a single pass.
WORKLOADS = {
    "cz_graph": {
        "family": "cz", "levels": ("graph",), "tail_pct": 90,
        "strata": {"g3": 40, "g4": 14, "g5": 6, "g6": 2},
        "tiny": {"g3": 1, "g4": 1},
        "scale": ("g7", "graph"),
    },
    "cz_curve": {
        "family": "cz", "levels": ("curve", "lattice"), "tail_pct": 90,
        "strata": {"g3": 40, "g4": 8, "g5": 6, "g6": 2},
        "tiny": {"g3": 1, "g4": 1},
        "scale": ("g7", "curve"),
    },
    "classify": {
        "family": "classify", "tail_pct": 90,
        "strata": {"random_g3": 16, "random_g4": 16, "random_g5": 16, "random_g6": 16,
                   "ladder5": 10, "k4sub": 11, "ladder6": 10, "cubic8": 5},
        "tiny": {"random_g3": 1, "random_g6": 1, "ladder5": 1, "k4sub": 1},
        "scale": ("ladder7", None),
    },
    "verify_theorem": {
        "family": "verify", "tail_pct": 100, "max_edges": 8, "tiny_max_edges": 6,
        "scale": None,
    },
}


def load_pool() -> dict:
    return json.loads(POOL_PATH.read_text(encoding="utf-8"))


def graph_json(graph_text: str) -> dict:
    """The JSON graph form of a graph in the line format."""
    vertices, edges = [], []
    for line in graph_text.splitlines():
        parts = line.split()
        if parts and parts[0] == "v":
            vertices.append(parts[1])
        elif parts and parts[0] == "e":
            edges.append({"id": parts[1], "tail": parts[2], "head": parts[3]})
    return {"vertices": vertices, "edges": edges}


def cocycle_file_text(graph_text: str, cocycle: dict) -> str:
    """A cocycle file as `cz-test --cocycle` reads it."""
    return json.dumps({
        "graph": graph_json(graph_text),
        "tree": cocycle["tree"],
        "b": [{"i": i, "j": j, "k": k, "poly": poly} for i, j, k, poly in cocycle["b"]],
    })


class InputWriter:
    """Writes input files into one directory under unique names."""

    def __init__(self, directory: Path):
        self.directory = directory
        self.count = 0

    def __call__(self, suffix: str, text: str) -> str:
        self.count += 1
        path = self.directory / f"in{self.count:04d}{suffix}"
        path.write_text(text, encoding="utf-8")
        return str(path)


def _cz_ops(write: InputWriter, stratum: str, index: int, entry: dict, kinds,
            levels) -> list[dict]:
    """cz-test at each level with each cocycle kind; one lattice op."""
    files = {"graph": write(".txt", entry["graph"]), "curve": write(".txt", entry["curve"])}
    ops = []
    for level in levels:
        if level == "lattice":
            ops.append({"kind": "lattice", "stratum": stratum, "input": f"{stratum}/{index}",
                        "argv": ["lattice", files["curve"], "--json"],
                        "expect": {"digest": entry["pins"]["lattice"]["digest"]}})
            continue
        for kind in kinds:
            cocycle = write(".json", cocycle_file_text(entry["graph"], entry["cocycles"][kind]))
            must = kind == "trivial" or (level == "curve"
                                         and entry["pins"][f"graph.{kind}"]["trivial"])
            ops.append({"kind": f"cz-{level}", "stratum": stratum,
                        "input": f"{stratum}/{index}/{kind}",
                        "argv": ["cz-test", files[level], "--cocycle", cocycle, "--json"],
                        "expect": {"digest": entry["pins"][f"{level}.{kind}"]["digest"],
                                   "must_be_trivial": must}})
    return ops


def _classify_op(write: InputWriter, stratum: str, index: int, entry: dict) -> dict:
    return {"kind": "classify", "stratum": stratum, "input": f"{stratum}/{index}",
            "argv": ["classify", write(".txt", entry["graph"]), "--json"],
            "expect": {"digest": entry["pins"]["classify"]["digest"]},
            "graph_text": entry["graph"], "clear_minor_cache": True}


def _verify_op(pool: dict, max_edges: int) -> dict:
    return {"kind": "verify", "stratum": f"max_edges{max_edges}", "input": str(max_edges),
            "argv": ["verify-theorem", "--max-edges", str(max_edges), "--json"],
            "expect": pool["verify"][str(max_edges)], "clear_minor_cache": True}


def plan(workload: str, seed: int, directory: Path, tiny: bool = False) -> dict:
    """The op list of one pass and the scaling op, with input files
    written into `directory`.  The same seed gives the same inputs."""
    spec = WORKLOADS[workload]
    pool = load_pool()
    write = InputWriter(directory)
    rng = random.Random(f"{workload}/{seed}")
    ops: list[dict] = []
    scale: list[dict] = []
    if spec["family"] == "verify":
        ops.append(_verify_op(pool, spec["tiny_max_edges" if tiny else "max_edges"]))
        return {"ops": ops, "scale": scale, "tail_pct": spec["tail_pct"]}
    strata = spec["tiny" if tiny else "strata"]
    for stratum, count in strata.items():
        entries = pool[spec["family"]][stratum]
        picked = rng.sample(range(len(entries)), count)
        if spec["family"] == "cz":
            for index in picked:
                ops.extend(_cz_ops(write, stratum, index, entries[index],
                                   ("random", "trivial"), spec["levels"]))
        else:
            ops.extend(_classify_op(write, stratum, index, entries[index])
                       for index in picked)
    rng.shuffle(ops)
    if spec["scale"] is not None and not tiny:
        stratum, level = spec["scale"]
        entry = pool[spec["family"]][stratum][0]
        if spec["family"] == "cz":
            scale = _cz_ops(write, stratum, 0, entry, ("random",), (level,))
        else:
            scale = [_classify_op(write, stratum, 0, entry)]
    return {"ops": ops, "scale": scale, "tail_pct": spec["tail_pct"]}
