"""Correctness gate: pinned verdict digests and independent witness replay.

A digest covers only the fields that define a verdict (triviality, method,
the class, the lattice's Hermite basis, the minor pattern), not the
certificate or witness a solver happens to pick, so an equivalent
certificate from a faster solver still passes.  Classifier witnesses are
replayed here with a standalone contract/delete implementation.
"""

from __future__ import annotations

import hashlib
import json

NON_TRIVIAL_BY_THEOREM = ("cubic8", "k4sub")


def _digest(data) -> str:
    body = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(body.encode()).hexdigest()[:16]


def verdict_digest(kind: str, result: dict) -> str:
    """Digest of the verdict-defining fields of a CLI result."""
    if kind in ("cz-graph", "cz-curve"):
        fields = {k: result.get(k) for k in ("trivial", "method", "class",
                                             "specialized_class")}
    elif kind == "lattice":
        fields = {k: result.get(k) for k in ("hnf", "genus", "triples")}
    elif kind == "classify":
        fields = {k: result.get(k) for k in ("trivial", "method", "genus",
                                             "hyperelliptic_type")}
        fields["pattern"] = (result.get("witness") or {}).get("pattern")
    else:
        raise ValueError(f"no digest for {kind!r}")
    return _digest(fields)


def parse_graph(graph_text: str) -> tuple[set[str], dict[str, tuple[str, str]]]:
    """Vertices and {edge id: (tail, head)} of a graph in the line format."""
    vertices, edges = set(), {}
    for line in graph_text.splitlines():
        parts = line.split("#", 1)[0].split()
        if parts and parts[0] == "v":
            vertices.add(parts[1])
        elif parts and parts[0] == "e":
            edges[parts[1]] = (parts[2], parts[3])
    return vertices, edges


def witness_replays(graph_text: str, witness: dict) -> bool:
    """Apply the witness ops to the graph and test for an exact K4 or L3."""
    vertices, edges = parse_graph(graph_text)
    for op, eid in witness["ops"]:
        if eid not in edges:
            return False
        t, h = edges.pop(eid)
        if op == "contract":
            if t == h:
                return False
            vertices.discard(h)
            edges = {x: (t if a == h else a, t if b == h else b)
                     for x, (a, b) in edges.items()}
        elif op != "delete":
            return False
    pairs = list(edges.values())
    if len(pairs) != 6 or any(a == b for a, b in pairs):
        return False
    mult: dict[frozenset, int] = {}
    for a, b in pairs:
        key = frozenset((a, b))
        mult[key] = mult.get(key, 0) + 1
    if vertices != {v for p in pairs for v in p}:
        return False
    if witness["pattern"] == "K4":
        return len(vertices) == 4 and len(mult) == 6
    if witness["pattern"] == "L3":
        return len(vertices) == 3 and sorted(mult.values()) == [2, 2, 2]
    return False


def check(op: dict, result: dict) -> str | None:
    """None when the result passes the gate, else the reason it fails."""
    kind = op["kind"]
    if kind == "verify":
        want = op["expect"]
        if result.get("counts") != want["counts"]:
            return f"counts {result.get('counts')} != {want['counts']}"
        if result.get("violations"):
            return f"violations: {result['violations'][:3]}"
        if result.get("fixtures_ok") is not True:
            return "fixtures_ok is not true"
        return None
    got = verdict_digest(kind, result)
    if got != op["expect"]["digest"]:
        return f"verdict digest {got} != pinned {op['expect']['digest']}"
    if kind in ("cz-graph", "cz-curve"):
        if op["expect"].get("must_be_trivial") and not result.get("trivial"):
            return "a trivial-by-construction or graph-trivial cocycle came out non-trivial"
    if kind == "classify":
        if op["stratum"] in NON_TRIVIAL_BY_THEOREM and result.get("trivial"):
            return "a graph with a K4 minor by construction came out trivial"
        witness = result.get("witness")
        if witness is not None and not witness_replays(op["graph_text"], witness):
            return "minor witness does not replay"
    return None
