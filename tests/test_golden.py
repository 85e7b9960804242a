"""Golden-output lock: the `--json` stdout of every subcommand on both
fixtures, and of the algebraic subcommands on three trivial-by-construction
inputs, byte for byte.

The trivial inputs (`tests/golden/inputs/pool-*`) are a g=3, a g=4 and a
g=5 member of the benchmark's cz pool with the cocycle that is the a^b^b
part of (delta_G - I) applied to a small integer a^a^b element, so their
graph-level and curve-level verdicts carry a nonzero certificate `a`.  The
g=4 and g=5 members also run curve-level cz-test with the pool's random
cocycle; both verdicts are non-trivial, so their certificates pin the
`lattice_hnf` of the image lattice.  A g=7 member runs graph-level cz-test
with both cocycles; its random verdict is non-trivial, so the goldens pin
the largest class texts.  The `classify` inputs add a 6-rung
ladder (K4-minor-free, so L3 is decided by the counted series-parallel
reduction), the Petersen graph and a K4 with every edge subdivided.  Every
file in `tests/golden` belongs to a case, so no golden outlives the output
it locks.

Input paths are written into the report's inputs, so each is normalized to
its path relative to the repository root before the comparison.  To
regenerate the files after a deliberate output change, run

    PYTHONPATH=src python tests/test_golden.py

from the repository root and review the diff.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from czgraph.cli import EXIT_OK, main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"

FIXTURES = {
    "k4": {"cocycle": "builtin:K4", "tree": "4,5,6"},
    "l3": {"cocycle": "builtin:L3", "tree": "5,6"},
}
TRIVIAL_INPUTS = ("pool-g3-7", "pool-g4-0", "pool-g5-1")
RANDOM_INPUTS = ("pool-g4-0", "pool-g5-1")
GRAPH_INPUTS = ("pool-g7-0",)
CLASSIFY_INPUTS = ("ladder6", "petersen", "k4-subdivided")
ONES = "1,1,1,1,1,1"


def _cases() -> dict[str, list[str]]:
    """Golden file stem -> argv; arguments that name files under the
    repository root are given relative to it."""
    cases: dict[str, list[str]] = {}
    for name, fx in FIXTURES.items():
        graph = f"fixtures/{name}.txt"
        cases[f"{name}-qmatrix"] = ["qmatrix", graph]
        cases[f"{name}-qmatrix-tree"] = ["qmatrix", graph, "--tree", fx["tree"]]
        cases[f"{name}-classify"] = ["classify", graph]
        for pattern in ("K4", "L3"):
            cases[f"{name}-minor-{pattern}"] = ["minor", graph, "--pattern", pattern]
        cases[f"{name}-cz-test-diophantine"] = [
            "cz-test", graph, "--cocycle", fx["cocycle"]]
        cases[f"{name}-cz-test-curve"] = [
            "cz-test", graph, "--cocycle", fx["cocycle"], "--lengths", ONES]
        cases[f"{name}-lattice"] = ["lattice", graph, "--lengths", ONES]
    for name in TRIVIAL_INPUTS:
        stem = f"tests/golden/inputs/{name}"
        cocycle = f"{stem}-trivial.json"
        cases[f"{name}-trivial-cz-test-diophantine"] = [
            "cz-test", f"{stem}.txt", "--cocycle", cocycle]
        cases[f"{name}-trivial-cz-test-curve"] = [
            "cz-test", f"{stem}-curve.txt", "--cocycle", cocycle]
        cases[f"{name}-lattice"] = ["lattice", f"{stem}-curve.txt"]
    for name in RANDOM_INPUTS:
        stem = f"tests/golden/inputs/{name}"
        cases[f"{name}-random-cz-test-curve"] = [
            "cz-test", f"{stem}-curve.txt", "--cocycle", f"{stem}-random.json"]
    for name in GRAPH_INPUTS:
        stem = f"tests/golden/inputs/{name}"
        for kind in ("trivial", "random"):
            cases[f"{name}-{kind}-cz-test-diophantine"] = [
                "cz-test", f"{stem}.txt", "--cocycle", f"{stem}-{kind}.json"]
    for name in CLASSIFY_INPUTS:
        cases[f"{name}-classify"] = ["classify", f"tests/golden/inputs/{name}.txt"]
    cases["verify-theorem-6"] = ["verify-theorem", "--max-edges", "6"]
    cases["verify-theorem-8"] = ["verify-theorem", "--max-edges", "8"]
    cases["verify-theorem-9"] = ["verify-theorem", "--max-edges", "9"]
    return cases


CASES = _cases()


def golden_stdout(argv: list[str]) -> str:
    """Run the CLI with `--json` and return stdout, input paths normalized."""
    paths = {a: str(ROOT / a) for a in argv if (ROOT / a).is_file()}
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main([paths.get(a, a) for a in argv] + ["--json"])
    assert code == EXIT_OK
    out = buf.getvalue()
    for rel, path in paths.items():
        out = out.replace(json.dumps(path), json.dumps(rel))
    return out


@pytest.mark.parametrize("stem", sorted(CASES))
def test_golden_json_output(stem):
    expected = (GOLDEN / f"{stem}.json").read_text(encoding="utf-8")
    assert golden_stdout(CASES[stem]) == expected


def test_every_golden_file_has_a_case():
    assert {path.stem for path in GOLDEN.glob("*.json")} == set(CASES)


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for stem, argv in sorted(CASES.items()):
        (GOLDEN / f"{stem}.json").write_text(golden_stdout(argv), encoding="utf-8")
        print(stem)
