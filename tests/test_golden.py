"""Golden-output lock: the `--json` stdout of every subcommand on both
fixtures, byte for byte.

The graph file's path is written into the report's inputs, so it is
normalized to `fixtures/<name>` before the comparison.  To regenerate the
files after a deliberate output change, run

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
ONES = "1,1,1,1,1,1"


def _cases() -> dict[str, tuple[str | None, list[str]]]:
    """Golden file stem -> (fixture name or None, argv; "@" is the fixture's path)."""
    cases: dict[str, tuple[str | None, list[str]]] = {}
    for name, fx in FIXTURES.items():
        cases[f"{name}-qmatrix"] = (name, ["qmatrix", "@"])
        cases[f"{name}-qmatrix-tree"] = (name, ["qmatrix", "@", "--tree", fx["tree"]])
        cases[f"{name}-classify"] = (name, ["classify", "@"])
        for pattern in ("K4", "L3"):
            cases[f"{name}-minor-{pattern}"] = (name, ["minor", "@", "--pattern", pattern])
        for mode in ("diophantine", "psi"):
            cases[f"{name}-cz-test-{mode}"] = (
                name, ["cz-test", "@", "--cocycle", fx["cocycle"], "--mode", mode])
        cases[f"{name}-cz-test-curve"] = (
            name, ["cz-test", "@", "--cocycle", fx["cocycle"], "--lengths", ONES])
        cases[f"{name}-lattice"] = (name, ["lattice", "@", "--lengths", ONES])
    cases["verify-theorem-6"] = (None, ["verify-theorem", "--max-edges", "6"])
    return cases


CASES = _cases()


def golden_stdout(fixture: str | None, argv: list[str]) -> str:
    """Run the CLI with `--json` and return stdout, graph path normalized."""
    path = str(ROOT / "fixtures" / f"{fixture}.txt") if fixture else None
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main([path if a == "@" else a for a in argv] + ["--json"])
    assert code == EXIT_OK
    out = buf.getvalue()
    if path is not None:
        out = out.replace(json.dumps(path), json.dumps(f"fixtures/{fixture}.txt"))
    return out


@pytest.mark.parametrize("stem", sorted(CASES))
def test_golden_json_output(stem):
    fixture, argv = CASES[stem]
    expected = (GOLDEN / f"{stem}.json").read_text(encoding="utf-8")
    assert golden_stdout(fixture, argv) == expected


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for stem, (fixture, argv) in sorted(CASES.items()):
        (GOLDEN / f"{stem}.json").write_text(golden_stdout(fixture, argv),
                                             encoding="utf-8")
        print(stem)
