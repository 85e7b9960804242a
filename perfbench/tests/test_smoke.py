"""Smoke test: every workload at a tiny size, untraced and traced.

    python3 -m pytest perfbench/tests -q

Run from the repository root.  Asserts that every metric in BENCHMARK.json
is reported with its unit, that no op failed, and that the gate rejects
wrong verdicts and witnesses.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "perfbench"))

import gate  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_reports_every_metric(workload, trace):
    done = _run(workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for metric in wanted:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    if trace:
        assert result["metrics"]["fail_frac"]["value"] == 0
        assert result["metrics"]["trace.coverage"]["value"] > 0
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_same_seed_same_inputs(tmp_path):
    from workloads import plan
    first, second = tmp_path / "a", tmp_path / "b"
    first.mkdir()
    second.mkdir()
    a = plan("cz_graph", 7, first)
    b = plan("cz_graph", 7, second)
    assert [op["input"] for op in a["ops"]] == [op["input"] for op in b["ops"]]
    assert sorted(p.read_text() for p in first.iterdir()) == \
        sorted(p.read_text() for p in second.iterdir())


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = _run("cz_graph", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def test_gate_rejects_a_changed_verdict():
    result = {"trivial": True, "method": "graph-diophantine", "class": {"c": []}}
    op = {"kind": "cz-graph", "stratum": "g3",
          "expect": {"digest": gate.verdict_digest("cz-graph", result),
                     "must_be_trivial": True}}
    assert gate.check(op, result) is None
    assert gate.check(op, dict(result, trivial=False)) is not None


K4_SUBDIVIDED = "\n".join(["v 1", "v 2", "v 3", "v 4", "v 5",
                           "e a 1 2", "e b 1 3", "e c 1 4", "e d 2 3",
                           "e e 2 5", "e f 5 4", "e g 3 4"]) + "\n"


def test_witness_replay():
    good = {"pattern": "K4", "ops": [["contract", "e"]]}
    assert gate.witness_replays(K4_SUBDIVIDED, good)
    assert not gate.witness_replays(K4_SUBDIVIDED, {"pattern": "K4", "ops": [["delete", "e"]]})
    assert not gate.witness_replays(K4_SUBDIVIDED, {"pattern": "L3", "ops": [["contract", "e"]]})
