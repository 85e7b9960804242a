"""The benchmark's input pool is pinned: `perfbench/build_pool.py` draws it
from fixed seeds, and every cocycle in it is printed by czgraph's renderer
and every verdict digest by its CLI.  A change that moves one byte of
either makes the pool stale, so this test rebuilds the pool into a
temporary directory and compares it with `perfbench/pool.json`.  It writes
nothing under `perfbench/`.
"""

import importlib.util
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_pool_rebuilds_byte_for_byte(tmp_path, monkeypatch):
    # the builder puts src/ and perfbench/ on sys.path when imported
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location("build_pool", PERFBENCH / "build_pool.py")
    build_pool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(build_pool)
    monkeypatch.setattr(build_pool, "HERE", tmp_path)
    monkeypatch.setattr(build_pool, "WORK", tmp_path / "out" / "pool_build")
    build_pool.main()
    assert (tmp_path / "pool.json").read_bytes() == (PERFBENCH / "pool.json").read_bytes()
