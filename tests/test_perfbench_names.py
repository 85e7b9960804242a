"""The benchmark under `perfbench/` reaches into czgraph by name: the tracer
wraps each `(module, attribute)` in `tracing.TRACED` with `getattr`, the pool
builder and the worker import functions, and the worker reads the minor
cache.  A rename or move in `src/` that drops one of these names breaks
`perfbench/run.py` at run time, so this test resolves every one of them.

The names are read from the benchmark's sources with `ast`, without
importing them.
"""

import ast
import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# attributes the worker reads off the modules it imports
WORKER_ATTRIBUTES = [("minors", "_negative_cache"), ("minors", "clear_minor_cache"),
                     ("cli", "run_command")]


def _traced() -> list[tuple[str, str]]:
    tree = ast.parse((PERFBENCH / "tracing.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets):
            return [tuple(pair) for pair in ast.literal_eval(node.value)]
    raise AssertionError("perfbench/tracing.py defines no TRACED list")


def _imported() -> list[tuple[str, str]]:
    """(module, name) for every `from czgraph[.module] import name`."""
    out = []
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.module and (
                    node.module == "czgraph" or node.module.startswith("czgraph.")):
                module = node.module.partition(".")[2]
                out += [(module, alias.name) for alias in node.names]
    return out


def _resolve(module: str, attr: str) -> None:
    mod = importlib.import_module(f"czgraph.{module}" if module else "czgraph")
    if "." in attr:
        # the tracer replaces the method in the class's own namespace
        cls_name, meth = attr.split(".")
        assert meth in vars(getattr(mod, cls_name)), f"{module}.{attr}"
    elif not hasattr(mod, attr):
        importlib.import_module(f"{mod.__name__}.{attr}")


def test_benchmark_reads_traced_and_imported_names():
    traced, imported = _traced(), _imported()
    assert len(traced) > 20 and len(imported) > 5


@pytest.mark.parametrize("module, attr",
                         sorted(set(_traced() + _imported() + WORKER_ATTRIBUTES)))
def test_benchmark_name_resolves(module, attr):
    _resolve(module, attr)
