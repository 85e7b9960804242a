"""Runs one workload's ops in this (fresh) process and prints raw results.

    python3 perfbench/worker.py <plan.json>

Invoked by `run.py`; the plan holds the op list of one pass.  Ops go
through `czgraph.cli.run_command(argv)` and `CommandReport.render(compact=
True)`, one after another in one thread (a closed loop with one client).
Only that call pair is timed; the correctness gate and clearing the minor
cache run between ops, outside the timed region.

After one untimed warm-up op, the run repeats the pass whole, as many times
as fit the time budget by the first pass's duration, so every pass has the
same input mix.  With tracing
on, the same number of passes runs untraced first (for the overhead ratio),
then traced, then each scaling op once, untraced.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gate  # noqa: E402


class Runner:
    def __init__(self, cli, minors):
        self.cli = cli
        self.minors = minors
        self.failures: list[str] = []
        self.attempted = 0
        self.negative_cache_max = 0

    def run_op(self, op: dict, tracer=None) -> float:
        if op.get("clear_minor_cache"):
            self.minors.clear_minor_cache()
        self.attempted += 1
        root = tracer.begin_op() if tracer is not None else None
        t0 = time.perf_counter()
        try:
            text = self.cli.run_command(op["argv"]).render(compact=True)
        except Exception as exc:  # every failing op is counted, not fatal
            text = None
            error = f"{op['argv'][0]} {op['input']}: {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - t0
        if root is not None:
            tracer.finish(root)
        self.negative_cache_max = max(self.negative_cache_max,
                                      len(self.minors._negative_cache))
        if text is not None:
            reason = gate.check(op, json.loads(text)["result"])
            error = None if reason is None else f"{op['argv'][0]} {op['input']}: {reason}"
        if error is not None:
            self.failures.append(error)
        return elapsed

    def run_passes(self, ops: list[dict], passes: int, tracer=None) -> list[float]:
        out = []
        for _ in range(passes):
            out.extend(self.run_op(op, tracer) for op in ops)
        return out


def main(plan_path: str) -> None:
    plan = json.loads(Path(plan_path).read_text(encoding="utf-8"))
    sys.path.insert(0, plan["src"])
    from czgraph import cli, minors

    runner = Runner(cli, minors)
    ops = plan["ops"]
    budget = plan["seconds"] / 2 if plan["trace"] else plan["seconds"]
    if len(ops) > 1:
        runner.run_op(ops[0])  # warm-up: first-call costs stay out of the timings
    wall0 = time.perf_counter()
    latencies = runner.run_passes(ops, 1)
    passes = max(1, round(budget / (time.perf_counter() - wall0)))
    latencies += runner.run_passes(ops, passes - 1)
    out = {"passes": passes, "ops_per_pass": len(ops)}
    if plan["trace"]:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = runner.run_passes(ops, passes, tracer)
        finally:
            tracer.uninstall()
        tracer.write(Path(plan["spans_path"]))
        out["trace"] = tracer.summary(len(traced), runner.negative_cache_max)
        out["trace"]["trace.overhead"] = sum(traced) / sum(latencies)
        out["scale_s"] = [runner.run_op(op) for op in plan["scale"]]
    out.update(latencies=latencies, attempted=runner.attempted,
               failures=runner.failures,
               peak_rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    print(json.dumps(out))


if __name__ == "__main__":
    main(sys.argv[1])
