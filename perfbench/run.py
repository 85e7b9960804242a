"""czgraph benchmark: one workload, one seed, one fresh worker process.

    python3 perfbench/run.py --workload cz_graph --seed 1 --seconds 20 --trace 0

Run from the repository root.  Set-up times a fresh interpreter importing
`czgraph.cli` (several times; the median is `setup_s`), then writes the
seeded inputs under `perfbench/out/` and starts `worker.py`, which runs the
ops through the CLI code path in-process and checks every output.  The last
line of standard output is the result object; earlier lines describe the
environment and the run.  With `--trace 1` the result carries the per-layer
metrics of `tracing.py` instead of the end-to-end ones.  The exit code is
non-zero when any op failed the correctness gate, or when the benchmark
cannot run (for example, no `src/czgraph` under the working directory).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS, plan  # noqa: E402

SETUP_SAMPLES = 7
WORKER_TIMEOUT_S = 160

# The metric names, units and order come from BENCHMARK.json.
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
SCALE_METRIC = {"cz_graph": "scale.cz_graph_g7_s", "cz_curve": "scale.cz_curve_g7_s",
                "classify": "scale.classify_ladder7_s"}


def percentile(values: list[float], pct: float) -> float:
    """Linear interpolation between closest ranks."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * pct / 100
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def measure_setup(src: Path) -> float:
    """Median wall time of a fresh interpreter importing czgraph.cli."""
    env = dict(os.environ, PYTHONPATH=str(src))
    samples = []
    for _ in range(SETUP_SAMPLES):
        # no timeout: waiting with one polls in steps of up to 50 ms
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import czgraph.cli"], env=env, check=True)
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def git_sha(root: Path) -> str | None:
    """HEAD of the checkout at `root`, or None outside a git checkout."""
    if not (root / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="a few small inputs per workload (smoke test)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "czgraph" / "cli.py").is_file():
        print(f"no czgraph sources under {src}; run from the repository root",
              file=sys.stderr)
        return 2
    out_dir = HERE / "out"
    work = out_dir / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        setup_s = measure_setup(src)
        run_plan = plan(args.workload, args.seed, work, tiny=args.tiny)
        run_plan.update(seconds=args.seconds, trace=bool(args.trace), src=str(src),
                        spans_path=str(out_dir / f"spans-{args.workload}.bin"))
        plan_path = work / "plan.json"
        plan_path.write_text(json.dumps(run_plan), encoding="utf-8")
        done = subprocess.run([sys.executable, str(HERE / "worker.py"), str(plan_path)],
                              capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        print(f"worker exited with code {done.returncode}", file=sys.stderr)
        return 3
    raw = json.loads(done.stdout.strip().splitlines()[-1])
    lat = raw["latencies"]
    failed = len(raw["failures"])
    for reason in raw["failures"][:20]:
        print(f"gate failure: {reason}", file=sys.stderr)
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "interpreter": f"{platform.python_implementation()} {platform.python_version()}",
        "nproc": os.cpu_count(), "git_sha": git_sha(root),
        "passes": raw["passes"], "ops_per_pass": raw["ops_per_pass"],
        "timed_ops": len(lat), "tail_percentile": run_plan["tail_pct"],
        "fail_frac": failed / raw["attempted"],
    }))
    if args.trace:
        values = dict(raw["trace"], fail_frac=failed / raw["attempted"])
        if raw["scale_s"]:
            values[SCALE_METRIC[args.workload]] = raw["scale_s"][0]
        metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]}
                   for m in SPEC["per_layer"]}
    else:
        values = {
            "setup_s": setup_s,
            "ops_per_s": len(lat) / sum(lat),
            "op_p50_s": percentile(lat, 50),
            "op_tail_s": percentile(lat, run_plan["tail_pct"]),
            "peak_rss_mb": raw["peak_rss_kb"] / 1024,
        }
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in SPEC["end_to_end"]}
    print(json.dumps({"correct": failed == 0, "attempted": raw["attempted"],
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
