"""mapdflow benchmark: lifelong MAPD in logical mode, one workload per run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs ``measure.py`` in one single-threaded child process, checks its
outputs, writes a result file under ``perfbench/results/`` and prints a
table followed by one JSON line: the end-to-end metrics with ``--trace 0``,
the per-layer metrics of a traced episode with ``--trace 1``. Exits non-zero
without a result when the program or its maps are missing or the child
fails. See ``perfbench/README.md`` for workloads, metrics and seeds.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
CHILD_TIMEOUT_S = 170
# The names and maps of measure.WORKLOADS, which this process cannot
# import: it must not load the program it measures.
WORKLOADS = ("random64-flow-unit", "random64-flow-traffic",
             "warehouse-flow-avgwait-dense")
MAPS = ("random64.map", "warehouse_21x35.map")

# name -> unit, in BENCHMARK.json order.
END_TO_END = {
    "steps_per_s": "1/s",
    "step_ms_p50": "ms",
    "step_ms_p95": "ms",
    "plan_ms_p50": "ms",
    "plan_ms_p95": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "deliveries_per_kstep": "count",
    "valid_step_share": "ratio",
}


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolation percentile, ``q`` in [0, 100]."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("ms"):
        return "ms"
    return "ratio" if name.endswith("ratio") else "count"


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "mapdflow").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def git_sha() -> str | None:
    """HEAD of the tree the benchmark sits in; None if it is no git checkout."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def run_child(args: argparse.Namespace) -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    cmd = [sys.executable, str(HERE / "measure.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"measurement process exited {proc.returncode}:\n"
                           f"{proc.stderr[-4000:]}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError("measurement process printed nothing")
    return json.loads(lines[-1])


def per_step_median_ms(eps: list[dict], key: str) -> list[float]:
    """Each timed step's time in ms, as the median over the run's episodes.

    Episodes repeat identical work, so step ``i`` of every episode is one
    measurement of the same step; the median drops machine noise that hit
    only some repeats.
    """
    return [statistics.median(ep[key][i] for ep in eps) * 1000.0
            for i in range(len(eps[0][key]))]


def end_to_end(raw: dict) -> tuple[dict[str, float], dict[str, int]]:
    """Metric values and the sample count behind each."""
    eps = raw["episodes"]
    step_ms = per_step_median_ms(eps, "step_s")
    plan_ms = per_step_median_ms(eps, "plan_s")
    setups = [t for ep in eps for t in ep["setup_s"]]
    attempted = sum(ep["attempted"] for ep in eps)
    failed = sum(ep["failed"] for ep in eps)
    first = eps[0]
    values = {
        "steps_per_s": 1000.0 * len(step_ms) / sum(step_ms),
        "step_ms_p50": percentile(step_ms, 50),
        "step_ms_p95": percentile(step_ms, 95),
        "plan_ms_p50": percentile(plan_ms, 50),
        "plan_ms_p95": percentile(plan_ms, 95),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": raw["peak_rss_kb"] / 1024.0,
        "deliveries_per_kstep": first["deliveries"] * 1000.0 / first["attempted"],
        "valid_step_share": (attempted - failed) / attempted,
    }
    samples = {
        "steps_per_s": len(step_ms), "step_ms_p50": len(step_ms),
        "step_ms_p95": len(step_ms), "plan_ms_p50": len(plan_ms),
        "plan_ms_p95": len(plan_ms), "setup_s": len(setups),
        "peak_rss_mb": 1, "deliveries_per_kstep": first["attempted"],
        "valid_step_share": attempted,
    }
    return values, samples


def layer_shares(layers: dict[str, float]) -> list[tuple[str, float]]:
    """Top-level layers as shares of traced step time, largest first."""
    step = layers["simulator.step.ms"] or 1.0
    parts = {
        "build": layers["assignment.build.ms"],
        "solve": layers["mincost_flow.solve.ms"],
        "retrieve": layers["assignment.retrieve.ms"],
        "staging": layers["grid_map.shortest_path.ms"],
        "pibt": layers["planner.pibt_step.ms"],
        "guide_heuristic": layers["planner.guide_heuristic.ms"],
        "snapshot": layers["cost_models.snapshot.ms"],
        "wait_stats": layers["cost_models.wait_stats.ms"],
        "bookkeeping": layers["simulator.step.self_ms"],
    }
    return sorted(((k, v / step) for k, v in parts.items()), key=lambda kv: -kv[1])


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")

    missing = [str(path.relative_to(ROOT)) for path in
               [ROOT / "src" / "mapdflow" / "__init__.py"]
               + [ROOT / "maps" / m for m in MAPS] if not path.is_file()]
    if missing:
        print(f"benchmark: program files missing: {', '.join(missing)}",
              file=sys.stderr)
        return 2

    try:
        raw = run_child(args)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1
    if Path(raw["mapdflow_file"]).resolve().parent != ROOT / "src" / "mapdflow":
        print(f"benchmark: measured {raw['mapdflow_file']}, not this checkout",
              file=sys.stderr)
        return 1

    eps = raw["episodes"]
    attempted = sum(ep["attempted"] for ep in eps)
    failed = sum(ep["failed"] for ep in eps)
    errors = [e for ep in eps for e in ep["errors"]]
    if any(ep["deliveries"] == 0 for ep in eps):
        errors.append("an episode delivered no task")
    correct = failed == 0 and not errors
    digests = sorted({ep["digest"] for ep in eps})

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"{len(eps)} episode(s) of {raw['warmup']} warm-up + "
          f"{raw['steps']} timed steps")
    if args.trace:
        layers = raw["layers"]
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in layers.items()}
        for name, v in layers.items():
            print(f"  {name:34s} {v:14.4f} {layer_unit(name)}")
        print("  shares of traced step time: " + ", ".join(
            f"{k} {share:.1%}" for k, share in layer_shares(layers)))
    else:
        values, samples = end_to_end(raw)
        metrics = {k: {"value": values[k], "unit": unit}
                   for k, unit in END_TO_END.items()}
        for name, unit in END_TO_END.items():
            print(f"  {name:22s} {values[name]:14.4f} {unit:6s} "
                  f"n={samples[name]}")
        print(f"  step times are per-step medians over {len(eps)} episode(s)")
    print(f"  trajectory sha256 {', '.join(d[:16] for d in digests)}  "
          f"deliveries {eps[0]['deliveries']}")
    for e in errors[:10]:
        print(f"  FAILED: {e}")

    RESULTS.mkdir(exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "warmup": raw["warmup"], "steps": raw["steps"],
        "config": raw["config"],
        "correct": correct, "attempted": attempted, "failed": failed,
        "errors": errors, "metrics": metrics,
        "trajectory": [{"sha256": ep["digest"], "deliveries": ep["deliveries"]}
                       for ep in eps],
        "environment": {"git_sha": git_sha(), "source_sha256": source_digest(),
                        **raw["versions"],
                        "nproc": len(os.sched_getaffinity(0))},
        "time": stamp,
    }
    if not args.trace:
        record["samples"] = samples
    out = RESULTS / (f"{args.workload}-seed{args.seed}-trace{args.trace}-"
                     f"{stamp}-{os.getpid()}.json")
    out.write_text(json.dumps(record, indent=1) + "\n")

    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
