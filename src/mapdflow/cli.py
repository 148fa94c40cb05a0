"""Command-line entry point: single runs, experiment matrices, benchmarks.

Comma-separated values for ``--agents``, ``--strategy``, ``--cost`` and
``--seed`` expand into a full experiment matrix; each (config, seed) cell
becomes one row of ``results.csv`` and one entry of the JSON summary.
Logical-mode outputs zero out wall-clock columns so repeated invocations
are byte-identical; ``--bench`` reports real solver-time percentiles per
agent count and strategy, for one cost model and one seed.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import json
import os
import sys
from dataclasses import replace

import numpy as np

from .grid_map import GridMap, parse_map
from .simulator import (COST_MODELS, STRATEGIES, SimConfig, SimMetrics,
                        Simulation)


RESULTS_HEADER = ("map,agents,strategy,cost,gamma,seed,steps,schedule_k,mode,"
                  "throughput,makespan,timeouts,total_assignment_cost,"
                  "solver_ms_p50,solver_ms_p95,solver_ms_max\n")

BENCH_HEADER = "strategy,agents,solves,p50_ms,p95_ms,max_ms\n"

SUMMARY_SCHEMA = {
    "type": "object",
    "required": ["runs"],
    "properties": {
        "runs": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["map", "agents", "strategy", "cost", "seed",
                             "steps", "mode", "throughput", "timeouts"],
                "properties": {
                    "map": {"type": "string"},
                    "agents": {"type": "integer", "minimum": 1},
                    "strategy": {"enum": list(STRATEGIES)},
                    "cost": {"enum": list(COST_MODELS)},
                    "gamma": {"type": "number"},
                    "seed": {"type": "integer"},
                    "steps": {"type": "integer", "minimum": 0},
                    "schedule_k": {"type": "integer", "minimum": 1},
                    "mode": {"enum": ["logical", "wall-clock"]},
                    "throughput": {"type": "integer", "minimum": 0},
                    "makespan": {"type": ["integer", "null"]},
                    "timeouts": {"type": "integer", "minimum": 0},
                    "total_assignment_cost": {"type": "number"},
                    "solver_ms_p50": {"type": "number"},
                    "solver_ms_p95": {"type": "number"},
                    "solver_ms_max": {"type": "number"},
                },
            },
        },
    },
}


def _int_list(text: str) -> list[int]:
    return [int(x) for x in text.split(",") if x.strip()]


def _str_list(text: str) -> list[str]:
    return [x.strip() for x in text.split(",") if x.strip()]


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="mapdflow",
        description="Lifelong MAPD with flow-based task assignment")
    p.add_argument("--map", required=True, help="map file (MovingAI format)")
    p.add_argument("--agents", type=_int_list, default=[10],
                   help="agent count(s), comma separated")
    p.add_argument("--strategy", type=_str_list, default=["flow"],
                   help=f"assignment strategies, any of {','.join(STRATEGIES)}")
    p.add_argument("--cost", type=_str_list, default=["unit"],
                   help=f"edge cost models, any of {','.join(COST_MODELS)}")
    p.add_argument("--gamma", type=float, default=0.9,
                   help="decay factor for the avg-wait cost model")
    p.add_argument("--pool-ratio", type=float, default=1.5,
                   help="task pool size as a multiple of the agent count")
    p.add_argument("--release-f", type=int, default=None, metavar="F",
                   help="release F tasks per step instead of keeping a constant pool")
    p.add_argument("--task-budget", type=int, default=None,
                   help="total tasks to release in per-step mode (enables makespan)")
    p.add_argument("--schedule-k", type=int, default=1,
                   help="run the assignment strategy every k steps")
    p.add_argument("--steps", type=int, default=1000, help="simulation horizon")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--budget-ms", type=float, default=None,
                      help="per-step planning budget in milliseconds")
    mode.add_argument("--logical", action="store_true",
                      help="ignore wall-clock budgets (deterministic mode)")
    p.add_argument("--seed", type=_int_list, default=[0],
                   help="random seed(s), comma separated")
    p.add_argument("--task-dist", choices=["uniform", "labeled-es"],
                   default="uniform",
                   help="task endpoint distribution (labeled-es needs E/S cells)")
    p.add_argument("--out", default=None, help="output directory")
    p.add_argument("--trace", action="store_true",
                   help="write per-step action traces (requires --out)")
    p.add_argument("--workers", type=int, default=1,
                   help="parallel worker processes for the experiment matrix")
    p.add_argument("--bench", action="store_true",
                   help="benchmark per-step solver times instead of full metrics")
    p.add_argument("--bench-steps", type=int, default=20,
                   help="measured scheduling rounds per bench configuration")
    return p


def _percentiles(times_ms: list[float]) -> tuple[float, float, float]:
    if not times_ms:
        return 0.0, 0.0, 0.0
    arr = np.asarray(times_ms)
    return (float(np.percentile(arr, 50)), float(np.percentile(arr, 95)),
            float(arr.max()))


def _run_one(args: tuple[str, SimConfig, bool]) -> tuple[SimMetrics, list]:
    map_text, config, trace = args
    sim = Simulation(parse_map(map_text), config, trace=trace)
    metrics = sim.run()
    return metrics, sim.trace_rows


def _summary_row(map_name: str, config: SimConfig, metrics: SimMetrics,
                 logical: bool) -> dict:
    if logical:
        p50 = p95 = pmax = 0.0
    else:
        p50, p95, pmax = _percentiles([t * 1000 for t in metrics.solver_times])
    return {
        "map": map_name,
        "agents": config.num_agents,
        "strategy": config.strategy,
        "cost": config.cost_model,
        "gamma": config.gamma,
        "seed": config.seed,
        "steps": len(metrics.steps),
        "schedule_k": config.schedule_period,
        "mode": "logical" if logical else "wall-clock",
        "throughput": metrics.throughput,
        "makespan": metrics.makespan,
        "timeouts": metrics.timeout_count,
        "total_assignment_cost": metrics.total_assignment_cost,
        "solver_ms_p50": p50,
        "solver_ms_p95": p95,
        "solver_ms_max": pmax,
    }


def _results_line(row: dict) -> str:
    makespan = "" if row["makespan"] is None else row["makespan"]
    return (f"{row['map']},{row['agents']},{row['strategy']},{row['cost']},"
            f"{row['gamma']},{row['seed']},{row['steps']},{row['schedule_k']},"
            f"{row['mode']},{row['throughput']},{makespan},{row['timeouts']},"
            f"{row['total_assignment_cost']:.6f},{row['solver_ms_p50']:.3f},"
            f"{row['solver_ms_p95']:.3f},{row['solver_ms_max']:.3f}\n")


def bench_scaling(grid: GridMap, agent_counts: list[int], strategies: list[str],
                  rounds: int = 20, base: SimConfig | None = None) -> list[dict]:
    """Solver-time percentiles per (strategy, agent count).

    Each of the ``rounds`` measurements is the assignment phase of a
    freshly seeded simulation, so every solve sees the full team and a
    full task pool; mid-run states would mostly contain delivering agents
    and hide the solver's scaling in team size. Every simulation is
    ``base`` (default :class:`SimConfig`) with the team size, the strategy
    and one step set, and the seeds ``base.seed``, ``base.seed + 1``, ...
    """
    base = base or SimConfig()
    out = []
    for strategy in strategies:
        for n in agent_counts:
            times = []
            for rep in range(rounds):
                config = replace(base, num_agents=n, strategy=strategy,
                                 horizon=1, seed=base.seed + rep)
                sim = Simulation(grid, config)
                times.append(sim.step().solver_time * 1000)
            p50, p95, pmax = _percentiles(times)
            out.append({"strategy": strategy, "agents": n, "solves": len(times),
                        "p50_ms": p50, "p95_ms": p95, "max_ms": pmax})
    return out


def run_cli(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    for flag in ("agents", "strategy", "cost", "seed"):
        if not getattr(args, flag):
            parser.error(f"--{flag} needs at least one value")
    for flag in ("cost", "seed"):
        if args.bench and len(getattr(args, flag)) > 1:
            parser.error(f"--{flag} takes one value with --bench")
    for strategy in args.strategy:
        if strategy not in STRATEGIES:
            parser.error(f"unknown strategy {strategy!r}")
    for cost in args.cost:
        if cost not in COST_MODELS:
            parser.error(f"unknown cost model {cost!r}")
    if args.trace and not args.out:
        parser.error("--trace requires --out")
    if args.task_budget is not None and args.release_f is None:
        parser.error("--task-budget requires --release-f")

    logical = args.budget_ms is None
    base = SimConfig(
        gamma=args.gamma,
        pool_ratio=args.pool_ratio,
        schedule_period=args.schedule_k,
        horizon=args.steps,
        step_budget=None if logical else args.budget_ms / 1000.0,
        task_distribution=args.task_dist,
    )
    if args.release_f is not None:
        base = replace(base, pool_policy="per-step",
                       release_per_step=args.release_f,
                       task_budget=args.task_budget)

    configs = [replace(base, strategy=strategy, cost_model=cost,
                       num_agents=n, seed=seed)
               for strategy in args.strategy
               for cost in args.cost
               for n in args.agents
               for seed in args.seed]
    try:
        for config in configs:
            config.validate()
        with open(args.map, encoding="utf-8") as fh:
            map_text = fh.read()
        grid = parse_map(map_text)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if args.bench:
        rows = bench_scaling(grid, args.agents, args.strategy,
                             rounds=args.bench_steps, base=configs[0])
        text = BENCH_HEADER + "".join(
            f"{r['strategy']},{r['agents']},{r['solves']},"
            f"{r['p50_ms']:.3f},{r['p95_ms']:.3f},{r['max_ms']:.3f}\n"
            for r in rows)
        if args.out:
            os.makedirs(args.out, exist_ok=True)
            with open(os.path.join(args.out, "bench.csv"), "w") as fh:
                fh.write(text)
        print(text, end="")
        return 0

    jobs = [(map_text, config, args.trace) for config in configs]
    if args.workers > 1 and len(jobs) > 1:
        with concurrent.futures.ProcessPoolExecutor(args.workers) as pool:
            outcomes = list(pool.map(_run_one, jobs))
    else:
        outcomes = [_run_one(job) for job in jobs]

    map_name = os.path.basename(args.map)
    rows = [_summary_row(map_name, config, metrics, logical)
            for config, (metrics, _) in zip(configs, outcomes)]
    summary = {"runs": rows}

    if args.out:
        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, "results.csv"), "w") as fh:
            fh.write(RESULTS_HEADER)
            for row in rows:
                fh.write(_results_line(row))
        with open(os.path.join(args.out, "summary.json"), "w") as fh:
            json.dump(summary, fh, indent=2)
            fh.write("\n")
        for config, (metrics, trace_rows) in zip(configs, outcomes):
            tag = (f"{config.strategy}_{config.cost_model}"
                   f"_n{config.num_agents}_s{config.seed}")
            with open(os.path.join(args.out, f"steps_{tag}.csv"), "w") as fh:
                metrics.write_csv(fh, logical=logical)
            if args.trace:
                with open(os.path.join(args.out, f"trace_{tag}.csv"), "w") as fh:
                    fh.write("step,agent,from,to,action\n")
                    for step, agent, src, dst, kind in trace_rows:
                        fh.write(f"{step},{agent},{src},{dst},{kind}\n")
    else:
        json.dump(summary, sys.stdout, indent=2)
        print()
    return 0


def main() -> None:
    try:
        sys.exit(run_cli())
    except Exception as exc:  # runtime invariant violations -> diagnostics
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":
    main()
