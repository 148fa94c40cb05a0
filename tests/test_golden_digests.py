"""Logical-mode outputs pinned byte for byte.

Each case runs a short lifelong simulation and compares the sha256 of its
logical per-step CSV (:meth:`SimMetrics.csv_text`) with a recorded value.
A change meant to make the engine faster, not different, must leave every
digest as it is; a change that alters what the engine computes records
new digests and says why.
"""

import hashlib
from pathlib import Path

import pytest

from mapdflow import SimConfig, Simulation, parse_map

MAPS = Path(__file__).resolve().parent.parent / "maps"

# (map, agents, cost model, task distribution, schedule period) -> sha256
GOLDEN = {
    ("random32.map", 40, "unit", "uniform", 1):
        "8dace358e434556e48b18e13026632800d06f80204ec15c9b4c340dd698a8cdd",
    ("random32.map", 40, "traffic", "uniform", 1):
        "d42be40dc06429cab9fa0adc387095334e8139586d9cfe8bdb795af70351d5b0",
    ("warehouse_21x35.map", 60, "avg-wait", "labeled-es", 1):
        "25d4f927de729cd21795fd228148aa0eb4c1da14768fbfd13e165ea1d011ddf4",
    ("random32.map", 40, "unit", "uniform", 3):
        "216f12b90f6f0c753d2833cfa76e11ad8c888530de9694ac917da4f97cce101b",
    ("random32.map", 40, "traffic", "uniform", 3):
        "13f967f8f5aa3135534225bb6c469bcd517c6625471194cc3d2824df0f2aceee",
    ("warehouse_21x35.map", 60, "avg-wait", "labeled-es", 3):
        "d322493d91cf8d06975b32f95ebc0aa1b2e3741bfbbed8e14db49c4a44be68eb",
    ("random64.map", 200, "unit", "uniform", 1):
        "c922334ea9d9f4ef02761d84a37fba8616d8c9dfac233451d61ce820cb0b7823",
    ("random64.map", 200, "traffic", "uniform", 1):
        "062eed7417f8c22cea4413bb4169b5f80e55c26b46a77e3e92c6468a94aedc95",
}

# Steps per case (default 60). The benchmark map runs longer so that guide
# heuristics cover delivery legs of up to ~100 cells, which random32 lacks.
HORIZON = {("random64.map", 200, "unit", "uniform", 1): 80}


def case_id(case):
    map_file, _, cost_model, _, period = case
    prefix = "random64-" if map_file == "random64.map" else ""
    return f"{prefix}{cost_model}-k{period}"


@pytest.mark.parametrize("case", list(GOLDEN), ids=case_id)
def test_logical_csv_digest(case):
    map_file, agents, cost_model, tasks, period = case
    grid = parse_map((MAPS / map_file).read_text())
    config = SimConfig(num_agents=agents, strategy="flow", cost_model=cost_model,
                       schedule_period=period, task_distribution=tasks,
                       horizon=HORIZON.get(case, 60), seed=5)
    csv = Simulation(grid, config).run().csv_text(logical=True)
    assert hashlib.sha256(csv.encode()).hexdigest() == GOLDEN[case]


# Greedy and linear assignment, which the flow cases above do not reach:
# (strategy, map, agents, cost model, task distribution, schedule period)
# -> sha256, 60 steps at seed 5 like the flow cases.
BASELINE_GOLDEN = {
    ("greedy", "random32.map", 40, "unit", "uniform", 1):
        "753c2c7a5ac0565848a2fe634bbe7701e6defdbab0e02aac7502b11a03a4150b",
    ("greedy", "random32.map", 40, "traffic", "uniform", 3):
        "266a84a724adbda3baec650715106f1ed9d0b83a7e9fdd9dbbe5d2ebe118479f",
    ("greedy", "warehouse_21x35.map", 60, "avg-wait", "labeled-es", 1):
        "f21cfb90487f2988c32c82848d5a6a99e1b788ab59b502937d43778ea261b4ee",
    ("linear", "random32.map", 40, "unit", "uniform", 1):
        "1c15a95faaeb3e1c5cb8c3608980eb700c400e37f6c85ad14cbdc5413c937dbf",
    ("linear", "random32.map", 40, "traffic", "uniform", 3):
        "fa63937dfa3fbea98c5cb46185a0591f1197e5ba649a423da5281a3a4cf50d74",
    ("linear", "warehouse_21x35.map", 60, "avg-wait", "labeled-es", 1):
        "342ab00b45eedd0fc731e1d4d0d73235eb3e24ec31885c6167309ecaa0ce49b4",
}


@pytest.mark.parametrize("case", list(BASELINE_GOLDEN),
                         ids=lambda c: f"{c[0]}-{case_id(c[1:])}")
def test_baseline_strategy_csv_digest(case):
    strategy, map_file, agents, cost_model, tasks, period = case
    grid = parse_map((MAPS / map_file).read_text())
    config = SimConfig(num_agents=agents, strategy=strategy,
                       cost_model=cost_model, schedule_period=period,
                       task_distribution=tasks, horizon=60, seed=5)
    csv = Simulation(grid, config).run().csv_text(logical=True)
    assert hashlib.sha256(csv.encode()).hexdigest() == BASELINE_GOLDEN[case]
