"""Logical-mode outputs pinned byte for byte.

Each case runs a short lifelong simulation and compares the sha256 of its
logical per-step CSV (:meth:`SimMetrics.csv_text`) with a recorded value.
A change meant to make the engine faster, not different, must leave every
digest as it is; a change that alters what the engine computes records
new digests and says why. The flow runs are also traced, and the trace is
replayed against the map alone (:func:`check_trace`).
"""

import hashlib
from pathlib import Path
from types import SimpleNamespace

import pytest

from mapdflow import SimConfig, Simulation, parse_map, random_map

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
    ("warehouse_21x35.map", 150, "avg-wait", "labeled-es", 1):
        "cb2ccb046913a6eba520f07f62d3119c25b0b6b143862e0c77df304769a94907",
    ("random64.map", 200, "traffic", "uniform", 3):
        "2a4b10839b53bc53540b43cf608537f1ba9aef1ce5ffb0fa8e7bc3827d5a2473",
}

# Steps per case (default 60). The benchmark map runs longer so that guide
# heuristics cover delivery legs of up to ~100 cells, which random32 lacks.
# The dense warehouse case runs 300 steps so that wait statistics decay
# over ages in the hundreds; the random64 traffic case plans every third
# step, so delivery paths are set and cleared between cost snapshots.
HORIZON = {("random64.map", 200, "unit", "uniform", 1): 80,
           ("warehouse_21x35.map", 150, "avg-wait", "labeled-es", 1): 300}


def case_id(case):
    map_file, agents, cost_model, _, period = case
    if map_file == "random64.map":
        prefix = "random64-"
    elif agents == 150:
        prefix = "warehouse150-"
    else:
        prefix = ""
    return f"{prefix}{cost_model}-k{period}"


def check_trace(sim):
    """Replay ``sim.trace_rows`` using map coordinates and free cells only.

    Every step lists each agent once, in id order. Each agent starts a step
    where it ended the last one and either waits or moves to a free cell at
    Manhattan distance 1. No two agents end a step on one cell or swap
    cells. The last step ends where the agents are.
    """
    grid, n = sim.grid, len(sim.agents)
    assert len(sim.trace_rows) == n * sim.step_idx
    where = None
    for t in range(sim.step_idx):
        rows = sim.trace_rows[t * n:(t + 1) * n]
        assert [r[:2] for r in rows] == [(t + 1, i) for i in range(n)]
        old = [r[2] for r in rows]
        new = [r[3] for r in rows]
        assert where is None or old == where, f"agent jumped between steps at {t + 1}"
        for a, b, kind in zip(old, new, (r[4] for r in rows)):
            assert kind == ("move" if a != b else "wait")
            if a != b:
                (ya, xa), (yb, xb) = divmod(a, grid.width), divmod(b, grid.width)
                assert abs(ya - yb) + abs(xa - xb) == 1, f"jump {a}->{b} at {t + 1}"
                assert grid.free[b], f"move into blocked cell {b} at {t + 1}"
        assert len(set(new)) == n, f"shared cell at step {t + 1}"
        moves = {(a, b) for a, b in zip(old, new) if a != b}
        assert not any((b, a) in moves for a, b in moves), f"swap at step {t + 1}"
        where = new
    assert where == [a.location for a in sim.agents]
    sim.check_invariants()


# ....   cells 0 1 2 3
# ..@.         4 5 6 7   (6 blocked); two agents, last cells per case.
REPLAY_CASES = {
    "valid": ([(1, 0, 0, 1, "move"), (1, 1, 5, 5, "wait"),
               (2, 0, 1, 2, "move"), (2, 1, 5, 4, "move")], [2, 4]),
    "jump": ([(1, 0, 0, 2, "move"), (1, 1, 5, 5, "wait")], [2, 5]),
    "wrap": ([(1, 0, 3, 4, "move"), (1, 1, 5, 5, "wait")], [4, 5]),
    "blocked": ([(1, 0, 2, 6, "move"), (1, 1, 5, 5, "wait")], [6, 5]),
    "shared": ([(1, 0, 0, 1, "move"), (1, 1, 5, 1, "move")], [1, 1]),
    "swap": ([(1, 0, 0, 1, "move"), (1, 1, 1, 0, "move")], [1, 0]),
    "restart": ([(1, 0, 0, 1, "move"), (1, 1, 5, 5, "wait"),
                 (2, 0, 2, 2, "wait"), (2, 1, 5, 5, "wait")], [2, 5]),
    "kind": ([(1, 0, 0, 0, "move"), (1, 1, 5, 5, "wait")], [0, 5]),
}


@pytest.mark.parametrize("name", list(REPLAY_CASES))
def test_check_trace_rejects_fabricated_faults(name):
    rows, last = REPLAY_CASES[name]
    grid = parse_map("type octile\nheight 2\nwidth 4\nmap\n....\n..@.\n")
    sim = SimpleNamespace(grid=grid, trace_rows=rows, step_idx=rows[-1][0],
                          agents=[SimpleNamespace(location=c) for c in last],
                          check_invariants=lambda: None)
    if name == "valid":
        check_trace(sim)
    else:
        with pytest.raises(AssertionError):
            check_trace(sim)


def run_traced(grid, config):
    sim = Simulation(grid, config, trace=True)
    csv = sim.run().csv_text(logical=True)
    check_trace(sim)
    return hashlib.sha256(csv.encode()).hexdigest()


@pytest.mark.parametrize("case", list(GOLDEN), ids=case_id)
def test_logical_csv_digest(case):
    map_file, agents, cost_model, tasks, period = case
    grid = parse_map((MAPS / map_file).read_text())
    config = SimConfig(num_agents=agents, strategy="flow", cost_model=cost_model,
                       schedule_period=period, task_distribution=tasks,
                       horizon=HORIZON.get(case, 60), seed=5)
    assert run_traced(grid, config) == GOLDEN[case]


# A generated 128 x 128 map with 1000 agents (50 steps, about 10 s): legs of
# ~90 cells and ~1000 live goal fields, the scale at which field storage and
# the distance-table cache show.
RANDOM128_GOLDEN = "9388c7015eee34ca107b97beda3b86272ca53920b5990829b642988cadb25f06"


def test_random128_csv_digest():
    grid = random_map(128, 128, 0.2, seed=1)
    config = SimConfig(num_agents=1000, strategy="flow", cost_model="unit",
                       horizon=50, seed=5)
    assert run_traced(grid, config) == RANDOM128_GOLDEN


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
