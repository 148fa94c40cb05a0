"""Tests of the benchmark itself: span arithmetic, the step validator,
instrumentation hygiene, the metric lists and a few-step smoke run of
every workload.

    python3 -m pytest -q perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import measure  # noqa: E402  (puts src/ on sys.path)
import run  # noqa: E402
from tracer import Tracer, instrument  # noqa: E402

from mapdflow import GridMap, assignment, cost_models, grid_map, simulator  # noqa: E402


class FakeClock:
    def __init__(self, ticks):
        self.ticks = iter(ticks)

    def __call__(self):
        return next(self.ticks)


def test_span_self_time_on_synthetic_nested_calls():
    # outer [0, 10] holds a [1, 4] and b [5, 6]; b holds c [5.25, 5.75];
    # a second call of a [8, 9] also sits inside outer.
    tr = Tracer(clock=FakeClock([0, 1, 4, 5, 5.25, 5.75, 6, 8, 9, 10]))
    tr.enter("outer")
    tr.enter("a")
    tr.exit()
    tr.enter("b")
    with tr.span("c"):
        pass
    tr.exit()
    tr.enter("a")
    tr.exit()
    tr.exit()
    assert tr.spans["outer"] == [1, 10.0, 5.0]
    assert tr.spans["a"] == [2, 4.0, 4.0]
    assert tr.spans["b"] == [1, 1.0, 0.5]
    assert tr.spans["c"] == [1, 0.5, 0.5]
    assert tr.self_ms("outer") == 5000.0 and tr.calls("missing") == 0


def test_span_closes_when_the_call_raises():
    tr = Tracer(clock=FakeClock([0, 1, 3, 7]))
    tr.enter("outer")
    with pytest.raises(KeyError):
        with tr.span("inner"):
            raise KeyError
    tr.exit()
    assert tr.spans["inner"] == [1, 2.0, 2.0]
    assert tr.spans["outer"] == [1, 7.0, 5.0]


@pytest.fixture
def corridor():
    # 4x3 grid, cell 5 blocked:   0 1 2 3 / 4 @ 6 7 / 8 9 10 11
    free = [True] * 12
    free[5] = False
    return measure.StepValidator(GridMap(4, 3, free))


def test_validator_accepts_moves_waits_and_follow_chains(corridor):
    assert corridor.check([0, 1, 2, 8], [1, 2, 3, 8]) == []
    assert corridor.check([4, 0], [0, 1]) == []


@pytest.mark.parametrize("old,new,fragment", [
    ([0, 8], [2, 8], "jumped"),              # teleport two cells
    ([3, 8], [4, 8], "jumped"),              # wraps across a row end
    ([4, 8], [5, 8], "non-free"),            # onto an obstacle
    ([0, 2], [1, 1], "collide"),             # vertex collision
    ([0, 1], [1, 0], "swap"),                # edge swap
    ([0, 1], [0], "agent count"),
])
def test_validator_rejects_fabricated_faults(corridor, old, new, fragment):
    problems = corridor.check(old, new)
    assert problems and any(fragment in p for p in problems)


def _lookup_sites():
    return {
        "simulator.flow_assign": simulator.flow_assign,
        "simulator.pibt_step": simulator.pibt_step,
        "simulator.update_wait_stats": simulator.update_wait_stats,
        "simulator.GuideHeuristic": simulator.GuideHeuristic,
        "Simulation._round_cost_model": vars(simulator.Simulation)["_round_cost_model"],
        "assignment.solve_min_cost_flow": assignment.solve_min_cost_flow,
        "assignment.retrieve_assignments": assignment.retrieve_assignments,
        "FlowNetworkBuilder.build": vars(assignment.FlowNetworkBuilder)["build"],
        "TrafficCost.__call__": vars(cost_models.TrafficCost)["__call__"],
        "AvgWaitCost.__call__": vars(cost_models.AvgWaitCost)["__call__"],
        "DistanceProvider.shortest_path": vars(grid_map.DistanceProvider)["shortest_path"],
        "DistanceProvider.table": vars(grid_map.DistanceProvider)["table"],
    }


def test_traced_wrappers_never_leak_into_untraced_runs():
    wl = measure.WORKLOADS["random64-flow-traffic"]
    text = (ROOT / "maps" / wl.map_file).read_text()
    before = _lookup_sites()
    tracer = Tracer()
    with instrument(tracer):
        assert _lookup_sites() != before
        traced = measure.run_episode(text, wl.config(3), 3, tracer, warmup=0)
    assert _lookup_sites() == before
    snapshot = json.dumps([tracer.spans, tracer.counts], sort_keys=True)
    untraced = measure.run_episode(text, wl.config(3), 3, warmup=0)
    assert json.dumps([tracer.spans, tracer.counts], sort_keys=True) == snapshot
    assert traced.digest == untraced.digest

    with pytest.raises(RuntimeError):
        with instrument(Tracer()):
            raise RuntimeError("traced code failed")
    assert _lookup_sites() == before


def test_benchmark_json_lists_exactly_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert set(run.WORKLOADS) == set(measure.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    layers = list(measure.layer_metrics(Tracer())) + ["trace.overhead_s"]
    assert [m["name"] for m in spec["per_layer"]] == layers
    assert all(m["unit"] == run.layer_unit(m["name"]) for m in spec["per_layer"])


@pytest.mark.parametrize("name", list(measure.WORKLOADS))
def test_smoke_few_steps_of_each_workload(name):
    wl = measure.WORKLOADS[name]
    text = (ROOT / "maps" / wl.map_file).read_text()
    ep = measure.run_episode(text, wl.config(7), 4, warmup=2, setup_every=2)
    assert (ep.attempted, ep.failed, ep.errors) == (6, 0, [])
    assert len(ep.step_s) == len(ep.plan_s) == 4 and len(ep.setup_s) == 3
    tracer = Tracer()
    with instrument(tracer):
        traced = measure.run_episode(text, wl.config(7), 4, tracer, warmup=2)
    assert traced.digest == ep.digest
    layers = measure.layer_metrics(tracer)
    assert layers["mincost_flow.solve.calls"] == 4
    assert layers["simulator.step.ms"] >= layers["assignment.flow_assign.ms"] > 0
    assert (layers["cost_models.edge_cost.calls"] == 0) == (wl.cost_model == "unit")


def test_percentile_matches_linear_interpolation():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert run.percentile(values, 50) == 3.0
    assert run.percentile(values, 95) == pytest.approx(4.8)
    assert run.percentile([7.0], 95) == 7.0


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "random64-flow-unit",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
