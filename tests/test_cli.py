import json
import os
from pathlib import Path

import jsonschema
import pytest

from mapdflow import cli
from mapdflow.cli import SUMMARY_SCHEMA, bench_scaling, build_parser, run_cli
from mapdflow.mapgen import random_map
from mapdflow.simulator import Simulation

WAREHOUSE = str(Path(__file__).resolve().parent.parent / "maps" / "warehouse_21x35.map")


@pytest.fixture
def map_file(tmp_path):
    grid = random_map(10, 10, 0.15, seed=4)
    path = tmp_path / "small.map"
    path.write_text(grid.to_text())
    return str(path)


def test_single_run_summary_to_stdout(map_file, capsys):
    rc = run_cli(["--map", map_file, "--agents", "4", "--strategy", "flow",
                  "--cost", "unit", "--steps", "30", "--logical", "--seed", "1"])
    assert rc == 0
    blob = json.loads(capsys.readouterr().out)
    jsonschema.validate(blob, SUMMARY_SCHEMA)
    assert len(blob["runs"]) == 1
    run = blob["runs"][0]
    assert run["throughput"] >= 0
    assert run["strategy"] == "flow"
    assert run["mode"] == "logical"


def test_unknown_strategy_is_usage_error(map_file):
    with pytest.raises(SystemExit) as err:
        run_cli(["--map", map_file, "--strategy", "warp"])
    assert err.value.code == 2


def test_missing_map_flag_is_usage_error():
    with pytest.raises(SystemExit) as err:
        run_cli(["--agents", "3"])
    assert err.value.code == 2


def test_unreadable_map_is_runtime_error(tmp_path):
    rc = run_cli(["--map", str(tmp_path / "nope.map"), "--steps", "5"])
    assert rc == 1


def test_trace_requires_out(map_file):
    with pytest.raises(SystemExit):
        run_cli(["--map", map_file, "--trace"])


def test_task_budget_requires_release_f(map_file, capsys):
    with pytest.raises(SystemExit) as err:
        run_cli(["--map", map_file, "--task-budget", "3", "--steps", "5"])
    assert err.value.code == 2
    assert "--task-budget requires --release-f" in capsys.readouterr().err


def test_seed_list_produces_one_row_each(map_file, tmp_path, capsys):
    out = str(tmp_path / "res")
    rc = run_cli(["--map", map_file, "--agents", "3", "--steps", "20",
                  "--seed", "1,2,3", "--out", out])
    assert rc == 0
    lines = open(os.path.join(out, "results.csv")).read().strip().splitlines()
    assert len(lines) == 1 + 3
    blob = json.load(open(os.path.join(out, "summary.json")))
    jsonschema.validate(blob, SUMMARY_SCHEMA)
    assert [r["seed"] for r in blob["runs"]] == [1, 2, 3]


def test_matrix_expansion_and_step_files(map_file, tmp_path):
    out = str(tmp_path / "mat")
    rc = run_cli(["--map", map_file, "--agents", "2,4", "--strategy",
                  "greedy,flow", "--steps", "15", "--seed", "7", "--out", out])
    assert rc == 0
    blob = json.load(open(os.path.join(out, "summary.json")))
    assert len(blob["runs"]) == 4
    for run in blob["runs"]:
        tag = f"{run['strategy']}_{run['cost']}_n{run['agents']}_s{run['seed']}"
        step_file = os.path.join(out, f"steps_{tag}.csv")
        assert os.path.exists(step_file)
        header = open(step_file).readline().strip()
        assert header == "step,throughput,assignment_cost,solver_ms,timeouts"


def test_logical_mode_csvs_reproducible(map_file, tmp_path):
    outs = []
    for name in ("a", "b"):
        out = str(tmp_path / name)
        rc = run_cli(["--map", map_file, "--agents", "4", "--steps", "25",
                      "--strategy", "flow", "--seed", "5", "--out", out])
        assert rc == 0
        outs.append(out)
    for fname in ("results.csv", "steps_flow_unit_n4_s5.csv"):
        a = open(os.path.join(outs[0], fname), "rb").read()
        b = open(os.path.join(outs[1], fname), "rb").read()
        assert a == b


def test_trace_file_written(map_file, tmp_path):
    out = str(tmp_path / "tr")
    rc = run_cli(["--map", map_file, "--agents", "2", "--steps", "10",
                  "--seed", "1", "--out", out, "--trace"])
    assert rc == 0
    trace = open(os.path.join(out, "trace_flow_unit_n2_s1.csv")).read()
    lines = trace.strip().splitlines()
    assert lines[0] == "step,agent,from,to,action"
    assert len(lines) == 1 + 10 * 2  # one row per agent per step


def test_budget_mode_row(map_file, capsys):
    rc = run_cli(["--map", map_file, "--agents", "3", "--steps", "10",
                  "--budget-ms", "0.0", "--seed", "2"])
    assert rc == 0
    blob = json.loads(capsys.readouterr().out)
    run = blob["runs"][0]
    assert run["mode"] == "wall-clock"
    assert run["timeouts"] == 10


def test_workers_match_sequential(map_file, tmp_path):
    seq = str(tmp_path / "seq")
    par = str(tmp_path / "par")
    args = ["--map", map_file, "--agents", "3", "--steps", "20",
            "--seed", "1,2", "--strategy", "greedy,flow"]
    assert run_cli(args + ["--out", seq]) == 0
    assert run_cli(args + ["--out", par, "--workers", "4"]) == 0
    a = open(os.path.join(seq, "results.csv")).read()
    b = open(os.path.join(par, "results.csv")).read()
    assert a == b


def test_bench_scaling_rows_and_empty():
    grid = random_map(12, 12, 0.15, seed=9)
    rows = bench_scaling(grid, [4, 8], ["flow"], rounds=3)
    assert [(r["strategy"], r["agents"]) for r in rows] == [("flow", 4), ("flow", 8)]
    for r in rows:
        assert r["solves"] == 3
        assert r["p50_ms"] <= r["p95_ms"] <= r["max_ms"]
    assert bench_scaling(grid, [], ["flow"]) == []


def test_bench_cli_output(map_file, capsys):
    rc = run_cli(["--map", map_file, "--bench", "--agents", "2,3",
                  "--strategy", "greedy", "--bench-steps", "2"])
    assert rc == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out[0] == "strategy,agents,solves,p50_ms,p95_ms,max_ms"
    assert len(out) == 3


@pytest.mark.parametrize("flag, values", [("--cost", "unit,avg-wait"),
                                          ("--seed", "1,2")])
def test_bench_takes_one_cost_and_one_seed(map_file, capsys, flag, values):
    # A bench row has no cost or seed column, so a second value is refused
    # rather than dropped.
    with pytest.raises(SystemExit) as err:
        run_cli(["--map", map_file, "--bench", "--bench-steps", "1", flag, values])
    assert err.value.code == 2
    assert flag in capsys.readouterr().err


def test_bench_rounds_carry_the_run_flags(monkeypatch, capsys):
    configs = []

    class Recorded(Simulation):
        def __init__(self, grid, config, **kwargs):
            configs.append(config)
            super().__init__(grid, config, **kwargs)

    monkeypatch.setattr(cli, "Simulation", Recorded)
    rc = run_cli(["--map", WAREHOUSE, "--bench", "--agents", "20",
                  "--strategy", "flow", "--cost", "avg-wait", "--seed", "5",
                  "--task-dist", "labeled-es", "--gamma", "0.5",
                  "--pool-ratio", "2", "--release-f", "3", "--bench-steps", "2"])
    assert rc == 0
    assert len(capsys.readouterr().out.splitlines()) == 2
    assert [(c.num_agents, c.strategy, c.cost_model, c.seed, c.horizon,
             c.task_distribution, c.gamma, c.pool_ratio, c.pool_policy,
             c.release_per_step) for c in configs] == [
        (20, "flow", "avg-wait", seed, 1, "labeled-es", 0.5, 2.0, "per-step", 3)
        for seed in (5, 6)]


def test_parser_has_spec_flags():
    parser = build_parser()
    text = parser.format_help()
    for flag in ("--map", "--agents", "--strategy", "--cost", "--gamma",
                 "--pool-ratio", "--release-f", "--task-budget", "--schedule-k",
                 "--steps", "--budget-ms", "--logical", "--seed", "--out",
                 "--trace"):
        assert flag in text


@pytest.mark.parametrize("bench", [False, True], ids=["run", "bench"])
@pytest.mark.parametrize("flag", ["--agents", "--strategy", "--cost", "--seed"])
def test_empty_list_flag_is_usage_error(map_file, capsys, flag, bench):
    argv = ["--map", map_file, "--steps", "5", flag, ","]
    with pytest.raises(SystemExit) as err:
        run_cli(argv + ["--bench"] * bench)
    assert err.value.code == 2
    assert flag in capsys.readouterr().err
