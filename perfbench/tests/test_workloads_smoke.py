import json
import resource
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import run
import workloads
from infopath.mcts import SolverConfig

HERE = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
TINY_SOLVER = SolverConfig(iterations=12, max_depth=4)
DETERMINISTIC = ("mcts.simulations", "mcts.tree_nodes_per_plan", "mcts.rollout_steps_per_plan",
                 "gp.add_measurements_calls", "mdp.is_terminal_per_sample", "gp.batch_rebuilds")


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    """Every workload shrunk to 5x5 grids, short budgets and small batches."""
    for name, wl in workloads.WORKLOADS.items():
        batches = tuple(
            replace(cfg, grid_size=5, rocks=4, beacons=4, runs=min(cfg.runs, 3),
                    budget=(30.0 if cfg.environment == "rover" else 12.0),
                    solver_config=TINY_SOLVER)
            for cfg in wl.batches)
        monkeypatch.setitem(workloads.WORKLOADS, name, replace(wl, batches=batches))
    monkeypatch.setattr(workloads, "MIN_STEPS", 20)
    monkeypatch.setattr(run, "SETUP_PROBES", 1)
    monkeypatch.setattr(run, "OUT", tmp_path)


def last_json(capsys):
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_smoke_run_prints_every_metric(tiny, capsys, workload):
    assert run.main(["--workload", workload, "--seed", "3", "--seconds", "0.5"]) == 0
    plain = last_json(capsys)
    assert set(plain) == {"correct", "attempted", "failed", "metrics"}
    assert plain["correct"] and plain["failed"] == 0 and plain["attempted"] >= 1
    assert set(plain["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}
    assert all(m["value"] > 0 for m in plain["metrics"].values())

    traced = []
    for _ in range(2):
        assert run.main(["--workload", workload, "--seed", "3", "--seconds", "0.5",
                         "--trace", "1"]) == 0
        traced.append(last_json(capsys))
    assert set(traced[0]["metrics"]) == {m["name"] for m in BENCHMARK["per_layer"]}
    assert traced[0]["correct"]
    for name in DETERMINISTIC:
        assert traced[0]["metrics"][name] == traced[1]["metrics"][name]
    if workload != "baseline-batch":
        counts = traced[0]["metrics"]
        assert counts["mcts.simulations"]["value"] == (
            TINY_SOLVER.iterations * counts["mcts.plan_calls"]["value"])


def test_unknown_workload_exits_2(tiny):
    with pytest.raises(SystemExit) as exc:
        run.main(["--workload", "nope", "--seed", "1", "--seconds", "1"])
    assert exc.value.code == 2


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "isrs-mission",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode == 2
    assert done.stdout == ""


def _allocate(megabytes):
    block = bytearray(megabytes << 20)
    block[::4096] = b"\1" * len(block[::4096])  # touch every page
    return len(block) >> 20


def _fail():
    raise ValueError("broken check")


def test_in_child_returns_the_value_and_keeps_its_memory_out_of_this_process():
    before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    assert run.in_child(_allocate, 64) == 64
    assert resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before < 32 << 10  # KB
    with pytest.raises(RuntimeError, match="broken check"):
        run.in_child(_fail)
