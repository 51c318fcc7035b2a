import json
import math

import pytest

from infopath.bench import ExperimentConfig, run_sweep, write_sweep_csv
from infopath.cli import main


def run_cli(*argv):
    return main(list(argv))


def test_run_writes_outputs(tmp_path, capsys):
    out = tmp_path / "batch"
    code = run_cli("run", "--env", "isrs", "--solver", "random", "--runs", "2",
                   "--seed", "0", "--grid", "5", "--k", "3", "--b", "2",
                   "--budget", "10", "--out", str(out))
    assert code == 0
    for name in ("config.json", "episodes.csv", "steps.csv", "curves.csv", "episodes.json"):
        assert (out / name).exists()
    assert "mean_reward" in capsys.readouterr().out


def test_run_is_byte_reproducible(tmp_path):
    outs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        code = run_cli("run", "--env", "isrs", "--solver", "mcts-dpw", "--runs", "2",
                       "--seed", "3", "--grid", "5", "--k", "3", "--b", "2",
                       "--budget", "8", "--iters", "15", "--depth", "5",
                       "--out", str(out))
        assert code == 0
        outs.append(out)
    for name in ("config.json", "episodes.csv", "steps.csv", "curves.csv", "episodes.json"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_gen_instance_schema(tmp_path):
    out = tmp_path / "inst"
    code = run_cli("gen-instance", "--env", "rover", "--grid", "6", "--beta", "5",
                   "--sigma", "0.3", "--seed", "7", "--out", str(out))
    assert code == 0
    data = json.loads((out / "instance.json").read_text())
    assert data["environment"] == "rover"
    assert len(data["true_map"]) == 6
    assert data["seed"] == 7
    assert data["goal"] == 30  # corner straight up the y axis


def test_gen_instance_isrs_schema(tmp_path):
    out = tmp_path / "inst"
    code = run_cli("gen-instance", "--env", "isrs", "--grid", "6", "--k", "4",
                   "--b", "3", "--p", "0.5", "--seed", "1", "--out", str(out))
    assert code == 0
    data = json.loads((out / "instance.json").read_text())
    assert len(data["rock_nodes"]) == 4
    assert len(data["beacons"]) == 3
    assert {m["name"] for m in data["modalities"]} == {"cheap", "accurate"}


def test_sweep_writes_table(tmp_path):
    out = tmp_path / "sweep"
    cfg = {
        "environment": "isrs", "runs": 1, "base_seed": 0, "grid_size": 4,
        "rocks": 2, "beacons": 1, "budget": 6.0,
        "solver_config": {"iterations": 10, "max_depth": 4},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    code = run_cli("sweep", "--config", str(cfg_path), "--solver", "random",
                   "--out", str(out))
    assert code == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[1].endswith("random_mean,random_std,random_failures")
    assert len(lines) == 2 + 12  # the full benchmark grid


def test_config_error_exit_code(tmp_path):
    code = run_cli("run", "--env", "isrs", "--solver", "raster", "--runs", "1",
                   "--out", str(tmp_path))
    assert code == 2


def test_overfull_grid_is_a_config_error(tmp_path):
    assert run_cli("run", "--env", "isrs", "--k", "200", "--runs", "1",
                   "--out", str(tmp_path)) == 2


@pytest.mark.parametrize("flag, value", [
    ("--lambda", "-1"), ("--lambda", "nan"), ("--lambda", "inf"),
    ("--budget", "nan"), ("--budget", "inf"), ("--budget", "-1"),
    ("--sigma", "nan"), ("--sigma", "inf"), ("--sigma", "-0.1"),
])
def test_bad_numbers_are_config_errors(tmp_path, capsys, flag, value):
    # NaN passes a plain "< 0" check; a bad λ must not get as far as the MDP (exit 3)
    code = run_cli("run", "--env", "rover", "--solver", "random", "--runs", "1",
                   "--grid", "4", flag, value, "--out", str(tmp_path / "o"))
    assert code == 2
    assert "must be finite and non-negative" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("key, value, message", [
    ("budget", "10", "budget must be a number or null, not str"),
    ("runs", "2", "runs must be an integer, not str"),
    ("runs", 2.0, "runs must be an integer, not float"),
    ("p_good", True, "p_good must be a number, not bool"),
    ("environment", 3, "environment must be a string, not int"),
    ("solver_config", {"iterations": 2.5, "max_depth": 3},
     "solver_config.iterations must be an integer, not float"),
    ("solver_config", {"iterations": 2, "max_depth": 3.5},
     "solver_config.max_depth must be an integer, not float"),
    ("solver_config", {"iterations": True}, "solver_config.iterations must be an integer, not bool"),
    ("solver_config", {"discount": "0.9"}, "solver_config.discount must be a number, not str"),
    ("solver_config", {"iterations": "5"}, "solver_config.iterations must be an integer, not str"),
    ("solver_config", [1], "solver_config must be a JSON object, not list"),
    ("solver_config", None, "solver_config must be a JSON object, not NoneType"),
])
def test_config_value_types_are_config_errors(tmp_path, capsys, key, value, message):
    # a wrong type in a --config file must not get as far as a comparison (exit 3)
    cfg = {"environment": "rover", "solver": "random", "runs": 1, "grid_size": 4, key: value}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    code = run_cli("run", "--config", str(cfg_path), "--out", str(tmp_path / "o"))
    assert code == 2
    assert f"error: {message}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command, seed", [("run", "-1"), ("gen-instance", "-3")])
def test_negative_seeds_are_config_errors(tmp_path, capsys, command, seed):
    code = run_cli(command, "--seed", seed, "--env", "rover", "--solver", "random",
                   "--runs", "1", "--grid", "4", "--out", str(tmp_path / "o"))
    assert code == 2
    assert "error: base_seed must be non-negative" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_sweep_writes_the_error_row_of_a_non_finite_cell(tmp_path):
    cfg = ExperimentConfig(environment="rover", solver="random", runs=1, grid_size=4)
    cells = [{"budget": math.nan, "spectrometer_sigma": 0.1},
             {"budget": 6.0, "spectrometer_sigma": math.inf},
             {"budget": 6.0, "spectrometer_sigma": 0.1}]
    rows, cell_keys, solvers = run_sweep(cfg, cells=cells, solvers=("random",))
    path = write_sweep_csv(rows, cell_keys, solvers, tmp_path, cfg.to_dict())
    lines = path.read_text().splitlines()
    assert lines[1] == "budget,spectrometer_sigma,random_mean,random_std,random_failures"
    assert lines[2] == "nan,0.1,error: budget must be finite and non-negative,,"
    assert lines[3] == "6.0,inf,error: spectrometer_sigma must be finite and non-negative,,"
    assert len(lines) == 5 and "error" not in lines[4]


def test_bad_flag_exit_code(tmp_path):
    assert run_cli("run", "--env", "pluto", "--out", str(tmp_path)) == 2


def test_bad_config_file_exit_code(tmp_path, capsys):
    bad = tmp_path / "cfg.json"
    for text, message in (("{not json", "not valid JSON"),
                          ("[1, 2]", "a config must be a JSON object, not list"),
                          ('"isrs"', "a config must be a JSON object, not str"),
                          ("3", "a config must be a JSON object, not int")):
        bad.write_text(text)
        assert run_cli("run", "--config", str(bad), "--out", str(tmp_path)) == 2, text
        assert message in capsys.readouterr().err


def test_runtime_failure_exit_code(tmp_path):
    blocker = tmp_path / "not_a_dir"
    blocker.write_text("")
    code = run_cli("run", "--env", "isrs", "--solver", "random", "--runs", "1",
                   "--grid", "4", "--k", "2", "--b", "1", "--budget", "6",
                   "--out", str(blocker / "sub"))
    assert code == 3


def test_flags_override_config_file(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"environment": "isrs", "runs": 5, "grid_size": 4,
                                    "rocks": 2, "beacons": 1, "budget": 6.0,
                                    "solver": "random"}))
    out = tmp_path / "o"
    code = run_cli("run", "--config", str(cfg_path), "--runs", "1", "--out", str(out))
    assert code == 0
    written = json.loads((out / "config.json").read_text())
    assert written["runs"] == 1
    assert written["grid_size"] == 4
