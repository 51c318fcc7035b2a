import csv
import json
import numpy as np
import pytest

from infopath.bench import (
    ConfigError,
    ExperimentConfig,
    build_instance,
    build_mdp,
    curve_stats,
    default_sweep,
    instance_from_dict,
    instance_to_dict,
    run_batch,
    run_sweep,
    write_curves_csv,
    write_run_outputs,
    write_sweep_csv,
)
from infopath.episodes import run_episode
from infopath.mcts import SolverConfig
from infopath.policies import random_policy

FAST = SolverConfig(iterations=20, max_depth=6, seed=0)


def small_cfg(**kw):
    base = dict(environment="isrs", solver="random", runs=3, base_seed=0,
                grid_size=5, rocks=3, beacons=2, p_good=0.5, budget=10.0,
                solver_config=FAST)
    base.update(kw)
    return ExperimentConfig(**base)


def test_config_validation():
    with pytest.raises(ConfigError):
        small_cfg(environment="mars").validate()
    with pytest.raises(ConfigError):
        small_cfg(solver="dfs").validate()
    with pytest.raises(ConfigError):
        small_cfg(runs=0).validate()
    with pytest.raises(ConfigError):
        small_cfg(environment="isrs", solver="raster").validate()
    with pytest.raises(ConfigError, match="24 rocks do not fit on a 5x5 grid"):
        small_cfg(rocks=24).validate()  # the origin stays free
    with pytest.raises(ConfigError, match="beacons do not fit"):
        small_cfg(beacons=26).validate()
    with pytest.raises(ConfigError):
        small_cfg(rocks=-1).validate()
    small_cfg(rocks=23, beacons=25).validate()
    small_cfg(environment="rover", rocks=1000).validate()  # the rover has no rocks
    with pytest.raises(ConfigError):
        small_cfg(environment="rover", spectrometer_sigma=-0.1).validate()
    small_cfg().validate()


def test_config_roundtrip_and_unknown_keys():
    cfg = small_cfg()
    again = ExperimentConfig.from_dict(cfg.to_dict())
    assert again.to_dict() == cfg.to_dict()
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"environment": "isrs", "warp": 9})


def test_defaults_resolved_per_environment():
    isrs = ExperimentConfig(environment="isrs")
    rover = ExperimentConfig(environment="rover")
    assert isrs.resolved_budget() == 40.0
    assert rover.resolved_budget() == 100.0
    assert isrs.resolved_information_weight() == 1.0
    assert rover.resolved_information_weight() == 0.5


def test_single_run_batch_equals_episode():
    cfg = small_cfg(runs=1)
    result = run_batch(cfg)
    inst = build_instance(cfg, cfg.base_seed)
    mdp = build_mdp(cfg, inst)
    log = run_episode(mdp, random_policy, cfg.base_seed)
    assert result.episode_rewards == (log.reward,)
    assert result.mean_reward == log.reward
    assert result.std_reward == 0.0
    assert result.logs[0].records == log.records


def test_batch_seeds_are_base_plus_index():
    cfg = small_cfg(runs=3, base_seed=17)
    result = run_batch(cfg)
    assert [log.seed for log in result.logs] == [17, 18, 19]


def test_mean_reward_recomputable_from_emitted_csv(tmp_path):
    cfg = small_cfg(runs=4)
    result = run_batch(cfg)
    write_run_outputs(result, tmp_path)
    lines = (tmp_path / "episodes.csv").read_text().splitlines()
    assert lines[0].startswith("# config ")
    header = lines[1].split(",")
    rewards = [float(row.split(",")[header.index("reward")]) for row in lines[2:]]
    assert np.mean(rewards) == pytest.approx(result.mean_reward, abs=0)


def test_outputs_byte_identical_across_invocations(tmp_path):
    cfg = small_cfg(runs=3, solver="mcts-dpw")
    out1, out2 = tmp_path / "a", tmp_path / "b"
    write_run_outputs(run_batch(cfg), out1)
    write_run_outputs(run_batch(cfg), out2)
    files1 = sorted(p.name for p in out1.iterdir())
    files2 = sorted(p.name for p in out2.iterdir())
    assert files1 == files2
    for name in files1:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_curve_padding_and_stats():
    cfg = small_cfg(runs=5)
    result = run_batch(cfg)
    max_len = max(len(log.records) for log in result.logs)
    assert len(result.trace_mean) == max_len
    assert len(result.rmse_mean) == max_len
    # recomputation oracle at an arbitrary step
    t = max_len - 1
    vals = []
    for log in result.logs:
        series = log.trace_series()
        vals.append(series[t] if t < len(series) else
                    (series[-1] if len(series) else log.initial_trace))
    assert result.trace_mean[t] == pytest.approx(np.mean(vals), abs=0)


def test_emit_curves_single_log_equals_columns(tmp_path):
    cfg = small_cfg(runs=1)
    result = run_batch(cfg)
    write_curves_csv(result.logs, tmp_path, result.config)
    lines = (tmp_path / "curves.csv").read_text().splitlines()
    rows = [line.split(",") for line in lines[2:]]
    log = result.logs[0]
    assert len(rows) == len(log.records)
    for row, rec in zip(rows, log.records):
        assert float(row[1]) == rec.trace_of_variance
        assert float(row[2]) == 0.0  # stddev across one run
        assert float(row[3]) == rec.rmse


def test_emit_curves_identical_logs_zero_std(tmp_path):
    cfg = small_cfg(runs=1)
    result = run_batch(cfg)
    logs = (result.logs[0], result.logs[0])
    steps, tmean, tstd, rmean, rstd = curve_stats(logs)
    assert np.all(tstd == 0.0)
    assert np.all(rstd == 0.0)


def test_sweep_single_cell():
    cfg = small_cfg(runs=1)
    rows, cell_keys, solvers = run_sweep(cfg, cells=[{"rocks": 2}], solvers=("random",))
    assert len(rows) == 1
    assert cell_keys == ["rocks"]
    assert "random" in rows[0]["results"]


def test_default_sweep_grid_shapes():
    isrs_cells, isrs_solvers = default_sweep("isrs")
    rover_cells, rover_solvers = default_sweep("rover")
    # rocks/beacons combinations x good-rock probabilities
    assert len(isrs_cells) == 12
    assert len({(c["rocks"], c["beacons"]) for c in isrs_cells}) == 4
    assert len({c["p_good"] for c in isrs_cells}) == 3
    # budgets x spectrometer noise levels
    assert len(rover_cells) == 9
    assert len({c["budget"] for c in rover_cells}) == 3
    assert len({c["spectrometer_sigma"] for c in rover_cells}) == 3
    assert "raster" in rover_solvers and "raster" not in isrs_solvers


def test_sweep_records_cell_failures_and_continues():
    cfg = small_cfg(runs=1)
    rows, _, _ = run_sweep(cfg, cells=[{"rocks": 1000}, {"rocks": 2}], solvers=("random",))
    assert isinstance(rows[0]["results"]["random"], str)
    assert rows[0]["results"]["random"].startswith("error:")
    assert not isinstance(rows[1]["results"]["random"], str)


def test_sweep_csv_layout(tmp_path):
    cfg = small_cfg(runs=2)
    rows, cell_keys, solvers = run_sweep(
        cfg, cells=[{"rocks": 2, "p_good": 0.5}, {"rocks": 3, "p_good": 1.0}],
        solvers=("random",))
    path = write_sweep_csv(rows, cell_keys, solvers, tmp_path, cfg.to_dict())
    lines = path.read_text().splitlines()
    assert lines[1] == "p_good,rocks,random_mean,random_std,random_failures"
    assert len(lines) == 4  # header comment + header + one row per cell


def test_sweep_csv_rows_parse_to_header_width(tmp_path):
    # the error text of a failing cell holds a comma: "p must lie in [0, 1]"
    cfg = small_cfg(runs=1)
    rows, cell_keys, solvers = run_sweep(cfg, cells=[{"p_good": 1.5}, {"p_good": 0.5}],
                                         solvers=("mcts-dpw", "random"))
    path = write_sweep_csv(rows, cell_keys, solvers, tmp_path, cfg.to_dict())
    with path.open(newline="") as f:
        records = list(csv.reader(line for line in f if not line.startswith("#")))
    assert len(records) == 3
    assert all(len(r) == len(records[0]) == 7 for r in records)
    assert records[1][1] == records[1][4] == "error: p must lie in [0, 1]"
    assert records[2][3] == records[2][6] == "0"


def test_all_failure_batch_aggregates_cleanly(tmp_path):
    # raster cannot finish its sweep at budget 30: every episode fails
    cfg = ExperimentConfig(environment="rover", solver="raster", runs=3, base_seed=0,
                           budget=30.0, spectrometer_sigma=0.1, solver_config=FAST)
    result = run_batch(cfg)
    assert result.failures == 3
    assert result.mean_reward_success is None
    assert result.mean_reward == pytest.approx(-1e9)
    rows, cell_keys, solvers = run_sweep(cfg, cells=[{"budget": 30.0}], solvers=("raster",))
    path = write_sweep_csv(rows, cell_keys, solvers, tmp_path, cfg.to_dict())
    row = path.read_text().splitlines()[2]
    assert row == "30.0,,,3"  # empty success stats, explicit failure count


def test_instance_serialization_roundtrip():
    for cfg in (small_cfg(), small_cfg(environment="rover", solver="random", budget=20.0)):
        inst = build_instance(cfg, seed=5)
        data = instance_to_dict(inst)
        again = instance_from_dict(json.loads(json.dumps(data)))
        assert instance_to_dict(again) == data
        # the round-tripped instance replays an episode identically
        mdp1 = build_mdp(cfg, inst)
        mdp2 = build_mdp(cfg, again)
        log1 = run_episode(mdp1, random_policy, seed=5)
        log2 = run_episode(mdp2, random_policy, seed=5)
        assert log1.records == log2.records


def test_episode_json_contains_belief_and_config(tmp_path):
    cfg = small_cfg(runs=1)
    result = run_batch(cfg)
    write_run_outputs(result, tmp_path)
    data = json.loads((tmp_path / "episodes.json").read_text())
    assert data["config"]["environment"] == "isrs"
    ep = data["episodes"][0]
    belief = ep["final_belief"]
    assert belief["kernel"]["kind"] == "squared-exponential"
    assert len(belief["measurements"]) == len(belief["noise_variances"])
    assert len(ep["records"]) == len(result.logs[0].records)
