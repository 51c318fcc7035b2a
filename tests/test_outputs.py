"""Byte pins on everything the CLI writes.

Each case runs a fixed command and compares the sha256 of every file in its
output directory with a digest recorded from a known-good build. A change to
serialization, planning or ground truth that alters a single output byte
fails here; a deliberate format change must update the digests and say why.
"""

import hashlib

import pytest

from infopath.bench import ExperimentConfig, run_sweep, write_sweep_csv
from infopath.cli import main
from infopath.mcts import SolverConfig

RUNS = {
    "isrs-mcts": (
        ["run", "--env", "isrs", "--runs", "2", "--iters", "100", "--depth", "8",
         "--seed", "4"],
        {
            "config.json":
                "8ba927dce6ebf377b246bc512b71e548c2c2de90db1e63cea8dca4991290b074",
            "curves.csv":
                "f5878f8d954a334e01bb6054f4ea086de28ae72f1786cdaa2fad207a2f17e37f",
            "episodes.csv":
                "cee2dc7927c62b20a7f73afe80c342265f152039742734e6984b005c94ab0e79",
            "episodes.json":
                "9dae18383826f16fcc6567889c6edb200a11020557a7434475b0155be392baf9",
            "steps.csv":
                "529c2e069d6e770ffb13fb75b9ad81ef428a8f2ebae22667cdce870dfacd9206",
        },
    ),
    "rover-mcts": (
        ["run", "--env", "rover", "--runs", "1", "--iters", "60", "--depth", "8",
         "--budget", "40"],
        {
            "config.json":
                "efab7b917e7ce74212e83f4f5ab4a79dd6d055db7a6c7b63a049355e9ce80bca",
            "curves.csv":
                "77800cb47187fddb6d03f2b0b6cc7c83593355066f35d414f43b98a89ebf00d6",
            "episodes.csv":
                "d0da1839ae0f7cf8dfa1a97bd1f6674bb486e0c985850f760369d49eebd2a8eb",
            "episodes.json":
                "d5ce2fa08f179ba01495f07508b14256525e0fe504a6ad796a13a68b6e64d6f7",
            "steps.csv":
                "9a4af093e2bed01dbc6d0bd78e2940e044a2028aab6575a1c07e12939d5c362d",
        },
    ),
    "rover-raster": (
        ["run", "--env", "rover", "--solver", "raster", "--runs", "2", "--budget", "30"],
        {
            "config.json":
                "0e64b756b0555062758fd015ae0e149f97f346b601a19974e4a0ed5df20d417a",
            "curves.csv":
                "555700aca5348742448ac5d1347b1c719109ad2a2a6397aa487feb170fe9b398",
            "episodes.csv":
                "ccef9b4b640f3fa7faeb0788f470cb86642bbf8185c9ae8f2b3908ad72defe54",
            "episodes.json":
                "c60bc8b3b49fc2cb5632d1130b0ecf6b329b1b6cde2078c904cec021fc37c625",
            "steps.csv":
                "cc763c24f9fe1a5454f1727714c0a6696e15d3b99f81f62fc7d159c92aa11382",
        },
    ),
    "isrs-random": (
        # the third baseline-batch config of perfbench, at three runs
        ["run", "--env", "isrs", "--solver", "random", "--runs", "3", "--seed", "5"],
        {
            "config.json":
                "2613b9dac8fc27d7cfbfa1a25d9b790407503a498e4a7fcfd2169ee69d7a0d86",
            "curves.csv":
                "3f3ad1d82c1aeda4a62e0ec7661839fced939c286d8e72335e47e81f5be89162",
            "episodes.csv":
                "a12286a4b445f32f8e97fb8d66a951292c9cd7d74e4efd471f04fea640c52bb4",
            "episodes.json":
                "90ad63c2c365871c690fdf8119abb1249a62e694e7feb47e3771ac900af7ddea",
            "steps.csv":
                "45ea681b7a2cccb214df3615850455add294f696765df85f7107d215d55afb2f",
        },
    ),
    "isrs-instance": (
        # frozensets and nested SensingModality dataclasses
        ["gen-instance", "--env", "isrs", "--seed", "3"],
        {
            "instance.json":
                "80faeea515ce56c960229ae2f22439f5fa2c2b39fb7f965d5940be74795be35b",
        },
    ),
    "rover-instance": (
        ["gen-instance", "--env", "rover", "--seed", "3"],
        {
            "instance.json":
                "00728b5b01316e0162cc8277fd23f0ea142b3f537fbb6c2f27087d0ad4477658",
        },
    ),
}

SWEEP_DIGESTS = {
    "sweep.csv":
        "a6a89b7c1703edc0b64d03edd12f58869d6014c120d1eb66feddc5977c75a626",
}


def _digests(out_dir):
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out_dir.iterdir())}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_cli_outputs_are_pinned(name, tmp_path):
    argv, expected = RUNS[name]
    assert main([*argv, "--out", str(tmp_path)]) == 0
    assert _digests(tmp_path) == expected


def test_sweep_with_error_row_is_pinned(tmp_path):
    # p_good = 1.5 fails in both solvers; the row records the error text
    cfg = ExperimentConfig(environment="isrs", runs=1,
                           solver_config=SolverConfig(iterations=40, max_depth=6))
    rows, cell_keys, solvers = run_sweep(cfg, cells=[{"p_good": 1.5}, {"p_good": 0.5}],
                                         solvers=("mcts-dpw", "random"))
    snapshot = cfg.to_dict()
    snapshot.pop("solver")  # as the sweep command writes it
    write_sweep_csv(rows, cell_keys, solvers, tmp_path, snapshot)
    assert _digests(tmp_path) == SWEEP_DIGESTS
