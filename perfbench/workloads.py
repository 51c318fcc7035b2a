"""The benchmark's workloads, built from a run's seed.

A workload is a round of batches, each an ``ExperimentConfig`` for
``bench.run_batch``. Round r of a run with seed s gives every batch the base
seed ``s * SEED_STRIDE + r * runs``, so all inputs follow from the seed and a
round never reuses the missions of another.

``isrs-mission`` is the exception: its rounds cycle through a fixed pool of
ISRS_POOL missions (instance seeds 0..ISRS_POOL-1), starting at
``s % ISRS_POOL``. One ISRS mission takes 2.9 to 6.2 s depending on its
instance (CV 23% over 12 instances), so runs of about seven seed-drawn
missions spread 0.2 to 0.3 between seeds on every timing; a run over the
fixed pool spreads only as much as the machine does.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from infopath.bench import ExperimentConfig
from infopath.mcts import SolverConfig

SEED_STRIDE = 100_000
# the timed phase runs whole rounds until it has lasted --seconds and logged
# at least this many steps, so that ten steps lie beyond the 90th percentile
MIN_STEPS = 100

ISRS_MISSION = ExperimentConfig(
    environment="isrs", solver="mcts-dpw", runs=1, grid_size=10, rocks=10, beacons=10,
    p_good=0.5, budget=40.0, solver_config=SolverConfig(iterations=500, max_depth=15))
ROVER_MISSION = ExperimentConfig(
    environment="rover", solver="mcts-dpw", runs=1, grid_size=10, beta=10,
    spectrometer_sigma=0.1, budget=100.0,
    solver_config=SolverConfig(iterations=150, max_depth=12))
BASELINE_RUNS = 100
ISRS_POOL = 7


@dataclass(frozen=True)
class Workload:
    name: str
    batches: tuple[ExperimentConfig, ...]  # one round; all share ``runs``
    traced_rounds: int  # rounds the traced run replays, a fixed amount of work
    pool: int = 0  # if > 0, rounds cycle through base seeds 0..pool-1 (runs == 1)

    @property
    def runs(self) -> int:
        return self.batches[0].runs

    @property
    def plans(self) -> bool:
        return any(cfg.solver == "mcts-dpw" for cfg in self.batches)

    def round_configs(self, seed: int, r: int) -> list[ExperimentConfig]:
        if self.pool:
            return [replace(cfg, base_seed=(seed + r) % self.pool) for cfg in self.batches]
        offset = r * self.runs
        if offset + self.runs > SEED_STRIDE:
            raise RuntimeError(f"round {r} would overlap the seeds of run seed {seed + 1}")
        return [replace(cfg, base_seed=seed * SEED_STRIDE + offset) for cfg in self.batches]


WORKLOADS = {
    wl.name: wl
    for wl in (
        Workload("isrs-mission", (ISRS_MISSION,), traced_rounds=2, pool=ISRS_POOL),
        Workload("rover-mission", (ROVER_MISSION,), traced_rounds=1),
        Workload(
            "baseline-batch",
            (
                ExperimentConfig(environment="rover", solver="random", runs=BASELINE_RUNS),
                ExperimentConfig(environment="rover", solver="raster", runs=BASELINE_RUNS),
                ExperimentConfig(environment="isrs", solver="random", runs=BASELINE_RUNS),
            ),
            traced_rounds=1,
        ),
    )
}
