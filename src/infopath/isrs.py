"""Information-search rock sampling benchmark.

An n x n grid holds k rocks, each independently good with probability p, and
b beacons. Visiting a good rock pays +10 and spends it (it becomes bad);
visiting a bad or already-visited rock pays -10. Rock and beacon positions
are known; goodness is hidden and only revealed by visiting. At a beacon the
agent can buy a sensing action that reports a noisy goodness value for every
rock within the sensing radius, with noise growing exponentially in distance.
The mission starts and ends at the origin.

The GP belief encodes goodness as good=1 / bad=0 and treats every beacon
report and rock visit as a measurement at the rock's cell.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gp import rms_error
from .graph import LocationGraph
from .mdp import (
    Action,
    BeliefMdp,
    Measurement,
    Move,
    SensingModality,
    Static,
    Visit,
)

ROCK_REWARD = 10.0
DEFAULT_INFORMATION_WEIGHT = 1.0
GOOD_VALUE = 1.0
BAD_VALUE = 0.0

DEFAULT_MODALITIES = (
    SensingModality("cheap", cost=0.5, noise_stddev=0.4),
    SensingModality("accurate", cost=2.0, noise_stddev=0.1),
)
DEFAULT_BUDGET = 40.0
DEFAULT_SENSING_RADIUS = 4.0
DEFAULT_FIDELITY_DOUBLING = 2.0


@dataclass(frozen=True)
class IsrsInstance:
    """Ground truth for one rock-sampling problem."""

    grid_size: int
    rock_nodes: tuple[int, ...]          # sorted, at most one rock per cell
    good_rocks: frozenset[int]           # subset of rock_nodes
    beacons: frozenset[int]
    modalities: tuple[SensingModality, ...] = DEFAULT_MODALITIES
    movement_cost: float = 1.0
    budget: float = DEFAULT_BUDGET
    start: int = 0
    goal: int = 0
    sensing_radius: float = DEFAULT_SENSING_RADIUS
    fidelity_doubling: float = DEFAULT_FIDELITY_DOUBLING
    seed: int | None = None

    def __post_init__(self):
        n2 = self.grid_size * self.grid_size
        if len(set(self.rock_nodes)) != len(self.rock_nodes):
            raise ValueError("at most one rock per grid cell")
        for node in (*self.rock_nodes, *self.beacons, self.start, self.goal):
            if not 0 <= node < n2:
                raise ValueError(f"node {node} is off the grid")
        if not self.good_rocks <= set(self.rock_nodes):
            raise ValueError("good_rocks must be a subset of rock_nodes")

    def graph(self) -> LocationGraph:
        return LocationGraph.grid(self.grid_size, self.movement_cost, self.start, self.goal)


def generate_isrs(n, k, b, p, seed, *, modalities=DEFAULT_MODALITIES,
                  movement_cost=1.0, budget=DEFAULT_BUDGET,
                  sensing_radius=DEFAULT_SENSING_RADIUS,
                  fidelity_doubling=DEFAULT_FIDELITY_DOUBLING) -> IsrsInstance:
    """Sample an instance: k rocks (good w.p. p each) and b beacons on an n x n grid.

    Rocks land uniformly without replacement on cells other than the origin
    (start == goal); beacons land uniformly without replacement anywhere.
    Deterministic given the seed.
    """
    n2 = n * n
    if k + 2 > n2:
        raise ValueError(f"{k} rocks do not fit on a {n}x{n} grid")
    if b > n2:
        raise ValueError(f"{b} beacons do not fit on a {n}x{n} grid")
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must be a probability")
    rng = np.random.default_rng(seed)
    free = np.arange(1, n2)  # everything but the origin
    rocks = rng.choice(free, size=k, replace=False)
    good = rng.random(k) < p
    order = np.argsort(rocks)
    rocks, good = rocks[order], good[order]
    beacons = rng.choice(n2, size=b, replace=False)
    seed_val = int(seed) if isinstance(seed, (int, np.integer)) else None
    return IsrsInstance(
        grid_size=n,
        rock_nodes=tuple(int(r) for r in rocks),
        good_rocks=frozenset(int(r) for r, g in zip(rocks, good) if g),
        beacons=frozenset(int(x) for x in beacons),
        modalities=tuple(modalities),
        movement_cost=movement_cost,
        budget=budget,
        sensing_radius=sensing_radius,
        fidelity_doubling=fidelity_doubling,
        seed=seed_val,
    )


def sensing_noise_stddev(modality: SensingModality, distance: float, doubling: float) -> float:
    """Observation noise at a given rock distance: the base stddev doubles every
    ``doubling`` cells."""
    return modality.noise_stddev * 2.0 ** (distance / doubling)


def isrs_true_reward(inst: IsrsInstance, memory: frozenset, action: Action) -> float:
    """Ground-truth reward: +10 for first visits to good rocks, -10 for bad or
    repeat visits, 0 otherwise. ``memory`` is the set of rocks visited so far."""
    if not isinstance(action, Move) or action.target not in inst.rock_nodes:
        return 0.0
    if action.target in inst.good_rocks and action.target not in memory:
        return ROCK_REWARD
    return -ROCK_REWARD


def isrs_observe(inst: IsrsInstance, at: int, modality: SensingModality, rng,
                 noise_floor: float) -> tuple[Measurement, ...]:
    """Noisy goodness readings for every rock within the sensing radius of a beacon.

    Reported values are the rocks' static goodness (good=1, bad=0) plus Gaussian
    noise whose stddev doubles every ``fidelity_doubling`` cells of distance.
    Each reading's noise variance is at least ``noise_floor``, the MDP's
    ``jitter_floor``, so ground truth and planning feed the GP the same noise.
    Raises when ``at`` is not a beacon (sensing is only offered there).
    """
    if at not in inst.beacons:
        raise ValueError(f"node {at} is not a beacon; sensing is only possible at beacons")
    n = inst.grid_size
    bx, by = at % n, at // n
    out = []
    for rock in inst.rock_nodes:
        rx, ry = rock % n, rock // n
        d = math.hypot(rx - bx, ry - by)
        if d > inst.sensing_radius:
            continue
        sd = sensing_noise_stddev(modality, d, inst.fidelity_doubling)
        value = GOOD_VALUE if rock in inst.good_rocks else BAD_VALUE
        if sd > 0:
            value += rng.normal(0.0, sd)
        out.append(Measurement(rock, float(value), max(sd * sd, noise_floor)))
    return tuple(out)


class IsrsMdp(BeliefMdp):
    """Belief MDP view of a rock-sampling instance.

    Planning hooks read only the instance's public structure (rock and beacon
    positions, costs); the hidden goodness is touched exclusively by the
    ground-truth hooks used when executing episodes.
    """

    def __init__(self, inst: IsrsInstance, *, information_weight=DEFAULT_INFORMATION_WEIGHT,
                 prior_mean=0.5, kernel=None):
        super().__init__(inst.graph(), inst.modalities, information_weight=information_weight,
                         budget=inst.budget, prior_mean=prior_mean, kernel=kernel,
                         sensing_nodes=inst.beacons)
        self.instance = inst
        self._rock_set = frozenset(inst.rock_nodes)
        self._rock_index = np.array(inst.rock_nodes, dtype=np.intp)
        self._rock_truth = np.array([GOOD_VALUE if r in inst.good_rocks else BAD_VALUE
                                     for r in inst.rock_nodes])
        # a fixed measurement plan per (beacon, modality)
        self._beacon_steps: dict[int, dict[str, Static]] = {}
        xy = self.graph.coords.tolist()
        floor = self.jitter_floor
        for beacon in inst.beacons:
            bx, by = xy[beacon]
            in_range = []  # (rock, distance) within the sensing radius
            for rock in inst.rock_nodes:
                rx, ry = xy[rock]
                d = math.hypot(rx - bx, ry - by)
                if d > inst.sensing_radius:
                    continue
                in_range.append((rock, d))
            plans = {}
            for mod in inst.modalities:
                sites = []
                for rock, d in in_range:
                    sd = sensing_noise_stddev(mod, d, inst.fidelity_doubling)
                    sites.append((rock, max(sd * sd, floor)))
                plans[mod.name] = Static(tuple(sites))
            self._beacon_steps[beacon] = plans

    # planning side ----------------------------------------------------

    def measurement_sites(self, belief, action):
        if isinstance(action, Move):
            if action.target in self._rock_set and action.target not in belief.memory:
                return ((action.target, self.jitter_floor),)
            return ()
        return self._beacon_steps[belief.location][action.modality].sites

    def expected_state_reward(self, belief, action):
        """10*P(good) - 10*(1-P(good)) for moves onto unvisited rocks, else 0.

        P(good) clamps the posterior mean at the rock cell to [0, 1]; visited
        rocks are spent and score 0 in the planner's model.
        """
        if not isinstance(action, Move):
            return 0.0
        target = action.target
        if target not in self._rock_set or target in belief.memory:
            return 0.0
        p_good = min(max(float(belief.gp.query_mean[target]), 0.0), 1.0)
        return ROCK_REWARD * p_good - ROCK_REWARD * (1.0 - p_good)

    def step_kind(self, location, action):
        """A visit for a move onto a rock, a move that measures nothing
        elsewhere, and a beacon read of its fixed plan."""
        if isinstance(action, Move):
            if action.target in self._rock_set:
                return Visit(action.target, self.jitter_floor, ROCK_REWARD)
            return Static(())
        return self._beacon_steps[location][action.modality]

    def updated_memory(self, belief, action, observation):
        if isinstance(action, Move) and action.target in self._rock_set:
            return belief.memory | {action.target}
        return belief.memory

    # ground-truth side --------------------------------------------------

    def true_reward(self, belief, action):
        return isrs_true_reward(self.instance, belief.memory, action)

    def true_observation(self, belief, action, rng):
        inst = self.instance
        if isinstance(action, Move):
            target = action.target
            if target in self._rock_set and target not in belief.memory:
                value = GOOD_VALUE if target in inst.good_rocks else BAD_VALUE
                return (Measurement(target, value, self.jitter_floor),)
            return ()
        return isrs_observe(inst, belief.location, self.modalities[action.modality], rng,
                            self.jitter_floor)

    def belief_rmse(self, belief):
        """RMSE of the belief mean against rock goodness, over rock cells."""
        if not self._rock_index.size:
            return 0.0
        return rms_error(belief.gp.query_mean[self._rock_index], self._rock_truth)
