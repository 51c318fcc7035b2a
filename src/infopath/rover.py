"""Rover exploration benchmark.

The rover crosses an n x n grid from one corner to the opposite corner along
the y axis, under a shared movement + drilling budget. Every cell holds one
of beta equally spaced sample types in [0, 1]; the map is spatially smoothed
so neighbouring cells correlate. Each move comes with a free noisy
spectrometer reading of the destination cell; drilling stays in place, costs
more, reveals the exact cell value, and pays +1 for a sample type not yet in
the collection and -1 for a repeat.

Planning-time drill rewards weigh the posterior probability that the cell's
value falls outside the matching tolerance of every collected type.
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
    Drill,
    Measurement,
    Move,
    Sense,
    SensingModality,
    Static,
)

DRILL_REWARD = 1.0
DEFAULT_INFORMATION_WEIGHT = 0.5
DRILL = "drill"
SPECTROMETER = "spectrometer"

DEFAULT_BUDGET = 100.0
DEFAULT_STEP_COST = 1.0
DEFAULT_DRILL_COST = 3.0


@dataclass(frozen=True, eq=False)
class RoverInstance:
    """Ground truth for one rover mission.

    ``true_map`` is an (n, n) array indexed [x, y]; cell (x, y) corresponds to
    graph node x + n*y. The start is the origin and the default goal is the
    corner opposite the start where a full boustrophedon sweep of the grid
    ends: the diagonal corner when n is odd, the corner straight up the y
    axis when n is even (no Hamiltonian grid path joins same-parity corners).
    """

    grid_size: int
    true_map: np.ndarray
    beta: int
    spectrometer_sigma: float
    drill_cost: float = DEFAULT_DRILL_COST
    step_cost: float = DEFAULT_STEP_COST
    budget: float = DEFAULT_BUDGET
    start: int = 0
    goal: int = -1  # resolved to the sweep-end corner in __post_init__
    seed: int | None = None

    def __post_init__(self):
        n = self.grid_size
        tm = np.asarray(self.true_map, dtype=float)
        if tm.shape != (n, n):
            raise ValueError(f"true_map must be ({n}, {n})")
        if not (tm.min() >= 0.0 and tm.max() <= 1.0):
            raise ValueError("true_map values must lie in [0, 1]")
        if self.beta < 2:
            raise ValueError("beta must be >= 2")
        if not self.spectrometer_sigma >= 0:
            raise ValueError("spectrometer_sigma must be non-negative")
        tm = tm.copy()
        tm.setflags(write=False)
        object.__setattr__(self, "true_map", tm)
        if self.goal == -1:
            sweep_end = n * n - 1 if n % 2 == 1 else n * (n - 1)
            object.__setattr__(self, "goal", sweep_end)

    @property
    def type_values(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, self.beta)

    def cell_value(self, node: int) -> float:
        n = self.grid_size
        return float(self.true_map[node % n, node // n])

    def graph(self) -> LocationGraph:
        return LocationGraph.grid(self.grid_size, self.step_cost, self.start, self.goal)


def neighbor_average(base) -> np.ndarray:
    """Each cell replaced by the mean of itself and its on-grid 4-neighbours.

    Computed from the input grid, not in place, so the smoothing is order-free.
    """
    base = np.asarray(base, dtype=float)
    total = base.copy()
    count = np.ones_like(base)
    total[1:, :] += base[:-1, :]
    count[1:, :] += 1
    total[:-1, :] += base[1:, :]
    count[:-1, :] += 1
    total[:, 1:] += base[:, :-1]
    count[:, 1:] += 1
    total[:, :-1] += base[:, 1:]
    count[:, :-1] += 1
    return total / count


def generate_rover_map(n, beta, seed) -> np.ndarray:
    """Spatially correlated (n, n) map of beta equally spaced types.

    Each cell is first drawn i.i.d. uniformly from {0, 1/(beta-1), ..., 1},
    then smoothed with one neighbour-averaging pass. Deterministic given the
    seed.
    """
    if n < 2:
        raise ValueError("grid size must be >= 2")
    if beta < 2:
        raise ValueError("beta must be >= 2")
    rng = np.random.default_rng(seed)
    base = np.linspace(0.0, 1.0, beta)[rng.integers(0, beta, size=(n, n))]
    return neighbor_average(base)


def generate_rover(n, beta, sigma, seed, *, budget=DEFAULT_BUDGET,
                   drill_cost=DEFAULT_DRILL_COST, step_cost=DEFAULT_STEP_COST) -> RoverInstance:
    """Sample a rover instance with a fresh correlated map."""
    seed_val = int(seed) if isinstance(seed, (int, np.integer)) else None
    return RoverInstance(
        grid_size=n,
        true_map=generate_rover_map(n, beta, seed),
        beta=beta,
        spectrometer_sigma=sigma,
        drill_cost=drill_cost,
        step_cost=step_cost,
        budget=budget,
        seed=seed_val,
    )


def nearest_type_index(value: float, beta: int) -> int:
    """Index of the type value closest to ``value`` (clipped into [0, 1])."""
    return int(round(min(max(value, 0.0), 1.0) * (beta - 1)))


def rover_true_reward(inst: RoverInstance, memory: frozenset, action: Action, at: int) -> float:
    """+1 for drilling a sample type not yet collected, -1 for a repeat, else 0.

    ``memory`` is the set of collected type indices; ``at`` the rover's cell.
    """
    if not (isinstance(action, Sense) and action.modality == DRILL):
        return 0.0
    t = nearest_type_index(inst.cell_value(at), inst.beta)
    return DRILL_REWARD if t not in memory else -DRILL_REWARD


def rover_observe(inst: RoverInstance, at: int, kind: str, rng,
                  noise_floor: float) -> Measurement:
    """One ground-truth reading at a cell.

    The spectrometer adds Gaussian noise of stddev sigma_s and records sigma_s^2
    as the measurement noise; the drill reveals the exact value. Recorded noise
    is at least ``noise_floor``, the MDP's ``jitter_floor``, so ground truth and
    planning feed the GP the same noise. The true map itself is never modified.
    """
    value = inst.cell_value(at)
    if kind == SPECTROMETER:
        sigma = inst.spectrometer_sigma
        if sigma > 0:
            value += rng.normal(0.0, sigma)
        return Measurement(at, float(value), max(sigma * sigma, noise_floor))
    if kind == DRILL:
        return Measurement(at, value, noise_floor)
    raise ValueError(f"unknown sensor kind {kind!r}")


def rmse(gp, true_map) -> float:
    """Root-mean-square error of the belief mean against the map, over all cells.

    The belief's query set must be the grid cells in node order.
    """
    truth = np.asarray(true_map, dtype=float).T.ravel()  # node order: id = x + n*y
    if len(truth) != len(gp.query_mean):
        raise ValueError("query set does not match the map")
    return rms_error(gp.query_mean, truth)


def _phi(z: float) -> float:
    return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))


class RoverMdp(BeliefMdp):
    """Belief MDP view of a rover mission.

    The action space is the four neighbour moves plus a drill everywhere; the
    spectrometer rides along free with every move, so each move's measurement
    plan is one noisy reading at the destination cell.
    """

    def __init__(self, inst: RoverInstance, *, information_weight=DEFAULT_INFORMATION_WEIGHT,
                 prior_mean=0.5, kernel=None):
        drill = SensingModality(DRILL, cost=inst.drill_cost, noise_stddev=0.0)
        super().__init__(inst.graph(), (drill,), information_weight=information_weight,
                         budget=inst.budget, prior_mean=prior_mean, kernel=kernel)
        self.instance = inst
        self._truth = inst.true_map.T.ravel()  # node order, as in ``rmse``
        self._spect_nu = max(inst.spectrometer_sigma ** 2, self.jitter_floor)
        # matching tolerance: half the spacing between adjacent type values
        self._delta = 0.5 / (inst.beta - 1)
        self._types = tuple(inst.type_values.tolist())

    # planning side ----------------------------------------------------

    def measurement_sites(self, belief, action):
        if isinstance(action, Move):
            return ((action.target, self._spect_nu),)
        return ((belief.location, self.jitter_floor),)

    def probability_unseen(self, belief, node: int) -> float:
        """Posterior probability that the cell's value matches no collected type.

        A candidate value matches type tau when |value - tau| < delta (half the
        type spacing); the posterior at the cell is Normal(mean, variance).
        """
        if not belief.memory:
            return 1.0
        mu = float(belief.gp.query_mean[node])
        sigma = math.sqrt(max(float(belief.gp.query_variance[node]), 1e-12))
        p_match = 0.0
        for t in belief.memory:
            tau = self._types[t]
            p_match += _phi((tau + self._delta - mu) / sigma) - _phi((tau - self._delta - mu) / sigma)
        return min(max(1.0 - p_match, 0.0), 1.0)

    def expected_state_reward(self, belief, action):
        """(+1)*P(unseen) + (-1)*(1 - P(unseen)) for drills, 0 for moves."""
        if isinstance(action, Move):
            return 0.0
        p = self.probability_unseen(belief, belief.location)
        return DRILL_REWARD * p - DRILL_REWARD * (1.0 - p)

    def step_kind(self, location, action):
        """A move takes one spectrometer reading at its target; a drill is a ``Drill``."""
        if isinstance(action, Move):
            return Static(((action.target, self._spect_nu),))
        return Drill(location, self.jitter_floor, DRILL_REWARD, self._delta, self._types)

    def updated_memory(self, belief, action, observation):
        if isinstance(action, Sense) and observation:
            t = nearest_type_index(observation[0].value, self.instance.beta)
            return belief.memory | {t}
        return belief.memory

    # ground-truth side --------------------------------------------------

    def true_reward(self, belief, action):
        return rover_true_reward(self.instance, belief.memory, action, belief.location)

    def true_observation(self, belief, action, rng):
        if isinstance(action, Move):
            return (rover_observe(self.instance, action.target, SPECTROMETER, rng,
                                  self.jitter_floor),)
        return (rover_observe(self.instance, belief.location, DRILL, rng, self.jitter_floor),)

    def belief_rmse(self, belief):
        return rms_error(belief.gp.query_mean, self._truth)
