import math

import numpy as np
import pytest

from infopath.episodes import STATUS_GOAL, run_episode
from infopath.gp import JITTER_REL, GaussianProcessBelief, SquaredExponential
from infopath.mdp import Move, Sense
from infopath.policies import random_policy
from infopath.rover import (
    DRILL,
    SPECTROMETER,
    RoverInstance,
    RoverMdp,
    generate_rover,
    generate_rover_map,
    neighbor_average,
    nearest_type_index,
    rmse,
    rover_observe,
    rover_true_reward,
)


def flat_instance(value=0.5, n=4, sigma=0.1, budget=30.0, beta=10):
    tm = np.full((n, n), value)
    return RoverInstance(grid_size=n, true_map=tm, beta=beta,
                         spectrometer_sigma=sigma, budget=budget)


# ----------------------------------------------------------------------
# map generation

def test_map_values_in_unit_interval():
    for seed in range(20):
        m = generate_rover_map(8, 7, seed)
        assert m.min() >= 0.0 and m.max() <= 1.0


def test_map_deterministic():
    assert np.array_equal(generate_rover_map(10, 10, 5), generate_rover_map(10, 10, 5))


def test_neighbor_average_hand_grid():
    base = np.arange(9.0).reshape(3, 3)
    out = neighbor_average(base)
    # corner: itself plus two neighbours
    assert out[0, 0] == pytest.approx((base[0, 0] + base[1, 0] + base[0, 1]) / 3)
    # centre: itself plus four neighbours
    assert out[1, 1] == pytest.approx(
        (base[1, 1] + base[0, 1] + base[2, 1] + base[1, 0] + base[1, 2]) / 5)
    # edge: itself plus three neighbours
    assert out[1, 0] == pytest.approx((base[1, 0] + base[0, 0] + base[2, 0] + base[1, 1]) / 4)


def test_constant_grid_is_averaging_fixed_point():
    base = np.ones((4, 4))
    assert np.allclose(neighbor_average(base), base)
    # find a seed whose raw 2x2 draw is constant, then the output must be constant
    for seed in range(200):
        rng = np.random.default_rng(seed)
        draw = rng.integers(0, 2, size=(2, 2))
        if draw.min() == draw.max():
            m = generate_rover_map(2, 2, seed)
            assert np.allclose(m, m[0, 0])
            break
    else:
        pytest.fail("no constant 2x2 draw among 200 seeds")


def test_instance_geometry():
    inst = generate_rover(10, 10, 0.1, seed=0)
    assert inst.start == 0
    assert inst.goal == 90  # cell (0, 9): where the full sweep ends on even grids
    assert inst.cell_value(23) == inst.true_map[3, 2]  # node 23 = (x=3, y=2)
    odd = generate_rover(5, 5, 0.1, seed=0)
    assert odd.goal == 24  # diagonal corner is sweep-reachable on odd grids


# ----------------------------------------------------------------------
# rewards and observations

def test_true_reward_unique_then_repeat():
    inst = flat_instance(value=0.5)
    t = nearest_type_index(0.5, inst.beta)
    assert rover_true_reward(inst, frozenset(), Sense(DRILL), at=0) == 1.0
    assert rover_true_reward(inst, frozenset({t}), Sense(DRILL), at=5) == -1.0
    assert rover_true_reward(inst, frozenset(), Move(1), at=0) == 0.0


def test_total_positive_reward_bounded_by_beta():
    inst = generate_rover(6, 4, 0.2, seed=1, budget=60.0)
    mdp = RoverMdp(inst)
    log = run_episode(mdp, random_policy, seed=1)
    positive = sum(r.true_reward for r in log.records if r.true_reward > 0)
    assert positive <= inst.beta


def test_spectrometer_noiseless_limit():
    inst = flat_instance(value=0.7, sigma=0.0)
    obs = rover_observe(inst, 3, SPECTROMETER, np.random.default_rng(0), JITTER_REL)
    assert obs.value == pytest.approx(0.7)


def test_spectrometer_sample_mean():
    inst = flat_instance(value=0.3, sigma=0.5)
    rng = np.random.default_rng(7)
    n = 10_000
    draws = np.array([rover_observe(inst, 0, SPECTROMETER, rng, JITTER_REL).value
                      for _ in range(n)])
    assert abs(draws.mean() - 0.3) <= 3 * 0.5 / math.sqrt(n)


def test_drill_reveals_and_pins_posterior():
    inst = flat_instance(value=0.8, sigma=0.5)
    mdp = RoverMdp(inst)
    rng = np.random.default_rng(0)
    b = mdp.initial_belief()
    obs = mdp.true_observation(b, Sense(DRILL), rng)
    assert obs[0].value == pytest.approx(0.8)
    b2 = mdp.transition(b, Sense(DRILL), obs)
    assert abs(b2.gp.query_mean[0] - 0.8) <= 1e-4
    assert b2.gp.query_variance[0] <= 1e-4


def test_unknown_sensor_kind_rejected():
    with pytest.raises(ValueError):
        rover_observe(flat_instance(), 0, "sonar", np.random.default_rng(0), JITTER_REL)


def test_ground_truth_immutable_under_observation():
    inst = generate_rover(5, 5, 0.4, seed=2)
    snapshot = inst.true_map.copy()
    rng = np.random.default_rng(3)
    for node in range(25):
        rover_observe(inst, node, SPECTROMETER, rng, JITTER_REL)
        rover_observe(inst, node, DRILL, rng, JITTER_REL)
    assert np.array_equal(inst.true_map, snapshot)


def test_nearest_type_index():
    assert nearest_type_index(0.0, 10) == 0
    assert nearest_type_index(1.0, 10) == 9
    assert nearest_type_index(0.49, 10) == 4
    assert nearest_type_index(-3.0, 10) == 0  # clipped
    assert nearest_type_index(7.0, 10) == 9


# ----------------------------------------------------------------------
# planner-side drill value

def test_probability_unseen_cases():
    inst = flat_instance(value=0.5, sigma=0.1)
    mdp = RoverMdp(inst)
    b = mdp.initial_belief()
    assert mdp.probability_unseen(b, 0) == 1.0  # nothing collected yet
    # pin the cell at 0.8 and collect its type: a repeat is near certain
    pinned = b.gp.add_measurement(mdp.graph.coord(0), 0.8, 1e-9)
    t = nearest_type_index(0.8, inst.beta)
    b2 = type(b)(location=0, remaining_budget=b.remaining_budget, gp=pinned,
                 memory=frozenset({t}), step=0)
    assert mdp.probability_unseen(b2, 0) <= 1e-6
    assert mdp.expected_state_reward(b2, Sense(DRILL)) == pytest.approx(-1.0, abs=1e-5)
    # collected types far from the pinned value leave it certainly unseen
    b3 = type(b)(location=0, remaining_budget=b.remaining_budget, gp=pinned,
                 memory=frozenset({0}), step=0)
    assert mdp.probability_unseen(b3, 0) >= 1.0 - 1e-6
    assert mdp.expected_state_reward(b3, Sense(DRILL)) == pytest.approx(1.0, abs=1e-5)


def test_move_measures_destination_with_spectrometer_noise():
    inst = flat_instance(value=0.4, sigma=0.3)
    mdp = RoverMdp(inst)
    b = mdp.initial_belief()
    ((node, nu),) = mdp.measurement_sites(b, Move(1))
    assert node == 1
    assert nu == pytest.approx(0.09)
    ((node, nu),) = mdp.measurement_sites(b, Sense(DRILL))
    assert node == 0
    assert nu == pytest.approx(mdp.jitter_floor)


# ----------------------------------------------------------------------
# rmse

def test_rmse_zero_when_posterior_matches_map():
    inst = flat_instance(value=0.5, n=3)
    mdp = RoverMdp(inst)
    b = mdp.initial_belief()
    assert rmse(b.gp, inst.true_map) == pytest.approx(0.0)  # prior 0.5 == map


def test_rmse_prior_offset_closed_form():
    tm = np.ones((3, 3))
    gp = GaussianProcessBelief(0.5, SquaredExponential(),
                               [(float(x), float(y)) for y in range(3) for x in range(3)])
    assert rmse(gp, tm) == pytest.approx(0.5)


def test_rmse_after_exhaustive_drilling():
    inst = generate_rover(3, 5, 0.1, seed=4, budget=100.0)
    mdp = RoverMdp(inst)
    b = mdp.initial_belief()
    rng = np.random.default_rng(0)
    gp = b.gp
    for node in range(9):
        gp = gp.add_measurement(mdp.graph.coord(node), inst.cell_value(node), 1e-10)
    assert rmse(gp, inst.true_map) <= 1e-4


def test_rmse_node_ordering_matches_map_indexing():
    tm = np.zeros((3, 3))
    tm[2, 0] = 1.0  # cell (x=2, y=0) -> node 2
    inst = RoverInstance(grid_size=3, true_map=tm, beta=2, spectrometer_sigma=0.1)
    mdp = RoverMdp(inst)
    gp = mdp.initial_belief().gp.add_measurement((2.0, 0.0), 1.0, 1e-10)
    # only the measured cell matches the map bump; the rest sit at prior 0.5
    errors = (gp.query_mean - np.array([0.5 if n != 2 else 1.0 for n in range(9)])) ** 2
    by_hand = math.sqrt(np.mean((gp.query_mean - tm.T.ravel()) ** 2))
    assert rmse(gp, tm) == pytest.approx(by_hand)
    assert errors[2] <= 1e-6


# ----------------------------------------------------------------------
# episodes

def test_random_rover_episode_reaches_goal_and_metrics_monotone():
    inst = generate_rover(6, 6, 0.3, seed=5, budget=40.0)
    mdp = RoverMdp(inst)
    log = run_episode(mdp, random_policy, seed=5)
    assert log.status == STATUS_GOAL
    budgets = [r.remaining_budget for r in log.records]
    assert all(b2 < b1 for b1, b2 in zip(budgets, budgets[1:]))
    traces = [log.initial_trace] + [r.trace_of_variance for r in log.records]
    # every rover step carries a measurement, so the trace never increases
    assert all(t2 <= t1 + 1e-9 for t1, t2 in zip(traces, traces[1:]))


def test_instance_validation():
    with pytest.raises(ValueError):
        RoverInstance(grid_size=3, true_map=np.full((3, 3), 1.5), beta=5,
                      spectrometer_sigma=0.1)
    with pytest.raises(ValueError):
        RoverInstance(grid_size=3, true_map=np.zeros((3, 3)), beta=1,
                      spectrometer_sigma=0.1)
    with pytest.raises(ValueError):
        RoverInstance(grid_size=4, true_map=np.zeros((3, 3)), beta=5,
                      spectrometer_sigma=0.1)
