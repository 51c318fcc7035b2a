import math

import numpy as np
import pytest

from infopath.episodes import STATUS_GOAL, run_episode
from infopath.gp import SquaredExponential
from infopath.isrs import DEFAULT_MODALITIES, ROCK_REWARD, IsrsInstance, IsrsMdp, generate_isrs
from infopath.mdp import (
    MISSION_FAILURE_REWARD,
    Drill,
    Move,
    Sense,
    SensingModality,
    Visit,
)
from infopath.policies import random_policy
from infopath.rover import DRILL, DRILL_REWARD, RoverInstance, RoverMdp, generate_rover


def small_instance(budget=10.0, beacons=(0,), rocks=(7,), good=(7,), n=3):
    """3x3 instance with a beacon at the origin and one rock, start == goal == 0."""
    return IsrsInstance(
        grid_size=n,
        rock_nodes=tuple(sorted(rocks)),
        good_rocks=frozenset(good),
        beacons=frozenset(beacons),
        budget=budget,
    )


def test_modality_cost_accuracy_ordering_enforced():
    inst = small_instance()
    bad = (SensingModality("sharp", cost=0.1, noise_stddev=0.1),
           SensingModality("dull", cost=1.0, noise_stddev=0.5))
    with pytest.raises(ValueError):
        IsrsMdp(IsrsInstance(grid_size=3, rock_nodes=(7,), good_rocks=frozenset((7,)),
                             beacons=frozenset((0,)), modalities=bad))
    IsrsMdp(inst)  # default modalities satisfy the ordering


@pytest.mark.parametrize("value", [math.nan, math.inf, -1.0])
def test_non_finite_or_negative_weight_and_budget_are_rejected(value):
    # NaN passes a plain "< 0" check and would reach every reward and terminal test
    with pytest.raises(ValueError, match="information_weight must be finite"):
        RoverMdp(generate_rover(4, 3, 0.1, seed=0), information_weight=value)
    with pytest.raises(ValueError, match="information_weight must be finite"):
        IsrsMdp(small_instance(), information_weight=value)
    with pytest.raises(ValueError, match="budget must be finite"):
        RoverMdp(generate_rover(4, 3, 0.1, seed=0, budget=value))
    with pytest.raises(ValueError, match="budget must be finite"):
        IsrsMdp(small_instance(budget=value))
    assert IsrsMdp(small_instance(), information_weight=0.0).information_weight == 0.0
    assert RoverMdp(generate_rover(4, 3, 0.1, seed=0, budget=0.0)).initial_budget == 0.0


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, -1.0, -0.5])
def test_initial_belief_rejects_non_finite_or_negative_budget(value):
    # NaN would pass the terminal check yet make no action feasible, and inf
    # would never end
    mdp = RoverMdp(generate_rover(4, 3, 0.1, seed=0))
    with pytest.raises(ValueError, match="budget must be finite"):
        mdp.initial_belief(value)
    assert mdp.initial_belief(0.0).remaining_budget == 0.0
    assert mdp.initial_belief(np.float64(2.5)).remaining_budget == 2.5


def test_feasible_actions_at_goal_with_large_budget():
    mdp = IsrsMdp(small_instance(budget=100.0))
    b = mdp.initial_belief()
    acts = mdp.feasible_actions(b)
    assert set(acts) == {Move(1), Move(3), Sense("cheap"), Sense("accurate")}


def test_feasible_moves_match_dijkstra_oracle_at_exact_budget():
    # budget exactly covers the return trip: only distance-decreasing moves remain
    mdp = IsrsMdp(small_instance(budget=100.0))
    b = mdp.initial_belief(budget=4.0)
    b = type(b)(location=8, remaining_budget=4.0, gp=b.gp, memory=b.memory, step=0)
    gc = mdp.graph.costs_from(mdp.graph.goal)
    acts = mdp.feasible_actions(b)
    for target, cost in mdp.graph.neighbors(8):
        should = 4.0 - cost >= gc[target]
        assert (Move(target) in acts) == should
    assert Move(5) in acts and Move(7) in acts  # both head back toward the origin


def test_sensing_excluded_iff_budget_below_return_plus_cost():
    mdp = IsrsMdp(small_instance(budget=100.0))
    base = mdp.initial_belief()
    at = 1  # distance 1 from goal
    assert at not in mdp.instance.beacons or True
    mdp2 = IsrsMdp(small_instance(budget=100.0, beacons=(1,)))
    gc = mdp2.graph.costs_from(mdp2.graph.goal)[at]
    for mod in DEFAULT_MODALITIES:
        for budget in (gc + mod.cost - 0.25, gc + mod.cost, gc + mod.cost + 0.25):
            b = type(base)(location=at, remaining_budget=budget, gp=base.gp,
                           memory=base.memory, step=0)
            acts = mdp2.feasible_actions(b)
            assert (Sense(mod.name) in acts) == (budget - mod.cost >= gc)


def test_is_terminal_boundaries():
    mdp = IsrsMdp(small_instance())
    b = mdp.initial_belief(budget=0.0)
    assert mdp.is_terminal(b)
    # at the beacon origin the cheapest action is the 0.5-cost sensor
    assert not mdp.is_terminal(mdp.initial_belief(budget=0.5))
    assert mdp.is_terminal(mdp.initial_belief(budget=0.49))
    # off-beacon the cheapest action is a unit move
    away = type(b)(location=4, remaining_budget=0.9, gp=b.gp, memory=b.memory, step=0)
    assert mdp.is_terminal(away)


def test_feasible_actions_raises_on_terminal():
    mdp = IsrsMdp(small_instance())
    with pytest.raises(ValueError):
        mdp.feasible_actions(mdp.initial_belief(budget=0.0))


def test_transition_move_bookkeeping_and_snapshot():
    mdp = IsrsMdp(small_instance(budget=10.0))
    b0 = mdp.initial_belief()
    b1 = mdp.transition(b0, Move(1))
    assert b1.location == 1
    assert b1.remaining_budget == 9.0
    assert b1.step == 1
    assert b1.gp is b0.gp  # no observation, belief untouched
    # input belief unchanged
    assert b0.location == 0 and b0.remaining_budget == 10.0 and b0.step == 0
    assert len(b0.gp.measurements) == 0


def test_transition_budget_arithmetic_commutes():
    mdp = IsrsMdp(small_instance(budget=10.0))
    b = mdp.initial_belief()
    b = mdp.transition(b, Move(1))
    b = mdp.transition(b, Move(2))
    assert b.remaining_budget == 10.0 - 1.0 - 1.0


@pytest.mark.parametrize("step", [
    lambda mdp, b, a: mdp.transition(b, a),
    lambda mdp, b, a: mdp.generative_sample(b, a, np.random.default_rng(0)),
], ids=["transition", "generative_sample"])
def test_transition_rejects_infeasible_actions(step):
    mdp = IsrsMdp(small_instance(budget=10.0))
    b = mdp.initial_belief()
    with pytest.raises(ValueError):
        step(mdp, b, Move(8))  # not adjacent
    with pytest.raises(ValueError):
        step(mdp, b, Sense("nonexistent"))
    poor = mdp.initial_belief(budget=0.75)
    with pytest.raises(ValueError):
        step(mdp, poor, Move(1))  # unaffordable
    away = type(b)(location=4, remaining_budget=5.0, gp=b.gp, memory=b.memory, step=0)
    with pytest.raises(ValueError):
        step(mdp, away, Sense("cheap"))  # sensing off-beacon


def test_truth_reveal_pins_belief():
    # visiting the rock reveals its goodness; the posterior interpolates it
    mdp = IsrsMdp(small_instance(budget=20.0))
    rng = np.random.default_rng(0)
    b = mdp.initial_belief()
    path = [1, 4, 7]
    for node in path:
        a = Move(node)
        obs = mdp.true_observation(b, a, rng)
        b = mdp.transition(b, a, obs)
    assert 7 in b.memory
    assert abs(b.gp.query_mean[7] - 1.0) <= 1e-4
    assert b.gp.query_variance[7] <= 1e-4


def test_expected_state_reward_cases():
    mdp = IsrsMdp(small_instance(budget=20.0))
    b = mdp.initial_belief()
    # prior mean 0.5 at the rock: symmetric uncertainty nets zero
    at4 = type(b)(location=4, remaining_budget=20.0, gp=b.gp, memory=b.memory, step=0)
    assert mdp.expected_state_reward(at4, Move(7)) == pytest.approx(0.0)
    # non-rock move
    assert mdp.expected_state_reward(b, Move(1)) == 0.0
    # near-certain good rock pays close to +10
    sure = b.gp.add_measurement(mdp.graph.coord(7), 1.0, 1e-9)
    at4_sure = type(b)(location=4, remaining_budget=20.0, gp=sure, memory=b.memory, step=0)
    assert mdp.expected_state_reward(at4_sure, Move(7)) == pytest.approx(10.0, abs=1e-3)
    # visited rocks are spent
    visited = type(b)(location=4, remaining_budget=20.0, gp=sure,
                      memory=frozenset({7}), step=0)
    assert mdp.expected_state_reward(visited, Move(7)) == 0.0


def test_the_payoff_is_the_environments_at_any_weight():
    """The information weight scales only the variance drop: every drill or
    visit kind pays the environment's payoff, and where the outcome is
    certain the expected reward is the true one."""
    rover = RoverMdp(generate_rover(4, 3, 0.1, seed=0), information_weight=0.3)
    isrs = IsrsMdp(small_instance(budget=20.0), information_weight=0.3)
    for mdp, kind, payoff in ((rover, Drill, DRILL_REWARD), (isrs, Visit, ROCK_REWARD)):
        steps = [mdp.step_kind(v, action) for v in range(mdp.graph.n_nodes)
                 for action in mdp._tables[v].costs]
        rewards = {step.reward for step in steps if type(step) is kind}
        assert rewards == {payoff}
    # the first drill: nothing collected yet, so the type is new for sure
    b = rover.initial_belief()
    assert rover.expected_state_reward(b, Sense(DRILL)) == DRILL_REWARD
    assert rover.true_reward(b, Sense(DRILL)) == DRILL_REWARD
    # a good rock whose posterior mean is at least 1
    b = isrs.initial_belief()
    sure = b.gp.add_measurement(isrs.graph.coord(7), 1.5, 1e-9)
    at4 = b._replace(location=4, gp=sure)
    assert sure.query_mean[7] >= 1.0
    assert isrs.expected_state_reward(at4, Move(7)) == ROCK_REWARD
    assert isrs.true_reward(at4, Move(7)) == ROCK_REWARD


def test_belief_reward_decomposition():
    inst = small_instance(budget=20.0)
    zero_lam = IsrsMdp(inst, information_weight=0.0)
    unit_lam = IsrsMdp(inst, information_weight=1.0)
    rng = np.random.default_rng(1)
    b = zero_lam.initial_belief()

    # non-rock move with no observation: both terms vanish
    b1 = unit_lam.transition(b, Move(1))
    assert unit_lam.belief_reward(b, Move(1), b1) == 0.0

    # pure sensing: with lambda=1 the reward equals the trace drop exactly
    obs = unit_lam.true_observation(b, Sense("cheap"), rng)
    b2 = unit_lam.transition(b, Sense("cheap"), obs)
    expected = b.gp.trace_of_variance() - b2.gp.trace_of_variance()
    assert unit_lam.belief_reward(b, Sense("cheap"), b2) == pytest.approx(expected, abs=1e-12)
    assert zero_lam.belief_reward(b, Sense("cheap"), b2) == 0.0


def test_belief_reward_sentinel_off_goal():
    mdp = IsrsMdp(small_instance(budget=20.0))
    b = mdp.initial_belief(budget=1.5)
    b_away = type(b)(location=4, remaining_budget=1.5, gp=b.gp, memory=b.memory, step=0)
    b_next = mdp.transition(b_away, Move(5))  # strands at node 5 with 0.5 budget
    assert mdp.is_terminal(b_next) and b_next.location != mdp.graph.goal
    assert mdp.belief_reward(b_away, Move(5), b_next) == MISSION_FAILURE_REWARD


def test_generative_sample_deterministic_for_plain_moves():
    mdp = IsrsMdp(small_instance(budget=20.0))
    b = mdp.initial_belief()
    outs = [mdp.generative_sample(b, Move(1), np.random.default_rng(s)) for s in range(3)]
    rewards = {r for _, r in outs}
    assert len(rewards) == 1
    assert all(nb.location == 1 and nb.remaining_budget == 19.0 for nb, _ in outs)


def test_generative_sample_seed_reproducible():
    mdp = IsrsMdp(small_instance(budget=20.0))
    b = mdp.initial_belief()
    b1, r1 = mdp.generative_sample(b, Sense("cheap"), np.random.default_rng(42))
    b2, r2 = mdp.generative_sample(b, Sense("cheap"), np.random.default_rng(42))
    assert r1 == r2
    assert np.array_equal(b1.gp.measurements, b2.gp.measurements)


def test_generative_sample_distribution():
    # sampled observation values follow Normal(posterior mean, var + nu)
    mdp = IsrsMdp(small_instance(budget=20.0, beacons=(4,), rocks=(5,), good=(5,)))
    rng = np.random.default_rng(3)
    b0 = mdp.initial_belief()
    b = type(b0)(location=4, remaining_budget=20.0, gp=b0.gp, memory=b0.memory, step=0)
    mod = mdp.modalities["cheap"]
    (site_node, site_nu), = mdp.measurement_sites(b, Sense("cheap"))
    assert site_node == 5
    n = 10_000
    draws = np.empty(n)
    for i in range(n):
        nb, _ = mdp.generative_sample(b, Sense("cheap"), rng)
        draws[i] = nb.gp.measurements[-1]
    mu = b.gp.query_mean[5]
    sd = math.sqrt(b.gp.query_variance[5] + site_nu)
    assert abs(draws.mean() - mu) <= 3 * sd / math.sqrt(n)
    assert abs(draws.std() - sd) <= 0.05 * sd


def test_budget_conservation_along_trajectory():
    inst = generate_isrs(5, 4, 3, 0.5, seed=9, budget=18.0)
    mdp = IsrsMdp(inst)
    rng = np.random.default_rng(4)
    b = mdp.initial_belief()
    spent = 0.0
    while not mdp.is_terminal(b):
        acts = mdp.feasible_actions(b)
        if not acts:
            break
        a = acts[rng.integers(len(acts))]
        spent += mdp.action_cost(b, a)
        b, _ = mdp.generative_sample(b, a, rng)
        assert b.remaining_budget == inst.budget - spent  # exact, no drift
    assert b.remaining_budget <= inst.budget


def test_feasible_subset_of_action_space():
    inst = generate_isrs(5, 4, 3, 0.5, seed=10, budget=15.0)
    mdp = IsrsMdp(inst)
    rng = np.random.default_rng(5)
    b = mdp.initial_belief()
    for _ in range(30):
        if mdp.is_terminal(b):
            break
        acts = mdp.feasible_actions(b)
        if not acts:
            break
        assert set(acts) <= set(mdp.actions(b))
        b, _ = mdp.generative_sample(b, acts[rng.integers(len(acts))], rng)


def test_feasibility_safety_random_walks():
    # pruned random walks always return to the goal with budget to spare
    for seed in range(25):
        inst = generate_isrs(5, 4, 3, 0.5, seed=seed, budget=14.0)
        mdp = IsrsMdp(inst)
        log = run_episode(mdp, random_policy, seed=seed)
        assert log.status == STATUS_GOAL
        final_budget = log.records[-1].remaining_budget if log.records else inst.budget
        assert final_budget >= 0.0


def _rover_case(sigma, action):
    inst = RoverInstance(grid_size=3, true_map=np.full((3, 3), 0.5), beta=5,
                         spectrometer_sigma=sigma)
    return RoverMdp(inst, kernel=SquaredExponential(signal_variance=4.0)), action


def _isrs_case(action, modalities=DEFAULT_MODALITIES):
    inst = IsrsInstance(grid_size=3, rock_nodes=(1,), good_rocks=frozenset((1,)),
                        beacons=frozenset((0,)), modalities=modalities)
    return IsrsMdp(inst, kernel=SquaredExponential(signal_variance=4.0)), action


NOISE_FLOOR_CASES = {
    "rover-drill": lambda: _rover_case(0.3, Sense(DRILL)),
    "rover-noiseless-spectrometer": lambda: _rover_case(0.0, Move(1)),
    "isrs-rock-visit": lambda: _isrs_case(Move(1)),
    "isrs-noiseless-beacon": lambda: _isrs_case(
        Sense("exact"), (SensingModality("exact", cost=1.0, noise_stddev=0.0),)),
}


@pytest.mark.parametrize("case", sorted(NOISE_FLOOR_CASES))
def test_true_observation_noise_matches_planned_noise(case):
    # signal variance 4 puts the planner's relative noise floor at 4e-8
    mdp, action = NOISE_FLOOR_CASES[case]()
    belief = mdp.initial_belief()
    observed = mdp.true_observation(belief, action, np.random.default_rng(0))
    planned = mdp.measurement_sites(belief, action)
    assert planned
    assert [(m.node, m.noise_variance) for m in observed] == [tuple(s) for s in planned]
