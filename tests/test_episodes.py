import pytest

from infopath.episodes import (
    STATUS_ABORTED,
    STATUS_FAILURE,
    STATUS_GOAL,
    run_episode,
)
from infopath.isrs import IsrsInstance, IsrsMdp, generate_isrs
from infopath.mdp import MISSION_FAILURE_REWARD, Move, Sense
from infopath.policies import random_policy
from infopath.rover import RoverMdp, generate_rover


def test_zero_budget_at_goal_is_trivial_success():
    inst = IsrsInstance(grid_size=3, rock_nodes=(4,), good_rocks=frozenset(),
                        beacons=frozenset(), budget=0.0)
    log = run_episode(IsrsMdp(inst), random_policy, seed=0)
    assert log.status == STATUS_GOAL
    assert log.records == ()
    assert log.true_reward_sum == 0.0
    assert log.final_trace == pytest.approx(9.0)  # prior variance over the grid


def test_budget_column_strictly_decreases():
    inst = generate_isrs(5, 3, 2, 0.5, seed=1, budget=12.0)
    log = run_episode(IsrsMdp(inst), random_policy, seed=1)
    budgets = [r.remaining_budget for r in log.records]
    assert all(b2 < b1 for b1, b2 in zip(budgets, budgets[1:]))


def test_steps_are_consecutive():
    inst = generate_isrs(5, 3, 2, 0.5, seed=2, budget=10.0)
    log = run_episode(IsrsMdp(inst), random_policy, seed=2)
    assert [r.step for r in log.records] == list(range(1, len(log.records) + 1))


def test_illegal_policy_aborts_with_distinguished_status():
    inst = IsrsInstance(grid_size=3, rock_nodes=(4,), good_rocks=frozenset(),
                        beacons=frozenset(), budget=10.0)

    def bad_policy(belief, mdp, rng):
        return Move(8)  # never adjacent to the current location on step one

    log = run_episode(IsrsMdp(inst), bad_policy, seed=0)
    assert log.status == STATUS_ABORTED
    assert log.records == ()


def test_unaffordable_policy_action_aborts_with_distinguished_status():
    mdp = RoverMdp(generate_rover(4, 4, 0.1, 0, budget=2.0))

    def drill(belief, mdp, rng):
        return Sense("drill")  # costs 3, more than the whole budget

    assert not mdp.is_terminal(mdp.initial_belief())
    log = run_episode(mdp, drill, seed=0)
    assert log.status == STATUS_ABORTED
    assert log.records == ()


def test_random_episode_builds_no_kernel_table():
    """Episodes without a planner never run a rollout, so the MDP keeps no
    flat table of its own: the location tables are shared."""
    for mdp in (RoverMdp(generate_rover(5, 4, 0.1, seed=2)),
                IsrsMdp(generate_isrs(5, 4, 2, 0.5, seed=2))):
        run_episode(mdp, random_policy, seed=2)
        assert mdp._flat_tables is None


def test_sentinel_reward_on_failure():
    # a policy that marches away from the goal until the budget dies
    inst = generate_rover(5, 5, 0.1, seed=3, budget=6.0)
    mdp = RoverMdp(inst)

    def away(belief, mdp_, rng):
        # climb x first, ignoring feasibility pruning entirely
        for target, _ in mdp_.graph.neighbors(belief.location):
            if target > belief.location:
                return Move(target)
        return None

    log = run_episode(mdp, away, seed=3)
    assert log.status == STATUS_FAILURE
    assert log.reward == MISSION_FAILURE_REWARD
    assert log.true_reward_sum == 0.0  # the raw step rewards stay honest


def test_trace_never_increases_on_measurement_steps():
    inst = generate_isrs(6, 5, 4, 0.5, seed=4, budget=16.0)
    mdp = IsrsMdp(inst)
    log = run_episode(mdp, random_policy, seed=4)
    prev = log.initial_trace
    for rec in log.records:
        assert rec.trace_of_variance <= prev + 1e-9
        prev = rec.trace_of_variance


def test_reproducible_given_seed():
    inst = generate_isrs(5, 4, 3, 0.5, seed=5, budget=14.0)
    a = run_episode(IsrsMdp(inst), random_policy, seed=5)
    b = run_episode(IsrsMdp(inst), random_policy, seed=5)
    assert a.records == b.records
    assert a.status == b.status


def test_config_snapshot_is_carried():
    inst = generate_isrs(4, 2, 2, 0.5, seed=6, budget=8.0)
    log = run_episode(IsrsMdp(inst), random_policy, seed=6, config={"solver": "random"})
    assert log.config == {"solver": "random"}
