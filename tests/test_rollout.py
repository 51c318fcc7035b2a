"""The in-place rollout path against the 3-method snapshot path, and pinned
planner episodes that guard the search's exact outputs."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from infopath.episodes import STATUS_GOAL, run_episode
from infopath.isrs import IsrsMdp, generate_isrs
from infopath.mcts import SolverConfig, rollout
from infopath.policies import MctsPolicy
from infopath.rover import RoverMdp, generate_rover


class ProtocolOnly:
    """An MDP seen through ``is_terminal``/``feasible_actions``/``generative_sample``
    only, so ``rollout`` takes the snapshot path."""

    def __init__(self, mdp):
        self.is_terminal = mdp.is_terminal
        self.feasible_actions = mdp.feasible_actions
        self.generative_sample = mdp.generative_sample


def build_mdp(env, seed, budget):
    if env == "isrs":
        return IsrsMdp(generate_isrs(6, 6, 4, 0.5, seed=seed, budget=budget))
    return RoverMdp(generate_rover(5, 6, 0.1, seed=seed, budget=budget))


def belief_fingerprint(belief):
    gp = belief.gp
    return (belief.location, belief.remaining_budget, belief.memory, belief.step,
            gp.query_mean.tobytes(), gp.query_variance.tobytes(), gp.trace_of_variance(),
            gp.measurements.tobytes())


@settings(max_examples=80, deadline=None)
@given(env=st.sampled_from(["isrs", "rover"]), seed=st.integers(0, 2**32 - 1),
       budget=st.sampled_from([6.0, 15.0, 40.0]), tree_steps=st.integers(0, 10),
       depth=st.integers(1, 40), discount=st.sampled_from([1.0, 0.9]))
def test_workspace_rollout_equals_snapshot_rollout(env, seed, budget, tree_steps, depth, discount):
    mdp = build_mdp(env, seed % 1000, budget)
    rng = np.random.default_rng(seed)
    belief = mdp.initial_belief()
    for _ in range(tree_steps):  # a belief deeper in the tree, built from snapshots
        if mdp.is_terminal(belief) or not mdp.feasible_actions(belief):
            break
        actions = mdp.feasible_actions(belief)
        belief, _ = mdp.generative_sample(belief, actions[rng.integers(len(actions))], rng)
    before = belief_fingerprint(belief)
    cfg = SolverConfig(discount=discount)
    fast_rng = np.random.default_rng(seed + 1)
    slow_rng = np.random.default_rng(seed + 1)
    fast = rollout(belief, depth, mdp, cfg, fast_rng)
    slow = rollout(belief, depth, ProtocolOnly(mdp), cfg, slow_rng)
    assert fast == slow
    assert fast_rng.bit_generator.state == slow_rng.bit_generator.state
    assert belief_fingerprint(belief) == before


# Captured before the in-place rollout existed; any change to the planner's
# draws or arithmetic shows up here as a different action or reward.
PINNED_CONFIG = SolverConfig(iterations=60, max_depth=8, seed=0)
PINNED_ISRS = (
    ["move:6", "move:7", "move:13", "move:7", "move:8", "move:9", "move:8", "move:14",
     "sense:accurate", "move:15", "move:9", "move:3", "move:2", "move:1", "move:0"],
    [10.0, 10.0, 0.0, -10.0, 0.0, -10.0, 0.0, 0.0, 0.0, 0.0, -10.0, 10.0, 0.0, 0.0, 0.0],
)
PINNED_ROVER = (
    ["sense:drill", "move:1", "move:6", "move:11", "move:16", "move:17", "move:12", "move:13",
     "move:14", "move:9", "sense:drill", "move:8", "move:13", "move:18", "move:23", "move:24"],
    [1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0],
)


def test_pinned_isrs_episode():
    mdp = IsrsMdp(generate_isrs(6, 5, 3, 0.5, seed=3, budget=16.0))
    log = run_episode(mdp, MctsPolicy(PINNED_CONFIG), 3)
    assert log.status == STATUS_GOAL
    assert ([r.action for r in log.records], [r.true_reward for r in log.records]) == PINNED_ISRS


def test_pinned_rover_episode():
    mdp = RoverMdp(generate_rover(5, 6, 0.1, seed=2, budget=20.0))
    log = run_episode(mdp, MctsPolicy(PINNED_CONFIG), 2)
    assert log.status == STATUS_GOAL
    assert ([r.action for r in log.records], [r.true_reward for r in log.records]) == PINNED_ROVER
