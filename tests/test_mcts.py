import math
import tracemalloc

import numpy as np
import pytest

from infopath.isrs import IsrsMdp, generate_isrs
from infopath.mcts import (
    ActionNode,
    BeliefNode,
    SolverConfig,
    action_prog_widen,
    iter_belief_nodes,
    plan,
    rollout,
    search,
    simulate,
)
from infopath.mdp import MISSION_FAILURE_REWARD, BeliefMdp, Move
from infopath.policies import random_policy
from infopath.rover import RoverMdp, generate_rover


class ArmsMdp:
    """Depth-1 synthetic belief MDP: fixed arms with deterministic or
    rng-driven rewards; every successor state is terminal."""

    def __init__(self, rewards=(1.0, 0.0), noise=0.0):
        self.rewards = {Move(i): r for i, r in enumerate(rewards)}
        self.noise = noise

    def is_terminal(self, state):
        return state != "root"

    def feasible_actions(self, state):
        return sorted(self.rewards, key=lambda a: a.target)

    def generative_sample(self, state, action, rng):
        r = self.rewards[action]
        if self.noise:
            r += self.noise * rng.normal()
        return "leaf", r


def exhaustive_best_arm(mdp):
    # the two-arm instance is shallow enough to evaluate outright
    return max(mdp.feasible_actions("root"), key=lambda a: mdp.rewards[a])


def tree_table(root):
    """Flatten a search tree into nested (action, visits, q) tuples."""
    out = []
    for node in iter_belief_nodes(root):
        out.append((node.visits, tuple((an.action, an.visits, an.q) for an in node.children)))
    return out


def test_plan_selects_rewarding_arm():
    mdp = ArmsMdp((1.0, 0.0))
    best = exhaustive_best_arm(mdp)
    cfg = SolverConfig(iterations=200, max_depth=5, seed=0)
    for seed in range(20):
        assert plan("root", mdp, cfg, np.random.default_rng(seed)) == best


def test_plan_single_feasible_action():
    mdp = ArmsMdp((0.25,))
    for n in (1, 3, 50):
        cfg = SolverConfig(iterations=n, max_depth=3, seed=1)
        assert plan("root", mdp, cfg) == Move(0)


def test_plan_rejects_terminal_root():
    mdp = ArmsMdp()
    with pytest.raises(ValueError):
        plan("leaf", mdp, SolverConfig(iterations=10, max_depth=3))


def test_plan_tie_breaks_to_lowest_ordinal():
    mdp = ArmsMdp((0.5, 0.5, 0.5))
    cfg = SolverConfig(iterations=60, max_depth=2, seed=3)
    assert plan("root", mdp, cfg) == Move(0)


def test_seeded_determinism_identical_q_tables():
    mdp = ArmsMdp((1.0, 0.2, -0.4), noise=0.5)
    cfg = SolverConfig(iterations=150, max_depth=4, seed=11)
    t1 = tree_table(search("root", mdp, cfg))
    t2 = tree_table(search("root", mdp, cfg))
    assert t1 == t2  # exact float equality, bit-identical sampling


def test_q_is_exact_running_mean_of_constant_rewards():
    mdp = ArmsMdp((0.75, 0.25))
    root = search("root", mdp, SolverConfig(iterations=100, max_depth=3, seed=5))
    for an in root.children:
        assert an.q == mdp.rewards[an.action]  # running mean of a constant
    assert root.visits == sum(an.visits for an in root.children)


def test_action_prog_widen_fresh_node_adds_action():
    mdp = ArmsMdp((1.0, 0.0))
    node = BeliefNode("root")
    rng = np.random.default_rng(0)
    an = action_prog_widen(node, mdp, SolverConfig(), rng)
    assert len(node.children) == 1
    assert an is node.children[0]
    assert an.visits == 0


def test_action_prog_widen_saturated_pure_ucb():
    mdp = ArmsMdp((0.0, 0.0))
    node = BeliefNode("root")
    rng = np.random.default_rng(0)
    cfg = SolverConfig()
    for _ in range(2):
        an = action_prog_widen(node, mdp, cfg, rng)
        an.visits += 1
        node.visits += 1
    assert {an.action for an in node.children} == {Move(0), Move(1)}
    node.children[0].q, node.children[0].visits = 0.3, 50
    node.children[1].q, node.children[1].visits = 0.7, 50
    node.visits = 100
    grown = len(node.children)
    best = action_prog_widen(node, mdp, SolverConfig(exploration=0.0), rng)
    assert len(node.children) == grown  # no untried actions left, no growth
    assert best.q == 0.7  # strict argmax of Q at c=0


def test_ucb_prefers_unvisited_action():
    node = BeliefNode("root")
    seen = ActionNode(Move(0))
    seen.visits, seen.q = 10, 100.0
    fresh = ActionNode(Move(1))
    node.children = [seen, fresh]
    node.untried = []
    node.visits = 10
    picked = action_prog_widen(node, ArmsMdp((0.0, 0.0)), SolverConfig(), np.random.default_rng(0))
    assert picked is fresh


def test_simulate_depth_zero():
    mdp = ArmsMdp()
    assert simulate(BeliefNode("root"), 0, mdp, SolverConfig(), np.random.default_rng(0)) == 0.0


def test_state_widening_limits():
    # huge k_state: every visit expands a fresh successor
    mdp = ArmsMdp((0.5,), noise=1.0)
    cfg = SolverConfig(iterations=50, max_depth=3, k_state=1e9, alpha_state=0.0, seed=7)
    root = search("root", mdp, cfg)
    (an,) = root.children
    assert len(an.children) == an.visits == 50

    # tiny k_state: the single stored successor is reused forever
    cfg = SolverConfig(iterations=100, max_depth=3, k_state=1e-9, alpha_state=0.0, seed=7)
    root = search("root", mdp, cfg)
    (an,) = root.children
    assert an.visits == 100
    assert len(an.children) == 1


def test_rollout_terminal_and_single_step():
    mdp = ArmsMdp((0.4,))
    rng = np.random.default_rng(0)
    assert rollout("leaf", 5, mdp, SolverConfig(), rng) == 0.0
    assert rollout("root", 1, mdp, SolverConfig(), rng) == 0.4
    assert rollout("root", 9, mdp, SolverConfig(), rng) == 0.4  # terminal after one arm


def test_rollout_inert_instance_scores_zero():
    # no rocks, no beacons: nothing to observe, nothing to reward
    inst = generate_isrs(4, 0, 0, 0.5, seed=0, budget=8.0)
    mdp = IsrsMdp(inst)
    value = rollout(mdp.initial_belief(), 8, mdp, SolverConfig(), np.random.default_rng(2))
    assert value == 0.0


def test_discount_applied_in_simulation():
    mdp = ArmsMdp((1.0,))
    cfg = SolverConfig(iterations=30, max_depth=4, discount=0.5, seed=0)
    root = search("root", mdp, cfg)
    (an,) = root.children
    assert an.q == pytest.approx(1.0)  # terminal leaf: no discounted tail to add


def assert_dpw_bounds(root, cfg):
    for node in iter_belief_nodes(root):
        if node.visits == 0:
            assert not node.children
        else:
            assert len(node.children) <= math.ceil(cfg.k_action * node.visits ** cfg.alpha_action)
        assert node.visits == sum(an.visits for an in node.children)
        for an in node.children:
            if an.visits == 0:
                assert not an.children
            else:
                assert len(an.children) <= math.ceil(cfg.k_state * an.visits ** cfg.alpha_state)


def test_widening_bounds_hold_during_search():
    inst = generate_isrs(5, 4, 3, 0.5, seed=1, budget=12.0)
    mdp = IsrsMdp(inst)
    cfg = SolverConfig(iterations=120, max_depth=8, seed=3)
    rng = np.random.default_rng(cfg.seed)
    root = BeliefNode(mdp.initial_belief())
    for _ in range(cfg.iterations):
        simulate(root, cfg.max_depth, mdp, cfg, rng)
        assert_dpw_bounds(root, cfg)


def test_every_tree_action_was_feasible():
    inst = generate_isrs(5, 4, 3, 0.5, seed=2, budget=12.0)
    mdp = IsrsMdp(inst)
    root = search(mdp.initial_belief(), mdp, SolverConfig(iterations=150, max_depth=8, seed=4))
    checked = 0
    for node in iter_belief_nodes(root):
        if not node.children:
            continue
        feasible = set(mdp.feasible_actions(node.belief))
        for an in node.children:
            assert an.action in feasible
            checked += 1
    assert checked > 0


@pytest.mark.parametrize("env", ["isrs", "rover"])
@pytest.mark.parametrize("budget", [8.0, 20.0, 40.0])
def test_pruned_search_never_meets_the_failure_sentinel(env, budget, monkeypatch, python_kernel):
    """Feasibility pruning keeps every tree step and every rollout step from
    stranding the agent, so no sampled reward is the mission-failure sentinel.
    Steps are counted through ``generative_sample``, so the Python kernel
    runs: the compiled search never calls it."""
    sampled_rewards, pruned = [], 0
    generative_sample = BeliefMdp.generative_sample

    def recording_sample(self, belief, action, rng):
        nonlocal pruned
        pruned += len(self.feasible_actions(belief)) < len(self.actions(belief))
        after, reward = generative_sample(self, belief, action, rng)
        sampled_rewards.append(reward)
        return after, reward

    monkeypatch.setattr(BeliefMdp, "generative_sample", recording_sample)
    tree_rewards = []
    for seed in range(3):
        if env == "isrs":
            mdp = IsrsMdp(generate_isrs(6, 6, 4, 0.5, seed=seed, budget=budget))
        else:
            mdp = RoverMdp(generate_rover(5, 6, 0.1, seed=seed, budget=budget))
        root = search(mdp.initial_belief(), mdp,
                      SolverConfig(iterations=60, max_depth=40, seed=seed))
        tree_rewards += [r for node in iter_belief_nodes(root)
                         for an in node.children for _, r in an.children]
    assert tree_rewards and len(sampled_rewards) > len(tree_rewards)  # and rollout steps
    assert MISSION_FAILURE_REWARD not in tree_rewards
    assert MISSION_FAILURE_REWARD not in sampled_rewards
    assert pruned  # the budget binds: some step had actions pruned


# Bytes a search may hold per belief node of its tree. A node's GP keeps only
# the rows its step added (800 B per site at q = 100); when nodes kept all m
# rows, this plan held 55 KB per node.
TREE_BYTES_PER_NODE = 10_000


def test_search_tree_memory_per_node():
    mdp = RoverMdp(generate_rover(10, 10, 0.1, seed=3, budget=100.0))
    rng = np.random.default_rng(0)
    belief = mdp.initial_belief()
    while len(belief.gp.measurements) < 60:  # an episode belief at m = 60
        action = random_policy(belief, mdp, rng)
        belief = mdp.transition(belief, action, mdp.true_observation(belief, action, rng))
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        root = search(belief, mdp, SolverConfig(iterations=150, max_depth=12),
                      np.random.default_rng(1))
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        if not tracing:
            tracemalloc.stop()
    nodes = sum(1 for _ in iter_belief_nodes(root))
    assert nodes > 100
    assert held / nodes < TREE_BYTES_PER_NODE


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(iterations=0)
    with pytest.raises(ValueError):
        SolverConfig(alpha_action=1.0)
    with pytest.raises(ValueError):
        SolverConfig(discount=0.0)
    with pytest.raises(ValueError):
        SolverConfig(k_state=0.0)
    for bad in ({"exploration": math.nan}, {"k_action": math.inf}, {"k_state": math.nan}):
        with pytest.raises(ValueError, match="finite"):
            SolverConfig(**bad)
