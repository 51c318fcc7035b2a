"""Location tables and step kinds against the rule and the hooks, tree steps
against the environment hooks, and pinned planner episodes that guard the
search's exact outputs."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infopath import kernel
from infopath import mdp as mdp_module
from infopath.episodes import STATUS_GOAL, run_episode
from infopath.gp import SquaredExponential
from infopath.isrs import DEFAULT_MODALITIES, ROCK_REWARD, IsrsMdp, generate_isrs
from infopath.mcts import SolverConfig
from infopath.mdp import (
    BeliefState,
    CompiledSearch,
    Drill,
    Move,
    Sense,
    SensingModality,
    Static,
    Visit,
)
from infopath.policies import MctsPolicy
from infopath.rover import DRILL_REWARD, RoverMdp, generate_rover


def build_mdp(env, seed, budget):
    if env == "isrs":
        return IsrsMdp(generate_isrs(6, 6, 4, 0.5, seed=seed, budget=budget))
    return RoverMdp(generate_rover(5, 6, 0.1, seed=seed, budget=budget))


def belief_fingerprint(belief):
    gp = belief.gp
    return (belief.location, belief.remaining_budget, belief.memory, belief.step,
            gp.query_mean.tobytes(), gp.query_variance.tobytes(), gp.trace_of_variance(),
            gp.measurements.tobytes())


# non-dyadic costs, so that budgets pick up rounding along a path
ODD_MODALITIES = (SensingModality("cheap", cost=0.7, noise_stddev=0.4),
                  SensingModality("accurate", cost=1.3, noise_stddev=0.1))


def build_odd_mdp(env, seed, *, odd_costs=False, weight=None, signal_variance=1.0,
                  variant=False):
    """An MDP away from the defaults. ``variant``: an ISRS instance without
    beacons, or a rover with an exact (zero-sigma) spectrometer."""
    kernel = SquaredExponential(signal_variance=signal_variance)
    weights = {} if weight is None else {"information_weight": weight}
    if env == "isrs":
        inst = generate_isrs(6, 6, 0 if variant else 4, 0.5, seed=seed, budget=40.0,
                             modalities=ODD_MODALITIES if odd_costs else DEFAULT_MODALITIES,
                             movement_cost=0.3 if odd_costs else 1.0)
        return IsrsMdp(inst, kernel=kernel, **weights)
    costs = {"step_cost": 0.7, "drill_cost": 2.2} if odd_costs else {}
    inst = generate_rover(5, 6, 0.0 if variant else 0.1, seed=seed, budget=40.0, **costs)
    return RoverMdp(inst, kernel=kernel, **weights)


def literal_actions(mdp, location):
    """(action, cost, target) at ``location``, read off the graph and the
    modalities, not the MDP's tables: neighbor moves, then every modality
    (ISRS senses only at beacons)."""
    out = [(Move(w), cost, w) for w, cost in mdp.graph.neighbors(location)]
    if not isinstance(mdp, IsrsMdp) or location in mdp.instance.beacons:
        out += [(Sense(name), mod.cost, location) for name, mod in mdp.modalities.items()]
    return out


@st.composite
def location_cases(draw):
    env = draw(st.sampled_from(["isrs", "rover"]))
    mdp = build_odd_mdp(env, draw(st.integers(0, 999)), odd_costs=draw(st.booleans()))
    location = draw(st.integers(0, mdp.graph.n_nodes - 1))
    goal_costs = mdp.graph.goal_costs.tolist()
    # budgets on a feasibility boundary (budget - cost == goal cost), a few
    # ulps around one or around the cheapest cost (terminal below), and anywhere
    actions = literal_actions(mdp, location)
    edges = [(cost, goal_costs[target]) for _, cost, target in actions]
    edges.append((min(cost for _, cost, _ in actions), 0.0))
    cost, back = draw(st.sampled_from(edges))
    near = [back + cost]
    for _ in range(2):
        near = [np.nextafter(near[0], -np.inf), *near, np.nextafter(near[-1], np.inf)]
    boundary = [b for b in near if b - cost == back]
    kind = draw(st.sampled_from(["boundary", "near", "any"]))
    if kind == "boundary" and boundary:
        budget = float(draw(st.sampled_from(boundary)))
    elif kind == "near":
        budget = float(draw(st.sampled_from(near)))
    else:
        budget = draw(st.floats(0.0, 45.0))
    if env == "isrs":
        memory = frozenset(draw(st.sets(st.sampled_from(mdp.instance.rock_nodes))))
    else:
        memory = frozenset(draw(st.sets(st.integers(0, mdp.instance.beta - 1))))
    gp = mdp.initial_belief().gp
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    for node in rng.integers(mdp.graph.n_nodes, size=draw(st.integers(0, 6))):
        gp = gp.add_measurements_at([(int(node), float(rng.uniform(-0.5, 1.5)), 0.01)])
    return mdp, BeliefState(location, budget, gp, memory), rng


def kernel_actions(mdp, location, budget):
    """The compiled kernel's flat table at (location, budget): each action
    whose id passes ``budget - cost >= back`` with the id's cost, target,
    step kind, sites and parameters; none below the location's cheapest
    cost. Ids follow every location's actions in table order."""
    a = mdp_module._kernel_tables(mdp)._arrays
    by_id = [action for table in mdp._tables for action in table.costs]
    if budget < a["cheapest"][location]:
        return []
    out = []
    for s in range(a["act_start"][location], a["act_start"][location + 1]):
        if not budget - a["cost"][s] >= a["back"][s]:
            continue
        start, end = a["site_start"][s], a["site_start"][s + 1]
        sites = tuple(zip(a["site_node"][start:end].tolist(), a["site_nu"][start:end].tolist()))
        params = tuple(a["params"][a["param_start"][s]:a["param_start"][s + 1]].tolist())
        out.append((by_id[s], float(a["cost"][s]), int(a["target"][s]), int(a["kind"][s]),
                    sites, params))
    return out


def check_step_kind(mdp, belief, action, step, rng):
    """``step``, the ``Drill`` or ``Visit`` ``step_kind`` of ``action`` here,
    describes what the environment hooks do with it from ``belief``."""
    observation = mdp.sample_observation(belief, action, rng)
    r = step.reward
    assert r == (DRILL_REWARD if isinstance(step, Drill) else ROCK_REWARD)
    assert step.nu == mdp.jitter_floor
    if isinstance(step, Drill):
        assert step.node == belief.location
        assert step.types == tuple(mdp.instance.type_values.tolist())
        assert step.delta == 0.5 / (len(step.types) - 1)
        assert mdp.measurement_sites(belief, action) == ((step.node, step.nu),)
        p = mdp.probability_unseen(belief, step.node)
        value = min(max(observation[0].value, 0.0), 1.0)
        gained = round(value * (len(step.types) - 1))
    else:
        visited = step.node in belief.memory
        assert step.node == action.target
        assert mdp.measurement_sites(belief, action) == \
            (() if visited else ((step.node, step.nu),))
        p = min(max(float(belief.gp.query_mean[step.node]), 0.0), 1.0)
        gained = step.node
    expected = 0.0 if isinstance(step, Visit) and visited else r * p - r * (1.0 - p)
    assert mdp.expected_state_reward(belief, action) == expected
    assert mdp.updated_memory(belief, action, observation) == belief.memory | {gained}


def one_simulation(mdp, belief):
    """The root of a compiled search of one simulation of depth 1 from
    ``belief``, or None when the Python kernel runs."""
    if kernel.lib() is None:
        return None
    searched = CompiledSearch(mdp, belief, SolverConfig(iterations=1, max_depth=1),
                              np.random.default_rng(0))
    searched.run(1)
    return searched.tree()


@settings(max_examples=300, deadline=None)
@given(case=location_cases())
def test_table_actions_match_the_mdp(case):
    # the reference is the rule itself: terminal iff the budget is below the
    # cheapest cost, and an action is feasible iff budget - cost >= the goal
    # cost from its target, in the order of literal_actions
    mdp, belief, rng = case
    budget, goal_costs = belief.remaining_budget, mdp.graph.goal_costs.tolist()
    actions = literal_actions(mdp, belief.location)
    terminal = budget < min(cost for _, cost, _ in actions)
    feasible = [(a, cost, target) for a, cost, target in actions
                if budget - cost >= goal_costs[target]]
    assert mdp.is_terminal(belief) == terminal
    assert mdp.actions(belief) == [a for a, _, _ in actions]
    compiled = kernel_actions(mdp, belief.location, budget)
    root = one_simulation(mdp, belief)
    if terminal:
        assert compiled == []
        with pytest.raises(ValueError, match="terminal"):
            mdp.feasible_actions(belief)
        assert root is None or (root.untried is None and root.children == [])
        return
    assert mdp.feasible_actions(belief) == [a for a, _, _ in feasible]
    if root is not None:  # C feasible() filled the root's pool: one drawn, the rest in order
        tried = [an.action for an in root.children]
        assert len(tried) == min(1, len(feasible))
        assert root.untried == [a for a, _, _ in feasible if a not in tried]
        assert set(tried) <= {a for a, _, _ in feasible}
    assert [c[:3] for c in compiled] == feasible
    for (action, cost, target), (*_, kind, kernel_sites, params) in zip(feasible, compiled):
        assert cost == mdp.action_cost(belief, action)
        assert target == mdp.transition(belief, action).location
        step = mdp.step_kind(belief.location, action)
        dynamic = isinstance(action, Move) and action.target in mdp.instance.rock_nodes \
            if isinstance(mdp, IsrsMdp) else not isinstance(action, Move)
        assert (type(step) is Static) != dynamic
        if dynamic:
            assert kind == {Drill: kernel.DRILL, Visit: kernel.VISIT}[type(step)]
            assert kernel_sites == ((step.node, step.nu),)
            assert params == ((step.reward, step.delta, *step.types) if kind == kernel.DRILL
                              else (step.reward,))
            check_step_kind(mdp, belief, action, step, rng)
        else:
            sites = step.sites
            assert kind == kernel.STATIC and kernel_sites == sites and params == ()
            assert mdp.measurement_sites(belief, action) == sites
            assert mdp.expected_state_reward(belief, action) == 0.0
            observation = mdp.sample_observation(belief, action, rng)
            assert mdp.updated_memory(belief, action, observation) == belief.memory


def full_fingerprint(belief):
    gp = belief.gp
    return belief_fingerprint(belief) + (gp.measured_locations.tobytes(),
                                         gp.noise_variances.tobytes())


@settings(max_examples=150, deadline=None)
@given(env=st.sampled_from(["isrs", "rover"]), seed=st.integers(0, 2**32 - 1),
       weight=st.sampled_from([None, 0.0, 2.5]), variant=st.booleans(), odd_costs=st.booleans(),
       walk=st.integers(0, 12), location=st.one_of(st.none(), st.integers(0, 35)),
       budget=st.one_of(st.none(), st.floats(0.0, 8.0)))
def test_tree_step_equals_the_hook_composition(env, seed, weight, variant, odd_costs, walk,
                                               location, budget):
    # for every affordable action a tree step must give the bits of
    # sample_observation -> transition -> belief_reward
    mdp = build_odd_mdp(env, seed % 1000, odd_costs=odd_costs, weight=weight, variant=variant)
    rng = np.random.default_rng(seed)
    belief = mdp.initial_belief()
    for _ in range(walk):  # memory and measurements, built through the hooks
        if mdp.is_terminal(belief) or not mdp.feasible_actions(belief):
            break
        actions = mdp.feasible_actions(belief)
        action = actions[rng.integers(len(actions))]
        belief = mdp.transition(belief, action, mdp.sample_observation(belief, action, rng))
    if location is not None:
        belief = belief._replace(location=location % mdp.graph.n_nodes)
    if budget is not None:  # low budgets reach the failure sentinel
        belief = belief._replace(remaining_budget=budget)
    before = full_fingerprint(belief)
    for i, action in enumerate(mdp.actions(belief)):
        if mdp.action_cost(belief, action) > belief.remaining_budget:
            continue
        tree_rng = np.random.default_rng([seed, i])
        hook_rng = np.random.default_rng([seed, i])
        tree, tree_reward = mdp.generative_sample(belief, action, tree_rng)
        hooks = mdp.transition(belief, action, mdp.sample_observation(belief, action, hook_rng))
        assert full_fingerprint(tree) == full_fingerprint(hooks)
        assert tree_reward == mdp.belief_reward(belief, action, hooks)
        assert tree_rng.bit_generator.state == hook_rng.bit_generator.state
    assert full_fingerprint(belief) == before


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
