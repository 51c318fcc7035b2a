"""Monte Carlo tree search with double progressive widening over belief states.

The tree alternates belief nodes and action nodes. Action selection uses UCB
with unvisited actions taking infinite priority; both the number of actions
tried at a belief node and the number of sampled successors kept under an
action node are capped at k*N^alpha, so the search stays deep even though
every Gaussian-process successor belief is unique. New actions are drawn
uniformly from the node's untried feasibility-pruned actions, so the tree
never contains an action that could strand the agent. Leaf values come from
uniform-random feasible rollouts through the generative model. An MDP may
offer to run a whole plan's simulations itself, in one call, with the same
draws and tree (see ``search``); the Python ``simulate`` and ``rollout``
are then the reference, and the path of every other MDP. They are also the
path wherever the compiled kernel does not load (no C compiler, a numpy
BLAS other than its bundled scipy-openblas, a load check that differs: see
``infopath.kernel``), at tens of times its cost per plan (README,
"Two step kernels"); no benchmark workload runs them.

The planner owns nothing between calls: every plan builds a fresh tree from
the root belief and a seeded generator, so results are reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class SolverConfig:
    """Search hyperparameters.

    iterations   number of simulations per plan call
    max_depth    simulation horizon (actions), counted down to 0
    exploration  UCB exploration weight c
    k_action, alpha_action   action-widening cap |C(b)| <= k*N(b)^alpha
    k_state, alpha_state     successor-widening cap |C(ba)| <= k*N(ba)^alpha
    discount     per-step discount (1.0: undiscounted, budget bounds the horizon)
    seed         generator seed used when no external RNG is supplied
    """

    iterations: int = 1000
    max_depth: int = 30
    exploration: float = 3.0
    k_action: float = 3.0
    alpha_action: float = 0.5
    k_state: float = 2.0
    alpha_state: float = 0.25
    discount: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.iterations < 1 or self.max_depth < 1:
            raise ValueError("iterations and max_depth must be positive")
        # chained comparisons, so that NaN fails them too
        if not (0 <= self.exploration < math.inf and 0 < self.k_action < math.inf
                and 0 < self.k_state < math.inf):
            raise ValueError("exploration and widening k parameters must be finite and positive")
        if not (0.0 <= self.alpha_action < 1.0 and 0.0 <= self.alpha_state < 1.0):
            raise ValueError("widening alpha parameters must lie in [0, 1)")
        if not 0.0 < self.discount <= 1.0:
            raise ValueError("discount must lie in (0, 1]")


class BeliefNode:
    """A belief in the tree: visit count, the widened action children and the
    feasible actions not widened yet."""

    __slots__ = ("belief", "visits", "children", "untried")

    def __init__(self, belief):
        self.belief = belief
        self.visits = 0
        self.children: list[ActionNode] = []
        self.untried: list | None = None  # the feasible actions, filled on first use


class ActionNode:
    """An action under a belief: running-mean value and sampled successors."""

    __slots__ = ("action", "visits", "q", "children")

    def __init__(self, action):
        self.action = action
        self.visits = 0
        self.q = 0.0
        self.children: list[tuple[BeliefNode, float]] = []


def iter_belief_nodes(root: BeliefNode):
    """Yield every belief node reachable from ``root`` (depth first)."""
    stack = [root]
    while stack:
        node = stack.pop()
        yield node
        for an in node.children:
            stack.extend(child for child, _ in an.children)


def _untried(node: BeliefNode, mdp) -> list:
    if node.untried is None:
        node.untried = list(mdp.feasible_actions(node.belief))
    return node.untried


def action_prog_widen(node: BeliefNode, mdp, config: SolverConfig, rng) -> ActionNode:
    """Grow the action set if the widening cap allows, then pick by UCB.

    A new action is drawn uniformly from the feasible actions not yet tried
    at this node; when all are tried, selection falls through to pure UCB.
    Unvisited actions have infinite priority.
    """
    untried = _untried(node, mdp)
    if untried and len(node.children) <= config.k_action * node.visits ** config.alpha_action:
        node.children.append(ActionNode(untried.pop(rng.integers(len(untried)))))
    log_n = math.log(node.visits) if node.visits > 0 else 0.0
    best = None
    best_score = -math.inf
    for an in node.children:
        if an.visits == 0:
            return an
        score = an.q + config.exploration * math.sqrt(log_n / an.visits)
        if score > best_score:
            best_score = score
            best = an
    return best


def rollout(belief, depth, mdp, config: SolverConfig, rng) -> float:
    """Discounted return of a uniform-random feasible rollout of ``depth``
    steps through ``is_terminal``, ``feasible_actions`` and
    ``generative_sample``."""
    total = 0.0
    discount = 1.0
    for _ in range(depth):
        if mdp.is_terminal(belief):
            break
        actions = mdp.feasible_actions(belief)
        if not actions:
            break
        belief, reward = mdp.generative_sample(belief, actions[rng.integers(len(actions))], rng)
        total += discount * reward
        discount *= config.discount
    return total


def simulate(node: BeliefNode, depth, mdp, config: SolverConfig, rng) -> float:
    """One tree simulation; returns the sampled return and updates statistics."""
    if depth == 0:
        return 0.0
    if mdp.is_terminal(node.belief) or not (node.children or _untried(node, mdp)):
        return 0.0
    an = action_prog_widen(node, mdp, config, rng)
    if len(an.children) <= config.k_state * an.visits ** config.alpha_state:
        next_belief, reward = mdp.generative_sample(node.belief, an.action, rng)
        child = BeliefNode(next_belief)
        an.children.append((child, reward))
        q = reward + config.discount * rollout(next_belief, depth - 1, mdp, config, rng)
    else:
        child, reward = an.children[rng.integers(len(an.children))]
        q = reward + config.discount * simulate(child, depth - 1, mdp, config, rng)
    node.visits += 1
    an.visits += 1
    an.q += (q - an.q) / an.visits
    return q


def search(belief, mdp, config: SolverConfig, rng=None) -> BeliefNode:
    """Run the configured number of simulations from a fresh root; returns it.
    Every draw comes from ``rng``, a ``Generator``.

    An MDP with a ``compiled_search(belief, config, rng)`` hook that returns
    a search (``infopath.mdp.CompiledSearch``) runs every simulation there,
    in one call to its ``run``, with the same draws and the same tree;
    ``simulate`` is not entered. When a pivot collapses there, the search
    restores the generator state it saved and runs the whole plan in Python
    from a fresh root.
    """
    if rng is None:
        rng = np.random.default_rng(config.seed)
    if mdp.is_terminal(belief):
        raise ValueError("cannot plan from a terminal belief")
    hook = getattr(mdp, "compiled_search", None)
    compiled = hook(belief, config, rng) if hook is not None else None
    if compiled is not None:
        state = rng.bit_generator.state
        if compiled.run(config.iterations):
            return compiled.tree()
        rng.bit_generator.state = state
    root = BeliefNode(belief)
    for _ in range(config.iterations):
        simulate(root, config.max_depth, mdp, config, rng)
    return root


def plan(belief, mdp, config: SolverConfig, rng=None):
    """Best root action by estimated value; ties break to the lowest ordinal
    in the feasible-action ordering (moves by target id, then sensing)."""
    root = search(belief, mdp, config, rng)
    if not root.children:
        raise ValueError("no feasible actions at the planning root")
    order = {a: i for i, a in enumerate(mdp.feasible_actions(belief))}
    best = min(root.children, key=lambda an: (-an.q, order[an.action]))
    return best.action
