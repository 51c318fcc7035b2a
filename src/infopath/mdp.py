"""Belief MDP over a location graph: budgeted actions, GP belief updates,
belief-dependent rewards, and feasibility pruning.

A belief state bundles the agent location, the remaining cost budget, the GP
belief over the world, and a small discrete memory (visited rocks, collected
sample types). Transitions are deterministic in location and budget; sensing
appends measurements to the GP. The reward adds the expected interaction
reward under the current belief (the environment's payoff) to the
total-variance drop weighted by ``information_weight``, and a large negative
sentinel replaces it when a transition strands the agent off the goal with
no affordable action left.

``BeliefMdp`` carries the machinery shared by every environment; subclasses
supply what differs: where sensing is possible, what each action measures,
the expected interaction reward, how the memory evolves, and the step kind
that says all of this as data.

The Python step kernel is ``generative_sample``: it draws with
``sample_observation``, steps as ``transition`` does and rewards with
``belief_reward``. It is the reference and the fallback: when the compiled
kernel is built (``infopath.kernel``), ``compiled_search`` hands
``mcts.search`` a ``CompiledSearch`` instead, which runs every simulation of
a plan in C, in one call, over a flat copy of the location tables by integer
action id, tree steps and rollouts alike, with the same bits; its tree's
beliefs are built on first read, each by extending its parent's GP as an
update would.

Each location has one ``LocationTable``, shared by every MDP on the same
graph with the same senses: its cheapest cost, below which it is terminal,
and every action's cost, target and goal cost from the target. An action is
feasible when ``budget - cost >= goal cost from its target``, the rule
itself, evaluated where it is asked. Terminal checks, feasible actions,
costs, targets and steps all read the table.
Each kernel states what a step does once. A Python step, and an episode's
``transition``, take it from the environment hooks. The compiled kernel's
table takes it from ``step_kind``, which every environment implements for
each action at each location; its kind is one of a small closed set:
``Static`` (fixed sites, no interaction reward, memory unchanged),
``Drill`` or ``Visit``. The equality tests of the two kernels hold the kinds
against the hooks.
"""

from __future__ import annotations

import ctypes
import functools
import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from . import kernel
from .gp import JITTER_REL, GaussianProcessBelief, SquaredExponential
from .graph import GRID_CACHE_SIZE, LocationGraph
from .mcts import ActionNode, BeliefNode

# Numeric stand-in for the minus-infinity mission-failure reward; episode logs
# record the failure flag separately so averages stay interpretable.
MISSION_FAILURE_REWARD = -1e9


@dataclass(frozen=True)
class SensingModality:
    """A named sensor with a budget cost and a noise level."""

    name: str
    cost: float
    noise_stddev: float

    def __post_init__(self):
        if self.cost <= 0:
            raise ValueError("sensing cost must be positive")
        if self.noise_stddev < 0:
            raise ValueError("noise_stddev must be non-negative")


@dataclass(frozen=True)
class Move:
    """Movement to an adjacent graph node."""

    target: int


@dataclass(frozen=True)
class Sense:
    """A sensing action using the named modality."""

    modality: str


Action = Move | Sense


def action_label(action: Action) -> str:
    if isinstance(action, Move):
        return f"move:{action.target}"
    return f"sense:{action.modality}"


class Measurement(NamedTuple):
    """One scalar observation at a graph node, with its noise variance.

    Graph nodes are the GP's query points in order, so a measurement is also
    the (query index, value, noise variance) site ``add_measurements_at``
    takes.
    """

    node: int
    value: float
    noise_variance: float


Observation = tuple[Measurement, ...]


class BeliefState(NamedTuple):
    """Agent location, remaining budget, world belief, and discrete memory.

    Immutable. Equality and hashing are by identity, as every GP belief is
    its own object.
    """

    location: int
    remaining_budget: float
    gp: GaussianProcessBelief
    memory: frozenset = frozenset()
    step: int = 0

    __eq__ = object.__eq__
    __ne__ = object.__ne__
    __hash__ = object.__hash__


class Static(NamedTuple):
    """A step kind: a step that measures the fixed (node, noise variance)
    ``sites``, in order, with no interaction reward and the memory
    unchanged."""

    sites: tuple[tuple[int, float], ...]


class Drill(NamedTuple):
    """A step kind: a drill that measures ``node`` at noise variance ``nu``.

    Its interaction reward is ``reward * p - reward * (1 - p)``, where p is
    the posterior chance that the value at ``node`` lies within ``delta`` of
    none of the type values ``types[t]`` of the type indices t in the
    memory. The memory gains the index of the type value nearest the drawn
    value clipped to [0, 1], ``round(value * (len(types) - 1))``.
    """

    node: int
    nu: float
    reward: float
    delta: float
    types: tuple[float, ...]


class Visit(NamedTuple):
    """A step kind: a visit to the rock at ``node``.

    Unless ``node`` is in the memory, it measures ``node`` at noise variance
    ``nu`` and its interaction reward is ``reward * p - reward * (1 - p)``,
    where p is the posterior mean there clipped to [0, 1]; a revisit
    measures nothing and rewards 0. Either way the memory gains ``node``.
    """

    node: int
    nu: float
    reward: float


class LocationTable(NamedTuple):
    """The actions at one location and the budgets they need.

    ``costs`` maps each action, moves by target then senses, to its (cost,
    target, back), where back is the goal cost from the target: the action
    is feasible when ``budget - cost >= back``. Below ``cheapest``, the least
    cost, the location is terminal.
    """

    cheapest: float
    costs: MappingProxyType  # Action -> (cost, target, back)


class BeliefMdp:
    """Shared belief-MDP mechanics over a location graph.

    Every modality can sense at ``sensing_nodes`` (all nodes when None).
    ``information_weight`` scales the total-variance drop in the reward; the
    interaction payoff belongs to the environment. Subclasses override the
    three environment hooks (``measurement_sites``,
    ``expected_state_reward``, ``updated_memory``) for planning, and state
    the same steps as data for the compiled kernel through ``step_kind``.
    The two ground-truth hooks (``true_reward``, ``true_observation``) serve
    episode execution.
    """

    def __init__(self, graph: LocationGraph, modalities, *, information_weight=1.0,
                 budget, prior_mean=0.5, kernel=None, sensing_nodes=None):
        self.graph = graph
        self.kernel = kernel if kernel is not None else SquaredExponential()
        if not (math.isfinite(information_weight) and information_weight >= 0):
            raise ValueError("information_weight must be finite and non-negative")
        self.information_weight = information_weight
        if not (math.isfinite(budget) and budget >= 0):
            raise ValueError("budget must be finite and non-negative")
        self.initial_budget = float(budget)
        self.jitter_floor = JITTER_REL * self.kernel.signal_variance

        self.modalities: dict[str, SensingModality] = {}
        for mod in modalities:
            if mod.name in self.modalities:
                raise ValueError(f"duplicate modality name {mod.name!r}")
            self.modalities[mod.name] = mod
        # more accurate sensing must not be cheaper than less accurate sensing
        by_noise = sorted(self.modalities.values(), key=lambda m: m.noise_stddev)
        for better, worse in zip(by_noise, by_noise[1:]):
            if better.noise_stddev < worse.noise_stddev and better.cost < worse.cost:
                raise ValueError("modality costs must not decrease as accuracy increases")

        senses = tuple((Sense(name), mod.cost) for name, mod in self.modalities.items())
        self._tables = _action_tables(graph, senses, sensing_nodes)
        self._empty_gp = GaussianProcessBelief(prior_mean, self.kernel, graph.coords)
        self._flat_tables = None  # every location's, for the compiled kernel

    # ------------------------------------------------------------------
    # environment hooks (planning side)

    def measurement_sites(self, belief: BeliefState, action: Action):
        """(node, noise_variance) pairs the action will measure."""
        return ()

    def expected_state_reward(self, belief: BeliefState, action: Action) -> float:
        """Expected environment-interaction reward under the current belief."""
        return 0.0

    def updated_memory(self, belief: BeliefState, action: Action, observation: Observation):
        return belief.memory

    def step_kind(self, location: int, action: Action):
        """The step kind of ``action`` taken at ``location``: ``Static``,
        ``Drill`` or ``Visit``.

        The kind describes, as data, what the three hooks do for this
        action at this location, whatever the belief. Only the compiled
        kernel reads it: its table calls this once per (location, action)
        when the MDP's first compiled search builds it, and takes every step
        from it. It must be a pure function of the two.
        """
        raise NotImplementedError(
            f"{type(self).__name__} names no step_kind, which the compiled kernel needs")

    # ------------------------------------------------------------------
    # ground-truth hooks (episode side)

    def true_reward(self, belief: BeliefState, action: Action) -> float:
        raise NotImplementedError

    def true_observation(self, belief: BeliefState, action: Action, rng) -> Observation:
        raise NotImplementedError

    def belief_rmse(self, belief: BeliefState) -> float:
        """Root-mean-square error of the belief mean against ground truth."""
        return float("nan")

    # ------------------------------------------------------------------
    # shared mechanics

    def initial_belief(self, budget=None) -> BeliefState:
        b = self.initial_budget if budget is None else float(budget)
        if not (math.isfinite(b) and b >= 0):
            raise ValueError("budget must be finite and non-negative")
        return BeliefState(self.graph.start, b, self._empty_gp)

    def actions(self, belief: BeliefState) -> list[Action]:
        """Full action space at the belief: neighbor moves plus sensing."""
        return list(self._tables[belief.location].costs)

    def action_cost(self, belief: BeliefState, action: Action) -> float:
        """Budget cost of an applicable action; raises on inapplicable ones."""
        entry = self._tables[belief.location].costs.get(action)
        if entry is not None:
            return entry[0]
        if isinstance(action, Move):
            raise ValueError(f"node {action.target} is not adjacent to {belief.location}")
        raise ValueError(f"{action_label(action)} is not available at node {belief.location}")

    def is_terminal(self, belief: BeliefState) -> bool:
        """True iff the remaining budget cannot pay for any action."""
        return belief.remaining_budget < self._tables[belief.location].cheapest

    def feasible_actions(self, belief: BeliefState) -> list[Action]:
        """Actions after which the goal stays reachable within the budget.

        Raises if called on a terminal belief. The result can be empty at rare
        boundary states (at the goal with just enough budget to act but not to
        leave and return); callers treat that as the end of the episode.
        """
        cheapest, costs = self._tables[belief.location]
        budget = belief.remaining_budget
        if budget < cheapest:
            raise ValueError("feasible_actions called on a terminal belief")
        return [a for a, (cost, _, back) in costs.items() if budget - cost >= back]

    def _affordable_step(self, belief: BeliefState, action: Action) -> tuple[float, int, float]:
        """The location table's (cost, target, back) of ``action``; raises as
        ``action_cost`` does, and also when the budget cannot pay the cost."""
        entry = self._tables[belief.location].costs.get(action)
        if entry is None:
            self.action_cost(belief, action)  # raises
        if entry[0] > belief.remaining_budget:
            raise ValueError(
                f"{action_label(action)} costs {entry[0]} but only "
                f"{belief.remaining_budget} budget remains")
        return entry

    def transition(self, belief: BeliefState, action: Action,
                   observation: Observation = ()) -> BeliefState:
        """Apply an action deterministically; never mutates the input belief."""
        step = self._affordable_step(belief, action)
        return self._successor(belief, action, step, observation)

    def _successor(self, belief: BeliefState, action: Action, step: tuple[float, int, float],
                   observation: Observation) -> BeliefState:
        """The belief ``action`` reaches at ``step``, its (cost, target,
        back), having observed ``observation``."""
        cost, target, _ = step
        # the graph's nodes are the GP's query points, in order
        return BeliefState(
            location=target,
            remaining_budget=belief.remaining_budget - cost,
            gp=belief.gp.add_measurements_at(observation),
            memory=self.updated_memory(belief, action, observation),
            step=belief.step + 1,
        )

    def belief_reward(self, belief: BeliefState, action: Action,
                      next_belief: BeliefState) -> float:
        """Expected interaction reward plus the weighted total-variance drop.

        Returns the mission-failure sentinel when the successor is terminal
        away from the goal.
        """
        if next_belief.location != self.graph.goal and self.is_terminal(next_belief):
            return MISSION_FAILURE_REWARD
        info = belief.gp.trace_of_variance() - next_belief.gp.trace_of_variance()
        return self.expected_state_reward(belief, action) + self.information_weight * info

    def sample_observation(self, belief: BeliefState, action: Action, rng) -> Observation:
        """Draw what the action would observe from the *current* belief.

        Planning never touches ground truth: y ~ Normal(posterior mean,
        posterior variance + measurement noise variance), independently per
        measured site, drawn in site order.
        """
        sites = self.measurement_sites(belief, action)
        if not sites:
            return ()
        mean_q, var_q = belief.gp.query_mean, belief.gp.query_variance
        return tuple(
            Measurement(node, rng.normal(mean_q[node], math.sqrt(max(var_q[node], 0.0) + nu)), nu)
            for node, nu in sites)

    def generative_sample(self, belief: BeliefState, action: Action, rng):
        """Sample (next belief, reward) for the tree search and its rollouts:
        the observation ``sample_observation`` draws, the step ``transition``
        takes and the reward ``belief_reward`` gives."""
        step = self._affordable_step(belief, action)
        observation = self.sample_observation(belief, action, rng)
        after = self._successor(belief, action, step, observation)
        return after, self.belief_reward(belief, action, after)

    def compiled_search(self, belief: BeliefState, config, rng) -> "CompiledSearch | None":
        """``mcts.search``'s hook: a search from ``belief`` in the compiled
        kernel, or None when the Python kernel runs. The search reads the
        location tables and the step kinds, so a subclass that changes a
        step some other way than through them must set this hook to None."""
        return None if kernel.lib() is None else CompiledSearch(self, belief, config, rng)

    def _kernel_tables(self):
        """The flat copy of every location's table for the compiled kernel,
        the actions by id, and the most sites one step measures; built on the
        first compiled search."""
        if self._flat_tables is None:
            tables = _kernel_tables(self)
            actions = tuple(action for table in self._tables for action in table.costs)
            self._flat_tables = (tables, actions,
                                 int(np.diff(tables._arrays["site_start"]).max(initial=1)))
        return self._flat_tables


def _action_tables(graph: LocationGraph, senses, sensing_nodes) -> tuple[LocationTable, ...]:
    """The table of every location, indexed by node id: ``senses``
    (``(Sense, cost)`` pairs) at ``sensing_nodes``, or everywhere when None.
    Each is a shared table: the sensing one at ``sensing_nodes``, the
    move-only one elsewhere."""
    if sensing_nodes is None:
        return _shared_tables(graph, senses)
    nodes = frozenset(sensing_nodes)
    sensing, moving = _shared_tables(graph, senses), _shared_tables(graph, ())
    return tuple(sensing[v] if v in nodes else moving[v] for v in range(graph.n_nodes))


@functools.lru_cache(maxsize=GRID_CACHE_SIZE)
def _shared_tables(graph: LocationGraph, senses) -> tuple[LocationTable, ...]:
    """``_action_tables`` with ``senses`` at every location, one per (graph, senses)."""
    gc = graph.goal_costs.tolist()
    tables = []
    for v in range(graph.n_nodes):
        costs = {Move(w): (cost, w, gc[w]) for w, cost in graph.neighbors(v)}
        costs.update((sense, (cost, v, gc[v])) for sense, cost in senses)
        cheapest = min((cost for cost, _, _ in costs.values()), default=math.inf)
        tables.append(LocationTable(cheapest, MappingProxyType(costs)))
    return tuple(tables)


class _TreeNode(BeliefNode):
    """A belief node of a compiled search's tree, node ``_index`` of
    ``_search``, filled on first read: its visits, children and untried
    actions together, its belief on its own."""

    __slots__ = ("_search", "_index")

    def __getattr__(self, name):  # a slot not filled yet
        if name == "belief":
            self.belief = self._search.belief(self._index)
        elif name in ("visits", "children", "untried"):
            self._search.fill(self)
        return object.__getattribute__(self, name)


class _TreeAction(ActionNode):
    """An action node of a compiled search's tree, node ``_index`` of
    ``_search``; its successors are filled on first read."""

    __slots__ = ("_search", "_index")

    def __getattr__(self, name):  # a slot not filled yet
        if name == "children":
            self._search.successors(self)
        return object.__getattribute__(self, name)


class CompiledSearch:
    """An MCTS-DPW search from ``belief`` whose tree lives in the compiled
    kernel, for ``mcts.search``.

    ``run`` runs a plan's simulations there, drawing from ``rng``'s bit
    generator exactly as ``mcts.simulate`` would; it returns False when a
    pivot collapses, and the search is then void. ``tree`` returns the root
    of the tree as ``BeliefNode``/``ActionNode`` objects with the MDP's
    actions, each node built from the search when first reached. The root
    holds ``belief``; every other node builds its belief on first read, the
    one ``generative_sample`` would have made: same conditioning set, rows,
    query mean, variance and trace.
    """

    __slots__ = ("_lib", "_tables", "_actions", "_belief", "_bits", "_search", "_gps")

    def __init__(self, mdp: BeliefMdp, belief: BeliefState, config, rng):
        self._lib = lib = kernel.lib()
        tables, self._actions, max_sites = mdp._kernel_tables()
        gp = belief.gp
        # the tables and the bit generator, which the search's C pointers reach
        self._tables, self._belief, self._bits = tables, belief, rng.bit_generator
        self._gps = {0: gp}  # GP record -> its belief
        self._search = lib.search(
            ctypes.addressof(tables), rng.bit_generator.ctypes.bit_generator.value,
            (belief.location, belief.remaining_budget, belief.step, belief.memory),
            (gp._w, gp._mean_q, gp._var_q, gp._trace, *gp._model()),
            (config.max_depth, config.exploration, config.k_action, config.alpha_action,
             config.k_state, config.alpha_state, config.discount), max_sites)

    def run(self, iterations: int) -> bool:
        """``iterations`` simulations of ``config.max_depth`` from the root:
        True when all ran, False when a pivot collapsed. Signals are handled
        after every simulation; a run that stops early voids the search,
        whose next run raises."""
        return self._lib.run(self._search, iterations)

    def tree(self) -> BeliefNode:
        """The root of the tree."""
        root = self._node(0)
        root.belief = self._belief
        return root

    def _node(self, i: int) -> _TreeNode:
        node = _TreeNode.__new__(_TreeNode)
        node._search, node._index = self, i
        return node

    def fill(self, node: _TreeNode):
        """Set ``node``'s visits, untried actions and children."""
        actions = self._actions
        node.visits, untried, children = self._lib.node(self._search, node._index)[:3]
        node.untried = None if untried is None else [actions[a] for a in untried]
        node.children = []
        for x, action, visits, q in children:
            an = _TreeAction.__new__(_TreeAction)
            an._search, an._index = self, x
            an.action, an.visits, an.q = actions[action], visits, q
            node.children.append(an)

    def successors(self, an: _TreeAction):
        """Set ``an``'s children, (belief node, reward) pairs."""
        an.children = [(self._node(i), reward)
                       for i, reward in self._lib.action(self._search, an._index)]

    def belief(self, i: int) -> BeliefState:
        """Belief node ``i``'s state."""
        location, budget, memory, step, record = self._lib.node(self._search, i)[3:]
        return BeliefState(location, budget, self._gp(record), memory, step)

    def _gp(self, record: int) -> GaussianProcessBelief:
        """GP record ``record``'s belief, built once: its parent record's
        belief extended by the record's sites, rows, query mean, variance
        and trace."""
        gp = self._gps.get(record)
        if gp is None:
            parent, trace, sites = self._lib.record(self._search, record)
            base = self._gp(parent)
            store, m, q = base._room(len(sites)), base._m, len(base.query_set)
            mean, var = np.empty(q), np.empty(q)
            self._lib.arrays(self._search, record, store.w[m:m + len(sites)], mean, var)
            gp = self._gps[record] = base._extended(store, sites, mean, var, trace)
        return gp


_KINDS = {Static: kernel.STATIC, Drill: kernel.DRILL, Visit: kernel.VISIT}


def _kernel_tables(mdp: BeliefMdp) -> kernel.StepTables:
    """``mdp``'s location tables as the flat arrays of ``tables_t`` in
    ``_kernel.c``: action ids in the order of every location's costs, each
    with its ``step_kind``'s id, sites and parameters."""
    cheapest, cost, back, target, kind, params, site_node, site_nu = [], [], [], [], [], [], [], []
    act_start, param_start, site_start = [0], [0], [0]  # each ends at its array's length
    for v, table in enumerate(mdp._tables):
        cheapest.append(table.cheapest)
        for action, (c, to, b) in table.costs.items():
            cost.append(c)
            target.append(to)
            back.append(b)
            step = mdp.step_kind(v, action)
            kind.append(_KINDS[type(step)])
            if type(step) is Static:
                sites = step.sites
            else:
                params.append(step.reward)
                if type(step) is Drill:
                    params.append(step.delta)
                    params.extend(step.types)
                sites = ((step.node, step.nu),)
            param_start.append(len(params))
            for node, nu in sites:
                site_node.append(node)
                site_nu.append(nu)
            site_start.append(len(site_node))
        act_start.append(len(cost))
    ints = {"act_start": act_start, "target": target, "kind": kind, "param_start": param_start,
            "site_start": site_start, "site_node": site_node}
    floats = {"cheapest": cheapest, "cost": cost, "back": back, "params": params,
              "site_nu": site_nu}
    arrays = {**{name: np.array(v, dtype=np.int64) for name, v in ints.items()},
              **{name: np.array(v, dtype=float) for name, v in floats.items()}}
    tables = kernel.StepTables(
        goal=mdp.graph.goal, weight=mdp.information_weight,
        failure=MISSION_FAILURE_REWARD, **{name: a.ctypes.data for name, a in arrays.items()})
    tables._arrays = arrays  # the struct points into them
    return tables
