"""The compiled step kernel against the Python kernel, and its fallbacks.

Planning must give the same bits whichever kernel runs: whole search trees,
rollout returns and generator states are compared under both. When the
kernel cannot be built, loaded or verified, the Python kernel runs and every
pinned output stays as it is.
"""

import ctypes
import functools
import gc
import importlib
import inspect
import math
import os
import pkgutil
import re
import shutil
import signal
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from test_outputs import RUNS, _digests

import infopath
from infopath import gp as gp_module
from infopath import kernel, mcts
from infopath.cli import main
from infopath.gp import SquaredExponential, _rank1_update
from infopath.isrs import IsrsMdp, generate_isrs
from infopath.mcts import SolverConfig, iter_belief_nodes, rollout, search
from infopath.mdp import (
    MISSION_FAILURE_REWARD,
    BeliefMdp,
    CompiledSearch,
    LocationTable,
    Move,
    Sense,
    Static,
    Visit,
    action_label,
)
from infopath.rover import RoverMdp, generate_rover


@pytest.fixture
def compiled():
    """The compiled kernel; a machine without the compiler skips."""
    if shutil.which(kernel.COMPILER) is None:
        pytest.skip(f"no {kernel.COMPILER}")
    assert kernel.lib() is not None, kernel.KERNEL
    return kernel.lib()


# Every bit generator numpy ships: the compiled search draws through any one's
# C interface as numpy's Generator does.
BIT_GENERATORS = (np.random.PCG64, np.random.PCG64DXSM, np.random.Philox, np.random.SFC64,
                  np.random.MT19937)

# A pivot floor, relative to the signal variance, at which some updates of a
# small search collapse: rover cells measured twice, ISRS rocks read at a
# beacon and then visited.
COLLAPSE_REL = {"isrs": 0.5, "rover": 0.05}


def affordable_table(table):
    """``table`` with every affordable action feasible, whatever its target:
    each needs only ``budget - cost >= 0``."""
    return table._replace(costs={a: (cost, target, 0.0)
                                 for a, (cost, target, _) in table.costs.items()})


def unpruned(cls):
    class Unpruned(cls):
        """Steps take every affordable action: feasibility pruning keeps
        them from ever meeting the failure sentinel."""

        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self._tables = tuple(affordable_table(table) for table in self._tables)

    return Unpruned


def build_mdp(env, seed, budget, pruned=True):
    if env == "isrs":
        cls, inst = IsrsMdp, generate_isrs(6, 6, 4, 0.5, seed=seed, budget=budget)
    else:
        cls, inst = RoverMdp, generate_rover(5, 6, 0.1, seed=seed, budget=budget)
    return (cls if pruned else unpruned(cls))(inst)


def gp_bits(gp):
    """A GP's conditioning size, caches, rows and conditioning set, as exact
    bits."""
    return (gp._m, gp.trace_of_variance().hex(), gp._jitter.hex(), gp.query_mean.tobytes(),
            gp.query_variance.tobytes(), gp._w.tobytes(), gp._x.tobytes(), gp._y.tobytes(),
            gp._nu.tobytes())


def tree_table(root):
    """Every belief node's visits and state, its GP's bits, and its actions'
    (visits, q) and sampled rewards with whether each successor holds the
    node's GP itself, as exact bits."""
    table = []
    for node in iter_belief_nodes(root):
        belief, gp = node.belief, node.belief.gp
        table.append((
            node.visits, belief.location, belief.remaining_budget.hex(), belief.memory,
            list(belief.memory), belief.step, gp_bits(gp),
            [(action_label(an.action), an.visits, an.q.hex(),
              [(r.hex(), child.belief.gp is gp) for child, r in an.children])
             for an in node.children],
            None if node.untried is None else [action_label(a) for a in node.untried]))
    return table


def posterior_bits(root, count=3):
    """The posterior mean and covariance of the first non-root nodes that
    measured something, as bytes."""
    out = []
    for node in iter_belief_nodes(root):
        if node is not root and node.belief.gp._m and len(out) < count:
            post = node.belief.gp.posterior()
            out.append((post.mean.tobytes(), post.covariance.tobytes()))
    return out


def plain_state(state):
    """A bit generator's state with its arrays as lists, so that states
    compare with ``==`` (Philox's and MT19937's hold arrays)."""
    if isinstance(state, dict):
        return {key: plain_state(value) for key, value in state.items()}
    return state.tolist() if isinstance(state, np.ndarray) else state


def plan_under(which, env, seed, budget, discount, monkeypatch, pruned=True, deep=False,
               bit_generator=np.random.PCG64):
    """Search, then roll out from the first tree nodes, under one kernel,
    drawing from a ``bit_generator`` seeded ``seed``. Returns the results
    and what the steps did: Python step kinds (every Python step is a
    ``generative_sample``), the compiled search's runs that finished and
    reruns (a run that met a collapsed pivot), ``generative_sample`` calls
    during the search, batch rebuilds, and Python simulations that reached a
    terminal tree node with depth left. ``deep``: more simulations and
    fewer successors, so the tree grows measured chains several steps
    deep."""
    seen = {"rebuilds": 0, "compiled": 0, "reruns": 0, "samples": 0}
    with monkeypatch.context() as m:
        if which == "python":
            m.setattr(kernel, "_state", (None, "forced by a test"))
        rebuild, run = gp_module._batch_rebuild, CompiledSearch.run
        generative_sample, simulate = BeliefMdp.generative_sample, mcts.simulate

        def counting_rebuild(belief, sites):
            seen["rebuilds"] += 1
            return rebuild(belief, sites)

        def counting_run(self, iterations):
            finished = run(self, iterations)
            seen["compiled" if finished else "reruns"] += 1
            return finished

        def recording_sample(self, belief, action, rng):
            seen["samples"] += 1
            step = self.step_kind(belief.location, action)
            kind = ("drill" if action == Sense("drill") else "beacon"
                    if isinstance(action, Sense) else "rock" if type(step) is Visit
                    else "move")
            seen[kind] = seen.get(kind, 0) + 1
            if belief.gp._m == 0 and type(step) is Static and step.sites:
                seen["empty_prior"] = seen.get("empty_prior", 0) + 1
            after, reward = generative_sample(self, belief, action, rng)
            if reward == MISSION_FAILURE_REWARD:
                seen["failure"] = seen.get("failure", 0) + 1
            return after, reward

        def recording_simulate(node, depth, mdp, config, rng):
            if depth and mdp.is_terminal(node.belief):
                seen["terminal"] = seen.get("terminal", 0) + 1
            return simulate(node, depth, mdp, config, rng)

        m.setattr(gp_module, "_batch_rebuild", counting_rebuild)
        m.setattr(mcts, "simulate", recording_simulate)
        m.setattr(CompiledSearch, "run", counting_run)
        m.setattr(BeliefMdp, "generative_sample", recording_sample)
        mdp = build_mdp(env, seed, budget, pruned)
        cfg = SolverConfig(iterations=200 if deep else 40, max_depth=12, discount=discount,
                           k_state=0.5 if deep else 2.0)
        rng = np.random.Generator(bit_generator(seed))
        root = search(mdp.initial_belief(), mdp, cfg, rng)
        seen["search_samples"] = seen["samples"]
        nodes = [node for node in iter_belief_nodes(root)
                 if not mdp.is_terminal(node.belief)][:6]
        returns = [rollout(node.belief, 12, mdp, cfg, rng).hex() for node in nodes]
        posterior = posterior_bits(root)
    return (tree_table(root), returns, posterior, plain_state(rng.bit_generator.state)), seen


def ran_compiled(seen, ref_seen):
    """The compiled search ran every simulation in one call, with no Python
    step unless a collapsed pivot made the plan rerun in Python; the Python
    kernel's search never ran it."""
    assert seen["compiled"] + seen["reruns"] == 1
    assert (seen["search_samples"] > 0) == (seen["reruns"] > 0)
    assert ref_seen["compiled"] == ref_seen["reruns"] == 0


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(env=st.sampled_from(["isrs", "rover"]), seed=st.integers(0, 2**32 - 1),
       budget=st.sampled_from([8.0, 15.0, 30.0]), discount=st.sampled_from([1.0, 0.9]),
       collapse=st.booleans(), pruned=st.booleans(), deep=st.booleans(),
       bit_generator=st.sampled_from(BIT_GENERATORS))
@example(env="rover", seed=4, budget=30.0, discount=1.0, collapse=True, pruned=True, deep=False,
         bit_generator=np.random.Philox)
@example(env="isrs", seed=4, budget=30.0, discount=1.0, collapse=True, pruned=True, deep=False,
         bit_generator=np.random.MT19937)
@example(env="rover", seed=3, budget=15.0, discount=0.9, collapse=False, pruned=False, deep=True,
         bit_generator=np.random.SFC64)
@example(env="isrs", seed=3, budget=15.0, discount=0.9, collapse=False, pruned=True, deep=True,
         bit_generator=np.random.PCG64DXSM)
def test_compiled_search_equals_python_search(env, seed, budget, discount, collapse, pruned,
                                              deep, bit_generator, compiled, monkeypatch):
    with monkeypatch.context() as m:
        if collapse:
            m.setattr(gp_module, "PIVOT_MIN_REL", COLLAPSE_REL[env])
        ours, seen = plan_under("compiled", env, seed % 1000, budget, discount, monkeypatch,
                                pruned, deep, bit_generator)
        reference, ref_seen = plan_under("python", env, seed % 1000, budget, discount,
                                         monkeypatch, pruned, deep, bit_generator)
    assert ours == reference
    assert seen["rebuilds"] == ref_seen["rebuilds"]
    ran_compiled(seen, ref_seen)


@pytest.mark.parametrize("env", ["isrs", "rover"])
def test_both_kernels_meet_every_kind_of_step(env, compiled, monkeypatch):
    """Fixed searches in which rollouts read beacons, visit rocks, drill,
    measure from the empty prior, collapse pivots and, unpruned, strand the
    agent and come back to a terminal tree node, with equal results."""
    kinds = {"isrs": ("beacon", "rock", "move", "empty_prior", "failure", "terminal"),
             "rover": ("drill", "move", "failure", "terminal")}[env]
    met = {}
    for seed, collapse, budget, pruned, deep in ((3, False, 30.0, True, False),
                                                 (4, True, 30.0, True, False),
                                                 (5, False, 10.0, False, False),
                                                 (5, False, 4.0, False, True)):
        with monkeypatch.context() as m:
            if collapse:
                m.setattr(gp_module, "PIVOT_MIN_REL", COLLAPSE_REL[env])
            ours, seen = plan_under("compiled", env, seed, budget, 1.0, monkeypatch, pruned,
                                    deep)
            reference, ref_seen = plan_under("python", env, seed, budget, 1.0, monkeypatch,
                                             pruned, deep)
        assert ours == reference
        assert seen["rebuilds"] == ref_seen["rebuilds"]
        assert (ref_seen["rebuilds"] > 0) == collapse
        ran_compiled(seen, ref_seen)
        assert (seen["reruns"] > 0) == collapse  # the collapse fallback ran
        for kind in kinds:
            met[kind] = met.get(kind, 0) + ref_seen.get(kind, 0)
    assert all(met[kind] for kind in kinds), met


@pytest.mark.parametrize("which", ["compiled", "python"])
def test_an_mdp_must_name_its_step_kinds(which, monkeypatch, request):
    """The compiled kernel needs ``step_kind``, and reads it once per
    (location, action) as its first search builds the tables and never
    while a plan runs; the Python kernel steps through the hooks alone."""
    request.getfixturevalue(which if which == "compiled" else "python_kernel")

    class KindlessRover(RoverMdp):
        step_kind = BeliefMdp.step_kind

    inst = generate_rover(5, 6, 0.1, seed=3, budget=30.0)
    mdp, kindless = RoverMdp(inst), KindlessRover(inst)
    cfg = SolverConfig(iterations=40, max_depth=12)
    if which == "python":
        planned = []
        for each in (mdp, kindless):
            rng = np.random.default_rng(3)
            planned.append((tree_table(search(each.initial_belief(), each, cfg, rng)),
                            rng.bit_generator.state))
        assert planned[0] == planned[1]
        return
    with pytest.raises(NotImplementedError, match="step_kind"):
        search(kindless.initial_belief(), kindless, cfg, np.random.default_rng(3))
    read, runs = [], []
    step_kind, run = RoverMdp.step_kind, CompiledSearch.run

    def counting_step_kind(self, location, action):
        read.append((location, action))
        return step_kind(self, location, action)

    def counting_run(self, iterations):
        before = len(read)
        finished = run(self, iterations)
        runs.append((before, len(read)))
        return finished

    monkeypatch.setattr(RoverMdp, "step_kind", counting_step_kind)
    monkeypatch.setattr(CompiledSearch, "run", counting_run)
    for seed in range(2):
        search(mdp.initial_belief(), mdp, cfg, np.random.default_rng(seed))
    pairs = sum(len(table.costs) for table in mdp._tables)
    assert len(read) == len(set(read)) == pairs
    assert runs == [(pairs, pairs)] * 2


@pytest.mark.parametrize("which", ["compiled", "python"])
def test_a_search_frees_its_memory_with_its_tree(which, request):
    """A compiled tree's nodes and GP records live in memory the compiled
    search owns, and a Python tree's beliefs hold their stores; both are
    traced by tracemalloc, and it all goes when the tree does, lazily built
    beliefs included: searches one after another hold no more than the
    first. (Free lists keep a few small objects of the first, and numpy's
    generators leave cycles for the collector.)"""
    request.getfixturevalue(which if which == "compiled" else "python_kernel")
    mdp = RoverMdp(generate_rover(5, 6, 0.1, seed=3, budget=30.0))
    cfg = SolverConfig(iterations=100, max_depth=12)
    search(mdp.initial_belief(), mdp, cfg, np.random.default_rng(0))  # builds the tables
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        held, left = [], []
        for seed in range(4):
            root = search(mdp.initial_belief(), mdp, cfg, np.random.default_rng(seed))
            beliefs = [node.belief for node in iter_belief_nodes(root)]
            held.append(tracemalloc.get_traced_memory()[0] - before)
            del root, beliefs
            gc.collect()
            left.append(tracemalloc.get_traced_memory()[0] - before)
    finally:
        tracemalloc.stop()
    assert min(held) > 100_000 and max(left) - left[0] < 1_000, (held, left)


# A compiled search whose MDP is gone: the tables it reads must live as long
# as it does, whatever reuses the MDP's memory meanwhile. Run in a subprocess,
# as a search reading freed memory may crash the interpreter.
ORPHANED_SEARCH = """
import gc
import numpy as np
from infopath.mcts import SolverConfig
from infopath.rover import RoverMdp, generate_rover

def plan(keep):
    mdp = RoverMdp(generate_rover(6, 6, 0.1, seed=3))
    belief = mdp.initial_belief()
    search = mdp.compiled_search(belief, SolverConfig(), np.random.default_rng(3))
    if not keep:
        del mdp
        gc.collect()
        filler = [np.full(8, -1.0) for _ in range(20_000)]
    assert search.run(300)
    nodes, stack = [], [search.tree()]
    while stack:
        node = stack.pop()
        nodes.append((node.visits, node.belief.location, node.belief.remaining_budget,
                      node.untried, [(an.action, an.visits, an.q) for an in node.children]))
        stack.extend(child for an in node.children for child, _ in an.children)
    return nodes

assert plan(keep=False) == plan(keep=True)
"""


def test_a_compiled_search_outlives_its_mdp(compiled):
    """A compiled search holds the flat tables it reads: it runs after its
    MDP is collected and its memory reused, and its tree equals the one a
    search with a live MDP builds."""
    src = str(Path(infopath.__file__).parents[1])
    done = subprocess.run([sys.executable, "-c", ORPHANED_SEARCH], capture_output=True,
                          text=True, timeout=300, env={**os.environ, "PYTHONPATH": src})
    assert done.returncode == 0, (done.returncode, done.stderr[-2000:])


@pytest.mark.parametrize("which", ["compiled", "python"])
def test_a_compiled_plan_is_one_call(which, monkeypatch, request):
    """A compiled plan runs every simulation in one ``CompiledSearch.run``
    and enters ``mcts.simulate`` never; the Python kernel's plan enters it
    at least once per simulation."""
    request.getfixturevalue(which if which == "compiled" else "python_kernel")
    calls = {"simulate": 0, "run": 0}
    simulate, run = mcts.simulate, CompiledSearch.run

    def counting_simulate(*args):
        calls["simulate"] += 1
        return simulate(*args)

    def counting_run(self, iterations):
        calls["run"] += 1
        return run(self, iterations)

    monkeypatch.setattr(mcts, "simulate", counting_simulate)
    monkeypatch.setattr(CompiledSearch, "run", counting_run)
    mdp = build_mdp("isrs", 3, 30.0)
    cfg = SolverConfig(iterations=50, max_depth=12)
    root = search(mdp.initial_belief(), mdp, cfg, np.random.default_rng(3))
    assert root.visits == cfg.iterations
    if which == "compiled":
        assert calls == {"simulate": 0, "run": 1}
    else:
        assert calls["simulate"] >= cfg.iterations and calls["run"] == 0


class Interrupted(Exception):
    """What the test's alarm handler raises."""


def test_a_long_compiled_plan_stops_on_a_signal(compiled):
    """A signal handler's exception ends a compiled plan of a million
    simulations at the next simulation, not at the end of the plan."""
    mdp = build_mdp("isrs", 3, 30.0)
    belief = mdp.initial_belief()
    search(belief, mdp, SolverConfig(iterations=10), np.random.default_rng(0))  # the tables

    def alarm(signum, frame):
        raise Interrupted

    previous = signal.signal(signal.SIGALRM, alarm)
    try:
        start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, 0.05)
        with pytest.raises(Interrupted):
            search(belief, mdp, SolverConfig(iterations=10**6), np.random.default_rng(0))
        elapsed = time.perf_counter() - start
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert elapsed < 2.0


class SlowToFinalize:
    """Cyclic garbage whose finalizer runs Python code for a while."""

    def __init__(self):
        self.me = self

    def __del__(self):
        time.sleep(0.002)


def test_a_signal_is_not_lost_in_a_finalizer_during_a_compiled_plan(compiled):
    """Cyclic garbage with slow finalizers, due for collection once the plan
    has allocated a few hundred ISRS memory sets, does not swallow the
    signal: the collector is off while ``run`` runs, so the handler's
    exception ends the plan, and the collector is on again afterwards."""
    mdp = build_mdp("isrs", 3, 30.0)
    belief = mdp.initial_belief()
    compiled_search = mdp.compiled_search(belief, SolverConfig(iterations=10**6),
                                          np.random.default_rng(0))
    collecting = []

    def alarm(signum, frame):
        collecting.append(gc.isenabled())
        raise Interrupted

    gc.collect()  # the collection due inside the plan is of this test's garbage only
    garbage = [SlowToFinalize() for _ in range(200)]  # 0.4 s of finalizers
    del garbage
    previous = signal.signal(signal.SIGALRM, alarm)
    try:
        start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, 0.05)
        with pytest.raises(Interrupted):
            compiled_search.run(10**6)
        elapsed = time.perf_counter() - start
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
        gc.collect()
    assert elapsed < 2.0
    assert collecting == [False] and gc.isenabled()


def test_a_void_search_cannot_run(compiled, monkeypatch):
    """A run of a negative count raises; a run that meets a collapsed pivot
    returns False and voids the search: a second run raises."""
    monkeypatch.setattr(gp_module, "PIVOT_MIN_REL", COLLAPSE_REL["rover"])
    mdp = build_mdp("rover", 4, 30.0)
    cfg = SolverConfig(iterations=40, max_depth=12)
    compiled_search = mdp.compiled_search(mdp.initial_belief(), cfg, np.random.default_rng(4))
    with pytest.raises(ValueError, match="negative"):
        compiled_search.run(-1)
    assert compiled_search.run(cfg.iterations) is False
    with pytest.raises(RuntimeError, match="void"):
        compiled_search.run(1)


def only_action(mdp, location, action):
    """``mdp`` with ``action`` the one feasible action at ``location``, from
    its cost on: a search of one simulation of depth 1 takes it in a tree
    step, drawing nothing to pick it."""
    tables = list(mdp._tables)
    costs = tables[location].costs
    tables[location] = LocationTable(costs[action][0], {
        a: (cost, target, 0.0 if a == action else math.inf)
        for a, (cost, target, _) in costs.items()})
    mdp._tables = tuple(tables)
    return mdp


def step_bits(reward, before, after, rng):
    """A tree step's reward, the belief it reached from ``before`` (with
    whether its GP is the one before) and the generator state, as exact
    bits; the memory also in its iteration order."""
    gp = after.gp
    return (reward.hex(), after.location, after.remaining_budget.hex(), after.step,
            after.memory, type(after.memory), list(after.memory), gp._m, gp_bits(gp),
            gp is before.gp, rng.bit_generator.state)


def dynamic_case(env, seed, memory=(), measured=(), beacon=False, revisit=False, budget=20.0,
                 beta=6, rock=0):
    """(mdp, belief, action) for one dynamic step. Rover: a drill at a cell
    of a 5 x 5 map of ``beta`` types. ISRS: a move onto rock number ``rock``
    of a 6 x 6 instance from its first neighbour, which ``revisit`` puts in
    the memory. ``memory`` items join in order, as steps add them;
    ``measured`` holds (node, value, noise variance) sites the belief has
    seen, after a beacon read when ``beacon``."""
    if env == "rover":
        mdp = RoverMdp(generate_rover(5, beta, 0.1, seed=seed, budget=budget))
        location, action = seed % 25, Sense("drill")
    else:
        mdp = IsrsMdp(generate_isrs(6, 6, 4, 0.5, seed=seed, budget=budget))
        target = mdp.instance.rock_nodes[rock % len(mdp.instance.rock_nodes)]
        location, action = mdp.graph.neighbors(target)[0][0], Move(target)
        memory = [*memory, target] if revisit else memory
    gp = mdp.initial_belief().gp
    if beacon:
        plans = mdp._beacon_steps[sorted(mdp.instance.beacons)[0]]
        sites = plans[min(plans)].sites
        gp = gp.add_measurements_at([(node, 0.8, nu) for node, nu in sites])
    if measured:
        gp = gp.add_measurements_at([(node % mdp.graph.n_nodes, value, nu)
                                     for node, value, nu in measured])
    memory = functools.reduce(lambda held, item: held | {item}, memory, frozenset())
    belief = mdp.initial_belief()._replace(location=location, gp=gp, memory=memory)
    return only_action(mdp, location, action), belief, action


def one_step_both_ways(mdp, belief, action, seed):
    """The tree step of a search of one simulation of depth 1, and
    ``generative_sample``'s, each from ``belief`` with a generator seeded
    ``seed``, as ``step_bits``."""
    rng = np.random.default_rng(seed)
    root = search(belief, mdp, SolverConfig(iterations=1, max_depth=1), rng)
    ((child, reward),) = root.children[0].children
    ours = step_bits(reward, belief, child.belief, rng)
    rng = np.random.default_rng(seed)
    after, reward = mdp.generative_sample(belief, action, rng)
    reference = step_bits(reward, belief, after, rng)
    return ours, reference


@st.composite
def dynamic_cases(draw):
    env = draw(st.sampled_from(["rover", "isrs"]))
    seed = draw(st.integers(0, 999))
    beta = draw(st.sampled_from([2, 6, 10, 12]))
    items = st.integers(0, beta - 1) if env == "rover" else st.sampled_from(range(36))
    site = st.tuples(st.integers(0, 35), st.floats(-0.5, 1.5),
                     st.sampled_from([1e-8, 1e-4, 0.01, 0.3]))
    return dict(env=env, seed=seed, beta=beta, rock=draw(st.integers(0, 5)),
                memory=draw(st.lists(items, max_size=6)),
                measured=draw(st.lists(site, max_size=5)), beacon=draw(st.booleans()) and
                env == "isrs", revisit=draw(st.booleans()) and env == "isrs",
                budget=draw(st.sampled_from([3.0, 3.5, 20.0])))


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=dynamic_cases(), collapse=st.booleans(), draws=st.integers(0, 2**32 - 1))
@example(case=dict(env="rover", seed=8, beta=10, memory=[8, 0]), collapse=False, draws=1)
@example(case=dict(env="rover", seed=8, beta=12, memory=[0, 8, 9, 1]), collapse=False, draws=2)
@example(case=dict(env="rover", seed=3, beta=10, memory=[]), collapse=False, draws=3)
@example(case=dict(env="rover", seed=7, memory=[3], measured=[(7, 0.2, 1e-8)]), collapse=True,
         draws=4)
@example(case=dict(env="isrs", seed=2, memory=[14], revisit=True), collapse=False, draws=5)
@example(case=dict(env="rover", seed=1, beta=2, measured=[(0, 0.0, 1e-8)] * 2, budget=3.0),
         collapse=True, draws=7)
@example(case=dict(env="isrs", seed=2, beacon=True), collapse=False, draws=6)
def test_a_compiled_dynamic_step_equals_advance(case, collapse, draws, compiled, monkeypatch):
    """A compiled drill or rock visit equals the Python step,
    ``generative_sample``, bit for bit."""
    with monkeypatch.context() as m:
        if collapse:
            m.setattr(gp_module, "PIVOT_MIN_REL", COLLAPSE_REL[case["env"]])
        ours, reference = one_step_both_ways(*dynamic_case(**case), draws)
    assert ours == reference


def test_dynamic_steps_meet_their_edge_cases(compiled, monkeypatch):
    """The cases of the property test's examples do what they are there for."""
    # beta 10: type indices 8 and 0 collide, so their order depends on insertion
    mdp, belief, action = dynamic_case("rover", 8, beta=10, memory=[8, 0])
    assert list(belief.memory) == [8, 0] and list(frozenset({0}) | {8}) == [0, 8]
    # m = 0: the walk copies the caches on the step's first update
    mdp, belief, action = dynamic_case("rover", 3, beta=10)
    assert belief.gp._m == 0 and not belief.memory
    ours, reference = one_step_both_ways(mdp, belief, action, 3)
    assert ours == reference and ours[7] == 1
    # a drill of a cell drilled before collapses a pivot: the compiled search
    # reruns in Python, whose batch rebuild runs once there and once in the
    # reference
    rebuilds = []
    rebuild = gp_module._batch_rebuild
    monkeypatch.setattr(gp_module, "PIVOT_MIN_REL", COLLAPSE_REL["rover"])
    monkeypatch.setattr(gp_module, "_batch_rebuild",
                        lambda belief, sites: rebuilds.append(1) or rebuild(belief, sites))
    case = dynamic_case("rover", 7, memory=[3], measured=[(7, 0.2, 1e-8)])
    assert case[1].location == 7
    ours, reference = one_step_both_ways(*case, 4)
    assert ours == reference and len(rebuilds) == 2
    monkeypatch.undo()
    # a revisit draws nothing, updates nothing and hands out a new memory
    mdp, belief, action = dynamic_case("isrs", 2, memory=[14], revisit=True)
    assert action.target in belief.memory
    rng = np.random.default_rng(5)
    root = search(belief, mdp, SolverConfig(iterations=1, max_depth=1), rng)
    ((child, reward),) = root.children[0].children
    assert reward == 0.0
    assert rng.bit_generator.state == np.random.default_rng(5).bit_generator.state
    assert child.belief.memory == belief.memory and child.belief.memory is not belief.memory
    assert child.belief.gp is belief.gp  # no site: the child shares its parent's GP
    # a visit after a beacon read conditions on the read's sites
    mdp, belief, action = dynamic_case("isrs", 2, beacon=True)
    assert belief.gp._m > 0 and action.target not in belief.memory


def test_empty_product_is_zeros(compiled):
    """A measurement from the empty prior (m = 0, an ISRS beacon read at the
    start): the BLAS leaves its output unwritten there, numpy gives zeros, so
    the kernel writes the zeros itself."""
    q = 36
    kqq = SquaredExponential().matrix(*[[(i % 6, i // 6) for i in range(q)]] * 2)
    sites = [(5, 0.7, 0.01), (11, 0.2, 0.04), (5, 0.9, 0.01)]
    results = []
    for update in (compiled.rank1_update, _rank1_update):
        w = np.full((len(sites), q), np.nan)  # whatever the buffer held before
        mean, var = np.full(q, 0.5), np.ones(q)
        trace = update(w, mean, var, kqq, 1e-8, 1e-14, 0, sites)
        results.append((trace, w.tobytes(), mean.tobytes(), var.tobytes()))
    assert results[0] == results[1]
    assert results[0][0] is not None  # no pivot collapsed


def misfits(a):
    """Forms of the array ``a`` the kernel must refuse rather than read as
    raw memory: float32, not C-contiguous (in Fortran order when it has
    rows and columns), one column or item too many, and a list."""
    wide = np.zeros((*a.shape[:-1], a.shape[-1] + 1))
    strided = np.asfortranarray(a) if a.ndim == 2 and len(a) > 1 else \
        np.repeat(a, 2, axis=-1)[..., ::2]
    assert strided.tobytes() == a.tobytes() and not strided.flags.c_contiguous
    return a.astype(np.float32), strided, wide, a.tolist()


def test_the_kernel_refuses_arrays_of_another_layout(compiled):
    """Each entry point that reads or writes arrays as raw memory raises a
    ValueError for one that is not a C-contiguous float64 array of the
    expected shape, and writes nothing."""
    mdp = build_mdp("rover", 3, 30.0)
    gp = mdp.initial_belief().gp.add_measurements_at([(0, 0.5, 0.01), (7, 0.2, 0.01)])
    q = len(gp.query_set)
    rows = np.zeros((4, q))
    rows[:2] = gp._w
    update = [rows, gp._mean_q.copy(), gp._var_q.copy(), gp._kqq]
    for i in range(4):
        for bad in misfits(update[i]):
            args = [*update[:i], bad, *update[i + 1:]]
            kept = [np.array(a, copy=True) for a in args]
            with pytest.raises(ValueError, match="C-contiguous float64"):
                compiled.rank1_update(*args, *gp._model()[1:], 2, [(3, 0.1, 0.01)])
            assert all(np.array_equal(a, b) for a, b in zip(args, kept))
    tables, _, max_sites = mdp._kernel_tables()
    state, config = (0, 30.0, 0, frozenset()), (4, 1.0, 2.0, 0.5, 2.0, 0.5, 1.0)
    root = [gp._w, gp._mean_q, gp._var_q, gp._trace, *gp._model()]
    bits = np.random.PCG64(0)
    for i in (0, 1, 2, 4):
        for bad in misfits(root[i]):
            with pytest.raises(ValueError, match="C-contiguous float64"):
                compiled.search(ctypes.addressof(tables), bits.ctypes.bit_generator.value, state,
                                (*root[:i], bad, *root[i + 1:]), config, max_sites)
    planned = CompiledSearch(mdp, mdp.initial_belief()._replace(gp=gp),
                             SolverConfig(iterations=20, max_depth=4), np.random.default_rng(0))
    assert planned.run(20)
    record = next(r for r in range(1, 100) if compiled.record(planned._search, r)[2])
    k = len(compiled.record(planned._search, record)[2])
    out = [np.zeros((k, q)), np.zeros(q), np.zeros(q)]
    compiled.arrays(planned._search, record, *out)
    for i in range(3):
        for bad in misfits(out[i]):
            with pytest.raises(ValueError, match="C-contiguous float64"):
                compiled.arrays(planned._search, record, *out[:i], bad, *out[i + 1:])


def perturbed_source(tmp_path, old, new):
    """The kernel source with ``old`` replaced by ``new``: it builds and
    loads, and a load-time check must refuse it."""
    source = kernel.SOURCE.read_text()
    perturbed = source.replace(old, new)
    assert perturbed != source
    path = tmp_path / "_kernel.c"
    path.write_text(perturbed)
    return path


# the trace summed from var[0]
SPLIT_TRACE = ("return 0. + pairwise(g->var, g->q);",
               "return g->var[0] + pairwise(g->var + 1, g->q - 1);")
# a libm whose erf is one ulp off
OTHER_ERF = ('#include "numpy/random/distributions.h"\n',
             '#include "numpy/random/distributions.h"\n'
             "static double erf_ulp_off(double x) { return nextafter(erf(x), 2.); }\n"
             "#define erf erf_ulp_off\n")
# a libm whose pow is one ulp off, which the widening caps use
OTHER_POW = ('#include "numpy/random/distributions.h"\n',
             '#include "numpy/random/distributions.h"\n'
             "static double pow_ulp_off(double x, double y) { return nextafter(pow(x, y), 2.); }\n"
             "#define pow pow_ulp_off\n")


FALLBACKS = {
    "no compiler": (lambda m, tmp: m.setattr(kernel, "COMPILER", str(tmp / "no-such-gcc")),
                    "FileNotFoundError"),
    "another BLAS": (lambda m, tmp: m.setattr(kernel, "_blas_name", lambda: "openblas"),
                     "numpy's BLAS is openblas"),
    "a check differs": (
        lambda m, tmp: m.setattr(kernel, "SOURCE", perturbed_source(tmp, *SPLIT_TRACE)),
        "rank-1 update differs"),
    "erf differs": (
        lambda m, tmp: m.setattr(kernel, "SOURCE", perturbed_source(tmp, *OTHER_ERF)),
        "erf differs from math.erf"),
    "pow differs": (
        lambda m, tmp: m.setattr(kernel, "SOURCE", perturbed_source(tmp, *OTHER_POW)),
        "pow differs from float ** float"),
}


@pytest.mark.parametrize("cause", sorted(FALLBACKS))
def test_python_kernel_runs_when_the_compiled_one_cannot(cause, monkeypatch, tmp_path):
    force, reason = FALLBACKS[cause]
    monkeypatch.setattr(kernel, "_state", None)  # build afresh
    force(monkeypatch, tmp_path)
    assert kernel.lib() is None
    assert kernel.KERNEL.startswith("python: ") and reason in kernel.KERNEL, kernel.KERNEL
    for name, (argv, expected) in sorted(RUNS.items()):
        out = tmp_path / name
        assert main([*argv, "--out", str(out)]) == 0
        assert _digests(out) == expected, name


# the ctypes field type of each C type in a struct of the kernel
C_TYPES = {"int64_t": ctypes.c_int64, "double": ctypes.c_double}


def test_step_tables_mirror_tables_t():
    """``kernel.StepTables`` lays out ``tables_t`` of ``_kernel.c``: the same
    fields in the same order, pointers as pointers, int64_t as c_int64 and
    double as c_double. ctypes takes the layout from the Python list alone,
    so a mismatch would hand the kernel misplaced memory."""
    body = re.search(r"typedef struct \{([^}]*)\} tables_t;", kernel.SOURCE.read_text()).group(1)
    fields = []
    for declaration in body.split(";")[:-1]:
        kind, names = re.fullmatch(r"\s*(?:const\s+)?(\w+)\s+(.*)", declaration, re.S).groups()
        for name in (name.strip() for name in names.split(",")):
            pointer = name.startswith("*")
            fields.append((name.lstrip("*"), ctypes.c_void_p if pointer else C_TYPES[kind]))
    assert ("cheapest", ctypes.c_void_p) in fields and ("goal", ctypes.c_int64) in fields
    assert fields == list(kernel.StepTables._fields_)


def test_kernel_source_compiles_without_warnings():
    """``_kernel.c`` stays clean under -Wall -Wextra, as errors, with the
    include paths the build uses."""
    if shutil.which(kernel.COMPILER) is None:
        pytest.skip(f"no {kernel.COMPILER}")
    done = subprocess.run(
        [kernel.COMPILER, "-Wall", "-Wextra", "-Werror", "-fsyntax-only", *kernel._includes(),
         str(kernel.SOURCE)], capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


# Dotted names the kernel's comments and the docs cite that are not the
# package's: numpy's and the standard library's, file names, and fields of the
# C struct gp_t.
FOREIGN_NAMES = {"Generator.integers", "ctypes.PyDLL", "math.erf", "math.log", "np.add.reduce",
                 "kernel.py", "_kernel.c", "episodes.csv", "episodes.json", "g.mean", "g.var",
                 "g.w"}
MODULES = {name: importlib.import_module(f"infopath.{name}")
           for _, name, _ in pkgutil.iter_modules(infopath.__path__)}
CLASSES = [obj for module in MODULES.values() for obj in vars(module).values()
           if inspect.isclass(obj) and obj.__module__ == module.__name__]


def resolves(dotted):
    """Whether ``dotted`` names something in the package: a module
    (``infopath.mdp``, ``mdp``) or an attribute path from a module, from a
    name one defines or from a class one defines (``mcts.rollout``,
    ``RoverMdp.probability_unseen``, ``_w``)."""
    head, *rest = dotted.removeprefix("infopath.").split(".")
    owners = [MODULES[head]] if head in MODULES else \
        [getattr(owner, head) for owner in [*MODULES.values(), *CLASSES] if hasattr(owner, head)]
    missing = object()
    return any(functools.reduce(lambda obj, attr: getattr(obj, attr, missing), rest, owner)
               is not missing for owner in owners)


def docstrings():
    """The docstring of every module of the package, and of every class and
    function it defines, methods and properties included."""
    for module in MODULES.values():
        yield module.__doc__
        for obj in vars(module).values():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            yield obj.__doc__
            for member in vars(obj).values() if inspect.isclass(obj) else ():
                function = getattr(member, "__func__", getattr(member, "fget", member))
                if inspect.isfunction(function):
                    yield function.__doc__


def test_kernel_comments_cite_names_that_exist():
    """Every dotted Python name cited in ``_kernel.c``'s comments and
    ``kernel.py``'s docstring resolves in the package, and so does every
    backticked name in README.md and the package's docstrings that is
    private or dotted from a name the package defines, so that a rename
    cannot leave the code described as it no longer is."""
    source = kernel.SOURCE.read_text()
    texts = re.findall(r"/\*.*?\*/|//[^\n]*", source, re.S) + [kernel.__doc__]
    cited = {name for text in texts
             for name in re.findall(r"(?<![\w.>-])[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+", text)}
    assert {"mcts.rollout", "RoverMdp.probability_unseen", "rover._phi"} <= cited
    assert not resolves("mcts.no_such_name") and not resolves("NoSuchClass.rollout")
    assert not resolves("_no_such_name") and resolves("kernel._state")
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    quoted = {name for text in [readme, *filter(None, docstrings())]
              for name in re.findall(r"`+([^`\n]+?)`+", text)}
    documented = {name for name in quoted if re.fullmatch(r"_\w+(?:\.\w+)*", name) or
                  re.fullmatch(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+", name) and
                  resolves(name.removeprefix("infopath.").split(".")[0])}
    assert {"gp._rank1_update", "_batch_rebuild", "BeliefMdp.generative_sample"} <= documented
    cited |= documented
    assert sorted(name for name in cited - FOREIGN_NAMES if not resolves(name)) == []


def test_kernel_attribute_is_read_only():
    with pytest.raises(AttributeError):
        kernel.KERNEL = "compiled"
