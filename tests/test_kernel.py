"""The compiled step kernel against the Python kernel, and its fallbacks.

Planning must give the same bits whichever kernel runs: whole search trees,
rollout returns and generator states are compared under both. When the
kernel cannot be built, loaded or verified, the Python kernel runs and every
pinned output stays as it is.
"""

import functools
import shutil

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from test_outputs import RUNS, _digests

from infopath import gp as gp_module
from infopath import kernel
from infopath.cli import main
from infopath.gp import BeliefWorkspace, SquaredExponential, _rank1_update
from infopath.isrs import IsrsMdp, generate_isrs
from infopath.mcts import SolverConfig, iter_belief_nodes, rollout, search
from infopath.mdp import (
    MISSION_FAILURE_REWARD,
    BeliefMdp,
    CompiledRollout,
    LocationTable,
    Move,
    RolloutState,
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


# A pivot floor, relative to the signal variance, at which some updates of a
# small search collapse: rover cells measured twice, ISRS rocks read at a
# beacon and then visited.
COLLAPSE_REL = {"isrs": 0.5, "rover": 0.05}


def affordable_table(table):
    """``table`` with every affordable action feasible, whatever its target."""
    thresholds = tuple(sorted({cost for cost, _ in table.costs.values()}))
    feasible = [()] + [tuple(a for a, (cost, _) in table.costs.items() if cost <= t)
                       for t in thresholds]
    return LocationTable(thresholds, tuple(feasible), table.costs)


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


def tree_table(root):
    """Every belief node's visits and state, and its actions' (visits, q) and
    sampled rewards, as exact bits."""
    return [(node.visits, node.belief.location, node.belief.remaining_budget.hex(),
             node.belief.gp.trace_of_variance().hex(),
             [(action_label(an.action), an.visits, an.q.hex(), [r.hex() for _, r in an.children])
              for an in node.children])
            for node in iter_belief_nodes(root)]


def plan_under(which, env, seed, budget, discount, monkeypatch, pruned=True):
    """Search, then roll out from the first tree nodes, under one kernel.
    Returns the results and what the steps did: rollout step kinds (under the
    Python kernel, where every rollout step is an ``advance``), compiled
    rollouts, ``advance`` calls from a compiled rollout and batch rebuilds."""
    seen = {"rebuilds": 0, "compiled_rollouts": 0, "callbacks": 0}
    with monkeypatch.context() as m:
        if which == "python":
            m.setattr(kernel, "_state", (None, "forced by a test"))
        rebuild, run, advance = BeliefWorkspace._rebuild, CompiledRollout.run, RolloutState.advance

        def counting_rebuild(self):
            seen["rebuilds"] += 1
            rebuild(self)

        def counting_run(self, *args):
            seen["compiled_rollouts"] += 1
            return run(self, *args)

        def recording_advance(self, action, rng):
            if type(self) is CompiledRollout:
                seen["callbacks"] += 1
            if type(self) is RolloutState:  # a rollout step, not a tree step
                step = self.mdp.step_kind(self.location, action)
                kind = ("drill" if action == Sense("drill") else "beacon"
                        if isinstance(action, Sense) else "rock" if type(step) is Visit
                        else "move")
                seen[kind] = seen.get(kind, 0) + 1
                if self.gp._m == 0 and type(step) is Static and step.sites:
                    seen["empty_prior"] = seen.get("empty_prior", 0) + 1
            reward = advance(self, action, rng)
            if reward == MISSION_FAILURE_REWARD:
                seen["failure"] = seen.get("failure", 0) + 1
            return reward

        m.setattr(BeliefWorkspace, "_rebuild", counting_rebuild)
        m.setattr(CompiledRollout, "run", counting_run)
        m.setattr(RolloutState, "advance", recording_advance)
        mdp = build_mdp(env, seed, budget, pruned)
        cfg = SolverConfig(iterations=40, max_depth=12, discount=discount)
        rng = np.random.default_rng(seed)
        root = search(mdp.initial_belief(), mdp, cfg, rng)
        nodes = [node for node in iter_belief_nodes(root)
                 if not mdp.is_terminal(node.belief)][:6]
        returns = [rollout(node.belief, 12, mdp, cfg, rng).hex() for node in nodes]
    return (tree_table(root), returns, rng.bit_generator.state), seen


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(env=st.sampled_from(["isrs", "rover"]), seed=st.integers(0, 2**32 - 1),
       budget=st.sampled_from([8.0, 15.0, 30.0]), discount=st.sampled_from([1.0, 0.9]),
       collapse=st.booleans(), pruned=st.booleans())
def test_compiled_search_equals_python_search(env, seed, budget, discount, collapse, pruned,
                                              compiled, monkeypatch):
    with monkeypatch.context() as m:
        if collapse:
            m.setattr(gp_module, "PIVOT_MIN_REL", COLLAPSE_REL[env])
        ours, seen = plan_under("compiled", env, seed % 1000, budget, discount, monkeypatch,
                                pruned)
        reference, ref_seen = plan_under("python", env, seed % 1000, budget, discount,
                                         monkeypatch, pruned)
    assert ours == reference
    assert seen["rebuilds"] == ref_seen["rebuilds"]
    assert seen["compiled_rollouts"] > 0 and ref_seen["compiled_rollouts"] == 0
    assert seen["callbacks"] == 0


@pytest.mark.parametrize("env", ["isrs", "rover"])
def test_both_kernels_meet_every_kind_of_step(env, compiled, monkeypatch):
    """Fixed searches in which rollouts read beacons, visit rocks, drill,
    measure from the empty prior, collapse pivots and, unpruned, strand the
    agent, with equal results."""
    kinds = {"isrs": ("beacon", "rock", "move", "empty_prior", "failure"),
             "rover": ("drill", "move", "failure")}[env]
    met = {}
    for seed, collapse, budget, pruned in ((3, False, 30.0, True), (4, True, 30.0, True),
                                           (5, False, 10.0, False)):
        with monkeypatch.context() as m:
            if collapse:
                m.setattr(gp_module, "PIVOT_MIN_REL", COLLAPSE_REL[env])
            ours, seen = plan_under("compiled", env, seed, budget, 1.0, monkeypatch, pruned)
            reference, ref_seen = plan_under("python", env, seed, budget, 1.0, monkeypatch,
                                             pruned)
        assert ours == reference
        assert seen["rebuilds"] == ref_seen["rebuilds"]
        assert (ref_seen["rebuilds"] > 0) == collapse
        assert seen["compiled_rollouts"] > 0 and seen["callbacks"] == 0
        for kind in kinds:
            met[kind] = met.get(kind, 0) + ref_seen.get(kind, 0)
    assert all(met[kind] for kind in kinds), met


@pytest.mark.parametrize("which", ["compiled", "python"])
def test_an_mdp_must_name_its_step_kinds(which, monkeypatch, request):
    """Without ``step_kind`` an MDP cannot step, under either kernel."""
    if which == "compiled":
        request.getfixturevalue("compiled")
    else:
        monkeypatch.setattr(kernel, "_state", (None, "forced by a test"))

    class KindlessRover(RoverMdp):
        step_kind = BeliefMdp.step_kind

    mdp = KindlessRover(generate_rover(5, 6, 0.1, seed=3, budget=30.0))
    belief = mdp.initial_belief()
    with pytest.raises(NotImplementedError):
        mdp.generative_sample(belief, mdp.feasible_actions(belief)[0], np.random.default_rng(0))
    with pytest.raises(NotImplementedError):
        rollout(belief, 12, mdp, SolverConfig(), np.random.default_rng(0))


def only_action(mdp, location, action):
    """``mdp`` with ``action`` the one feasible action at ``location``, from
    its cost on: a compiled rollout of depth 1 takes it, drawing nothing to
    pick it."""
    tables = list(mdp._tables)
    costs = tables[location].costs
    tables[location] = LocationTable((costs[action][0],), ((), (action,)), costs)
    mdp._tables = tuple(tables)
    return mdp


def step_bits(reward, state, rng):
    """A step's reward, the state it reached and the generator state, as
    exact bits; the memory also in its iteration order."""
    gp = state.gp
    return (reward.hex(), state.location, state.remaining_budget.hex(), state.step,
            state.memory, type(state.memory), list(state.memory), gp._m, gp._trace.hex(),
            gp.query_mean.tobytes(), gp.query_variance.tobytes(),
            None if gp._w is None else gp._w[:gp._m].tobytes(),
            [(int(j), float(v).hex(), float(nu).hex()) for j, v, nu in gp._added],
            rng.bit_generator.state)


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
    """A compiled rollout of depth 1 and ``RolloutState.advance``, each from
    ``belief`` with a generator seeded ``seed``, as ``step_bits``; the
    reference reward is taken as the rollout's return, 0.0 + reward."""
    compiled_state, rng = CompiledRollout(mdp, belief), np.random.default_rng(seed)
    ours = step_bits(compiled_state.run(1, 1.0, rng), compiled_state, rng)
    state, rng = RolloutState(mdp, belief), np.random.default_rng(seed)
    reference = step_bits(0.0 + state.advance(action, rng), state, rng)
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
@example(case=dict(env="isrs", seed=2, beacon=True), collapse=False, draws=6)
def test_a_compiled_dynamic_step_equals_advance(case, collapse, draws, compiled, monkeypatch):
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
    # m = 0: the workspace copies the caches on the step's first update
    mdp, belief, action = dynamic_case("rover", 3, beta=10)
    assert belief.gp._m == 0 and not belief.memory
    assert CompiledRollout(mdp, belief).gp._w is None
    # a drill of a cell drilled before collapses a pivot: a batch rebuild
    rebuilds = []
    rebuild = BeliefWorkspace._rebuild
    monkeypatch.setattr(gp_module, "PIVOT_MIN_REL", COLLAPSE_REL["rover"])
    monkeypatch.setattr(BeliefWorkspace, "_rebuild",
                        lambda self: rebuilds.append(1) or rebuild(self))
    case = dynamic_case("rover", 7, memory=[3], measured=[(7, 0.2, 1e-8)])
    assert case[1].location == 7
    ours, reference = one_step_both_ways(*case, 4)
    assert ours == reference and len(rebuilds) == 2
    monkeypatch.undo()
    # a revisit draws nothing, updates nothing and hands out a new memory
    mdp, belief, action = dynamic_case("isrs", 2, memory=[14], revisit=True)
    assert action.target in belief.memory
    state, rng = CompiledRollout(mdp, belief), np.random.default_rng(5)
    assert state.run(1, 1.0, rng) == 0.0
    assert rng.bit_generator.state == np.random.default_rng(5).bit_generator.state
    assert state.memory == belief.memory and state.memory is not belief.memory
    assert state.gp._m == belief.gp._m and state.gp._w is None
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


def test_kernel_attribute_is_read_only():
    with pytest.raises(AttributeError):
        kernel.KERNEL = "compiled"
