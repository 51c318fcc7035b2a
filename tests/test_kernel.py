"""The compiled step kernel against the Python kernel, and its fallbacks.

Planning must give the same bits whichever kernel runs: whole search trees,
rollout returns and generator states are compared under both. When the
kernel cannot be built, loaded or verified, the Python kernel runs and every
pinned output stays as it is.
"""

import shutil

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
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
    CompiledRollout,
    LocationTable,
    RolloutState,
    Sense,
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
    rollouts and batch rebuilds."""
    seen = {"rebuilds": 0, "compiled_rollouts": 0}
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
            if type(self) is RolloutState:  # a rollout step, not a tree step
                sites = self.mdp.static_sites(self.location, action)
                kind = ("drill" if action == Sense("drill") else "beacon"
                        if isinstance(action, Sense) else "rock" if sites is None
                        else "move")
                seen[kind] = seen.get(kind, 0) + 1
                if self.gp._m == 0 and sites:
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
        for kind in kinds:
            met[kind] = met.get(kind, 0) + ref_seen.get(kind, 0)
    assert all(met[kind] for kind in kinds), met


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


def perturbed_source(tmp_path):
    """The kernel source with the trace summed from var[0]: it builds and
    loads, and the load-time check must refuse it."""
    source = kernel.SOURCE.read_text()
    perturbed = source.replace("return 0. + pairwise(g->var, g->q);",
                               "return g->var[0] + pairwise(g->var + 1, g->q - 1);")
    assert perturbed != source
    path = tmp_path / "_kernel.c"
    path.write_text(perturbed)
    return path


FALLBACKS = {
    "no compiler": (lambda m, tmp: m.setattr(kernel, "COMPILER", str(tmp / "no-such-gcc")),
                    "FileNotFoundError"),
    "another BLAS": (lambda m, tmp: m.setattr(kernel, "_blas_name", lambda: "openblas"),
                     "numpy's BLAS is openblas"),
    "a check differs": (lambda m, tmp: m.setattr(kernel, "SOURCE", perturbed_source(tmp)),
                        "rank-1 update differs"),
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
