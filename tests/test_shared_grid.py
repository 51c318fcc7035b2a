"""One grid model per process: MDPs on one grid share its graph, goal costs,
location tables and prior kernel matrix, and every MDP built through the shared
path equals one built from scratch, bit for bit."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infopath import gp as gp_mod
from infopath import mdp as mdp_mod
from infopath.gp import SquaredExponential
from infopath.graph import GRID_CACHE_SIZE, LocationGraph
from infopath.isrs import DEFAULT_MODALITIES, IsrsMdp, generate_isrs, sensing_noise_stddev
from infopath.mdp import Move, Sense, SensingModality, Static
from infopath.rover import RoverMdp, generate_rover

KERNELS = (SquaredExponential(), SquaredExponential(signal_variance=2.0, lengthscale=0.8))
# non-dyadic costs, so that goal costs and the budgets left after a step pick
# up rounding
ODD_MODALITIES = (SensingModality("cheap", cost=0.7, noise_stddev=0.4),
                  SensingModality("accurate", cost=1.3, noise_stddev=0.1))


def fresh_grid(n, movement_cost, start, goal):
    """An n x n grid built without the grid cache, edge by edge."""
    coords = [(float(x), float(y)) for y in range(n) for x in range(n)]
    edges = [(x + n * y, x + 1 + n * y, movement_cost) for y in range(n) for x in range(n - 1)]
    edges += [(x + n * y, x + n * (y + 1), movement_cost) for y in range(n - 1) for x in range(n)]
    return LocationGraph(coords, edges, start, goal)


def scratch_mdp(make, inst, cost):
    """``make(inst)`` on an uncached graph: no shared graph, goal costs or tables."""
    graph = fresh_grid(inst.grid_size, cost, inst.start, inst.goal)
    with mock.patch.object(type(inst), "graph", lambda self: graph):
        return make(inst)


def beacon_steps_reference(mdp):
    """ISRS beacon plans as numpy scalars give them: one distance per
    (beacon, modality, rock)."""
    inst, coords = mdp.instance, mdp.graph.coords
    plans = {}
    for beacon in inst.beacons:
        plans[beacon] = {}
        for mod in inst.modalities:
            sites = []
            for rock in inst.rock_nodes:
                d = math.hypot(*(coords[rock] - coords[beacon]))
                if d > inst.sensing_radius:
                    continue
                sd = sensing_noise_stddev(mod, d, inst.fidelity_doubling)
                sites.append((rock, max(sd * sd, mdp.jitter_floor)))
            plans[beacon][mod.name] = Static(tuple(sites))
    return plans


@st.composite
def grid_mdp_cases(draw):
    env = draw(st.sampled_from(["isrs", "rover"]))
    n = draw(st.integers(2, 12))
    seed = draw(st.integers(0, 999))
    cost = draw(st.sampled_from([1.0, 0.3, 0.7]))
    kernel = draw(st.sampled_from(KERNELS))
    prior_mean = draw(st.sampled_from([0.5, 0.3]))
    if env == "isrs":
        rocks = draw(st.integers(0, min(6, n * n - 2)))
        beacons = draw(st.sampled_from([0, n * n, min(3, n * n)]))
        modalities = draw(st.sampled_from([ODD_MODALITIES, DEFAULT_MODALITIES]))
        inst = generate_isrs(n, rocks, beacons, 0.5, seed, modalities=modalities,
                             movement_cost=cost, budget=4.0 * n)
        return (lambda i: IsrsMdp(i, kernel=kernel, prior_mean=prior_mean)), inst, cost
    drill = draw(st.sampled_from([3.0, 2.2]))
    inst = generate_rover(n, 4, 0.1, seed, budget=4.0 * n, drill_cost=drill, step_cost=cost)
    return (lambda i: RoverMdp(i, kernel=kernel, prior_mean=prior_mean)), inst, cost


@settings(max_examples=120, deadline=None)
@given(case=grid_mdp_cases(), probes=st.lists(st.tuples(st.integers(0, 143),
                                                        st.floats(0.0, 50.0)), max_size=6))
def test_shared_mdp_equals_mdp_from_scratch(case, probes):
    make, inst, cost = case
    make(inst)  # the shared path, from the caches from here on
    shared = make(inst)
    scratch = scratch_mdp(make, inst, cost)
    assert shared.graph is inst.graph() and scratch.graph is not shared.graph
    assert shared._tables == scratch._tables
    assert shared.graph.goal_costs.tobytes() == scratch.graph.goal_costs.tobytes()
    coords = scratch.graph.coords
    kqq = shared.kernel.matrix(coords, coords)
    for mdp in (shared, scratch):
        assert mdp._empty_gp._kqq.tobytes() == kqq.tobytes()
        assert dict(mdp._empty_gp._qindex) == \
            {(float(x), float(y)): i for i, (x, y) in enumerate(coords)}
    a, b = shared.initial_belief().gp, scratch.initial_belief().gp
    assert a.query_mean.tobytes() == b.query_mean.tobytes()
    assert a.query_variance.tobytes() == b.query_variance.tobytes()
    assert a.trace_of_variance() == b.trace_of_variance()
    if isinstance(shared, IsrsMdp):
        assert shared._beacon_steps == scratch._beacon_steps == beacon_steps_reference(scratch)
    for location, budget in probes:
        belief = shared.initial_belief()._replace(location=location % inst.grid_size ** 2,
                                                  remaining_budget=budget)
        assert shared.is_terminal(belief) == scratch.is_terminal(belief)
        if not shared.is_terminal(belief):
            assert shared.feasible_actions(belief) == scratch.feasible_actions(belief)
    ours, theirs = mdp_mod._kernel_tables(shared), mdp_mod._kernel_tables(scratch)
    assert [a for table in shared._tables for a in table.costs] == \
        [a for table in scratch._tables for a in table.costs]  # the actions by id
    assert {name: a.tobytes() for name, a in ours._arrays.items()} == \
        {name: a.tobytes() for name, a in theirs._arrays.items()}


def test_grid_model_is_shared_between_missions():
    rovers = [RoverMdp(generate_rover(6, 4, 0.1, seed)) for seed in (1, 2)]
    isrs = [IsrsMdp(generate_isrs(6, 4, 3, 0.5, seed)) for seed in (1, 2)]
    for one, two in (rovers, isrs):
        assert one.graph is two.graph
        assert one._empty_gp._kqq is two._empty_gp._kqq
        assert one._empty_gp._qindex is two._empty_gp._qindex
        assert one._empty_gp is not two._empty_gp
        assert one._empty_gp._mean_q is not two._empty_gp._mean_q
        assert one._empty_gp._var_q is not two._empty_gp._var_q
    assert rovers[0]._tables is rovers[1]._tables  # drills everywhere: the whole table
    # per-instance beacons: the sensing table's entries there, the move-only one's elsewhere
    senses = tuple((Sense(mod.name), mod.cost) for mod in DEFAULT_MODALITIES)
    sensing = mdp_mod._shared_tables(isrs[0].graph, senses)
    moving = mdp_mod._shared_tables(isrs[0].graph, ())
    for mdp in isrs:
        for v, table in enumerate(mdp._tables):
            assert table is (sensing if v in mdp.instance.beacons else moving)[v]
    assert isrs[0].instance.beacons != isrs[1].instance.beacons
    assert rovers[0]._empty_gp._kqq is isrs[0]._empty_gp._kqq  # one kernel, one query set


def test_writes_to_one_prior_leave_other_missions_alone():
    one, two = (IsrsMdp(generate_isrs(6, 5, 3, 0.5, seed)) for seed in (3, 4))

    def fingerprint(mdp):
        gp = mdp.initial_belief().gp
        return (gp.query_mean.tobytes(), gp.query_variance.tobytes(), gp.trace_of_variance())

    before = fingerprint(two)
    gp = one.initial_belief().gp
    gp._var_q[:] = -np.inf
    gp._mean_q[:] = np.nan
    assert fingerprint(two) == before
    assert fingerprint(IsrsMdp(generate_isrs(6, 5, 3, 0.5, 5))) == before


def test_shared_state_is_read_only():
    mdp = RoverMdp(generate_rover(5, 4, 0.1, 1))
    graph, gp = mdp.graph, mdp.initial_belief().gp
    for array in (graph.goal_costs, graph.coords, gp._kqq):
        with pytest.raises(ValueError):
            array[0] = 1.0
    with pytest.raises(TypeError):
        graph._adj[0] = ()
    with pytest.raises(TypeError):
        graph.neighbors(0)[0] = (1, 1.0)
    with pytest.raises(TypeError):
        gp._qindex[(0.5, 0.5)] = 0
    with pytest.raises(TypeError):
        mdp._tables[0].costs[Move(0)] = (0.0, 0)


def test_grid_caches_stay_bounded():
    sizes = range(2, 2 + GRID_CACHE_SIZE + 3)  # small grids, more than the caches keep
    for n in sizes:
        RoverMdp(generate_rover(n, 4, 0.1, n))
    assert LocationGraph.grid.cache_info().currsize == GRID_CACHE_SIZE
    assert mdp_mod._shared_tables.cache_info().currsize == GRID_CACHE_SIZE
    assert gp_mod._query_model.cache_info().currsize == gp_mod.QUERY_CACHE_SIZE
    # an evicted grid is built again, equal to the one it replaces
    old = RoverMdp(generate_rover(2, 4, 0.1, 0))
    assert LocationGraph.grid(2, 1.0, 0, 2) is old.graph
    assert old._tables == scratch_mdp(RoverMdp, old.instance, 1.0)._tables


def test_tables_follow_their_own_graph():
    # graphs built one after another, each dropped before the next, may reuse
    # an address; the shared tables are keyed on the graph itself
    for cost in (1.0, 2.0, 0.5, 3.0):
        mdp = scratch_mdp(RoverMdp, generate_rover(3, 4, 0.1, 0), cost)
        costs = mdp._tables[0].costs
        assert [c for a, (c, _, _) in costs.items() if isinstance(a, Move)] == [cost, cost]
        del mdp


def test_grid_is_memoised():
    assert LocationGraph.grid(4, 0.5, 0, 15) is LocationGraph.grid(4, 0.5, 0, 15)
    assert LocationGraph.grid(4, 0.5, 0, 15) is not LocationGraph.grid(4, 0.5, 0, 12)
