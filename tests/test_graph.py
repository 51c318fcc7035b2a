import math

import numpy as np
import pytest

from infopath.graph import LocationGraph, shortest_path_cost


def enumerate_min_cost(graph, start, end):
    """Exhaustive simple-path enumeration; independent of Dijkstra."""
    best = math.inf

    def go(v, cost, visited):
        nonlocal best
        if cost >= best:
            return
        if v == end:
            best = cost
            return
        for w, c in graph.neighbors(v):
            if w not in visited:
                go(w, cost + c, visited | {w})

    go(start, 0.0, {start})
    return best


def test_zero_cost_to_self():
    g = LocationGraph.grid(4)
    assert shortest_path_cost(g, 5, 5) == 0.0


def test_grid_corner_to_corner_matches_enumeration():
    g = LocationGraph.grid(3)
    assert shortest_path_cost(g, 0, 8) == pytest.approx(enumerate_min_cost(g, 0, 8))
    assert shortest_path_cost(g, 0, 8) == 4.0


def test_costs_match_enumeration_on_weighted_graph():
    coords = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
    edges = [(0, 1, 1.0), (1, 2, 0.5), (2, 3, 2.0), (3, 0, 0.25), (0, 2, 2.1)]
    g = LocationGraph(coords, edges, start=0, goal=2)
    for u in range(4):
        for v in range(4):
            if u != v:
                assert shortest_path_cost(g, u, v) == pytest.approx(enumerate_min_cost(g, u, v))


def test_symmetry_on_undirected_grid():
    g = LocationGraph.grid(5)
    rng = np.random.default_rng(2)
    for _ in range(10):
        u, v = rng.integers(0, 25, size=2)
        assert shortest_path_cost(g, int(u), int(v)) == shortest_path_cost(g, int(v), int(u))


def test_disconnected_graph_rejected():
    coords = [(0.0, 0.0), (1.0, 0.0), (5.0, 5.0)]
    with pytest.raises(ValueError):
        LocationGraph(coords, [(0, 1, 1.0)], start=0, goal=2)


def test_nonpositive_edge_cost_rejected():
    with pytest.raises(ValueError):
        LocationGraph([(0.0, 0.0), (1.0, 0.0)], [(0, 1, 0.0)], start=0, goal=1)
    # a NaN edge would leave a NaN cheapest cost, below which no budget falls
    with pytest.raises(ValueError):
        LocationGraph([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)],
                      [(0, 1, 1.0), (1, 2, math.nan), (0, 2, 1.0)], start=0, goal=2)


def test_grid_layout_and_neighbors():
    g = LocationGraph.grid(3)
    assert g.n_nodes == 9
    assert g.coord(0) == (0.0, 0.0)
    assert g.coord(5) == (2.0, 1.0)  # node id = x + n*y
    assert [w for w, _ in g.neighbors(4)] == [1, 3, 5, 7]
    assert [w for w, _ in g.neighbors(0)] == [1, 3]


def test_costs_from_whole_grid():
    g = LocationGraph.grid(4)
    d = g.costs_from(0)
    for node in range(16):
        x, y = node % 4, node // 4
        assert d[node] == pytest.approx(x + y)  # Manhattan distance at unit cost
