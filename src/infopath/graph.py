"""Location graphs with positive edge costs and shortest-path queries.

A graph is immutable once built, so one graph can serve every mission on it:
``LocationGraph.grid`` hands out one shared graph per set of arguments, from
a small in-process cache.
"""

from __future__ import annotations

import functools
import heapq

import numpy as np

# Distinct grids the process keeps built; objects keyed on a graph (action
# tables) are cached as many times.
GRID_CACHE_SIZE = 8


class LocationGraph:
    """Undirected, connected graph of visitable locations.

    Nodes are integer ids 0..n-1 with 2-D coordinates; every edge carries a
    positive traversal cost. ``start`` and ``goal`` mark the mission endpoints.
    ``goal_costs`` holds the Dijkstra cost from every node to the goal. The
    coordinates and goal costs are read-only arrays and the adjacency is
    tuples, so a graph shared between missions cannot change under them.
    """

    def __init__(self, coords, edges, start, goal):
        coords = np.array(coords, dtype=float)
        if coords.ndim != 2 or coords.shape[1] != 2 or coords.shape[0] == 0:
            raise ValueError("coords must be a non-empty (n, 2) array")
        coords.setflags(write=False)
        self.coords = coords
        n = coords.shape[0]
        adj: list[list[tuple[int, float]]] = [[] for _ in range(n)]
        for u, v, cost in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) references an unknown node")
            if not cost > 0:
                raise ValueError("edge costs must be positive")
            adj[u].append((v, float(cost)))
            adj[v].append((u, float(cost)))
        self._adj = tuple(tuple(sorted(nbrs)) for nbrs in adj)
        if not (0 <= start < n and 0 <= goal < n):
            raise ValueError("start and goal must be valid node ids")
        self.start = int(start)
        self.goal = int(goal)
        # undirected: every node reaches the goal iff the graph is connected
        goal_costs = self.costs_from(self.goal)
        if np.isinf(goal_costs).any():
            raise ValueError("graph must be connected")
        goal_costs.setflags(write=False)
        self.goal_costs = goal_costs

    @classmethod
    @functools.lru_cache(maxsize=GRID_CACHE_SIZE)
    def grid(cls, n, movement_cost=1.0, start=0, goal=None):
        """4-connected n x n grid; node id = x + n*y, coordinates (x, y).

        Memoised: equal arguments return the same graph object.
        """
        if n < 1:
            raise ValueError("grid size must be >= 1")
        coords = [(float(x), float(y)) for y in range(n) for x in range(n)]
        edges = []
        for y in range(n):
            for x in range(n):
                v = x + n * y
                if x + 1 < n:
                    edges.append((v, v + 1, movement_cost))
                if y + 1 < n:
                    edges.append((v, v + n, movement_cost))
        return cls(coords, edges, start, n * n - 1 if goal is None else goal)

    @property
    def n_nodes(self) -> int:
        return self.coords.shape[0]

    def coord(self, v) -> tuple[float, float]:
        return (float(self.coords[v, 0]), float(self.coords[v, 1]))

    def neighbors(self, v) -> tuple[tuple[int, float], ...]:
        """(neighbor, cost) pairs, sorted by neighbor id."""
        return self._adj[v]

    def costs_from(self, source) -> np.ndarray:
        """Dijkstra distances from ``source`` to every node.

        Heap entries are (distance, node id), so equal-cost candidates settle
        lowest node id first and runs are deterministic.
        """
        dist = np.full(self.n_nodes, np.inf)
        dist[source] = 0.0
        heap = [(0.0, int(source))]
        while heap:
            d, v = heapq.heappop(heap)
            if d > dist[v]:
                continue
            for w, cost in self._adj[v]:
                nd = d + cost
                if nd < dist[w]:
                    dist[w] = nd
                    heapq.heappush(heap, (nd, w))
        return dist


def shortest_path_cost(graph: LocationGraph, from_node, to_node) -> float:
    """Minimal total movement cost between two nodes (0 when they coincide)."""
    n = graph.n_nodes
    if not (0 <= from_node < n and 0 <= to_node < n):
        raise ValueError("node ids out of range")
    if from_node == to_node:
        return 0.0
    d = graph.costs_from(from_node)[to_node]
    if np.isinf(d):
        raise ValueError(f"node {to_node} unreachable from {from_node}")
    return float(d)
