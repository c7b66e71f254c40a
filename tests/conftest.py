"""Shared fixture graphs, random-graph streams and a traced-peak helper for the
test suite."""

import tracemalloc

import numpy as np
import pytest

from graphdirac import Graph, build_binary_tree, build_cycle, build_path, build_random


def complete_graph(n):
    return Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def star_graph(leaves):
    return Graph.from_edges(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def fixture_graphs():
    """Connected fixtures used throughout; keys are stable names."""
    return {
        "path2": build_path(2),
        "path3": build_path(3),
        "path4": build_path(4),
        "path5": build_path(5),
        "triangle": build_cycle(3),
        "square": build_cycle(4),
        "cycle5": build_cycle(5),
        "cycle6": build_cycle(6),
        "star3": star_graph(3),
        "k4_minus_edge": Graph.from_edges(4, [(0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]),
        "k4": complete_graph(4),
        "k5": complete_graph(5),
        "tree2": build_binary_tree(2),
        "random8": build_random(8, 0.45, 11),
        "random10": build_random(10, 0.35, 5),
    }


def small_fixture_graphs(max_nodes=5):
    return {name: g for name, g in fixture_graphs().items()
            if g.node_count <= max_nodes}


def random_connected_graphs(count, max_nodes, seed, min_nodes=2):
    """Deterministic stream of connected Erdos-Renyi graphs."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        n = int(rng.integers(min_nodes, max_nodes + 1))
        p = float(rng.uniform(0.3, 0.9))
        out.append(build_random(n, p, int(rng.integers(0, 2 ** 32))))
    return out


def traced_peak(call, *args):
    """``call(*args)`` and the peak bytes that tracemalloc traced while it ran."""
    tracemalloc.start()
    try:
        return call(*args), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture
def fixtures():
    return fixture_graphs()
