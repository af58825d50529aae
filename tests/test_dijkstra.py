"""Tests for Dijkstra / A* primitives against networkx."""
import networkx as nx
import pytest

from repro.core import astar, dijkstra, reverse_spt, shortest_path
from repro.roadnet import random_connected_graph

from ._utils import nx_shortest_dist, to_nx


@pytest.mark.parametrize("seed", range(8))
def test_dijkstra_all_distances_match_networkx(seed):
    g = random_connected_graph(50, seed=seed)
    G = to_nx(g)
    dist, _ = dijkstra(g.neighbors, 0)
    nx_dist = nx.single_source_dijkstra_path_length(G, 0, weight="weight")
    assert set(dist) == set(nx_dist)
    for v in dist:
        assert dist[v] == pytest.approx(nx_dist[v])


@pytest.mark.parametrize("seed", range(5))
def test_shortest_path_distance_and_validity(seed):
    g = random_connected_graph(50, seed=seed)
    G = to_nx(g)
    path, d = shortest_path(g.neighbors, 3, 40)
    assert d == pytest.approx(nx_shortest_dist(G, 3, 40))
    assert path[0] == 3 and path[-1] == 40
    assert sum(g.weight(a, b) for a, b in zip(path, path[1:])) == pytest.approx(d)


def test_shortest_path_trivial():
    g = random_connected_graph(10, seed=0)
    assert shortest_path(g.neighbors, 4, 4) == ([4], 0.0)


def test_unreachable_returns_none():
    from repro.roadnet import Graph

    g = Graph()
    g.add_edge(0, 1, 1)
    g.add_edge(2, 3, 1)
    assert shortest_path(g.neighbors, 0, 3) is None


def test_banned_vertex_forces_detour():
    from repro.roadnet import Graph

    g = Graph()
    g.add_edge(0, 1, 1)
    g.add_edge(1, 2, 1)
    g.add_edge(0, 3, 5)
    g.add_edge(3, 2, 5)
    path, d = shortest_path(g.neighbors, 0, 2, banned_vertices=frozenset({1}))
    assert path == [0, 3, 2] and d == 10.0


def test_banned_edge_forces_detour():
    from repro.roadnet import Graph

    g = Graph()
    g.add_edge(0, 1, 1)
    g.add_edge(0, 2, 3)
    g.add_edge(2, 1, 3)
    path, d = shortest_path(
        g.neighbors, 0, 1, banned_edges=frozenset({(0, 1), (1, 0)})
    )
    assert path == [0, 2, 1] and d == 6.0


def test_banned_source_raises():
    g = random_connected_graph(10, seed=1)
    with pytest.raises(ValueError):
        dijkstra(g.neighbors, 0, banned_vertices=frozenset({0}))


def test_early_exit_matches_full_run():
    g = random_connected_graph(60, seed=2)
    d_full, _ = dijkstra(g.neighbors, 0)
    d_early, _ = dijkstra(g.neighbors, 0, target=30)
    assert d_early[30] == pytest.approx(d_full[30])


@pytest.mark.parametrize("seed", range(5))
def test_astar_with_spt_heuristic_is_exact(seed):
    g = random_connected_graph(50, seed=seed)
    h_map = reverse_spt(g.neighbors, 45)
    res = astar(g.neighbors, 2, 45, h_map)
    expect = shortest_path(g.neighbors, 2, 45)
    assert res[1] == pytest.approx(expect[1])


def test_astar_zero_heuristic_equals_dijkstra():
    g = random_connected_graph(40, seed=3)
    res = astar(g.neighbors, 0, 33, dict.fromkeys(g.vertices, 0.0))
    expect = shortest_path(g.neighbors, 0, 33)
    assert res[1] == pytest.approx(expect[1])


def test_astar_unreachable_returns_none():
    from repro.roadnet import Graph

    g = Graph()
    g.add_edge(0, 1, 1)
    g.add_edge(2, 3, 1)
    assert astar(g.neighbors, 0, 3, dict.fromkeys(g.vertices, 0.0)) is None


def test_astar_banned_source_returns_none():
    g = random_connected_graph(10, seed=4)
    zero = dict.fromkeys(g.vertices, 0.0)
    assert astar(g.neighbors, 0, 5, zero, banned_vertices=frozenset({0})) is None


def test_reverse_spt_covers_component():
    g = random_connected_graph(30, seed=5)
    d = reverse_spt(g.neighbors, 7)
    assert set(d) == set(g.vertices)
    assert d[7] == 0.0
