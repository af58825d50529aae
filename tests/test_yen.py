"""Tests for Yen's k shortest loopless paths against networkx."""
import random
from itertools import islice

import networkx as nx
import pytest

from repro.core import reverse_spt, yen_iter, yen_ksp
from repro.roadnet import Graph, path_distance, random_connected_graph

from ._utils import nx_ksp_dists, round_dists, to_nx


@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize("k", [1, 3, 6])
def test_matches_networkx_on_random_graphs(seed, k):
    g = random_connected_graph(35, seed=seed, extra_edge_frac=0.9)
    G = to_nx(g)
    got = round_dists(yen_ksp(g.neighbors, 1, 30, k))
    assert got == [round(d, 6) for d in nx_ksp_dists(G, 1, 30, k)]


@pytest.mark.parametrize("seed", range(4))
def test_paths_are_simple_and_valid(seed):
    g = random_connected_graph(30, seed=seed)
    for path, dist in yen_ksp(g.neighbors, 0, 25, 5):
        assert path[0] == 0 and path[-1] == 25
        assert len(set(path)) == len(path)
        assert path_distance(g.neighbors, path) == pytest.approx(dist)


def test_distances_non_decreasing():
    g = random_connected_graph(40, seed=1, extra_edge_frac=1.0)
    dists = [d for _, d in yen_ksp(g.neighbors, 0, 35, 8)]
    assert dists == sorted(dists)


def test_no_duplicate_paths():
    g = random_connected_graph(40, seed=2, extra_edge_frac=1.0)
    paths = [tuple(p) for p, _ in yen_ksp(g.neighbors, 0, 35, 10)]
    assert len(paths) == len(set(paths))


def test_iter_prefix_property():
    """The first j results of yen_iter equal yen_ksp(..., j)."""
    g = random_connected_graph(30, seed=3, extra_edge_frac=1.0)
    lazy = list(islice(yen_iter(g.neighbors, 0, 20), 6))
    for j in (1, 3, 6):
        assert [tuple(p) for p, _ in lazy[:j]] == [
            tuple(p) for p, _ in yen_ksp(g.neighbors, 0, 20, j)
        ]


def test_exhausts_small_graph():
    g = Graph()
    g.add_edge(0, 1, 1)
    g.add_edge(1, 2, 1)
    g.add_edge(0, 2, 3)
    all_paths = list(yen_iter(g.neighbors, 0, 2))
    assert [p for p, _ in all_paths] == [[0, 1, 2], [0, 2]]


def test_unreachable_yields_nothing():
    g = Graph()
    g.add_edge(0, 1, 1)
    g.add_edge(2, 3, 1)
    assert yen_ksp(g.neighbors, 0, 3, 4) == []


def test_k_must_be_positive():
    g = random_connected_graph(10, seed=0)
    with pytest.raises(ValueError):
        yen_ksp(g.neighbors, 0, 5, 0)


def test_fewer_paths_than_k():
    g = Graph()
    g.add_edge(0, 1, 1)
    assert len(yen_ksp(g.neighbors, 0, 1, 10)) == 1


def test_init_weight_length_function():
    """Yen under init_neighbors ranks by vfrag count, not current weight."""
    g = Graph()
    g.add_edge(0, 1, 1)
    g.add_edge(1, 2, 1)
    g.add_edge(0, 2, 5)
    g.set_weight(0, 1, 100.0)  # current weights now favour the direct edge
    by_init = yen_ksp(g.init_neighbors, 0, 2, 2)
    assert [p for p, _ in by_init] == [[0, 1, 2], [0, 2]]
    by_cur = yen_ksp(g.neighbors, 0, 2, 2)
    assert [p for p, _ in by_cur] == [[0, 2], [0, 1, 2]]


@pytest.mark.parametrize("seed", range(4))
def test_directed_matches_networkx(seed):
    g = random_connected_graph(25, seed=seed, directed=True)
    G = to_nx(g)
    got = round_dists(yen_ksp(g.neighbors, 0, 20, 4, directed=True))
    exp = [round(d, 6) for d in nx_ksp_dists(G, 0, 20, 4)]
    assert got == exp


def test_dynamic_weights_reflected():
    g = random_connected_graph(30, seed=5, extra_edge_frac=1.0)
    before = round_dists(yen_ksp(g.neighbors, 0, 25, 3))
    for e in list(g.edges())[:20]:
        g.set_weight(*e, g.weight(*e) * 3.0)
    after = round_dists(yen_ksp(g.neighbors, 0, 25, 3))
    G = to_nx(g)
    assert after == [round(d, 6) for d in nx_ksp_dists(G, 0, 25, 3)]
    assert before != after


def _without(neighbors_fn, banned):
    """``neighbors_fn`` with every edge into ``banned`` dropped."""

    def neighbors(u):
        return [(v, w) for v, w in neighbors_fn(u) if v not in banned]

    return neighbors


def _reversed(g):
    rev = {}
    for u in g.vertices:
        for v, w in g.neighbors(u):
            rev.setdefault(v, []).append((u, w))
    return lambda u: rev.get(u, ())


@pytest.mark.parametrize("directed", [False, True])
@pytest.mark.parametrize("seed", range(4))
def test_banned_equals_filtered_graph(seed, directed):
    g = random_connected_graph(40, seed=seed, directed=directed, extra_edge_frac=0.9)
    banned = frozenset(random.Random(seed).sample(range(2, 40), 8)) - {30}
    got = yen_ksp(g.neighbors, 1, 30, 8, directed=directed, banned=banned)
    exp = yen_ksp(_without(g.neighbors, banned), 1, 30, 8, directed=directed)
    assert got == exp
    assert all(banned.isdisjoint(p) for p, _ in got)


@pytest.mark.parametrize("directed", [False, True])
@pytest.mark.parametrize("seed", range(4))
def test_distance_map_keeps_distances(seed, directed):
    g = random_connected_graph(40, seed=seed, directed=directed, extra_edge_frac=0.9)
    h = reverse_spt(_reversed(g) if directed else g.neighbors, 30)
    plain = yen_ksp(g.neighbors, 1, 30, 8, directed=directed)
    guided = yen_ksp(g.neighbors, 1, 30, 8, directed=directed, h=h)
    assert round_dists(guided) == round_dists(plain)
    assert guided[0] == plain[0]  # the first path is Dijkstra's either way


def test_distance_map_and_banned_together():
    g = random_connected_graph(40, seed=7, extra_edge_frac=0.9)
    banned = frozenset({3, 9, 17, 22})
    h = reverse_spt(g.neighbors, 30)  # ignores the bans: an under-estimate
    got = yen_ksp(g.neighbors, 1, 30, 6, h=h, banned=banned)
    exp = yen_ksp(_without(g.neighbors, banned), 1, 30, 6)
    assert round_dists(got) == round_dists(exp)
    assert all(banned.isdisjoint(p) for p, _ in got)


@pytest.mark.parametrize("end", [1, 30])
def test_banned_endpoint_rejected(end):
    g = random_connected_graph(40, seed=0)
    with pytest.raises(ValueError):
        next(yen_iter(g.neighbors, 1, 30, banned=frozenset({end, 5})))
    with pytest.raises(ValueError):
        yen_ksp(g.neighbors, 1, 30, 2, banned=frozenset({end}))
