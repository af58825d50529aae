"""Unit tests for the dynamic graph substrate (repro.roadnet.graph)."""
import pytest

from repro.roadnet import Graph, Subgraph, path_distance


@pytest.fixture
def tri() -> Graph:
    g = Graph()
    g.add_edge(0, 1, 3)
    g.add_edge(1, 2, 4)
    g.add_edge(0, 2, 10)
    return g


class TestGraphBasics:
    def test_counts(self, tri):
        assert tri.n_vertices == 3
        assert tri.n_edges == 3

    def test_symmetric_weight(self, tri):
        assert tri.weight(0, 1) == tri.weight(1, 0) == 3.0

    def test_current_defaults_to_initial(self, tri):
        assert tri.weight(1, 2) == float(tri.init_weight(1, 2)) == 4.0

    def test_canonical_undirected(self, tri):
        assert tri.canonical(2, 0) == (0, 2)

    def test_canonical_directed(self):
        g = Graph(directed=True)
        assert g.canonical(2, 0) == (2, 0)

    def test_edges_are_canonical(self, tri):
        assert sorted(tri.edges()) == [(0, 1), (0, 2), (1, 2)]

    def test_neighbors(self, tri):
        assert dict(tri.neighbors(0)) == {1: 3.0, 2: 10.0}

    def test_init_neighbors(self, tri):
        assert dict(tri.init_neighbors(0)) == {1: 3, 2: 10}

    def test_degree(self, tri):
        assert tri.degree(0) == 2

    def test_version_counts_changes(self, tri):
        v = tri.version
        tri.weight(0, 1)
        assert tri.version == v
        tri.set_weight(0, 1, 5.0)
        assert tri.version == v + 1
        tri.add_edge(0, 5, 2)
        assert tri.version == v + 2

    def test_has_edge(self, tri):
        assert tri.has_edge(0, 1) and tri.has_edge(1, 0)
        assert not tri.has_edge(0, 99)

    def test_self_loop_rejected(self, tri):
        with pytest.raises(ValueError, match="self-loop"):
            tri.add_edge(1, 1, 2)

    def test_non_integer_w0_rejected(self, tri):
        with pytest.raises(ValueError, match="positive integer"):
            tri.add_edge(0, 5, 2.5)

    def test_zero_w0_rejected(self, tri):
        with pytest.raises(ValueError, match="positive integer"):
            tri.add_edge(0, 5, 0)

    def test_add_vertex_isolated(self, tri):
        tri.add_vertex(42)
        assert tri.n_vertices == 4
        assert tri.degree(42) == 0


class TestDynamicWeights:
    def test_set_weight_both_directions(self, tri):
        tri.set_weight(0, 1, 7.5)
        assert tri.weight(0, 1) == tri.weight(1, 0) == 7.5

    def test_init_weight_is_stable(self, tri):
        tri.set_weight(0, 1, 7.5)
        assert tri.init_weight(0, 1) == 3

    def test_unit_weight(self, tri):
        tri.set_weight(0, 1, 1.0)
        assert tri.unit_weight(0, 1) == pytest.approx(1.0 / 3.0)

    def test_set_weight_nonpositive_rejected(self, tri):
        with pytest.raises(ValueError):
            tri.set_weight(0, 1, 0.0)

    def test_set_weight_missing_edge_rejected(self, tri):
        with pytest.raises(KeyError):
            tri.set_weight(0, 99, 1.0)

    def test_copy_is_independent(self, tri):
        c = tri.copy()
        c.set_weight(0, 1, 99.0)
        assert tri.weight(0, 1) == 3.0

    def test_directed_weights_independent(self):
        g = Graph(directed=True)
        g.add_edge(0, 1, 3)
        g.add_edge(1, 0, 5)
        g.set_weight(0, 1, 7.0)
        assert g.weight(0, 1) == 7.0
        assert g.weight(1, 0) == 5.0


class TestSubgraph:
    def test_view_shares_weights(self, tri):
        sg = Subgraph(tri, 0, [(0, 1), (1, 2)])
        tri.set_weight(0, 1, 9.0)
        assert dict(sg.neighbors(0)) == {1: 9.0}

    def test_vertex_set_from_edges(self, tri):
        sg = Subgraph(tri, 0, [(0, 1)])
        assert sg.vertex_set == {0, 1}
        assert sg.n_edges == 1

    def test_neighbors_restricted_to_view(self, tri):
        sg = Subgraph(tri, 0, [(0, 1), (1, 2)])
        assert 2 not in dict(sg.neighbors(0))  # (0,2) not in the view

    def test_init_neighbors(self, tri):
        sg = Subgraph(tri, 1, [(0, 2)])
        assert dict(sg.init_neighbors(0)) == {2: 10}


class TestPathDistance:
    def test_simple(self, tri):
        assert path_distance(tri.neighbors, [0, 1, 2]) == 7.0

    def test_single_vertex(self, tri):
        assert path_distance(tri.neighbors, [0]) == 0.0

    def test_missing_edge_raises(self, tri):
        with pytest.raises(KeyError):
            path_distance(tri.neighbors, [0, 1, 0, 2, 99])
