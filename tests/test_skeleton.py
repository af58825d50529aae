"""Tests for the skeleton graph G_lambda (Section 3.6) and Theorem 2."""
import networkx as nx
import pytest

from repro.core import DTLP, attach_query_vertices, shortest_path
from repro.core.bounding import bounding_paths, lower_bound_distance
from repro.roadnet import apply_deltas, random_connected_graph, snapshot_deltas

from ._utils import nx_shortest_dist, to_nx


@pytest.fixture(params=[0, 1])
def built(request):
    g = random_connected_graph(70, seed=request.param, extra_edge_frac=0.9)
    apply_deltas(g, snapshot_deltas(g, alpha=0.5, tau=0.4, seed=request.param + 50))
    return g, DTLP.build(g, z=18, xi=5)


class TestSkeletonStructure:
    def test_vertices_are_exactly_boundary(self, built):
        g, dtlp = built
        assert set(dtlp.skeleton.vertices) == dtlp.partition.boundary

    def test_edges_only_between_coresident_pairs(self, built):
        g, dtlp = built
        for a in dtlp.skeleton.vertices:
            for b, _ in dtlp.skeleton.neighbors(a):
                shared = set(dtlp.partition.home_subgraphs(a)) & set(
                    dtlp.partition.home_subgraphs(b)
                )
                assert shared, f"skeleton edge ({a},{b}) without a shared subgraph"

    def test_edge_weight_is_min_over_subgraph_lbds(self, built):
        g, dtlp = built
        for (a, b), per_sg in dtlp.pair_lbd.items():
            assert dtlp.skeleton.weight(a, b) == pytest.approx(min(per_sg.values()))

    def test_much_smaller_than_graph(self, built):
        g, dtlp = built
        assert dtlp.skeleton.n_vertices < g.n_vertices


class TestTheorem2:
    """D(P1 in G_lambda) <= D(P1 in G) for boundary endpoints."""

    @pytest.mark.parametrize("seed", range(4))
    def test_skeleton_distance_lower_bounds_graph_distance(self, seed):
        g = random_connected_graph(70, seed=seed, extra_edge_frac=0.9)
        apply_deltas(g, snapshot_deltas(g, alpha=0.6, tau=0.5, seed=seed + 9))
        dtlp = DTLP.build(g, z=18, xi=5)
        G = to_nx(g)
        boundary = sorted(dtlp.partition.boundary)
        pairs = [(boundary[i], boundary[-(i + 1)]) for i in range(min(5, len(boundary) // 2))]
        for s, t in pairs:
            sk = shortest_path(dtlp.skeleton.neighbors, s, t)
            if sk is None:
                continue
            assert sk[1] <= nx_shortest_dist(G, s, t) + 1e-9

    def test_holds_with_virtual_endpoints(self, built):
        g, dtlp = built
        G = to_nx(g)
        non_boundary = sorted(set(g.vertices) - dtlp.partition.boundary)
        s, t = non_boundary[0], non_boundary[-1]
        aug = attach_query_vertices(dtlp.skeleton, dtlp.partition, s, t)
        sk = shortest_path(aug.neighbors, s, t)
        assert sk is not None
        assert sk[1] <= nx_shortest_dist(G, s, t) + 1e-9

    @pytest.mark.parametrize("seed", range(3))
    def test_holds_with_virtual_endpoints_directed(self, seed):
        g = random_connected_graph(60, seed=seed, extra_edge_frac=0.9, directed=True)
        apply_deltas(g, snapshot_deltas(g, alpha=0.5, tau=0.4, seed=seed + 20))
        dtlp = DTLP.build(g, z=15, xi=5)
        G = to_nx(g)
        non_boundary = sorted(set(g.vertices) - dtlp.partition.boundary)
        pairs = [(non_boundary[i], non_boundary[-(i + 1)]) for i in range(3)]
        for s, t in pairs + [(t, s) for s, t in pairs]:
            aug = attach_query_vertices(dtlp.skeleton, dtlp.partition, s, t)
            sk = shortest_path(aug.neighbors, s, t)
            assert sk is not None
            assert sk[1] <= nx_shortest_dist(G, s, t) + 1e-9


class TestAttachment:
    def test_boundary_endpoints_unchanged(self, built):
        g, dtlp = built
        boundary = sorted(dtlp.partition.boundary)
        s, t = boundary[0], boundary[-1]
        aug = attach_query_vertices(dtlp.skeleton, dtlp.partition, s, t)
        assert set(aug.vertices) == set(dtlp.skeleton.vertices)
        assert aug.n_edges == dtlp.skeleton.n_edges

    def test_virtual_vertex_connects_to_home_boundary_only(self, built):
        g, dtlp = built
        part = dtlp.partition
        s = next(v for v in sorted(g.vertices) if not part.is_boundary(v))
        t = next(
            v
            for v in sorted(g.vertices)
            if part.is_boundary(v) and part.home_subgraphs(v) != part.home_subgraphs(s)
        )
        aug = attach_query_vertices(dtlp.skeleton, part, s, t)
        home = set(part.home_subgraphs(s))
        for b, _ in aug.neighbors(s):
            assert home & set(part.home_subgraphs(b))

    def test_original_skeleton_untouched(self, built):
        g, dtlp = built
        before = dtlp.skeleton.n_edges
        non_boundary = sorted(set(g.vertices) - dtlp.partition.boundary)
        attach_query_vertices(
            dtlp.skeleton, dtlp.partition, non_boundary[0], non_boundary[-1]
        )
        assert dtlp.skeleton.n_edges == before
        assert non_boundary[0] not in set(dtlp.skeleton.vertices)

    def test_same_subgraph_virtual_pair_gets_direct_edge(self):
        # one subgraph only: no boundary vertices at all, queries must
        # still work through the direct virtual edge
        g = random_connected_graph(20, seed=3)
        dtlp = DTLP.build(g, z=100, xi=3)
        assert dtlp.skeleton.n_vertices == 0
        aug = attach_query_vertices(dtlp.skeleton, dtlp.partition, 0, 15)
        assert aug.has_edge(0, 15)

    def test_virtual_edge_is_exact_segment_distance(self, built):
        # (v, b) weighs the current shortest v-b distance inside v's home
        # subgraph with the other boundary vertices and the other query
        # endpoint removed, which is never below the Theorem 1 LBD the
        # paper computes on the fly from bounding paths
        g, dtlp = built
        part = dtlp.partition
        G = to_nx(g)
        non_boundary = sorted(set(g.vertices) - part.boundary)
        s, t = non_boundary[0], non_boundary[-1]
        aug = attach_query_vertices(dtlp.skeleton, part, s, t)
        checked = 0
        for v, other in ((s, t), (t, s)):
            (sg_id,) = part.home_subgraphs(v)
            sg = part.subgraphs[sg_id]
            boundary = part.boundary_of(sg_id)
            idx = dtlp.sub_indexes[sg_id]
            for b in boundary:
                removed = (set(boundary) | {other}) - {v, b}
                H = G.edge_subgraph(sg.edge_list).copy()
                H.remove_nodes_from(removed)
                if b not in H or not nx.has_path(H, v, b):
                    assert not aug.has_edge(v, b)
                    continue
                assert aug.weight(v, b) == pytest.approx(nx_shortest_dist(H, v, b))
                bset = bounding_paths(
                    sg, v, b, dtlp.xi, banned=frozenset(boundary)
                )
                old = lower_bound_distance(bset, idx.uw)
                assert aug.weight(v, b) >= old - 1e-9
                checked += 1
        assert checked > 0


class TestSkeletonGraphContainer:
    def test_undirected_set_edge_symmetric(self):
        from repro.core import SkeletonGraph

        sk = SkeletonGraph()
        sk.set_edge(1, 2, 5.0)
        assert sk.weight(2, 1) == 5.0
        assert sk.n_edges == 1

    def test_directed_set_edge_one_way(self):
        from repro.core import SkeletonGraph

        sk = SkeletonGraph(directed=True)
        sk.set_edge(1, 2, 5.0)
        assert sk.has_edge(1, 2) and not sk.has_edge(2, 1)
        assert sk.n_edges == 1

    def test_copy_independent(self):
        from repro.core import SkeletonGraph

        sk = SkeletonGraph()
        sk.set_edge(1, 2, 5.0)
        c = sk.copy()
        c.set_edge(1, 2, 9.0)
        assert sk.weight(1, 2) == 5.0
