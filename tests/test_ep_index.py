"""Tests for the EP-Index and DTLP maintenance (Algorithm 2).

The strongest invariant: after any sequence of weight-change batches,
the incrementally-updated DTLP must equal a DTLP rebuilt from scratch on
the final weights (same bounding-path distances, same skeleton).
"""
import pytest

from repro.core import DTLP, EPIndex
from repro.roadnet import (
    apply_deltas,
    path_distance,
    random_connected_graph,
    snapshot_deltas,
)


@pytest.fixture
def built():
    g = random_connected_graph(60, seed=2, extra_edge_frac=0.9)
    return g, DTLP.build(g, z=15, xi=4)


def _skeleton_edges(dtlp):
    out = {}
    for a in dtlp.skeleton.vertices:
        for b, w in dtlp.skeleton.neighbors(a):
            out[(min(a, b), max(a, b))] = round(w, 9)
    return out


class TestEPIndexStructure:
    def test_paths_through_covers_exactly(self, built):
        g, dtlp = built
        for idx in dtlp.sub_indexes:
            for bset in idx.bounding.values():
                for bp in bset.paths:
                    for a, b in zip(bp.path, bp.path[1:]):
                        assert bp in dtlp.ep.paths_through(a, b)

    def test_entries_count_matches_sum_of_path_lengths(self, built):
        g, dtlp = built
        expect = sum(
            len(bp.path) - 1
            for idx in dtlp.sub_indexes
            for bset in idx.bounding.values()
            for bp in bset.paths
        )
        assert dtlp.ep.n_entries == expect

    def test_unknown_edge_empty(self, built):
        g, dtlp = built
        assert EPIndex(g).paths_through(0, 1) == []

    def test_apply_delta_shifts_dists(self, built):
        g, dtlp = built
        (u, v) = next(iter(g.edges()))
        paths = dtlp.ep.paths_through(u, v)
        if not paths:
            pytest.skip("edge covered by no bounding path")
        before = [bp.dist for bp in paths]
        n = dtlp.ep.apply_delta(u, v, 2.5)
        assert n == len(paths)
        assert all(
            bp.dist == pytest.approx(d + 2.5) for bp, d in zip(paths, before)
        )


class TestAlgorithm2:
    def test_update_keeps_dists_consistent_with_graph(self, built):
        g, dtlp = built
        deltas = snapshot_deltas(g, alpha=0.5, tau=0.4, seed=7)
        dtlp.update(deltas)
        for idx in dtlp.sub_indexes:
            for bset in idx.bounding.values():
                for bp in bset.paths:
                    assert bp.dist == pytest.approx(
                        path_distance(g.neighbors, list(bp.path))
                    )

    def test_update_equals_rebuild(self, built):
        g, dtlp = built
        for i in range(3):
            dtlp.update(snapshot_deltas(g, alpha=0.4, tau=0.5, seed=100 + i))
        rebuilt = DTLP.build(g, z=15, xi=4)
        assert _skeleton_edges(dtlp) == _skeleton_edges(rebuilt)

    def test_zero_delta_noop(self, built):
        g, dtlp = built
        before = _skeleton_edges(dtlp)
        e = next(iter(g.edges()))
        stats = dtlp.update([(e, 0.0)])
        assert stats.n_paths_touched == 0
        assert _skeleton_edges(dtlp) == before

    def test_update_bumps_version(self, built):
        g, dtlp = built
        v = dtlp.version
        dtlp.update(snapshot_deltas(g, alpha=0.3, tau=0.4, seed=12))
        assert dtlp.version == v + 1

    def test_update_stats_counters(self, built):
        g, dtlp = built
        deltas = snapshot_deltas(g, alpha=0.3, tau=0.4, seed=11)
        stats = dtlp.update(deltas)
        assert stats.n_deltas == len(deltas)
        assert stats.n_subgraphs_refreshed <= dtlp.partition.n_subgraphs
        assert stats.elapsed_s >= 0.0

    def test_update_without_graph_application(self, built):
        g, dtlp = built
        e = next(iter(g.edges()))
        w_before = g.weight(*e)
        g.set_weight(*e, w_before + 1.0)  # caller applied the change itself
        dtlp.update([(e, 1.0)], apply_to_graph=False)
        assert g.weight(*e) == pytest.approx(w_before + 1.0)
        rebuilt = DTLP.build(g, z=15, xi=4)
        assert _skeleton_edges(dtlp) == _skeleton_edges(rebuilt)

    def test_bounding_routes_never_change(self, built):
        g, dtlp = built
        routes_before = [
            bp.path
            for idx in dtlp.sub_indexes
            for bset in idx.bounding.values()
            for bp in bset.paths
        ]
        dtlp.update(snapshot_deltas(g, alpha=1.0, tau=0.9, seed=13))
        routes_after = [
            bp.path
            for idx in dtlp.sub_indexes
            for bset in idx.bounding.values()
            for bp in bset.paths
        ]
        assert routes_before == routes_after

    def test_stats_dict_shape(self, built):
        g, dtlp = built
        s = dtlp.stats()
        assert s["n_vertices"] == g.n_vertices
        assert s["n_edges"] == g.n_edges
        assert s["n_subgraphs"] == dtlp.partition.n_subgraphs
        assert s["skeleton_vertices"] == dtlp.skeleton.n_vertices
        assert s["ep_index_entries"] == dtlp.ep.n_entries


class TestQuerySnapshot:
    def test_snapshot_drops_heavy_state(self, built):
        g, dtlp = built
        snap = dtlp.query_snapshot()
        assert snap.ep.n_entries == 0
        assert all(not idx.bounding for idx in snap.sub_indexes)
        assert all(idx.uw is None for idx in snap.sub_indexes)

    def test_snapshot_answers_queries_identically(self, built):
        from repro.core import ksp_dg

        g, dtlp = built
        snap = dtlp.query_snapshot()
        for s, t in [(0, 59), (3, 41), (10, 50)]:
            a = [(p, round(d, 9)) for p, d in ksp_dg(dtlp, s, t, 3).paths]
            b = [(p, round(d, 9)) for p, d in ksp_dg(snap, s, t, 3).paths]
            assert a == b
