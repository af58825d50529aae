"""Tests for the candidateKSP join (Algorithm 4's bowtie operator)."""
from itertools import product

import numpy as np
import pytest

from repro.core import concat_segments, is_simple, k_best_join


def _brute_force(segments, k):
    combos = []
    for parts in product(*segments):
        path = concat_segments([p for p, _ in parts])
        if is_simple(path):
            combos.append((path, sum(d for _, d in parts)))
    combos.sort(key=lambda pd: (pd[1], pd[0]))
    return combos[:k]


def _random_segments(seed, n_segments=3, n_paths=4):
    """Random segment lists over a chain of junction vertices."""
    rng = np.random.default_rng(seed)
    junctions = [100 * i for i in range(n_segments + 1)]
    segments = []
    for i in range(n_segments):
        paths = []
        for j in range(n_paths):
            mid = [int(v) for v in rng.choice(50, size=rng.integers(0, 3), replace=False)]
            path = [junctions[i]] + mid + [junctions[i + 1]]
            paths.append((path, float(rng.integers(1, 30))))
        paths.sort(key=lambda pd: pd[1])
        segments.append(paths)
    return segments


class TestConcatSegments:
    def test_joins_on_shared_vertex(self):
        assert concat_segments([[1, 2, 3], [3, 4], [4, 5]]) == [1, 2, 3, 4, 5]

    def test_single_segment(self):
        assert concat_segments([[7, 8]]) == [7, 8]

    def test_mismatched_junction_raises(self):
        with pytest.raises(ValueError):
            concat_segments([[1, 2], [3, 4]])


class TestIsSimple:
    def test_simple(self):
        assert is_simple([1, 2, 3])

    def test_loop(self):
        assert not is_simple([1, 2, 1])


class TestKBestJoin:
    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("k", [1, 3, 8])
    def test_matches_brute_force(self, seed, k):
        segments = _random_segments(seed)
        got = k_best_join(segments, k)
        exp = _brute_force(segments, k)
        assert [round(d, 9) for _, d in got] == [round(d, 9) for _, d in exp]
        assert all(is_simple(p) for p, _ in got)

    def test_results_sorted(self):
        segments = _random_segments(99, n_segments=4)
        dists = [d for _, d in k_best_join(segments, 10)]
        assert dists == sorted(dists)

    def test_filters_non_simple_combinations(self):
        # both second-segment paths revisit vertex 2 -> only combos
        # avoiding it survive
        segments = [
            [([1, 2, 3], 1.0), ([1, 3], 5.0)],
            [([3, 2, 4], 1.0), ([3, 4], 4.0)],
        ]
        got = k_best_join(segments, 4)
        assert ([1, 2, 3, 2, 4], 2.0) not in got
        assert all(is_simple(p) for p, _ in got)
        assert got[0] == ([1, 3, 2, 4], 6.0) or got[0] == ([1, 2, 3, 4], 5.0)

    def test_empty_segment_returns_empty(self):
        assert k_best_join([[([1, 2], 1.0)], []], 3) == []

    def test_no_segments_returns_empty(self):
        assert k_best_join([], 3) == []

    def test_k_must_be_positive(self):
        with pytest.raises(ValueError):
            k_best_join([[([1, 2], 1.0)]], 0)

    def test_expansion_cap_limits_work(self):
        segments = _random_segments(5, n_segments=4, n_paths=6)
        got = k_best_join(segments, 5, max_expansions=1)
        assert len(got) <= 1

    def test_cap_flags_a_cut_join(self):
        segments = _random_segments(5, n_segments=4, n_paths=6)
        assert k_best_join(segments, 5, max_expansions=1).capped
        full = k_best_join(segments, 5)
        assert len(full) == 5 and not full.capped

    def test_cap_not_flagged_when_other_stops_hit(self):
        segments = [[([1, 2], 1.0), ([1, 5, 2], 2.0)], [([2, 3], 2.0)]]
        # k paths found, the bound reached, the combinations exhausted
        assert not k_best_join(segments, 1, max_expansions=1).capped
        assert not k_best_join(segments, 3, max_expansions=1, bound=2.5).capped
        assert not k_best_join(segments, 3, max_expansions=2).capped
        assert not k_best_join([[([1, 2], 1.0)], []], 3, max_expansions=1).capped

    @pytest.mark.parametrize("seed", range(10))
    def test_bound_drops_only_costlier_combinations(self, seed):
        segments = _random_segments(seed, n_paths=5)
        full = k_best_join(segments, 8)
        for bound in sorted({d for _, d in full}):
            assert k_best_join(segments, 8, bound=bound) == [
                (p, d) for p, d in full if d <= bound
            ]

    def test_bound_below_cheapest_returns_empty(self):
        segments = [[([1, 2], 1.0)], [([2, 3], 2.0)]]
        assert k_best_join(segments, 3, bound=2.5) == []

    def test_fewer_than_k_available(self):
        segments = [[([1, 2], 1.0)], [([2, 3], 2.0)]]
        assert k_best_join(segments, 10) == [([1, 2, 3], 3.0)]
