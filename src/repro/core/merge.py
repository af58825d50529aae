"""The candidateKSP join (Algorithm 4, line 9): ``C = C |><| Y``.

Given, for each adjacent boundary pair along a reference path, a sorted
list of partial k shortest paths, produce the k best *simple* complete
concatenations.  The paper keeps the k best prefixes at every join step;
because the loop-free constraint can disqualify a prefix only after
later segments are attached, that beam can in principle be lossy.  This
module instead enumerates combinations best-first from a heap (the
classic k-smallest-sums frontier over one index per segment), discarding
non-simple concatenations — exact, and never slower asymptotically than
re-sorting the paper's beam.  A generous expansion cap bounds the
pathological case where almost every combination shares vertices; a
join it cut short says so (``Joined.capped``), and KSP-DG then flags
its answer inexact.  KSP-DG also passes the k-th distance found so far
as ``bound``: a query that needs hundreds of reference paths would
otherwise pop hundreds of non-simple combinations per join that could
no longer enter its answer.
"""
from __future__ import annotations

import heapq
import math
from typing import List, Sequence, Tuple

Path = List[int]
Scored = Tuple[Path, float]


def concat_segments(parts: Sequence[Path]) -> Path:
    """Concatenate segment paths, dropping the duplicated junction vertices."""
    out: Path = list(parts[0])
    for seg in parts[1:]:
        if seg[0] != out[-1]:
            raise ValueError(
                f"segment starting at {seg[0]} does not continue path ending at {out[-1]}"
            )
        out.extend(seg[1:])
    return out


def is_simple(path: Path) -> bool:
    return len(set(path)) == len(path)


class Joined(List[Scored]):
    """:func:`k_best_join`'s paths, cheapest first.

    ``capped`` is True when the expansion cap stopped the join with
    fewer than ``k`` paths while combinations within ``bound`` were
    still unexamined, so cheaper simple paths may be missing.
    """

    capped: bool = False


def k_best_join(
    segments: Sequence[Sequence[Scored]],
    k: int,
    *,
    max_expansions: int | None = None,
    bound: float = math.inf,
) -> Joined:
    """Up to ``k`` cheapest simple concatenations, cheapest first.

    ``segments[i]`` must be sorted by distance ascending and each
    segment's paths must start where the previous segment's paths end.
    Returns fewer than ``k`` results if the simple-path combinations run
    out, the next combination costs more than ``bound``, or the
    expansion cap is hit (then ``capped`` is set).
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if not segments or any(len(s) == 0 for s in segments):
        return Joined()
    cap = max_expansions if max_expansions is not None else max(10_000, 500 * k)

    def cost(idx: Tuple[int, ...]) -> float:
        return sum(segments[i][j][1] for i, j in enumerate(idx))

    start = tuple(0 for _ in segments)
    heap: List[Tuple[float, Tuple[int, ...]]] = [(cost(start), start)]
    seen = {start}
    out = Joined()
    expansions = 0
    while heap and len(out) < k and expansions < cap and heap[0][0] <= bound:
        expansions += 1
        dist, idx = heapq.heappop(heap)
        full = concat_segments([segments[i][j][0] for i, j in enumerate(idx)])
        if is_simple(full):
            out.append((full, dist))
        for i in range(len(segments)):
            if idx[i] + 1 < len(segments[i]):
                nxt = idx[:i] + (idx[i] + 1,) + idx[i + 1 :]
                if nxt not in seen:
                    seen.add(nxt)
                    heapq.heappush(heap, (cost(nxt), nxt))
    # short of k with a combination within the bound left: the cap hit
    out.capped = len(out) < k and bool(heap) and heap[0][0] <= bound
    return out
