"""Brute-force references that the exact closed forms and walks in
``coarse_teich`` are checked against.  Breadth-first searches over the raw
graphs: independent of the package's fan walks, horoball apex scan and slot
Dijkstra, and exact only inside their caps or boxes.  Plus the whole list
of elementary moves that ``nth_move`` indexes, the slope boxes the tests
enumerate, and the longdouble systole of the flowed Anosov torus,
the reference for its Fibonacci family.
"""

from __future__ import annotations

import bisect
import math
from collections import deque
from typing import Iterator, Optional

import numpy as np

from coarse_teich.flatsim import anosov_torus, shortest_slope
from coarse_teich.horoball import HoroPoint, width
from coarse_teich.marking import AugMarking, GlueBlock, SlotBlock
from coarse_teich.slots import Slope, complement, transversal_at, twist_coordinate


# ---------------------------------------------------------------------------
# Farey graph inside a box.
# ---------------------------------------------------------------------------


def slopes_in_box(bound: int) -> list[Slope]:
    """All canonical slopes with |p| <= bound and q <= bound."""
    out = [Slope(1, 0)]
    for q in range(1, bound + 1):
        for p in range(-bound, bound + 1):
            if math.gcd(p, q) == 1:
                out.append(Slope(p, q))
    return out


def farey_distance_bfs(a: Slope, b: Slope, bound: int) -> int | None:
    """Brute-force BFS distance inside the |p|,|q| <= bound subgraph.

    Upper bound for the true distance; equals it once the bound comfortably
    contains the pivot region of the pair.  Returns None if b is unreachable
    inside the box.
    """

    def ok(s: Slope) -> bool:
        return abs(s.p) <= bound and s.q <= bound

    if not (ok(a) and ok(b)):
        raise ValueError("endpoints outside the BFS box")
    if a == b:
        return 0
    dist = {a: 0}
    queue = deque([a])
    while queue:
        cur = queue.popleft()
        d = dist[cur]
        for nb in _bfs_neighbors(cur, bound):
            if nb not in dist:
                dist[nb] = d + 1
                if nb == b:
                    return d + 1
                queue.append(nb)
    return None


def _n_window(t0: int, s: int, bound: int) -> tuple[float, float]:
    """Real interval of n with |t0 + n*s| <= bound (whole line if s == 0)."""
    if s == 0:
        return (-math.inf, math.inf) if abs(t0) <= bound else (1.0, 0.0)
    lo, hi = (-bound - t0) / s, (bound - t0) / s
    return (min(lo, hi), max(lo, hi))


def _bfs_neighbors(s: Slope, bound: int) -> list[Slope]:
    """Neighbors of s in the Farey graph with entries inside the box."""
    t0 = complement(s)
    lo1, hi1 = _n_window(t0.p, s.p, bound)
    lo2, hi2 = _n_window(t0.q, s.q, bound)
    lo, hi = max(lo1, lo2), min(hi1, hi2)
    out = []
    n = math.ceil(lo)
    while n <= hi:
        p, q = t0.p + n * s.p, t0.q + n * s.q
        if q < 0 or (q == 0 and p < 0):
            p, q = -p, -q
        if abs(p) <= bound and q <= bound:
            out.append(Slope(p, q))
        n += 1
    return out


# ---------------------------------------------------------------------------
# Elementary moves, every neighbour built.
# ---------------------------------------------------------------------------


def _horo_edges(x: int, d: int) -> Iterator[tuple[int, int]]:
    """Horoball neighbours of (x, d): twists by 1..width(d) in both signs,
    then the unit level steps."""
    for step in range(1, width(d) + 1):
        yield x + step, d
        yield x - step, d
    if d > 0:
        yield x, d - 1
    yield x, d + 1


def listed_moves(m: AugMarking) -> list[AugMarking]:
    """All markings one elementary move away, in the order that
    ``elementary_moves`` and ``nth_move`` index: gluing curves, then slots;
    per block the flip at level 0, twists +1, -1, +2, ..., then levels down
    and up.  One twist coordinate per slot, one transversal per twist."""
    glue, slots = m.glue, m.slots
    out = [
        AugMarking(glue[:j] + (GlueBlock(tau, d),) + glue[j + 1:], slots)
        for j, g in enumerate(glue)
        for tau, d in _horo_edges(g.tau, g.D)
    ]
    for i, s in enumerate(slots):
        blocks = [SlotBlock(s.trans, s.base, 0)] if s.D == 0 else []
        n = twist_coordinate(s.base, s.trans)
        for x, d in _horo_edges(n, s.D):
            trans = s.trans if x == n else transversal_at(s.base, x)
            blocks.append(SlotBlock(s.base, trans, d))
        out.extend(AugMarking(glue, slots[:i] + (b,) + slots[i + 1:]) for b in blocks)
    return out


# ---------------------------------------------------------------------------
# Slot graph within a cap.
# ---------------------------------------------------------------------------


def _slot_neighbors(key: tuple[Slope, int, int]) -> Iterator[tuple[Slope, int, int]]:
    """Neighbours of a slot-graph key (base, twist coordinate of the
    transversal, level): the flip at level 0, then the horoball edges."""
    base, n, d = key
    if d == 0:
        trans = transversal_at(base, n)
        yield trans, twist_coordinate(trans, base), 0
    for x, e in _horo_edges(n, d):
        yield base, x, e


def slot_distance_bfs(s: SlotBlock, t: SlotBlock, cap: int) -> Optional[int]:
    """Slot-graph distance if <= cap, else None.

    Bidirectional breadth-first search over the raw slot graph, expanding
    the smaller frontier; twist reach (and so branching) widens
    exponentially with the levels, so keep levels and cap small.
    """
    ka = (s.base, twist_coordinate(s.base, s.trans), s.D)
    kb = (t.base, twist_coordinate(t.base, t.trans), t.D)
    if ka == kb:
        return 0
    left = {ka: 0}
    right = {kb: 0}
    lfront, rfront = [ka], [kb]
    dl = dr = 0
    while lfront and rfront:
        if dl + dr >= cap:
            return None
        if len(lfront) <= len(rfront):
            side, other, front = left, right, lfront
            dl += 1
            dcur = dl
        else:
            side, other, front = right, left, rfront
            dr += 1
            dcur = dr
        new = []
        best = None
        for key in front:
            for nb in _slot_neighbors(key):
                if nb in side:
                    continue
                if nb in other:
                    cand = dcur + other[nb]
                    if best is None or cand < best:
                        best = cand
                side[nb] = dcur
                new.append(nb)
        if best is not None:
            # frontiers met; the first meeting depth is optimal for BFS
            return best if best <= cap else None
        if side is left:
            lfront = new
        else:
            rfront = new
    return None


# ---------------------------------------------------------------------------
# Horoball inside a box.  Level-wise "next unvisited" lists keep the BFS
# near-linear despite the wide horizontal edges.
# ---------------------------------------------------------------------------


def horo_distances_from(
    src: HoroPoint, x_lo: int, x_hi: int, level_cap: int
) -> dict[HoroPoint, int]:
    """Single-source BFS distances within the box [x_lo, x_hi] x [0, level_cap]."""
    if not (x_lo <= src.x <= x_hi and 0 <= src.level <= level_cap):
        raise ValueError("source outside the BFS box")
    dist = {}
    # per level, the sorted x coordinates not yet visited; horizontal
    # expansion pops a contiguous range, so every vertex is touched once
    unvisited = [list(range(x_lo, x_hi + 1)) for _ in range(level_cap + 1)]

    def pop_range(level: int, lo: int, hi: int) -> list[int]:
        row = unvisited[level]
        i = bisect.bisect_left(row, lo)
        j = bisect.bisect_right(row, hi)
        out = row[i:j]
        del row[i:j]
        return out

    pop_range(src.level, src.x, src.x)
    dist[src] = 0
    queue = deque([src])
    while queue:
        cur = queue.popleft()
        d = dist[cur] + 1
        w = width(cur.level)
        for x in pop_range(cur.level, cur.x - w, cur.x + w):
            pt = HoroPoint(x, cur.level)
            dist[pt] = d
            queue.append(pt)
        for lvl in (cur.level - 1, cur.level + 1):
            if 0 <= lvl <= level_cap:
                got = pop_range(lvl, cur.x, cur.x)
                if got:
                    pt = HoroPoint(cur.x, lvl)
                    dist[pt] = d
                    queue.append(pt)
    return dist


def horo_distance_bfs(
    u: HoroPoint, v: HoroPoint, margin: int = 8, level_margin: int = 6
) -> int:
    """BFS distance in a box that covers the endpoints with a margin."""
    x_lo = min(u.x, v.x) - margin
    x_hi = max(u.x, v.x) + margin
    cap = max(u.level, v.level) + level_margin + _apex_headroom(abs(u.x - v.x))
    return horo_distances_from(u, x_lo, x_hi, cap)[v]


def _apex_headroom(gap: int) -> int:
    return max(2, int(math.log(gap + 1)) + 2)


# ---------------------------------------------------------------------------
# Flowed Anosov torus.
# ---------------------------------------------------------------------------


def flowed_anosov_slope(u: float) -> Slope:
    """Systole slope of the Anosov torus flowed by u, flowed in longdouble."""
    g = anosov_torus().matrix()
    d = np.diag([np.exp(np.longdouble(u)), np.exp(np.longdouble(-u))])
    return shortest_slope(d @ g)[0]
