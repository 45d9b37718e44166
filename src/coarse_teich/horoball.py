"""Combinatorial horoball over the integers.

Vertices are (x, level) with level >= 0.  Horizontal edges at level m join
x and y when 0 < |x - y| <= floor(e^m); vertical edges join (x, m) and
(x, m+1).  All edges have length one.  Distances are exact: any path whose
highest level is L spends at least (L - m1) + (L - m2) vertical steps and
ceil(|x1 - x2| / floor(e^L)) horizontal ones, and the up-across-down path
at the best apex level realizes that bound.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from decimal import MAX_EMAX, Context, Decimal
from functools import lru_cache

__all__ = [
    "HoroPoint",
    "HoroballMetricReport",
    "width",
    "horo_distance",
    "horo_normal_path",
    "horo_distance_bfs",
    "horo_distances_from",
    "compare_to_horodisk",
]


@dataclass(frozen=True, order=True)
class HoroPoint:
    """A horoball vertex: integer position x at a depth level >= 0."""

    x: int
    level: int

    def __post_init__(self) -> None:
        if self.level < 0:
            raise ValueError(f"negative horoball level {self.level}")

    def to_json(self) -> dict:
        return {"x": self.x, "level": self.level}

    @staticmethod
    def from_json(obj: dict) -> "HoroPoint":
        return HoroPoint(int(obj["x"]), int(obj["level"]))


@lru_cache(maxsize=None)
def width(level: int) -> int:
    """Horizontal reach floor(e^level) at a given level, exact; width(0) == 1."""
    if level < 0:
        raise ValueError("negative level")
    if level == 0:
        # e^0 is the only rational power: the bracket below would never close
        return 1
    # e^level is irrational, so at some precision the correctly rounded
    # Decimal exp, widened by one unit in the last place each way, has a
    # single integer floor
    prec = level // 2 + 20
    while True:
        ctx = Context(prec=prec, Emax=MAX_EMAX)
        _, digits, exp = Decimal(level).exp(ctx).as_tuple()
        mant = int("".join(map(str, digits)))
        if exp < 0:
            scale = 10**-exp
            lo, hi = (mant - 1) // scale, (mant + 1) // scale
            if lo == hi:
                return lo
        prec *= 2


def _apex_scan(u: HoroPoint, v: HoroPoint) -> tuple[int, int]:
    """(distance, apex): scan apex levels for up-across-down paths.

    Ties go to the lowest apex level.
    """
    gap = abs(u.x - v.x)
    lo = max(u.level, v.level)
    if gap == 0:
        return abs(u.level - v.level), lo
    best = apex = None
    level = lo
    while True:
        w = width(level)
        cost = (level - u.level) + (level - v.level) + -(-gap // w)  # ceil
        if best is None or cost < best:
            best, apex = cost, level
        if w >= gap:
            return best, apex
        level += 1


def horo_distance(u: HoroPoint, v: HoroPoint) -> int:
    """Exact graph distance: the cost of the best up-across-down path."""
    return _apex_scan(u, v)[0]


def horo_normal_path(u: HoroPoint, v: HoroPoint) -> list[HoroPoint]:
    """An up-across-down geodesic witness; length == horo_distance(u, v)."""
    apex = _apex_scan(u, v)[1]
    path = [u]
    for lvl in range(u.level + 1, apex + 1):
        path.append(HoroPoint(u.x, lvl))
    x = u.x
    step = width(apex)
    direction = 1 if v.x >= u.x else -1
    while x != v.x:
        x += direction * min(step, abs(v.x - x))
        path.append(HoroPoint(x, apex))
    for lvl in range(apex - 1, v.level - 1, -1):
        path.append(HoroPoint(v.x, lvl))
    return path


# ---------------------------------------------------------------------------
# BFS oracle.  Breadth-first search in the box
# [min(x)-margin, max(x)+margin] x [0, level_cap]; level-wise "next
# unvisited" pointers keep it near-linear despite the wide horizontal edges.
# ---------------------------------------------------------------------------


def horo_distances_from(
    src: HoroPoint, x_lo: int, x_hi: int, level_cap: int
) -> dict[HoroPoint, int]:
    """Single-source BFS distances within the box (independent oracle)."""
    if not (x_lo <= src.x <= x_hi and 0 <= src.level <= level_cap):
        raise ValueError("source outside the BFS box")
    import bisect

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

    # remove the source
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
    """Independent BFS distance; box covers the endpoints with a margin."""
    x_lo = min(u.x, v.x) - margin
    x_hi = max(u.x, v.x) + margin
    cap = max(u.level, v.level) + level_margin + _apex_headroom(abs(u.x - v.x))
    return horo_distances_from(u, x_lo, x_hi, cap)[v]


def _apex_headroom(gap: int) -> int:
    return max(2, int(math.log(gap + 1)) + 2)


# ---------------------------------------------------------------------------
# Comparison against the hyperbolic horodisk y >= 1: (x, level) -> x + i e^level.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HoroballMetricReport:
    """Distortion of the graph metric against the hyperbolic horodisk."""

    pairs: int
    max_mult: float  # max ratio over pairs with both distances >= 1
    max_add: float  # max |graph - hyperbolic| over all pairs

    def to_json(self) -> dict:
        return {
            "pairs": self.pairs,
            "max_mult": self.max_mult,
            "max_add": self.max_add,
        }


def _hyperbolic_distance(dx: float, y1: float, y2: float) -> float:
    return math.acosh(1.0 + (dx * dx + (y1 - y2) ** 2) / (2.0 * y1 * y2))


def compare_to_horodisk(x_max: int, level_max: int) -> HoroballMetricReport:
    """Distortion report over all pairs in the |x| <= x_max, level <= level_max grid.

    The graph and hyperbolic distances both depend only on (|dx|, m1, m2),
    so the scan is linear in x_max * level_max^2 rather than quadratic in
    the number of grid points.
    """
    xs = 2 * x_max + 1
    pairs = 0
    max_mult = 1.0
    max_add = 0.0
    for m1 in range(level_max + 1):
        for m2 in range(m1, level_max + 1):
            y1, y2 = math.exp(m1), math.exp(m2)
            for gap in range(0, 2 * x_max + 1):
                # grid pairs realizing this (gap, m1, m2) class
                pairs += xs - gap
                dg = horo_distance(HoroPoint(0, m1), HoroPoint(gap, m2))
                dh = _hyperbolic_distance(float(gap), y1, y2)
                if dg >= 1 and dh >= 1:
                    ratio = max(dg / dh, dh / dg)
                    if ratio > max_mult:
                        max_mult = ratio
                diff = abs(dg - dh)
                if diff > max_add:
                    max_add = diff
    return HoroballMetricReport(pairs=pairs, max_mult=max_mult, max_add=max_add)
