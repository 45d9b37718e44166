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
from dataclasses import dataclass
from decimal import MAX_EMAX, Context, Decimal
from functools import lru_cache

__all__ = [
    "HoroPoint",
    "HoroballMetricReport",
    "width",
    "horo_distance",
    "horo_normal_path",
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


@lru_cache(maxsize=None)
def width(level: int) -> int:
    """Horizontal reach floor(e^level) at a given level, exact; width(0) == 1."""
    if level < 0:
        raise ValueError("negative level")
    if level == 0:
        # e^0 is the only rational power: the bracket below would never close
        return 1
    # e^level is irrational, so at some precision the bracket has a single
    # integer floor
    prec = level // 2 + 20
    while True:
        lo, hi = _exp_bracket(level, prec)
        if lo == hi:
            return lo
        prec *= 2


def _exp_bracket(level: int, prec: int) -> tuple[int, int]:
    """Integers lo <= floor(e^level) <= hi: the correctly rounded Decimal
    exp at prec digits, widened by one unit in the last place each way."""
    _, digits, exp = Decimal(level).exp(Context(prec=prec, Emax=MAX_EMAX)).as_tuple()
    # through Decimal, not str: no int-string digit limit at deep levels
    mant = int(Decimal((0, digits, 0)))
    if exp < 0:
        scale = 10**-exp
        return (mant - 1) // scale, (mant + 1) // scale
    scale = 10**exp
    return (mant - 1) * scale, (mant + 1) * scale


def _apex_scan(u: HoroPoint, v: HoroPoint) -> tuple[int, int]:
    """(distance, apex): scan apex levels for up-across-down paths.

    Ties go to the lowest apex level.  The scan skips levels that provably
    lose.  Widths at least double per level, as floor(e*y) >= 2*floor(y)
    for y >= 1.  So with a = gap / width(L), apex L + 1 takes at most
    ceil(a / 2) < a / 2 + 1 horizontal steps, and apex L costs at least
    ceil(a) - 2 - ceil(a / 2) > a / 2 - 3 more than apex L + 1: strictly
    more once 6 * width(L) <= gap.  That holds whenever L <= ln(gap) - 2,
    as width(L) <= e^L.  n = (nbits - 1) * 693 // 1000 is at most
    (nbits - 1) * ln 2 <= ln(gap), so every level below n - 3 costs more
    than the next, and the scan starts at max(lo, n - 3).
    """
    gap = abs(u.x - v.x)
    lo = max(u.level, v.level)
    if gap == 0:
        return abs(u.level - v.level), lo
    # floor(e^level) >= 2^level > gap once level reaches gap's bit length
    nbits = gap.bit_length()
    best = apex = None
    # below 2^16 the skipped window is a few levels, not worth the arithmetic
    level = lo if nbits <= 16 else max(lo, (nbits - 1) * 693 // 1000 - 3)
    while True:
        w = _reach(gap, level) if level < nbits else gap
        cost = (level - u.level) + (level - v.level) + -(-gap // w)  # ceil
        if best is None or cost < best:
            best, apex = cost, level
        if w >= gap:
            return best, apex
        level += 1


def _reach(gap: int, level: int) -> int:
    """width(level), or a stand-in with the same ceil(gap / w) and w >= gap.

    Past level 500 that is the low end of a 40-digit bracket of e^level
    whose ends agree on both.  A cached width costs about 0.1 us and a
    bracket 30-60 us, but a first width costs about ten brackets at level
    500 and grows as level^2 (7 ms at 1,000, 0.24 s at 4,000; 2-vCPU Xeon,
    Python 3.11.7), so only deep levels read the bracket first.
    """
    if level > 500:
        lo, hi = _exp_bracket(level, 40)
        if -(-gap // lo) == -(-gap // hi) and (lo >= gap) == (hi >= gap):
            return lo
    return width(level)


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
# Comparison against the hyperbolic horodisk y >= 1: (x, level) -> x + i e^level.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HoroballMetricReport:
    """Distortion of the graph metric against the hyperbolic horodisk."""

    pairs: int
    max_mult: float  # max ratio over pairs with both distances >= 1
    max_add: float  # max |graph - hyperbolic| over all pairs


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
