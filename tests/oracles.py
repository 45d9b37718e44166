"""Brute-force references that the exact closed forms and walks in
``coarse_teich`` are checked against.  Breadth-first searches over the raw
graphs: independent of the package's fan walks and horoball apex scan,
and exact only inside their caps or boxes.  The apex scan over every
level, before the package's scan skipped the levels that provably lose.  The slot distance as a
Dijkstra search over the slopes of the bases' pivot region, the package's
algorithm before the weighted fan walk replaced it.  Plus the whole list
of elementary moves that ``nth_move`` indexes, the move relation decided
block by block, the slope boxes the tests enumerate, and the lattice
reduction in longdouble, the reference for the package's double-precision
one and, on the Anosov torus flowed in longdouble, for its Fibonacci
systole family, with that family in closed form.  The marked flat torus,
the Anosov torus and its flow, the geometric reference for the plain
basis tuples that the package flows and reduces.  And the flat rows' formula
terms evaluated one candidate at a time: the snapshot formula in one pass,
before its split into formula sides, and the distance to the
swap-fixed locus as the minimum of that formula over every candidate.
The slot swap as a rotated snapshot, and the orbit diameter against it
read from a table of the snapshot's Farey distances, as the flat rows
computed it before each row was read from one slot pair and one gluing
pair.
And the search seed as the short-curve reduction built it, before its
closed form, and the staged search that fixed_point_search reduces to two
twists: one multitwist per symmetric family, each stage reading its
exponent and residuals off the orbits' points.
"""

from __future__ import annotations

import bisect
import heapq
import math
from collections import deque
from dataclasses import dataclass
from statistics import fmean
from typing import Callable, Iterable, Iterator, Optional

import numpy as np

from coarse_teich.horoball import HoroPoint, horo_distance, width
from coarse_teich.marking import (
    AugMarking,
    CurveRef,
    Glue,
    GlueBlock,
    InSlot,
    SlotBlock,
    _block_distance,
    act_curve,
)
from coarse_teich.metrics import (
    CurveSnap,
    Snapshot,
    Thresholds,
    formula_terms,
    group_symmetric_families,
    rafi_side,
    rafi_total,
)
from coarse_teich.projection import annulus_point
from coarse_teich.search import seed_marking, short_cut
from coarse_teich.slots import (
    Slope,
    TwistWord,
    _twist_coordinate,
    complement,
    farey_distance,
    intersection,
    pivot_region,
    transversal_at,
    twist,
    twist_coordinate,
)


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


def is_elementary_move(a: AugMarking, b: AugMarking) -> bool:
    """True iff exactly one block differs, by a flip at level 0 or by one
    edge of the block's horoball.  O(k); enumerates no neighbours."""
    if a.k != b.k:
        return False
    changed = [(x, y) for x, y in zip(a.glue + a.slots, b.glue + b.slots) if x != y]
    if len(changed) != 1:
        return False
    x, y = changed[0]
    if isinstance(x, SlotBlock) and x.base != y.base:
        return x.D == y.D == 0 and (x.base, x.trans) == (y.trans, y.base)
    return _block_distance(x, y) == 1


# ---------------------------------------------------------------------------
# Slot graph: breadth-first within a cap, and the pivot-region search.
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


def slot_distance_pivot_dijkstra(s: SlotBlock, t: SlotBlock) -> int:
    """Slot-graph distance by a shortest-path search over states (slope,
    previous slope), with the slopes of pivot_region(s.base, t.base) as
    vertices: one flip per Farey edge, one closed-form horoball leg per
    horoball from the point facing the previous slope to the one facing the
    next.  On a shared base, that base's horoball distance."""
    start = HoroPoint(twist_coordinate(s.base, s.trans), s.D)
    goal = HoroPoint(twist_coordinate(t.base, t.trans), t.D)
    if s.base == t.base:
        return horo_distance(start, goal)
    region = pivot_region(s.base, t.base)
    # coords[i][j]: twist coordinate of region[j] in H_region[i], over the
    # Farey neighbours j of i in the region
    coords = []
    for g in region:
        t0 = complement(g)
        coords.append(
            {j: _twist_coordinate(g, t0, h) for j, h in enumerate(region) if intersection(g, h) == 1}
        )
    src, dst = region.index(s.base), region.index(t.base)
    heap = [(horo_distance(start, HoroPoint(x, 0)) + 1, j, src) for j, x in coords[src].items()]
    heapq.heapify(heap)
    done = set()
    best = math.inf
    while heap:
        d, i, prev = heapq.heappop(heap)
        if d >= best:
            break
        if (i, prev) in done:
            continue
        done.add((i, prev))
        entry = HoroPoint(coords[i][prev], 0)
        if i == dst:
            best = min(best, d + horo_distance(entry, goal))
        for j, x in coords[i].items():
            if j != prev:
                heapq.heappush(heap, (d + 1 + horo_distance(entry, HoroPoint(x, 0)), j, i))
    return best


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


def apex_scan_every_level(u: HoroPoint, v: HoroPoint) -> tuple[int, int]:
    """(distance, apex) of the best up-across-down path, scanning every apex
    level from the higher endpoint's up: the package's scan before it
    skipped the levels that provably lose.  Ties go to the lowest level."""
    gap = abs(u.x - v.x)
    lo = max(u.level, v.level)
    if gap == 0:
        return abs(u.level - v.level), lo
    nbits = gap.bit_length()
    best = apex = None
    level = lo
    while True:
        w = width(level) if level < nbits else gap
        cost = (level - u.level) + (level - v.level) + -(-gap // w)  # ceil
        if best is None or cost < best:
            best, apex = cost, level
        if w >= gap:
            return best, apex
        level += 1


# ---------------------------------------------------------------------------
# Flowed Anosov torus.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FlatTorus:
    """Marked flat torus; basis = (v1, v2), the lattice generators as (x, y)."""

    basis: tuple[tuple[float, float], tuple[float, float]]

    def __post_init__(self):
        d = self.det
        if abs(d) < 1e-12:
            raise ValueError("degenerate lattice basis")
        if d < 0:
            (v1, (x, y)) = self.basis
            object.__setattr__(self, "basis", (v1, (-x, -y)))

    @property
    def det(self) -> float:
        (a, c), (b, d) = self.basis
        return a * d - c * b

    @property
    def area(self) -> float:
        return abs(self.det)


def anosov_torus() -> FlatTorus:
    """Unit-area torus whose marking diagonalizes [[2,1],[1,1]].

    The expanding eigendirection (eigenvalue (3+sqrt 5)/2) maps to the
    vertical axis, so remarking by the matrix equals flowing by -log lambda.
    """
    gamma = (1 + math.sqrt(5)) / 2
    quarter = 5 ** -0.25
    v1 = (quarter / gamma, quarter * gamma)
    v2 = (-quarter, quarter)
    return FlatTorus((v1, v2))


def flowed_anosov(t: float) -> FlatTorus:
    """The Anosov torus flowed by diag(e^t, e^-t), in double precision."""
    return FlatTorus(
        tuple((x * math.exp(t), y * math.exp(-t)) for x, y in anosov_torus().basis)
    )


def shortest_slope_longdouble(basis) -> tuple[Slope, float]:
    """Shortest primitive class of the lattice with basis vectors
    ((x1, y1), (x2, y2)) and its length: Lagrange reduction in longdouble,
    with the same swap test, rounding, guard and tie rule as
    flatsim.shortest_slope."""
    v1, v2 = np.array(basis, dtype=np.longdouble)
    c1, c2 = (1, 0), (0, 1)
    for _ in range(256):
        if v2 @ v2 < v1 @ v1:
            v1, v2 = v2, v1
            c1, c2 = c2, c1
        mu = int(round(float((v1 @ v2) / (v1 @ v1))))
        if mu == 0:
            break
        v2 = v2 - mu * v1
        c2 = (c2[0] - mu * c1[0], c2[1] - mu * c1[1])
    else:
        raise ArithmeticError("lattice reduction did not terminate")
    return Slope.of(*c1), float(math.sqrt(float(v1 @ v1)))


def flowed_anosov_systole(u: float) -> tuple[Slope, float]:
    """Systole of the Anosov torus flowed by u, flowed and reduced in
    longdouble."""
    flow = np.array([np.exp(np.longdouble(u)), np.exp(np.longdouble(-u))])
    return shortest_slope_longdouble(
        np.array(anosov_torus().basis, dtype=np.longdouble) * flow
    )


def flowed_anosov_slope(u: float) -> Slope:
    return flowed_anosov_systole(u)[0]


def fibonacci_slope(n: int) -> Slope:
    """Closed-form systole family: class (F_{n+1}, F_n), n ranging over Z."""
    a, b = 1, 0  # (F_1, F_0)
    if n >= 0:
        for _ in range(n):
            a, b = a + b, a
    else:
        for _ in range(-n):
            a, b = b, a - b
    return Slope.of(a, b)


# ---------------------------------------------------------------------------
# The flat rows' formula, one candidate at a time.
# ---------------------------------------------------------------------------


def rafi_formula_one_pass(s1: Snapshot, s2: Snapshot, th: Thresholds) -> float:
    """The snapshot distance in one pass, a Farey walk per slot.  Gluing
    curves are points at twist 0 of their horoballs; with no twist, their
    log-twist term is 0 and is left out."""
    if s1.k != s2.k or len(s1.glue) != len(s2.glue):
        raise ValueError("snapshot shapes differ")
    total = 0.0
    for a, b in zip(s1.slots, s2.slots):
        dist = farey_distance(a.slope, b.slope)
        total += dist if dist > th.K else 0
    horo_terms: list[float] = []
    one_sided: list[float] = []
    for a, b in zip(s1.glue, s2.glue):
        sa, sb = a.neg_log_ext > 1.0, b.neg_log_ext > 1.0
        if sa and sb:
            pa = HoroPoint(0, max(0, math.floor(a.neg_log_ext)))
            pb = HoroPoint(0, max(0, math.floor(b.neg_log_ext)))
            horo_terms.append(horo_distance(pa, pb))
        elif sa or sb:
            one_sided.append(a.neg_log_ext if sa else b.neg_log_ext)
    for a, b in zip(s1.slots, s2.slots):
        sa, sb = a.neg_log_ext > 1.0, b.neg_log_ext > 1.0
        if sa and sb and a.slope == b.slope:
            pa = HoroPoint(0, max(0, math.floor(a.neg_log_ext)))
            pb = HoroPoint(0, max(0, math.floor(b.neg_log_ext)))
            horo_terms.append(horo_distance(pa, pb))
        else:
            if sa:
                one_sided.append(a.neg_log_ext)
            if sb:
                one_sided.append(b.neg_log_ext)
    if horo_terms:
        total += max(horo_terms)
    if one_sided:
        total += max(one_sided)
    return total


def rafi_side_by_pairs(
    pairs: Iterable[tuple[CurveSnap, CurveSnap]],
    th: Thresholds,
    farey: Callable[[Slope, Slope], int],
) -> tuple[int, int, float]:
    """rafi_side as one loop over the pairs, with no per-pair kernel: the
    thresholded Farey sum, then the largest horoball and one-sided terms."""
    slot_term = horo = 0
    one_sided = 0.0
    for a, b in pairs:
        sa, sb = a.neg_log_ext > 1.0, b.neg_log_ext > 1.0
        if a.slope != b.slope:
            dist = farey(a.slope, b.slope)
            slot_term += dist if dist > th.K else 0
        elif sa and sb:
            gap = abs(math.floor(a.neg_log_ext) - math.floor(b.neg_log_ext))
            horo = max(horo, gap)
            continue
        if sa:
            one_sided = max(one_sided, a.neg_log_ext)
        if sb:
            one_sided = max(one_sided, b.neg_log_ext)
    return slot_term, horo, one_sided


def distance_to_fixed_per_candidate(snap: Snapshot, th: Thresholds) -> float:
    """Distance to the swap-fixed locus: the minimum of the one-pass formula
    over the k * g symmetrized candidates, each evaluated in full."""
    k = snap.k
    best = math.inf
    for i in range(k):
        for j in range(len(snap.glue)):
            cand = Snapshot((snap.slots[i],) * k, (snap.glue[j],) * len(snap.glue))
            best = min(best, rafi_formula_one_pass(snap, cand, th))
    return best


def rotate_snapshot(r: int, snap: Snapshot) -> Snapshot:
    """snap with its slots and its gluing curves rotated r places."""
    k = snap.k
    return Snapshot(
        tuple(snap.slots[(i - r) % k] for i in range(k)),
        tuple(snap.glue[(j - r) % len(snap.glue)] for j in range(len(snap.glue))),
    )


# the Farey distance of two distinct slopes, as rafi_side reads it
FareyLookup = Callable[[Slope, Slope], int]


def farey_lookup(snap: Snapshot) -> FareyLookup:
    """The Farey distance between any two distinct slot slopes of snap,
    each unordered pair walked once, here."""
    slopes = list(dict.fromkeys(s.slope for s in snap.slots))
    table = {}
    for i, a in enumerate(slopes):
        for b in slopes[i + 1 :]:
            table[a, b] = table[b, a] = farey_distance(a, b)
    return lambda a, b: table[a, b]


def swap_distance(snap: Snapshot, th: Thresholds, farey: FareyLookup) -> tuple[float, int]:
    """rafi_formula(snap, rotate_snapshot(1, snap), th) and its slot term,
    read from farey, the snapshot's farey_lookup."""
    swapped = rotate_snapshot(1, snap)
    slot = rafi_side(zip(snap.slots, swapped.slots), th, farey)
    return rafi_total(slot, rafi_side(zip(snap.glue, swapped.glue), th, farey)), slot[0]


# ---------------------------------------------------------------------------
# The search seed by the short-curve reduction.
# ---------------------------------------------------------------------------


def short_curve_reduced_seed(mu: AugMarking, th: Thresholds) -> AugMarking:
    """The seed at twist 0 (slot 0's base and level, the rounded mean gluing
    level), then one symmetric multitwist per short orbit, one with a level
    above short_cut(th), cancelling mu's offset at block 0.  A short orbit
    that collapses, to another base in some slot or to a level more than
    th.R + 2 below the orbit's max, raises ValueError."""
    k, cut = mu.k, short_cut(th)
    s0 = mu.slots[0]
    level = math.floor(fmean(g.D for g in mu.glue) + 0.5)
    x = AugMarking(
        (GlueBlock(0, level),) * k, (SlotBlock(s0.base, transversal_at(s0.base, 0), s0.D),) * k
    )
    cores = []
    glue_levels = [g.D for g in mu.glue]
    if max(glue_levels) > cut:
        if min(glue_levels) < max(glue_levels) - th.R - 2:
            raise ValueError(f"gluing levels {glue_levels} are short on one index only")
        cores.append(Glue(0))
    slot_levels = [s.D for s in mu.slots]
    if max(slot_levels) > cut:
        base = mu.slots[slot_levels.index(max(slot_levels))].base
        if any(s.base != base for s in mu.slots):
            raise ValueError(f"short base {base} is not the base of every slot")
        if min(slot_levels) < max(slot_levels) - th.R - 2:
            raise ValueError(f"slot levels {slot_levels} are short on one index only")
        cores.append(InSlot(0, base))
    for core in cores:
        x, _ = cancel_offset_by_points(x, core, mu)
    return x


def cancel_offset_by_points(
    x: AugMarking, core: CurveRef, mu: AugMarking
) -> tuple[AugMarking, int]:
    """(x', d): x after the stage multitwist, the same power d about every
    rotate of core, with d read as mu's annulus_point over core minus x's;
    x itself when d == 0.  A twist fixes its core, so a slot based on the
    core keeps its base and its transversal's twist coordinate moves by d."""
    d = annulus_point(core, mu).x - annulus_point(core, x).x
    if not d:
        return x, d
    if isinstance(core, Glue):
        return AugMarking(tuple(GlueBlock(g.tau + d, g.D) for g in x.glue), x.slots), d
    word = TwistWord(core.slope, d)
    return AugMarking(x.glue, tuple(
        SlotBlock(twist(word, blk.base), twist(word, blk.trans), blk.D) for blk in x.slots
    )), d


def orbit_points(c: CurveRef, m: AugMarking) -> list[HoroPoint]:
    """annulus_point over the rotates act_curve(r, c, k), r = 0..k-1; for a
    block-0 core, such as a symmetric family's, that is index order."""
    return [annulus_point(act_curve(r, c, m.k), m) for r in range(m.k)]


def search_stages_by_points(
    mu: AugMarking, th: Thresholds
) -> list[tuple[CurveRef, int, tuple[int, ...], AugMarking]]:
    """(core, exponent, residuals, marking_after) of each stage of the
    staged search on a certified, unfixed mu: one stage per symmetric
    family, in the families' order, each computed from the points of the
    orbits: cancel_offset_by_points, then the horoball distances between
    mu's orbit_points over the core and the new x's.  fixed_point_search
    keeps the gluing stage and the stage about mu's slot-0 base, and proves
    that every other stage has exponent 0."""
    x = seed = seed_marking(mu, th)
    stages = []
    for fam in group_symmetric_families(mu, seed, formula_terms(mu, seed, th), th):
        x, d = cancel_offset_by_points(x, fam.core, mu)
        residuals = tuple(map(horo_distance, orbit_points(fam.core, mu), orbit_points(fam.core, x)))
        stages.append((fam.core, d, residuals, x))
    return stages
