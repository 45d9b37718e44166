"""Thresholded distance formulas and the path machinery built on them.

The move distance between augmented markings is coarsely the sum, over
subsurfaces, of the projection distances that exceed a threshold K.  Only
finitely many subsurfaces can carry a term: the slots, the gluing annuli,
the annuli over the slot base slopes, and the annuli over the pivots and
rims of the fans of the continued fraction between the slot bases; every
other annulus provably stays below a small constant.

Every row but the whole surface's reads one block pair: the annulus of
gluing curve j reads the two gluing blocks j, and slot i and the annuli
over its pivot region read the two slot blocks i.  The model is a product
of these blocks, so an equal block pair contributes only zero rows: its
slot row is the Farey distance of a slope to itself, its pivot region is
its one base slope, and its annulus row compares a horoball point with
itself.  formula_terms lists every row, and the distance sums skip those
zero rows, reading only the whole surface and the block pairs that
differ.  The annulus rows of a slot pair come from one walk over the
fans between its bases, and complement is read only at ties.

On top of the formulas sit large-link enumeration, the grouping of links
into orbits of the cyclic symmetry (with the symmetry assertions whose
failure certifies that the input was not almost fixed), a canonical
elementary-move path, and active segments of subsurfaces along paths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

from .horoball import HoroPoint, _apex_scan, horo_normal_path
from .marking import (
    AugMarking,
    CurveRef,
    Glue,
    GlueBlock,
    InSlot,
    SlotBlock,
    _block_distance,
    act_curve,
    check_same_surface,
)
from .projection import (
    Annulus,
    Slot,
    SubsurfaceRef,
    Whole,
    _check_index,
    _orbit_pairs,
    _whole_distance,
)
from .slots import (
    Slope,
    _denormalized,
    _framed,
    _nearest,
    _normalized,
    _region,
    complement,
    farey_distance,
    farey_geodesic,
    intersection,
    pivot_region,
    transversal_at,
    twist_coordinate,
)

__all__ = [
    "Thresholds",
    "LargeLink",
    "SymmetricFamily",
    "SymmetryViolationError",
    "Snapshot",
    "CurveSnap",
    "annular_candidates",
    "formula_terms",
    "formula_distance_T",
    "formula_distance_WP",
    "rafi_formula",
    "rafi_pair",
    "rafi_side",
    "rafi_total",
    "large_links",
    "group_symmetric_families",
    "canonical_path",
    "active_segment",
]


class SymmetryViolationError(ValueError):
    """group_symmetric_families found a large link whose orbit is not a
    symmetric family: a value below the orbit max by more than
    th.comparability, or a slot link past th.slot_link_scale.

    Against an exactly fixed target with mu's slot-0 base, as the search's
    seed, neither can happen for an input with orbit diameter at most th.R:
    both bounds are derived from the thresholds, K included.
    """


@dataclass(frozen=True)
class Thresholds:
    """Cutoffs: K for formula terms, K_hat for symmetric links, R for orbits."""

    K: int = 3
    K_hat: int = 4
    R: int = 10

    def __post_init__(self) -> None:
        if not 1 <= self.K <= self.K_hat:
            raise ValueError("need K_hat >= K >= 1")
        if self.R < 1:
            raise ValueError("need R >= 1")

    # The search's bounds, each derived from the cutoffs.  "mu" is a marking
    # whose orbit diameter is at most R, and a "row" of mu is a raw formula
    # row of a pair (mu, act(r, mu)).  At block j it compares mu's block j
    # with mu's block j - r, since act moves block i to index i + r.

    @property
    def row_bound(self) -> int:
        """max(K, R): no row of mu exceeds it.

        The certificate sums the rows above K, each >= 0, so such a row is
        at most R, and any other row is at most K.  A slot annulus whose
        slope is off the pivot region of the two bases carries no row, and
        its projection distance is at most 1 <= R, the module docstring's
        small constant (tests/test_search.py checks it on a box of slopes).
        """
        return max(self.K, self.R)

    @property
    def comparability(self) -> int:
        """row_bound + 2: how far below its orbit's max a family value of
        group_symmetric_families may read.

        Against an exactly fixed target every value compares mu's point
        over its curve with one and the same target point.  By the triangle
        inequality two values then differ by at most the distance between
        mu's points over the two curves, a projection distance of a pair
        (mu, act(r, mu)), so at most row_bound.  The 2 on top is slack that
        keeps the comparability at R + 2 whenever K <= R.
        """
        return self.row_bound + 2

    @property
    def slot_link_scale(self) -> int:
        """row_bound + comparability: the largest slot link that
        group_symmetric_families accepts.

        Against a fixed target with mu's slot-0 base, as seed_marking is,
        slot i's link is the Farey distance from mu's slot-i base to its
        slot-0 base, a row of mu, so at most row_bound.  The comparability
        on top admits a fixed target whose base is that far off mu's slot-0
        base.  Whenever K <= R the scale is 2R + 2.
        """
        return self.row_bound + self.comparability

    def stage_bound(self, level_shift: int) -> int:
        """row_bound + level_shift: the largest residual of a stage of
        fixed_point_search whose core's level differs by level_shift
        between mu and the stage's output x.  A family that the search
        does not twist has level shift 0, and its residuals are its values.

        Residual j compares mu's point over the curve c_j with x's,
        which is x's point over c_0, as x is fixed.  Through mu's point over
        c_0 it is at most the distance between mu's points over c_j and c_0,
        a projection distance of (mu, act(j, mu)) and so at most row_bound,
        plus the core's residual.  Once the stage has cancelled
        the twist offset, that residual is the level shift alone: 0 over a
        slot slope (the seed keeps slot 0's level, and a slope other than
        the base reads level 0), and |D_0 - D| over the gluing curve, where
        the seed's level D is the rounded mean of mu's gluing levels.
        """
        return self.row_bound + level_shift

    def final_bound(self, k: int) -> int:
        """D(k, th) = (k - 1) * R + k * (max(K + row_bound, K_hat) + K_hat):
        the largest final distance of fixed_point_search on k slots.

        The output x is fixed and has mu's slot-0 base, so most rows of
        (mu, x) at block j are those of (mu, act(j, mu)), which compare
        block j with block 0, and its whole-surface row is that of
        (mu, act(1, mu)).  Together these sum to at most (k - 1) * R.  Two
        kinds of rows may differ, one of each per block:
        - The gluing row.  After the gluing stage, or over a short gluing
          orbit, x's block is mu's block 0 at the seed's level D, and
          s = |D_0 - D| <= row_bound: each |D_j - D_0| is at most a row,
          and rounding the mean keeps it between the same integer bounds.
          So the row is at most its act row plus s, and its thresholded
          value exceeds the act row's by at most K + s.  With no gluing
          family the row is at most K_hat.  Together: k * max(K + row_bound,
          K_hat).
        - The row over the slot-0 base.  After the base stage, or over a
          short slot orbit, x's slot block is mu's slot 0, so it is the act
          row; with no base family it is at most K_hat.  Together: k * K_hat.
        """
        return (k - 1) * self.R + k * (max(self.K + self.row_bound, self.K_hat) + self.K_hat)


@dataclass(frozen=True)
class LargeLink:
    """A subsurface whose projection distance exceeds the production cut."""

    subsurface: SubsurfaceRef
    value: int


@dataclass(frozen=True)
class SymmetricFamily:
    """An orbit of annular large links under the cyclic symmetry: its core,
    the block-0 curve Glue(0) or InSlot(0, slope), the projection distance
    over each rotate of the core, and mu's point over each rotate as an
    (x, level) int pair, both listed by block index.  fixed_point_search
    reads a twist's residuals off mu_orbit; the trace's JSON leaves mu_orbit
    out."""

    core: CurveRef
    values: tuple[int, ...]
    time_index: int
    mu_orbit: tuple[tuple[int, int], ...]


# ---------------------------------------------------------------------------
# Distance formulas.
# ---------------------------------------------------------------------------


def _cut(value: int | float, threshold: int | float) -> int | float:
    return value if value > threshold else 0


def annular_candidates(m1: AugMarking, m2: AugMarking) -> list[CurveRef]:
    """The finite annulus list able to carry a formula term for this pair.

    No runtime code calls it: _raw_rows walks slots._region instead.  It
    stays as the tests' statement of which annuli the formula reads, and
    because the layer tracer of perfbench/tracer.py times it by name.
    """
    out: list[CurveRef] = [Glue(j) for j in range(m1.k)]
    for i in range(m1.k):
        # pivot_region lists each slope once
        b1, b2 = m1.slots[i].base, m2.slots[i].base
        out.extend(InSlot(i, s) for s in pivot_region(b1, b2))
    return out


def _raw_rows(m1: AugMarking, m2: AugMarking) -> list[tuple[SubsurfaceRef, int]]:
    """(subsurface, projection distance): the whole surface, the slots, then
    every annular candidate in order, each block pair's rows from
    _block_rows."""
    check_same_surface(m1, m2)
    glue = [_block_rows(j, g, h) for j, (g, h) in enumerate(zip(m1.glue, m2.glue))]
    slots = [_block_rows(i, s, t) for i, (s, t) in enumerate(zip(m1.slots, m2.slots))]
    rows = [(Whole(), _whole_distance(m1, m2))]
    rows.extend(r[0] for r in slots)
    for r in glue:
        rows.extend(r)
    for r in slots:
        rows.extend(r[1:])
    return rows


def _differing_rows(m1: AugMarking, m2: AugMarking) -> list[tuple[SubsurfaceRef, int]]:
    """The whole surface's row, then the rows of each block pair that
    differs; every row left out reads an equal pair and is 0."""
    check_same_surface(m1, m2)
    rows = [(Whole(), _whole_distance(m1, m2))]
    for blocks in (zip(m1.glue, m2.glue), zip(m1.slots, m2.slots)):
        for i, (x, y) in enumerate(blocks):
            if x != y:
                rows += _block_rows(i, x, y)
    return rows


def _block_rows(
    i: int, x: GlueBlock | SlotBlock, y: GlueBlock | SlotBlock
) -> list[tuple[SubsurfaceRef, int]]:
    """The rows that read block pair i: a gluing pair's annulus, or a slot
    pair's slot and then its annuli over pivot_region(x.base, y.base)."""
    if isinstance(x, GlueBlock):
        return [(Annulus(Glue(i)), _block_distance(x, y))]
    return [(Slot(i), farey_distance(x.base, y.base)), *_slot_pair_rows(i, x, y)]


def _slot_pair_rows(i: int, s: SlotBlock, t: SlotBlock):
    """Slot i's rows over pivot_region(s.base, t.base), in its order, with
    proj_distance's values, from one walk over the fans.

    In the frame of slots._normalized each region slope w comes with a
    transversal x, and a block's point over w is read from x.  Moving x by
    j*w shifts both blocks' points by the same integer, so their distance
    is the one read from complement(w), except where a relative twisting
    rounds a tie.  Whether it ties does not depend on x, and only there is
    complement(w) mapped into the frame.
    """
    a, b = s.base, t.base
    if a == b:
        return [(Annulus(InSlot(i, a)), _block_distance(s, t))]
    if b < a:
        s, t, a, b = t, s, b, a
    rows, u, v = _normalized(a, b)
    e1 = (1, 0), _framed(rows, s.trans), s.D
    e2 = (u, v), _framed(rows, t.trans), t.D
    out = []
    for w, x in _region(u, v):
        n1, d1, tie1 = _frame_point(w, x, *e1)
        n2, d2, tie2 = _frame_point(w, x, *e2)
        p, q = _denormalized(rows, w)
        if tie1 or tie2:
            x = _framed(rows, complement(Slope(p, q)))
            n1, d1, _ = _frame_point(w, x, *e1)
            n2, d2, _ = _frame_point(w, x, *e2)
        # the blocks have checked their levels, so no HoroPoint is built
        out.append((p, q, _apex_scan(abs(n1 - n2), d1, d2)[0]))
    out.sort()
    return [(Annulus(InSlot(i, Slope(p, q))), d) for p, q, d in out]


def _frame_point(w, x, base, trans, level) -> tuple[int, int, bool]:
    """(position, level, tie) of a block's point over w, all in one frame:
    relative_twisting(w, x, base) at level 0, and at w == base that of
    trans (its twist coordinate, never a tie) at the block's level."""
    c, level = (trans, level) if w == base else (base, 0)
    xc, wc = x[0] * c[1] - x[1] * c[0], w[0] * c[1] - w[1] * c[0]
    n, tie = _nearest(xc, (w[0] * x[1] - w[1] * x[0]) * wc)
    return n, level, tie


def formula_terms(
    m1: AugMarking, m2: AugMarking, th: Thresholds
) -> list[tuple[SubsurfaceRef, int, int]]:
    """Per-subsurface rows (subsurface, raw value, thresholded contribution)."""
    return [(y, d, _cut(d, th.K)) for y, d in _raw_rows(m1, m2)]


def formula_distance_T(m1: AugMarking, m2: AugMarking, th: Thresholds) -> int:
    """Thresholded sum over every subsurface: the full metric surrogate.

    It reads only the whole surface's row and the rows of the block pairs
    that differ.  Every other row reads one block pair (module docstring),
    and over an equal pair it is 0: two equal slot blocks are at Farey
    distance 0, their pivot region is their one base slope, and two equal
    points of a horoball are at distance 0.  A 0 row adds 0 at any K.
    """
    return sum(_cut(d, th.K) for _, d in _differing_rows(m1, m2))


def formula_distance_WP(m1: AugMarking, m2: AugMarking, th: Thresholds) -> int:
    """The non-annular subsum (slots and whole surface only), read, as
    formula_distance_T is, from the whole surface and the block pairs that
    differ: an equal slot pair's slot row is 0."""
    return sum(
        _cut(d, th.K) for y, d in _differing_rows(m1, m2) if not isinstance(y, Annulus)
    )


# ---------------------------------------------------------------------------
# Numerical snapshots and Rafi's formula on them, for the flat simulation.
# ---------------------------------------------------------------------------


# log(1/extremal length) above which a snapshot curve counts as short
_SHORT_CUT = 1.0


@dataclass(frozen=True)
class CurveSnap:
    """A snapshot curve and its log(1/extremal length).

    slope is a slot's shortest slope, or None for a gluing curve, which is
    the same curve in every snapshot and carries no twist.
    """

    slope: Optional[Slope]
    neg_log_ext: float


@dataclass(frozen=True)
class Snapshot:
    """Coarse numerical state of a flowed surface at one time."""

    slots: tuple[CurveSnap, ...]
    glue: tuple[CurveSnap, ...]

    @property
    def k(self) -> int:
        return len(self.slots)


# The terms of a set of curve pairs: the thresholded Farey sum, then the
# largest horoball term and the largest one-sided term, 0 where there is
# none.  Every term is >= 0, so a total taken from two sides equals one
# pass over all pairs.
Side = tuple[int, int, float]


def rafi_formula(s1: Snapshot, s2: Snapshot, th: Thresholds) -> float:
    """Rafi's coarse distance between numerical snapshots.

    Terms: thresholded slot curve-graph distances; horoball distances for
    curves short in both; and max log-reciprocal-length over curves short in
    exactly one.  A curve is short when neg_log_ext > 1.  No snapshot curve
    carries a twist, so the formula's log-twist term is 0.  It is rafi_total
    of the slot side and the gluing side, so a caller that knows the slot
    Farey distances, or that shares a side between pairs, skips the work.
    """
    if s1.k != s2.k or len(s1.glue) != len(s2.glue):
        raise ValueError("snapshot shapes differ")
    return rafi_total(
        rafi_side(zip(s1.slots, s2.slots), th, farey_distance),
        rafi_side(zip(s1.glue, s2.glue), th, farey_distance),
    )


def rafi_pair(
    slope_a: Optional[Slope], value_a: float, slope_b: Optional[Slope], value_b: float,
    K: int, farey: Callable[[Slope, Slope], int],
) -> Side:
    """The terms of one curve pair, each curve given by its slope and its
    log(1/extremal length): the thresholded Farey distance, an exact int,
    then the horoball term and the larger one-sided term.

    farey(a, b) is the Farey distance of two distinct slopes: farey_distance
    itself, or a lookup of distances walked once.  Equal slopes, and the
    None slope of a gluing pair, are not asked for.  Two curves short on one
    slope sit at twist 0 on one vertical of the horoball, so their horoball
    distance is the gap between their levels; short means a value above 1,
    so both levels are positive.
    """
    sa, sb = value_a > _SHORT_CUT, value_b > _SHORT_CUT
    if slope_a == slope_b and sa and sb:
        return 0, abs(math.floor(value_a) - math.floor(value_b)), 0.0
    slot_term = _cut(farey(slope_a, slope_b), K) if slope_a != slope_b else 0
    return slot_term, 0, max(value_a if sa else 0.0, value_b if sb else 0.0)


def rafi_side(
    pairs: Iterable[tuple[CurveSnap, CurveSnap]],
    th: Thresholds,
    farey: Callable[[Slope, Slope], int],
) -> Side:
    """The pairs' terms: the sum of their rafi_pair Farey terms, then the
    largest horoball and one-sided terms."""
    slot_term = horo = 0
    one_sided = 0.0
    for a, b in pairs:
        f, h, o = rafi_pair(a.slope, a.neg_log_ext, b.slope, b.neg_log_ext, th.K, farey)
        slot_term += f
        horo = max(horo, h)
        one_sided = max(one_sided, o)
    return slot_term, horo, one_sided


def rafi_total(a: Side, b: Side) -> float:
    """rafi_formula from two sides, in one float order: 0.0 + the Farey
    sum, then the largest horoball term, then the largest one-sided term."""
    return 0.0 + (a[0] + b[0]) + max(a[1], b[1]) + max(a[2], b[2])


# ---------------------------------------------------------------------------
# Large links and symmetric families.
# ---------------------------------------------------------------------------


def large_links(m1: AugMarking, m2: AugMarking, cut: int) -> list[LargeLink]:
    """All candidate subsurfaces whose projection distance exceeds the cut.

    No runtime code calls it: group_symmetric_families reads the same links
    off the rows of formula_terms that its caller already holds.  It stays
    for the tests, and because the layer tracer of perfbench/tracer.py
    times it by name.
    """
    if cut < 1:
        raise ValueError("cut must be >= 1")
    return _links(_raw_rows(m1, m2), cut)


def _links(rows: Iterable[tuple], cut: int) -> list[LargeLink]:
    """The rows (subsurface, raw value, ...) above the cut, as links.  The
    whole surface is not a link and is left out; its value 2 would exceed
    the smallest cut."""
    return [LargeLink(y, d) for y, d, *_ in rows if d > cut and not isinstance(y, Whole)]


def group_symmetric_families(
    mu: AugMarking,
    target: AugMarking,
    rows: Sequence[tuple[SubsurfaceRef, int, int]],
    th: Thresholds,
) -> list[SymmetricFamily]:
    """Partition the large links between mu and target into symmetric
    families, time-ordered.

    rows is formula_terms(mu, target, th), which fixed_point_search already
    holds for the seed's distance.  The links are the rows whose raw value
    exceeds th.K_hat, the whole surface's left out: those of
    large_links(mu, target, th.K_hat), read without a second pass over the
    pair.

    For an input that really is almost fixed against an exactly fixed
    target, every large link's orbit carries comparable values: none
    below the orbit max by more than th.comparability.  A value may read
    0, as the seed's slot 0 does over a short slot orbit, where the seed
    copies mu's block 0.  Violations raise SymmetryViolationError instead
    of returning a wrong grouping.  Slot (non-annular) links are legal only
    up to the almost-fixed scale and are not grouped; a slot value beyond
    th.slot_link_scale also violates.

    Orbits are under the rotation group Z/k, k = mu.k.  A family is its
    core, the block-0 curve Glue(0) or InSlot(0, slope), its values and
    mu's orbit, read as int pairs from one complement for both markings
    (projection._orbit_pairs) and compared by the horoball's int kernel.
    Families are ordered: the gluing orbit first, then the slot-slope
    orbits, first those that meet target's slot-0 base b0 at most once (b0
    and its Farey neighbours), then the others, each group by (p, q).
    The rule reads b0 as mu's slot-0 base too, and every caller passes such
    a target: fixed_point_search its seed_marking and criterion 07 a target
    built on mu's base.  The order gives each family its time_index, which
    the search's trace reports; the search twists only the gluing family
    and the one over b0, and no twist moves another family
    (fixed_point_search), so the order changes no output.
    """
    b0 = target.slots[0].base
    cores: dict[tuple, CurveRef] = {}
    for link in _links(rows, th.K_hat):
        y = link.subsurface
        if isinstance(y, Slot):
            if link.value > th.slot_link_scale:
                raise SymmetryViolationError(
                    f"slot link {y} at value {link.value} exceeds the "
                    f"almost-fixed scale {th.row_bound} + {th.comparability}"
                )
        elif isinstance(y.curve, Glue):
            cores[(-1,)] = Glue(0)
        else:
            s = y.curve.slope
            cores[(int(intersection(b0, s) > 1), s.p, s.q)] = InSlot(0, s)
    families = []
    for n, (_, core) in enumerate(sorted(cores.items())):
        glued = isinstance(core, Glue)
        pairs = _orbit_pairs(core, mu.glue + target.glue if glued else mu.slots + target.slots)
        ours, theirs = tuple(pairs[: mu.k]), pairs[mu.k :]
        values = tuple(_apex_scan(abs(x - y), a, b)[0] for (x, a), (y, b) in zip(ours, theirs))
        vmax = max(values)
        for r, v in enumerate(values):
            if v < vmax - th.comparability:
                raise SymmetryViolationError(
                    f"orbit of {core} has value {v} at {act_curve(r, core, mu.k)} "
                    f"against max {vmax}; not a symmetric family"
                )
        families.append(SymmetricFamily(core, values, n, ours))
    return families


# ---------------------------------------------------------------------------
# Canonical paths.
# ---------------------------------------------------------------------------


def _set_glue(m: AugMarking, j: int, block: GlueBlock) -> AugMarking:
    return AugMarking(m.glue[:j] + (block,) + m.glue[j + 1:], m.slots)


def _set_slot(m: AugMarking, i: int, block: SlotBlock) -> AugMarking:
    return AugMarking(m.glue, m.slots[:i] + (block,) + m.slots[i + 1:])


def canonical_path(m1: AugMarking, m2: AugMarking) -> list[AugMarking]:
    """A deterministic elementary-move path from m1 to m2.

    Gluing curves are adjusted first, each by a horoball normal path
    (raise the level, sweep the twist, come back down).  Then each slot
    walks its Farey geodesic: per geodesic edge, a horoball excursion in
    the current base's annulus carries the transversal to the next vertex
    and the level to zero, then one flip advances the base.  A final
    excursion matches the target transversal and level.  Every consecutive
    pair differs by one elementary move.
    """
    check_same_surface(m1, m2)
    path = [m1]
    cur = m1
    for j in range(m1.k):
        dst = HoroPoint(m2.glue[j].tau, m2.glue[j].D)
        src = HoroPoint(cur.glue[j].tau, cur.glue[j].D)
        for pt in horo_normal_path(src, dst)[1:]:
            cur = _set_glue(cur, j, GlueBlock(pt.x, pt.level))
            path.append(cur)
    for i in range(m1.k):
        geo = farey_geodesic(cur.slots[i].base, m2.slots[i].base)
        for nxt in geo[1:]:
            cur = _slot_excursion(path, cur, i, nxt, 0)
            # flip: the transversal now equals the next geodesic vertex
            cur = _set_slot(cur, i, SlotBlock(nxt, cur.slots[i].base, 0))
            path.append(cur)
        cur = _slot_excursion(path, cur, i, m2.slots[i].trans, m2.slots[i].D)
    return path


def _slot_excursion(
    path: list[AugMarking], cur: AugMarking, i: int, trans: Slope, level: int
) -> AugMarking:
    """Walk slot i's base annulus to (trans, level) along a horoball normal
    path, appending each step to path; returns the last marking."""
    blk = cur.slots[i]
    src = HoroPoint(twist_coordinate(blk.base, blk.trans), blk.D)
    dst = HoroPoint(twist_coordinate(blk.base, trans), level)
    for pt in horo_normal_path(src, dst)[1:]:
        cur = _set_slot(
            cur, i, SlotBlock(blk.base, transversal_at(blk.base, pt.x), pt.level)
        )
        path.append(cur)
    return cur


def active_segment(
    path: Sequence[AugMarking], y: SubsurfaceRef
) -> Optional[tuple[int, int]]:
    """Longest contiguous index interval with the boundary of y in the base.

    Gluing annuli, slots, and the whole surface have structural boundary
    curves that every marking carries, so their segment is the full path.
    The annulus over a slot slope is active exactly while that slope is the
    slot's base; None when it never is.  Ties go to the earliest interval.
    A slot index outside 0..k-1 raises SurfaceMismatchError.
    """
    if not path:
        return None
    if isinstance(y, Annulus) and isinstance(y.curve, InSlot):
        i, s = y.curve.slot, y.curve.slope
        best: Optional[tuple[int, int]] = None
        start = None
        for t, m in enumerate(path):
            _check_index(i, m)
            if m.slots[i].base != s:
                start = None
                continue
            if start is None:
                start = t
            # the run in progress replaces the best only once strictly longer
            if best is None or t - start > best[1] - best[0]:
                best = (start, t)
        return best
    return (0, len(path) - 1)
