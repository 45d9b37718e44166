"""Subsurface projections, product regions, and the closest-point map.

Subsurfaces of the model come in three kinds: a slot (one punctured torus),
an annulus around any curve, and the whole surface.  Projecting an augmented
marking to a slot reads off the slot block; projecting to an annulus yields a
point of the combinatorial horoball over that curve; the whole surface sees
only the base curve system.

Q(delta) is the set of markings whose base contains the simplex delta, and
phi(delta, .) is the coarse closest-point projection onto it.  Here phi is
fully deterministic: wherever the coarse definition tolerates any member of
a bounded choice set, this implementation picks one canonical representative,
so idempotence and equivariance hold exactly, not just coarsely.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .horoball import HoroPoint, horo_distance
from .marking import (
    AugMarking,
    CurveRef,
    Glue,
    InSlot,
    SlotBlock,
    SurfaceMismatchError,
    check_same_surface,
)
from .slots import (
    Slope,
    _twist_coordinate,
    complement,
    farey_distance,
    relative_twisting,
    transversal_at,
)

__all__ = [
    "Slot",
    "Annulus",
    "Whole",
    "SubsurfaceRef",
    "Simplex",
    "project",
    "proj_distance",
    "marked_projection",
    "q_membership",
    "phi",
    "annulus_point",
]


@dataclass(frozen=True, order=True)
class Slot:
    """One punctured-torus slot as a subsurface."""

    i: int


@dataclass(frozen=True, order=True)
class Annulus:
    """The annulus around a curve."""

    curve: CurveRef


@dataclass(frozen=True, order=True)
class Whole:
    """The whole model surface."""


SubsurfaceRef = Union[Slot, Annulus, Whole]


@dataclass(frozen=True)
class Simplex:
    """A pairwise-disjoint curve set on S(k).

    Gluing curves are mutually disjoint and disjoint from every slot slope;
    two distinct slopes in one slot always cross, so a simplex holds at most
    one slope per slot.  Curves are deduplicated and stored sorted.
    """

    k: int
    curves: tuple[CurveRef, ...]

    def __post_init__(self) -> None:
        if self.k < 2:
            raise ValueError("simplex needs a model surface with k >= 2")
        seen_slot: dict[int, Slope] = {}
        for c in self.curves:
            if isinstance(c, Glue):
                if not 0 <= c.j < self.k:
                    raise ValueError(f"gluing index {c.j} out of range")
            else:
                if not 0 <= c.slot < self.k:
                    raise ValueError(f"slot index {c.slot} out of range")
                prev = seen_slot.get(c.slot)
                if prev is not None and prev != c.slope:
                    raise ValueError(
                        f"slopes {prev} and {c.slope} cross in slot {c.slot}"
                    )
                seen_slot[c.slot] = c.slope
        ordered = tuple(sorted(set(self.curves), key=_curve_sort_key))
        object.__setattr__(self, "curves", ordered)

    def slot_slopes(self) -> dict[int, Slope]:
        return {c.slot: c.slope for c in self.curves if isinstance(c, InSlot)}


def _curve_sort_key(c: CurveRef) -> tuple:
    if isinstance(c, Glue):
        return (0, c.j, 0, 0)
    return (1, c.slot, c.slope.q, c.slope.p)


# ---------------------------------------------------------------------------
# Projections.
# ---------------------------------------------------------------------------


def annulus_point(c: CurveRef, m: AugMarking) -> HoroPoint:
    """The horoball point recording the marking's data around the curve c.

    Gluing curve: (twist, level) as stored.  Slot base: the transversal's
    twist coordinate at the stored level.  Any other slope in a slot: the
    relative twisting of the base about c, measured from the canonical dual
    of c, at level 0.  The base branch agrees with the relative-twisting
    branch on transversals, so flips do not move annulus projections.
    An index outside 0..k-1 raises SurfaceMismatchError.
    """
    i, blocks = _blocks(c, m)
    return HoroPoint(*_orbit_pairs(c, blocks[i : i + 1])[0])


def _blocks(c: CurveRef, m: AugMarking) -> tuple[int, tuple]:
    """(i, blocks): c's block index, checked, and m's blocks of c's kind."""
    if isinstance(c, Glue):
        _check_index(c.j, m)
        return c.j, m.glue
    _check_index(c.slot, m)
    return c.slot, m.slots


def _orbit_pairs(c: CurveRef, blocks) -> list[tuple[int, int]]:
    """annulus_point's (x, level) over the rotate of c in each block, as int
    pairs: blocks are gluing blocks for a gluing curve, slot blocks for a
    slot slope, of one marking or of several.  One complement serves all."""
    if isinstance(c, Glue):
        return [(g.tau, g.D) for g in blocks]
    s = c.slope
    t0 = complement(s)
    return [
        (_twist_coordinate(s, t0, blk.trans), blk.D) if blk.base == s
        else (relative_twisting(s, t0, blk.base), 0)
        for blk in blocks
    ]


def _check_index(i: int, m: AugMarking) -> None:
    if not 0 <= i < m.k:
        raise SurfaceMismatchError(
            f"index {i} is outside 0..{m.k - 1} on a k={m.k} surface"
        )


def project(y: SubsurfaceRef, m: AugMarking):
    """Projection of a marking to a subsurface.

    Slot(i) yields the slot block, Annulus(c) a HoroPoint, Whole the base
    curve list.  Defined for every slot and gluing index in 0..k-1: every
    curve of the model meets every slot and every annulus core is crossed by
    some marking curve.  Any other index raises SurfaceMismatchError.
    """
    if isinstance(y, Slot):
        _check_index(y.i, m)
        return m.slots[y.i]
    if isinstance(y, Annulus):
        return annulus_point(y.curve, m)
    if isinstance(y, Whole):
        return m.base_curves()
    raise TypeError(f"not a subsurface: {y!r}")


def proj_distance(y: SubsurfaceRef, m1: AugMarking, m2: AugMarking) -> int:
    """Distance between the two projections inside the subsurface.

    Farey distance for slots (between base slopes), horoball distance for
    annuli.  For the whole surface the base systems either agree (0) or
    contain crossing slopes linked through a gluing curve (2).
    """
    check_same_surface(m1, m2)
    if isinstance(y, Slot):
        _check_index(y.i, m1)
        return farey_distance(m1.slots[y.i].base, m2.slots[y.i].base)
    if isinstance(y, Annulus):
        (i, b1), (_, b2) = _blocks(y.curve, m1), _blocks(y.curve, m2)
        # one complement serves both markings
        p1, p2 = _orbit_pairs(y.curve, (b1[i], b2[i]))
        return horo_distance(HoroPoint(*p1), HoroPoint(*p2))
    if isinstance(y, Whole):
        return _whole_distance(m1, m2)
    raise TypeError(f"not a subsurface: {y!r}")


def _whole_distance(m1: AugMarking, m2: AugMarking) -> int:
    """proj_distance(Whole(), m1, m2) for markings on one surface: 0 if the
    base systems agree, else 2."""
    same = all(a.base == b.base for a, b in zip(m1.slots, m2.slots))
    return 0 if same else 2


def marked_projection(c: CurveRef, m: AugMarking):
    """The marked horoball projection (curve, transversal data, length).

    Base curves return their stored data: gluing curves carry an integer
    twist, slot bases their transversal slope.  A non-base slope returns an
    actual transversal realizing the projected twist coordinate, at length 0,
    so the result keeps a curve identity rather than a bare number.
    """
    if isinstance(c, Glue):
        _check_index(c.j, m)
        g = m.glue[c.j]
        return (c, g.tau, g.D)
    _check_index(c.slot, m)
    blk = m.slots[c.slot]
    if c.slope == blk.base:
        return (c, blk.trans, blk.D)
    return (c, transversal_at(c.slope, annulus_point(c, m).x), 0)


# ---------------------------------------------------------------------------
# The product region Q(delta) and the projection onto it.
# ---------------------------------------------------------------------------


def q_membership(delta: Simplex, m: AugMarking) -> bool:
    """True iff every curve of delta is a base curve of m."""
    if delta.k != m.k:
        raise SurfaceMismatchError(f"simplex on k={delta.k}, marking on k={m.k}")
    return all(m.slots[i].base == s for i, s in delta.slot_slopes().items())


def phi(delta: Simplex, m: AugMarking) -> AugMarking:
    """Closest-point projection onto Q(delta).

    Slots named by delta get their base replaced by the delta slope, with
    the transversal transported through the marked projection and length
    reset to 0; all other blocks are untouched.  Exactly idempotent and
    exactly equivariant under the cyclic action.
    """
    if delta.k != m.k:
        raise SurfaceMismatchError(f"simplex on k={delta.k}, marking on k={m.k}")
    wanted = delta.slot_slopes()
    slots = list(m.slots)
    for i, s in wanted.items():
        if slots[i].base == s:
            continue
        _, trans, _ = marked_projection(InSlot(i, s), m)
        slots[i] = SlotBlock(s, trans, 0)
    return AugMarking(m.glue, tuple(slots))
