"""Augmented markings on a cyclic chain of punctured-torus slots.

The model surface S(k) is k >= 2 one-holed-torus slots glued in a cycle
along gluing curves indexed by Z/k.  An augmented marking carries, per
gluing curve, an integer twist and a length level, and per slot a base
slope, a transversal slope meeting it once, and a length level for the
base.  The cyclic symmetry group permutes slots and gluing indices.

Elementary moves: flips (swap base and transversal at length level 0),
twist moves whose reach widens exponentially with the length level exactly
as in the combinatorial horoball, and unit vertical moves on length levels.
The move distance is the sum of exact block distances (bfs_distance).
"""

from __future__ import annotations

import heapq
import json
import math
from dataclasses import dataclass
from typing import Iterator, Optional, Union

from .horoball import HoroPoint, horo_distance, width
from .slots import (
    Slope,
    _twist_coordinate,
    complement,
    farey_distance,
    intersection,
    pivot_region,
    transversal_at,
    twist_coordinate,
)

__all__ = [
    "GlueBlock",
    "SlotBlock",
    "AugMarking",
    "Glue",
    "InSlot",
    "CurveRef",
    "SurfaceMismatchError",
    "act",
    "act_curve",
    "elementary_moves",
    "is_elementary_move",
    "bfs_distance",
]


class SurfaceMismatchError(ValueError):
    """Two objects live on model surfaces with different slot counts."""


@dataclass(frozen=True, order=True)
class Glue:
    """Reference to a gluing curve."""

    j: int


@dataclass(frozen=True, order=True)
class InSlot:
    """Reference to a slope inside a slot."""

    slot: int
    slope: Slope


CurveRef = Union[Glue, InSlot]


@dataclass(frozen=True, order=True)
class GlueBlock:
    tau: int
    D: int

    def __post_init__(self) -> None:
        if self.D < 0:
            raise ValueError("negative length level on a gluing curve")


@dataclass(frozen=True, order=True)
class SlotBlock:
    base: Slope
    trans: Slope
    D: int

    def __post_init__(self) -> None:
        if intersection(self.base, self.trans) != 1:
            raise ValueError(
                f"transversal {self.trans} does not meet base {self.base} once"
            )
        if self.D < 0:
            raise ValueError("negative length level on a base slope")


@dataclass(frozen=True, order=True)
class AugMarking:
    """An augmented marking: one GlueBlock and one SlotBlock per index."""

    glue: tuple[GlueBlock, ...]
    slots: tuple[SlotBlock, ...]

    def __post_init__(self) -> None:
        if len(self.glue) != len(self.slots) or len(self.glue) < 2:
            raise ValueError("need matching glue/slot tuples of length >= 2")

    @property
    def k(self) -> int:
        return len(self.slots)

    def base_curves(self) -> list[CurveRef]:
        out: list[CurveRef] = [Glue(j) for j in range(self.k)]
        out.extend(InSlot(i, blk.base) for i, blk in enumerate(self.slots))
        return out

    def to_json(self) -> dict:
        return {
            "glue": [{"tau": g.tau, "D": g.D} for g in self.glue],
            "slots": [
                {"base": str(s.base), "trans": str(s.trans), "D": s.D}
                for s in self.slots
            ],
        }

    def to_json_str(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True)

    @staticmethod
    def from_json(obj: dict) -> "AugMarking":
        glue = tuple(
            GlueBlock(_json_int(g["tau"], "tau"), _json_int(g["D"], "D"))
            for g in obj["glue"]
        )
        slots = tuple(
            SlotBlock(
                Slope.parse(s["base"]), Slope.parse(s["trans"]), _json_int(s["D"], "D")
            )
            for s in obj["slots"]
        )
        return AugMarking(glue, slots)


def _json_int(value, name: str) -> int:
    """An integer field of marking JSON; fractions, non-finite numbers and
    booleans are rejected rather than truncated or overflowed."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def check_same_surface(a: AugMarking, b: AugMarking) -> None:
    if a.k != b.k:
        raise SurfaceMismatchError(f"slot counts differ: {a.k} vs {b.k}")


# ---------------------------------------------------------------------------
# Group action.
# ---------------------------------------------------------------------------


def act(r: int, m: AugMarking) -> AugMarking:
    """Rotate slots and gluing indices by r: block i moves to index i + r."""
    k = m.k
    r %= k
    glue = tuple(m.glue[(j - r) % k] for j in range(k))
    slots = tuple(m.slots[(i - r) % k] for i in range(k))
    return AugMarking(glue, slots)


def act_curve(r: int, c: CurveRef, k: int) -> CurveRef:
    if isinstance(c, Glue):
        return Glue((c.j + r) % k)
    return InSlot((c.slot + r) % k, c.slope)


# ---------------------------------------------------------------------------
# Elementary moves.  Each move changes one block, and whether it is legal
# depends on that block alone, so the move graph is the Cartesian product of
# one horoball per gluing curve, on (tau, D), and one slot graph per slot.
# A slot graph is one horoball per base slope, on (twist coordinate of the
# transversal, D), with flips at level 0 joining the horoballs of Farey
# neighbours.  Product distances are sums of block distances.
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


def _horo_point(blk: Union[GlueBlock, SlotBlock]) -> HoroPoint:
    """A block's point in its horoball (for a slot, the base slope's)."""
    if isinstance(blk, GlueBlock):
        return HoroPoint(blk.tau, blk.D)
    return HoroPoint(twist_coordinate(blk.base, blk.trans), blk.D)


def elementary_moves(m: AugMarking) -> list[AugMarking]:
    """All markings one elementary move away, block by block.

    Flips swap base and transversal of a slot at length level 0.  Twist
    moves about a curve at level D reach exponents 1..width(D) in both
    signs; vertical moves change one level by one.  The order is fixed
    (gluing curves, then slots; per block the flip, twists +1, -1, +2, ...,
    then levels down and up), since samplers draw from this list.
    """
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
    return horo_distance(_horo_point(x), _horo_point(y)) == 1


def bfs_distance(a: AugMarking, b: AugMarking, cap: int = 10) -> Optional[int]:
    """Exact elementary-move distance if <= cap, else None.

    The sum of the block distances: horo_distance in closed form per gluing
    curve, and the exact slot distance per slot.  A slot path from one base
    to another goes down to level 0 at both ends and takes one flip per
    Farey edge, so s.D + t.D + farey_distance(s.base, t.base) is a lower
    bound; a slot whose bound passes what is left of the cap returns None
    without a walk, which keeps long continued fractions cheap.
    """
    check_same_surface(a, b)
    total = sum(horo_distance(_horo_point(g), _horo_point(h)) for g, h in zip(a.glue, b.glue))
    for s, t in zip(a.slots, b.slots):
        if total > cap:
            return None
        if s.base != t.base and s.D + t.D + farey_distance(s.base, t.base) > cap - total:
            return None
        total += _slot_distance(s, t)
    return total if total <= cap else None


def _slot_distance(s: SlotBlock, t: SlotBlock) -> int:
    """Exact slot-graph distance, with no cap.

    A slot path is a Farey path s.base = g_0, ..., g_m = t.base: m flips,
    the flip between g and h joining the level-0 points twist_coordinate(g,
    h) of H_g and twist_coordinate(h, g) of H_h, plus one closed-form
    horo_distance leg inside each H_g from where the path enters it to
    where it leaves.  The end legs start and finish at the blocks' own
    points.

    On a shared base that horoball distance is the answer: a detour leaving
    H_base towards the neighbour with twist coordinate i and returning from
    the one with j visits every neighbour between them, since the Farey
    edge from the base to each separates the base's link, so it costs at
    least |i - j| + 2 flips against |i - j| level-0 twists.  Otherwise a
    shortest path over states (slope, previous slope), with the slopes of
    pivot_region(s.base, t.base) as vertices: the convergents and fan rims
    that every Farey path between the bases passes near.  That leaving out
    all other slopes loses nothing is checked, not proved: on seeded pairs
    the search equals one over every slope of a box around the region.
    """
    start, goal = _horo_point(s), _horo_point(t)
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
