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

import json
from dataclasses import dataclass
from typing import Union

from .horoball import _apex_scan, width
from .slots import Slope, TwistWord, _fans, _framed, _normalized, intersection, twist

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
    "move_count",
    "nth_move",
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
    """An integer field of marking JSON: an int or an integral float.
    Booleans, strings, fractions and non-finite numbers are rejected rather
    than parsed, truncated or overflowed."""
    if isinstance(value, bool) or not (
        isinstance(value, int) or (isinstance(value, float) and value.is_integer())
    ):
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
# neighbours.  Two transversals of one base have twist coordinates that
# differ by their intersection number, so no block distance reads a twist
# coordinate.  A horoball distance depends only on the gap between the two
# positions and their levels, so every block distance is one apex scan on
# ints, horoball._apex_scan.  Product distances are sums of block distances.
# ---------------------------------------------------------------------------


def _block_distance(x: Union[GlueBlock, SlotBlock], y: Union[GlueBlock, SlotBlock]) -> int:
    """Horoball distance of two gluing blocks, or of two slot blocks on one
    base (in the base slope's horoball): the apex scan of the gap, the twist
    difference or the transversals' intersection number, at the two levels.
    The blocks have checked their levels, so no HoroPoint is built."""
    gap = abs(x.tau - y.tau) if isinstance(x, GlueBlock) else intersection(x.trans, y.trans)
    return _apex_scan(gap, x.D, y.D)[0]


def _block_move_count(blk: Union[GlueBlock, SlotBlock]) -> int:
    """Moves of one block: 2*width(D) twists, a level step down if D > 0
    and one up, and for a slot at level 0 its flip."""
    flip = isinstance(blk, SlotBlock) and blk.D == 0
    return 2 * width(blk.D) + 1 + (blk.D > 0) + flip


def _block_move(blk: Union[GlueBlock, SlotBlock], i: int) -> Union[GlueBlock, SlotBlock]:
    """The i-th move of one block, 0 <= i < _block_move_count(blk), in the
    order: the flip (a slot at level 0), twists +1, -1, +2, -2, ...,
    +width(D), -width(D), then the level steps down and up."""
    d = blk.D
    if isinstance(blk, SlotBlock) and d == 0:
        if i == 0:
            return SlotBlock(blk.trans, blk.base, 0)
        i -= 1
    w2 = 2 * width(d)
    if i < w2:
        step = i // 2 + 1 if i % 2 == 0 else -(i // 2 + 1)
        if isinstance(blk, GlueBlock):
            return GlueBlock(blk.tau + step, d)
        return SlotBlock(blk.base, twist(TwistWord(blk.base, step), blk.trans), d)
    d += -1 if i == w2 and d > 0 else 1
    if isinstance(blk, GlueBlock):
        return GlueBlock(blk.tau, d)
    return SlotBlock(blk.base, blk.trans, d)


def move_count(m: AugMarking) -> int:
    """Number of markings one elementary move away; O(k), builds none."""
    return sum(_block_move_count(b) for b in m.glue + m.slots)


def nth_move(m: AugMarking, i: int) -> AugMarking:
    """elementary_moves(m)[i], building only that one marking.

    Raises IndexError unless 0 <= i < move_count(m).
    """
    if i >= 0:
        for j, blk in enumerate(m.glue + m.slots):
            c = _block_move_count(blk)
            if i < c:
                new = _block_move(blk, i)
                if j < m.k:
                    return AugMarking(m.glue[:j] + (new,) + m.glue[j + 1:], m.slots)
                j -= m.k
                return AugMarking(m.glue, m.slots[:j] + (new,) + m.slots[j + 1:])
            i -= c
    raise IndexError("move index out of range")


def elementary_moves(m: AugMarking) -> list[AugMarking]:
    """All markings one elementary move away, block by block.

    Flips swap base and transversal of a slot at length level 0.  Twist
    moves about a curve at level D reach exponents 1..width(D) in both
    signs; vertical moves change one level by one.  The order is fixed
    (gluing curves, then slots; per block the order of _block_move), since
    samplers draw from it through nth_move.

    No runtime code calls it: samplers draw through nth_move, and
    bfs_distance sums block distances.  It stays as the definition of the
    move graph that the tests' breadth-first oracles walk, and because the
    layer tracer of perfbench/tracer.py times it by name.
    """
    return [nth_move(m, i) for i in range(move_count(m))]


def bfs_distance(a: AugMarking, b: AugMarking) -> int:
    """Exact elementary-move distance.

    The sum of the block distances: _block_distance per gluing curve and
    _slot_distance per slot, each exact, the slot walk linear in the
    continued-fraction length of the bases.  Only the block pairs that
    differ are read: the move graph is a product, so an equal pair is one
    vertex of its factor, at distance 0 from itself.
    """
    check_same_surface(a, b)
    total = 0
    for g, h in zip(a.glue, b.glue):
        if g != h:
            total += _block_distance(g, h)
    for s, t in zip(a.slots, b.slots):
        if s != t:
            total += _slot_distance(s, t)
    return total


def _slot_distance(s: SlotBlock, t: SlotBlock) -> int:
    """Exact slot-graph distance, with no cap.

    A slot path is a Farey path s.base = g_0, ..., g_n = t.base: n flips
    between level-0 points, and in each H_g one leg from where the path
    enters to where it leaves.  Twist coordinates of transversals of g
    differ by their intersection number, so a leg entering H_g from e and
    leaving to w costs L(i(e, w)), L(x) the horoball distance of two
    level-0 points x apart (horoball._apex_scan(x, 0, 0)), and the end legs
    read s.trans, t.trans and the levels the same way.  A
    leg between distinct points costs >= 1, and L(x) <= x.  Three facts
    make the walk below exact:

    1. Loops never help.  A sub-walk leaving H_g to a neighbour w and
       coming back from w' visits every neighbour of g between them, since
       the Farey edge from g to each separates w from w': >= i(w, w') + 2
       flips, against the leg L(i(w, w')) <= i(w, w') that replaces it.
       So on a shared base the answer is that base's horoball distance.
    2. Paths stay in the strip of triangles that the geodesic from s.base
       to t.base crosses.  The rest of the graph meets it along boundary
       edges p-q, so an excursion leaves at p and returns at q.  If its
       first slope is the j-th neighbour of p past q and its last the k-th
       of q past p, it visits >= j + k - 1 slopes, a flip and a leg >= 1
       each, then flips into q: >= 2(j + k) - 1.  The flip p -> q costs 1,
       and the legs at p and q grow by at most L(j) + L(k) <= j + k.
    3. Rims matter only for m <= 2.  In the frame of slots._normalized the
       strip is the fans (prev, pivot, m, nxt) of slots._fans, with rims
       prev + j*pivot, j = 0..m, each adjacent to the pivot and the rims
       j +- 1.  A run of j rims before or after the pivot costs 3j - 1 more
       than the flip it replaces and saves at most j + 1 in the legs at its
       ends.  The rim walk from prev to nxt costs 3m - 2 (m flips, m - 1
       legs of L(2) = 2); prev -> pivot -> nxt costs at most L(m) + 4 with
       its end legs, no more once m >= 3.

    So per fan boundary {c_(k-1), c_k} the walk keeps the cheapest cost of
    each (slope, entry), the entry being the slope it came from or the
    start point.  Fan k reaches nxt from the pivot, and from prev directly
    when m = 1 or past the rim prev + pivot when m = 2 (prev -> pivot is
    the previous fan's pivot -> nxt).  The intersection number is invariant
    under the unimodular frame, so the walk runs on integer vectors.
    """
    if s.base == t.base:
        return _block_distance(s, t)
    rows, u, v = _normalized(s.base, t.base)
    start, goal = _framed(rows, s.trans), _framed(rows, t.trans)
    # cheapest cost into c_(k-1) and into c_k, per (entry vector, entry level)
    at_prev = {(start, s.D): 0}
    at_cur = {((1, 0), 0): 1 + _leave(at_prev, (u // v, 1), 0)}
    for prev, pivot, m, nxt in _fans(u, v):
        at_nxt = {(pivot, 0): 1 + _leave(at_cur, nxt, 0)}
        if m == 1:
            at_nxt[prev, 0] = 1 + _leave(at_prev, nxt, 0)
        elif m == 2:
            rim = (prev[0] + pivot[0], prev[1] + pivot[1])
            at_rim = {(prev, 0): 1 + _leave(at_prev, rim, 0)}
            at_nxt[rim, 0] = 1 + _leave(at_rim, nxt, 0)
        at_prev, at_cur = at_cur, at_nxt
    return _leave(at_cur, goal, t.D)


def _leave(states: dict, w: tuple[int, int], level: int) -> int:
    """The cheapest cost over states {(entry, entry level): cost} of one
    slope, plus the leg from the entry to the point of its horoball that
    faces w at the given level: the apex scan of |det(e, w)|, the
    intersection number of e and w."""
    return min(
        cost + _apex_scan(abs(e[0] * w[1] - e[1] * w[0]), lvl, level)[0]
        for (e, lvl), cost in states.items()
    )
