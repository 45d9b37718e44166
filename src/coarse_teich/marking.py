"""Augmented markings on a cyclic chain of punctured-torus slots.

The model surface S(k) is k >= 2 one-holed-torus slots glued in a cycle
along gluing curves indexed by Z/k.  An augmented marking carries, per
gluing curve, an integer twist and a length level, and per slot a base
slope, a transversal slope meeting it once, and a length level for the
base.  The cyclic symmetry group permutes slots and gluing indices.

Elementary moves: flips (swap base and transversal at length level 0),
twist moves whose reach widens exponentially with the length level exactly
as in the combinatorial horoball, and unit vertical moves on length levels.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterator, Optional, Union

from .horoball import width
from .slots import Slope, intersection, slopes_in_box

__all__ = [
    "ModelSurface",
    "SymmetryGroup",
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
    "fixed_locus_members",
    "EnumerationBounds",
]


class SurfaceMismatchError(ValueError):
    """Two objects live on model surfaces with different slot counts."""


@dataclass(frozen=True, order=True)
class ModelSurface:
    """The chain of k punctured-torus slots; k >= 2."""

    k: int

    def __post_init__(self) -> None:
        if self.k < 2:
            raise ValueError(f"need at least two slots, got k={self.k}")


@dataclass(frozen=True)
class SymmetryGroup:
    """The cyclic group Z/k acting by rotating slots and gluing curves."""

    k: int

    def elements(self) -> range:
        return range(self.k)


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

    @property
    def surface(self) -> ModelSurface:
        return ModelSurface(self.k)

    def base_curves(self) -> list[CurveRef]:
        out: list[CurveRef] = [Glue(j) for j in range(self.k)]
        out.extend(InSlot(i, blk.base) for i, blk in enumerate(self.slots))
        return out

    def length_of(self, c: CurveRef) -> int:
        """Length level of a base curve (0 for non-base slot slopes)."""
        if isinstance(c, Glue):
            return self.glue[c.j % self.k].D
        blk = self.slots[c.slot % self.k]
        return blk.D if blk.base == c.slope else 0

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
        glue = tuple(GlueBlock(int(g["tau"]), int(g["D"])) for g in obj["glue"])
        slots = tuple(
            SlotBlock(Slope.parse(s["base"]), Slope.parse(s["trans"]), int(s["D"]))
            for s in obj["slots"]
        )
        return AugMarking(glue, slots)


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
# Elementary moves.  Implemented on plain nested-int tuples for BFS speed;
# the dataclass API wraps the key form.
# ---------------------------------------------------------------------------

Key = tuple


def marking_key(m: AugMarking) -> Key:
    return (
        tuple((g.tau, g.D) for g in m.glue),
        tuple(
            (s.base.p, s.base.q, s.trans.p, s.trans.q, s.D) for s in m.slots
        ),
    )


def marking_from_key(key: Key) -> AugMarking:
    glue = tuple(GlueBlock(t, d) for t, d in key[0])
    slots = tuple(
        SlotBlock(Slope(bp, bq), Slope(tp, tq), d)
        for bp, bq, tp, tq, d in key[1]
    )
    return AugMarking(glue, slots)


def _twist_slope_key(cp: int, cq: int, n: int, p: int, q: int) -> tuple[int, int]:
    d = cp * q - cq * p
    p, q = p + n * d * cp, q + n * d * cq
    if q < 0 or (q == 0 and p < 0):
        p, q = -p, -q
    return p, q


def _neighbor_keys(key: Key, strict_flips: bool) -> Iterator[Key]:
    glue, slots = key
    all_zero = all(d == 0 for _, d in glue) and all(s[4] == 0 for s in slots)
    for j, (tau, d) in enumerate(glue):
        reach = width(d)
        for mstep in range(1, reach + 1):
            for sgn in (1, -1):
                g2 = glue[:j] + ((tau + sgn * mstep, d),) + glue[j + 1:]
                yield (g2, slots)
        for nd in (d - 1, d + 1):
            if nd >= 0:
                g2 = glue[:j] + ((tau, nd),) + glue[j + 1:]
                yield (g2, slots)
    for i, (bp, bq, tp, tq, d) in enumerate(slots):
        flip_ok = (d == 0) if not strict_flips else all_zero
        if flip_ok:
            s2 = slots[:i] + ((tp, tq, bp, bq, 0),) + slots[i + 1:]
            yield (glue, s2)
        reach = width(d)
        for mstep in range(1, reach + 1):
            for sgn in (1, -1):
                np_, nq = _twist_slope_key(bp, bq, sgn * mstep, tp, tq)
                s2 = slots[:i] + ((bp, bq, np_, nq, d),) + slots[i + 1:]
                yield (glue, s2)
        for nd in (d - 1, d + 1):
            if nd >= 0:
                s2 = slots[:i] + ((bp, bq, tp, tq, nd),) + slots[i + 1:]
                yield (glue, s2)


def elementary_moves(m: AugMarking, strict_flips: bool = False) -> list[AugMarking]:
    """All markings one elementary move away.

    Flips need length level 0 on the flipped slot; with strict_flips they
    need level 0 on every base curve (the conservative variant, kept as a
    cross-check).  Twist moves about a curve at level D reach exponents
    1..width(D) in both signs; vertical moves change one level by one.
    """
    return [marking_from_key(k) for k in _neighbor_keys(marking_key(m), strict_flips)]


def is_elementary_move(a: AugMarking, b: AugMarking, strict_flips: bool = False) -> bool:
    kb = marking_key(b)
    return any(kb == k for k in _neighbor_keys(marking_key(a), strict_flips))


def bfs_distance(
    a: AugMarking, b: AugMarking, cap: int = 10, strict_flips: bool = False
) -> Optional[int]:
    """Exact elementary-move distance if <= cap, else None.

    Bidirectional breadth-first search, expanding the smaller frontier;
    the recommended cap is <= 12 on small length levels since twist reach
    (and so branching) widens exponentially with the levels.
    """
    check_same_surface(a, b)
    ka, kb = marking_key(a), marking_key(b)
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
            for nb in _neighbor_keys(key, strict_flips):
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
# Fixed locus enumeration.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EnumerationBounds:
    """Finite windows for streaming symmetric markings."""

    slope_box: int = 2
    max_twist: int = 2
    max_level: int = 1


def fixed_locus_members(
    surface: ModelSurface, bounds: EnumerationBounds
) -> Iterator[AugMarking]:
    """Stream all symmetric markings within the windows.

    A marking is fixed by the full rotation group iff all slot blocks agree
    and all glue blocks agree, so the count factors as
    (#glue blocks) * (#slot blocks).
    """
    glue_choices, slot_choices = _fixed_blocks(bounds)
    for g in glue_choices:
        for s in slot_choices:
            yield AugMarking((g,) * surface.k, (s,) * surface.k)


def count_fixed_locus(surface: ModelSurface, bounds: EnumerationBounds) -> int:
    """Number of fixed_locus_members: #glue blocks times #slot blocks."""
    glue_choices, slot_choices = _fixed_blocks(bounds)
    return len(glue_choices) * len(slot_choices)


def _fixed_blocks(
    bounds: EnumerationBounds,
) -> tuple[list[GlueBlock], list[SlotBlock]]:
    """The glue blocks and slot blocks within the windows."""
    slopes = slopes_in_box(bounds.slope_box)
    glue_choices = [
        GlueBlock(tau, d)
        for tau in range(-bounds.max_twist, bounds.max_twist + 1)
        for d in range(bounds.max_level + 1)
    ]
    slot_choices = []
    for base in slopes:
        for trans in slopes:
            if intersection(base, trans) != 1:
                continue
            for d in range(bounds.max_level + 1):
                slot_choices.append(SlotBlock(base, trans, d))
    return glue_choices, slot_choices
