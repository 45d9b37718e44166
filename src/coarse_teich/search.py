"""Constructive search for exactly symmetric markings.

Given a marking whose orbit under the cyclic slot rotation has small
diameter, the search produces a marking fixed by the rotation on the nose,
at a distance bounded by a constant depending only on the slot count and
the thresholds (Thresholds.final_bound), never on the size of the twist
data.  The engine is the staged symmetric multitwist: large annular links
between the input and an exactly fixed seed come in symmetric families,
and one multitwist per family cancels the family's twist offset
(_cancel_offset).  Every orbit is read in one projection.orbit_points.
The seed is built in closed form and already carries mu's twist data over
the short orbits, so the orbit-diameter certificate is the search's only
precondition check.

Also here: the orbit-diameter certificate, and the coarse barycenter for
arbitrary (not almost-fixed) inputs: the orbit average, exactly fixed by
construction, so it needs no search.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .horoball import HoroPoint, horo_distance
from .marking import (
    AugMarking,
    CurveRef,
    Glue,
    GlueBlock,
    InSlot,
    SlotBlock,
    act,
)
from .metrics import (
    SymmetricFamily,
    Thresholds,
    formula_distance_T,
    formula_terms,
    group_symmetric_families,
)
from .projection import annulus_point, orbit_points
from .slots import TwistWord, transversal_at, twist

__all__ = [
    "AlmostFixedCertificate",
    "PreconditionError",
    "SearchStage",
    "ReductionTrace",
    "almost_fixed_certificate",
    "is_fixed",
    "seed_marking",
    "short_cut",
    "fixed_point_search",
    "coarse_barycenter",
]


@dataclass(frozen=True)
class AlmostFixedCertificate:
    """Orbit diameter evidence: distance to every nontrivial rotate."""

    marking: AugMarking
    diameter: int
    per_element: tuple[int, ...]  # distance to act(r, marking) for r = 1..k-1

    def to_json(self) -> dict:
        return {
            "marking": self.marking.to_json(),
            "diameter": self.diameter,
            "per_element": list(self.per_element),
        }


class PreconditionError(ValueError):
    """The input failed the almost-fixed precondition; carries the evidence."""

    def __init__(self, message: str, certificate: AlmostFixedCertificate):
        super().__init__(message)
        self.certificate = certificate


def almost_fixed_certificate(mu: AugMarking, th: Thresholds) -> AlmostFixedCertificate:
    """Formula distance from mu to each nontrivial rotate act(r, mu).

    The formula is exactly equivariant, so the max over pairs of the orbit
    is the max over these k - 1 distances.  It is also symmetric, so
    d(mu, act(k - r, mu)) = d(act(r, mu), mu) = d(mu, act(r, mu)): only
    r = 1..k//2 are evaluated, and the rest of per_element mirrors them.
    """
    k = mu.k
    half = [formula_distance_T(mu, act(r, mu), th) for r in range(1, k // 2 + 1)]
    per = tuple(half[min(r, k - r) - 1] for r in range(1, k))
    return AlmostFixedCertificate(mu, max(per, default=0), per)


def is_fixed(m: AugMarking) -> bool:
    """True iff every rotation fixes m.

    The rotation by 1 generates Z/k, and it fixes m exactly when all gluing
    blocks are equal and all slot blocks are equal.
    """
    return m.glue.count(m.glue[0]) == m.k and m.slots.count(m.slots[0]) == m.k


def _rounded_mean(values: list[int]) -> int:
    """The mean rounded half up, floor(mean + 1/2), in exact integers."""
    return (2 * sum(values) + len(values)) // (2 * len(values))


def short_cut(th: Thresholds) -> int:
    """Length level above which a curve counts as short."""
    return th.R + th.K + 2


def seed_marking(mu: AugMarking, th: Thresholds) -> AugMarking:
    """Exactly fixed seed: slot 0's base and level, the rounded mean gluing
    level, and block 0's twist data over an orbit with a level above
    short_cut(th), twist 0 elsewhere.

    Twist data off the short orbits is dropped: the staged multitwists
    recover it, and keeping it would make every stage a no-op by
    construction.  Over a short orbit the seed is what a multitwist about
    block 0's curve, cancelling mu's offset there (_cancel_offset), makes
    of a seed with twist 0: block 0's twist data.  Over a short slot orbit
    the seed's slot block is therefore mu.slots[0] itself, which needs
    slot 0's base to be the base of every slot.  Once the orbit diameter
    is at most th.R it is: a slope short in one slot and missing from
    another has, against the rotate that carries the one slot to the
    other, an annulus row past both th.K and th.R, so the certificate
    already fails.
    """
    k, cut = mu.k, short_cut(th)
    tau = mu.glue[0].tau if max(g.D for g in mu.glue) > cut else 0
    glue = GlueBlock(tau, _rounded_mean([g.D for g in mu.glue]))
    s0 = mu.slots[0]
    if max(s.D for s in mu.slots) <= cut:
        s0 = SlotBlock(s0.base, transversal_at(s0.base, 0), s0.D)
    return AugMarking((glue,) * k, (s0,) * k)


# ---------------------------------------------------------------------------
# The staged multitwist search.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SearchStage:
    family: SymmetricFamily
    exponent: int
    marking_after: AugMarking
    distance_after: int
    residuals: tuple[int, ...]

    def to_json(self) -> dict:
        core = self.family.representative.subsurface.curve
        core_json = (
            {"kind": "glue"}
            if isinstance(core, Glue)
            else {"kind": "slot", "slope": str(core.slope)}
        )
        return {
            "core": core_json,
            "time_index": self.family.time_index,
            "values": [m.value for m in self.family.members],
            "exponent": abs(self.exponent),
            "sign": 1 if self.exponent >= 0 else -1,
            "marking_after": self.marking_after.to_json(),
            "distance_after": self.distance_after,
            "residuals": list(self.residuals),
        }


@dataclass(frozen=True)
class ReductionTrace:
    seed: AugMarking
    stages: tuple[SearchStage, ...]
    final: AugMarking
    final_distance: int

    def to_json(self) -> dict:
        return {
            "version": 1,
            "seed": self.seed.to_json(),
            "stages": [s.to_json() for s in self.stages],
            "final": self.final.to_json(),
            "final_distance": self.final_distance,
        }

    def to_json_str(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True)


def _cancel_offset(
    x: AugMarking, core: CurveRef, mu: AugMarking
) -> tuple[AugMarking, int]:
    """(x', d): x after one multitwist, the same power d about every rotate
    of core, where d is mu's annular coordinate over core minus x's.

    A twist fixes its core, so a slot based on the core keeps its base and
    its transversal's twist coordinate moves by d.
    """
    d = annulus_point(core, mu).x - annulus_point(core, x).x
    if d == 0:
        return x, d
    if isinstance(core, Glue):
        return AugMarking(tuple(GlueBlock(g.tau + d, g.D) for g in x.glue), x.slots), d
    word = TwistWord(core.slope, d)
    return AugMarking(x.glue, tuple(
        SlotBlock(twist(word, blk.base), twist(word, blk.trans), blk.D) for blk in x.slots
    )), d


def fixed_point_search(
    mu: AugMarking, th: Thresholds
) -> tuple[AugMarking, ReductionTrace]:
    """Turn an almost-fixed marking into an exactly fixed one nearby.

    Precondition: orbit diameter <= th.R (PreconditionError with the
    certificate otherwise).  The seed is seed_marking(mu, th), which is
    exactly fixed.  Large links against the seed are grouped
    into symmetric families; each stage applies one symmetric multitwist
    whose exponent is the representative's annular offset, in time order.
    Each stage checks that its residuals are within th.stage_bound of the
    representative's level shift, and the search checks that its final
    distance is within th.final_bound(k); Thresholds derives both, with
    their proofs, from the thresholds alone.  A failed check raises
    AssertionError, also under python -O.

    No stage moves a later family, so the family order only orders the
    trace.  The seed has mu's slot-0 base b0, and a family's representative
    is its index-0 member.  A stage about a slot slope other than b0 reads
    two equal points, since mu and x both have base b0 in slot 0 and the
    point over such a slope reads only the base: its exponent is 0.  The
    stage about b0 changes only transversals, which the point over no other
    slope reads, and the gluing stage changes only gluing blocks.  Nor does
    a stage lose exact symmetry: _cancel_offset applies one map to every
    block of a fixed marking.

    The formula rows of (mu, seed) are read once.  They give the seed's
    distance and the links that group_symmetric_families groups.  Each
    stage's distance_after is then the previous distance, minus the
    family's member values and plus its residuals, each cut at th.K as the
    formula cuts its rows; final_distance is the last of them, or the
    seed's distance with no stage.  The update is exact, that is, it is
    formula_distance_T(mu, x, th), because a stage changes no row but its
    family's, and those rows read the member values before the stage and
    the residuals after it.  No stage changes a base (a twist about b0
    fixes every slot's base b0), so the slot rows, the whole surface's
    and the set of annulus rows stay as they are.  Then, by stage:
    - The gluing stage changes only gluing blocks, which only the gluing
      rows read, one per member.  No slot stage changes them, so before the
      stage they read the seed's blocks, as the member values do.
    - The stage about b0 changes only slot transversals, and a slot block's
      point over a slope reads its transversal only over its base.  So of
      the rows of slot i only the one over b0 changes, and every slot has
      that row, since b0 is x's base there and a pivot region holds both
      bases.  The stages before it have exponent 0 or touch only gluing
      blocks, so before it the rows read the seed's transversals.
    - Every other stage has exponent 0 and changes nothing.  Its residuals
      are its member values, as x has the seed's bases, so the update adds
      0.  A member whose slope is off its slot's pivot region has no formula
      row, and it reads at most 1 <= K (Thresholds.row_bound), so the cut
      zeroes it on both sides.
    """
    if is_fixed(mu):
        # orbit diameter 0; nothing to search for
        return mu, ReductionTrace(seed=mu, stages=(), final=mu, final_distance=0)
    cert = almost_fixed_certificate(mu, th)
    if cert.diameter > th.R:
        raise PreconditionError(
            f"orbit diameter {cert.diameter} exceeds R={th.R}", cert
        )
    x = seed = seed_marking(mu, th)
    rows = formula_terms(mu, seed, th)
    distance = sum(contrib for _, _, contrib in rows)
    stages = []
    for fam in group_symmetric_families(mu, seed, rows, th):
        core = fam.representative.subsurface.curve
        x, d = _cancel_offset(x, core, mu)
        ours, theirs = orbit_points(core, mu), orbit_points(core, x)
        residuals = tuple(map(horo_distance, ours, theirs))
        bound = th.stage_bound(abs(ours[0].level - theirs[0].level))
        if max(residuals) > bound:
            raise AssertionError(f"stage {len(stages)} residuals {residuals} exceed {bound}")
        distance += sum(r for r in residuals if r > th.K)
        distance -= sum(m.value for m in fam.members if m.value > th.K)
        stages.append(SearchStage(fam, d, x, distance, residuals))
    bound = th.final_bound(mu.k)
    if distance > bound:
        raise AssertionError(f"final distance {distance} exceeds {bound}")
    return x, ReductionTrace(seed, tuple(stages), x, distance)


# ---------------------------------------------------------------------------
# Coarse barycenter.
# ---------------------------------------------------------------------------


def coarse_barycenter(
    sigma: AugMarking, f: int, th: Thresholds
) -> AugMarking:
    """An exactly fixed marking within linearly bounded distance of sigma.

    f must generate the rotation group; th is not read, since the average
    needs no thresholds.  The construction averages the orbit: every gluing
    block becomes the mean twist and level, every slot block becomes the
    slot-0 base with the mean of the orbit's annular coordinates and levels.
    The average of a full orbit is the same seen from every slot, so the
    result is exactly fixed, which is checked (AssertionError otherwise).
    """
    k = sigma.k
    if math.gcd(f, k) != 1:
        raise ValueError(f"rotation by {f} does not generate Z/{k}")
    b0 = sigma.slots[0].base
    g, s = (
        HoroPoint(_rounded_mean([p.x for p in pts]), _rounded_mean([p.level for p in pts]))
        for pts in (orbit_points(Glue(0), sigma), orbit_points(InSlot(0, b0), sigma))
    )
    block = SlotBlock(b0, transversal_at(b0, s.x), s.level)
    bary = AugMarking((GlueBlock(g.x, g.level),) * k, (block,) * k)
    if not is_fixed(bary):
        raise AssertionError("the orbit average is not fixed")
    return bary
