"""Constructive search for exactly symmetric markings.

Given a marking whose orbit under the cyclic slot rotation has small
diameter, the search produces a marking fixed by the rotation on the nose,
at a distance bounded by a constant depending only on the slot count and
the orbit bound, never on the size of the twist data.  The engine is the
staged symmetric multitwist: large annular links between the input and an
exactly fixed seed come in symmetric families, and one multitwist per
family, applied in time order, cancels the family's twist offset.  That one
step, _cancel_offset, also serves the short-curve reduction, and every
orbit is read in one projection.orbit_points.

Also here: the orbit-diameter certificate, symmetric short-curve analysis,
the short-curve reduction that matches length data before the staged run,
and the coarse barycenter for arbitrary (not almost-fixed) inputs: the
orbit average, exactly fixed by construction, so it needs no search.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from statistics import fmean

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
    SymmetryViolationError,
    Thresholds,
    formula_distance_T,
    group_symmetric_families,
)
from .projection import annulus_point, orbit_points, proj_distance
from .slots import TwistWord, transversal_at, twist

__all__ = [
    "AlmostFixedCertificate",
    "PreconditionError",
    "SearchStage",
    "ReductionTrace",
    "orbit_diameter",
    "almost_fixed_certificate",
    "is_fixed",
    "seed_marking",
    "short_cut",
    "symmetric_short_curves",
    "reduce_short_curves",
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


def orbit_diameter(mu: AugMarking, th: Thresholds) -> int:
    """Max pairwise formula distance over the rotation orbit."""
    return almost_fixed_certificate(mu, th).diameter


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


def _iround(v: float) -> int:
    return int(math.floor(v + 0.5))


def seed_marking(mu: AugMarking) -> AugMarking:
    """Exactly fixed seed: length data kept, twist data zeroed.

    Slot blocks copy the slot-0 base and length; gluing levels are averaged.
    Twist data is deliberately dropped: the staged multitwists recover it,
    and keeping it would make every stage a no-op by construction.
    """
    k = mu.k
    glue_level = _iround(fmean(g.D for g in mu.glue))
    base = mu.slots[0].base
    slot = SlotBlock(base, transversal_at(base, 0), mu.slots[0].D)
    return AugMarking((GlueBlock(0, glue_level),) * k, (slot,) * k)


# ---------------------------------------------------------------------------
# Short curves.
# ---------------------------------------------------------------------------


def short_cut(th: Thresholds) -> int:
    """Length level above which a curve counts as short."""
    return th.R + th.K + 2


def symmetric_short_curves(mu: AugMarking, th: Thresholds) -> list[list[CurveRef]]:
    """Full rotation orbits of curves with length level above the cut.

    For an almost-fixed marking every short curve's orbit is again short up
    to the orbit slack; a collapse (different base slope in a rotated slot,
    or length falling past the slack) certifies the precondition failed.
    """
    cut = short_cut(th)
    k = mu.k
    orbits: list[list[CurveRef]] = []
    glue_levels = [g.D for g in mu.glue]
    if max(glue_levels) > cut:
        if min(glue_levels) < max(glue_levels) - th.R - 2:
            raise SymmetryViolationError(
                f"gluing levels {glue_levels} are short on one index only"
            )
        orbits.append([Glue(j) for j in range(k)])
    slot_levels = [s.D for s in mu.slots]
    if max(slot_levels) > cut:
        i_max = max(range(k), key=lambda i: slot_levels[i])
        base = mu.slots[i_max].base
        for i in range(k):
            if mu.slots[i].base != base:
                raise SymmetryViolationError(
                    f"short base {base} of slot {i_max} is not the base of slot {i}"
                )
            if slot_levels[i] < slot_levels[i_max] - th.R - 2:
                raise SymmetryViolationError(
                    f"slot levels {slot_levels} are short on one index only"
                )
        orbits.append([InSlot(i, base) for i in range(k)])
    return orbits


def reduce_short_curves(
    mu: AugMarking, seed: AugMarking, th: Thresholds
) -> AugMarking:
    """Match the seed's twist data to mu over the short-curve orbits.

    One symmetric multitwist per short orbit, exponent read off the
    smallest-index representative.  Keeps the seed exactly fixed and brings
    the horoball distance over every short curve down to the orbit slack.
    A short slot slope is the base of every slot of mu, and so of a seed
    of mu (seed_marking), which the twist about it keeps.
    """
    if not is_fixed(seed):
        raise ValueError("seed is not exactly fixed")
    out = seed
    for orbit in symmetric_short_curves(mu, th):
        out, _ = _cancel_offset(out, orbit[0], mu)
    return out


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


# residual bound on a processed family, the induction's first claim
_STAGE_BOUND = 14


def fixed_point_search(
    mu: AugMarking, th: Thresholds
) -> tuple[AugMarking, ReductionTrace]:
    """Turn an almost-fixed marking into an exactly fixed one nearby.

    Precondition: orbit diameter <= th.R (PreconditionError with the
    certificate otherwise).  The seed is the reduced symmetrization of mu,
    which is exactly fixed.  Large links against the seed are grouped
    into symmetric families; each stage applies one symmetric multitwist
    whose exponent is the representative's annular offset, in time order.
    Stage assertions check the induction: processed families keep residual
    distance <= _STAGE_BOUND, unprocessed families move by at most a
    constant; family values must be comparable within th.R + 2.  The
    result is exactly fixed with final distance bounded in terms of
    (k, th.R) only.
    """
    if is_fixed(mu):
        # orbit diameter 0; nothing to search for
        return mu, ReductionTrace(seed=mu, stages=(), final=mu, final_distance=0)
    cert = almost_fixed_certificate(mu, th)
    if cert.diameter > th.R:
        raise PreconditionError(
            f"orbit diameter {cert.diameter} exceeds R={th.R}", cert
        )
    x = seed = reduce_short_curves(mu, seed_marking(mu), th)
    families = group_symmetric_families(mu, x, th)
    # the unprocessed representatives' values against the current x
    pending = [f.representative.value for f in families[1:]]
    stages = []
    for n, fam in enumerate(families):
        core = fam.representative.subsurface.curve
        x, d = _cancel_offset(x, core, mu)
        assert is_fixed(x), "stage output lost exact symmetry"
        residuals = tuple(map(horo_distance, orbit_points(core, mu), orbit_points(core, x)))
        # induction (1): the processed family is now resolved
        assert max(residuals) <= _STAGE_BOUND, (
            f"stage {n} residuals {residuals} exceed {_STAGE_BOUND}"
        )
        # induction (2): later families barely move
        later = families[n + 1:]
        moved = [proj_distance(f.representative.subsurface, mu, x) for f in later]
        for f, before, now in zip(later, pending, moved):
            assert abs(now - before) <= 6, (
                f"unprocessed family {f.time_index} moved {before} -> {now}"
            )
        pending = moved[1:]
        stages.append(SearchStage(fam, d, x, formula_distance_T(mu, x, th), residuals))
    assert is_fixed(x)
    # x is unchanged since the last stage, which already measured it
    final_distance = stages[-1].distance_after if stages else formula_distance_T(mu, x, th)
    return x, ReductionTrace(seed, tuple(stages), x, final_distance)


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
    result is exactly fixed, which is asserted.
    """
    k = sigma.k
    if math.gcd(f, k) != 1:
        raise ValueError(f"rotation by {f} does not generate Z/{k}")
    b0 = sigma.slots[0].base
    g, s = (
        HoroPoint(_iround(fmean(p.x for p in pts)), _iround(fmean(p.level for p in pts)))
        for pts in (orbit_points(Glue(0), sigma), orbit_points(InSlot(0, b0), sigma))
    )
    block = SlotBlock(b0, transversal_at(b0, s.x), s.level)
    bary = AugMarking((GlueBlock(g.x, g.level),) * k, (block,) * k)
    assert is_fixed(bary), "the orbit average is not fixed"
    return bary
