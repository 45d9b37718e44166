"""Flat slit-torus family behind the non-quasiconvexity experiment.

Two unit tori carry two small phased slit tori glued in a 4-cycle along
parallel 45-degree slits.  Flowing by diag(e^t, e^{-t}) pinches the first
slit pair around t = d/2 and the second around t = 3d/2, while the small
tori's systoles walk along the Farey graph at rate 2/log lambda.  A snapshot
needs only the small tori's flowed lattices, their slit lengths and the
total area, so the family computes those and builds no slit geometry.  A
lattice is a plain tuple of its basis vectors ((x1, y1), (x2, y2)), flowed
and reduced in double precision, so the module needs nothing past the
standard library.
Snapshots feed the numerical Rafi formula; the orbit-diameter curve
of a snapshot against its slot swap is flat near the endpoints and grows
linearly to a peak at the midpoint, which is the whole point of the
construction.

Within one nonqc_experiment call each distinct slot time's lattice is
reduced once (a slot's time is constant outside its window, and both slots
sweep the same times), and each grid row walks the Farey graph once per pair
of distinct slot slopes, for the orbit diameter and every candidate of
distance_to_fixed alike.  Those candidates are combined from one formula
side per slot and one per gluing curve of the row.  Nothing is kept between
calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import linear_regression
from typing import Callable, Optional

from .metrics import CurveSnap, Snapshot, Thresholds, rafi_formula, rafi_side, rafi_total
from .slots import Slope, farey_distance

__all__ = [
    "LAMBDA",
    "LOG_LAMBDA",
    "FAREY_RATE",
    "ParameterRegimeError",
    "slit_length",
    "shortest_slope",
    "FlowedSlots",
    "TrajectoryFamily",
    "Construction",
    "build_construction",
    "shadow",
    "rotate_snapshot",
    "farey_lookup",
    "distance_to_fixed",
    "NonqcRow",
    "NonqcResult",
    "nonqc_experiment",
    "nonqc_sweep",
]

LAMBDA = (3 + math.sqrt(5)) / 2
LOG_LAMBDA = math.log(LAMBDA)
FAREY_RATE = 2 / LOG_LAMBDA  # systole pivots per unit flow time

_GAMMA = (1 + math.sqrt(5)) / 2
_QUARTER = 5 ** -0.25


class ParameterRegimeError(ValueError):
    """The construction parameters left their valid regime."""


# ---------------------------------------------------------------------------
# Flat tori.
# ---------------------------------------------------------------------------

# lattice basis ((x1, y1), (x2, y2)): the two generator vectors
Basis = tuple[tuple[float, float], tuple[float, float]]

# unit-area torus whose marking diagonalizes [[2,1],[1,1]]: the expanding
# eigendirection (eigenvalue lambda) maps to the vertical axis, so remarking
# by the matrix equals flowing by -log lambda
_ANOSOV_BASIS: Basis = ((_QUARTER / _GAMMA, _QUARTER * _GAMMA), (-_QUARTER, _QUARTER))


def _flowed_basis(t: float) -> Basis:
    """The Anosov torus's basis flowed by diag(e^t, e^-t), in double precision."""
    (x1, y1), (x2, y2) = _ANOSOV_BASIS
    grow, shrink = math.exp(t), math.exp(-t)
    return (x1 * grow, y1 * shrink), (x2 * grow, y2 * shrink)


def _area(basis: Basis) -> float:
    (a, c), (b, d) = basis
    return abs(a * d - c * b)


def slit_length(rho: float, u: float) -> float:
    """Length at flow time u of a 45-degree slit of minimal length rho."""
    return rho * math.sqrt(math.cosh(2 * u))


# ---------------------------------------------------------------------------
# Lattice systoles.
# ---------------------------------------------------------------------------


def shortest_slope(basis: Basis) -> tuple[Slope, float]:
    """Shortest primitive class of a 2d lattice and its length.

    basis is the plain tuple ((x1, y1), (x2, y2)) of the two generator
    vectors; no torus object is built.  Lagrange reduction in double
    precision with exact integer bookkeeping; the returned slope is the
    class of the reduced first vector.  Ties (the square torus) resolve to
    the earlier basis vector, so the unit lattice reports 1/0.
    """
    (x1, y1), (x2, y2) = basis
    c1, c2 = (1, 0), (0, 1)
    for _ in range(256):
        n1, n2 = x1 * x1 + y1 * y1, x2 * x2 + y2 * y2
        if n2 < n1:
            x1, y1, x2, y2, n1 = x2, y2, x1, y1, n2
            c1, c2 = c2, c1
        mu = round((x1 * x2 + y1 * y2) / n1)
        if mu == 0:
            break
        x2, y2 = x2 - mu * x1, y2 - mu * y1
        c2 = (c2[0] - mu * c1[0], c2[1] - mu * c1[1])
    else:
        raise ArithmeticError("lattice reduction did not terminate")
    return Slope.of(*c1), math.sqrt(n1)


# ---------------------------------------------------------------------------
# The slit construction.
# ---------------------------------------------------------------------------

# Regime of the construction: d <= 55 is the range on which the float
# family was validated, by bisection for c from 1e-6 to 0.9, and a
# small-torus scale delta below about 1e-153.8 overflows the shadow.
_D_MAX = 55.0
_DELTA_MIN = 1e-150


@dataclass(frozen=True)
class FlowedSlots:
    """What a shadow reads of one snapshot of the flowed family.

    area: total area of the slit surface; scale: the small tori's scale
    delta; slots: per slot, the systole slope of the small torus's flowed
    lattice, the systole's length on the unscaled torus, and the length of
    the slot's slits.
    """

    area: float
    scale: float
    slots: tuple[tuple[Slope, float, float], ...]


# slot time -> (area, systole slope, systole length) of the flowed small torus
Reductions = dict[float, tuple[float, Slope, float]]


def _reduced_small_torus(u: float) -> tuple[float, Slope, float]:
    basis = _flowed_basis(u)
    slope, length = shortest_slope(basis)
    return _area(basis), slope, length


@dataclass(frozen=True)
class TrajectoryFamily:
    """One-parameter family of slit surfaces on [0, 2d].

    The surface at time t is the 4-cycle (big, small 0, big, small 1): the
    big tori are the Anosov torus flowed by t, small torus i is the Anosov
    torus flowed by its slot time and scaled by delta, and slot i's slits
    have length slit_length(rho, slot time).  Each small torus and its slit
    pair carries a phase, and the piece's time is clamped to its active
    window, which is the combinatorial straightening that makes shadows
    stable while the piece is inactive.  Windows of (-inf, inf) unclamp it.
    """

    d: float
    c: float
    delta: float
    phases: tuple[float, float]
    windows: tuple[tuple[float, float], tuple[float, float]]

    @property
    def rho(self) -> float:
        return self.c * math.exp(-self.d / 2)

    def slot_time(self, i: int, t: float) -> float:
        lo, hi = self.windows[i]
        return min(max(t, lo), hi) + self.phases[i]

    def at(self, t: float, reduced: Reductions) -> FlowedSlots:
        """The snapshot record at time t.

        reduced maps slot times to their small torus's reading and is filled
        as it goes, so each distinct slot time is reduced once per dict; pass
        a fresh dict for a one-off snapshot.
        """
        u = [self.slot_time(i, t) for i in range(2)]
        for ui in u:
            if ui not in reduced:
                reduced[ui] = _reduced_small_torus(ui)
        small = [reduced[ui] for ui in u]
        big = _area(_flowed_basis(t))
        sq = self.delta**2
        # summed component by component around the 4-cycle, not as
        # 2 + 2 delta^2: rafi_formula floors values derived from it
        area = big + sq * small[0][0] + big + sq * small[1][0]
        slots = tuple(
            (slope, length, slit_length(self.rho, ui))
            for (_, slope, length), ui in zip(small, u)
        )
        return FlowedSlots(area, self.delta, slots)


@dataclass(frozen=True)
class Construction:
    d: float
    c: float
    delta: float
    rho: float
    main: TrajectoryFamily
    ref_start: TrajectoryFamily
    ref_end: TrajectoryFamily


def build_construction(d: float, c: float, delta: float) -> Construction:
    """Main family plus the two reference families, on [0, 2d].

    The main family phases its small tori at -d/2 and -3d/2, so the first
    slit pair is shortest at t = d/2 and active on [0, d], the second at
    t = 3d/2 and active on [d, 2d].  The references phase both pieces alike.
    """
    if not 0 < c < 1:
        raise ParameterRegimeError(f"c={c} outside (0, 1)")
    if not 0 < d <= _D_MAX:
        raise ParameterRegimeError(
            f"d={d} outside (0, {_D_MAX}], where the float family was validated"
        )
    rho = c * math.exp(-d / 2)
    if not _DELTA_MIN <= delta <= rho / 10:
        raise ParameterRegimeError(
            f"delta={delta} outside [{_DELTA_MIN}, rho/10] at the slit scale rho={rho}"
        )

    def family(p1: float, p2: float, w1, w2) -> TrajectoryFamily:
        return TrajectoryFamily(d, c, delta, (p1, p2), (w1, w2))

    main = family(-d / 2, -3 * d / 2, (0.0, d), (d, 2 * d))
    ref_start = family(-d / 2, -d / 2, (0.0, d), (0.0, d))
    ref_end = family(-3 * d / 2, -3 * d / 2, (d, 2 * d), (d, 2 * d))
    return Construction(d, c, delta, rho, main, ref_start, ref_end)


# ---------------------------------------------------------------------------
# Shadows.
# ---------------------------------------------------------------------------


def _glue_neg_log_ext(ell: float, area: float) -> float:
    # extremal length of a slit-boundary curve: l^2/Area lower bound against
    # the annulus-modulus upper bound pi/log(1/l); the larger wins
    lower = ell * ell / area
    if ell < 1.0:
        upper = math.pi / math.log(1.0 / ell)
        est = max(lower, upper)
    else:
        est = lower
    return -math.log(est)


def shadow(flowed: FlowedSlots) -> Snapshot:
    """Combinatorial snapshot: systole slope and shortness per slot, slit
    shortness per gluing curve.  A gluing curve has no slope and carries no
    twist.  It reads the systoles that TrajectoryFamily.at reduced and
    reduces no lattice itself."""
    area = flowed.area
    slots = []
    glue = []
    for slope, length, slit in flowed.slots:
        phys = flowed.scale * length
        slots.append(CurveSnap(slope, math.log(area / (phys * phys))))
        glue.append(CurveSnap(None, _glue_neg_log_ext(slit, area)))
    return Snapshot(tuple(slots), tuple(glue))


def rotate_snapshot(r: int, snap: Snapshot) -> Snapshot:
    k = snap.k
    return Snapshot(
        tuple(snap.slots[(i - r) % k] for i in range(k)),
        tuple(snap.glue[(j - r) % len(snap.glue)] for j in range(len(snap.glue))),
    )


# the Farey distance of two distinct slopes, as rafi_side reads it
FareyLookup = Callable[[Slope, Slope], int]


def farey_lookup(snap: Snapshot) -> FareyLookup:
    """The Farey distance between any two distinct slot slopes of snap.

    Each unordered pair is walked once, here.  Every slot pair that the
    orbit diameter and distance_to_fixed compare is a pair of the
    snapshot's own slopes, so the lookup serves them all.
    """
    slopes = list(dict.fromkeys(s.slope for s in snap.slots))
    table = {}
    for i, a in enumerate(slopes):
        for b in slopes[i + 1 :]:
            table[a, b] = table[b, a] = farey_distance(a, b)
    return lambda a, b: table[a, b]


def _swap_distance(
    snap: Snapshot, th: Thresholds, farey: FareyLookup
) -> tuple[float, int]:
    """rafi_formula(snap, rotate_snapshot(1, snap), th) and its slot term,
    read from farey, the snapshot's farey_lookup."""
    swapped = rotate_snapshot(1, snap)
    slot = rafi_side(zip(snap.slots, swapped.slots), th, farey)
    return rafi_total(slot, rafi_side(zip(snap.glue, swapped.glue), th, farey)), slot[0]


def distance_to_fixed(snap: Snapshot, th: Thresholds, farey: FareyLookup) -> float:
    """Distance to the swap-fixed locus: best symmetrized snapshot wins.

    A candidate repeats one slot and one gluing curve of snap, and its
    value equals rafi_formula(snap, candidate, th).  Its slot side depends
    only on the repeated slot and its gluing side only on the repeated
    gluing curve, so the row builds one side per slot and one per gluing
    curve (reading farey, the snapshot's farey_lookup, so no candidate walks
    the Farey graph), k^2 + g^2 entry pairs in all, and takes rafi_total of
    each of the k * g pairs of sides.
    """
    slot_sides, glue_sides = (
        [rafi_side(zip(curves, (y,) * len(curves)), th, farey) for y in curves]
        for curves in (snap.slots, snap.glue)
    )
    return min(
        (rafi_total(slot, glue) for slot in slot_sides for glue in glue_sides),
        default=math.inf,
    )


# ---------------------------------------------------------------------------
# The experiment.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NonqcRow:
    """One grid time; farey_term is the slot curve-graph part of orbit_diam."""

    t: float
    orbit_diam: float
    dist_to_fixed: float
    slot_slopes: tuple[Slope, ...]
    glue_loglen: float
    farey_term: int


@dataclass(frozen=True)
class NonqcResult:
    """nonqc_experiment's rows and their summary.

    ref_start_gap and ref_end_gap are 0 by construction: at t = 0 every
    piece of the main family and of both reference families sits at slot
    time -d/2, and at t = 2d at d/2, so the three shadows are equal there
    (tests/test_flatsim.py checks it for d = 10..40 and 55 and c in {1e-6,
    0.1, 0.5, 0.9}).  Both fields stay, as the E0 gates read them.
    """

    d: float
    c: float
    delta: float
    rows: tuple[NonqcRow, ...]
    peak_t: float
    peak_value: float
    midpoint: float
    endpoint_max: float
    ref_start_gap: float
    ref_end_gap: float


def nonqc_experiment(
    d: float,
    c: float = 0.1,
    delta: Optional[float] = None,
    th: Optional[Thresholds] = None,
    n_steps: int = 40,
) -> NonqcResult:
    """Orbit-diameter curve of the slit construction over [0, 2d].

    Per grid time: snapshot, orbit diameter against the slot swap with its
    Farey term, distance to the fixed locus, and the slit shortness column.
    Each distinct slot time is reduced once for the whole call (the
    reference families included), and each row walks the Farey graph once
    per pair of distinct slot slopes, for its farey_lookup.  The endpoint
    and midpoint claims are checked against the calibrated bounds by
    cli._nonqc_checks, not here.
    """
    th = th or Thresholds()
    delta = delta if delta is not None else c * math.exp(-d / 2) / 100
    cons = build_construction(d, c, delta)
    fam = cons.main
    reduced: Reductions = {}
    rows = []
    for i in range(n_steps + 1):
        t = 2 * d * i / n_steps
        flowed = fam.at(t, reduced)
        snap = shadow(flowed)
        farey = farey_lookup(snap)
        orbit_diam, farey_term = _swap_distance(snap, th, farey)
        rows.append(
            NonqcRow(
                t=t,
                orbit_diam=orbit_diam,
                dist_to_fixed=distance_to_fixed(snap, th, farey),
                slot_slopes=tuple(s.slope for s in snap.slots),
                glue_loglen=max(math.log(1 / slit) for _, _, slit in flowed.slots),
                farey_term=farey_term,
            )
        )
    peak = max(rows, key=lambda r: r.orbit_diam)
    mid = min(rows, key=lambda r: abs(r.t - d))
    endpoint_max = max(rows[0].orbit_diam, rows[-1].orbit_diam)
    ref_start_gap = rafi_formula(
        shadow(fam.at(0.0, reduced)), shadow(cons.ref_start.at(0.0, reduced)), th
    )
    ref_end_gap = rafi_formula(
        shadow(fam.at(2 * d, reduced)), shadow(cons.ref_end.at(2 * d, reduced)), th
    )
    return NonqcResult(
        d=d,
        c=c,
        delta=delta,
        rows=tuple(rows),
        peak_t=peak.t,
        peak_value=peak.orbit_diam,
        midpoint=mid.orbit_diam,
        endpoint_max=endpoint_max,
        ref_start_gap=ref_start_gap,
        ref_end_gap=ref_end_gap,
    )


def nonqc_sweep(
    ds: tuple[float, ...] = (10, 15, 20, 25, 30, 35, 40), **params
) -> tuple[list[NonqcResult], float, float]:
    """Experiment per d plus the fitted midpoint growth (slope, intercept).

    params are nonqc_experiment's keywords (c, delta, th, n_steps) and reach
    every d alike, so a fixed delta is fixed across the whole sweep.
    """
    results = [nonqc_experiment(d, **params) for d in ds]
    slope, intercept = linear_regression(
        [r.d for r in results], [r.midpoint for r in results]
    )
    return results, slope, intercept
