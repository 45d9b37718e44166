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

Within one nonqc_experiment call each distinct slot time is read once: its
lattice is reduced and what a row needs of the slot is kept as one
SlotReading (a slot's time is constant outside its window, and both slots
sweep the same times, the reference families' included).  Each grid row adds
the big tori's area to its two readings and reads its orbit diameter and its
distance to the fixed locus from two rafi_pair calls, one on the slot pair
and one on the gluing pair.  It builds no snapshot and walks the Farey graph
at most once.  Nothing is kept between calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import linear_regression
from typing import NamedTuple, Optional

from .metrics import CurveSnap, Snapshot, Thresholds, rafi_formula, rafi_pair, rafi_side, rafi_total
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


class SlotReading(NamedTuple):
    """One slot at one slot time, its small torus reduced once: the systole
    slope and length of the unscaled flowed lattice and the slit length,
    then what a nonqc_experiment row reads of them.  annulus is
    pi / log(1/slit), or 0.0 when slit >= 1."""

    slope: Slope
    length: float
    slit: float
    scaled_area: float  # delta^2 * area of the small torus
    systole_sq: float  # (delta * length)^2
    slit_sq: float
    annulus: float
    log_inv_slit: float


# slot time -> its reading, for the families of one construction
Reductions = dict[float, SlotReading]


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

    def _reading(self, u: float, reduced: Reductions) -> SlotReading:
        reading = reduced.get(u)
        if reading is None:
            basis = _flowed_basis(u)
            slope, length = shortest_slope(basis)
            slit = slit_length(self.rho, u)
            phys, log_inv = self.delta * length, math.log(1 / slit)
            reading = reduced[u] = SlotReading(
                slope, length, slit, self.delta**2 * _area(basis), phys * phys, slit * slit,
                math.pi / log_inv if slit < 1.0 else 0.0, log_inv,
            )
        return reading

    def _surface(self, t: float, reduced: Reductions) -> tuple[float, SlotReading, SlotReading]:
        """Total area at time t and the two slots' readings."""
        a = self._reading(self.slot_time(0, t), reduced)
        b = self._reading(self.slot_time(1, t), reduced)
        big = _area(_flowed_basis(t))
        # summed component by component around the 4-cycle, not as
        # 2 + 2 delta^2: rafi_formula floors values derived from it
        return big + a.scaled_area + big + b.scaled_area, a, b

    def at(self, t: float, reduced: Reductions) -> FlowedSlots:
        """The snapshot record at time t, which with shadow defines what
        nonqc_experiment's rows compute; only its reference gaps build it.

        reduced maps slot times to their readings and is filled as it goes,
        so each distinct slot time is reduced once per dict.  A dict serves
        the families of one construction, which share delta and rho; pass a
        fresh dict for a one-off snapshot.
        """
        area, *small = self._surface(t, reduced)
        return FlowedSlots(area, self.delta, tuple((r.slope, r.length, r.slit) for r in small))


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
    reduces no lattice itself.  nonqc_experiment's rows compute its four
    values from their slot readings and are tested against it bit for bit;
    only the call's two reference gaps read it."""
    area = flowed.area
    slots = []
    glue = []
    for slope, length, slit in flowed.slots:
        phys = flowed.scale * length
        slots.append(CurveSnap(slope, math.log(area / (phys * phys))))
        glue.append(CurveSnap(None, _glue_neg_log_ext(slit, area)))
    return Snapshot(tuple(slots), tuple(glue))


def distance_to_fixed(snap: Snapshot, th: Thresholds) -> float:
    """Distance to the swap-fixed locus: best symmetrized snapshot wins.

    A candidate repeats one slot and one gluing curve of snap, and its
    value equals rafi_formula(snap, candidate, th).  Its slot side depends
    only on the repeated slot and its gluing side only on the repeated
    gluing curve, so it builds one side per slot and one per gluing curve,
    k^2 + g^2 entry pairs in all, and takes rafi_total of each of the k * g
    pairs of sides.  No runtime code calls it: a nonqc_experiment row reads
    the same value from its two sides.  It stays for the tests, and because
    the layer tracer of perfbench/tracer.py times it by name.
    """
    slot_sides, glue_sides = (
        [rafi_side(zip(curves, (y,) * len(curves)), th, farey_distance) for y in curves]
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

    Per grid time: orbit diameter against the slot swap with its Farey
    term, distance to the fixed locus, and the slit shortness column.  Each
    distinct slot time is read once for the whole call (the reference
    families included).  The endpoint and midpoint claims are checked
    against the calibrated bounds by cli._nonqc_checks, not here.  n_steps
    must be an int >= 1.

    A row is shadow(main.at(t)) without the records: it adds the big tori's
    area to its two slot readings and computes the snapshot's four curve
    values in shadow's float order.  It is read from two formula sides,
    slot = rafi_pair of the slot pair (A, B) and glue = rafi_pair of the
    gluing pair (G0, G1), so it walks the Farey graph once when A and B
    have distinct slopes and not at all otherwise.  The snapshot has two
    slots and two gluing curves, rafi_side is the fold of rafi_pair over its
    pairs, and rafi_pair's terms are symmetric in a pair, so:

    - orbit_diam is rafi_formula(snap, swapped, th), where the swap
      rotates both the slots and the gluing curves.  Its slot pairs are
      (A, B) and (B, A), with equal terms, so its slot side has twice
      slot's Farey sum and slot's two maxima; its gluing pairs likewise
      give glue.  Hence rafi_total((2 * slot[0], slot[1], slot[2]), glue).
    - dist_to_fixed is the least value over the candidates that repeat a
      slot y and a gluing curve x.  A self pair (y, y) adds 0 to every
      term: its two entries share a slope and a shortness, so either both
      are short, with horoball gap 0, or neither is.  Every candidate's slot
      side is thus slot and its gluing side glue, all candidates are equal,
      and the value is rafi_total(slot, glue), what distance_to_fixed
      returns.
    - farey_term, the slot Farey part of orbit_diam, is 2 * slot[0].
    """
    if isinstance(n_steps, bool) or not isinstance(n_steps, int) or n_steps < 1:
        raise ParameterRegimeError(f"n_steps={n_steps!r} is not an int >= 1")
    th = th or Thresholds()
    delta = delta if delta is not None else c * math.exp(-d / 2) / 100
    cons = build_construction(d, c, delta)
    fam = cons.main
    reduced: Reductions = {}
    rows = []
    for i in range(n_steps + 1):
        t = 2 * d * i / n_steps
        area, a, b = fam._surface(t, reduced)
        slot = rafi_pair(
            a.slope, math.log(area / a.systole_sq), b.slope, math.log(area / b.systole_sq),
            th.K, farey_distance,
        )
        glue = rafi_pair(
            None, -math.log(max(a.slit_sq / area, a.annulus)),
            None, -math.log(max(b.slit_sq / area, b.annulus)),
            th.K, farey_distance,
        )
        rows.append(
            NonqcRow(
                t=t,
                orbit_diam=rafi_total((2 * slot[0], slot[1], slot[2]), glue),
                dist_to_fixed=rafi_total(slot, glue),
                slot_slopes=(a.slope, b.slope),
                glue_loglen=max(a.log_inv_slit, b.log_inv_slit),
                farey_term=2 * slot[0],
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
