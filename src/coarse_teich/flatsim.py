"""Flat slit-torus family behind the non-quasiconvexity experiment.

Two unit tori carry two small slit tori glued in a 4-cycle along parallel
45-degree slits.  Flowing by diag(e^t, e^{-t}) pinches the first slit pair
around t = d/2 and the second around t = 3d/2, while the small tori's
systoles walk along the Farey graph at rate 2/log lambda.  A snapshot
needs only the small tori's flowed lattices, their slit lengths and the
total area, so the family computes those and builds no slit geometry.  A
lattice is a plain tuple of its basis vectors ((x1, y1), (x2, y2)), flowed
and reduced in double precision, so the module needs nothing past the
standard library.
Snapshots feed the numerical Rafi formula; the orbit-diameter curve
of a snapshot against its slot swap is flat near the endpoints and grows
linearly to a peak at the midpoint, which is the whole point of the
construction.

Within one nonqc_experiment call each distinct slot time is read once into
a SlotReading (a slot's time is constant outside its window, and both slots
sweep the same times), which carries its systole's index on the Anosov
torus's systole chain.  A grid row then works on floats, ints and tuples:
it reads its two slot times, the big tori's area and the four curve values
of _curve_values in their own float expressions, so every bit is the
snapshot's, and it takes its orbit diameter and its distance to the fixed
locus from two rafi_pair calls, one on the slot pair and one on the gluing
pair.  The slot pair's Farey term is ceil(|i - j| / 2) of its two indices;
the Farey graph is walked only for a float reading off the chain.  A row
builds no snapshot and hashes or compares no Slope when both indices are
known.  Nothing is kept between calls.  shadow, TrajectoryFamily.at and
distance_to_fixed have no runtime caller: they are the snapshot
definitions that the tests compare rows against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import linear_regression
from typing import NamedTuple, Optional

from .metrics import CurveSnap, Snapshot, Thresholds, rafi_pair, rafi_side, rafi_total
from .slots import Slope, farey_distance

__all__ = [
    "LAMBDA",
    "LOG_LAMBDA",
    "FAREY_RATE",
    "nonqc_d_min",
    "ParameterRegimeError",
    "slit_length",
    "shortest_slope",
    "TrajectoryFamily",
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


def nonqc_d_min(K: int) -> float:
    """max(2K + 1, 7) * log(gamma), log(gamma) being 1 / FAREY_RATE: the
    nonqc claims are asked at threshold K only for d above it.

    The 2K + 1 is derived.  At t = d the slots sit at slot times +-d/2, and
    the systole at slot time u is the chain slope s_m with m =
    round(u / log(gamma)) - 1 off ties (in floats, for |u| < 16.6: see
    _D_MAX), so the midpoint Farey distance
    ceil(|i - j| / 2) is round(d / (2 log(gamma))); it exceeds K, and the
    midpoint row has a Farey term, only for d > (2K + 1) * log(gamma).  The
    7 is measured.  On a 0.005 grid of d in (0, 18], at c in {1e-6, 0.1,
    0.9} and K in {1, 2, 3, 4, 6, 8}, the last d whose peak misses [0.8d,
    1.2d] lies within 0.01 below this value at every K, and at K <= 4 the
    value itself misses, where two systoles tie; none above it misses, nor
    at K = 3 on a 0.001 grid up to d = 8 and at 600 seeded d up to 55.
    tests/test_flatsim.py pins the scan.
    """
    return max(2 * K + 1, 7) / FAREY_RATE


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
    the earlier basis vector, so the unit lattice reports 1/0.  A basis
    flowed by u carries its rounding amplified by about e^(2|u|), so the
    flowed Anosov torus misreads its systole in bands around each tie of
    two chain systoles (u / log _GAMMA a half-integer).  Scanned +-3e-3
    around each tie at step 1e-6 against round(u / log _GAMMA) - 1, u > 0
    first misreads off a tie at u = 12.27, on 1e-6 of u there; the misread
    u cover 7.6e-5 at 14.68 and 2.2e-3 at 16.60, and u < 0 misreads two
    to three times as much up to |u| = 16.1.  On a 0.01 grid of u the
    slopes are one index off from |u| = 16.6 (see _D_MAX).
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


# The Anosov torus's systoles lie on one chain s_m = F_{m+1}/F_m, m in Z:
# the float readings on it reach |m| = 46, and the exact systoles for
# |u| <= _D_MAX/2 reach m = -58.
_CHAIN_M = 64


def _systole_chain(m_max: int) -> dict[Slope, int]:
    """Each chain slope s_m = F_{m+1}/F_m to its index m, for |m| <= m_max,
    with F_{-n} = (-1)^(n+1) F_n, the convention of the oracles'
    fibonacci_slope."""
    fib = [0, 1]
    for _ in range(m_max):
        fib.append(fib[-1] + fib[-2])

    def f(n: int) -> int:
        return fib[n] if n >= 0 else (-1) ** (1 - n) * fib[-n]

    return {Slope.of(f(m + 1), f(m)): m for m in range(-m_max, m_max + 1)}


_SYSTOLE_CHAIN = _systole_chain(_CHAIN_M)


def _chain_farey(a: Slope | int, b: Slope | int) -> int:
    """Farey distance of two systole-chain indices i and j, ceil(|i - j| / 2),
    or of two slopes, read through their chain indices when both have one.

    s_m is adjacent to s_{m+1} and to s_{m+2}, since F_{m+1} F_{m+2} -
    F_{m+3} F_m = +-1 and likewise F_{m+1}^2 - F_{m+2} F_m = +-1, so steps of
    two along the chain bound the distance above.  Equality holds on every
    pair of the table: tests/test_flatsim.py enumerates all of them against
    farey_distance.

    A slope off the table falls back to the module's farey_distance.  The
    float reduction leaves the chain from |u| = 18.8 (see _D_MAX), so those
    readings keep their walks and the rows stay bit-identical; the fallback
    goes once the systoles are read in closed form, all on the chain.
    """
    if a.__class__ is not int:
        i, j = _SYSTOLE_CHAIN.get(a), _SYSTOLE_CHAIN.get(b)
        if i is None or j is None:
            return farey_distance(a, b)
        a, b = i, j
    return (abs(a - b) + 1) // 2


# ---------------------------------------------------------------------------
# The slit construction.
# ---------------------------------------------------------------------------

# Regime of the construction: slot times stay within |u| <= d/2, and a
# small-torus scale delta below about 1e-153.8 overflows the shadow.  The
# float family is not exact up to d = 55: against a 150-digit reduction its
# systole length is off by a relative 8.7e-7 at u = 12.25 and 1.2e-3 at
# u = -15.7.  On a 0.01 grid of u its slopes are one index off on the
# systole chain from |u| = 16.6 (at u = 16.6 it reads 9227465/5702887 for
# 5702887/3524578; a near-tie of two systoles already flips at u = 16.12,
# and the band around each tie widens as e^(2|u|)), and they leave the chain
# from |u| = 18.8, so d >= 37.6 reads slopes off it.
_D_MAX = 55.0
_DELTA_MIN = 1e-150


class SlotReading(NamedTuple):
    """One slot at one slot time, its small torus reduced once: the systole
    slope of the flowed lattice and its index m on the systole chain (None
    off the chain), then what _curve_values reads of the slot.  glue is the
    gluing curve's value -log(pi / log(1/slit)) while slit < 1, and None
    from slit >= 1, where the value depends on the total area."""

    slope: Slope
    index: Optional[int]  # _SYSTOLE_CHAIN.get(slope), looked up once
    scaled_area: float  # delta^2 * area of the small torus
    systole_sq: float  # (delta * systole length)^2
    slit_sq: float
    glue: Optional[float]
    log_inv_slit: float


# slot time -> its reading, for one family
Reductions = dict[float, SlotReading]

# total area and the two slots' readings at one time
Surface = tuple[float, SlotReading, SlotReading]


@dataclass(frozen=True)
class TrajectoryFamily:
    """One-parameter family of slit surfaces on [0, 2d].

    The surface at time t is the 4-cycle (big, small 0, big, small 1): the
    big tori are the Anosov torus flowed by t, small torus i is the Anosov
    torus flowed by its slot time and scaled by delta, and slot i's slits
    have length slit_length(rho, slot time).  Slot i's time is its window's
    clamp of t, less i * d, then less d/2.  The clamp is the combinatorial
    straightening that makes shadows stable while a piece is inactive;
    windows of (-inf, inf) unclamp it.  On build_construction's windows
    [0, d] and [d, 2d] the clamps less i * d are 0 and d - d = 0 at t = 0,
    and d and 2d - d = d at t = 2d, all exact, so at each end both slots
    read one float slot time for every d.
    """

    d: float
    c: float
    delta: float
    windows: tuple[tuple[float, float], tuple[float, float]]

    @property
    def rho(self) -> float:
        return self.c * math.exp(-self.d / 2)

    def slot_time(self, i: int, t: float) -> float:
        lo, hi = self.windows[i]
        return (min(max(t, lo), hi) - i * self.d) - self.d / 2

    def _reading(self, u: float, reduced: Reductions) -> SlotReading:
        reading = reduced.get(u)
        if reading is None:
            basis = _flowed_basis(u)
            slope, length = shortest_slope(basis)
            slit = slit_length(self.rho, u)
            phys, log_inv = self.delta * length, math.log(1 / slit)
            reading = reduced[u] = SlotReading(
                slope, _SYSTOLE_CHAIN.get(slope),
                self.delta**2 * _area(basis), phys * phys, slit * slit,
                -math.log(math.pi / log_inv) if slit < 1.0 else None, log_inv,
            )
        return reading

    def _surface(self, t: float, reduced: Reductions) -> Surface:
        """The surface at time t: its total area and the two slots' readings.

        reduced maps slot times to their readings and is filled as it goes,
        so each distinct slot time is reduced once per dict.  A dict serves
        one family; pass a fresh dict for a one-off surface.
        """
        a = self._reading(self.slot_time(0, t), reduced)
        b = self._reading(self.slot_time(1, t), reduced)
        big = _area(_flowed_basis(t))
        # summed component by component around the 4-cycle, not as
        # 2 + 2 delta^2: rafi_formula floors values derived from it
        return big + a.scaled_area + big + b.scaled_area, a, b

    # the public name, which the layer tracer of perfbench/tracer.py times;
    # no runtime code calls it: nonqc_experiment's rows read the same
    # surface in _surface's float expressions, and the tests read
    # shadow(at(t)) as the definition of a row
    at = _surface


def build_construction(d: float, c: float, delta: float) -> TrajectoryFamily:
    """The slit family of (d, c, delta) on [0, 2d].

    Slot 0 sits at slot time t - d/2 on its window [0, d] and slot 1 at
    t - 3d/2 on [d, 2d], so the first slit pair is shortest at t = d/2 and
    the second at t = 3d/2.  Both slots read -d/2 at t = 0 and d/2 at
    t = 2d.
    """
    if not 0 < c < 1:
        raise ParameterRegimeError(f"c={c} outside (0, 1)")
    if not 0 < d <= _D_MAX:
        raise ParameterRegimeError(f"d={d} outside (0, {_D_MAX}]")
    rho = c * math.exp(-d / 2)
    if not _DELTA_MIN <= delta <= rho / 10:
        raise ParameterRegimeError(
            f"delta={delta} outside [{_DELTA_MIN}, rho/10] at the slit scale rho={rho}"
        )
    return TrajectoryFamily(d, c, delta, ((0.0, d), (d, 2 * d)))


# ---------------------------------------------------------------------------
# Shadows.
# ---------------------------------------------------------------------------


def _curve_values(area: float, r: SlotReading) -> tuple[float, float]:
    """log(1/extremal length) of the slot's systole, log(A/(delta l)^2), and
    of its gluing curve, whose extremal length is the larger of the lower
    bound s^2/A and, for a slit length s < 1, the annulus-modulus upper
    bound pi/log(1/s), on a surface of total area A.

    While s < 1 the modulus bound always wins, so the reading keeps its
    value once per slot time: A >= 2 (two unit tori, up to rounding) and
    s^2 log(1/s) <= 1/(2e) < 2 pi, hence s^2/A < pi/log(1/s) with a margin
    of more than 30 times.  Only from s >= 1 does the value read A.
    """
    glue = r.glue if r.glue is not None else -math.log(r.slit_sq / area)
    return math.log(area / r.systole_sq), glue


def shadow(surface: Surface) -> Snapshot:
    """Combinatorial snapshot: systole slope and shortness per slot, slit
    shortness per gluing curve.  A gluing curve has no slope and carries no
    twist.  It reads the slot readings of TrajectoryFamily.at and reduces no
    lattice itself.  No runtime code calls it: a nonqc_experiment row reads
    the same values from _curve_values without the records, and the tests
    compare rows against it."""
    area, *readings = surface
    values = [_curve_values(area, r) for r in readings]
    return Snapshot(
        tuple(CurveSnap(r.slope, slot) for r, (slot, _) in zip(readings, values)),
        tuple(CurveSnap(None, glue) for _, glue in values),
    )


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


class NonqcRow(NamedTuple):
    """One grid time; farey_term is the slot curve-graph part of orbit_diam.

    A NamedTuple, as SlotReading is, built positionally once per row; its
    repr is the frozen dataclass's it replaced, field for field, so the
    digests that hash it hold."""

    t: float
    orbit_diam: float
    dist_to_fixed: float
    slot_slopes: tuple[Slope, ...]
    glue_loglen: float
    farey_term: int


@dataclass(frozen=True)
class NonqcResult:
    """nonqc_experiment's rows and their summary.

    endpoint_max is 0 by construction: at t = 0 and at t = 2d both slots
    read one slot time for every d (see TrajectoryFamily), so they share
    one SlotReading and the gluing curves one value.  The end surface is
    then its own slot swap: each pair of the swap pairs a curve with one of
    equal slope and shortness, which adds 0 to every term of rafi_pair.
    tests/test_flatsim.py checks it on seeded float d in (0, 55].

    ref_start_gap and ref_end_gap were the formula distances from the end
    surfaces to reference surfaces with both slots at -d/2 and at d/2.
    Those are the end surfaces themselves, so both gaps are the constant
    0.0, kept for the benchmark gate of perfbench/workloads.py.
    """

    d: float
    c: float
    delta: float
    rows: tuple[NonqcRow, ...]
    peak_t: float
    peak_value: float
    midpoint: float
    endpoint_max: float

    ref_start_gap = 0.0
    ref_end_gap = 0.0


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
    distinct slot time is read once for the whole call.  The endpoint,
    midpoint and peak claims are checked against the calibrated bounds by
    cli._nonqc_checks, not here.  n_steps must be an int >= 1.

    A row is shadow(fam.at(t)) without the records: it reads the surface
    at t, with fam._surface's slot times and big-torus area, and the four
    curve values of _curve_values, each in the same float expression, and
    builds no snapshot.  It is read from two formula sides,
    slot = rafi_pair of the slot pair (A, B) and glue = rafi_pair of the
    gluing pair (G0, G1).  When both readings have a systole-chain index,
    the indices stand in for the slopes: rafi_pair only compares its two
    slopes and hands distinct ones to its farey, and two indices are equal
    exactly when their slopes are.  The Farey distance, asked only for
    distinct slopes, is then _chain_farey of the indices, ceil(|i - j| / 2).
    A row with a reading off the chain hands _chain_farey the slopes, and
    it walks the Farey graph.  The snapshot has two slots and two gluing
    curves, rafi_side is the fold of rafi_pair over its pairs, and
    rafi_pair's terms are symmetric in a pair, so:

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

    Both values sum as rafi_total does, in its float order.
    """
    if isinstance(n_steps, bool) or not isinstance(n_steps, int) or n_steps < 1:
        raise ParameterRegimeError(f"n_steps={n_steps!r} is not an int >= 1")
    th = th or Thresholds()
    delta = delta if delta is not None else c * math.exp(-d / 2) / 100
    fam = build_construction(d, c, delta)
    K, pair, farey = th.K, rafi_pair, _chain_farey
    (lo0, hi0), (lo1, hi1) = fam.windows
    half = d / 2
    (x1, y1), (x2, y2) = _ANOSOV_BASIS
    reduced: Reductions = {}
    rows = []
    for i in range(n_steps + 1):
        # the last time is exactly 2d, where both slots read one slot time
        t = 2 * d * i / n_steps if i < n_steps else 2.0 * d
        # fam._surface(t, reduced) in its own float expressions: slot_time's
        # "- 0 * d" of slot 0 is exact, and big is _area(_flowed_basis(t))
        u0 = min(max(t, lo0), hi0) - half
        u1 = (min(max(t, lo1), hi1) - d) - half
        a = reduced.get(u0) or fam._reading(u0, reduced)
        b = reduced.get(u1) or fam._reading(u1, reduced)
        grow, shrink = math.exp(t), math.exp(-t)
        big = abs(x1 * grow * (y2 * shrink) - y1 * shrink * (x2 * grow))
        slope_a, i_a, area_a, syst_a, slit_a, glue_a, log_a = a
        slope_b, i_b, area_b, syst_b, slit_b, glue_b, log_b = b
        area = big + area_a + big + area_b
        # _curve_values of both readings
        if glue_a is None:
            glue_a = -math.log(slit_a / area)
        if glue_b is None:
            glue_b = -math.log(slit_b / area)
        slot_a, slot_b = math.log(area / syst_a), math.log(area / syst_b)
        # chain indices stand in for their slopes: rafi_pair only compares
        # the two and hands them to farey
        if i_a is None or i_b is None:
            slot = pair(slope_a, slot_a, slope_b, slot_b, K, farey)
        else:
            slot = pair(i_a, slot_a, i_b, slot_b, K, farey)
        glue = pair(None, glue_a, None, glue_b, K, farey)
        # rafi_total of (2 * slot[0], slot[1], slot[2]) and glue, and of
        # slot and glue, in its float order
        farey_sum, horo, one_sided = slot[0], max(slot[1], glue[1]), max(slot[2], glue[2])
        rows.append(NonqcRow(
            t,
            0.0 + (2 * farey_sum + glue[0]) + horo + one_sided,
            0.0 + (farey_sum + glue[0]) + horo + one_sided,
            (slope_a, slope_b),
            max(log_a, log_b),
            2 * farey_sum,
        ))
    peak = max(rows, key=lambda r: r.orbit_diam)
    mid = min(rows, key=lambda r: abs(r.t - d))
    endpoint_max = max(rows[0].orbit_diam, rows[-1].orbit_diam)
    return NonqcResult(
        d=d,
        c=c,
        delta=delta,
        rows=tuple(rows),
        peak_t=peak.t,
        peak_value=peak.orbit_diam,
        midpoint=mid.orbit_diam,
        endpoint_max=endpoint_max,
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
