"""Flat slit-torus family behind the non-quasiconvexity experiment.

Two unit tori carry two small phased slit tori glued in a 4-cycle along
parallel 45-degree slits.  Flowing by diag(e^t, e^{-t}) pinches the first
slit pair around t = d/2 and the second around t = 3d/2, while the small
tori's systoles walk along the Farey graph at rate 2/log lambda.  A snapshot
needs only the small tori's flowed lattices, their slit lengths and the
total area, so the family computes those and builds no slit geometry.
Snapshots feed the four-term numerical distance; the orbit-diameter curve
of a snapshot against its slot swap is flat near the endpoints and grows
linearly to a peak at the midpoint, which is the whole point of the
construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import linear_regression
from typing import TYPE_CHECKING, Optional

from .metrics import GlueSnap, Snapshot, SlotSnap, Thresholds, rafi_formula
from .slots import Slope

if TYPE_CHECKING:
    import numpy

__all__ = [
    "LAMBDA",
    "LOG_LAMBDA",
    "FAREY_RATE",
    "ParameterRegimeError",
    "FlatTorus",
    "anosov_torus",
    "slit_length",
    "shortest_slope",
    "fibonacci_slope",
    "systole_index",
    "FlowedSlots",
    "TrajectoryFamily",
    "Construction",
    "build_construction",
    "shadow",
    "rotate_snapshot",
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


@dataclass(frozen=True)
class FlatTorus:
    """Marked flat torus; basis = (v1, v2) lattice generator columns."""

    basis: tuple[tuple[float, float], tuple[float, float]]

    def __post_init__(self):
        d = self.det
        if abs(d) < 1e-12:
            raise ValueError("degenerate lattice basis")
        if d < 0:
            (v1, (x, y)) = self.basis
            object.__setattr__(self, "basis", (v1, (-x, -y)))

    @property
    def det(self) -> float:
        (a, c), (b, d) = self.basis
        return a * d - c * b

    @property
    def area(self) -> float:
        return abs(self.det)

    def matrix(self) -> numpy.ndarray:
        import numpy as np  # deferred, as in shortest_slope

        (a, c), (b, d) = self.basis
        return np.array([[a, b], [c, d]], dtype=np.longdouble)


def anosov_torus() -> FlatTorus:
    """Unit-area torus whose marking diagonalizes [[2,1],[1,1]].

    The expanding eigendirection (eigenvalue (3+sqrt 5)/2) maps to the
    vertical axis, so remarking by the matrix equals flowing by -log lambda.
    """
    v1 = (_QUARTER / _GAMMA, _QUARTER * _GAMMA)
    v2 = (-_QUARTER, _QUARTER)
    return FlatTorus((v1, v2))


def _flow_vec(v: tuple[float, float], t: float) -> tuple[float, float]:
    return (v[0] * math.exp(t), v[1] * math.exp(-t))


def _flowed_anosov(t: float) -> FlatTorus:
    """The Anosov torus flowed by diag(e^t, e^-t), in double precision."""
    v1, v2 = anosov_torus().basis
    return FlatTorus((_flow_vec(v1, t), _flow_vec(v2, t)))


def slit_length(rho: float, u: float) -> float:
    """Length at flow time u of a 45-degree slit of minimal length rho."""
    return rho * math.sqrt(math.cosh(2 * u))


# ---------------------------------------------------------------------------
# Lattice systoles.
# ---------------------------------------------------------------------------


def shortest_slope(basis: numpy.ndarray) -> tuple[Slope, float]:
    """Shortest primitive class of a 2d lattice and its length.

    Lagrange reduction with exact integer bookkeeping; the returned slope is
    the class of the reduced first vector.  Ties (the square torus) resolve
    to the earlier basis vector, so the unit lattice reports 1/0.
    """
    # imported here, so that importing the package does not load numpy
    import numpy as np

    b = np.asarray(basis, dtype=np.longdouble)
    v1, v2 = b[:, 0].copy(), b[:, 1].copy()
    c1, c2 = (1, 0), (0, 1)
    for _ in range(256):
        if v2 @ v2 < v1 @ v1:
            v1, v2 = v2, v1
            c1, c2 = c2, c1
        mu = int(round(float((v1 @ v2) / (v1 @ v1))))
        if mu == 0:
            break
        v2 = v2 - mu * v1
        c2 = (c2[0] - mu * c1[0], c2[1] - mu * c1[1])
    else:
        raise ArithmeticError("lattice reduction did not terminate")
    return Slope.of(*c1), float(math.sqrt(float(v1 @ v1)))


def fibonacci_slope(n: int) -> Slope:
    """Closed-form systole family: class (F_{n+1}, F_n), n ranging over Z."""
    a, b = 1, 0  # (F_1, F_0)
    if n >= 0:
        for _ in range(n):
            a, b = a + b, a
    else:
        for _ in range(-n):
            a, b = b, a - b
    return Slope.of(a, b)


def systole_index(u: float) -> int:
    """Index n of the systole class (F_{n+1}, F_n) at flow time u."""
    return round(u / math.log(_GAMMA)) - 1


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
    delta; slots: per slot, the small torus's flowed lattice (unscaled) and
    the length of its slits.
    """

    area: float
    scale: float
    slots: tuple[tuple[FlatTorus, float], ...]


@dataclass(frozen=True)
class TrajectoryFamily:
    """One-parameter family of slit surfaces on [0, horizon].

    The surface at time t is the 4-cycle (big, small 0, big, small 1): the
    big tori are the Anosov torus flowed by t, small torus i is the Anosov
    torus flowed by its slot time and scaled by delta, and slot i's slits
    have length slit_length(rho, slot time).  Each small torus and its slit
    pair carries a phase; in clamped mode the piece's time is pinned to its
    active window, which is the combinatorial straightening that makes
    shadows stable while the piece is inactive.
    """

    d: float
    c: float
    delta: float
    phases: tuple[float, float]
    windows: tuple[tuple[float, float], tuple[float, float]]

    @property
    def rho(self) -> float:
        return self.c * math.exp(-self.d / 2)

    @property
    def horizon(self) -> float:
        return 2 * self.d

    def slot_time(self, i: int, t: float, clamped: bool = True) -> float:
        lo, hi = self.windows[i]
        if clamped:
            t = min(max(t, lo), hi)
        return t + self.phases[i]

    def slit_len(self, i: int, t: float, clamped: bool = True) -> float:
        return slit_length(self.rho, self.slot_time(i, t, clamped))

    def at(self, t: float, clamped: bool = True) -> FlowedSlots:
        u = [self.slot_time(i, t, clamped) for i in range(2)]
        small = [_flowed_anosov(ui) for ui in u]
        big = _flowed_anosov(t).area
        sq = self.delta**2
        # summed component by component around the 4-cycle, not as
        # 2 + 2 delta^2: rafi_formula floors values derived from it
        area = big + sq * small[0].area + big + sq * small[1].area
        slots = tuple((torus, slit_length(self.rho, ui)) for torus, ui in zip(small, u))
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
    shortness per gluing curve.  Gluings carry no twist, so every gluing
    twist is 0."""
    area = flowed.area
    slots = []
    glue = []
    for torus, slit in flowed.slots:
        slope, length = shortest_slope(torus.matrix())
        phys = flowed.scale * length
        slots.append(SlotSnap(slope, math.log(area / (phys * phys))))
        glue.append(GlueSnap(0.0, _glue_neg_log_ext(slit, area)))
    return Snapshot(tuple(slots), tuple(glue))


def rotate_snapshot(r: int, snap: Snapshot) -> Snapshot:
    k = snap.k
    return Snapshot(
        tuple(snap.slots[(i - r) % k] for i in range(k)),
        tuple(snap.glue[(j - r) % len(snap.glue)] for j in range(len(snap.glue))),
    )


def distance_to_fixed(snap: Snapshot, th: Thresholds) -> float:
    """Distance to the swap-fixed locus: best symmetrized snapshot wins."""
    k = snap.k
    best = math.inf
    for i in range(k):
        for j in range(len(snap.glue)):
            cand = Snapshot((snap.slots[i],) * k, (snap.glue[j],) * len(snap.glue))
            best = min(best, rafi_formula(snap, cand, th))
    return best


# ---------------------------------------------------------------------------
# The experiment.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NonqcRow:
    t: float
    orbit_diam: float
    dist_to_fixed: float
    slot_slopes: tuple[Slope, ...]
    glue_loglen: float


@dataclass(frozen=True)
class NonqcResult:
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

    Per grid time: snapshot, orbit diameter against the slot swap, distance
    to the fixed locus, and the slit shortness column.  The endpoint and
    midpoint claims are checked against the calibrated bounds by
    cli._nonqc_checks, not here.
    """
    th = th or Thresholds()
    delta = delta if delta is not None else c * math.exp(-d / 2) / 100
    cons = build_construction(d, c, delta)
    fam = cons.main
    rows = []
    for i in range(n_steps + 1):
        t = 2 * d * i / n_steps
        snap = shadow(fam.at(t))
        swapped = rotate_snapshot(1, snap)
        rows.append(
            NonqcRow(
                t=t,
                orbit_diam=rafi_formula(snap, swapped, th),
                dist_to_fixed=distance_to_fixed(snap, th),
                slot_slopes=tuple(s.slope for s in snap.slots),
                glue_loglen=max(
                    math.log(1 / fam.slit_len(j, t)) for j in range(2)
                ),
            )
        )
    peak = max(rows, key=lambda r: r.orbit_diam)
    mid = min(rows, key=lambda r: abs(r.t - d))
    endpoint_max = max(rows[0].orbit_diam, rows[-1].orbit_diam)
    ref_start_gap = rafi_formula(
        shadow(fam.at(0.0)), shadow(cons.ref_start.at(0.0)), th
    )
    ref_end_gap = rafi_formula(
        shadow(fam.at(2 * d)), shadow(cons.ref_end.at(2 * d)), th
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
    ds: tuple[float, ...] = (10, 15, 20, 25, 30, 35, 40),
    c: float = 0.1,
    th: Optional[Thresholds] = None,
) -> tuple[list[NonqcResult], float, float]:
    """Experiment per d plus the fitted midpoint growth (slope, intercept)."""
    results = [nonqc_experiment(d, c=c, th=th) for d in ds]
    slope, intercept = linear_regression(
        [r.d for r in results], [r.midpoint for r in results]
    )
    return results, slope, intercept
