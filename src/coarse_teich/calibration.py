"""Pinned empirical constants: fitting sweeps, storage, and lookup.

The model's comparison constants (quasi-isometry constants of the distance
formula, horodisk distortion, barycenter linearity, experiment bounds) are
not explicit, so they are measured once by ``calibrate`` and
regression-tested forever after.  The pinned values live
in a versioned JSON file packaged with the library; the environment
variable COARSE_TEICH_CALIBRATION or an explicit path overrides the
packaged copy.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import asdict, dataclass, fields
from importlib import resources
from pathlib import Path
from statistics import linear_regression
from typing import Optional, Sequence

from .flatsim import nonqc_sweep
from .horoball import compare_to_horodisk
from .marking import (
    AugMarking,
    GlueBlock,
    InSlot,
    SlotBlock,
    act,
    bfs_distance,
    move_count,
    nth_move,
)
from .metrics import (
    Thresholds,
    active_segment,
    canonical_path,
    formula_distance_T,
)
from .projection import Annulus, proj_distance
from .search import coarse_barycenter
from .slots import Slope, farey_geodesic, transversal_at

__all__ = [
    "CALIBRATION_VERSION",
    "ENV_VAR",
    "CalibrationConstants",
    "packaged_path",
    "resolve_path",
    "load_constants",
    "save_constants",
    "constant_drift",
    "compare_constants",
    "sample_marking",
    "quasi_isometry_samples",
    "fit_quasi_isometry",
    "presegment_projection_sweep",
    "barycenter_samples",
    "calibrate",
]

CALIBRATION_VERSION = 2
ENV_VAR = "COARSE_TEICH_CALIBRATION"


@dataclass(frozen=True)
class CalibrationConstants:
    """One record of every pinned constant, written by ``calibrate``."""

    version: int
    L: float  # multiplicative quasi-isometry constant, formula vs move distance
    C: int  # additive quasi-isometry constant
    M2: int  # pre-segment projection bound on canonical paths
    horoball_mult: float  # graph vs horodisk multiplicative distortion
    horoball_add: float  # graph vs horodisk additive distortion
    K_tilde: float  # barycenter distance vs displacement: slope bound
    C_tilde: float  # barycenter distance vs displacement: intercept bound
    E0: float  # endpoint orbit-diameter bound in the flat experiment
    c1: float  # midpoint growth bound: diameter at t = d is >= c1*d - c2
    c2: float

    def to_json(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_json(data) -> "CalibrationConstants":
        """Parse a record: an object with exactly the dataclass's keys,
        version CALIBRATION_VERSION, integers for version, C and M2, and
        finite numbers for the rest.  Anything else raises ValueError."""
        names = sorted(f.name for f in fields(CalibrationConstants))
        if not isinstance(data, dict) or sorted(data) != names:
            raise ValueError(f"a calibration record is an object with the keys {names}")
        for name, value in data.items():
            kinds = (int,) if name in ("version", "C", "M2") else (int, float)
            if type(value) not in kinds or not -math.inf < value < math.inf:
                raise ValueError(
                    f"calibration {name}={value!r} is not a finite {kinds[-1].__name__}"
                )
        if data["version"] != CALIBRATION_VERSION:
            raise ValueError(
                f"calibration version {data['version']!r} is not "
                f"{CALIBRATION_VERSION}"
            )
        return CalibrationConstants(**data)

    def digest(self) -> str:
        # imported here: OpenSSL's _hashlib adds about 3.6 MB to the peak
        # memory of every process that imports the library, and only a
        # digest needs it
        from hashlib import sha256

        blob = json.dumps(self.to_json(), sort_keys=True).encode()
        return sha256(blob).hexdigest()[:12]


def packaged_path() -> Path:
    return Path(str(resources.files("coarse_teich") / "data" / "calibration.json"))


def resolve_path(explicit: Optional[str] = None) -> Path:
    """Environment variable beats an explicit path beats the packaged file."""
    env = os.environ.get(ENV_VAR)
    if env:
        return Path(env)
    if explicit:
        return Path(explicit)
    return packaged_path()


def load_constants(path: Optional[str] = None) -> CalibrationConstants:
    p = resolve_path(path)
    with open(p, encoding="utf-8") as fh:
        return CalibrationConstants.from_json(json.load(fh))


def save_constants(consts: CalibrationConstants, path: Optional[str] = None) -> Path:
    """Write the record that load_constants(path) reads, by resolve_path's order."""
    p = resolve_path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    with open(p, "w", encoding="utf-8") as fh:
        json.dump(consts.to_json(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    return p


def constant_drift(old: CalibrationConstants, new: CalibrationConstants) -> dict[str, float]:
    """Per field |a - b| / max(1, |a|, |b|): relative, floored at 1.0 absolute scale."""
    fresh = new.to_json()
    return {
        name: abs(a - fresh[name]) / max(1.0, abs(a), abs(fresh[name]))
        for name, a in old.to_json().items()
    }


def compare_constants(old: CalibrationConstants, new: CalibrationConstants) -> list[str]:
    """Fields whose constant_drift exceeds 5%."""
    a, b = old.to_json(), new.to_json()
    return [f"{n}: {a[n]} -> {b[n]}" for n, r in constant_drift(old, new).items() if r > 0.05]


# ---------------------------------------------------------------------------
# Samplers.  Shared by cmd_calibrate and the acceptance suite so the pinned
# constants cover exactly the distributions that get regression-tested.
# ---------------------------------------------------------------------------

# move distance up to which quasi_isometry_samples keeps a pair
_QI_WINDOW = 10


def sample_marking(
    rng: random.Random, k: int, twist_max: int = 3, level_max: int = 1
) -> AugMarking:
    glue = tuple(
        GlueBlock(rng.randint(-twist_max, twist_max), rng.randint(0, level_max))
        for _ in range(k)
    )
    slots = []
    for _ in range(k):
        while True:
            p, q = rng.randint(-3, 3), rng.randint(-3, 3)
            if (p, q) != (0, 0):
                break
        base = Slope.of(p, q)
        trans = transversal_at(base, rng.randint(-2, 2))
        slots.append(SlotBlock(base, trans, rng.randint(0, level_max)))
    return AugMarking(glue, tuple(slots))


def _planted_partners(
    rng: random.Random, m: AugMarking
) -> list[AugMarking]:
    """Partners of a basepoint that spread the formula value: twist
    offsets, level raises, and short base walks.

    Not all of them stay within _QI_WINDOW moves, and
    quasi_isometry_samples drops those that do not.  Over seeds 0-199 at
    k = 2 and 3 (25 basepoints each), 819 of the 10,000 twist partners
    with n in 50..120 and 291 of the 10,000 base-hop partners were more
    than 10 moves away; the other partners never were."""
    partners = []
    for n in (rng.randint(4, 9), rng.randint(10, 40), rng.randint(50, 120)):
        j = rng.randrange(m.k)
        g = m.glue[j]
        partners.append(
            AugMarking(
                m.glue[:j] + (GlueBlock(g.tau + n, g.D),) + m.glue[j + 1 :],
                m.slots,
            )
        )
    j = rng.randrange(m.k)
    g = m.glue[j]
    partners.append(
        AugMarking(
            m.glue[:j] + (GlueBlock(g.tau, g.D + rng.randint(3, 6)),) + m.glue[j + 1 :],
            m.slots,
        )
    )
    i = rng.randrange(m.k)
    target = Slope.of(rng.randint(1, 5), rng.randint(1, 2))
    geo = farey_geodesic(m.slots[i].base, target)
    hop = geo[min(len(geo) - 1, rng.randint(1, 3))]
    partners.append(
        AugMarking(
            m.glue,
            m.slots[:i]
            + (SlotBlock(hop, transversal_at(hop, 0), 0),)
            + m.slots[i + 1 :],
        )
    )
    return partners


def quasi_isometry_samples(
    k: int,
    th: Thresholds,
    seed: int,
    basepoints: int = 25,
) -> list[tuple[int, int]]:
    """(move distance, formula) pairs from random basepoints, for the
    partners at most _QI_WINDOW moves away."""
    rng = random.Random(seed)
    out = []
    for _ in range(basepoints):
        m = sample_marking(rng, k)
        partners = _planted_partners(rng, m)
        cur = m
        for _ in range(rng.randint(4, 8)):
            # the draw rng.choice(elementary_moves(cur)) makes, building one move
            cur = nth_move(cur, rng.choice(range(move_count(cur))))
        partners.append(cur)
        for n in partners:
            b = bfs_distance(m, n)
            if b > _QI_WINDOW:
                continue
            out.append((b, formula_distance_T(m, n, th)))
    return out


def fit_quasi_isometry(samples: Sequence[tuple[int, int]]) -> tuple[float, int]:
    """Smallest-score (L, C) with both bounds holding on every sample."""
    best = None
    for tenths in range(10, 41):
        lo = tenths / 10
        c_needed = 0.0
        for b, f in samples:
            c_needed = max(c_needed, b / lo - f, f - lo * b)
        score = 2 * lo + c_needed
        if best is None or score < best[0]:
            best = (score, lo, c_needed)
    _, lo, c_needed = best
    return lo, math.ceil(c_needed) + 2


def presegment_projection_sweep(th: Thresholds, seed: int) -> int:
    """Max projection from the path start to an active-segment start, over
    60 sampled marking pairs."""
    rng = random.Random(seed)
    worst = 0
    for _ in range(60):
        k = rng.choice((2, 3))
        m1 = sample_marking(rng, k, twist_max=6, level_max=2)
        m2 = sample_marking(rng, k, twist_max=6, level_max=2)
        path = canonical_path(m1, m2)
        for i in range(k):
            for s in farey_geodesic(m1.slots[i].base, m2.slots[i].base):
                y = Annulus(InSlot(i, s))
                seg = active_segment(path, y)
                if seg is None or seg[0] == 0:
                    continue
                worst = max(worst, proj_distance(y, path[0], path[seg[0]]))
    return worst


def barycenter_samples(
    k: int, th: Thresholds, seed: int, instances: int
) -> list[tuple[int, int]]:
    """(displacement, output distance) pairs for the coarse barycenter."""
    rng = random.Random(seed)
    out = []
    for _ in range(instances):
        base = Slope.of(*rng.choice(((0, 1), (1, 1), (1, 2), (2, 1), (1, 0))))
        mag = rng.randint(0, 30)
        glue = tuple(
            GlueBlock(rng.randint(-mag, mag), rng.randint(0, 2)) for _ in range(k)
        )
        slots = tuple(
            SlotBlock(
                base, transversal_at(base, rng.randint(-mag, mag)), rng.randint(0, 2)
            )
            for _ in range(k)
        )
        sigma = AugMarking(glue, slots)
        x = formula_distance_T(sigma, act(1, sigma), th)
        y = formula_distance_T(sigma, coarse_barycenter(sigma, 1, th), th)
        out.append((x, y))
    return out


# ---------------------------------------------------------------------------
# The full fit.
# ---------------------------------------------------------------------------


def calibrate(seed: int = 0, th: Optional[Thresholds] = None) -> CalibrationConstants:
    """Measure every pinned constant from its oracle sweep.

    Deterministic given (seed, thresholds); headroom on each fitted value
    absorbs resampling noise so reruns and differently seeded regression
    tests stay inside the record.
    """
    th = th or Thresholds()

    horo = compare_to_horodisk(200, 8)

    samples = quasi_isometry_samples(2, th, seed) + quasi_isometry_samples(
        3, th, seed + 1
    )
    L, C = fit_quasi_isometry(samples)

    m2 = presegment_projection_sweep(th, seed + 3)

    bary = []
    for i, k in enumerate((2, 3, 4)):
        bary += barycenter_samples(k, th, seed + 4 + i, 300)
    slope, intercept = linear_regression(
        [x for x, _ in bary], [y for _, y in bary]
    )

    results, fit_slope, fit_intercept = nonqc_sweep()
    endpoint = max(r.endpoint_max for r in results)

    return CalibrationConstants(
        version=CALIBRATION_VERSION,
        L=L,
        C=C,
        M2=m2 + 2,
        horoball_mult=round(horo.max_mult, 4),
        horoball_add=round(horo.max_add, 4),
        K_tilde=round(slope * 1.15 + 0.1, 4),
        C_tilde=round(max(intercept, 0.0) * 1.15 + 2.0, 4),
        E0=round(max(6.0, endpoint + 2.0), 4),
        c1=round(fit_slope / 2, 4),
        c2=round(max(0.0, -fit_intercept) + 2.0, 4),
    )
