"""Full acceptance sweep: ten numbered criteria, one verdict line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines.  Tolerances come from the packaged calibration record; every
randomized block is seeded, so the sweep is reproducible bit for bit.
"""

from __future__ import annotations

import json
import random
import time
from statistics import linear_regression

from coarse_teich.calibration import (
    load_constants,
    quasi_isometry_samples,
    sample_marking,
    barycenter_samples,
)
from coarse_teich.flatsim import FAREY_RATE, nonqc_sweep
from coarse_teich.horoball import HoroPoint, compare_to_horodisk, horo_distance
from coarse_teich.marking import (
    AugMarking,
    Glue,
    GlueBlock,
    InSlot,
    Slope,
    SlotBlock,
    act,
    act_curve,
)
from coarse_teich.metrics import (
    Annulus,
    SymmetryViolationError,
    Thresholds,
    active_segment,
    canonical_path,
    farey_geodesic,
    formula_distance_T,
    group_symmetric_families,
)
from coarse_teich.projection import Simplex, annulus_point, phi, proj_distance, q_membership
from coarse_teich.search import fixed_point_search, is_fixed
from coarse_teich.slots import transversal_at, twist_coordinate
from tests.oracles import horo_distances_from

TH = Thresholds()
CAL = load_constants()


def _verdict(num: int, name: str, ok: bool, detail: str) -> None:
    line = f"[criterion {num:02d}] {name}: " + ("PASS" if ok else f"FAIL ({detail})")
    print(line)
    assert ok, line


def _margin(num: int, **fields) -> None:
    """One JSON line with how far the criterion sits from its gate."""
    print(json.dumps({"criterion": num, **fields}, sort_keys=True))


def test_criterion_01_horoball_closed_form_is_exact():
    # All ordered pairs with |x| <= 60 and level <= 6.  The horoball graph is
    # invariant under twist translation, so one BFS per level from x = 0, on
    # a box padded by 15 past |dx| <= 120 (x to +-135, levels to 14) so no
    # geodesic wants to leave it, gives every pair's distance.
    t0 = time.perf_counter()
    pts = [HoroPoint(x, lv) for lv in range(7) for x in range(-60, 61)]
    tables = [horo_distances_from(HoroPoint(0, lv), -135, 135, 14) for lv in range(7)]
    mismatches = 0
    for src in pts:
        table = tables[src.level]
        for dst in pts:
            if horo_distance(src, dst) != table[HoroPoint(dst.x - src.x, dst.level)]:
                mismatches += 1
    dt = time.perf_counter() - t0
    _verdict(
        1,
        "horoball distance equals BFS on all pairs, |x|<=60, level<=6",
        mismatches == 0 and dt < 60.0,
        f"mismatches={mismatches}, {dt:.1f}s",
    )


def test_criterion_02_horoball_distortion_vs_horodisk():
    rep = compare_to_horodisk(200, 8)
    ok = (
        rep.max_mult <= 4.0
        and rep.max_add <= 8.0
        and abs(rep.max_mult - CAL.horoball_mult) <= 0.05 * CAL.horoball_mult
        and abs(rep.max_add - CAL.horoball_add) <= 0.05 * CAL.horoball_add
    )
    _verdict(
        2,
        "horoball vs horodisk distortion within 4 mult / 8 add and stable",
        ok,
        f"mult={rep.max_mult:.4f}, add={rep.max_add:.4f} over {rep.pairs} pairs",
    )


def test_criterion_03_distance_formula_two_sided_bounds():
    # Fresh seeds, disjoint from the ones calibrate() fitted on, so this is a
    # regression of the pinned (L, C) rather than a replay of the fit.
    t0 = time.perf_counter()
    samples = [
        bf
        for k, seed in ((2, 1001), (3, 1002))
        for bf in quasi_isometry_samples(k, TH, seed, basepoints=25)
    ]
    n = len(samples)
    upper = [CAL.L * b + CAL.C - f for b, f in samples]
    lower = [f - (b / CAL.L - CAL.C) for b, f in samples]
    violations = sum(u < 0 or lo < 0 for u, lo in zip(upper, lower))
    dt = time.perf_counter() - t0
    _margin(
        3, L=CAL.L, C=CAL.C, samples=n, upper_margin=min(upper),
        lower_margin=min(lower), max_b=max(b for b, _ in samples),
    )
    _verdict(
        3,
        "formula within pinned (L, C) of move distance on k=2 and k=3",
        violations == 0 and dt < 600.0,
        f"violations={violations}/{n}, {dt:.1f}s",
    )


def test_criterion_04_equivariance_is_exact():
    rng = random.Random(4001)
    bad = 0
    for _ in range(10_000):
        k = rng.randint(2, 4)
        m1 = sample_marking(rng, k)
        m2 = sample_marking(rng, k)
        h = rng.randrange(1, k)
        if formula_distance_T(act(h, m1), act(h, m2), TH) != formula_distance_T(m1, m2, TH):
            bad += 1
        i = rng.randrange(k)
        c = Glue(i) if rng.random() < 0.5 else InSlot(i, m1.slots[i].base)
        if annulus_point(act_curve(h, c, k), act(h, m1)) != annulus_point(c, m1):
            bad += 1
    _verdict(
        4,
        "distance and annulus points commute with the cyclic action, 10^4 cases",
        bad == 0,
        f"bad={bad}",
    )


def test_criterion_05_projection_suite():
    rng = random.Random(5001)
    viol = {"idem": 0, "member": 0, "lip": 0, "closest": 0, "commute": 0}
    slopes = [Slope(0, 1), Slope(1, 1), Slope(1, 2), Slope(2, 1), Slope(1, 0), Slope(3, 2)]
    for _ in range(1000):
        k = rng.randint(2, 4)
        m = sample_marking(rng, k)
        i = rng.randrange(k)
        j = (i + rng.randrange(1, k)) % k
        s1, s2 = rng.choice(slopes), rng.choice(slopes)
        d1 = Simplex(k, (InSlot(i, s1),))
        d2 = Simplex(k, (InSlot(j, s2),))
        p = phi(d1, m)
        if phi(d1, p) != p:
            viol["idem"] += 1
        if not q_membership(d1, p):
            viol["member"] += 1
        m2 = sample_marking(rng, k)
        if formula_distance_T(phi(d1, m), phi(d1, m2), TH) > CAL.L * formula_distance_T(
            m, m2, TH
        ) + CAL.C:
            viol["lip"] += 1
        # Closest point: no enumerated member of Q(d1) may beat the image by
        # more than the additive constant.
        d0 = formula_distance_T(m, p, TH)
        psi = twist_coordinate(s1, p.slots[i].trans)
        cands = []
        for dpsi in (-2, -1, 1, 2):
            for lvl in (0, 1):
                sl = list(p.slots)
                sl[i] = SlotBlock(s1, transversal_at(s1, psi + dpsi), lvl)
                cands.append(AugMarking(p.glue, tuple(sl)))
        g = list(p.glue)
        g[0] = GlueBlock(g[0].tau + 3, g[0].D)
        cands.append(AugMarking(tuple(g), p.slots))
        sl = list(p.slots)
        sl[j] = SlotBlock(s2, transversal_at(s2, 0), 0)
        cands.append(AugMarking(p.glue, tuple(sl)))
        for w in cands:
            assert q_membership(d1, w)
            if d0 > formula_distance_T(m, w, TH) + CAL.C:
                viol["closest"] += 1
        du = Simplex(k, (InSlot(i, s1), InSlot(j, s2)))
        if formula_distance_T(phi(du, m), phi(d1, phi(d2, m)), TH) > CAL.C:
            viol["commute"] += 1
    _verdict(
        5,
        "projection is idempotent, Lipschitz, closest, and commutes, 10^3 triples",
        all(v == 0 for v in viol.values()),
        f"violations={viol}",
    )


def test_criterion_06_search_fixes_planted_symmetric_twists():
    rng = random.Random(6001)
    bases = [Slope(0, 1), Slope(1, 1), Slope(1, 2), Slope(2, 1)]
    total = 0
    fixed = 0
    worst_ratio = 0.0
    for k in (2, 3, 4):
        finals = []
        for e in range(1, 7):
            mag = 10**e
            for _ in range(28):
                base = rng.choice(bases)
                glue = tuple(GlueBlock(mag + rng.randint(0, 1), 0) for _ in range(k))
                slots = tuple(
                    SlotBlock(base, transversal_at(base, -mag + rng.randint(0, 1)), 0)
                    for _ in range(k)
                )
                out, trace = fixed_point_search(AugMarking(glue, slots), TH)
                total += 1
                fixed += is_fixed(out)
                finals.append(trace.final_distance)
        floored = [max(1, f) for f in finals]
        worst_ratio = max(worst_ratio, max(floored) / min(floored))
    _margin(
        6, worst_ratio=worst_ratio, ratio_gate=1.5, ratio_margin=1.5 - worst_ratio,
        fixed=fixed, total=total,
    )
    _verdict(
        6,
        "search output exactly fixed with magnitude-independent final distance",
        total >= 500 and fixed == total and worst_ratio <= 1.5,
        f"fixed={fixed}/{total}, max/min final={worst_ratio:.3f}",
    )


def test_criterion_07_asymmetric_large_links_always_flagged():
    rng = random.Random(7001)
    hits = 0
    for idx in range(200):
        k = rng.randint(2, 4)
        base = rng.choice([Slope(0, 1), Slope(1, 1), Slope(1, 2)])
        x = AugMarking(
            tuple(GlueBlock(0, 0) for _ in range(k)),
            tuple(SlotBlock(base, transversal_at(base, 0), 0) for _ in range(k)),
        )
        mag = 10 ** rng.randint(3, 6)
        if idx % 2 == 0:
            g = list(x.glue)
            g[rng.randrange(k)] = GlueBlock(mag, 0)
            mu = AugMarking(tuple(g), x.slots)
        else:
            sl = list(x.slots)
            sl[rng.randrange(k)] = SlotBlock(base, transversal_at(base, mag), 0)
            mu = AugMarking(x.glue, tuple(sl))
        try:
            group_symmetric_families(mu, x, TH)
        except SymmetryViolationError:
            hits += 1
    _verdict(
        7,
        "injected asymmetric large link trips the symmetry check, 200 cases",
        hits == 200,
        f"hits={hits}/200",
    )


def test_criterion_08_barycenter_regression_is_bounded_and_stable():
    fits: dict[int, list[tuple[float, float]]] = {}
    for k in (2, 3, 4):
        fits[k] = []
        for seed in (2000 + k, 3000 + k):
            pts = barycenter_samples(k, TH, seed, 5000)
            s, i = linear_regression([x for x, _ in pts], [y for _, y in pts])
            fits[k].append((s, i))
    bounded = all(s <= CAL.K_tilde and i <= CAL.C_tilde for f in fits.values() for s, i in f)
    stable = all(
        abs(s1 - s2) <= 0.05 * max(1.0, abs(s1), abs(s2))
        and abs(i1 - i2) <= 0.05 * max(1.0, abs(i1), abs(i2))
        for (s1, i1), (s2, i2) in fits.values()
    )
    # seed spread relative to the same scale the stability gate uses
    spread = max(
        abs(a - b) / max(1.0, abs(a), abs(b))
        for (s1, i1), (s2, i2) in fits.values()
        for a, b in ((s1, s2), (i1, i2))
    )
    _margin(
        8,
        fits={k: [{"slope": s, "intercept": i} for s, i in f] for k, f in fits.items()},
        K_tilde=CAL.K_tilde,
        C_tilde=CAL.C_tilde,
        slope_margin=CAL.K_tilde - max(s for f in fits.values() for s, _ in f),
        intercept_margin=CAL.C_tilde - max(i for f in fits.values() for _, i in f),
        max_seed_spread=spread,
        spread_gate=0.05,
    )
    summary = {k: tuple(round(s, 3) for s, _ in f) for k, f in fits.items()}
    _verdict(
        8,
        "barycenter distance vs displacement has bounded, seed-stable slope",
        bounded and stable,
        f"slopes={summary}, bounded={bounded}, stable={stable}",
    )


def test_criterion_09_flat_family_is_not_quasiconvex():
    t0 = time.perf_counter()
    results, slope, intercept = nonqc_sweep(th=TH)
    ends = [max(r.endpoint_max, r.ref_start_gap, r.ref_end_gap) for r in results]
    flat_ends = all(e <= CAL.E0 for e in ends)
    peaks = all(0.8 * r.d <= r.peak_t <= 1.2 * r.d for r in results)
    growth = all(r.midpoint >= CAL.c1 * r.d - CAL.c2 for r in results)
    rate = [0.5 * FAREY_RATE, 2.0 * FAREY_RATE]
    rate_ok = rate[0] <= slope <= rate[1]
    dt = time.perf_counter() - t0
    # the midpoint's slot Farey term alone, against the systole walk's rate;
    # printed, not gated
    mid_farey = [min(r.rows, key=lambda row: abs(row.t - r.d)).farey_term for r in results]
    farey_slope, _ = linear_regression([r.d for r in results], mid_farey)
    _margin(
        9, slope=slope, rate_range=rate,
        growth_margin=min(r.midpoint - (CAL.c1 * r.d - CAL.c2) for r in results),
        end_margin=CAL.E0 - max(ends),
        farey_slope=farey_slope, farey_rate=FAREY_RATE,
    )
    _verdict(
        9,
        "bounded endpoints, linear midpoint growth at the expected rate",
        flat_ends and peaks and growth and rate_ok and dt < 300.0,
        f"slope={slope:.3f} (rate {FAREY_RATE:.3f}), ends<=E0: {flat_ends}, "
        f"peaks: {peaks}, {dt:.1f}s",
    )


def test_criterion_10_active_segments_disjoint_with_small_presegments():
    rng = random.Random(10001)
    segments = 0
    presegs = 0
    bad = 0
    for _ in range(200):
        k = rng.randint(2, 3)
        m1 = sample_marking(rng, k, twist_max=6, level_max=2)
        m2 = sample_marking(rng, k, twist_max=6, level_max=2)
        path = canonical_path(m1, m2)
        for i in range(k):
            segs = []
            for s in farey_geodesic(m1.slots[i].base, m2.slots[i].base):
                y = Annulus(InSlot(i, s))
                seg = active_segment(path, y)
                if seg is None:
                    continue
                segs.append(seg)
                segments += 1
                if seg[0] > 0:
                    presegs += 1
                    if proj_distance(y, path[0], path[seg[0]]) > CAL.M2:
                        bad += 1
            for a, b in zip(segs, segs[1:]):
                if not (a[1] < b[0] or b[1] < a[0]):
                    bad += 1
    _verdict(
        10,
        "active segments along 200 canonical paths are disjoint, small lead-in",
        bad == 0 and presegs > 0,
        f"segments={segments}, presegments={presegs}, violations={bad}",
    )
