"""Tests for the flat slit-torus family and the orbit-diameter curve."""

import collections
import dataclasses
import hashlib
import math
import random

import numpy as np
import pytest

from coarse_teich.flatsim import (
    FAREY_RATE,
    LAMBDA,
    Construction,
    FlowedSlots,
    ParameterRegimeError,
    TrajectoryFamily,
    build_construction,
    distance_to_fixed,
    nonqc_experiment,
    nonqc_sweep,
    shadow,
    shortest_slope,
    slit_length,
)
from coarse_teich.flatsim import _area, _flowed_basis
from coarse_teich.horoball import HoroPoint, horo_distance
from coarse_teich.metrics import (
    CurveSnap,
    Snapshot,
    Thresholds,
    rafi_formula,
    rafi_side,
)
from coarse_teich.slots import Slope, farey_distance
from tests.oracles import (
    FlatTorus,
    anosov_torus,
    distance_to_fixed_per_candidate,
    farey_lookup,
    fibonacci_slope,
    flowed_anosov,
    flowed_anosov_slope,
    flowed_anosov_systole,
    rafi_formula_one_pass,
    rotate_snapshot,
    shortest_slope_longdouble,
    swap_distance,
)

TH = Thresholds()

LOG_GAMMA = math.log((1 + math.sqrt(5)) / 2)


def systole_index(u: float) -> int:
    """Index n of the systole class (F_{n+1}, F_n) at flow time u."""
    return round(u / LOG_GAMMA) - 1


def unclamped(fam: TrajectoryFamily) -> TrajectoryFamily:
    """The family with every piece active at all times."""
    return dataclasses.replace(fam, windows=((-math.inf, math.inf),) * 2)


def test_anosov_torus_diagonalizes_the_cat_map():
    torus = anosov_torus()
    assert torus.area == pytest.approx(1.0, abs=1e-12)
    assert torus.det > 0
    b = np.array(torus.basis).T  # columns are the basis vectors
    cat = np.array([[2.0, 1.0], [1.0, 1.0]])
    lhs = b @ cat
    rhs = np.diag([1 / LAMBDA, LAMBDA]) @ b
    assert np.abs(lhs - rhs).max() < 1e-9


def test_flat_torus_validation():
    with pytest.raises(ValueError):
        FlatTorus(((1.0, 2.0), (2.0, 4.0)))
    # negatively oriented bases get their second vector flipped
    t = FlatTorus(((1.0, 0.0), (0.0, -1.0)))
    assert t.det == 1.0
    assert t.basis[1] == (-0.0, 1.0)


def test_runtime_flowed_basis_is_the_flat_torus_basis():
    # the runtime flows a plain tuple; the reference torus must agree bit for bit
    for t in (-82.0, -10.0, 0.0, 3.7, 82.0):
        torus = flowed_anosov(t)
        basis = _flowed_basis(t)
        assert basis == torus.basis, t
        assert _area(basis) == torus.area, t


def test_family_area_is_two_big_tori_plus_two_scaled_small_ones():
    # delta large enough that 2 delta^2 shows at the relative tolerance
    delta = 1e-3
    cons = build_construction(4.0, 0.1, delta)
    for fam in (cons.main, cons.ref_start, cons.ref_end):
        for i in range(41):
            t = 2 * fam.d * i / 40
            for f in (fam, unclamped(fam)):
                assert f.at(t, {}).area == pytest.approx(2 + 2 * delta**2, rel=1e-12)


def test_flowed_slit_length_matches_closed_form():
    rho = 0.02
    vec = (rho * math.cos(math.pi / 4), rho * math.sin(math.pi / 4))
    assert slit_length(rho, 0.0) == rho
    for t in (-3.0, -0.5, 0.0, 1.2, 4.0):
        got = math.hypot(vec[0] * math.exp(t), vec[1] * math.exp(-t))
        assert got == pytest.approx(slit_length(rho, t), rel=1e-12)
        assert slit_length(rho, t) == pytest.approx(slit_length(rho, -t), rel=1e-12)


def test_family_slit_lengths_pinch_at_the_phase_centers():
    fam = build_construction(10.0, 0.1, 1e-6).main
    grid = [0.5 * i for i in range(41)]

    def slit(f, i, t):
        return slit_length(f.rho, f.slot_time(i, t))

    raw0 = [slit(unclamped(fam), 0, t) for t in grid]
    raw1 = [slit(unclamped(fam), 1, t) for t in grid]
    assert grid[min(range(41), key=raw0.__getitem__)] == 5.0
    assert grid[min(range(41), key=raw1.__getitem__)] == 15.0
    # cosh profile is strictly convex
    for seq in (raw0, raw1):
        for i in range(1, 40):
            assert seq[i - 1] + seq[i + 1] > 2 * seq[i]
    # clamping freezes each pair outside its active window
    assert slit(fam, 0, 12.0) == slit(fam, 0, 10.0)
    assert slit(fam, 0, 20.0) == slit(fam, 0, 10.0)
    assert slit(fam, 1, 3.0) == slit(fam, 1, 10.0)
    assert slit(fam, 1, 0.0) == slit(fam, 1, 10.0)


def test_shortest_slope_square_torus_tie():
    # ties resolve to the first basis vector, so the unit lattice reports 1/0
    slope, length = shortest_slope(((1.0, 0.0), (0.0, 1.0)))
    assert slope == Slope(1, 0)
    assert length == pytest.approx(1.0, rel=1e-12)


def test_systole_family_closed_form():
    assert flowed_anosov_slope(0.0) == fibonacci_slope(-1) == Slope(0, 1)
    assert flowed_anosov_slope(5.0) == fibonacci_slope(9) == Slope(55, 34)
    assert flowed_anosov_slope(-5.0) == fibonacci_slope(-11) == Slope(-55, 89)
    assert systole_index(0.0) == -1
    assert systole_index(5.0) == 9
    assert systole_index(-5.0) == -11
    _, len0 = shortest_slope(anosov_torus().basis)
    assert len0**2 == pytest.approx(2 / math.sqrt(5), rel=1e-12)
    rng = random.Random(11)
    for _ in range(60):
        u = rng.uniform(-20, 20)
        got = flowed_anosov_slope(u)
        n = systole_index(u)
        assert got in {fibonacci_slope(n + j) for j in (-1, 0, 1)}
    # double-precision basis entries perturb the lattice at relative 1e-16
    # and the flow amplifies that by e^(2|u|), so the closed-form length
    # comparison only makes sense at moderate u
    for _ in range(40):
        u = rng.uniform(-8, 8)
        n = systole_index(u)
        best = min(
            (2 / math.sqrt(5)) * math.cosh(2 * (u - (n + j + 1) * LOG_GAMMA))
            for j in (-1, 0, 1)
        )
        _, length = flowed_anosov_systole(u)
        assert length**2 == pytest.approx(best, rel=1e-8)


def test_systole_walks_the_farey_graph_at_the_expected_rate():
    s0 = flowed_anosov_slope(0.0)
    progress = {u: farey_distance(s0, flowed_anosov_slope(float(u))) for u in (2, 5, 10, 20)}
    assert progress == {2: 2, 5: 5, 10: 11, 20: 21}
    for u, steps in progress.items():
        assert 0.35 * FAREY_RATE * u <= steps <= 0.65 * FAREY_RATE * u + 1


def test_build_construction_shape_and_regime():
    cons = build_construction(10.0, 0.1, 1e-6)
    assert isinstance(cons, Construction)
    assert cons.rho == pytest.approx(0.1 * math.exp(-5.0), rel=1e-12)
    assert cons.main.phases == (-5.0, -15.0)
    assert cons.main.windows == ((0.0, 10.0), (10.0, 20.0))
    assert cons.ref_start.phases == (-5.0, -5.0)
    assert cons.ref_end.phases == (-15.0, -15.0)
    for bad in (
        dict(d=10.0, c=1.5, delta=1e-6),
        dict(d=10.0, c=0.0, delta=1e-6),
        dict(d=0.0, c=0.1, delta=1e-6),
        dict(d=-3.0, c=0.1, delta=1e-6),
        dict(d=10.0, c=0.1, delta=0.1),
        dict(d=10.0, c=0.1, delta=0.0),
        dict(d=10.0, c=0.1, delta=-1e-6),
        dict(d=10.0, c=0.1, delta=1e-160),
        dict(d=56.0, c=0.1, delta=1e-20),
        dict(d=math.nan, c=0.1, delta=1e-6),
    ):
        with pytest.raises(ParameterRegimeError):
            build_construction(**bad)


def test_construction_surfaces_glue_in_both_modes():
    cons = build_construction(8.0, 0.1, 1e-6)
    fam = cons.main
    for t in (0.0, 3.7, 8.0, 12.2, 16.0):
        for f in (fam, unclamped(fam)):
            s = f.at(t, {})
            assert isinstance(s, FlowedSlots)
            assert len(s.slots) == 2
            assert s.scale == 1e-6
            for i, (slope, length, slit) in enumerate(s.slots):
                torus = flowed_anosov(f.slot_time(i, t))
                assert torus.area == pytest.approx(1.0, rel=1e-9)
                assert (slope, length) == shortest_slope(torus.basis)
                assert slit == slit_length(f.rho, f.slot_time(i, t))


def test_shadow_of_the_start_surface_is_swap_symmetric():
    cons = build_construction(10.0, 0.1, 1e-6)
    s = cons.main.at(0.0, {})
    snap = shadow(s)
    assert snap.k == 2
    # both phased tori sit at flow time -d/2 once clamping is applied
    assert snap.slots[0].slope == snap.slots[1].slope == flowed_anosov_slope(-5.0)
    assert snap.slots[0].neg_log_ext == pytest.approx(snap.slots[1].neg_log_ext, rel=1e-12)
    assert snap.glue[0].slope is snap.glue[1].slope is None
    assert rafi_formula(snap, rotate_snapshot(1, snap), TH) == 0.0
    # slot shortness is log(area / scaled systole^2), far past every threshold
    _, syst = shortest_slope(flowed_anosov(cons.main.slot_time(0, 0.0)).basis)
    expect = math.log(s.area / (1e-6 * syst) ** 2)
    assert snap.slots[0].neg_log_ext == pytest.approx(expect, rel=1e-9)
    assert snap.slots[0].neg_log_ext > 20.0


def test_rotate_snapshot_cycles_slots_and_glue():
    snap = Snapshot(
        (CurveSnap(Slope(1, 2), 3.0), CurveSnap(Slope(5, 1), 7.0)),
        (CurveSnap(None, 2.0), CurveSnap(None, 0.5)),
    )
    r = rotate_snapshot(1, snap)
    assert r.slots == (snap.slots[1], snap.slots[0])
    assert r.glue == (snap.glue[1], snap.glue[0])
    assert rotate_snapshot(1, r) == snap


def test_experiment_curve_is_flat_at_the_ends_and_large_in_the_middle():
    res = nonqc_experiment(10.0)
    assert res.rows[0].orbit_diam == 0.0
    assert res.rows[-1].orbit_diam == 0.0
    assert res.endpoint_max == 0.0
    assert res.ref_start_gap == 0.0
    assert res.ref_end_gap == 0.0
    assert res.midpoint == pytest.approx(44.551, abs=0.01)
    assert 8.0 <= res.peak_t <= 12.0
    assert res.peak_value >= res.midpoint
    # the exact slit-shortness anchor: at t = d/2 the first pair has length rho
    anchor = [r for r in res.rows if r.t == 5.0][0]
    assert anchor.glue_loglen == pytest.approx(5.0 + math.log(10.0), rel=1e-12)
    mid = [r for r in res.rows if r.t == 10.0][0]
    assert mid.slot_slopes == (Slope(55, 34), Slope(-55, 89))
    assert mid.dist_to_fixed == pytest.approx(res.midpoint - 10.0, abs=0.01)
    for row in res.rows:
        if 5.0 <= row.t <= 15.0:
            assert row.orbit_diam >= 10.0
        assert row.dist_to_fixed <= row.orbit_diam + 1e-9
        assert row.orbit_diam <= 60.0


def test_reference_families_shadow_the_main_family_at_the_ends():
    # ref_start_gap and ref_end_gap read 0 by construction: at t = 0 the
    # main family's shadow is ref_start's, and at t = 2d it is ref_end's,
    # with nonqc_experiment's default delta at each d and c
    for d in list(range(10, 41)) + [55]:
        for c in (1e-6, 0.1, 0.5, 0.9):
            cons = build_construction(d, c, c * math.exp(-d / 2) / 100)
            for ref, t in ((cons.ref_start, 0.0), (cons.ref_end, 2.0 * d)):
                assert shadow(cons.main.at(t, {})) == shadow(ref.at(t, {})), (d, c, t)


def test_gluing_level_gap_decides_a_row(monkeypatch):
    # at c = 1e-6 the gluing curves' horoball term beats the slots' at
    # t = d/2, so both values carry it; recorded before the gluing side
    # shared the slot side's case analysis
    row = nonqc_experiment(20.0, c=1e-6).rows[10]
    assert row.t == 10.0
    assert row.orbit_diam == 80.64608044412178
    assert row.dist_to_fixed == 69.64608044412178
    # negative control: without the gluing level gap both values fall by 1
    import coarse_teich.flatsim as flatsim

    pair = flatsim.rafi_pair

    def no_glue_horo(slope_a, value_a, slope_b, value_b, K, farey):
        terms = pair(slope_a, value_a, slope_b, value_b, K, farey)
        return (terms[0], 0, terms[2]) if slope_a is None else terms

    monkeypatch.setattr(flatsim, "rafi_pair", no_glue_horo)
    row = nonqc_experiment(20.0, c=1e-6).rows[10]
    assert row.orbit_diam == 79.64608044412178
    assert row.dist_to_fixed == 68.64608044412178


def test_off_grid_rows_match_their_recorded_digest():
    # every output field, by repr, at d and c off the benchmark's grid (its
    # records keep c = 0.1, integer d <= 40 and 6 decimals); recorded before
    # the rows shared their Farey walks and lattice reductions.  The digest
    # pins the last bits that libm's exp and log give on x86-64 glibc.
    h = hashlib.sha256()
    for d in (12.3, 33.7, 45, 55):
        for c in (0.1, 0.5):
            res = nonqc_experiment(d, c=c)
            h.update(repr((res.d, res.c, res.delta, res.peak_t, res.peak_value,
                           res.midpoint, res.endpoint_max, res.ref_start_gap,
                           res.ref_end_gap)).encode())
            for r in res.rows:
                h.update(repr((r.t, r.orbit_diam, r.dist_to_fixed, r.slot_slopes,
                               r.glue_loglen)).encode())
    assert h.hexdigest()[:16] == "1f7ad1f07c25c2b1"


def test_sweeps_match_their_recorded_digest():
    # every field of every row and summary of the default sweep and of the
    # c = 1e-6 sweep, at full precision, with the fitted line; recorded
    # before each row was read from one slot pair and one gluing pair
    h = hashlib.sha256()
    for params in ({}, {"c": 1e-6}):
        results, slope, intercept = nonqc_sweep(**params)
        h.update(repr((slope, intercept)).encode())
        for res in results:
            h.update(repr(res).encode())
    assert h.hexdigest()[:16] == "3813ebd0a3185af7"


@pytest.mark.parametrize("n_steps", [0, -1, 2.5, True])
def test_nonqc_experiment_rejects_a_step_count_that_is_not_a_positive_int(n_steps):
    with pytest.raises(ParameterRegimeError, match="n_steps"):
        nonqc_experiment(10.0, n_steps=n_steps)


def test_rows_match_the_generic_evaluation_bit_for_bit():
    # each row's two-sided reading against the orbit diameter over the
    # rotated snapshot, the minimum over every fixed-locus candidate and
    # the swap's slot term, at thresholds, depths, slit scales, small tori
    # scales and step counts across the regime.  A row shares a slot
    # reading only where two slot times are equal floats, so the grid has
    # off-round d and step counts that do not divide 40; the 200-step grid
    # runs at one threshold, as its rows cost five times the 40-step ones.
    seen = {"farey_positive": 0, "equal_slopes": 0, "glue_horo_decides": 0}
    thresholds = [Thresholds(K=K, K_hat=K_hat) for K, K_hat in ((1, 1), (3, 4), (8, 9))]
    grid = [(n, th) for n in (1, 7, 40) for th in thresholds] + [(200, thresholds[1])]
    for n_steps, th in grid:
        for d in (3, 10, 17.5, 25, 33.3, 55):
            for c in (1e-6, 0.1, 0.9):
                for delta in (None, 1e-20):
                    res = nonqc_experiment(d, c=c, delta=delta, th=th, n_steps=n_steps)
                    assert len(res.rows) == n_steps + 1
                    fam = build_construction(d, c, res.delta).main
                    for row in res.rows:
                        flowed = fam.at(row.t, {})
                        snap = shadow(flowed)
                        swapped = rotate_snapshot(1, snap)
                        slot = rafi_side(zip(snap.slots, swapped.slots), th, farey_distance)
                        glue = rafi_side(zip(snap.glue, swapped.glue), th, farey_distance)
                        where = (n_steps, th.K, d, c, delta, row.t)
                        assert row.orbit_diam == rafi_formula(snap, swapped, th), where
                        assert row.dist_to_fixed == distance_to_fixed_per_candidate(snap, th), where
                        assert row.farey_term == slot[0], where
                        assert row.slot_slopes == tuple(s.slope for s in snap.slots), where
                        assert row.glue_loglen == max(
                            math.log(1 / slit) for _, _, slit in flowed.slots
                        ), where
                        seen["farey_positive"] += row.farey_term > 0
                        seen["equal_slopes"] += snap.slots[0].slope == snap.slots[1].slope
                        seen["glue_horo_decides"] += glue[1] > slot[1]
    assert min(seen.values()) >= 100, seen


def test_each_row_walks_the_farey_graph_once_if_its_slopes_differ(monkeypatch):
    walks = []

    def counted(a, b):
        walks.append((a, b))
        return farey_distance(a, b)

    monkeypatch.setattr("coarse_teich.flatsim.farey_distance", counted)
    for d, c in ((10.0, 0.1), (55.0, 1e-6)):
        walks.clear()
        res = nonqc_experiment(d, c=c)
        distinct = [r.slot_slopes for r in res.rows if r.slot_slopes[0] != r.slot_slopes[1]]
        assert walks == distinct
        assert 0 < len(distinct) < len(res.rows)


def test_a_call_reduces_each_slot_time_once_and_builds_no_record_per_row(monkeypatch):
    # the rows read slot readings; only the two reference gaps build
    # records, one main and one reference snapshot each
    import coarse_teich.flatsim as flatsim

    counts = collections.Counter()

    def counted(name, fn):
        def wrapped(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapped

    for name in ("shortest_slope", "shadow", "FlowedSlots", "Snapshot", "CurveSnap"):
        monkeypatch.setattr(flatsim, name, counted(name, getattr(flatsim, name)))
    monkeypatch.setattr(TrajectoryFamily, "at", counted("at", TrajectoryFamily.at))
    for d in (10.0, 55.0):
        counts.clear()
        res = nonqc_experiment(d)
        cons = build_construction(d, res.c, res.delta)
        reads = [(cons.main, r.t) for r in res.rows] + [
            (cons.main, 0.0), (cons.ref_start, 0.0), (cons.main, 2 * d), (cons.ref_end, 2 * d)
        ]
        slot_times = {fam.slot_time(i, t) for fam, t in reads for i in range(2)}
        assert counts["shortest_slope"] == len(slot_times) < 2 * len(res.rows), d
        assert counts["shadow"] == counts["at"] == 4, d
        assert counts["FlowedSlots"] == counts["Snapshot"] == 4, d
        assert counts["CurveSnap"] == 16, d


def test_sweep_midpoint_growth_is_linear_at_the_farey_rate():
    results, slope, intercept = nonqc_sweep(ds=(10, 15, 20))
    assert 0.5 * FAREY_RATE <= slope <= 2.0 * FAREY_RATE
    for r in results:
        assert r.endpoint_max == 0.0
        assert 0.8 * r.d <= r.peak_t <= 1.2 * r.d
        assert r.midpoint >= 2.0 * r.d


def test_distance_to_fixed_vanishes_on_symmetric_snapshots():
    snap = Snapshot(
        (CurveSnap(Slope(2, 1), 9.0),) * 2,
        (CurveSnap(None, 3.0),) * 2,
    )
    assert distance_to_fixed(snap, TH) == 0.0


def _random_snapshot(rng: random.Random, k: int, g: int, slopes: list[Slope]) -> Snapshot:
    """Slots and gluing curves short or long (the cut is neg_log_ext > 1)."""

    def neg_log_ext() -> float:
        return rng.choice(
            (rng.uniform(-1.0, 1.0), 1.0, rng.uniform(1.0, 4.0), rng.uniform(20.0, 60.0))
        )

    slots = tuple(CurveSnap(rng.choice(slopes), neg_log_ext()) for _ in range(k))
    glue = tuple(CurveSnap(None, neg_log_ext()) for _ in range(g))
    return Snapshot(slots, glue)


def _candidate_cases(snap: Snapshot, cand: Snapshot) -> set[str]:
    """Where a candidate's terms come from: horo_<side> or one_sided_<side>
    when the largest positive horoball or one-sided term is on that side
    alone."""
    horo = {"glue": [0], "slot": [0]}
    one_sided = {"glue": [0.0], "slot": [0.0]}
    sides = {"glue": zip(snap.glue, cand.glue), "slot": zip(snap.slots, cand.slots)}
    for side, pairs in sides.items():
        for a, b in pairs:
            sa, sb = a.neg_log_ext > 1, b.neg_log_ext > 1
            if sa and sb and a.slope == b.slope:
                pa, pb = (HoroPoint(0, math.floor(e.neg_log_ext)) for e in (a, b))
                horo[side].append(horo_distance(pa, pb))
            else:
                one_sided[side] += [e.neg_log_ext for e in (a, b) if e.neg_log_ext > 1]
    cases = set()
    for name, terms in (("horo", horo), ("one_sided", one_sided)):
        glue_max, slot_max = max(terms["glue"]), max(terms["slot"])
        if glue_max != slot_max:
            cases.add(f"{name}_{'glue' if glue_max > slot_max else 'slot'}")
    return cases


def test_shared_farey_lookup_matches_the_per_candidate_reference():
    # distance_to_fixed on snapshots of k slots and g gluing curves, and
    # the swap distance read from one farey_lookup, against full one-pass
    # evaluations
    rng = random.Random(1313)
    pool = [fibonacci_slope(n) for n in (-12, -3, -1, 0, 2, 9)] + [Slope(3, 7)]
    thresholds = (TH, Thresholds(K=1, K_hat=1), Thresholds(K=5, K_hat=6))
    seen = {"equal": 0, "far": 0, "fixed_positive": 0}
    # the cases that combining per-entry partials must get right, counted
    # where they hold at a candidate of least value
    seen.update(dict.fromkeys(
        ("horo_glue", "horo_slot", "one_sided_glue", "one_sided_slot"), 0
    ))
    for case in range(2400):
        k = rng.randint(2, 4)
        # small pools make equal slopes common; the other half has far
        # slopes and four or more gluing curves
        if case % 2:
            slopes, g = rng.sample(pool, rng.randint(1, 3)), rng.randint(1, 4)
        else:
            slopes, g = pool, rng.randint(4, 6)
        snap = _random_snapshot(rng, k, g, slopes)
        th = rng.choice(thresholds)
        farey = farey_lookup(snap)
        distinct = set(s.slope for s in snap.slots)
        swapped = rotate_snapshot(1, snap)
        want = rafi_formula_one_pass(snap, swapped, th)
        slot_term = rafi_side(zip(snap.slots, swapped.slots), th, farey_distance)[0]
        assert swap_distance(snap, th, farey) == (want, slot_term)
        fixed = distance_to_fixed(snap, th)
        assert fixed == distance_to_fixed_per_candidate(snap, th), (snap, th)
        assert rafi_formula(snap, swapped, th) == want
        other = _random_snapshot(rng, k, g, pool)
        assert rafi_formula(snap, other, th) == rafi_formula_one_pass(snap, other, th)
        seen["equal"] += len(distinct) < k
        seen["far"] += slot_term > 0
        seen["fixed_positive"] += fixed > 0
        at_best = set()
        for y in snap.slots:
            for x in snap.glue:
                cand = Snapshot((y,) * k, (x,) * g)
                if rafi_formula_one_pass(snap, cand, th) == fixed:
                    at_best |= _candidate_cases(snap, cand)
        for name in at_best:
            seen[name] += 1
    assert min(seen.values()) >= 100, seen


def test_double_reduction_matches_the_longdouble_reference():
    # the same reduction on the same double-precision bases, so only the
    # precision of the arithmetic differs
    rng = random.Random(90)
    for u in [rng.uniform(-90, 90) for _ in range(2000)] + [-90.0, 0.0, 90.0]:
        basis = flowed_anosov(u).basis
        slope, length = shortest_slope(basis)
        ref_slope, ref_length = shortest_slope_longdouble(basis)
        assert slope == ref_slope, u
        assert length == pytest.approx(ref_length, rel=1e-14), u
    unit = ((1.0, 0.0), (0.0, 1.0))
    assert shortest_slope(unit) == shortest_slope_longdouble(unit) == (Slope(1, 0), 1.0)
