"""Tests for the staged fixed-point search and the coarse barycenter."""

import hashlib
import json
import math
import random

import pytest

from coarse_teich.horoball import HoroPoint, horo_distance
from coarse_teich.marking import (
    AugMarking,
    Glue,
    GlueBlock,
    InSlot,
    SlotBlock,
    act,
)
from coarse_teich.metrics import (
    Thresholds,
    formula_distance_T,
    formula_terms,
    group_symmetric_families,
)
from coarse_teich.projection import Annulus, annulus_point, proj_distance
from coarse_teich.search import (
    PreconditionError,
    almost_fixed_certificate,
    coarse_barycenter,
    fixed_point_search,
    is_fixed,
    seed_marking,
    short_cut,
)
from coarse_teich.slots import (
    Slope,
    TwistWord,
    pivot_region,
    transversal_at,
    twist,
    twist_coordinate,
)
from tests.oracles import search_stages_by_points, short_curve_reduced_seed
from tests.test_marking import flat_marking, random_marking

TH = Thresholds()


def symmetric_marking(
    k: int,
    tau: int = 0,
    glue_lvl: int = 0,
    base: Slope = Slope(0, 1),
    psi: int = 0,
    slot_lvl: int = 0,
) -> AugMarking:
    g = GlueBlock(tau, glue_lvl)
    s = SlotBlock(base, transversal_at(base, psi), slot_lvl)
    return AugMarking((g,) * k, (s,) * k)


def test_orbit_diameter_fixed_is_zero():
    m = symmetric_marking(3, tau=9, base=Slope(2, 1), psi=4)
    assert is_fixed(m)
    cert = almost_fixed_certificate(m, TH)
    assert cert.diameter == 0
    assert cert.per_element == (0, 0)


def test_orbit_diameter_positive_for_one_sided_twist():
    m = flat_marking(2)
    m = AugMarking((GlueBlock(50, 0), m.glue[1]), m.slots)
    assert not is_fixed(m)
    cert = almost_fixed_certificate(m, TH)
    d = cert.diameter
    assert d == formula_distance_T(m, act(1, m), TH)
    assert d > 0
    assert len(cert.per_element) == 1
    blob = cert.to_json()
    assert set(blob) == {"marking", "diameter", "per_element"}
    assert AugMarking.from_json(blob["marking"]) == m


def test_certificate_mirror_matches_every_rotate():
    # only r = 1..k//2 are evaluated; the rest must equal the direct value
    rng = random.Random(607)
    for k in range(2, 7):
        for n in range(12):
            mu = random_marking(rng, k, level_max=2)
            if n % 2:
                mu = AugMarking(
                    tuple(GlueBlock(g.tau + 10**n, g.D) for g in mu.glue), mu.slots
                )
            cert = almost_fixed_certificate(mu, TH)
            direct = tuple(formula_distance_T(mu, act(r, mu), TH) for r in range(1, k))
            assert cert.per_element == direct
            assert cert.diameter == max(direct)


def test_is_fixed_is_invariance_under_every_rotation():
    rng = random.Random(608)
    for _ in range(200):
        k = rng.randint(2, 6)
        m = random_marking(rng, k)
        fixed = AugMarking((m.glue[0],) * k, (m.slots[0],) * k)
        i = rng.randrange(k)
        g, s = fixed.glue[i], fixed.slots[i]
        glue_changed = AugMarking(
            fixed.glue[:i] + (GlueBlock(g.tau + 1, g.D),) + fixed.glue[i + 1:],
            fixed.slots,
        )
        slot_changed = AugMarking(
            fixed.glue,
            fixed.slots[:i] + (SlotBlock(s.base, s.trans, s.D + 1),) + fixed.slots[i + 1:],
        )
        for x in (m, fixed, glue_changed, slot_changed):
            assert is_fixed(x) == all(act(r, x) == x for r in range(1, k))
        assert is_fixed(fixed)
        assert not is_fixed(glue_changed) and not is_fixed(slot_changed)


def test_seed_marking_keeps_lengths_drops_twists():
    base = Slope(2, 1)
    glue = tuple(GlueBlock(9, d) for d in (2, 3, 4))
    slot = SlotBlock(base, transversal_at(base, 7), 5)
    mu = AugMarking(glue, (slot,) * 3)
    seed = seed_marking(mu, TH)
    assert is_fixed(seed)
    assert all(g == GlueBlock(0, 3) for g in seed.glue)  # mean level, zero twist
    for s in seed.slots:
        assert s.base == base and s.D == 5
        assert twist_coordinate(s.base, s.trans) == 0


# The short-curve reduction is part of seed_marking: over an orbit with a
# level above short_cut(TH) the seed carries block 0's twist data.


def test_symmetric_short_curves_empty_when_all_levels_low():
    # no level above the cut: no short orbit, so the seed keeps no twist
    assert short_cut(TH) == TH.R + TH.K + 2
    assert seed_marking(flat_marking(3), TH) == flat_marking(3)
    mu = symmetric_marking(2, tau=70, glue_lvl=15, base=Slope(2, 1), psi=-55, slot_lvl=15)
    assert seed_marking(mu, TH) == symmetric_marking(2, glue_lvl=15, base=Slope(2, 1), slot_lvl=15)


def test_symmetric_short_curves_returns_full_orbits():
    # both orbits short: the seed carries block 0's data over each full
    # orbit, whatever the other blocks hold
    base = Slope(2, 1)
    m = symmetric_marking(2, tau=70, glue_lvl=25, base=base, psi=-55, slot_lvl=20)
    assert seed_marking(m, TH) == m
    mu = AugMarking(
        (GlueBlock(70, 25), GlueBlock(90, 12)),
        (SlotBlock(base, transversal_at(base, -55), 16), m.slots[1]),
    )
    seed = seed_marking(mu, TH)
    assert seed.glue == (GlueBlock(70, 19),) * 2
    assert seed.slots == (mu.slots[0],) * 2


def test_reduce_short_curves_matches_short_twist_data():
    base = Slope(3, 2)
    mu = symmetric_marking(2, tau=70, glue_lvl=20, base=base, psi=-55, slot_lvl=18)
    red = seed_marking(mu, TH)
    assert is_fixed(red)
    assert red == short_curve_reduced_seed(mu, TH)
    for j in range(2):
        assert annulus_point(Glue(j), red) == HoroPoint(70, 20)
    for i in range(2):
        assert annulus_point(InSlot(i, base), red) == HoroPoint(-55, 18)


def test_short_orbit_collapses_fail_the_certificate():
    # a short orbit that is short on one index only, or whose short slope
    # is not the base of every slot, has orbit diameter past R
    base, other = Slope(2, 1), Slope(1, 1)
    trans = transversal_at(base, 0)
    flat_glue, flat_slots = (GlueBlock(0, 0),) * 2, (SlotBlock(base, trans, 0),) * 2
    for mu in (
        AugMarking(flat_glue, (SlotBlock(base, trans, 25), SlotBlock(base, trans, 0))),
        AugMarking((GlueBlock(0, 25), GlueBlock(0, 3)), flat_slots),
        AugMarking(flat_glue, (
            SlotBlock(base, trans, 25), SlotBlock(other, transversal_at(other, 0), 25)
        )),
    ):
        with pytest.raises(PreconditionError):
            fixed_point_search(mu, TH)


def test_search_fixed_input_returns_input_with_empty_trace():
    mu = symmetric_marking(3, tau=123, glue_lvl=2, base=Slope(2, 1), psi=-6, slot_lvl=1)
    x, trace = fixed_point_search(mu, TH)
    assert x == mu
    assert trace.stages == ()
    assert trace.seed == mu and trace.final == mu
    assert trace.final_distance == 0


def test_search_single_glue_family_large_offset():
    n = 10**6
    glue = (GlueBlock(n, 0), GlueBlock(n + 1, 0), GlueBlock(n - 1, 0))
    mu = AugMarking(glue, flat_marking(3).slots)
    assert not is_fixed(mu)
    x, trace = fixed_point_search(mu, TH)
    assert is_fixed(x)
    assert len(trace.stages) == 1
    stage = trace.stages[0]
    assert stage.exponent == n
    assert stage.residuals == (0, 1, 1)
    assert all(g == GlueBlock(n, 0) for g in x.glue)
    assert trace.final_distance == 0


def test_search_single_slot_family_large_offset():
    base = Slope(1, 2)
    n = 10**6
    slots = (
        SlotBlock(base, transversal_at(base, n), 0),
        SlotBlock(base, transversal_at(base, n + 1), 0),
    )
    mu = AugMarking((GlueBlock(0, 0),) * 2, slots)
    x, trace = fixed_point_search(mu, TH)
    assert is_fixed(x)
    assert len(trace.stages) == 1
    assert trace.stages[0].exponent == n
    for s in x.slots:
        assert s.base == base
        assert twist_coordinate(s.base, s.trans) == n
    assert trace.stages[0].residuals == (0, 1)
    assert trace.final_distance == 0


def test_search_two_families_follow_the_geodesic(monkeypatch):
    # the staged search from the flat seed, not mu's symmetrization: base
    # walk 0/1 -> 1/30 -> 40/1201, stage one twists -30 about 0/1, stage
    # two twists +40 about 1/30 and carries the base to the target, where
    # the search's seed on mu's slot-0 base already is
    monkeypatch.setattr("tests.oracles.seed_marking", lambda mu, th: flat_marking(2))
    target = Slope(40, 1201)
    slots = (
        SlotBlock(target, transversal_at(target, 0), 0),
        SlotBlock(target, transversal_at(target, 1), 0),
    )
    mu = AugMarking((GlueBlock(0, 0),) * 2, slots)
    assert not is_fixed(mu) and almost_fixed_certificate(mu, TH).diameter <= TH.R
    stages = search_stages_by_points(mu, TH)
    assert [(core.slope, d) for core, d, _, _ in stages] == [(Slope(0, 1), -30), (Slope(1, 30), 40)]
    x = stages[-1][3]
    assert is_fixed(x)
    for s in x.slots:
        assert s.base == target
        assert twist_coordinate(s.base, s.trans) == 0
    assert formula_distance_T(mu, x, TH) == 0
    assert fixed_point_search(mu, TH)[0] == x


def test_search_family_order_is_immaterial_under_the_seed(monkeypatch):
    # under the seed every stage of the staged search about a slot slope
    # other than mu's slot-0 base has exponent 0, so no stage moves a later
    # family: with the families reversed the staged search ends where it
    # did, and the search gives the same output and trace
    import coarse_teich.search as search
    import tests.oracles as oracles

    runs = []
    for th in (Thresholds(3, 4, 40), Thresholds(3, 4, 100)):
        for mu in _grid_inputs(th, 400):
            if almost_fixed_certificate(mu, th).diameter > th.R:
                continue
            if len(_slot_families(mu, th)) >= 2:
                runs.append((mu, th, fixed_point_search(mu, th), search_stages_by_points(mu, th)))
    assert len(runs) >= 50, len(runs)
    for module in (search, oracles):
        grouped = module.group_symmetric_families
        monkeypatch.setattr(module, "group_symmetric_families",
                            lambda *args, grouped=grouped: grouped(*args)[::-1])
    for mu, th, (x, trace), staged in runs:
        assert fixed_point_search(mu, th) == (x, trace), mu
        assert search_stages_by_points(mu, th)[-1][3] == staged[-1][3] == x, mu


def test_search_precondition_failure_carries_certificate():
    base = Slope(1, 1)
    slots = (
        SlotBlock(base, transversal_at(base, 10**6), 0),
        SlotBlock(base, transversal_at(base, 0), 0),
    )
    mu = AugMarking((GlueBlock(0, 0),) * 2, slots)
    with pytest.raises(PreconditionError) as err:
        fixed_point_search(mu, TH)
    cert = err.value.certificate
    assert cert.marking == mu
    assert cert.diameter > TH.R
    assert cert.per_element == (cert.diameter,)


def test_search_magnitude_sweep_resolves_exactly():
    base = Slope(1, 1)
    for k in (2, 3):
        for n in (10, 10**3, 10**6):
            glue = tuple(GlueBlock(n + (j % 2), 0) for j in range(k))
            slots = tuple(
                SlotBlock(base, transversal_at(base, -n + (i % 2)), 0)
                for i in range(k)
            )
            mu = AugMarking(glue, slots)
            assert not is_fixed(mu)
            x, trace = fixed_point_search(mu, TH)
            assert is_fixed(x)
            assert len(trace.stages) == 2  # one glue family, one slot family
            assert isinstance(
                trace.stages[0].family.core, Glue
            )
            assert trace.stages[0].exponent == n
            assert trace.stages[1].exponent == -n
            assert all(g.tau == n for g in x.glue)
            assert all(twist_coordinate(s.base, s.trans) == -n for s in x.slots)
            assert trace.final_distance == 0


def test_trace_json_schema_and_roundtrip():
    n = 10**6
    glue = (GlueBlock(n, 0), GlueBlock(n + 1, 0), GlueBlock(n - 1, 0))
    mu = AugMarking(glue, flat_marking(3).slots)
    x, trace = fixed_point_search(mu, TH)
    blob = trace.to_json()
    assert blob["version"] == 1
    assert set(blob) == {"version", "seed", "stages", "final", "final_distance"}
    assert AugMarking.from_json(blob["final"]) == x
    assert AugMarking.from_json(blob["seed"]) == trace.seed
    (stage,) = blob["stages"]
    assert set(stage) == {
        "core",
        "time_index",
        "values",
        "exponent",
        "sign",
        "marking_after",
        "distance_after",
        "residuals",
    }
    assert stage["core"] == {"kind": "glue"}
    assert stage["exponent"] == n and stage["sign"] == 1
    assert json.loads(trace.to_json_str()) == blob


def test_coarse_barycenter_fixed_input_is_returned():
    sigma = symmetric_marking(3, tau=7, glue_lvl=1, base=Slope(2, 1), psi=-3, slot_lvl=2)
    bary = coarse_barycenter(sigma, 1, TH)
    assert bary == sigma
    assert formula_distance_T(sigma, bary, TH) == 0
    assert coarse_barycenter(sigma, 2, TH) == sigma  # any generator works


def test_coarse_barycenter_averages_the_orbit():
    base = Slope(2, 1)
    glue = tuple(GlueBlock(t, 1) for t in (5, 6, 7))
    slots = tuple(SlotBlock(base, transversal_at(base, p), 0) for p in (3, 5, 4))
    sigma = AugMarking(glue, slots)
    bary = coarse_barycenter(sigma, 1, TH)
    assert is_fixed(bary)
    assert all(g == GlueBlock(6, 1) for g in bary.glue)
    for s in bary.slots:
        assert s.base == base and twist_coordinate(s.base, s.trans) == 4
    assert formula_distance_T(sigma, bary, TH) == 0


def test_coarse_barycenter_random_envelope():
    rng = random.Random(11)
    base = Slope(1, 2)
    for _ in range(25):
        k = rng.choice((2, 3))
        glue = tuple(
            GlueBlock(rng.randint(-10, 10), rng.randint(0, 2)) for _ in range(k)
        )
        slots = tuple(
            SlotBlock(base, transversal_at(base, rng.randint(-10, 10)), rng.randint(0, 2))
            for _ in range(k)
        )
        sigma = AugMarking(glue, slots)
        bary = coarse_barycenter(sigma, 1, TH)
        assert is_fixed(bary)
        assert formula_distance_T(sigma, bary, TH) <= 40


def test_coarse_barycenter_requires_a_generator():
    sigma = flat_marking(4)
    with pytest.raises(ValueError):
        coarse_barycenter(sigma, 2, TH)


def _digest_inputs(n: int):
    """Seeded search inputs, k = 2..5 and twists 1..10^6.  A third lift the
    gluing levels, the slot levels or both to 14..20, so short orbits form
    (the cut is 15); one in seven mixes the slot bases between slots."""
    rng = random.Random(1904)
    bases = [Slope(0, 1), Slope(1, 1), Slope(1, 2), Slope(2, 1), Slope(3, 2)]
    for idx in range(n):
        k = rng.randint(2, 5)
        mag = rng.randint(1, 10 ** rng.randint(1, 6))
        lift = rng.choice(("glue", "slot", "both")) if idx % 3 == 0 else ""
        glue_lvl = rng.randint(14, 19) if lift in ("glue", "both") else 0
        slot_lvl = rng.randint(14, 19) if lift in ("slot", "both") else 0
        # a lifted orbit's levels differ by at most one
        glue = tuple(
            GlueBlock(mag + rng.randint(0, 1), glue_lvl and glue_lvl + rng.randint(0, 1))
            for _ in range(k)
        )
        base = rng.choice(bases)
        slots = []
        for _ in range(k):
            b = rng.choice(bases) if idx % 7 == 3 else base
            psi = -mag + rng.randint(0, 1)
            lvl = slot_lvl and slot_lvl + rng.randint(0, 1)
            slots.append(SlotBlock(b, transversal_at(b, psi), lvl))
        yield AugMarking(glue, tuple(slots))


def _outcome(f) -> str:
    try:
        return f()
    except (AssertionError, ValueError) as err:
        return f"{type(err).__name__}: {err}"


def test_search_outputs_match_their_digest():
    # every trace, error and barycenter over 1,000 seeded inputs, hashed;
    # the digest pins the staged search and the short-curve reduction on
    # inputs that no benchmark deck or CLI default reaches
    h = hashlib.sha256()
    for mu in _digest_inputs(1000):
        trace = _outcome(lambda: fixed_point_search(mu, TH)[1].to_json_str())
        bary = _outcome(lambda: json.dumps(coarse_barycenter(mu, 1, TH).to_json()))
        h.update(f"{trace}\n{bary}\n".encode())
    assert h.hexdigest()[:16] == "c43bd2ea6ebc0967"


def test_seed_marking_matches_the_short_curve_reduction():
    # the closed-form seed against the reduction it replaced, on every
    # certified digest input; the reduction's collapse checks never fire there
    short = {"glue": 0, "slot": 0}
    for mu in _digest_inputs(1000):
        if almost_fixed_certificate(mu, TH).diameter > TH.R:
            continue
        assert seed_marking(mu, TH) == short_curve_reduced_seed(mu, TH), mu
        short["glue"] += max(g.D for g in mu.glue) > short_cut(TH)
        short["slot"] += max(s.D for s in mu.slots) > short_cut(TH)
    assert min(short.values()) >= 50, short


def _short_orbit_inputs(n: int):
    """Seeded inputs with a short slot orbit, its levels spread by up to 10,
    past K_hat, and its twists by up to 3 or 30; half also have a short
    gluing orbit spread the same way."""
    rng = random.Random(2020)
    cut = short_cut(TH)
    bases = [Slope(0, 1), Slope(1, 1), Slope(1, 2), Slope(2, 1), Slope(3, 2)]
    for _ in range(n):
        k = rng.randint(2, 4)
        base = rng.choice(bases)
        mag = rng.randint(0, 10 ** rng.randint(1, 6))
        slot_lvl = rng.randint(cut + 1, cut + 30)
        glue_lvl = rng.choice((0, rng.randint(cut + 1, cut + 30)))
        jit = rng.choice((3, 30))
        glue = tuple(
            GlueBlock(mag + rng.randint(0, jit), glue_lvl and glue_lvl + rng.randint(0, 10))
            for _ in range(k)
        )
        slots = tuple(
            SlotBlock(base, transversal_at(base, -mag + rng.randint(0, jit)),
                      slot_lvl + rng.randint(0, 10))
            for _ in range(k)
        )
        yield AugMarking(glue, slots)


def test_every_certified_input_ends_fixed_nearby():
    # the certificate is the search's only precondition: every input it
    # passes ends exactly fixed within 2R, whatever its short orbits hold
    certified = spread = 0
    for mu in _short_orbit_inputs(2000):
        if almost_fixed_certificate(mu, TH).diameter > TH.R:
            continue
        certified += 1
        levels = [s.D for s in mu.slots]
        spread += max(levels) - min(levels) > TH.K_hat
        x, trace = fixed_point_search(mu, TH)
        assert is_fixed(x) and trace.final_distance <= 2 * TH.R, mu
    assert certified >= 400 and spread >= 30, (certified, spread)


def _grid_inputs(th: Thresholds, n: int):
    """Seeded search inputs for thresholds th: k = 2..4, twists up to 10^6
    with jitter up to 1,000, and levels 0 or up to short_cut(th) + 30,
    spread by up to 0, 5 or 30.  Each slot holds a block on a common base
    b0 at a small twist, carried by a twist of power up to 300 about one of
    two Farey neighbours of b0.  So slot bases differ, and the fans between
    them give families over slopes other than b0."""
    rng = random.Random(f"grid:{th.K}:{th.K_hat}:{th.R}")
    cut = short_cut(th)
    bases = [Slope(0, 1), Slope(1, 1), Slope(1, 2), Slope(2, 1), Slope(3, 2)]
    for _ in range(n):
        k = rng.randint(2, 4)
        b0 = rng.choice(bases)
        mag = rng.randint(0, 10 ** rng.randint(1, 6))
        jit = rng.choice((1, 3, 30, 1000))
        spread = rng.choice((0, 5, 30))
        glue_lvl = rng.choice((0, rng.randint(0, cut + 30)))
        glue = tuple(
            GlueBlock(mag + rng.randint(0, jit), glue_lvl and glue_lvl + rng.randint(0, spread))
            for _ in range(k)
        )
        pivots = [transversal_at(b0, j) for j in rng.sample(range(-3, 4), 2)]
        slot_lvl = rng.choice((0, 0, rng.randint(0, cut + 30)))
        e_max = rng.choice((0, 3, 30, 300))
        slots = []
        for _ in range(k):
            word = TwistWord(rng.choice(pivots), rng.randint(-e_max, e_max))
            slots.append(SlotBlock(
                twist(word, b0),
                twist(word, transversal_at(b0, rng.randint(-jit, jit))),
                slot_lvl and slot_lvl + rng.randint(0, spread),
            ))
        yield AugMarking(glue, tuple(slots))


def _slot_families(mu: AugMarking, th: Thresholds):
    """The search's symmetric families over slot slopes."""
    seed = seed_marking(mu, th)
    families = group_symmetric_families(mu, seed, formula_terms(mu, seed, th), th)
    return [fam for fam in families if not isinstance(fam.core, Glue)]


# (K, K_hat, R) and the inputs drawn there: the default, R >> K, K >> R and
# K = K_hat = 1.  A family over a slope other than b0 needs a row of mu in
# (K_hat, R], so two or more slot families come from R >> K.
THRESHOLD_GRID = {
    (3, 4, 10): 300, (3, 4, 40): 500, (3, 4, 100): 500,
    (20, 20, 10): 200, (30, 30, 5): 200, (1, 1, 5): 300,
}


def test_every_certified_input_ends_fixed_within_the_derived_bounds():
    # at every grid point each certified input ends exactly fixed within
    # final_bound(k), and each stage's residuals are within stage_bound of
    # its level shift: the seed's over the gluing curve, none over a slot
    certified, multi = {}, 0
    for (K, K_hat, R), n in THRESHOLD_GRID.items():
        th = Thresholds(K, K_hat, R)
        certified[th] = 0
        for mu in _grid_inputs(th, n):
            if almost_fixed_certificate(mu, th).diameter > R:
                continue
            certified[th] += 1
            x, trace = fixed_point_search(mu, th)
            assert is_fixed(x) and trace.final_distance <= th.final_bound(mu.k), mu
            for stage in trace.stages:
                glued = isinstance(stage.family.core, Glue)
                shift = abs(mu.glue[0].D - trace.seed.glue[0].D) if glued else 0
                assert max(stage.residuals) <= th.stage_bound(shift), mu
            multi += len(_slot_families(mu, th)) >= 2
    assert min(certified.values()) >= 10 and multi >= 100, (certified, multi)


def test_grid_search_outputs_match_their_digest():
    # every trace or error over the grid inputs, hashed; they are the only
    # seeded inputs with families off mu's slot-0 base, which the search
    # checks but does not twist, so they leave the traces
    h = hashlib.sha256()
    for (K, K_hat, R), n in THRESHOLD_GRID.items():
        th = Thresholds(K, K_hat, R)
        for mu in _grid_inputs(th, n):
            trace = _outcome(lambda: fixed_point_search(mu, th)[1].to_json_str())
            h.update(f"{trace}\n".encode())
    assert h.hexdigest()[:16] == "503eb628e0944247"


def test_every_family_target_has_mu_slot_0_base(monkeypatch):
    # group_symmetric_families orders its families by the target's slot-0
    # base, which stands for mu's: the search's seed and criterion 07 must
    # pass a target on mu's slot-0 base
    import coarse_teich.search as search
    import tests.test_acceptance as acceptance

    calls = []

    def recorded(grouped):
        def wrapper(mu, target, rows, th):
            calls.append((mu, target))
            return grouped(mu, target, rows, th)
        return wrapper

    for module in (search, acceptance):
        monkeypatch.setattr(module, "group_symmetric_families",
                            recorded(module.group_symmetric_families))
    acceptance.test_criterion_07_asymmetric_large_links_always_flagged()
    flagged = len(calls)
    for (K, K_hat, R), n in THRESHOLD_GRID.items():
        th = Thresholds(K, K_hat, R)
        for mu in _grid_inputs(th, n):
            _outcome(lambda: fixed_point_search(mu, th))
    assert flagged == 200 and len(calls) - flagged >= 800, (flagged, len(calls))
    for mu, target in calls:
        assert target.slots[0].base == mu.slots[0].base, (mu, target)


def _criterion_06_inputs():
    """Criterion 06's planted inputs, in its draw order: k = 2..4, twists
    10^1..10^6 with jitter 1 on one base, 28 per k and magnitude."""
    rng = random.Random(6001)
    bases = [Slope(0, 1), Slope(1, 1), Slope(1, 2), Slope(2, 1)]
    for k in (2, 3, 4):
        for e in range(1, 7):
            for _ in range(28):
                mag = 10**e
                base = rng.choice(bases)
                glue = tuple(GlueBlock(mag + rng.randint(0, 1), 0) for _ in range(k))
                slots = tuple(
                    SlotBlock(base, transversal_at(base, -mag + rng.randint(0, 1)), 0)
                    for _ in range(k)
                )
                yield AugMarking(glue, slots)


def test_every_stage_distance_is_the_formula_distance():
    # the search reads the formula rows of (mu, seed) once and updates the
    # distance per stage from its family's values alone; each stage's
    # distance_after, and the final distance, must be the formula distance
    # from mu to the marking it ends at
    cases = [(TH, mu) for mu in _criterion_06_inputs()]
    cases += [(TH, mu) for mu in _digest_inputs(1000)]
    for (K, K_hat, R), n in THRESHOLD_GRID.items():
        th = Thresholds(K, K_hat, R)
        cases += [(th, mu) for mu in _grid_inputs(th, n)]
    runs = multi = 0
    for th, mu in cases:
        if almost_fixed_certificate(mu, th).diameter > th.R:
            continue
        x, trace = fixed_point_search(mu, th)
        for stage in trace.stages:
            assert stage.distance_after == formula_distance_T(mu, stage.marking_after, th), mu
        assert trace.final == x and trace.final_distance == formula_distance_T(mu, x, th), mu
        runs += 1
        multi += len(trace.stages) >= 2
    assert runs >= 2000 and multi >= 50, (runs, multi)


def test_search_finals_match_their_digest():
    # the final marking and distance, or the error, of every search over
    # the criterion-06, digest, short-orbit and grid inputs, hashed; unlike
    # the two digests above it reads no trace, so it pins the output alone
    cases = [(TH, mu) for mu in _criterion_06_inputs()]
    cases += [(TH, mu) for mu in _digest_inputs(1000)]
    cases += [(TH, mu) for mu in _short_orbit_inputs(2000)]
    for (K, K_hat, R), n in THRESHOLD_GRID.items():
        th = Thresholds(K, K_hat, R)
        cases += [(th, mu) for mu in _grid_inputs(th, n)]

    def final(mu, th):
        x, trace = fixed_point_search(mu, th)
        return json.dumps([x.to_json(), trace.final_distance], sort_keys=True)

    h = hashlib.sha256()
    for th, mu in cases:
        h.update(f"{_outcome(lambda: final(mu, th))}\n".encode())
    assert h.hexdigest()[:16] == "fa362eb861aca13f", h.hexdigest()[:16]


def test_every_stage_is_the_stage_read_off_the_points():
    # the search keeps two stages of the staged search, about the gluing
    # curve and about mu's slot-0 base b0, read off the family's mu_orbit;
    # against the staged search computed from the orbits' points it must
    # end at the same marking, every other staged stage must have exponent
    # 0, and the trace's stages must be the two kept ones
    cases = [(TH, mu) for mu in _digest_inputs(1000)]
    for (K, K_hat, R), n in THRESHOLD_GRID.items():
        th = Thresholds(K, K_hat, R)
        cases += [(th, mu) for mu in _grid_inputs(th, n)]
    stages = moved = others = 0
    for th, mu in cases:
        if is_fixed(mu) or almost_fixed_certificate(mu, th).diameter > th.R:
            continue
        x, trace = fixed_point_search(mu, th)
        staged = search_stages_by_points(mu, th)
        assert x == (staged[-1][3] if staged else trace.seed), mu
        twisted = (Glue(0), InSlot(0, mu.slots[0].base))
        kept = [stage for stage in staged if stage[0] in twisted]
        assert all(d == 0 for core, d, _, _ in staged if core not in twisted), mu
        got = [(s.family.core, s.exponent, s.residuals, s.marking_after) for s in trace.stages]
        assert got == kept, mu
        stages += len(staged)
        moved += sum(d != 0 for _, d, _, _ in staged)
        others += len(staged) - len(kept)
    assert stages >= 1500 and moved >= 1000 and others >= 300, (stages, moved, others)


def test_each_check_of_the_search_can_fire(monkeypatch):
    # with a bound of -1 the check on a twisted stage, the check on a
    # family the search does not twist and the final check each raise
    glue = (GlueBlock(10**6, 0), GlueBlock(10**6 + 1, 0), GlueBlock(10**6 - 1, 0))
    glued = AugMarking(glue, flat_marking(3).slots)
    th = Thresholds(3, 4, 40)
    off_b0 = next(
        mu for mu in _grid_inputs(th, 400)
        if almost_fixed_certificate(mu, th).diameter <= th.R
        and any(fam.core.slope != mu.slots[0].base for fam in _slot_families(mu, th))
    )
    with monkeypatch.context() as patch:
        patch.setattr(Thresholds, "stage_bound", lambda self, level_shift: -1)
        with pytest.raises(AssertionError, match=r"^stage 0 residuals"):
            fixed_point_search(glued, TH)
        with pytest.raises(AssertionError, match=r"^family \d+ values"):
            fixed_point_search(off_b0, th)
    monkeypatch.setattr(Thresholds, "final_bound", lambda self, k: -1)
    with pytest.raises(AssertionError, match=r"^final distance"):
        fixed_point_search(glued, TH)


def test_the_search_reads_each_orbit_once(monkeypatch):
    # per search, _orbit_pairs runs once per symmetric family, all in
    # group_symmetric_families: the two twists read mu_orbit alone
    import coarse_teich.metrics as metrics
    import coarse_teich.projection as projection
    import coarse_teich.search as search

    calls = []
    for module in (metrics, projection, search):
        def counted(*args, name=module.__name__, read=module._orbit_pairs):
            calls.append(name)
            return read(*args)
        monkeypatch.setattr(module, "_orbit_pairs", counted)
    families = []
    grouped = search.group_symmetric_families
    monkeypatch.setattr(search, "group_symmetric_families",
                        lambda *args: families.append(grouped(*args)) or families[-1])
    searched = multi = 0
    for (K, K_hat, R), n in THRESHOLD_GRID.items():
        th = Thresholds(K, K_hat, R)
        for mu in _grid_inputs(th, n):
            if is_fixed(mu) or almost_fixed_certificate(mu, th).diameter > R:
                continue
            calls.clear()
            families.clear()
            fixed_point_search(mu, th)
            (fams,) = families
            assert calls == ["coarse_teich.metrics"] * len(fams), mu
            searched += 1
            multi += len(fams) >= 3
    assert searched >= 500 and multi >= 100, (searched, multi)


def test_an_annulus_off_the_pivot_region_reads_at_most_1():
    # Thresholds.row_bound covers such an annulus with R >= 1; fans of more
    # than five rims drop their inner rims from the region, hence n/1 and 1/n
    box = [Slope(p, q) for q in range(5) for p in range(-5, 6)
           if math.gcd(p, q) == 1 and (q or p == 1)]
    box += [Slope(n, 1) for n in range(6, 13)] + [Slope(1, n) for n in range(6, 13)]
    worst = {}
    for a in box:
        m_a = symmetric_marking(2, base=a)
        for b in box:
            m_b = symmetric_marking(2, base=b)
            region = set(pivot_region(a, b))
            for s in box:
                if s not in region:
                    d = proj_distance(Annulus(InSlot(0, s)), m_a, m_b)
                    worst[d] = worst.get(d, 0) + 1
    assert max(worst) == 1 and worst[1] > 100, worst
