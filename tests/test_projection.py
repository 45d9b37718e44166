import random

import pytest

from coarse_teich.horoball import HoroPoint, horo_distance
from coarse_teich.marking import (
    AugMarking,
    Glue,
    GlueBlock,
    InSlot,
    SlotBlock,
    SurfaceMismatchError,
    act,
    act_curve,
    bfs_distance,
    elementary_moves,
)
from coarse_teich.metrics import Thresholds, active_segment, formula_terms
from coarse_teich.projection import (
    Annulus,
    Simplex,
    Slot,
    Whole,
    _orbit_pairs,
    annulus_point,
    marked_projection,
    orbit_points,
    phi,
    proj_distance,
    project,
    q_membership,
)
from coarse_teich.slots import (
    Slope,
    TwistWord,
    complement,
    farey_distance,
    intersection,
    relative_twisting,
    transversal_at,
    twist,
    twist_coordinate,
)
from tests.test_marking import flat_marking, random_marking


def act_simplex(r: int, delta: Simplex) -> Simplex:
    return Simplex(delta.k, tuple(act_curve(r, c, delta.k) for c in delta.curves))


def distance_to_q(delta: Simplex, m: AugMarking, threshold: int) -> int:
    """Thresholded estimate of the move distance from m to Q(delta).

    The formula rows between m and phi(delta, m), cut at K = threshold,
    without the whole surface's row.  Only the slots where delta names a
    non-base slope differ, so what is left is their slot rows and the
    annuli over their pivot regions.
    """
    th = Thresholds(K=threshold, K_hat=threshold)
    rows = formula_terms(m, phi(delta, m), th)
    return sum(contrib for y, _, contrib in rows if not isinstance(y, Whole))


def test_project_glue_annulus():
    m = AugMarking(
        (GlueBlock(3, 2), GlueBlock(0, 0)),
        (SlotBlock(Slope(0, 1), Slope(1, 0), 0),) * 2,
    )
    assert project(Annulus(Glue(0)), m) == HoroPoint(3, 2)
    assert project(Annulus(Glue(1)), m) == HoroPoint(0, 0)


def test_indices_outside_the_surface_raise():
    # no index wraps modulo k: Glue(7) on k = 2 is not glue 1
    m = AugMarking(
        (GlueBlock(3, 0), GlueBlock(9, 0)),
        (SlotBlock(Slope(0, 1), Slope(1, 0), 0),) * 2,
    )
    s = Slope(1, 2)
    calls = [
        lambda: annulus_point(Glue(7), m),
        lambda: annulus_point(InSlot(2, s), m),
        lambda: annulus_point(Glue(-1), m),
        lambda: marked_projection(Glue(2), m),
        lambda: marked_projection(InSlot(-1, s), m),
        lambda: proj_distance(Slot(5), m, m),
        lambda: proj_distance(Annulus(Glue(2)), m, m),
        lambda: proj_distance(Annulus(InSlot(3, s)), m, m),
        lambda: active_segment([m, m], Annulus(InSlot(2, s))),
    ]
    for call in calls:
        with pytest.raises(SurfaceMismatchError):
            call()
    assert annulus_point(Glue(1), m) == HoroPoint(9, 0)


def test_project_slot_and_whole():
    m = flat_marking(3)
    assert project(Slot(1), m) == m.slots[1]
    base_set = project(Whole(), m)
    assert Glue(0) in base_set and InSlot(2, Slope(0, 1)) in base_set
    assert len(base_set) == 6


def test_project_base_annulus_reads_transversal_twist():
    base = Slope(1, 2)
    for n in (-3, 0, 5):
        blk = SlotBlock(base, transversal_at(base, n), 4)
        m = AugMarking((GlueBlock(0, 0),) * 2, (blk, SlotBlock(Slope(0, 1), Slope(1, 0), 0)))
        assert project(Annulus(InSlot(0, base)), m) == HoroPoint(n, 4)


def test_project_nonbase_annulus_is_relative_twisting():
    # oracle: scan the twist power minimizing the intersection directly
    rng = random.Random(5)
    for _ in range(40):
        m = random_marking(rng, 2)
        blk = m.slots[0]
        while True:
            p, q = rng.randint(-4, 4), rng.randint(-4, 4)
            if (p, q) != (0, 0) and Slope.of(p, q) != blk.base:
                break
        c = Slope.of(p, q)
        got = annulus_point(InSlot(0, c), m)
        assert got.level == 0
        t0 = complement(c)
        best = min(
            range(-30, 31),
            key=lambda n: (intersection(twist(TwistWord(c, n), t0), blk.base), abs(n), n),
        )
        assert got.x == best


def test_orbit_points_reads_every_rotate():
    # entry i is annulus_point of the rotate in gluing or slot index i, for
    # cores on and off each slot's base, levels 0..4, twists up to 10^6
    rng = random.Random(19)
    slopes = [Slope(0, 1), Slope(1, 0), Slope(1, 1), Slope(2, 3), Slope(-5, 7)]
    for _ in range(60):
        k = rng.randint(2, 5)
        glue = tuple(
            GlueBlock(rng.randint(-10**6, 10**6), rng.randint(0, 4)) for _ in range(k)
        )
        shared = rng.choice(slopes)
        slots = []
        for _ in range(k):
            base = shared if rng.random() < 0.5 else rng.choice(slopes)
            trans = transversal_at(base, rng.randint(-10**6, 10**6))
            slots.append(SlotBlock(base, trans, rng.randint(0, 4)))
        m = AugMarking(glue, tuple(slots))
        on_and_off = dict.fromkeys(slopes + [b.base for b in m.slots])
        cores = [Glue(rng.randrange(k))] + [InSlot(rng.randrange(k), s) for s in on_and_off]
        for c in cores:
            want = [None] * k
            for r in range(k):
                rc = act_curve(r, c, k)
                want[rc.j if isinstance(rc, Glue) else rc.slot] = annulus_point(rc, m)
            assert orbit_points(c, m) == want
    with pytest.raises(SurfaceMismatchError):
        orbit_points(Glue(2), flat_marking(2))


def test_orbit_pairs_are_orbit_points_as_ints():
    # the private reader against orbit_points and against the definition
    # (twist coordinate on the base, relative twisting off it), at k = 2..4
    # for the gluing core and slot cores on and off each slot's base; one
    # call over two markings' blocks reads each marking's orbit
    rng = random.Random(26)
    slopes = [Slope(0, 1), Slope(1, 0), Slope(1, 1), Slope(2, 3), Slope(-5, 7), Slope(7, 2)]
    for _ in range(40):
        k = rng.randint(2, 4)
        pair = []
        for _ in range(2):
            glue = tuple(
                GlueBlock(rng.randint(-10**6, 10**6), rng.randint(0, 4)) for _ in range(k)
            )
            shared = rng.choice(slopes)
            slots = []
            for _ in range(k):
                base = shared if rng.random() < 0.5 else rng.choice(slopes)
                trans = transversal_at(base, rng.randint(-10**6, 10**6))
                slots.append(SlotBlock(base, trans, rng.randint(0, 4)))
            pair.append(AugMarking(glue, tuple(slots)))
        m, n = pair
        want_glue = [(g.tau, g.D) for g in m.glue]
        assert _orbit_pairs(Glue(0), m.glue) == want_glue
        assert [(p.x, p.level) for p in orbit_points(Glue(1), m)] == want_glue
        assert _orbit_pairs(Glue(0), m.glue + n.glue) == want_glue + _orbit_pairs(Glue(0), n.glue)
        for s in dict.fromkeys(slopes + [b.base for b in m.slots]):
            want = [
                (twist_coordinate(s, b.trans), b.D) if b.base == s
                else (relative_twisting(s, complement(s), b.base), 0)
                for b in m.slots
            ]
            c = InSlot(rng.randrange(k), s)
            assert _orbit_pairs(c, m.slots) == want, (m, s)
            assert [(p.x, p.level) for p in orbit_points(c, m)] == want, (m, s)
            both = _orbit_pairs(c, m.slots + n.slots)
            assert both == want + _orbit_pairs(c, n.slots), (m, n, s)


def test_flip_fixes_annulus_projections():
    # the base branch and the relative-twisting branch agree on transversals
    rng = random.Random(9)
    for _ in range(30):
        m = random_marking(rng, 2, level_max=0)
        blk = m.slots[0]
        flipped = AugMarking(m.glue, (SlotBlock(blk.trans, blk.base, 0), m.slots[1]))
        for c in (blk.base, blk.trans):
            assert annulus_point(InSlot(0, c), m) == annulus_point(InSlot(0, c), flipped)


def test_proj_distance_identical_is_zero():
    rng = random.Random(2)
    for _ in range(10):
        m = random_marking(rng, 3)
        ys = [Whole(), Slot(0), Annulus(Glue(1)), Annulus(InSlot(0, m.slots[0].base))]
        for y in ys:
            assert proj_distance(y, m, m) == 0


def test_proj_distance_planted_twist_offset():
    m1 = flat_marking(2)
    for n in (1, 7, 44, 1000):
        m2 = AugMarking(
            (GlueBlock(n, 0), GlueBlock(0, 0)), m1.slots
        )
        want = horo_distance(HoroPoint(0, 0), HoroPoint(n, 0))
        assert proj_distance(Annulus(Glue(0)), m1, m2) == want
        assert proj_distance(Slot(0), m1, m2) == 0
        assert proj_distance(Whole(), m1, m2) == 0


def _candidate_subsurfaces(m1: AugMarking, m2: AugMarking, rng: random.Random):
    ys = [Whole()]
    for i in range(m1.k):
        ys.append(Slot(i))
        ys.append(Annulus(Glue(i)))
        for m in (m1, m2):
            ys.append(Annulus(InSlot(i, m.slots[i].base)))
            ys.append(Annulus(InSlot(i, m.slots[i].trans)))
        while True:
            p, q = rng.randint(-3, 3), rng.randint(-3, 3)
            if (p, q) != (0, 0):
                break
        ys.append(Annulus(InSlot(i, Slope.of(p, q))))
    return ys


def test_projection_is_lipschitz_on_elementary_moves():
    # one move shifts slot projections by <= 3 and annular ones by <= 4
    rng = random.Random(17)
    for _ in range(25):
        m = random_marking(rng, 2, level_max=1)
        for n in elementary_moves(m):
            for y in _candidate_subsurfaces(m, n, rng):
                d = proj_distance(y, m, n)
                if isinstance(y, Annulus):
                    assert d <= 4, (y, m, n)
                else:
                    assert d <= 3, (y, m, n)


def test_marked_projection_branches():
    m = AugMarking(
        (GlueBlock(2, 1), GlueBlock(0, 0)),
        (SlotBlock(Slope(1, 2), transversal_at(Slope(1, 2), 3), 2),
         SlotBlock(Slope(0, 1), Slope(1, 0), 0)),
    )
    assert marked_projection(Glue(0), m) == (Glue(0), 2, 1)
    c = InSlot(0, Slope(1, 2))
    assert marked_projection(c, m) == (c, m.slots[0].trans, 2)
    other = InSlot(0, Slope(0, 1))
    ref, trans, level = marked_projection(other, m)
    assert ref == other and level == 0
    assert intersection(Slope(0, 1), trans) == 1
    assert twist_coordinate(Slope(0, 1), trans) == annulus_point(other, m).x


def test_simplex_validation():
    Simplex(2, (Glue(0), Glue(1), InSlot(0, Slope(1, 2))))
    with pytest.raises(ValueError):
        Simplex(2, (Glue(2),))
    with pytest.raises(ValueError):
        Simplex(2, (InSlot(0, Slope(0, 1)), InSlot(0, Slope(1, 1))))
    # duplicates collapse, order is canonical
    d = Simplex(2, (InSlot(1, Slope(0, 1)), Glue(1), Glue(1)))
    assert d.curves == (Glue(1), InSlot(1, Slope(0, 1)))


def test_q_membership():
    m = flat_marking(2)
    assert q_membership(Simplex(2, ()), m)
    assert q_membership(Simplex(2, (Glue(0), Glue(1))), m)
    assert q_membership(Simplex(2, (InSlot(0, Slope(0, 1)),)), m)
    assert not q_membership(Simplex(2, (InSlot(0, Slope(1, 0)),)), m)


def test_phi_identity_on_members():
    rng = random.Random(31)
    for _ in range(20):
        m = random_marking(rng, 3)
        delta = Simplex(3, (Glue(0), InSlot(1, m.slots[1].base)))
        assert q_membership(delta, m)
        assert phi(delta, m) == m


def test_phi_lands_in_q_and_is_idempotent():
    rng = random.Random(37)
    for _ in range(40):
        m = random_marking(rng, 2, level_max=2)
        while True:
            p, q = rng.randint(-5, 5), rng.randint(-5, 5)
            if (p, q) != (0, 0):
                break
        delta = Simplex(2, (InSlot(0, Slope.of(p, q)),))
        image = phi(delta, m)
        assert q_membership(delta, image)
        assert phi(delta, image) == image
        # untouched blocks unchanged
        assert image.glue == m.glue
        assert image.slots[1] == m.slots[1]
        # annular data over the simplex curve matches the source exactly
        for c in delta.curves:
            assert proj_distance(Annulus(c), m, image) <= 2


def test_phi_equivariance_exact():
    rng = random.Random(41)
    for _ in range(30):
        k = rng.randint(2, 4)
        m = random_marking(rng, k)
        while True:
            p, q = rng.randint(-4, 4), rng.randint(-4, 4)
            if (p, q) != (0, 0):
                break
        delta = Simplex(k, (InSlot(rng.randrange(k), Slope.of(p, q)), Glue(0)))
        r = rng.randrange(k)
        assert phi(act_simplex(r, delta), act(r, m)) == act(r, phi(delta, m))


def test_distance_to_q_zero_cases():
    rng = random.Random(43)
    for _ in range(10):
        m = random_marking(rng, 2)
        assert distance_to_q(Simplex(2, (Glue(0), Glue(1))), m, 2) == 0
        member = Simplex(2, (InSlot(0, m.slots[0].base),))
        assert distance_to_q(member, m, 2) == 0


def test_distance_to_q_tracks_move_distance():
    # small planted base change: compare against the exact move distance
    # between m and its projection
    m = flat_marking(2)
    delta = Simplex(2, (InSlot(0, Slope(2, 1)),))
    image = phi(delta, m)
    d2q = distance_to_q(delta, m, 1)
    dbfs = bfs_distance(m, image)
    assert dbfs <= 6
    assert abs(d2q - dbfs) <= 3


def test_distance_to_q_planted_farey_distance():
    # base 0/1, target 5/2: Farey distance 3 always enters the sum; the
    # annular corrections for this untwisted pair stay small
    m = flat_marking(2)
    delta = Simplex(2, (InSlot(0, Slope(5, 2)),))
    assert farey_distance(Slope(0, 1), Slope(5, 2)) == 3
    d2q = distance_to_q(delta, m, 2)
    assert 3 <= d2q <= 20


def test_distance_to_q_sees_planted_twisting():
    # park a big twist about a slope on the Farey geodesic; the pivot-region
    # annulus picks up a log-scale horoball term
    mid = Slope(1, 1)
    target = Slope(5, 2)
    m = flat_marking(2)
    twisted_base = twist(TwistWord(mid, 50), m.slots[0].base)
    twisted_target = twist(TwistWord(mid, 50), target)
    d_plain = distance_to_q(Simplex(2, (InSlot(0, target),)), m, 2)
    d_far = distance_to_q(Simplex(2, (InSlot(0, twisted_target),)), m, 2)
    assert d_far >= d_plain + 5
    # pre-twisting the marking by the same power cancels the excursion
    m2 = AugMarking(
        m.glue,
        (SlotBlock(twisted_base, transversal_at(twisted_base, 0), 0), m.slots[1]),
    )
    d_cancelled = distance_to_q(Simplex(2, (InSlot(0, twisted_target),)), m2, 2)
    assert abs(d_cancelled - d_plain) <= 4
