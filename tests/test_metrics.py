import math
import random

import pytest

from coarse_teich import metrics, projection
from coarse_teich.calibration import sample_marking
from coarse_teich.horoball import HoroPoint, horo_distance
from coarse_teich.marking import (
    AugMarking,
    Glue,
    GlueBlock,
    InSlot,
    SlotBlock,
    act,
    bfs_distance,
    elementary_moves,
)
from coarse_teich.metrics import (
    CurveSnap,
    LargeLink,
    Snapshot,
    SymmetryViolationError,
    Thresholds,
    active_segment,
    annular_candidates,
    canonical_path,
    formula_distance_T,
    formula_distance_WP,
    formula_terms,
    group_symmetric_families,
    large_links,
    rafi_formula,
    rafi_side,
)
from coarse_teich.projection import Annulus, Slot, Whole, proj_distance
from coarse_teich.search import almost_fixed_certificate
from coarse_teich.slots import Slope, _nearest, farey_distance, transversal_at
from tests.oracles import fibonacci_slope, is_elementary_move, rafi_side_by_pairs
from tests.test_marking import block_sharing_pairs, flat_marking, random_marking

TH = Thresholds()


def test_thresholds_validation():
    Thresholds(1, 1, 1)
    with pytest.raises(ValueError):
        Thresholds(K=3, K_hat=2, R=10)
    with pytest.raises(ValueError):
        Thresholds(K=0, K_hat=2, R=10)
    with pytest.raises(ValueError):
        Thresholds(R=0)


def test_formula_identical_zero():
    rng = random.Random(1)
    for _ in range(10):
        m = random_marking(rng, rng.randint(2, 4))
        assert formula_distance_T(m, m, TH) == 0
        assert formula_distance_WP(m, m, TH) == 0


def test_formula_planted_annular_offset():
    m1 = flat_marking(2)
    for n in (50, 1000, 10**6):
        m2 = AugMarking((GlueBlock(n, 0), GlueBlock(0, 0)), m1.slots)
        want = horo_distance(HoroPoint(0, 0), HoroPoint(n, 0))
        assert formula_distance_T(m1, m2, TH) == want
        assert abs(want - 2 * math.log(n)) <= 6
        # annular data is invisible to the non-annular subsum
        assert formula_distance_WP(m1, m2, TH) == 0


def test_formula_symmetric_and_equivariant():
    rng = random.Random(7)
    for _ in range(20):
        k = rng.randint(2, 4)
        m1, m2 = random_marking(rng, k, 2), random_marking(rng, k, 2)
        d = formula_distance_T(m1, m2, TH)
        assert formula_distance_T(m2, m1, TH) == d
        r = rng.randrange(k)
        assert formula_distance_T(act(r, m1), act(r, m2), TH) == d
        assert formula_distance_WP(act(r, m1), act(r, m2), TH) == formula_distance_WP(
            m1, m2, TH
        )


def test_formula_threshold_monotone_and_subsum():
    rng = random.Random(13)
    for _ in range(15):
        m1, m2 = random_marking(rng, 2, 2), random_marking(rng, 2, 2)
        lo = Thresholds(K=1, K_hat=4, R=10)
        hi = Thresholds(K=6, K_hat=6, R=10)
        assert formula_distance_T(m1, m2, hi) <= formula_distance_T(m1, m2, lo)
        assert formula_distance_WP(m1, m2, TH) <= formula_distance_T(m1, m2, TH)


def test_formula_terms_breakdown():
    m1 = flat_marking(2)
    m2 = AugMarking((GlueBlock(9, 0), GlueBlock(0, 0)), m1.slots)
    rows = formula_terms(m1, m2, TH)
    by_y = {y: (raw, cut) for y, raw, cut in rows}
    raw, cut = by_y[Annulus(Glue(0))]
    assert raw == horo_distance(HoroPoint(0, 0), HoroPoint(9, 0)) == 6
    assert cut == 6
    # slot 0's blocks are equal, so its rows are not listed
    assert Slot(0) not in by_y
    assert by_y[Whole()] == (0, 0)
    total = sum(c for _, _, c in rows)
    assert total == formula_distance_T(m1, m2, TH)


def _block_pair(y):
    """The block pair a formula row reads, ("glue", j) or ("slot", i), or
    None for the whole surface."""
    if isinstance(y, Slot):
        return "slot", y.i
    if isinstance(y, Annulus):
        c = y.curve
        return ("glue", c.j) if isinstance(c, Glue) else ("slot", c.slot)
    return None


def _equal_pairs(m1, m2):
    """The block pairs of (m1, m2) that are equal, named as _block_pair names them."""
    equal = {("glue", j) for j, (g, h) in enumerate(zip(m1.glue, m2.glue)) if g == h}
    return equal | {("slot", i) for i, (s, t) in enumerate(zip(m1.slots, m2.slots)) if s == t}


def _all_refs(m1, m2):
    """Every subsurface that can carry a formula row, equal blocks or not."""
    refs = [Whole(), *(Slot(i) for i in range(m1.k))]
    return refs + [Annulus(c) for c in annular_candidates(m1, m2)]


def _generic_rows(m1, m2, th):
    """{subsurface: (raw value, contribution)} with every subsurface
    projected, over the whole surface and the block pairs that differ."""
    equal = _equal_pairs(m1, m2)
    rows = {}
    for y in _all_refs(m1, m2):
        if _block_pair(y) not in equal:
            d = proj_distance(y, m1, m2)
            rows[y] = (d, d if d > th.K else 0)
    return rows


def _terms(m1, m2, th):
    """formula_terms as {subsurface: (raw value, contribution)}, each
    subsurface listed once."""
    rows = formula_terms(m1, m2, th)
    out = {y: (d, c) for y, d, c in rows}
    assert len(out) == len(rows), rows
    return out


def test_formula_terms_on_block_sharing_pairs_match_the_generic_rows():
    # rotates of markings built from a small block pool, and pairs sharing a
    # random half of their blocks, so that equal block pairs occur
    rng = random.Random(606)
    equal_glue = equal_slot = 0
    for n in range(300):
        k = 2 + n % 5
        twist_max, level_max = rng.choice(((3, 1), (40, 3)))
        m1 = sample_marking(rng, k, twist_max, level_max)
        if n % 2 == 0:
            pool = sample_marking(rng, 2, twist_max, level_max)
            m1 = AugMarking(
                tuple(rng.choice(pool.glue) for _ in range(k)),
                tuple(rng.choice(pool.slots) for _ in range(k)),
            )
            m2 = act(rng.randint(1, k - 1), m1)
        else:
            other = sample_marking(rng, k, twist_max, level_max)
            m2 = AugMarking(
                tuple(rng.choice(pair) for pair in zip(m1.glue, other.glue)),
                tuple(rng.choice(pair) for pair in zip(m1.slots, other.slots)),
            )
        equal_glue += sum(a == b for a, b in zip(m1.glue, m2.glue))
        equal_slot += sum(a == b for a, b in zip(m1.slots, m2.slots))
        assert _terms(m1, m2, TH) == _generic_rows(m1, m2, TH)
    assert equal_glue > 0 and equal_slot > 0


def test_distance_sums_equal_the_sums_over_formula_terms():
    # the sums read the whole surface and the block pairs that differ, the
    # rows from every block pair; at K = 1 the whole surface's 2 counts, and
    # it is the one row on no block pair
    whole_counted = 0
    for m1, m2 in block_sharing_pairs(3404):
        for K in (1, 3, 4):
            th = Thresholds(K=K, K_hat=max(K, 4), R=10)
            rows = formula_terms(m1, m2, th)
            assert formula_distance_T(m1, m2, th) == sum(c for _, _, c in rows)
            assert formula_distance_WP(m1, m2, th) == sum(
                c for y, _, c in rows if not isinstance(y, Annulus)
            )
            off = [(y, c) for y, _, c in rows if _block_pair(y) is None]
            assert [y for y, _ in off] == [Whole()]
            whole_counted += off[0][1] > 0
    assert whole_counted > 0


def test_rows_over_equal_block_pairs_are_zero():
    # every subsurface over an equal block pair projects to 0, and
    # formula_terms lists none of them
    equal_glue = equal_slot = 0
    for m1, m2 in block_sharing_pairs(3406):
        equal = _equal_pairs(m1, m2)
        for y in _all_refs(m1, m2):
            if _block_pair(y) in equal:
                assert proj_distance(y, m1, m2) == 0, (y, m1, m2)
                equal_glue += _block_pair(y)[0] == "glue"
                equal_slot += _block_pair(y)[0] == "slot"
        for y, _, _ in formula_terms(m1, m2, Thresholds(K=1, K_hat=4, R=10)):
            assert _block_pair(y) not in equal, (y, m1, m2)
    assert equal_glue > 0 and equal_slot > 0


def test_formula_terms_list_both_orders_alike():
    # (m2, m1) lists the rows of (m1, m2), in the same order: each slot
    # pair's walk starts at its smaller base, whichever marking holds it
    rng = random.Random(3408)
    pairs = list(block_sharing_pairs(3407))
    pairs += [(sample_marking(rng, k, 40, 3), sample_marking(rng, k, 40, 3)) for k in (2, 3, 4) * 20]
    for m1, m2 in pairs:
        assert formula_terms(m2, m1, TH) == formula_terms(m1, m2, TH), (m1, m2)


def test_one_gluing_twist_at_k_256_reads_two_rows():
    # one gluing pair differs: 2 rows, of the 769 subsurfaces that can carry one
    m1 = flat_marking(256)
    m2 = AugMarking((GlueBlock(25, 0),) + m1.glue[1:], m1.slots)
    assert formula_terms(m1, m2, TH) == [(Whole(), 0, 0), (Annulus(Glue(0)), 8, 8)]
    assert len(_all_refs(m1, m2)) == 769


def _walk_test_block(rng: random.Random, base: Slope | None = None) -> SlotBlock:
    """A slot block with a Fibonacci base F_{+-5}..F_{+-59}, a base of
    height up to 10^6, or a small base; a twist up to 10^6; level 0..4."""
    if base is None:
        kind = rng.randrange(3)
        if kind == 0:
            base = fibonacci_slope(rng.choice((-1, 1)) * rng.randint(5, 59))
        elif kind == 1:
            base = Slope.of(rng.randint(-10**6, 10**6), rng.randint(1, 10**6))
        else:
            base = Slope.of(rng.randint(-5, 5), rng.randint(1, 5))
    n = rng.choice((rng.randint(-3, 3), rng.randint(-10**6, 10**6)))
    return SlotBlock(base, transversal_at(base, n), rng.randint(0, 4))


def _walk_cross_check(seed: int, pairs: int) -> tuple[int, int]:
    """(pairs whose formula rows differ from the generic rows, walk rows
    that rounded a tie and read complement).  Every other pair's second
    bases have the parity class of the first, so their intersection
    numbers are even, where ties happen."""
    rng = random.Random(seed)
    ties = []
    real = metrics.complement
    metrics.complement = lambda s: ties.append(s) or real(s)
    try:
        bad = 0
        for n in range(pairs):
            k = rng.randint(2, 3)
            first = [_walk_test_block(rng) for _ in range(k)]
            second = []
            for blk in first:
                base = None
                if n % 2:
                    a = blk.base
                    x, y = rng.randint(-9, 9), rng.randint(-9, 9)
                    if (a.p + 2 * x, a.q + 2 * y) != (0, 0):
                        base = Slope.of(a.p + 2 * x, a.q + 2 * y)
                second.append(_walk_test_block(rng, base))
            glue = [GlueBlock(rng.randint(-9, 9), rng.randint(0, 4)) for _ in range(2 * k)]
            m1 = AugMarking(tuple(glue[:k]), tuple(first))
            m2 = AugMarking(tuple(glue[k:]), tuple(second))
            bad += _terms(m1, m2, TH) != _generic_rows(m1, m2, TH)
    finally:
        metrics.complement = real
    return bad, len(ties)


def test_slot_pair_walk_matches_the_generic_rows():
    # the fan walk reads every region slope from a transversal it already
    # has and reads complement only where a relative twisting rounds a tie
    bad, ties = _walk_cross_check(31, 400)
    assert bad == 0
    assert ties >= 100


def test_slot_pair_walk_needs_its_tie_correction(monkeypatch):
    # negative control: rounded from the fan transversal alone, with no tie
    # reported, the rows differ from the generic rows
    def no_tie(aa, bb):
        return _nearest(aa, bb)[0], False

    monkeypatch.setattr(metrics, "_nearest", no_tie)
    bad, ties = _walk_cross_check(31, 400)
    assert ties == 0
    assert bad > 0


def test_the_formula_path_builds_no_horopoint(monkeypatch):
    # the annulus rows and proj_distance hand int pairs to the horoball
    # kernel; criterion 04's sampler pairs, the walk's deep blocks and a
    # 500-digit transversal twist
    built = []

    class Counted(HoroPoint):
        def __post_init__(self):
            built.append(self)
            super().__post_init__()

    monkeypatch.setattr(metrics, "HoroPoint", Counted)
    monkeypatch.setattr(projection, "HoroPoint", Counted)
    rng = random.Random(4001)
    pairs = []
    for _ in range(200):
        k = rng.randint(2, 4)
        pairs.append((sample_marking(rng, k), sample_marking(rng, k)))
    for _ in range(40):
        k = rng.randint(2, 3)
        glue = [GlueBlock(rng.randint(-9, 9), rng.randint(0, 4)) for _ in range(2 * k)]
        first = tuple(_walk_test_block(rng) for _ in range(k))
        second = tuple(_walk_test_block(rng) for _ in range(k))
        pairs.append((AugMarking(tuple(glue[:k]), first), AugMarking(tuple(glue[k:]), second)))
    flat = flat_marking(2)
    base = flat.slots[0].base
    deep = AugMarking(flat.glue, (SlotBlock(base, transversal_at(base, 10**499 + 7), 0), flat.slots[1]))
    pairs.append((flat, deep))
    annulus_rows = 0
    for m1, m2 in pairs:
        terms = formula_terms(m1, m2, TH)
        assert formula_distance_T(m1, m2, TH) == sum(c for _, _, c in terms)
        for y, d, _ in terms:
            if isinstance(y, Annulus):
                annulus_rows += 1
                assert proj_distance(y, m1, m2) == d
    assert built == []
    assert annulus_rows > 5_000
    assert dict((y, d) for y, d, _ in terms)[Annulus(InSlot(0, base))] > 2_000
    # the counter sees the HoroPoints that canonical_path still builds
    canonical_path(flat, AugMarking((GlueBlock(3, 0), flat.glue[1]), flat.slots))
    assert built


def test_formula_envelope_against_bfs():
    # smoke version of the quasi-isometry sweep: short random move chains
    rng = random.Random(19)
    for _ in range(12):
        a = random_marking(rng, 2, level_max=1)
        b = a
        for _ in range(rng.randint(1, 4)):
            b = rng.choice(elementary_moves(b))
        d = bfs_distance(a, b)
        assert d <= 4
        t = formula_distance_T(a, b, TH)
        assert t <= 4 * d + 12
        assert d <= 4 * t + 12


def _cf_slope(rng: random.Random) -> Slope:
    """The slope [a0; a1, ..., an] with n <= 12, |a0| <= 9 and 1 <= ai <= 9."""
    p, q = 1, 0
    for a in [rng.randint(1, 9) for _ in range(rng.randint(0, 12))] + [rng.randint(-9, 9)]:
        p, q = a * p + q, p
    return Slope.of(p, q)


def _far_block(rng: random.Random, base: Slope) -> SlotBlock:
    """A slot block on base with a twist up to 10^6 and a level up to 40."""
    twist = 10 ** rng.randint(0, 6)
    return SlotBlock(base, transversal_at(base, rng.randint(-twist, twist)), rng.randint(0, 40))


def _block_law_cases(seed: int, pairs: int):
    """(kind, b, rows) of seeded far pairs at k = 2 that differ in one
    block, a gluing block or a slot block: b is their move distance and
    rows their formula_terms rows but the whole surface's, the rows of that
    one block pair.  No window drops a far pair.  A slot pair's second base
    is its first, a Farey neighbour of it, or a base of its own."""
    rng = random.Random(seed)
    glue, slot = GlueBlock(0, 0), SlotBlock(Slope(0, 1), Slope(1, 0), 0)
    for n in range(pairs):
        if n % 2:
            twist = 10 ** rng.randint(0, 6)
            g = GlueBlock(rng.randint(-twist, twist), rng.randint(0, 40))
            h = GlueBlock(g.tau + rng.randint(-twist, twist), rng.randint(0, 40))
            m1, m2 = AugMarking((g, glue), (slot, slot)), AugMarking((h, glue), (slot, slot))
            kind = "glue"
        else:
            s = _far_block(rng, _cf_slope(rng))
            other = (s.base, s.trans, _cf_slope(rng))[n // 2 % 3]
            t = _far_block(rng, other)
            m1, m2 = AugMarking((glue, glue), (s, slot)), AugMarking((glue, glue), (t, slot))
            kind = "slot"
        rows = [r for r in formula_terms(m1, m2, TH) if not isinstance(r[0], Whole)]
        yield kind, bfs_distance(m1, m2), rows


def test_each_block_pair_obeys_the_per_block_law():
    # both metrics are sums over block pairs.  A gluing pair's move
    # distance b is its one row's raw value h, and its formula value f is
    # h cut at K.  A slot pair's f sums its Slot row and its annulus rows,
    # each cut at K, and f <= b <= 2f + 3
    seen = {"glue_cut": 0, "glue_far": 0, "slot_same_base": 0, "slot_far": 0, "slot_tight": 0}
    for kind, b, rows in _block_law_cases(3701, 2000):
        if kind == "glue":
            ((y, h, f),) = rows
            assert isinstance(y, Annulus) and b == h and f == (h if h > TH.K else 0), (b, rows)
            seen["glue_cut"] += 0 < h <= TH.K
            seen["glue_far"] += h > 20
            continue
        f = sum(c for _, _, c in rows)
        assert f <= b <= 2 * f + 3, (b, rows)
        seen["slot_same_base"] += not any(isinstance(y, Slot) and d for y, d, _ in rows)
        seen["slot_far"] += b > 40
        seen["slot_tight"] += b >= 2 * f
    assert min(seen.values()) >= 20, seen


def test_the_per_block_law_needs_the_annulus_rows():
    # negative control: a slot pair's f read from its Slot row alone
    # breaks b <= 2f + 3 on the same pairs
    broken = 0
    for kind, b, rows in _block_law_cases(3701, 2000):
        if kind == "slot":
            broken += b > 2 * sum(c for y, _, c in rows if isinstance(y, Slot)) + 3
    assert broken > 0


def test_rafi_equal_snapshots():
    s = Snapshot(
        (CurveSnap(Slope(1, 2), 0.3), CurveSnap(Slope(0, 1), 2.5)),
        (CurveSnap(None, 0.2), CurveSnap(None, 4.0)),
    )
    assert rafi_formula(s, s, TH) == 0.0


def test_rafi_one_sided_short_curve():
    # a curve of length e^-d short in one snapshot only contributes d
    d = 17.0
    s1 = Snapshot(
        (CurveSnap(Slope(0, 1), 0.0),),
        (CurveSnap(None, d),),
    )
    s2 = Snapshot(
        (CurveSnap(Slope(0, 1), 0.0),),
        (CurveSnap(None, 0.0),),
    )
    assert rafi_formula(s1, s2, TH) == pytest.approx(d)


def test_rafi_term_shapes():
    s1 = Snapshot((CurveSnap(Slope(0, 1), 0.0),), (CurveSnap(None, 0.0),))
    # short in both: horoball term, the level gap at twist 0
    s3 = Snapshot((CurveSnap(Slope(0, 1), 0.0),), (CurveSnap(None, 3.2),))
    s4 = Snapshot((CurveSnap(Slope(0, 1), 0.0),), (CurveSnap(None, 6.5),))
    want = horo_distance(HoroPoint(0, 3), HoroPoint(0, 6))
    assert want == 3
    assert rafi_formula(s3, s4, TH) == want
    # slot slope change enters through the Farey term
    s5 = Snapshot((CurveSnap(Slope(5, 2), 0.0),), (CurveSnap(None, 0.0),))
    far = farey_distance(Slope(0, 1), Slope(5, 2))
    assert far == 3
    assert rafi_formula(s1, s5, Thresholds(K=1, K_hat=1, R=1)) == pytest.approx(far)


def test_rafi_side_folds_the_pair_kernel_bit_for_bit():
    # rafi_side is the fold of rafi_pair over its pairs; against the one-loop
    # reference, by repr, so an int where a float was, or -0.0, shows
    rng = random.Random(3030)
    pool = [fibonacci_slope(n) for n in (-12, -3, -1, 0, 2, 9)] + [Slope(3, 7)]
    thresholds = [Thresholds(K=K, K_hat=K + 1) for K in (1, 3, 8)]

    def value() -> float:
        return rng.choice(
            (rng.uniform(-1.0, 1.0), 1.0, rng.uniform(1.0, 4.0), rng.uniform(20.0, 60.0))
        )

    seen = dict.fromkeys(
        ("at_cut", "none", "equal_both_short", "equal_one_short", "equal_none_short",
         "far"), 0
    )
    seen.update({f"K{th.K}": 0 for th in thresholds})
    for _ in range(2400):
        th = rng.choice(thresholds)
        slopes = [None] if rng.random() < 0.3 else rng.sample(pool, rng.randint(1, 3))
        pairs = []
        for _ in range(rng.randint(0, 5)):
            a, b = (CurveSnap(rng.choice(slopes), value()) for _ in range(2))
            pairs.append((a, b))
            shorts = (a.neg_log_ext > 1.0) + (b.neg_log_ext > 1.0)
            seen["at_cut"] += 1.0 in (a.neg_log_ext, b.neg_log_ext)
            seen["none"] += a.slope is None
            if a.slope == b.slope:
                seen[("equal_none_short", "equal_one_short", "equal_both_short")[shorts]] += 1
        got = rafi_side(pairs, th, farey_distance)
        assert repr(got) == repr(rafi_side_by_pairs(pairs, th, farey_distance)), (pairs, th)
        seen[f"K{th.K}"] += 1
        seen["far"] += got[0] > 0
    assert min(seen.values()) >= 100, seen


def test_rafi_rejects_snapshots_of_different_shapes():
    slot = CurveSnap(Slope(0, 1), 0.0)
    glue = CurveSnap(None, 0.0)
    s = Snapshot((slot, slot), (glue, glue))
    fewer_slots = Snapshot((slot,), (glue, glue))
    fewer_glue = Snapshot((slot, slot), (glue,))
    for a, b in ((s, fewer_slots), (fewer_slots, s), (s, fewer_glue), (fewer_glue, s)):
        with pytest.raises(ValueError, match="shapes differ"):
            rafi_formula(a, b, TH)


def test_large_links_empty_and_planted():
    m1 = flat_marking(2)
    assert large_links(m1, m1, 4) == []
    # one big twist: exactly that annulus
    m2 = AugMarking(
        m1.glue,
        (SlotBlock(Slope(0, 1), transversal_at(Slope(0, 1), 70), 0), m1.slots[1]),
    )
    links = large_links(m1, m2, 4)
    assert [l.subsurface for l in links] == [Annulus(InSlot(0, Slope(0, 1)))]
    assert links[0].value == horo_distance(HoroPoint(0, 0), HoroPoint(70, 0))


def test_large_links_and_orbit_diameter_agree_with_their_sources():
    # large links are the non-whole formula rows above the cut; the
    # certificate's diameter is the max over every pair of the orbit
    rng = random.Random(2024)
    for _ in range(40):
        k = rng.randint(2, 4)
        m1, m2 = sample_marking(rng, k), sample_marking(rng, k)
        rows = formula_terms(m1, m2, TH)
        for cut in range(1, 6):
            want = [
                LargeLink(y, d)
                for y, d, _ in rows
                if d > cut and not isinstance(y, Whole)
            ]
            assert large_links(m1, m2, cut) == want
        orbit = [act(r, m1) for r in range(k)]
        assert almost_fixed_certificate(m1, TH).diameter == max(
            formula_distance_T(x, y, TH) for x in orbit for y in orbit
        )


def test_large_links_planted_geodesic_pivots():
    # base walk 0/1 -> 40/1201 twists about 0/1 thirty times and about 1/30
    # forty times; both pivots appear, the slot itself stays small
    m1 = flat_marking(2)
    target = Slope(40, 1201)
    assert farey_distance(Slope(0, 1), target) == 2
    m2 = AugMarking(
        m1.glue,
        (SlotBlock(target, transversal_at(target, 0), 0), m1.slots[1]),
    )
    links = large_links(m1, m2, 4)
    got = {l.subsurface for l in links}
    assert Annulus(InSlot(0, Slope(0, 1))) in got
    assert Annulus(InSlot(0, Slope(1, 30))) in got
    for l in links:
        assert isinstance(l.subsurface, Annulus)


def symmetric_twisted(k: int, psi: int, level: int = 0) -> AugMarking:
    base = Slope(0, 1)
    blk = SlotBlock(base, transversal_at(base, psi), level)
    return AugMarking((GlueBlock(0, 0),) * k, (blk,) * k)


def test_group_symmetric_families_planted_orbit():
    k = 3
    target = symmetric_twisted(k, 0)
    mu = symmetric_twisted(k, 50)
    fams = group_symmetric_families(mu, target, formula_terms(mu, target, TH), TH)
    assert len(fams) == 1
    fam = fams[0]
    assert fam.core == InSlot(0, Slope(0, 1))
    assert len(fam.values) == k
    assert max(fam.values) - min(fam.values) == 0


def test_group_symmetric_families_tolerates_honest_slack():
    # per-slot twists 50, 52, 49: orbit diameter small, values comparable
    base = Slope(0, 1)
    blocks = tuple(
        SlotBlock(base, transversal_at(base, p), 0) for p in (50, 52, 49)
    )
    mu = AugMarking((GlueBlock(0, 0),) * 3, blocks)
    target = symmetric_twisted(3, 0)
    fams = group_symmetric_families(mu, target, formula_terms(mu, target, TH), TH)
    assert len(fams) == 1 and len(fams[0].values) == 3


def test_group_symmetric_families_rejects_asymmetric_link():
    # twist planted in one slot only: the orbit collapses elsewhere
    base = Slope(0, 1)
    blocks = (
        SlotBlock(base, transversal_at(base, 400), 0),
        SlotBlock(base, transversal_at(base, 0), 0),
        SlotBlock(base, transversal_at(base, 0), 0),
    )
    mu = AugMarking((GlueBlock(0, 0),) * 3, blocks)
    target = symmetric_twisted(3, 0)
    assert large_links(mu, target, TH.K_hat)
    with pytest.raises(SymmetryViolationError):
        group_symmetric_families(mu, target, formula_terms(mu, target, TH), TH)


def test_group_symmetric_families_rejects_oversized_slot_link():
    # slot 0 sits 31 Farey steps from 0/1, past 2 * R + 2 = 22
    # (fibonacci_slope(40), 21 steps away, would not trip the check)
    target = flat_marking(2)
    base = fibonacci_slope(60)
    slot = SlotBlock(base, transversal_at(base, 0), 0)
    mu = AugMarking(target.glue, (slot, target.slots[1]))
    assert farey_distance(base, Slope(0, 1)) == 31
    with pytest.raises(SymmetryViolationError, match="slot link Slot"):
        group_symmetric_families(mu, target, formula_terms(mu, target, TH), TH)


def test_group_symmetric_families_time_order():
    # two pivot families in one slot: order matches the geodesic
    target_slope = Slope(40, 1201)
    blk = SlotBlock(target_slope, transversal_at(target_slope, 0), 0)
    mu = AugMarking((GlueBlock(0, 0),) * 2, (blk,) * 2)
    tgt = flat_marking(2)
    fams = group_symmetric_families(mu, tgt, formula_terms(mu, tgt, TH), TH)
    slopes = [f.core.slope for f in fams]
    assert slopes == [Slope(0, 1), Slope(1, 30)]
    assert [f.time_index for f in fams] == [0, 1]


def test_canonical_path_trivial_cases():
    m = flat_marking(2)
    assert canonical_path(m, m) == [m]
    up = AugMarking((GlueBlock(0, 3), GlueBlock(0, 0)), m.slots)
    path = canonical_path(m, up)
    assert len(path) == 4
    assert all(b.glue[0].tau == 0 for b in path)


def test_canonical_path_is_elementary_and_reaches_target():
    rng = random.Random(23)
    for _ in range(15):
        k = rng.randint(2, 3)
        m1, m2 = random_marking(rng, k, 1), random_marking(rng, k, 1)
        path = canonical_path(m1, m2)
        assert path[0] == m1 and path[-1] == m2
        for a, b in zip(path, path[1:]):
            assert is_elementary_move(a, b), (a, b)


def test_canonical_path_handles_big_twists():
    m1 = flat_marking(2)
    m2 = symmetric_twisted(2, 10**6)
    path = canonical_path(m1, m2)
    assert path[-1] == m2
    # log-scale excursion, not a million unit twists
    assert len(path) < 100
    for a, b in zip(path, path[1:]):
        assert is_elementary_move(a, b)


def test_active_segment_cases():
    m1 = flat_marking(2)
    m2 = AugMarking(
        m1.glue,
        (SlotBlock(Slope(5, 2), transversal_at(Slope(5, 2), 0), 0), m1.slots[1]),
    )
    path = canonical_path(m1, m2)
    # structural subsurfaces are active everywhere
    assert active_segment(path, Annulus(Glue(0))) == (0, len(path) - 1)
    assert active_segment(path, Slot(0)) == (0, len(path) - 1)
    # a slope never used as a base is never active
    assert active_segment(path, Annulus(InSlot(0, Slope(7, 3)))) is None
    # geodesic vertices get one contiguous window each, in order
    segs = []
    for v in (Slope(0, 1), Slope(5, 2)):
        seg = active_segment(path, Annulus(InSlot(0, v)))
        assert seg is not None
        segs.append(seg)
    assert segs[0][1] < segs[1][0]  # disjoint and ordered


def test_active_segment_ties_go_to_the_earliest_run():
    # a run closes either at a marking off the base or at the path's end;
    # of two equally long runs the earlier wins, a strictly longer later one wins
    off = flat_marking(2)
    s = Slope(5, 2)
    on = AugMarking(off.glue, (SlotBlock(s, transversal_at(s, 0), 0), off.slots[1]))
    for pattern, want in (
        ("11011", (0, 1)),
        ("1010", (0, 0)),
        ("01011", (3, 4)),
        ("011010", (1, 2)),
        ("0110111", (4, 6)),
        ("000", None),
    ):
        path = [on if bit == "1" else off for bit in pattern]
        assert active_segment(path, Annulus(InSlot(0, s))) == want, pattern


def test_active_segment_pre_window_projection_small():
    # before a pivot's window opens, no twisting about it has happened
    m1 = flat_marking(2)
    target_slope = Slope(40, 1201)
    m2 = AugMarking(
        m1.glue,
        (SlotBlock(target_slope, transversal_at(target_slope, 0), 0), m1.slots[1]),
    )
    path = canonical_path(m1, m2)
    from coarse_teich.projection import proj_distance

    for s in (Slope(1, 30), target_slope):
        seg = active_segment(path, Annulus(InSlot(0, s)))
        assert seg is not None
        lo, _hi = seg
        if lo > 0:
            d_pre = proj_distance(Annulus(InSlot(0, s)), path[0], path[lo - 1])
            assert d_pre <= 6
