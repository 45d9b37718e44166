import heapq
import itertools
import math
import random

import pytest

from coarse_teich.calibration import sample_marking
from coarse_teich.horoball import width
from coarse_teich.marking import (
    AugMarking,
    Glue,
    GlueBlock,
    InSlot,
    SlotBlock,
    SurfaceMismatchError,
    _slot_distance,
    act,
    act_curve,
    bfs_distance,
    elementary_moves,
    move_count,
    nth_move,
)
from coarse_teich.horoball import HoroPoint, horo_distance
from coarse_teich.projection import annulus_point
from coarse_teich.slots import (
    Slope,
    TwistWord,
    farey_distance,
    intersection,
    pivot_region,
    transversal_at,
    twist,
    twist_coordinate,
)
from tests.oracles import (
    _bfs_neighbors,
    _slot_neighbors,
    fibonacci_slope,
    is_elementary_move,
    listed_moves,
    slopes_in_box,
    slot_distance_bfs,
    slot_distance_pivot_dijkstra,
)


def flat_marking(k: int) -> AugMarking:
    return AugMarking(
        tuple(GlueBlock(0, 0) for _ in range(k)),
        tuple(SlotBlock(Slope(0, 1), Slope(1, 0), 0) for _ in range(k)),
    )


def random_marking(rng: random.Random, k: int, level_max: int = 1) -> AugMarking:
    glue = tuple(
        GlueBlock(rng.randint(-3, 3), rng.randint(0, level_max)) for _ in range(k)
    )
    slots = []
    for _ in range(k):
        while True:
            p, q = rng.randint(-3, 3), rng.randint(-3, 3)
            if (p, q) != (0, 0):
                break
        base = Slope.of(p, q)
        trans = transversal_at(base, rng.randint(-2, 2))
        assert intersection(base, trans) == 1
        slots.append(SlotBlock(base, trans, rng.randint(0, level_max)))
    return AugMarking(glue, tuple(slots))


def test_validation():
    with pytest.raises(ValueError):
        AugMarking((GlueBlock(0, 0),), (SlotBlock(Slope(0, 1), Slope(1, 0), 0),))
    with pytest.raises(ValueError):
        GlueBlock(0, -1)
    with pytest.raises(ValueError):
        SlotBlock(Slope(1, 2), Slope(1, 0), 1)  # |det| = 2
    with pytest.raises(ValueError):
        SlotBlock(Slope(0, 1), Slope(0, 1), 0)  # disjoint


def test_slot_block_accepts_unit_intersection():
    SlotBlock(Slope(0, 1), Slope(1, 0), 3)
    SlotBlock(Slope(2, 3), Slope(1, 1), 0)


def test_json_roundtrip():
    rng = random.Random(7)
    for _ in range(25):
        m = random_marking(rng, rng.randint(2, 4))
        again = AugMarking.from_json(m.to_json())
        assert again == m
    # schema shape stays put
    obj = flat_marking(2).to_json()
    assert obj == {
        "glue": [{"tau": 0, "D": 0}, {"tau": 0, "D": 0}],
        "slots": [
            {"base": "0/1", "trans": "1/0", "D": 0},
            {"base": "0/1", "trans": "1/0", "D": 0},
        ],
    }


def test_act_is_cyclic_action():
    rng = random.Random(3)
    for _ in range(20):
        k = rng.randint(2, 5)
        m = random_marking(rng, k)
        assert act(0, m) == m
        assert act(k, m) == m
        r, s = rng.randint(-7, 7), rng.randint(-7, 7)
        assert act(r, act(s, m)) == act(r + s, m)
        # block i lands at index i + r
        r %= k
        assert act(r, m).slots[r] == m.slots[0]
        assert act(r, m).glue[r] == m.glue[0]


def test_act_curve_matches_block_action():
    k = 4
    assert act_curve(3, Glue(2), k) == Glue(1)
    assert act_curve(1, InSlot(3, Slope(1, 2)), k) == InSlot(0, Slope(1, 2))


def test_flat_marking_moves():
    # at all-zero levels each slot offers a flip, each curve unit twists,
    # and each level can rise
    k = 3
    m = flat_marking(k)
    nbs = elementary_moves(m)
    flips = [n for n in nbs if any(s.base == Slope(1, 0) for s in n.slots)]
    assert len(flips) == k
    assert len(nbs) == k * (2 + 1) + k * (1 + 2 + 1)
    assert len(set(nbs)) == len(nbs)


def test_twist_reach_widens_with_level():
    # a single twist move about a level-2 curve may take any exponent
    # 1..width(2) = 7, so a twist gap of 5 closes in one move
    base = AugMarking(
        (GlueBlock(0, 2), GlueBlock(0, 0)),
        (SlotBlock(Slope(0, 1), Slope(1, 0), 0),) * 2,
    )
    target = AugMarking(
        (GlueBlock(5, 2), GlueBlock(0, 0)),
        (SlotBlock(Slope(0, 1), Slope(1, 0), 0),) * 2,
    )
    assert is_elementary_move(base, target)
    assert bfs_distance(base, target) == 1
    far = AugMarking(
        (GlueBlock(8, 2), GlueBlock(0, 0)),
        (SlotBlock(Slope(0, 1), Slope(1, 0), 0),) * 2,
    )
    assert not is_elementary_move(base, far)
    assert bfs_distance(base, far) == 2
    assert width(2) == 7


def test_slot_twist_move_matches_twist_map():
    m = AugMarking(
        (GlueBlock(0, 0),) * 2,
        (SlotBlock(Slope(1, 2), Slope(0, 1), 1), SlotBlock(Slope(0, 1), Slope(1, 0), 0)),
    )
    nbs = elementary_moves(m)
    for n in (-2, -1, 1, 2):
        want = twist(TwistWord(Slope(1, 2), n), Slope(0, 1))
        hit = [
            x
            for x in nbs
            if x.slots[0].trans == want and x.slots[0].base == Slope(1, 2) and x.slots[0].D == 1
        ]
        assert len(hit) == 1, f"missing twist exponent {n}"


def test_flip_requires_zero_level():
    m = AugMarking(
        (GlueBlock(0, 0),) * 2,
        (SlotBlock(Slope(0, 1), Slope(1, 0), 1), SlotBlock(Slope(0, 1), Slope(1, 0), 0)),
    )
    nbs = elementary_moves(m)
    assert not any(x.slots[0].base == Slope(1, 0) for x in nbs)
    assert any(x.slots[1].base == Slope(1, 0) for x in nbs)


def test_move_relation_is_symmetric():
    rng = random.Random(23)
    for _ in range(40):
        m = random_marking(rng, 2, level_max=1)
        for n in elementary_moves(m):
            assert is_elementary_move(n, m), (m, n)


def test_bfs_distance_basics():
    m = flat_marking(2)
    assert bfs_distance(m, m) == 0
    with pytest.raises(SurfaceMismatchError):
        bfs_distance(m, flat_marking(3))


def test_bfs_distance_symmetry_and_action_invariance():
    rng = random.Random(41)
    for _ in range(15):
        k = rng.randint(2, 3)
        a = random_marking(rng, k, level_max=1)
        b = a
        for _ in range(rng.randint(1, 3)):
            b = rng.choice(elementary_moves(b))
        d = bfs_distance(a, b)
        assert d <= 3
        assert bfs_distance(b, a) == d
        r = rng.randint(0, k - 1)
        assert bfs_distance(act(r, a), act(r, b)) == d


def test_bfs_distance_raises_the_level_to_twist():
    a = flat_marking(2)
    b = AugMarking(
        (GlueBlock(12, 0), GlueBlock(0, 0)),
        (SlotBlock(Slope(0, 1), Slope(1, 0), 0),) * 2,
    )
    # twelve unit twists direct, but raising the level first is shorter:
    # up 2 (reach 7), two twists, down 2 is 6 moves; up 1 (reach 2) is
    # 1 + 6 + 1 = 8; the apex scan of the glue horoball gives the same 6
    assert bfs_distance(a, b) == 6


def test_bfs_distance_deep_slot_levels():
    # a flip needs level 0 at both ends, so near the deep point only the
    # base's horoball counts, in closed form, and no width(15) twists are
    # listed
    base, trans = Slope(0, 1), transversal_at(Slope(0, 1), 3)
    flat = flat_marking(2)

    def at(b, t, d):
        return AugMarking(flat.glue, (SlotBlock(b, t, d), flat.slots[1]))

    deep = at(base, trans, 15)
    assert bfs_distance(deep, at(base, trans, 16)) == 1
    assert bfs_distance(deep, at(base, transversal_at(base, 3 + width(15)), 15)) == 1
    assert bfs_distance(deep, at(base, transversal_at(base, 3 + width(15) + 1), 15)) == 2
    # a different base is a flip away: 15 levels down, then the flip
    assert bfs_distance(deep, at(trans, base, 0)) == 16


def test_bfs_distance_found_pair_at_levels_4_and_5():
    # down 4, flip, up 5: the flip lands on the transversal's own point
    base, trans = Slope(0, 1), transversal_at(Slope(0, 1), 3)
    s, t = SlotBlock(base, trans, 4), SlotBlock(trans, base, 5)
    assert _slot_distance(s, t) == 10
    flat = flat_marking(2)
    a = AugMarking(flat.glue, (s, flat.slots[1]))
    b = AugMarking(flat.glue, (t, flat.slots[1]))
    assert bfs_distance(a, b) == 10


def _random_slot_block(rng: random.Random, slopes, twist_max: int, level_max: int) -> SlotBlock:
    base = rng.choice(slopes)
    return SlotBlock(
        base, transversal_at(base, rng.randint(-twist_max, twist_max)), rng.randint(0, level_max)
    )


def test_slot_distance_matches_slot_graph_bfs_within_cap():
    # random pairs, and pairs a short walk of raw slot-graph moves apart,
    # so that most of the second half lies inside the BFS cap
    rng = random.Random(7001)
    slopes = slopes_in_box(4)
    within = flipped = 0
    for n in range(500):
        s = _random_slot_block(rng, slopes, 4, 2)
        if n % 2:
            key = (s.base, twist_coordinate(s.base, s.trans), s.D)
            for _ in range(rng.randint(1, 8)):
                key = rng.choice([nb for nb in _slot_neighbors(key) if nb[2] <= 2])
            t = SlotBlock(key[0], transversal_at(key[0], key[1]), key[2])
        else:
            t = _random_slot_block(rng, slopes, 4, 2)
        want = slot_distance_bfs(s, t, 9)
        got = _slot_distance(s, t)
        if want is None:
            assert got > 9, (s, t, got)
        else:
            assert got == want, (s, t, got, want)
            within += 1
            flipped += s.base != t.base
    assert within >= 200 and flipped >= 100, (within, flipped)


def _box_slot_distance(s: SlotBlock, t: SlotBlock, bound: int, legs: dict) -> int:
    """Dijkstra over every slope in the box, on the points of each horoball
    H_g that face a Farey neighbour h (node (g, h)): flips (g, h) -> (h, g)
    cost 1, legs (g, h) -> (g, h') cost their horoball distance."""
    goal = HoroPoint(twist_coordinate(t.base, t.trans), t.D)
    order = itertools.count()  # tie-break, so the heap never compares nodes
    heap = []

    def push(d, node):
        heapq.heappush(heap, (d, next(order), node))

    start = HoroPoint(twist_coordinate(s.base, s.trans), s.D)
    for h in _bfs_neighbors(s.base, bound):
        push(horo_distance(start, HoroPoint(twist_coordinate(s.base, h), 0)), (s.base, h))
    done = set()
    while heap:
        d, _, node = heapq.heappop(heap)
        if node is None:
            return d
        if node in done:
            continue
        done.add(node)
        g, h = node
        here = HoroPoint(twist_coordinate(g, h), 0)
        if g == t.base:
            push(d + horo_distance(here, goal), None)
        push(d + 1, (h, g))
        if g not in legs:
            legs[g] = [(h2, twist_coordinate(g, h2)) for h2 in _bfs_neighbors(g, bound)]
        for h2, x in legs[g]:
            if h2 != h:
                push(d + horo_distance(here, HoroPoint(x, 0)), (g, h2))
    raise AssertionError("goal unreachable in the box")


def test_slot_distance_pivot_region_matches_box_dijkstra():
    # far pairs, whose pivot regions lie inside box 12; a walk restricted to
    # the box can only be longer than the true distance, so equality shows
    # that leaving out the slopes outside the pivot region loses nothing
    rng = random.Random(7002)
    slopes = slopes_in_box(7)
    legs: dict = {}
    checked = 0
    longest = 0
    while checked < 80:
        s = _random_slot_block(rng, slopes, 30, 3)
        t = _random_slot_block(rng, slopes, 30, 3)
        region = pivot_region(s.base, t.base)
        if farey_distance(s.base, t.base) < 2 or not all(
            abs(g.p) <= 12 and g.q <= 12 for g in region
        ):
            continue
        got = _slot_distance(s, t)
        assert got == _box_slot_distance(s, t, 12, legs), (s, t)
        checked += 1
        longest = max(longest, got)
    assert longest > 12


def _in_box(g: Slope, bound: int) -> bool:
    return abs(g.p) <= bound and g.q <= bound


def test_slot_distance_matches_box_dijkstra_with_far_side_transversals():
    # both transversals and the pivot region inside box 16: the box holds
    # the slopes around each transversal, on the far side of the base from
    # the other block, so a path that leaves a base towards its own
    # transversal is in the search; the fan walk never looks there
    rng = random.Random(7005)
    slopes = slopes_in_box(4)
    legs: dict = {}
    checked = 0
    while checked < 200:
        s = _random_slot_block(rng, slopes, 5, 3)
        t = _random_slot_block(rng, slopes, 5, 3)
        if s.base == t.base or not all(
            _in_box(g, 12) for g in (s.trans, t.trans, *pivot_region(s.base, t.base))
        ):
            continue
        assert _slot_distance(s, t) == _box_slot_distance(s, t, 16, legs), (s, t)
        checked += 1


def _deep_slope(rng: random.Random, kind: int) -> Slope:
    """A Fibonacci slope F_n/F_(n+1) with 30 <= |n| <= 59, a slope of height
    up to 10^6, or a small slope."""
    if kind == 0:
        return fibonacci_slope(rng.choice((1, -1)) * rng.randint(30, 59))
    big = 10 ** rng.randint(1, 6) if kind == 1 else 6
    while True:
        p, q = rng.randint(-big, big), rng.randint(1, big)
        if math.gcd(p, q) == 1:
            return Slope(p, q)


def test_slot_distance_matches_the_pivot_region_dijkstra_on_deep_pairs():
    # long continued fractions, twists and levels far past any BFS cap:
    # the fan walk against the pivot-region search it replaced, on pairs of
    # two kinds of slope each, on a shared base and on Farey neighbours
    rng = random.Random(7006)
    deep = 0
    for n in range(300):
        kinds = (n % 3, n // 3 % 3)
        blocks = []
        for kind in kinds:
            base = _deep_slope(rng, kind)
            twist_max = 10 ** rng.randint(0, 6)
            trans = transversal_at(base, rng.randint(-twist_max, twist_max))
            blocks.append(SlotBlock(base, trans, rng.randint(0, 6)))
        s, t = blocks
        if n % 10 == 0:
            # a shared base
            t = SlotBlock(s.base, transversal_at(s.base, n), t.D)
        elif n % 10 == 1:
            # Farey neighbours, half of them s flipped
            t = SlotBlock(s.trans, s.base if n % 20 == 1 else transversal_at(s.trans, n), t.D)
        got = _slot_distance(s, t)
        assert got == slot_distance_pivot_dijkstra(s, t), (s, t)
        assert got == _slot_distance(t, s)
        deep += farey_distance(s.base, t.base) >= 15
    assert deep >= 60, deep


def test_slot_distance_is_a_metric():
    rng = random.Random(7003)
    slopes = slopes_in_box(5)
    for _ in range(300):
        s, t, u = (_random_slot_block(rng, slopes, 10, 3) for _ in range(3))
        dst = _slot_distance(s, t)
        assert dst == _slot_distance(t, s)
        assert (dst == 0) == (s == t)
        assert _slot_distance(s, u) <= dst + _slot_distance(t, u)


def test_bfs_distance_is_the_block_sum_on_random_pairs():
    # the block sum, for the pair and for a rotate of it
    rng = random.Random(7004)
    for _ in range(150):
        k = rng.randint(2, 4)
        a = sample_marking(rng, k, twist_max=6, level_max=2)
        b = sample_marking(rng, k, twist_max=6, level_max=2)
        total = sum(
            horo_distance(HoroPoint(g.tau, g.D), HoroPoint(h.tau, h.D))
            for g, h in zip(a.glue, b.glue)
        ) + sum(_slot_distance(s, t) for s, t in zip(a.slots, b.slots))
        r = rng.randrange(1, k)
        assert bfs_distance(a, b) == total
        assert bfs_distance(act(r, a), act(r, b)) == total


def whole_graph_distance(a: AugMarking, b: AugMarking, cap: int):
    """Reference move distance: plain BFS over whole markings from both ends.

    Balls of radius ceil(cap/2) around a and floor(cap/2) around b meet on
    every path of length <= cap, so the best meeting is exact up to cap.
    """
    balls = []
    for m, radius in ((a, (cap + 1) // 2), (b, cap // 2)):
        dist = {m: 0}
        front = [m]
        for d in range(1, radius + 1):
            nxt = []
            for x in front:
                for n in elementary_moves(x):
                    if n not in dist:
                        dist[n] = d
                        nxt.append(n)
            front = nxt
        balls.append(dist)
    da, db = balls
    return min((da[x] + db[x] for x in da.keys() & db.keys()), default=None)


def test_product_distance_matches_whole_graph_bfs():
    rng = random.Random(3031)
    past_cap = flipped = 0
    for _ in range(40):
        a = sample_marking(rng, rng.randint(2, 3), level_max=1)
        b = a
        for _ in range(rng.randint(1, 5)):
            b = rng.choice(elementary_moves(b))
        want = whole_graph_distance(a, b, cap=3)
        d = bfs_distance(a, b)
        assert (d == want) if want is not None else (d > 3), (a, b)
        past_cap += want is None
        flipped += any(s.base != t.base for s, t in zip(a.slots, b.slots))
    # the sample reaches past the cap and crosses flip edges
    assert past_cap and flipped


def wide_marking(rng: random.Random, k: int) -> AugMarking:
    """Twists up to 10^6 and levels 0..4: flips at level 0, wide twists from 2."""
    big = 10 ** rng.randint(0, 6)
    glue = tuple(GlueBlock(rng.randint(-big, big), rng.randint(0, 4)) for _ in range(k))
    slots = []
    for _ in range(k):
        base = Slope.of(rng.randint(-20, 20), rng.randint(1, 20))
        trans = transversal_at(base, rng.randint(-big, big))
        slots.append(SlotBlock(base, trans, rng.randint(0, 4)))
    return AugMarking(glue, tuple(slots))


def test_nth_move_draws_what_the_listed_moves_draw():
    # the sampler's rng.choice(range(move_count)) makes the same draw, and
    # leaves the same generator state, as rng.choice over every neighbour
    rng = random.Random(61)
    levels = set()
    for case in range(240):
        m = wide_marking(rng, 2 + case % 7)
        listed = listed_moves(m)
        if case % 8 == 0:
            assert elementary_moves(m) == listed
        assert move_count(m) == len(listed)
        levels.update(b.D for b in m.glue + m.slots)
        whole, indexed = random.Random(case), random.Random(case)
        for _ in range(5):
            assert whole.choice(listed) == nth_move(m, indexed.choice(range(move_count(m))))
        assert whole.getstate() == indexed.getstate()
    assert levels == {0, 1, 2, 3, 4}


def test_nth_move_rejects_out_of_range_index():
    m = wide_marking(random.Random(5), 3)
    n = move_count(m)
    assert nth_move(m, n - 1) == listed_moves(m)[-1]
    for i in (-1, n, n + 7):
        with pytest.raises(IndexError):
            nth_move(m, i)


def test_is_elementary_move_rejects_non_moves():
    base, trans = Slope(1, 2), transversal_at(Slope(1, 2), 1)
    rest = SlotBlock(Slope(0, 1), Slope(1, 0), 0)
    for level in (0, 1, 2):
        a = AugMarking(
            (GlueBlock(3, level), GlueBlock(0, 0)), (SlotBlock(base, trans, level), rest)
        )
        far = width(level) + 1
        non_moves = [
            # a twist one past the reach, about a gluing curve and in a slot
            AugMarking((GlueBlock(3 + far, level), a.glue[1]), a.slots),
            AugMarking(a.glue, (SlotBlock(base, transversal_at(base, 1 - far), level), rest)),
            # a level step of 2
            AugMarking((GlueBlock(3, level + 2), a.glue[1]), a.slots),
            # two changed blocks, each a move on its own
            AugMarking((GlueBlock(4, level), GlueBlock(1, 0)), a.slots),
        ]
        if level:
            # a flip away from level 0
            non_moves.append(AugMarking(a.glue, (SlotBlock(trans, base, level), rest)))
        nbs = elementary_moves(a)
        for b in non_moves:
            assert b not in nbs
            assert not is_elementary_move(a, b), b
        assert all(is_elementary_move(a, n) for n in nbs)
        assert not is_elementary_move(a, flat_marking(3))


def test_length_of_and_base_curves():
    m = AugMarking(
        (GlueBlock(2, 3), GlueBlock(0, 1)),
        (SlotBlock(Slope(1, 2), Slope(0, 1), 2), SlotBlock(Slope(0, 1), Slope(1, 0), 0)),
    )
    # a curve's length level is the level of its annulus point
    assert annulus_point(Glue(0), m).level == 3
    assert annulus_point(Glue(1), m).level == 1
    assert annulus_point(InSlot(0, Slope(1, 2)), m).level == 2
    assert annulus_point(InSlot(0, Slope(5, 7)), m).level == 0
    refs = m.base_curves()
    assert refs[:2] == [Glue(0), Glue(1)]
    assert InSlot(0, Slope(1, 2)) in refs and InSlot(1, Slope(0, 1)) in refs

