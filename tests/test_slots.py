"""Slot geometry: slopes, twists, and exact Farey distances.

The brute-force oracle is tests.oracles.farey_distance_bfs on a
denominator-bounded subgraph; the walk over the continued-fraction fans
must match it exactly on ranges where the box comfortably contains the
pivot region.
"""

import math
import random

import pytest

from tests.oracles import farey_distance_bfs, slopes_in_box
from coarse_teich.slots import (
    Slope,
    TwistWord,
    UndefinedProjectionError,
    complement,
    det,
    farey_distance,
    farey_geodesic,
    intersection,
    pivot_region,
    relative_twisting,
    transversal_at,
    twist,
    twist_coordinate,
)


def test_slope_canonical_form():
    assert Slope.of(2, -4) == Slope(-1, 2)
    assert Slope.of(-3, 0) == Slope(1, 0)
    assert str(Slope.of(10, 4)) == "5/2"
    assert Slope.parse("-7/3") == Slope(-7, 3)
    with pytest.raises(ValueError):
        Slope(2, 4)
    with pytest.raises(ValueError):
        Slope(1, -2)
    with pytest.raises(ValueError):
        Slope.of(0, 0)


def test_intersection_examples():
    # [5/2, 3/1] -> 1: |5*1 - 2*3|
    assert intersection(Slope(5, 2), Slope(3, 1)) == 1
    assert intersection(Slope(1, 0), Slope(0, 1)) == 1
    assert intersection(Slope(1, 0), Slope(1, 0)) == 0
    # symmetry and unimodular invariance on a sample
    rng = random.Random(7)
    slopes = slopes_in_box(8)
    for _ in range(300):
        a, b = rng.choice(slopes), rng.choice(slopes)
        assert intersection(a, b) == intersection(b, a)
        assert (intersection(a, b) == 0) == (a == b)


def test_twist_examples():
    # T_{1/0}^1 (0/1) = 1/1
    assert twist(TwistWord(Slope(1, 0), 1), Slope(0, 1)) == Slope(1, 1)
    # frozen from iterating the n=1 move three times: 1/0 -> -1/1 -> -1/2 -> -1/3
    w1 = TwistWord(Slope(0, 1), 1)
    cur = Slope(1, 0)
    seen = []
    for _ in range(3):
        cur = twist(w1, cur)
        seen.append(cur)
    assert seen == [Slope(-1, 1), Slope(-1, 2), Slope(-1, 3)]
    assert twist(TwistWord(Slope(0, 1), 3), Slope(1, 0)) == Slope(-1, 3)


def test_twist_properties():
    rng = random.Random(11)
    slopes = slopes_in_box(6)
    for _ in range(400):
        c, a, b = (rng.choice(slopes) for _ in range(3))
        n = rng.randint(-5, 5)
        w = TwistWord(c, n)
        # fixes the core
        assert twist(w, c) == c
        # preserves intersection numbers
        assert intersection(twist(w, a), twist(w, b)) == intersection(a, b)
        # inverse exponent undoes
        assert twist(TwistWord(c, -n), twist(w, a)) == a


def _big_slope(rng: random.Random, mag: int) -> Slope:
    return Slope.of(rng.randint(-mag, mag), rng.randint(1, mag))


def test_relative_twisting_example_and_bruteforce():
    assert relative_twisting(Slope(1, 0), Slope(0, 1), Slope(1, 1)) == 1
    rng = random.Random(13)
    slopes = slopes_in_box(7)
    cases = [tuple(rng.choice(slopes) for _ in range(3)) for _ in range(500)]
    # magnitudes 10^12..10^20; every other case plants a tie: with a any
    # transversal of core and b = alpha*core + 2*t0, alpha odd, the real
    # minimizer is a half-integer
    big = random.Random(14)
    for i in range(300):
        mag = 10 ** big.randint(12, 20)
        core, a, b = (_big_slope(big, mag) for _ in range(3))
        if i % 2:
            t0 = complement(core)
            a = transversal_at(core, big.randint(-mag, mag))
            alpha = 2 * big.randint(-mag, mag) + 1
            b = Slope.of(alpha * core.p + 2 * t0.p, alpha * core.q + 2 * t0.q)
        cases.append((core, a, b))
    checked = tied = 0
    for core, a, b in cases:
        if intersection(core, a) == 0 or intersection(core, b) == 0:
            with pytest.raises(UndefinedProjectionError):
                relative_twisting(core, a, b)
            continue
        n = relative_twisting(core, a, b)
        vals = {
            m: intersection(twist(TwistWord(core, m), a), b)
            for m in range(n - 25, n + 26)
        }
        best = min(vals.values())
        assert vals[n] == best
        # tie-break: smallest |m|, then smallest m, among the window
        ties = [m for m, v in vals.items() if v == best]
        assert min(ties, key=lambda m: (abs(m), m)) == n
        checked += 1
        tied += len(ties) == 2
    assert checked > 600
    assert tied >= 150


def test_relative_twisting_shift_property():
    rng = random.Random(17)
    slopes = slopes_in_box(6)
    for _ in range(300):
        core, a, b = (rng.choice(slopes) for _ in range(3))
        if intersection(core, a) == 0 or intersection(core, b) == 0:
            continue
        n = rng.randint(-50, 50)
        base = relative_twisting(core, a, b)
        shifted = relative_twisting(core, twist(TwistWord(core, n), a), b)
        assert abs(shifted - (base - n)) <= 2


def test_farey_distance_frozen_values():
    # frozen via the BFS oracle (bound 40)
    assert farey_distance(Slope(0, 1), Slope(5, 2)) == 3
    assert farey_distance_bfs(Slope(0, 1), Slope(5, 2), 40) == 3
    assert farey_distance(Slope(0, 1), Slope(1, 0)) == 1
    assert farey_distance(Slope(0, 1), Slope(0, 1)) == 0
    # integers are all at distance <= 2 through 1/0
    assert farey_distance(Slope(0, 1), Slope(9, 1)) == 2
    # a deeper continued fraction: 2/5 = [0;2,2]
    assert farey_distance(Slope(1, 0), Slope(2, 5)) == 3


def test_farey_distance_matches_bfs_oracle():
    slopes = [s for s in slopes_in_box(6)]
    rng = random.Random(19)
    pairs = [(rng.choice(slopes), rng.choice(slopes)) for _ in range(250)]
    # add adversarial integer-fan pairs
    pairs += [(Slope(0, 1), Slope(n, 1)) for n in range(-6, 7) if n]
    for a, b in pairs:
        exact = farey_distance(a, b)
        oracle = farey_distance_bfs(a, b, 48)
        assert exact == oracle, (str(a), str(b), exact, oracle)


def test_farey_distance_metric_properties():
    rng = random.Random(23)
    slopes = slopes_in_box(10)
    for _ in range(200):
        a, b, c = (rng.choice(slopes) for _ in range(3))
        dab = farey_distance(a, b)
        assert dab == farey_distance(b, a)
        assert (dab == 0) == (a == b)
        assert dab <= farey_distance(a, c) + farey_distance(c, b)


def test_farey_distance_twist_invariance():
    rng = random.Random(29)
    slopes = slopes_in_box(6)
    for _ in range(150):
        a, b, c = (rng.choice(slopes) for _ in range(3))
        n = rng.randint(-4, 4)
        w = TwistWord(c, n)
        assert farey_distance(twist(w, a), twist(w, b)) == farey_distance(a, b)


def test_farey_distance_large_coefficients():
    # fans with huge coefficients exercise the compression path
    assert farey_distance(Slope(0, 1), Slope(10**6, 1)) == 2
    assert farey_distance(Slope(1, 0), Slope(1, 10**6)) == 2
    big = twist(TwistWord(Slope(1, 0), 10**6), Slope(1, 2))
    assert big == Slope(2000001, 2)
    # witness path 1/2 ~ 0/1 ~ 1/0 ~ 1000000/1 ~ big gives <= 4; no common
    # neighbor exists (2a - b = +-1 and |2a - 2000001b| = 1 has no integer
    # solution), and the skip-one-vertex equation fails likewise, so d = 4.
    chain = [Slope(1, 2), Slope(0, 1), Slope(1, 0), Slope(10**6, 1), big]
    assert all(intersection(u, v) == 1 for u, v in zip(chain, chain[1:]))
    assert farey_distance(Slope(1, 2), big) == 4
    assert farey_distance(Slope(0, 1), big) <= 4


def test_farey_geodesic_witness():
    rng = random.Random(31)
    slopes = slopes_in_box(8)
    pairs = [(rng.choice(slopes), rng.choice(slopes)) for _ in range(200)]
    pairs.append((Slope(0, 1), Slope(5, 2)))
    pairs.append((Slope(0, 1), Slope(10**6, 1)))
    for a, b in pairs:
        path = farey_geodesic(a, b)
        assert path[0] == a and path[-1] == b
        assert len(path) == farey_distance(a, b) + 1
        for u, v in zip(path, path[1:]):
            assert intersection(u, v) == 1
        # deterministic
        assert path == farey_geodesic(a, b)


def test_farey_geodesic_frozen_paths():
    # each pair has more than one geodesic; the frozen one pins the tie rule
    # (ties go through the earlier convergent), the other is a second
    # geodesic of the same length
    cases = [
        ("0/1", "5/2", "0/1 1/0 2/1 5/2", "0/1 1/1 2/1 5/2"),
        ("1/0", "2/5", "1/0 0/1 1/2 2/5", "1/0 1/1 1/2 2/5"),
        ("1/0", "55/34", "1/0 2/1 5/3 13/8 21/13 55/34", "1/0 1/1 3/2 8/5 21/13 55/34"),
        # 3/5 = [0; 1, 1, 2]: the second fan has coefficient one and is
        # entered at equal cost from both ends of its boundary edge
        ("1/0", "3/5", "1/0 1/1 1/2 3/5", "1/0 0/1 1/2 3/5"),
    ]
    for a, b, frozen, other in cases:
        a, b = Slope.parse(a), Slope.parse(b)
        frozen = [Slope.parse(s) for s in frozen.split()]
        other = [Slope.parse(s) for s in other.split()]
        assert farey_geodesic(a, b) == frozen
        assert farey_geodesic(b, a) == frozen[::-1]
        assert other != frozen and len(other) == len(frozen)
        assert (other[0], other[-1]) == (a, b)
        assert all(intersection(u, v) == 1 for u, v in zip(other, other[1:]))


def test_pivot_region_contains_geodesic_and_is_symmetric():
    rng = random.Random(37)
    slopes = slopes_in_box(8)
    for _ in range(120):
        a, b = rng.choice(slopes), rng.choice(slopes)
        region = set(pivot_region(a, b))
        assert pivot_region(a, b) == pivot_region(b, a)
        assert a in region and b in region
        assert set(farey_geodesic(a, b)) <= region


def test_complement_and_twist_coordinate():
    assert complement(Slope(1, 0)) == Slope(0, 1)
    assert complement(Slope(0, 1)) == Slope(1, 0)
    rng = random.Random(41)
    slopes = slopes_in_box(9)
    for a in slopes:
        t0 = complement(a)
        assert intersection(a, t0) == 1
        assert twist_coordinate(a, t0) == 0
    for _ in range(300):
        a = rng.choice(slopes)
        n = rng.randint(-30, 30)
        t = transversal_at(a, n)
        assert intersection(a, t) == 1
        assert twist_coordinate(a, t) == n
        # twisting shifts the coordinate by exactly the exponent
        j = rng.randint(-5, 5)
        assert twist_coordinate(a, twist(TwistWord(a, j), t)) == n + j
        # the coordinate agrees with relative twisting against the reference
        assert relative_twisting(a, complement(a), t) == n


def test_twist_coordinate_inverts_transversal_at_on_large_inputs():
    rng = random.Random(47)
    for _ in range(2000):
        a = Slope(1, 0) if rng.random() < 0.05 else _big_slope(rng, 10 ** rng.randint(0, 6))
        n = rng.randint(-(10 ** rng.randint(0, 18)), 10 ** rng.randint(0, 18))
        t = transversal_at(a, n)
        assert intersection(a, t) == 1
        assert twist_coordinate(a, t) == n


def test_complement_is_the_minimum_norm_dual():
    # brute force over a box that holds every minimum-norm dual vector
    ties = 0
    for a in slopes_in_box(12):
        duals = sorted(
            (u * u + v * v, (u, v))
            for u in range(-20, 21)
            for v in range(-20, 21)
            if a.p * v - a.q * u == 1
        )
        assert complement(a) == Slope.of(*duals[0][1])
        ties += duals[0][0] == duals[1][0]
    assert ties >= 1
    # large slopes: the norm is convex along w + j*a, so a window decides
    rng = random.Random(43)
    for _ in range(300):
        a = _big_slope(rng, 10 ** rng.randint(12, 20))
        c = complement(a)
        assert intersection(a, c) == 1
        w = (c.p, c.q) if det(a, c) == 1 else (-c.p, -c.q)
        window = [(w[0] + j * a.p, w[1] + j * a.q) for j in range(-3, 4)]
        assert min(window, key=lambda x: (x[0] * x[0] + x[1] * x[1], x)) == w


def test_twist_coordinate_rejects_non_transversal():
    with pytest.raises(UndefinedProjectionError):
        twist_coordinate(Slope(1, 0), Slope(1, 2))


def test_det_sign_convention():
    # det(c, v) drives the twist formula; spot check both signs
    assert det(Slope(1, 0), Slope(0, 1)) == 1
    assert det(Slope(0, 1), Slope(1, 0)) == -1
