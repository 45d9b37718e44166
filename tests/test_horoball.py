"""Combinatorial horoball distances against the BFS oracle in tests/oracles."""

import decimal
import math
import random

import pytest

from coarse_teich.horoball import (
    HoroPoint,
    _apex_scan,
    compare_to_horodisk,
    horo_distance,
    horo_normal_path,
    width,
)
from tests.oracles import apex_scan_every_level, horo_distance_bfs, horo_distances_from


def test_width_values():
    assert [width(m) for m in range(7)] == [1, 2, 7, 20, 54, 148, 403]


def test_width_is_exact_floor_of_exp():
    # 100 digits cover e^60 (27 integer digits) with room to spare
    ctx = decimal.Context(prec=100)
    for level in range(61):
        exp = decimal.Decimal(level).exp(ctx)
        assert width(level) == int(exp.to_integral_value(decimal.ROUND_FLOOR)), level


def test_width_past_the_int_string_digit_limit():
    # e^10000 has 4,343 decimal digits, past Python 3.11's default limit
    # on int <-> str conversion
    assert width(10_000).bit_length() == math.floor(10_000 / math.log(2)) + 1


def test_deep_apex_scan_needs_no_width():
    # at levels >= gap.bit_length() one horizontal step covers the gap
    for gap, lo, hi in ((1, 1, 1), (5, 3, 7), (10**6, 20, 25), (10**30, 10**6, 10**6 + 4)):
        assert horo_distance(HoroPoint(0, lo), HoroPoint(gap, hi)) == hi - lo + 1
        assert horo_distance(HoroPoint(gap, hi), HoroPoint(0, lo)) == hi - lo + 1


def _scan(u: HoroPoint, v: HoroPoint) -> tuple[int, int]:
    return _apex_scan(abs(u.x - v.x), u.level, v.level)


def test_int_kernel_is_horo_distance_and_the_scan_over_every_level():
    # the kernel on (gap, level1, level2) against horo_distance on points
    # either side and at either sign, and against the reference scan: on a
    # box, then past level 500, where a 40-digit bracket of e^L can stand
    # in for width(L)
    cases = [(gap, m1, m2) for gap in range(60) for m1 in range(7) for m2 in range(7)]
    rng = random.Random(26)
    for level in (501, 502, 640):
        w = width(level)
        for gap in (w - 1, w, w + 1, 2 * w + 1, rng.randint(w // 3, 30 * w)):
            cases.append((gap, level - 2, rng.randint(0, level - 2)))
    for gap, m1, m2 in cases:
        got = _apex_scan(gap, m1, m2)
        for x in (-7, 0, 11):
            u = HoroPoint(x, m1)
            for v in (HoroPoint(x + gap, m2), HoroPoint(x - gap, m2)):
                assert got[0] == horo_distance(u, v) == horo_distance(v, u), (gap, m1, m2)
                assert got == apex_scan_every_level(u, v), (gap, m1, m2)


def test_apex_scan_matches_the_scan_over_every_level():
    # distance and apex, ties included, on gaps at every bit length up to 17
    # and far past it, at levels below and above ln(gap)
    rng = random.Random(17)
    gaps = [1, 2, 7, 10**6] + [2**b + e for b in range(1, 18) for e in (-1, 0, 1)]
    for _ in range(3000):
        u = HoroPoint(rng.randint(-50, 50), rng.randint(0, 12))
        gap = rng.choice(gaps + [rng.randint(1, 10 ** rng.randint(1, 200))])
        v = HoroPoint(u.x + rng.choice((-1, 1)) * gap, rng.randint(0, 12))
        if rng.random() < 0.2:
            # near the best apex, so the scan starts at lo
            lvl = max(0, int(math.log(gap)) + rng.randint(-3, 3))
            u, v = HoroPoint(u.x, lvl), HoroPoint(v.x, rng.randint(0, lvl))
        assert _scan(u, v) == apex_scan_every_level(u, v), (u, v)
        assert _scan(v, u) == apex_scan_every_level(v, u), (u, v)
    # past level 500 a 40-digit bracket of e^L stands in for width(L) where
    # its ends agree on ceil(gap / width) and width >= gap; at n * width(L)
    # and one either side, where those turn over, they cannot, and width is
    # read.  Endpoints sit just below L, so the reference scans a few levels
    for level in (40, 499, 500, 501, 502, 700):
        w = width(level)
        edges = [n * w + e for n in (1, 2, 3, 6, 7, 20) for e in (-1, 0, 1)]
        for gap in edges + [rng.randint(w // 3, 30 * w) for _ in range(30)]:
            u = HoroPoint(0, level - rng.randint(2, 4))
            v = HoroPoint(gap, rng.randint(0, u.level))
            assert _scan(u, v) == apex_scan_every_level(u, v), (level, gap)


def test_huge_twist_gap_computes_few_widths(monkeypatch):
    # cold: each width computed afresh and counted; the scan starts within
    # a few levels of ln(gap), and a 40-digit bracket of e^L settles each
    # of those levels, so a 1000- or 4000-digit gap computes no width
    calls = []

    def counted(level):
        calls.append(level)
        return width.__wrapped__(level)

    monkeypatch.setattr("coarse_teich.horoball.width", counted)
    # e^2302 is about 0.56 * 10^1000: up 2302, two steps across, down 2302;
    # apex 2301 takes 5 steps across and apex 2303 one.  e^9209 is about
    # 0.26 * 10^4000 and e^9210 about 0.71 * 10^4000: four steps across at
    # apex 9209 tie two at 9210, and the lower apex wins
    for gap, want in ((10**1000, (2 * 2302 + 2, 2302)), (10**4000, (2 * 9209 + 4, 9209))):
        assert _apex_scan(gap, 0, 0) == want
    assert calls == []


def test_deep_brackets_are_cached(monkeypatch):
    # the scan past level 500 reads 40-digit brackets of e^L; a cold run
    # computes them, and a warm repeat of the same distance computes none
    import coarse_teich.horoball as horoball

    u, v = HoroPoint(0, 0), HoroPoint(3**1000, 1)
    original, calls = horoball._exp_bracket, []

    def counted(level, prec):
        calls.append(level)
        return original(level, prec)

    monkeypatch.setattr(horoball, "_exp_bracket", counted)
    horoball._short_bracket.cache_clear()
    want = horo_distance(u, v)
    cold = len(calls)
    assert cold > 0
    assert horo_distance(u, v) == want
    assert len(calls) == cold


def test_horo_distance_example():
    # apex level 2: up 2, across ceil(10/7) = 2, down 2
    assert horo_distance(HoroPoint(0, 0), HoroPoint(10, 0)) == 6


def test_horo_distance_basics():
    assert horo_distance(HoroPoint(3, 2), HoroPoint(3, 2)) == 0
    assert horo_distance(HoroPoint(0, 0), HoroPoint(0, 5)) == 5
    assert horo_distance(HoroPoint(0, 3), HoroPoint(1, 3)) == 1
    assert horo_distance(HoroPoint(0, 0), HoroPoint(1, 0)) == 1
    # on one vertical the distance is the level gap
    for x in (-7, 0, 3, 10**6):
        for l1 in range(81):
            for l2 in range(81):
                assert horo_distance(HoroPoint(x, l1), HoroPoint(x, l2)) == abs(l1 - l2)
    # symmetry
    rng = random.Random(3)
    for _ in range(200):
        u = HoroPoint(rng.randint(-40, 40), rng.randint(0, 5))
        v = HoroPoint(rng.randint(-40, 40), rng.randint(0, 5))
        assert horo_distance(u, v) == horo_distance(v, u)


def test_horo_distance_matches_bfs():
    rng = random.Random(5)
    for _ in range(60):
        u = HoroPoint(rng.randint(-25, 25), rng.randint(0, 4))
        v = HoroPoint(rng.randint(-25, 25), rng.randint(0, 4))
        assert horo_distance(u, v) == horo_distance_bfs(u, v)


def test_horo_distance_triangle_inequality():
    rng = random.Random(7)
    for _ in range(300):
        pts = [
            HoroPoint(rng.randint(-60, 60), rng.randint(0, 6)) for _ in range(3)
        ]
        a, b, c = pts
        assert horo_distance(a, b) <= horo_distance(a, c) + horo_distance(c, b)


def test_horo_distance_log_growth():
    # level-0 pairs grow like 2 ln(gap) within +-6 once gap >= 3
    for gap in [3, 10, 100, 1000, 10**6, 10**9]:
        d = horo_distance(HoroPoint(0, 0), HoroPoint(gap, 0))
        assert 2 * math.log(gap) - 6 <= d <= 2 * math.log(gap) + 6, (gap, d)


def test_horo_normal_path_is_geodesic():
    rng = random.Random(11)
    for _ in range(150):
        u = HoroPoint(rng.randint(-200, 200), rng.randint(0, 6))
        v = HoroPoint(rng.randint(-200, 200), rng.randint(0, 6))
        path = horo_normal_path(u, v)
        assert path[0] == u and path[-1] == v
        assert len(path) - 1 == horo_distance(u, v)
        for a, b in zip(path, path[1:]):
            if a.level == b.level:
                assert 0 < abs(a.x - b.x) <= width(a.level)
            else:
                assert a.x == b.x and abs(a.level - b.level) == 1


def test_single_source_oracle_consistency():
    src = HoroPoint(0, 0)
    table = horo_distances_from(src, -30, 30, 8)
    for v, d in table.items():
        if abs(v.x) <= 20 and v.level <= 3:
            assert d == horo_distance(src, v), v


def test_negative_level_rejected():
    with pytest.raises(ValueError):
        HoroPoint(0, -1)


def test_compare_to_horodisk_small_grid():
    report = compare_to_horodisk(40, 5)
    assert report.max_mult <= 4.0
    assert report.max_add <= 8.0
    assert report.pairs > 0
