"""Exact curve combinatorics on a once-punctured torus slot.

Simple closed curves are primitive integer slopes p/q.  The curve graph is
the Farey graph: vertices are slopes, edges join slopes with geometric
intersection number one.  The hyperbolic geodesic between two slopes crosses
the fans of a continued fraction, and two states per fan make the Farey
distance exact.  The distance reads only the continued-fraction
coefficients, one Euclid step each; a geodesic walks the fans and their
convergents.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "Slope",
    "TwistWord",
    "UndefinedProjectionError",
    "intersection",
    "det",
    "twist",
    "relative_twisting",
    "farey_distance",
    "farey_geodesic",
    "pivot_region",
    "complement",
    "twist_coordinate",
    "transversal_at",
]


class UndefinedProjectionError(ValueError):
    """An annular quantity was requested for a curve disjoint from the data."""


@dataclass(frozen=True, order=True)
class Slope:
    """A primitive slope p/q in canonical form: q > 0, or (p, q) = (1, 0)."""

    p: int
    q: int

    def __post_init__(self) -> None:
        if math.gcd(self.p, self.q) != 1:
            raise ValueError(f"slope {self.p}/{self.q} is not primitive")
        if self.q < 0 or (self.q == 0 and self.p != 1):
            raise ValueError(f"slope {self.p}/{self.q} is not canonical")

    @staticmethod
    def of(p: int, q: int) -> "Slope":
        """Build a slope from any nonzero integer vector, reducing and canonicalizing."""
        g = math.gcd(p, q)
        if g == 0:
            raise ValueError("the zero vector is not a slope")
        p, q = p // g, q // g
        if q < 0 or (q == 0 and p < 0):
            p, q = -p, -q
        return Slope(p, q)

    @staticmethod
    def parse(text: str) -> "Slope":
        try:
            ptxt, qtxt = text.strip().split("/")
            return Slope.of(int(ptxt), int(qtxt))
        except (ValueError, AttributeError) as exc:
            raise ValueError(f"cannot parse slope {text!r}") from exc

    def __str__(self) -> str:
        return f"{self.p}/{self.q}"


@dataclass(frozen=True)
class TwistWord:
    """A power of the Dehn twist about a slope."""

    curve: Slope
    exponent: int


def det(a: Slope, b: Slope) -> int:
    """Algebraic intersection a.p*b.q - a.q*b.p of the underlying vectors."""
    return a.p * b.q - a.q * b.p


def intersection(a: Slope, b: Slope) -> int:
    """Geometric intersection number of two slopes."""
    return abs(det(a, b))


def twist(word: TwistWord, target: Slope) -> Slope:
    """Apply a Dehn twist power to a slope: v + n*det(c, v)*c."""
    c, n = word.curve, word.exponent
    d = det(c, target)
    return Slope.of(target.p + n * d * c.p, target.q + n * d * c.q)


def relative_twisting(core: Slope, a: Slope, b: Slope) -> int:
    """The twist power about ``core`` aligning ``a`` with ``b`` as far as possible.

    Returns the n minimizing intersection(twist(core^n, a), b).  Exact: the
    intersection is |det(a,b) + n*det(core,a)*det(core,b)|, linear in n.
    The two nearest integers to the real minimizer are the only candidates;
    a tie between them breaks toward smaller |n|.
    """
    da, db = det(core, a), det(core, b)
    if da == 0 or db == 0:
        raise UndefinedProjectionError(
            f"relative twisting about {core} undefined for disjoint curve"
        )
    return _nearest(det(a, b), da * db)[0]


def _nearest(aa: int, bb: int) -> tuple[int, bool]:
    """The n minimizing |aa + n*bb|, bb != 0, and whether two n tie; a tie
    breaks toward smaller |n|."""
    if bb < 0:
        aa, bb = -aa, -bb
    # -aa/bb = n + r/bb: the minimum of |aa + n*bb| is r at n, bb - r at n + 1
    n, r = divmod(-aa, bb)
    if 2 * r > bb or (2 * r == bb and n < 0):
        n += 1
    return n, 2 * r == bb


# ---------------------------------------------------------------------------
# Exact distance: one walk over the continued-fraction fans.
#
# Normalize the first slope to 1/0 by an integer unimodular map.  The
# convergents c_{-1} = 1/0, c_0, ..., c_n = u/v of the continued fraction
# split the hyperbolic geodesic from 1/0 to u/v into fans: fan k has pivot
# c_k and rims c_{k-1} + j*c_k, j = 0..m, from c_{k-1} to c_{k+1}.  Every
# edge-path from 1/0 to u/v visits an endpoint of each fan-boundary edge
# (c_k, c_{k+1}), in order, so two states per boundary are exact: the cost
# (and a geodesic) to reach c_k and to reach c_{k+1}.  Crossing fan k, the
# pivot c_k is a neighbour of c_{k-1}; c_{k+1} is a neighbour of both
# c_{k-1} and c_k when m == 1, and otherwise is reached through the pivot,
# since the rims between c_{k-1} and c_{k+1} are m >= 2 steps apart.
#
# The two costs depend on the coefficients m alone, never on the convergents,
# so farey_distance runs the recurrence inside Euclid's algorithm on u/v and
# builds no vertex; farey_geodesic walks the fans with their convergents.
# ---------------------------------------------------------------------------


def _egcd(p: int, q: int) -> tuple[int, int]:
    """(x, y) with x*p + y*q == 1 for a canonical slope p/q.

    Any solution serves.  Another, (x + t*q, y - t*p), shears the frame of
    _normalized by (u, v) -> (u - t*v, v), which fixes 1/0, every det and
    every continued-fraction coefficient after the first: all that
    farey_distance, _region, _walk, marking._slot_distance and
    metrics._frame_point read.  _denormalized undoes it, and complement
    renormalizes over the coset (-y, x) + j*(p, q).
    """
    if q == 0:
        return p, 0
    x = pow(p, -1, q) if q > 1 else 0
    return x, (1 - x * p) // q


def _fans(u: int, v: int):
    """The fans crossed from (1, 0) to (u, v), v >= 1, in order, as
    (c_{k-1}, c_k, m, c_{k+1}) with m the continued-fraction coefficient,
    read one Euclid step at a time."""
    prev, cur = (1, 0), (u // v, 1)
    u, v = v, u % v
    while v:
        m, r = divmod(u, v)
        nxt = (prev[0] + m * cur[0], prev[1] + m * cur[1])
        yield prev, cur, m, nxt
        prev, cur = cur, nxt
        u, v = v, r


def _walk(u: int, v: int) -> tuple[int, tuple[tuple[int, int], ...]]:
    """Distance and geodesic from (1, 0) to (u, v), v >= 2.

    Ties go through the earlier convergent.  Each state's path is a chain
    (last vertex, chain of the rest), so a fan extends a path in O(1) and
    the geodesic is unrolled once at the end.
    """
    a, pa = 0, ((1, 0), None)  # at c_{k-1}
    b, pb = 1, ((u // v, 1), pa)  # at c_k
    for _, pivot, m, nxt in _fans(u, v):
        at_pivot = (a + 1, (pivot, pa)) if a + 1 <= b else (b, pb)
        if m == 1:
            at_next = (a + 1, (nxt, pa)) if a <= b else (b + 1, (nxt, pb))
        else:
            at_next = (at_pivot[0] + 1, (nxt, at_pivot[1]))
        (a, pa), (b, pb) = at_pivot, at_next
    path = []
    while pb is not None:
        vertex, pb = pb
        path.append(vertex)
    path.reverse()
    return b, tuple(path)


def _normalized(a: Slope, b: Slope) -> tuple[tuple[int, int, int, int], int, int]:
    """A unimodular map sending a to (1, 0), and the image (u, v) of b, v >= 0.

    The map is the rows (x, y), (-a.q, a.p) with x*a.p + y*a.q == 1.
    """
    x, y = _egcd(a.p, a.q)
    u = x * b.p + y * b.q
    v = a.p * b.q - a.q * b.p
    if v < 0:
        u, v = -u, -v
    return (x, y, -a.q, a.p), u, v


def _framed(rows: tuple[int, int, int, int], s: Slope) -> tuple[int, int]:
    """The image of s under the unimodular map ``rows``."""
    r0, r1, r2, r3 = rows
    return r0 * s.p + r1 * s.q, r2 * s.p + r3 * s.q


def _denormalized(rows: tuple[int, int, int, int], vec: tuple[int, int]) -> tuple[int, int]:
    """The canonical (p, q) of the slope whose image under the unimodular
    map ``rows`` is ±vec, vec primitive."""
    r0, r1, r2, r3 = rows
    x, y = vec
    return _canon_vec((r3 * x - r1 * y, -r2 * x + r0 * y))


def farey_distance(a: Slope, b: Slope) -> int:
    """Exact graph distance between two slopes in the Farey graph."""
    if a == b:
        return 0
    if intersection(a, b) == 1:
        return 1
    if b < a:
        a, b = b, a
    _, u, v = _normalized(a, b)
    # _walk's costs at c_{k-1} and c_k, from c_{-1} = 1/0 and c_0; each
    # Euclid step past the integer part yields the next fan's coefficient m.
    # The pivot costs min(at_prev + 1, at_cur) and c_{k+1} one more, except
    # that both cost at_prev + 1 when m == 1 and c_{k-1} is the cheaper end.
    at_prev, at_cur = 0, 1
    u, v = v, u % v
    while v:
        m, r = divmod(u, v)
        if at_prev < at_cur:
            at_prev += 1
            at_cur = at_prev if m == 1 else at_prev + 1
        else:
            at_prev, at_cur = at_cur, at_cur + 1
        u, v = v, r
    return at_cur


def farey_geodesic(a: Slope, b: Slope) -> list[Slope]:
    """One geodesic from a to b, deterministic, consecutive intersections one."""
    if a == b:
        return [a]
    if intersection(a, b) == 1:
        return [a, b]
    flipped = b < a
    if flipped:
        a, b = b, a
    rows, u, v = _normalized(a, b)
    out = [Slope(*_denormalized(rows, vec)) for vec in _walk(u, v)[1]]
    if flipped:
        out.reverse()
    return out


def pivot_region(a: Slope, b: Slope) -> list[Slope]:
    """Slopes that can carry large relative twisting between a and b.

    The continued-fraction convergents and the rims of each fan, only the two
    nearest each boundary in fans of more than five, mapped back to the
    original coordinates, endpoints included.  Deterministic and symmetric
    in (a, b).

    Only annular_candidates calls it, and no runtime code calls either: the
    formula walks _region in the normalized frame.  It stays as the tests'
    list of the region, and because the layer tracer of perfbench/tracer.py
    times it by name.
    """
    if b < a:
        a, b = b, a
    if a == b:
        return [a]
    rows, u, v = _normalized(a, b)
    return sorted(Slope(*_denormalized(rows, vec)) for vec, _ in _region(u, v))


def _region(u: int, v: int):
    """The slopes of pivot_region(1/0, u/v), v >= 1, as vectors, each once
    and with a transversal: 1/0, then per fan its counted rims and its
    pivot, then u/v.  A rim's transversal is the pivot, a pivot's the
    convergent before it; 1/0 takes c_0 and u/v the convergent before it."""
    yield (1, 0), (u // v, 1)
    before = (1, 0)
    for prev, pivot, m, _ in _fans(u, v):
        js = range(1, m) if m <= 5 else (1, 2, m - 2, m - 1)
        for j in js:
            yield (prev[0] + j * pivot[0], prev[1] + j * pivot[1]), pivot
        yield pivot, prev
        before = pivot
    yield (u, v), before


# ---------------------------------------------------------------------------
# Twist coordinates of transversals.
# ---------------------------------------------------------------------------


def complement(a: Slope) -> Slope:
    """Canonical dual slope, intersection(a, complement(a)) == 1.

    The solution w of det(a, w) == 1 of minimal Euclidean norm (ties, which
    only 1/1 and -1/1 have, toward the lexicographically smaller w), then
    canonicalized.  Fixed once and for all per slope, so annular twist
    coordinates are deterministic.
    """
    x, y = _egcd(a.p, a.q)
    # det(a, (u, v)) = a.p*v - a.q*u == 1 at (u, v) = (-y, x)
    u, v = -y, x
    norm2 = a.p * a.p + a.q * a.q
    # with -(u, v).a == j*norm2 + r, |(u, v) + j*a|^2 grows by norm2 - 2r
    # from j to j + 1; at a tie (u, v) + (j + 1)*a is the smaller iff a.p < 0
    j, r = divmod(-(u * a.p + v * a.q), norm2)
    if 2 * r > norm2 or (2 * r == norm2 and a.p < 0):
        j += 1
    best = (u + j * a.p, v + j * a.q)
    if a.p * best[1] - a.q * best[0] != 1:
        raise AssertionError(f"complement {best} of {a} is not dual to it")
    return Slope(*_canon_vec(best))


def _canon_vec(w: tuple[int, int]) -> tuple[int, int]:
    p, q = w
    if q < 0 or (q == 0 and p < 0):
        p, q = -p, -q
    return p, q


def twist_coordinate(base: Slope, trans: Slope) -> int:
    """Index n with trans == transversal_at(base, n), exact.

    Defined for intersection(base, trans) == 1; every Farey neighbor of a
    slope lies in a single twist orbit of its canonical complement, and the
    orientation is normalized so twist(base^j, .) adds j to the coordinate.
    """
    return _twist_coordinate(base, complement(base), trans)


def _twist_coordinate(base: Slope, t0: Slope, trans: Slope) -> int:
    """twist_coordinate(base, trans), given t0 == complement(base)."""
    if intersection(base, trans) != 1:
        raise UndefinedProjectionError(
            f"{trans} is not a transversal of {base}"
        )
    # trans == ±(t0 + n*det(base, t0)*base); det(t0, .) reads n off, the
    # other two factors fix the signs
    return -det(base, trans) * det(base, t0) * det(t0, trans)


def transversal_at(base: Slope, n: int) -> Slope:
    """The transversal of ``base`` with twist coordinate n."""
    t0 = complement(base)
    m = n * det(base, t0)
    return Slope.of(t0.p + m * base.p, t0.q + m * base.q)
