"""Exact curve combinatorics on a once-punctured torus slot.

Simple closed curves are primitive integer slopes p/q.  The curve graph is
the Farey graph: vertices are slopes, edges join slopes with geometric
intersection number one.  Distances and geodesics are computed exactly by
a dynamic program over the fan ladder of triangles that the hyperbolic
geodesic between two slopes crosses; long fans are compressed, so the cost
is linear in the number of continued-fraction coefficients.
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
    "farey_distance_bfs",
    "complement",
    "twist_coordinate",
    "transversal_at",
    "slopes_in_box",
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
    Ties break toward smaller |n|, then toward smaller n.
    """
    da, db = det(core, a), det(core, b)
    if da == 0 or db == 0:
        raise UndefinedProjectionError(
            f"relative twisting about {core} undefined for disjoint curve"
        )
    aa, bb = det(a, b), da * db
    # minimize |aa + n*bb| over integers n
    n0 = -(aa // bb)  # between the two candidates
    best = None
    for n in (n0 - 1, n0, n0 + 1):
        val = abs(aa + n * bb)
        key = (val, abs(n), n)
        if best is None or key < best:
            best = key
    return best[2]


# ---------------------------------------------------------------------------
# Exact distance: fan-ladder dynamic program.
#
# Normalize the first slope to 1/0 by an integer unimodular map.  The
# hyperbolic geodesic from 1/0 to u/v crosses a chain of ideal triangles of
# the Farey tessellation, organized into fans around the continued-fraction
# convergents.  Every edge-path between the endpoints must visit an endpoint
# of each crossed edge, in order; conversely consecutive crossed edges share
# a triangle.  A DP over the crossed edges therefore computes the exact
# graph distance.  Within a fan, two rim vertices i and j satisfy
# |det| = |i - j| and are joined through the pivot at cost 2, so fans longer
# than five are compressed to their two boundary rims on each side.
# ---------------------------------------------------------------------------

_INF_VEC = (1, 0)


def _egcd(p: int, q: int) -> tuple[int, int]:
    """Coefficients (x, y) with x*p + y*q == gcd(p, q) == 1."""
    old_r, r = p, q
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r != 0:
        k = old_r // r
        old_r, r = r, old_r - k * r
        old_x, x = x, old_x - k * x
        old_y, y = y, old_y - k * y
    if old_r < 0:
        old_x, old_y = -old_x, -old_y
    return old_x, old_y


def _continued_fraction(u: int, v: int) -> list[int]:
    """Floor continued fraction of u/v, v >= 1; last coefficient >= 2 if len > 1."""
    coeffs = []
    while v != 0:
        k = u // v
        coeffs.append(k)
        u, v = v, u - k * v
    return coeffs


def _ladder_edges(u: int, v: int):
    """Ordered crossed edges of the tessellation from (1,0) to (u,v), v >= 2.

    Yields (A, B, fan_pivot) with A, B integer vectors; within long fans only
    the near-boundary rim edges are produced (the omitted middle rims are
    dominated: any geodesic either rides the pivot or stays within two rims
    of a fan boundary).
    """
    coeffs = _continued_fraction(u, v)
    n = len(coeffs) - 1  # fans are indexed 0..n-1
    prev = _INF_VEC  # c_{k-1}
    cur = (coeffs[0], 1)  # c_k
    for k in range(n):
        m = coeffs[k + 1]
        pivot = cur
        base = prev

        def rim(j, base=base, pivot=pivot):
            return (base[0] + j * pivot[0], base[1] + j * pivot[1])

        if m <= 5:
            js = range(1, m)
        else:
            js = (1, 2, m - 2, m - 1)
        for j in js:
            yield pivot, rim(j), pivot
        nxt = rim(m)  # c_{k+1}
        if k < n - 1:
            yield pivot, nxt, pivot
        prev, cur = cur, nxt


def _vec_det(a, b) -> int:
    return a[0] * b[1] - a[1] * b[0]


def _dp(u: int, v: int, want_path: bool):
    """Distance (and optionally a witness path) from (1,0) to (u,v), v >= 2."""
    start = _INF_VEC
    target = (u, v)
    # frontier: vec -> (cost, path tuple ending at vec)
    frontier = {start: (0, (start,) if want_path else None)}
    last_pivot = None
    for a_vec, b_vec, pivot in _ladder_edges(u, v):
        new = {}
        for w in (a_vec, b_vec):
            best = None
            for vtx, (cost, path) in frontier.items():
                step, via = _step(vtx, w, pivot)
                key = cost + step
                if best is None or key < best[0]:
                    if want_path:
                        ext = path if vtx == w else (
                            path + ((via,) if via is not None else ()) + (w,)
                        )
                    else:
                        ext = None
                    best = (key, ext)
            new[w] = best
        frontier = new
        last_pivot = pivot
    best = None
    for vtx, (cost, path) in frontier.items():
        step, via = _step(vtx, target, last_pivot)
        key = cost + step
        if best is None or key < best[0]:
            if want_path:
                ext = path if vtx == target else (
                    path + ((via,) if via is not None else ()) + (target,)
                )
            else:
                ext = None
            best = (key, ext)
    return best


def _step(v, w, fan_pivot):
    """Cost to move v -> w inside the ladder, via-vertex when two steps.

    Non-adjacent frontier/edge vertex pairs only arise between rim vertices
    of the fan currently being crossed, which are joined through its pivot.
    """
    if v == w:
        return 0, None
    if abs(_vec_det(v, w)) == 1:
        return 1, None
    return 2, fan_pivot


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


def _denormalized(rows: tuple[int, int, int, int], vec: tuple[int, int]) -> Slope:
    """The slope whose image under the unimodular map ``rows`` is ±vec."""
    r0, r1, r2, r3 = rows
    x, y = vec
    return Slope.of(r3 * x - r1 * y, -r2 * x + r0 * y)


def farey_distance(a: Slope, b: Slope) -> int:
    """Exact graph distance between two slopes in the Farey graph."""
    if a == b:
        return 0
    if intersection(a, b) == 1:
        return 1
    if b < a:
        a, b = b, a
    _, u, v = _normalized(a, b)
    return _dp(u, v, want_path=False)[0]


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
    _, path = _dp(u, v, want_path=True)
    out = [_denormalized(rows, vec) for vec in path]
    # drop repeats left by zero-cost stays
    dedup = [out[0]]
    for s in out[1:]:
        if s != dedup[-1]:
            dedup.append(s)
    if flipped:
        dedup.reverse()
    return dedup


def pivot_region(a: Slope, b: Slope) -> list[Slope]:
    """Slopes that can carry large relative twisting between a and b.

    The vertices of the compressed fan ladder: continued-fraction pivots plus
    near-boundary rims, mapped back to the original coordinates, endpoints
    included.  Deterministic and symmetric in (a, b).
    """
    if b < a:
        a, b = b, a
    if a == b or intersection(a, b) == 1:
        return sorted({a, b})
    rows, u, v = _normalized(a, b)
    seen = {(1, 0), (u, v)}
    for a_vec, b_vec, _ in _ladder_edges(u, v):
        seen.add(a_vec)
        seen.add(b_vec)
    return sorted({_denormalized(rows, vec) for vec in seen})


def slopes_in_box(bound: int) -> list[Slope]:
    """All canonical slopes with |p| <= bound and q <= bound."""
    out = [Slope(1, 0)]
    for q in range(1, bound + 1):
        for p in range(-bound, bound + 1):
            if math.gcd(p, q) == 1:
                out.append(Slope(p, q))
    return out


def farey_distance_bfs(a: Slope, b: Slope, bound: int) -> int | None:
    """Brute-force BFS distance inside the |p|,|q| <= bound subgraph.

    Upper bound for the true distance; equals it once the bound comfortably
    contains the pivot region of the pair.  Oracle for tests; returns None
    if b is unreachable inside the box.
    """

    def ok(s: Slope) -> bool:
        return abs(s.p) <= bound and s.q <= bound

    if not (ok(a) and ok(b)):
        raise ValueError("endpoints outside the BFS box")
    if a == b:
        return 0
    from collections import deque

    dist = {a: 0}
    queue = deque([a])
    while queue:
        cur = queue.popleft()
        d = dist[cur]
        for nb in _bfs_neighbors(cur, bound):
            if nb not in dist:
                dist[nb] = d + 1
                if nb == b:
                    return d + 1
                queue.append(nb)
    return None


def _n_window(t0: int, s: int, bound: int) -> tuple[float, float]:
    """Real interval of n with |t0 + n*s| <= bound (whole line if s == 0)."""
    if s == 0:
        return (-math.inf, math.inf) if abs(t0) <= bound else (1.0, 0.0)
    lo, hi = (-bound - t0) / s, (bound - t0) / s
    return (min(lo, hi), max(lo, hi))


def _bfs_neighbors(s: Slope, bound: int) -> list[Slope]:
    """Neighbors of s in the Farey graph with entries inside the box."""
    t0 = complement(s)
    lo1, hi1 = _n_window(t0.p, s.p, bound)
    lo2, hi2 = _n_window(t0.q, s.q, bound)
    lo, hi = max(lo1, lo2), min(hi1, hi2)
    out = []
    n = math.ceil(lo)
    while n <= hi:
        p, q = t0.p + n * s.p, t0.q + n * s.q
        if q < 0 or (q == 0 and p < 0):
            p, q = -p, -q
        if abs(p) <= bound and q <= bound:
            out.append(Slope(p, q))
        n += 1
    return out


# ---------------------------------------------------------------------------
# Twist coordinates of transversals.
# ---------------------------------------------------------------------------


def complement(a: Slope) -> Slope:
    """Canonical dual slope with det(a, complement(a)) == 1.

    The extended-gcd solution reduced modulo a to the representative of
    minimal Euclidean norm (ties toward the smaller twist index).  Fixed once
    and for all per slope, so annular twist coordinates are deterministic.
    """
    x, y = _egcd(a.p, a.q)
    # det(a, (u, v)) = a.p*v - a.q*u == 1 at (u, v) = (-y, x)
    u, v = -y, x
    norm2 = a.p * a.p + a.q * a.q
    j = -round((u * a.p + v * a.q) / norm2)
    cands = [(u + j * a.p, v + j * a.q), (u + (j + 1) * a.p, v + (j + 1) * a.q),
             (u + (j - 1) * a.p, v + (j - 1) * a.q)]
    best = min(cands, key=lambda w: (w[0] * w[0] + w[1] * w[1], w))
    assert a.p * best[1] - a.q * best[0] == 1
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
    if intersection(base, trans) != 1:
        raise UndefinedProjectionError(
            f"{trans} is not a transversal of {base}"
        )
    t0 = complement(base)
    # the sign making twist(base^j, .) shift twist coordinates by exactly +j
    orient = det(base, t0)
    for s in (1, -1):
        dp = s * trans.p - t0.p
        dq = s * trans.q - t0.q
        if base.p != 0:
            if dp % base.p:
                continue
            n = dp // base.p
            if n * base.q == dq:
                return n * orient
        else:
            if dq % base.q:
                continue
            n = dq // base.q
            if n * base.p == dp:
                return n * orient
    raise AssertionError(f"no twist index for {trans} about {base}")


def transversal_at(base: Slope, n: int) -> Slope:
    """The transversal of ``base`` with twist coordinate n."""
    t0 = complement(base)
    m = n * det(base, t0)
    return Slope.of(t0.p + m * base.p, t0.q + m * base.q)
