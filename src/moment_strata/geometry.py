"""Exact convex projection in a positive definite rational form.

The central routine is :func:`closest_point_to_origin`, which returns the
unique nearest point of a convex hull together with a certificate that proves
global optimality: convex coefficients on an affinely independent support,
and the inequality <p, beta> >= <beta, beta> for every input point, with
equality on the support. The certificate is verified before it is returned,
so a caller holding one never needs to trust the search strategy.

Fast paths exist for ranks one and two (interval endpoints, planar hull);
higher ranks fall back to enumeration of affinely independent subsets of
size at most rank + 1, which is the reference algorithm. All paths feed the
same canonical certificate selection, so they are interchangeable.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

from .linalg import (
    Vector,
    cone_contains,
    frac,
    lp_feasible,
    matrix_rank,
    solve_linear,
    vadd,
    vscale,
    vsub,
)


@dataclass(frozen=True)
class BilinearForm:
    """Symmetric positive definite form on Q^rank, given by its Gram matrix."""

    gram: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        n = len(self.gram)
        for row in self.gram:
            if len(row) != n:
                raise ValueError("Gram matrix must be square")
        for i in range(n):
            for j in range(n):
                if self.gram[i][j] != self.gram[j][i]:
                    raise ValueError("Gram matrix must be symmetric")
        # positive definiteness: all pivots positive under symmetric elimination
        m = [list(row) for row in self.gram]
        for k in range(n):
            if m[k][k] <= 0:
                raise ValueError("form is not positive definite")
            for i in range(k + 1, n):
                f = m[i][k] / m[k][k]
                for j in range(k, n):
                    m[i][j] -= f * m[k][j]

    @property
    def rank(self) -> int:
        return len(self.gram)

    def inner(self, u: Vector, v: Vector) -> Fraction:
        total = Fraction(0)
        for i, ui in enumerate(u):
            if ui == 0:
                continue
            row = self.gram[i]
            total += ui * sum((row[j] * vj for j, vj in enumerate(v) if vj != 0), Fraction(0))
        return total

    def norm2(self, u: Vector) -> Fraction:
        return self.inner(u, u)


def identity_form(rank: int) -> BilinearForm:
    return BilinearForm(tuple(
        tuple(Fraction(1) if i == j else Fraction(0) for j in range(rank))
        for i in range(rank)
    ))


def form_from_rows(rows) -> BilinearForm:
    return BilinearForm(tuple(tuple(frac(x) for x in row) for row in rows))


@dataclass(frozen=True)
class ProjectionCertificate:
    """Proof that ``beta`` is the point of conv(points) nearest the origin."""

    beta: Vector
    support: tuple[int, ...]
    coefficients: tuple[Fraction, ...]

    def verify(self, points: Sequence[Vector], form: BilinearForm) -> bool:
        if len(self.support) != len(self.coefficients):
            return False
        if not self.support:
            return False
        if any(c < 0 for c in self.coefficients):
            return False
        if sum(self.coefficients) != 1:
            return False
        combo = tuple(Fraction(0) for _ in self.beta)
        for i, c in zip(self.support, self.coefficients):
            combo = vadd(combo, vscale(c, points[i]))
        if combo != self.beta:
            return False
        nb = form.norm2(self.beta)
        for idx, p in enumerate(points):
            v = form.inner(p, self.beta)
            if v < nb:
                return False
            if idx in self.support and v != nb:
                return False
        return _affinely_independent([points[i] for i in self.support], form.rank)
        # support minimality beyond affine independence is not required


def span_dimension(points: Sequence[Vector]) -> int:
    """Dimension of the linear span (affine hull through the origin)."""
    return matrix_rank([list(p) for p in points])


def _affinely_independent(pts: Sequence[Vector], rank: int) -> bool:
    if not pts:
        return False
    base = pts[0]
    diffs = [list(vsub(p, base)) for p in pts[1:]]
    return matrix_rank(diffs) == len(pts) - 1


def _dedupe(points: Sequence[Vector]) -> list[tuple[Vector, int]]:
    """Distinct point values paired with the smallest input index carrying them."""
    seen: dict[Vector, int] = {}
    for i, p in enumerate(points):
        if p not in seen:
            seen[p] = i
    return [(p, i) for p, i in seen.items()]


def _lex_subsets(indices: list[int], maxsize: int) -> Iterator[list[int]]:
    """All nonempty subsets of size <= maxsize, in lex order on sorted tuples."""
    def rec(prefix: list[int], start: int):
        for k in range(start, len(indices)):
            sub = prefix + [indices[k]]
            yield sub
            if len(sub) < maxsize:
                yield from rec(sub, k + 1)
    yield from rec([], 0)


def _project_affine(sub_pts: list[Vector], form: BilinearForm) -> tuple[Vector, list[Fraction]] | None:
    """Foot of the origin on the affine hull of affinely independent points.

    Returns (point, barycentric coordinates) or None if the normal equations
    are singular (i.e. the points were not affinely independent after all).
    """
    base = sub_pts[0]
    dirs = [vsub(p, base) for p in sub_pts[1:]]
    if not dirs:
        return base, [Fraction(1)]
    mat = [[form.inner(di, dj) for dj in dirs] for di in dirs]
    rhs = [-form.inner(base, di) for di in dirs]
    # the Gram matrix of independent directions in a definite form is invertible
    sol = solve_linear(mat, rhs)
    if sol is None:
        return None
    point = base
    for c, d in zip(sol, dirs):
        point = vadd(point, vscale(c, d))
    lam = [Fraction(1) - sum(sol, Fraction(0))] + list(sol)
    return point, lam


def _canonical_certificate(points: Sequence[Vector], form: BilinearForm,
                           beta: Vector) -> ProjectionCertificate:
    """Lexicographically smallest affinely independent support realizing beta.

    Only points on the contact face <p, beta> = <beta, beta> can appear in a
    valid support, which keeps the subset search small.
    """
    nb = form.norm2(beta)
    distinct = _dedupe(points)
    face = [idx for p, idx in distinct if form.inner(p, beta) == nb]
    face.sort()
    for sub in _lex_subsets(face, form.rank + 1):
        sub_pts = [points[i] for i in sub]
        if not _affinely_independent(sub_pts, form.rank):
            continue
        # solve sum(l_i p_i) = beta, sum(l_i) = 1
        r = form.rank
        a = [[p[c] for p in sub_pts] for c in range(r)] + [[Fraction(1)] * len(sub)]
        b = list(beta) + [Fraction(1)]
        lam = solve_linear(a, b)
        if lam is None or any(x < 0 for x in lam):
            continue
        cert = ProjectionCertificate(beta, tuple(sub), tuple(lam))
        if not cert.verify(points, form):
            raise AssertionError("projection certificate failed self-verification")
        return cert
    raise AssertionError("no certificate found for computed nearest point")


def _closest_rank1(points: Sequence[Vector], form: BilinearForm) -> Vector:
    g = form.gram[0][0]
    vals = sorted(p[0] for p in points)
    lo, hi = vals[0], vals[-1]
    assert g > 0
    if lo > 0:
        return (lo,)
    if hi < 0:
        return (hi,)
    return (Fraction(0),)


def _cross(o: Vector, a: Vector, b: Vector) -> Fraction:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _convex_hull_2d(pts: list[Vector]) -> list[Vector]:
    """Monotone chain; returns hull vertices in counterclockwise order."""
    pts = sorted(set(pts))
    if len(pts) <= 2:
        return pts
    lower: list[Vector] = []
    for p in pts:
        while len(lower) >= 2 and _cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: list[Vector] = []
    for p in reversed(pts):
        while len(upper) >= 2 and _cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def _segment_closest(a: Vector, b: Vector, form: BilinearForm) -> Vector:
    d = vsub(b, a)
    dd = form.norm2(d)
    if dd == 0:
        return a
    t = -form.inner(a, d) / dd
    if t <= 0:
        return a
    if t >= 1:
        return b
    return vadd(a, vscale(t, d))


def _closest_rank2(points: Sequence[Vector], form: BilinearForm) -> Vector:
    pts = [p for p, _ in _dedupe(points)]
    hull = _convex_hull_2d(pts)
    if len(hull) == 1:
        return hull[0]
    if len(hull) == 2:
        return _segment_closest(hull[0], hull[1], form)
    # point-in-polygon, boundary counts as inside
    inside = True
    n = len(hull)
    origin = (Fraction(0), Fraction(0))
    for i in range(n):
        if _cross(hull[i], hull[(i + 1) % n], origin) < 0:
            inside = False
            break
    if inside:
        return origin
    best: Vector | None = None
    best_norm: Fraction | None = None
    for i in range(n):
        cand = _segment_closest(hull[i], hull[(i + 1) % n], form)
        nn = form.norm2(cand)
        if best_norm is None or nn < best_norm:
            best, best_norm = cand, nn
    assert best is not None
    return best


def _closest_enum(points: Sequence[Vector], form: BilinearForm) -> Vector:
    """Reference path: scan affinely independent subsets of size <= rank+1."""
    distinct = _dedupe(points)
    idxs = list(range(len(distinct)))
    best: Vector | None = None
    best_norm: Fraction | None = None
    for sub in _lex_subsets(idxs, form.rank + 1):
        sub_pts = [distinct[i][0] for i in sub]
        if not _affinely_independent(sub_pts, form.rank):
            continue
        proj = _project_affine(sub_pts, form)
        if proj is None:
            continue
        point, lam = proj
        if any(x < 0 for x in lam):
            continue
        nn = form.norm2(point)
        if best_norm is None or nn < best_norm:
            best, best_norm = point, nn
    assert best is not None
    return best


def closest_point_to_origin(points: Sequence[Vector], form: BilinearForm) -> ProjectionCertificate:
    """Nearest point of conv(points) to the origin, with optimality certificate."""
    pts = [tuple(frac(x) for x in p) for p in points]
    if not pts:
        raise ValueError("need at least one point")
    r = form.rank
    for p in pts:
        if len(p) != r:
            raise ValueError(f"point dimension {len(p)} does not match form rank {r}")
    if r == 1:
        beta = _closest_rank1(pts, form)
    elif r == 2:
        beta = _closest_rank2(pts, form)
    else:
        beta = _closest_enum(pts, form)
    return _canonical_certificate(pts, form, beta)


def origin_in_hull(points: Sequence[Vector]) -> bool:
    """Exact test 0 in conv(points); independent of any choice of form."""
    pts = [tuple(frac(x) for x in p) for p in points]
    if not pts:
        return False
    r = len(pts[0])
    if r == 1:
        vals = [p[0] for p in pts]
        return min(vals) <= 0 <= max(vals)
    if r == 2:
        hull = _convex_hull_2d([p for p, _ in _dedupe(pts)])
        origin = (Fraction(0), Fraction(0))
        if len(hull) == 1:
            return hull[0] == origin
        if len(hull) == 2:
            a, b = hull
            if _cross(a, b, origin) != 0:
                return False
            t = [(p[0], p[1]) for p in (a, b)]
            lo = min(t)
            hi = max(t)
            return lo <= (Fraction(0), Fraction(0)) <= hi
        return all(_cross(hull[i], hull[(i + 1) % len(hull)], origin) >= 0
                   for i in range(len(hull)))
    rows = [[p[i] for p in pts] for i in range(r)] + [[Fraction(1)] * len(pts)]
    rhs = [Fraction(0)] * r + [Fraction(1)]
    return lp_feasible(rows, rhs) is not None


def origin_in_interior(points: Sequence[Vector], rank: int) -> bool:
    """Exact test 0 in the full-dimensional interior of conv(points).

    Characterization used: the origin is interior iff the convex cone spanned
    by the points is all of Q^rank, i.e. contains +e_i and -e_i for every
    coordinate direction.
    """
    pts = [tuple(frac(x) for x in p) for p in points]
    if not pts:
        return False
    if rank == 1:
        vals = [p[0] for p in pts]
        return min(vals) < 0 < max(vals)
    if rank == 2:
        hull = _convex_hull_2d([p for p, _ in _dedupe(pts)])
        if len(hull) < 3:
            return False
        origin = (Fraction(0), Fraction(0))
        return all(_cross(hull[i], hull[(i + 1) % len(hull)], origin) > 0
                   for i in range(len(hull)))
    for i in range(rank):
        for s in (1, -1):
            target = tuple(Fraction(s) if j == i else Fraction(0) for j in range(rank))
            if not cone_contains(pts, target):
                return False
    return True
