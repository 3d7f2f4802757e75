"""Exact convex projection in a positive definite rational form.

The central routine is :func:`closest_point_to_origin`, which returns the
unique nearest point of a convex hull together with a certificate that proves
global optimality: convex coefficients on an affinely independent support,
and the inequality <p, beta> >= <beta, beta> for every input point, with
equality on the support. The certificate is verified before it is returned,
so a caller holding one never needs to trust the search strategy.

The search, :func:`nearest_point`, reads rank one straight off the interval
of values and runs Wolfe's exact active-set method in every higher rank; the
active set it ends on is its certificate. :func:`closest_point_to_origin`
then selects the canonical certificate of the beta it found: the
lexicographically smallest affinely independent support on the contact face.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

from .linalg import (
    Vector,
    cone_contains,
    dot,
    frac,
    lp_feasible,
    matrix_rank,
    rref,
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
        return dot(u, self.apply(v))

    def norm2(self, u: Vector) -> Fraction:
        return self.inner(u, u)

    def apply(self, v: Vector) -> Vector:
        """G v: the covector with inner(u, v) == dot(u, apply(v))."""
        return tuple(sum((g * x for g, x in zip(row, v) if x != 0), Fraction(0))
                     for row in self.gram)


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
        gb = form.apply(self.beta)
        nb = dot(self.beta, gb)
        for idx, p in enumerate(points):
            v = dot(p, gb)
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

    Returns (point, barycentric coordinates), or None when the points are
    affinely dependent, which is exactly when the Gram matrix of the
    directions from the first point is singular.
    """
    base = sub_pts[0]
    dirs = [vsub(p, base) for p in sub_pts[1:]]
    k = len(dirs)
    red, pivots = rref([[form.inner(di, dj) for dj in dirs] + [-form.inner(base, di)]
                        for di in dirs])
    if pivots[:k] != list(range(k)):
        return None
    sol = [row[k] for row in red]
    point = base
    for c, d in zip(sol, dirs):
        point = vadd(point, vscale(c, d))
    lam = [Fraction(1) - sum(sol, Fraction(0))] + sol
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


def _interval_certificate(pts: Sequence[Vector]) -> ProjectionCertificate:
    """Rank one: the endpoint nearest 0, or the two endpoints straddling 0."""
    lo = min(range(len(pts)), key=lambda i: pts[i][0])
    hi = max(range(len(pts)), key=lambda i: pts[i][0])
    a, b = pts[lo][0], pts[hi][0]
    if a >= 0:
        return ProjectionCertificate(pts[lo], (lo,), (Fraction(1),))
    if b <= 0:
        return ProjectionCertificate(pts[hi], (hi,), (Fraction(1),))
    return ProjectionCertificate((Fraction(0),), (lo, hi),
                                 (b / (b - a), -a / (b - a)))


def _wolfe_certificate(pts: Sequence[Vector], form: BilinearForm) -> ProjectionCertificate:
    """Wolfe's active-set method in exact arithmetic ("Finding the nearest
    point in a polytope", Math. Prog. 11, 1976).

    The active set stays affinely independent, and at the end of each major
    cycle x is the foot of the origin on its affine hull with positive
    barycentric weights, so the final active set and weights certify x.
    """
    norms = [form.norm2(p) for p in pts]
    first = norms.index(min(norms))
    active, lam, x = [first], [Fraction(1)], pts[first]
    while True:
        gx = form.apply(x)
        vals = [dot(p, gx) for p in pts]
        j = min(range(len(pts)), key=vals.__getitem__)
        if vals[j] >= dot(x, gx):
            return ProjectionCertificate(x, tuple(active), tuple(lam))
        active.append(j)
        lam.append(Fraction(0))
        while True:
            proj = _project_affine([pts[i] for i in active], form)
            if proj is None:
                raise ArithmeticError("nearest-point search lost affine "
                                      "independence of its active set")
            y, alpha = proj
            if all(a > 0 for a in alpha):
                x, lam = y, alpha
                break
            # step from x towards y until the first weight reaches zero
            theta = min(l / (l - a) for l, a in zip(lam, alpha) if a <= 0)
            lam = [l + theta * (a - l) for l, a in zip(lam, alpha)]
            x = vadd(x, vscale(theta, vsub(y, x)))
            keep = [k for k, l in enumerate(lam) if l > 0]
            active = [active[k] for k in keep]
            lam = [lam[k] for k in keep]


def nearest_point(points: Sequence[Vector], form: BilinearForm) -> ProjectionCertificate:
    """Nearest point of conv(points) to the origin, with the verified
    certificate the search ends on (not the canonical one).

    Points must already be rational tuples of the form's rank.
    """
    if form.rank == 1:
        cert = _interval_certificate(points)
    else:
        cert = _wolfe_certificate(points, form)
    if not cert.verify(points, form):
        raise ArithmeticError("projection certificate failed self-verification")
    return cert


def closest_point_to_origin(points: Sequence[Vector], form: BilinearForm) -> ProjectionCertificate:
    """Nearest point of conv(points) to the origin, with the canonical
    optimality certificate."""
    pts = [tuple(frac(x) for x in p) for p in points]
    if not pts:
        raise ValueError("need at least one point")
    r = form.rank
    for p in pts:
        if len(p) != r:
            raise ValueError(f"point dimension {len(p)} does not match form rank {r}")
    return _canonical_certificate(pts, form, nearest_point(pts, form).beta)


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
