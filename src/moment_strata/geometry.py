"""Exact convex projection in a positive definite rational form.

The central routine is :func:`closest_point_to_origin`, which returns the
unique nearest point of a convex hull together with a certificate that proves
global optimality: convex coefficients on an affinely independent support,
and the inequality <p, beta> >= <beta, beta> for every input point, with
equality on the support. The certificate is verified before it is returned,
so a caller holding one never needs to trust the search strategy.

The search, :func:`lattice_nearest_point`, runs on points and a Gram matrix
cleared of denominators, which scales the nearest point by the points' lcm
D. It reads rank one off the interval of values, runs Wolfe's exact
active-set method in every higher rank, and verifies the active set it ends
on in integers. :func:`closest_point_to_origin` then selects the canonical
certificate of the beta it found, the lexicographically smallest affinely
independent support on the contact face, and checks it with
:meth:`ProjectionCertificate.verify`, which clears it of denominators and
runs the same integer check. Interior tests are integer too. A model's scan
runs :func:`_search`, the lattice search keyed by integers, once per profile.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd, lcm
from operator import add
from typing import TYPE_CHECKING, Iterator, NamedTuple, Sequence

from .errors import VerificationFailed
from .linalg import (BilinearForm, Vector, _det, _iapply, _idot, clear_denominators, frac,
                     identity_form, vsub)

if TYPE_CHECKING:
    from .models import Lattice, Profile, WeightedModel


class ProjectionCertificate(NamedTuple):
    """Proof that ``beta`` is the point of conv(points) nearest the origin."""

    beta: Vector
    support: tuple[int, ...]
    coefficients: tuple[Fraction, ...]

    def verify(self, points: Sequence[Vector], form: BilinearForm,
               cleared: tuple[int, list[tuple[int, ...]]] | None = None) -> bool:
        """`_verify_lattice` on the points and beta cleared of denominators,
        with the coefficients written as integers over their lcm e. A caller
        that holds ``clear_denominators([*points, beta])`` passes it as
        ``cleared``, and the points are not cleared again."""
        if sum(self.coefficients) != 1:
            return False
        if cleared is None:
            cleared = clear_denominators([*points, self.beta])
        *lattice, x = cleared[1]
        e = lcm(*(c.denominator for c in self.coefficients))
        return _verify_lattice(lattice, form.cleared[1], LatticeCertificate(
            tuple(e * v for v in x), self.support,
            tuple(c.numerator * (e // c.denominator) for c in self.coefficients)))


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


def _canonical_certificate(points: Sequence[Vector], form: BilinearForm,
                           beta: Vector) -> ProjectionCertificate:
    """Lexicographically smallest affinely independent support realizing beta.

    Only points on the contact face <p, beta> = <beta, beta> can appear in a
    valid support, which keeps the subset search small. The face lies in the
    hyperplane whose nearest point is beta, so a face subset realizes beta
    exactly when beta is the foot of the origin on its affine hull. The
    search runs on the lattice, and the certificate is verified on the same
    cleared points.
    """
    cleared = clear_denominators([*points, beta])
    *lattice, x = cleared[1]
    gram = form.cleared[1]
    gx = _iapply(gram, x)
    nx = _idot(x, gx)
    face = sorted(i for p, i in _dedupe(lattice) if _idot(p, gx) == nx)
    for sub in _lex_subsets(face, form.rank + 1):
        proj = _project_affine([lattice[i] for i in sub], gram)
        if (proj is None or min(proj[0]) < 0
                or _combine(lattice, sub, proj[0]) != tuple(proj[1] * v for v in x)):
            continue
        cert = ProjectionCertificate(beta, tuple(sub),
                                     tuple(Fraction(a, proj[1]) for a in proj[0]))
        if not cert.verify(points, form, cleared):
            raise VerificationFailed("canonical certificate failed "
                                     "self-verification", witness=cert._asdict())
        return cert
    raise VerificationFailed("no canonical certificate for the computed "
                             "nearest point", witness={"beta": beta})


# ---------------------------------------------------------------------------
# the nearest-point search on the integer lattice


def _combine(pts, support, weights) -> tuple[int, ...]:
    return tuple(map(sum, zip(*([w * x for x in pts[i]]
                                for i, w in zip(support, weights)))))


class LatticeCertificate(NamedTuple):
    """A certificate on lattice points with integer weights over their sum e:
    the nearest point is beta / e."""

    beta: tuple[int, ...]
    support: tuple[int, ...]
    coefficients: tuple[int, ...]


def _project_affine(sub_pts, gram) -> tuple[list[int], int] | None:
    """Foot of the origin on the affine hull of lattice points: barycentric
    numerators over a positive denominator, by Cramer's rule on the Gram
    matrix of the directions from the first point; None when the points are
    affinely dependent, which is exactly when that matrix is singular."""
    base = sub_pts[0]
    dirs = [vsub(p, base) for p in sub_pts[1:]]
    gdirs = [_iapply(gram, v) for v in dirs]
    m = [[_idot(u, gv) for gv in gdirs] for u in dirs]
    rhs = [-_idot(base, gv) for gv in gdirs]
    det = _det(m)
    if det == 0:
        return None
    sol = [_det([row[:i] + [b] + row[i + 1:] for row, b in zip(m, rhs)])
           for i in range(len(m))]
    return [det - sum(sol)] + sol, det


def _interval_certificate(pts) -> LatticeCertificate:
    """Rank one: the endpoint nearest 0, or the two endpoints straddling 0."""
    vals = [p[0] for p in pts]
    a, b = min(vals), max(vals)
    lo, hi = vals.index(a), vals.index(b)
    if a >= 0:
        return LatticeCertificate(pts[lo], (lo,), (1,))
    if b <= 0:
        return LatticeCertificate(pts[hi], (hi,), (1,))
    return LatticeCertificate((0,), (lo, hi), (b, -a))


def _wolfe_certificate(pts, gram) -> LatticeCertificate:
    """Wolfe's active-set method in exact arithmetic ("Finding the nearest
    point in a polytope", Math. Prog. 11, 1976).

    The active set stays affinely independent, and at the end of each major
    cycle x is the foot of the origin on its affine hull with positive
    barycentric weights, so the final active set and weights certify x.
    The weights are integers over their sum; x is their integer combination.
    Each major cycle strictly lowers |x|^2, so no active set repeats and the
    search ends; a cycle that does not is a failed check.
    """
    norms = [_idot(p, _iapply(gram, p)) for p in pts]
    active, lam = [norms.index(min(norms))], [1]
    last = None
    while True:
        x = _combine(pts, active, lam)
        gx = _iapply(gram, x)
        nx, e = _idot(x, gx), sum(lam)
        # |x / e|^2 = nx / e^2 must fall below the last cycle's
        if last is not None and nx * last[1] ** 2 >= last[0] * e * e:
            raise VerificationFailed("nearest-point search made no progress",
                                     witness={"active": active})
        last = nx, e
        vals = [_idot(p, gx) for p in pts]
        low = min(vals)
        if low * e >= nx:
            return LatticeCertificate(x, tuple(active), tuple(lam))
        active.append(vals.index(low))
        lam.append(0)
        while True:
            proj = _project_affine([pts[i] for i in active], gram)
            if proj is None:
                raise VerificationFailed("nearest-point search lost affine "
                                         "independence", witness={"active": active})
            alpha, d = proj
            if all(a > 0 for a in alpha):
                lam = alpha
                break
            # step towards the foot until the first weight reaches zero:
            # theta = p/q is the least l/(l - a) over a <= 0, for the
            # weights l = L/e and a = A/d
            e, p, q = sum(lam), 1, 1
            for l, a in zip(lam, alpha):
                if a <= 0 and l * d * q < p * (l * d - a * e):
                    p, q = l * d, l * d - a * e
            lam = [q * d * l + p * (a * e - l * d) for l, a in zip(lam, alpha)]
            active = [i for i, l in zip(active, lam) if l > 0]
            lam = [l for l in lam if l > 0]


def _verify_lattice(pts, gram, cert: LatticeCertificate) -> bool:
    """The one check of the optimality conditions, in integers: for X = beta,
    e = sum(L): L >= 0, e > 0, sum(L_i P_i) = X, and e <P, G X> >= <X, G X>
    for every point, with equality on an affinely independent support."""
    x, support, lam = cert.beta, cert.support, cert.coefficients
    if (len(support) != len(lam) or not support or min(lam) < 0
            or sum(lam) <= 0 or _combine(pts, support, lam) != tuple(x)):
        return False
    gx = _iapply(gram, x)
    nx, e = _idot(x, gx), sum(lam)
    vals = [e * _idot(p, gx) for p in pts]
    return (min(vals) >= nx and all(vals[i] == nx for i in support)
            and _project_affine([pts[i] for i in support], gram) is not None)


def lattice_nearest_point(points, gram) -> LatticeCertificate:
    """Nearest point of conv(points) to the origin under an integer Gram
    matrix, with the certificate the search ends on, verified in integers."""
    if len(gram) == 1:
        cert = _interval_certificate(points)
    else:
        cert = _wolfe_certificate(points, gram)
    if not _verify_lattice(points, gram, cert):
        raise VerificationFailed("projection certificate failed "
                                 "self-verification", witness=cert._asdict())
    return cert


def _lattice_points(weights: Lattice, profile: Profile) -> tuple[tuple[int, ...], ...]:
    """Deduplicated sums of one selected lattice weight per factor, sorted."""
    acc = {(0,) * len(weights[0][0])}
    for supp, fac in zip(profile, weights):
        step = {fac[k] for k in supp}
        acc = {tuple(map(add, s, w)) for s in acc for w in step}
    return tuple(sorted(acc))


def _search(model: WeightedModel, profile: Profile) -> tuple[tuple, tuple[tuple[int, ...], int]]:
    """Lattice Minkowski points and the key (B, s) of their beta B / s, s > 0 and
    gcd(s, *B) = 1: one verified search on the model's cleared Gram matrix."""
    d, weights = model.lattice
    points = _lattice_points(weights, profile)
    search = lattice_nearest_point(points, model.form.cleared[1])
    scale = d * sum(search.coefficients)
    g = gcd(scale, *search.beta)
    return points, (tuple(x // g for x in search.beta), scale // g)


def nearest_point(points: Sequence[Vector], form: BilinearForm) -> ProjectionCertificate:
    """Nearest point of conv(points) to the origin, with the verified
    certificate the search ends on (not the canonical one). Points must
    already be rational tuples of the form's rank."""
    d, lattice = clear_denominators(points)
    cert = lattice_nearest_point(lattice, form.cleared[1])
    e = sum(cert.coefficients)
    return ProjectionCertificate(tuple(Fraction(x, d * e) for x in cert.beta),
                                 cert.support,
                                 tuple(Fraction(l, e) for l in cert.coefficients))


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
    """Exact test 0 in conv(points): the nearest point is 0 in any form."""
    pts = [tuple(frac(x) for x in p) for p in points]
    if not pts:
        return False
    gram = identity_form(len(pts[0])).cleared[1]
    return not any(lattice_nearest_point(clear_denominators(pts)[1], gram).beta)


def origin_in_interior(points: Sequence[Vector], rank: int) -> bool:
    """Exact test 0 in the full-dimensional interior of conv(points).

    The origin is interior iff the points' cone is all of Q^rank. Otherwise
    the points span less, or the cone has a facet: a hyperplane through 0,
    spanned by rank - 1 independent points, with every point on one side.
    So the origin is interior iff such hyperplanes exist and each has
    points strictly on both sides.
    """
    pts = clear_denominators([tuple(x if type(x) is int else frac(x) for x in p)
                              for p in points])[1]
    pts = list(dict.fromkeys(p for p in pts if any(p)))
    spanned = False
    for sub in itertools.combinations(pts, rank - 1):
        normal = [(-1) ** i * _det([p[:i] + p[i + 1:] for p in sub]) for i in range(rank)]
        if any(normal):
            spanned = True
            vals = [_idot(normal, p) for p in pts]
            if min(vals, default=0) >= 0 or max(vals, default=0) <= 0:
                return False
    return spanned
