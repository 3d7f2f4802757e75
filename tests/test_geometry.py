"""Closest-point certificates checked against their own optimality proof,
brute-force enumeration, and random convex samples."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moment_strata import (BilinearForm, closest_point_to_origin,
                           identity_form, origin_in_hull, origin_in_interior)
from moment_strata import geometry
from moment_strata.geometry import _canonical_certificate, _project_affine, nearest_point
from fraction_oracle import lp_feasible, matrix_rank, rref, solve_linear, vadd, vscale
from moment_strata.linalg import clear_denominators, vsub

rationals = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))

FORMS = {
    1: [identity_form(1), BilinearForm(((Fraction(3),),))],
    2: [identity_form(2),
        BilinearForm(((Fraction(2), Fraction(-1)), (Fraction(-1), Fraction(2))))],
    3: [identity_form(3),
        BilinearForm(((Fraction(2), Fraction(1), Fraction(0)),
                      (Fraction(1), Fraction(3), Fraction(1, 2)),
                      (Fraction(0), Fraction(1, 2), Fraction(1))))],
}


def _closest_enum(points, form):
    """Reference search. The origin when an exact LP puts it in the hull;
    otherwise beta lies in a hyperplane, so it is the least-norm foot of the
    origin over affinely independent subsets of at most rank distinct points
    whose barycentric coordinates are nonnegative (Caratheodory)."""
    distinct = list(dict.fromkeys(tuple(Fraction(x) for x in p) for p in points))
    rows = [[p[i] for p in distinct] for i in range(form.rank)] + [[Fraction(1)] * len(distinct)]
    if lp_feasible(rows, [Fraction(0)] * form.rank + [Fraction(1)]) is not None:
        return (Fraction(0),) * form.rank
    best = None
    for size in range(1, form.rank + 1):
        for sub in itertools.combinations(distinct, size):
            base, dirs = sub[0], [vsub(p, sub[0]) for p in sub[1:]]
            if len(rref(dirs)[1]) != len(dirs):
                continue
            sol = solve_linear([[form.inner(a, b) for b in dirs] for a in dirs],
                               [-form.inner(base, d) for d in dirs])
            if sum(sol, Fraction(0)) > 1 or any(x < 0 for x in sol):
                continue
            point = base
            for c, d in zip(sol, dirs):
                point = vadd(point, vscale(c, d))
            if best is None or form.norm2(point) < form.norm2(best):
                best = point
    return best


@st.composite
def point_sets(draw, rank):
    """Rational point sets in general position, on a line, on a plane, or
    symmetric about the origin, with some points repeated."""
    kind = draw(st.sampled_from(("general", "collinear", "coplanar", "origin")))
    vec = st.tuples(*([rationals] * rank))
    ints = st.integers(-3, 3)
    if kind == "general":
        pts = draw(st.lists(vec, min_size=1, max_size=6))
    else:
        base = draw(vec)
        dirs = draw(st.lists(vec, min_size=1, max_size=1 if kind == "collinear" else 2))
        pts = []
        for steps in draw(st.lists(st.tuples(ints, ints), min_size=1, max_size=6)):
            p = base
            for t, d in zip(steps, dirs):
                p = vadd(p, vscale(Fraction(t), d))
            pts.append(p)
        if kind == "origin":
            pts += [vscale(Fraction(-1), p) for p in pts]
    return pts + draw(st.lists(st.sampled_from(pts), max_size=3))


def pts_strategy(rank, max_points=6):
    return st.lists(st.tuples(*([rationals] * rank)),
                    min_size=1, max_size=max_points)


def norm2(form, v):
    return form.norm2(v)


def test_single_point_is_its_own_projection():
    form = identity_form(2)
    cert = closest_point_to_origin([(Fraction(3), Fraction(-1))], form)
    assert cert.beta == (Fraction(3), Fraction(-1))
    assert cert.support == (0,)
    assert cert.coefficients == (Fraction(1),)
    assert cert.verify([(Fraction(3), Fraction(-1))], form)


def test_segment_through_origin_projects_to_origin():
    form = identity_form(1)
    pts = [(Fraction(-2),), (Fraction(5),)]
    cert = closest_point_to_origin(pts, form)
    assert cert.beta == (Fraction(0),)
    assert cert.verify(pts, form)
    assert origin_in_hull(pts)
    assert origin_in_interior(pts, 1)


def test_offset_segment_projects_to_interior_point():
    # segment from (1, 0) to (0, 1): nearest point is the midpoint
    form = identity_form(2)
    pts = [(Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))]
    cert = closest_point_to_origin(pts, form)
    assert cert.beta == (Fraction(1, 2), Fraction(1, 2))
    assert sorted(cert.support) == [0, 1]
    assert cert.verify(pts, form)
    assert not origin_in_hull(pts)


def test_certificate_respects_non_identity_form():
    gram = ((Fraction(2), Fraction(-1)), (Fraction(-1), Fraction(2)))
    form = BilinearForm(gram)
    pts = [(Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))]
    cert = closest_point_to_origin(pts, form)
    assert cert.verify(pts, form)
    # symmetric instance, symmetric answer
    assert cert.beta[0] == cert.beta[1]


@settings(max_examples=120, deadline=None)
@given(pts_strategy(1), st.sampled_from(FORMS[1]))
def test_interval_search_matches_enumeration(pts, form):
    cert = nearest_point(pts, form)
    assert cert.beta == _closest_enum(pts, form)
    assert cert.verify(pts, form)
    assert len(cert.support) <= 2
    assert all(c > 0 for c in cert.coefficients)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from((2, 3)).flatmap(
    lambda r: st.tuples(point_sets(r), st.sampled_from(FORMS[r]))))
def test_wolfe_search_matches_enumeration(case):
    pts, form = case
    beta = _closest_enum(pts, form)
    cert = nearest_point(pts, form)
    assert cert.beta == beta
    assert cert.verify(pts, form)
    # Wolfe's final active set carries positive weights only
    assert all(c > 0 for c in cert.coefficients)
    assert closest_point_to_origin(pts, form) == _canonical_certificate(pts, form, beta)


def test_search_rejects_a_certificate_that_does_not_verify(monkeypatch):
    pts = [(Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))]
    bad = geometry.ProjectionCertificate(pts[0], (0,), (Fraction(1),))
    monkeypatch.setattr(geometry, "_wolfe_certificate", lambda *args: bad)
    with pytest.raises(ArithmeticError):
        nearest_point(pts, identity_form(2))


def test_dependent_active_set_is_detected():
    gram = clear_denominators(FORMS[3][1].gram)[1]
    p, q = (1, 2, 0), (0, 1, 1)
    assert _project_affine([p, q, vsub(vscale(2, q), p)], gram) is None
    assert _project_affine([p, q], gram) is not None


@settings(max_examples=80, deadline=None)
@given(pts_strategy(3, max_points=5))
def test_certificate_verifies_in_rank3(pts):
    form = identity_form(3)
    cert = closest_point_to_origin(pts, form)
    assert cert.verify(pts, form)


@settings(max_examples=60, deadline=None)
@given(pts_strategy(2), st.integers(0, 10 ** 6))
def test_random_convex_combinations_never_beat_beta(pts, seed):
    form = identity_form(2)
    cert = closest_point_to_origin(pts, form)
    best = norm2(form, cert.beta)
    rng = random.Random(seed)
    for _ in range(8):
        weights = [Fraction(rng.randint(0, 9)) for _ in pts]
        total = sum(weights)
        if total == 0:
            continue
        combo = tuple(sum((w * p[i] for w, p in zip(weights, pts)),
                          Fraction(0)) / total
                      for i in range(2))
        assert norm2(form, combo) >= best


def test_hull_membership_agrees_with_zero_beta(rng):
    form = identity_form(2)
    for _ in range(60):
        pts = [(Fraction(rng.randint(-4, 4)), Fraction(rng.randint(-4, 4)))
               for _ in range(rng.randint(1, 6))]
        cert = closest_point_to_origin(pts, form)
        assert origin_in_hull(pts) == all(x == 0 for x in cert.beta)
        if origin_in_interior(pts, 2):
            assert origin_in_hull(pts)


def test_support_coefficients_reconstruct_beta(rng):
    form = identity_form(3)
    for _ in range(40):
        pts = [tuple(Fraction(rng.randint(-3, 3)) for _ in range(3))
               for _ in range(rng.randint(1, 7))]
        cert = closest_point_to_origin(pts, form)
        combo = tuple(
            sum((c * pts[i][k] for c, i in zip(cert.coefficients, cert.support)),
                Fraction(0))
            for k in range(3))
        assert combo == cert.beta
        assert sum(cert.coefficients) == 1
        assert all(c >= 0 for c in cert.coefficients)


def test_duplicate_points_leave_projection_unchanged():
    form = identity_form(2)
    pts = [(Fraction(2), Fraction(1)), (Fraction(1), Fraction(2))]
    cert = closest_point_to_origin(pts, form)
    doubled = pts + pts + [pts[0]]
    cert2 = closest_point_to_origin(doubled, form)
    assert cert2.beta == cert.beta
    assert cert2.verify(doubled, form)


def test_affine_and_span_dimension():
    a = (Fraction(1), Fraction(0))
    b = (Fraction(0), Fraction(1))
    assert matrix_rank([a, b]) == 2
    assert matrix_rank([a, (Fraction(2), Fraction(0))]) == 1
    # the library's affine independence test, under a positive definite form
    gram = clear_denominators(FORMS[2][1].gram)[1]
    assert _project_affine([(0, 0), (1, 0), (0, 1)], gram) is not None
    assert _project_affine([(0, 0), (1, 0), (2, 0)], gram) is None
    assert _project_affine([(1, 1), (1, 1)], gram) is None
