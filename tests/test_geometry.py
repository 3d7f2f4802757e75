"""Closest-point certificates checked against their own optimality proof,
brute-force enumeration, and random convex samples."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moment_strata import (BilinearForm, closest_point_to_origin,
                           identity_form, origin_in_hull, origin_in_interior)
from moment_strata.geometry import (_closest_enum, _closest_rank1,
                                    _closest_rank2, span_dimension)

rationals = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))


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
@given(pts_strategy(1))
def test_rank1_fast_path_matches_enumeration(pts):
    form = identity_form(1)
    assert _closest_rank1(pts, form) == _closest_enum(pts, form)


@settings(max_examples=120, deadline=None)
@given(pts_strategy(2))
def test_rank2_fast_path_matches_enumeration(pts):
    form = identity_form(2)
    assert _closest_rank2(pts, form) == _closest_enum(pts, form)


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
    assert span_dimension([a, b]) == 2
    assert span_dimension([a, (Fraction(2), Fraction(0))]) == 1
