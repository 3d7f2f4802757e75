"""Graded polynomial arithmetic over Q, the text round trip, and exact
division with its remainder witness."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moment_strata import GradedPolynomial, divide_exact, polynomial_division
from moment_strata.errors import NotDivisible
from moment_strata.polynomials import (exponents_of_degree, graded_piece_dim,
                                       monomials)

VARS = ("x", "y")

coeffs = st.builds(Fraction, st.integers(-5, 5), st.integers(1, 3))
exps = st.tuples(st.integers(0, 3), st.integers(0, 3))


@st.composite
def polys(draw, max_terms=4):
    d = draw(st.dictionaries(exps, coeffs, max_size=max_terms))
    return GradedPolynomial.from_dict(VARS, d)


def P(text):
    return GradedPolynomial.parse(VARS, text)


def test_parse_basic_forms():
    assert str(P("x")) == "x"
    assert str(P("3*x^2 - y")) == "-y + 3*x^2"
    assert str(P("x - x")) == "0"
    assert P("1/2*x*y").as_dict() == {(1, 1): Fraction(1, 2)}
    assert P("-x^2") == P("0 - x^2")


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        P("")
    with pytest.raises(ValueError):
        P("x +")
    with pytest.raises(ValueError):
        P("z")  # unknown variable
    with pytest.raises(ValueError):
        P("x^-2")


@settings(max_examples=150, deadline=None)
@given(polys())
def test_str_parse_round_trip(p):
    assert GradedPolynomial.parse(VARS, str(p)) == p


@settings(max_examples=80, deadline=None)
@given(polys(), polys(), polys())
def test_ring_axioms(f, g, h):
    assert f + g == g + f
    assert f * g == g * f
    assert (f + g) * h == f * h + g * h
    assert (f * g) * h == f * (g * h)
    assert f - f == GradedPolynomial.zero(VARS)


@settings(max_examples=80, deadline=None)
@given(polys(), polys())
def test_product_divides_exactly(f, g):
    if g.is_zero():
        return
    assert divide_exact(f * g, g) == f


def test_divide_exact_reports_remainder():
    with pytest.raises(NotDivisible) as exc:
        divide_exact(P("x^2 + 1"), P("x"))
    assert exc.value.witness is not None


def test_polynomial_division_identity_and_canonical_remainder():
    f = P("x^3 + x*y + 1")
    g = P("x^2 - y")
    q, r = polynomial_division(f, g)
    assert q * g + r == f
    # dividing the remainder again changes nothing
    q2, r2 = polynomial_division(r, g)
    assert q2.is_zero() and r2 == r


@settings(max_examples=60, deadline=None)
@given(polys(), polys())
def test_polynomial_division_always_reconstructs(f, g):
    if g.is_zero():
        return
    q, r = polynomial_division(f, g)
    assert q * g + r == f


def test_degree_and_graded_pieces():
    p = P("x^2*y + x")
    # every variable carries cohomological degree 2
    assert p.degree() == 6
    assert not p.is_homogeneous()
    assert p.graded_piece(2) == P("x")
    assert p.graded_piece(6) == P("x^2*y")
    assert p.graded_piece(4).is_zero()


def test_substitute_linear_change():
    p = P("x^2 - y^2")
    image = p.substitute({"x": P("x + y")})
    assert image == P("x^2 + 2*x*y")


def test_monomial_counts_are_consistent():
    for nvars in (1, 2, 3):
        names = tuple("v%d" % i for i in range(nvars))
        for d in (0, 2, 4, 6, 8):
            count = graded_piece_dim(nvars, d)
            assert count == len(exponents_of_degree(nvars, d // 2))
            ms = monomials(names, d)
            assert len(ms) == count
            assert all(m.degree() == d or (d != 0 and m.is_zero()) is False
                       for m in ms)
            assert len({str(m) for m in ms}) == count


def test_exponents_of_degree_match_a_filtered_product():
    """Content and ascending lex order against the brute force."""
    for nvars in range(0, 6):
        for total in range(0, 7):
            brute = tuple(e for e in itertools.product(range(total + 1), repeat=nvars)
                          if sum(e) == total)
            assert exponents_of_degree(nvars, total) == brute, (nvars, total)


def test_power_matches_repeated_product():
    p = P("x + 2*y")
    assert p ** 3 == p * p * p
    assert p ** 0 == GradedPolynomial.const(VARS, 1)


def _divide_by_leading_terms(f, g):
    """The general leading-term loop, kept as the reference for the
    monomial-divisor shortcut."""
    def ltkey(ec):
        return (sum(ec[0]), ec[0])

    gl_e, gl_c = max(g.terms, key=ltkey)
    q, r, rem = {}, {}, f
    while not rem.is_zero():
        fl_e, fl_c = max(rem.terms, key=ltkey)
        diff = tuple(a - b for a, b in zip(fl_e, gl_e))
        if any(x < 0 for x in diff):
            r[fl_e] = r.get(fl_e, Fraction(0)) + fl_c
            rem = rem - GradedPolynomial(f.variables, ((fl_e, fl_c),))
            continue
        c = fl_c / gl_c
        q[diff] = q.get(diff, Fraction(0)) + c
        rem = rem - GradedPolynomial(f.variables, ((diff, c),)) * g
    return (GradedPolynomial.from_dict(f.variables, q),
            GradedPolynomial.from_dict(f.variables, r))


@settings(max_examples=100, deadline=None)
@given(polys(max_terms=6), exps, coeffs.filter(lambda c: c != 0))
def test_monomial_division_matches_leading_term_loop(f, e, c):
    g = GradedPolynomial(VARS, ((e, c),))
    assert polynomial_division(f, g) == _divide_by_leading_terms(f, g)
