"""Cohomology presentations, stratum-ideal kernels, Betti numbers, the
reflection-group bijection, and the two-sided vanishing kernel."""

from fractions import Fraction

import pytest

from moment_strata import (GradedPolynomial, WeylSymmetryRequired,
                           betti_from_presentation, in_relation_span,
                           line_product_presentation,
                           projective_space_presentation, restrict_to_subspace,
                           sl2_kernel_ideal, thom_gysin_lift,
                           tolman_weitsman_kernel, torus_kernel_ideal,
                           torus_strata, two_sided_kernel_report,
                           weyl_kernel_bijection_report)
from moment_strata.kirwan import (LineProductStratum, PnStratum,
                                  stratum_codimension)
from moment_strata.linalg import SpanBasis
from moment_strata.polynomials import exponents_of_degree, graded_piece_dim

P3 = projective_space_presentation([3, 1, -1, -3])
P5 = projective_space_presentation([5, 3, 1, -1, -3, -5])
L3 = line_product_presentation(3)
L4 = line_product_presentation(4)
L5 = line_product_presentation(5)


def parse(pres, text):
    return GradedPolynomial.parse(pres.variables, text)


def betti_row(pres, kernel, max_degree):
    return [betti_from_presentation(pres, kernel, d)
            for d in range(0, max_degree + 1, 2)]


def test_presentation_relations():
    assert str(P3.relations[0]) == "9*a^4 - 10*z^2*a^2 + z^4"
    assert P3.variables == ("z", "a")
    assert L3.variables == ("z1", "z2", "z3", "a")
    assert [str(r) for r in L3.relations] == ["-a^2 + z1^2", "-a^2 + z2^2",
                                             "-a^2 + z3^2"]


def test_presentation_rejects_bad_input():
    with pytest.raises(ValueError):
        projective_space_presentation([3])
    with pytest.raises(ValueError):
        line_product_presentation(0)


def test_torus_strata_and_codimensions():
    betas = sorted(s.beta for s in torus_strata(P3))
    assert betas == [Fraction(-3), Fraction(-1), Fraction(1), Fraction(3)]
    assert stratum_codimension(P3, PnStratum(Fraction(3))) == 6
    assert stratum_codimension(P3, PnStratum(Fraction(1))) == 4
    l4_strata = list(torus_strata(L4))
    assert len(l4_strata) == 10  # subsets of size 3 and 4, two signs each
    assert stratum_codimension(L4, LineProductStratum((1, 2, 3), 1)) == 6


def test_thom_gysin_lift_anchors():
    lift3 = thom_gysin_lift(P3, PnStratum(Fraction(3)))
    assert str(lift3) == "3*a^3 - z*a^2 - 3*z^2*a + z^3"
    # product of Euler factors z + w*a over the killed weights
    z, a = (GradedPolynomial.var(P3.variables, v) for v in ("z", "a"))
    expected = (z + a) * (z - a) * (z - a.scale(3))
    assert lift3 == expected
    lift_l = thom_gysin_lift(L4, LineProductStratum((1, 2, 3), 1))
    zs = [GradedPolynomial.var(L4.variables, f"z{j}") for j in (1, 2, 3)]
    a4 = GradedPolynomial.var(L4.variables, "a")
    prod = (zs[0] + a4) * (zs[1] + a4) * (zs[2] + a4)
    assert lift_l == prod


def test_lift_degree_matches_codimension():
    for pres, strata in ((P3, (PnStratum(Fraction(1)), PnStratum(Fraction(-3)))),
                         (L4, (LineProductStratum((1, 2, 4), -1),
                               LineProductStratum((1, 2, 3, 4), 1)))):
        for s in strata:
            lift = thom_gysin_lift(pres, s)
            assert lift.degree() == stratum_codimension(pres, s)


def test_torus_kernel_ideal_generators():
    k = torus_kernel_ideal(P3, 12)
    labels = sorted(label for label, _ in k.generators)
    assert labels == ["beta=-1", "beta=-3", "beta=1", "beta=3"]
    # low degree cap drops the codimension-6 strata
    k4 = torus_kernel_ideal(P3, 4)
    assert sorted(l for l, _ in k4.generators) == ["beta=-1", "beta=1"]


def test_sl2_kernel_ideal_folds_opposite_strata():
    k = sl2_kernel_ideal(P3, 12)
    by_label = {label: g for label, g in k.generators}
    assert set(by_label) == {"beta=1:difference", "beta=1:sum",
                             "beta=3:difference", "beta=3:sum"}
    assert str(by_label["beta=1:difference"]) == "-2*z"
    assert str(by_label["beta=1:sum"]) == "3/2*a^2 + 1/2*z^2"
    # generators are invariant under negating the parameter
    a = P3.alpha
    for g in by_label.values():
        assert g.substitute({"a": a.scale(-1)}) == g


def test_sl2_stable_target_on_even_line_products():
    ss = sl2_kernel_ideal(L4, 12)
    st = sl2_kernel_ideal(L4, 12, "stable")
    extra = set(l for l, _ in st.generators) - set(l for l, _ in ss.generators)
    # six half-size subsets, each contributing a difference and a sum
    assert len(extra) == 12
    assert all(l.startswith("J=") for l in extra)
    with pytest.raises(ValueError):
        sl2_kernel_ideal(P3, 12, "stable")


def test_sl2_kernel_needs_symmetric_weights():
    asym = projective_space_presentation([2, 1, -1])
    with pytest.raises(WeylSymmetryRequired):
        sl2_kernel_ideal(asym, 8)


def test_betti_numbers_of_reference_quotients():
    assert betti_row(P3, torus_kernel_ideal(P3, 12), 12) == [1, 2, 1, 0, 0, 0, 0]
    assert betti_row(P3, sl2_kernel_ideal(P3, 12), 12) == [1, 0, 0, 0, 0, 0, 0]
    assert betti_row(P5, sl2_kernel_ideal(P5, 12), 12) == [1, 1, 1, 0, 0, 0, 0]
    assert betti_row(L3, torus_kernel_ideal(L3, 8), 8) == [1, 4, 1, 0, 0]
    assert betti_row(L3, sl2_kernel_ideal(L3, 8), 8) == [1, 0, 0, 0, 0]
    assert betti_row(L5, sl2_kernel_ideal(L5, 12), 12) == [1, 5, 1, 0, 0, 0, 0]


def test_ambient_betti_without_kernel():
    # H_T(P^3): one z power per degree up to the relation, then constant
    assert betti_row(P3, None, 12) == [1, 2, 3, 4, 4, 4, 4]


def test_in_relation_span_membership():
    k = sl2_kernel_ideal(P3, 12)
    z = parse(P3, "z")
    one = parse(P3, "1")
    a = parse(P3, "a")
    assert in_relation_span(P3, k, z)       # -2*z is a generator
    assert not in_relation_span(P3, k, one)
    assert not in_relation_span(P3, k, a)
    # the defining relation lies in the bare presentation span
    assert in_relation_span(P3, None, P3.relations[0])
    assert not in_relation_span(P3, None, parse(P3, "z^2"))


def test_weyl_bijection_reports():
    expected = {
        "P3": [(0, 0), (2, 1), (4, 2), (6, 2), (8, 2), (10, 2), (12, 2)],
        "P5": [(0, 0), (2, 0), (4, 1), (6, 2), (8, 3), (10, 3), (12, 3)],
        "L4": [(0, 0), (2, 0), (4, 4), (6, 5), (8, 5), (10, 5), (12, 5)],
    }
    for name, pres in (("P3", P3), ("P5", P5), ("L4", L4)):
        report = weyl_kernel_bijection_report(pres, 12)
        assert report.ok
        dims = [(r.degree, r.dim_kernel_group) for r in report.degrees]
        assert dims == expected[name]
        for r in report.degrees:
            assert r.injective and r.spans_equal and r.inverse_ok


def _rank_of(pres, polys, d):
    index = {e: i for i, e in enumerate(exponents_of_degree(len(pres.variables), d // 2))}
    sb = SpanBasis()
    for p in polys:
        sb.add({index[e]: c for e, c in p.terms})
    return sb.dim


def test_two_sided_kernel_matches_stratum_ideal():
    kernel = torus_kernel_ideal(P3, 8)
    tw = tolman_weitsman_kernel(P3, 8)
    expected_dims = {0: 0, 2: 0, 4: 2, 6: 4, 8: 5}
    for d, basis in tw.items():
        assert _rank_of(P3, basis, d) == len(basis) == expected_dims[d]
        # the ideal's dimension is the free piece's minus the quotient's
        ideal_dim = graded_piece_dim(2, d) - betti_from_presentation(P3, kernel, d)
        assert len(basis) == ideal_dim
        for b in basis:
            assert in_relation_span(P3, kernel, b)
    report = two_sided_kernel_report(P3, 8)
    assert report.ok
    assert [(r.degree, r.two_sided_kernel_dim, r.stratum_ideal_dim, r.equal)
            for r in report.degrees] == [(d, k, k, True)
                                         for d, k in expected_dims.items()]


def test_two_sided_kernel_report_on_line_products():
    kernel = torus_kernel_ideal(L3, 8)
    report = two_sided_kernel_report(L3, 8)
    assert report.ok
    for r in report.degrees:
        free = graded_piece_dim(len(L3.variables), r.degree)
        assert r.stratum_ideal_dim == free - betti_from_presentation(L3, kernel, r.degree)


def test_restrict_to_subspace_anchors():
    # the full relation dies on any coordinate subspace
    rel = P3.relations[0]
    assert restrict_to_subspace(P3, rel, (0, 1)).is_zero()
    # killing all but the top coordinate turns the top lift into its Euler class
    lift3 = thom_gysin_lift(P3, PnStratum(Fraction(3)))
    assert str(restrict_to_subspace(P3, lift3, (0,))) == "-48*a^3"
    z = parse(P3, "z")
    assert restrict_to_subspace(P3, z, (0, 1)) == z
    with pytest.raises(ValueError):
        restrict_to_subspace(L3, parse(L3, "z1"), (0,))
