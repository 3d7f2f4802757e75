"""Cohomology presentations, stratum-ideal kernels, Betti numbers, the
reflection-group bijection, and the two-sided vanishing kernel."""

import itertools
import json
import os
import random
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fraction_oracle as oracle
import moment_strata
from moment_strata import (GradedPolynomial, VerificationFailed, WeylSymmetryRequired,
                           betti_from_presentation, in_relation_span, index_set,
                           line_product_model, line_product_presentation,
                           projective_space_presentation,
                           quotient_poincare_polynomial, restrict_to_subspace,
                           sl2_kernel_ideal, thom_gysin_lift,
                           tolman_weitsman_kernel, torus_kernel_ideal,
                           torus_strata, two_sided_kernel_report,
                           weyl_kernel_bijection_report)
from moment_strata.kirwan import (KernelIdeal, Presentation, Stratum,
                                  TwoSidedKernelDegree, TwoSidedKernelReport,
                                  WeylBijectionDegree, WeylBijectionReport,
                                  _filtration_of, _side_vanishing)
from moment_strata.linalg import SpanBasis, null_space
from moment_strata.polynomials import (divide_exact, exponents_of_degree,
                                       graded_piece_dim)
from moment_strata.residues import (_restrict, fixed_components, restrict_to_component,
                                    restriction_matrix)

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


def stratum(pres, label):
    return {s.label: s for s in torus_strata(pres)}[label]


def codimension(s):
    return 2 * len(s.kills)


def test_torus_strata_and_codimensions():
    assert [s.label for s in torus_strata(P3)] == ["beta=-3", "beta=-1",
                                                   "beta=1", "beta=3"]
    top = stratum(P3, "beta=3")
    assert top.kills == (("z", 1), ("z", -1), ("z", -3))
    assert codimension(top) == 6
    assert codimension(stratum(P3, "beta=1")) == 4
    l4_strata = list(torus_strata(L4))
    assert len(l4_strata) == 10  # subsets of size 3 and 4, two signs each
    s123 = stratum(L4, "J=1,2,3;sigma=+1")
    assert s123 == Stratum("J=1,2,3;sigma=+1", (("z1", 1), ("z2", 1), ("z3", 1)))
    assert codimension(s123) == 6


# P^1..P^8 with the weights n, n-2, ..., -n, and the golden weight sets
# p3rep, p4zero, p3half, p3rat and p2asym
SCAN_CASES = [list(range(n, -n - 1, -2)) for n in range(1, 9)] + [
    [1, 1, -1, -1], [2, 1, 0, -1, -2], ["3/2", "1/2", "-1/2", "-3/2"],
    ["5/2", "1/3", -1, -2], [2, 1, -1]]


@pytest.mark.parametrize("weights", SCAN_CASES, ids=str)
def test_pn_strata_match_the_profile_scan(weights):
    pres = projective_space_presentation(weights)
    expected = [(f"beta={b}", 2 * sum(1 for w in pres.factors[0] if w * b < b * b))
                for b in (s.beta[0] for s in index_set(pres.model())) if b != 0]
    assert [(s.label, codimension(s)) for s in torus_strata(pres)] == expected


def test_thom_gysin_lift_anchors():
    lift3 = thom_gysin_lift(P3, stratum(P3, "beta=3"))
    assert str(lift3) == "3*a^3 - z*a^2 - 3*z^2*a + z^3"
    # product of Euler factors z + w*a over the killed weights
    z, a = (GradedPolynomial.var(P3.variables, v) for v in ("z", "a"))
    expected = (z + a) * (z - a) * (z - a.scale(3))
    assert lift3 == expected
    lift_l = thom_gysin_lift(L4, stratum(L4, "J=1,2,3;sigma=+1"))
    zs = [GradedPolynomial.var(L4.variables, f"z{j}") for j in (1, 2, 3)]
    a4 = GradedPolynomial.var(L4.variables, "a")
    prod = (zs[0] + a4) * (zs[1] + a4) * (zs[2] + a4)
    assert lift_l == prod


def test_lift_degree_matches_codimension():
    for pres, labels in ((P3, ("beta=1", "beta=-3")),
                         (L4, ("J=1,2,4;sigma=-1", "J=1,2,3,4;sigma=+1"))):
        for label in labels:
            s = stratum(pres, label)
            assert thom_gysin_lift(pres, s).degree() == codimension(s)


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


HIGH_DEGREE_CASES = [
    (lambda: projective_space_presentation([1, -1]), torus_kernel_ideal, 3000, 0),
    (lambda: projective_space_presentation([1, -1]), sl2_kernel_ideal, 3000, 0),
    (lambda: line_product_presentation(2), torus_kernel_ideal, 2400, 2),
]


@pytest.mark.parametrize("make,ideal,degree,expected", HIGH_DEGREE_CASES,
                         ids=["p1-torus", "p1-sl2", "l2-torus"])
def test_first_span_asked_at_a_high_degree(make, ideal, degree, expected):
    """Spans below the degree asked are built in a loop, not by one Python
    frame per degree, and agree with asking the degrees in ascending order."""
    pres = make()
    assert betti_from_presentation(pres, ideal(pres, degree), degree) == expected
    pres = make()
    kernel = ideal(pres, degree)
    assert betti_row(pres, kernel, degree)[-1] == expected


def test_span_entries_stay_small_on_six_lines():
    # each level of the filtration is built from the rows new at the level
    # below, so any growth of the stored rows compounds (back-reduced rows
    # reach 97 bits)
    pres = line_product_presentation(6)
    rows = _filtration_of(pres, torus_kernel_ideal(pres, 12)).level(6).basis_rows()
    assert rows
    assert max(abs(v).bit_length() for row in rows for v in row.values()) < 16


SEVEN_LINES_SL2 = textwrap.dedent("""
    from moment_strata import (betti_from_presentation, line_product_presentation,
                               sl2_kernel_ideal, weyl_kernel_bijection_report)
    pres = line_product_presentation(7)
    kernel = sl2_kernel_ideal(pres, 14)
    print([betti_from_presentation(pres, kernel, d) for d in range(0, 15, 2)])
    print(weyl_kernel_bijection_report(pres, 14).ok)
""")


def test_seven_lines_betti_match_the_series_in_both_groups():
    # the presented ring modulo the stratum ideal against the localized
    # series, to degree 14 on L^7
    model, pres = line_product_model(7), line_product_presentation(7)

    def series_betti(group):
        even = quotient_poincare_polynomial(model, 40, group)[0::2]
        return even + [0] * (8 - len(even))

    assert betti_row(pres, torus_kernel_ideal(pres, 14), 14) == series_betti("torus")
    # the reflection group runs apart, so that a span build that does not
    # finish fails at the timeout instead of hanging the suite
    env = dict(os.environ)
    src = str(Path(moment_strata.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", SEVEN_LINES_SL2], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [str(series_betti("sl2")), "True"]


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


def test_kernel_of_another_presentation_is_rejected():
    kernel = torus_kernel_ideal(P3, 8)
    # same variables and basis as P3, so the spans would otherwise apply
    other = projective_space_presentation([2, 1, -1, -2])
    with pytest.raises(ValueError, match="another presentation"):
        betti_from_presentation(other, kernel, 4)
    with pytest.raises(ValueError, match="another presentation"):
        in_relation_span(other, kernel, parse(other, "z^2"))
    # an equal presentation built separately is the same presentation
    assert betti_from_presentation(projective_space_presentation([3, 1, -1, -3]),
                                   kernel, 4) == 1


def test_presentation_memo_is_per_object():
    pres = projective_space_presentation([3, 1, -1, -3])
    kernel = torus_kernel_ideal(pres, 8)
    assert torus_kernel_ideal(pres, 8) is kernel
    assert pres.memo
    copy = Presentation(pres.factors)
    assert copy == pres and hash(copy) == hash(pres)
    assert copy.memo == {} and copy.memo is not pres.memo
    assert torus_kernel_ideal(copy, 8) == kernel
    assert torus_kernel_ideal(copy, 8) is not kernel


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
    lift3 = thom_gysin_lift(P3, stratum(P3, "beta=3"))
    assert str(restrict_to_subspace(P3, lift3, (0,))) == "-48*a^3"
    z = parse(P3, "z")
    assert restrict_to_subspace(P3, z, (0, 1)) == z
    with pytest.raises(ValueError):
        restrict_to_subspace(L3, parse(L3, "z1"), (0,))


# ---------------------------------------------------------------------------
# the free-ring reference: every span taken in Q[z, a], with the relations
# as extra rows


class FreeSpans:
    """Degreewise row spans of an ideal in the free graded ring."""

    def __init__(self, variables, gens):
        self.variables = variables
        self.nv = len(variables)
        self.by_degree = {}
        self.gens_at = {}
        for g in gens:
            if not g.is_zero():
                self.gens_at.setdefault(g.degree(), []).append(g)

    def index(self, d):
        return {e: i for i, e in enumerate(exponents_of_degree(self.nv, d // 2))}

    def span(self, d):
        hit = self.by_degree.get(d)
        if hit is not None:
            return hit
        sb = SpanBasis()
        idx = self.index(d)
        if d >= 2:
            prev = exponents_of_degree(self.nv, (d - 2) // 2)
            for row in self.span(d - 2).basis_rows():
                for i in range(self.nv):
                    sb.add_int_row({idx[prev[c][:i] + (prev[c][i] + 1,) + prev[c][i + 1:]]: v
                                    for c, v in row.items()})
        for g in self.gens_at.get(d, ()):
            sb.add(self.vector_of(g, d))
        self.by_degree[d] = sb
        return sb

    def parity_span(self, d, parity):
        exps = exponents_of_degree(self.nv, d // 2)
        out = SpanBasis()
        for row in self.span(d).basis_rows():
            filtered = {c: v for c, v in row.items() if exps[c][-1] % 2 == parity}
            if filtered:
                out.add_int_row(filtered)
        return out

    def vector_of(self, poly, d):
        idx = self.index(d)
        return {idx[e]: c for e, c in poly.terms}

    def poly_of(self, row, d):
        exps = exponents_of_degree(self.nv, d // 2)
        return GradedPolynomial.from_dict(
            self.variables, {exps[c]: Fraction(v) for c, v in row.items()})


def free_spans(pres, kernel):
    gens = list(pres.relations)
    if kernel is not None:
        gens += [g for _, g in kernel.generators]
    return FreeSpans(pres.variables, gens)


def free_betti(pres, kernel, d):
    spans = free_spans(pres, kernel)
    if kernel is None or kernel.group == "torus":
        return graded_piece_dim(spans.nv, d) - spans.span(d).dim
    inv = sum(1 for e in exponents_of_degree(spans.nv, d // 2) if e[-1] % 2 == 0)
    return inv - spans.parity_span(d, 0).dim


def free_in_span(spans, poly):
    return all(spans.span(d).contains(spans.vector_of(poly.graded_piece(d), d))
               for d in {2 * sum(e) for e, _ in poly.terms})


def free_bijection(pres, max_degree, folded, torus):
    base = free_spans(pres, None)
    g_spans = free_spans(pres, folded)
    t_spans = free_spans(pres, torus)
    a2 = pres.alpha.scale(2)
    out = []
    for d in range(0, max_degree + 1, 2):
        zg, kg = base.parity_span(d, 0), g_spans.parity_span(d, 0)
        za, kt = base.parity_span(d + 2, 1), t_spans.parity_span(d + 2, 1)
        lhs = SpanBasis()
        for row in za.basis_rows():
            lhs.add_int_row(row)
        for row in kg.basis_rows():
            lhs.add(t_spans.vector_of(g_spans.poly_of(row, d) * a2, d + 2))
        injective = lhs.dim - za.dim == kg.dim - zg.dim
        spans_equal = lhs.dim == kt.dim and all(
            lhs.contains(row) for row in kt.basis_rows())
        inverse_ok = all(
            kg.contains(g_spans.vector_of(divide_exact(t_spans.poly_of(row, d + 2), a2), d))
            for row in kt.basis_rows())
        out.append(WeylBijectionDegree(d, kg.dim - zg.dim, kt.dim - za.dim,
                                       injective, spans_equal, inverse_ok))
    return WeylBijectionReport(tuple(out))


def free_two_sided_kernel(pres, d):
    """The vanishing-locus kernel over all free monomials of degree d."""
    comps = fixed_components(pres.model())
    exps = exponents_of_degree(len(pres.variables), d // 2)
    span = SpanBasis()
    for side in ([c for c in comps if c.mu <= 0], [c for c in comps if c.mu >= 0]):
        rows = [row for c in side for row in restriction_matrix(c, exps)]
        for v in null_space(rows, len(exps)):
            span.add({i: c for i, c in enumerate(v) if c != 0})
    return span


def free_two_sided(pres, max_degree):
    """The two-sided kernel report, and the kernel per degree."""
    spans = free_spans(pres, torus_kernel_ideal(pres, max_degree))
    entries, kernels = [], {}
    for d in range(0, max_degree + 1, 2):
        tw = kernels[d] = free_two_sided_kernel(pres, d)
        ideal = spans.span(d)
        contained = all(ideal.contains(row) for row in tw.basis_rows())
        entries.append(TwoSidedKernelDegree(d, tw.dim, ideal.dim,
                                            contained and tw.dim == ideal.dim))
    return TwoSidedKernelReport(tuple(entries)), kernels


def restricted_vanishes(pres, stratum, comp):
    """Whether a stratum's lift restricts to zero on a fixed component: the
    factor zi + w*a maps to hi + (w - vi)*a, a non-zero-divisor unless
    w = vi, and hi^sizei = 0."""
    return any(sum(pres.variables.index(var) == i and w == v for var, w in stratum.kills) >= size
               for i, (v, size) in enumerate(zip(comp.values, comp.sizes)))


def restricted_sides(pres):
    """The fixed components, and their indices with moment value <= 0, >= 0
    and all of them."""
    comps = fixed_components(pres.model())
    return comps, ([j for j, c in enumerate(comps) if c.mu <= 0],
                   [j for j, c in enumerate(comps) if c.mu >= 0], range(len(comps)))


def restricted_two_sided(pres, max_degree):
    """The two-sided kernel report from the ranks of the restrictions. Each
    generator must vanish on one whole side, component by component. A
    column's image at a = 1, by component and h-exponents, does not depend on
    the degree, so the ranks rk-, rk+ and rk of the restrictions to either
    side and to all components grow by each level's new columns, and K- + K+
    has dimension (N - rk-) + (N - rk+) - (N - rk) on N columns."""
    comps, sides = restricted_sides(pres)
    for s in torus_strata(pres):
        if 2 * len(s.kills) <= max_degree and not any(
                all(restricted_vanishes(pres, s, comps[j]) for j in side) for side in sides[:2]):
            raise VerificationFailed("a stratum lift vanishes on neither side",
                                     witness={"generator": s.label})
    filt = _filtration_of(pres, torus_kernel_ideal(pres, max_degree))
    ranks = [SpanBasis() for _ in sides]
    cols = sorted(filt.cols, key=sum)
    done = 0
    entries = []
    for d in range(0, max_degree + 1, 2):
        for x in itertools.takewhile(lambda x: sum(x) <= d // 2, cols[done:]):
            images = [_restrict(c, x + (0,)) for c in comps]
            for side, rank in zip(sides, ranks):
                rank.add({(j, he): c for j in side for he, c in images[j].items()})
            done += 1
        two_sided = done - ranks[0].dim - ranks[1].dim + ranks[2].dim
        ideal, rel = filt.dim(d // 2), graded_piece_dim(len(pres.variables), d) - done
        entries.append(TwoSidedKernelDegree(d, two_sided + rel, ideal + rel, two_sided == ideal))
    return TwoSidedKernelReport(tuple(entries))


def free_side_vanishing(pres, stratum):
    """Whether a stratum's lift restricts to zero on every fixed component
    with moment value <= 0, and on every one with value >= 0, restricting the
    lift itself."""
    model, lift = pres.model(), thom_gysin_lift(pres, stratum)
    comps = fixed_components(model)
    return tuple(all(restrict_to_component(model, lift, c).is_zero()
                     for c in comps if sign * c.mu <= 0) for sign in (1, -1))


# P^1..P^6 with symmetric, repeated, zero and rational weights, and L^1..L^7;
# each with the degree cap the oracle comparisons run to
LINES = [(line_product_presentation(n), min(2 * n + 2, 8)) for n in range(1, 7)] + [
    # degree 10 keeps each L^7 oracle comparison under about 3 s
    (line_product_presentation(7), 10)]
SYMMETRIC = [
    (projective_space_presentation([1, -1]), 8),
    (projective_space_presentation([1, 0, -1]), 8),
    (projective_space_presentation(["3/2", "1/2", "-1/2", "-3/2"]), 10),
    (projective_space_presentation([1, 1, -1, -1]), 10),
    (projective_space_presentation([2, 1, 0, -1, -2]), 12),
    (projective_space_presentation([1, 1, 0, -1, -1]), 12),
    (projective_space_presentation([5, 3, 1, -1, -3, -5]), 14),
    (projective_space_presentation([3, 2, 1, 0, -1, -2, -3]), 16),
] + LINES
ASYMMETRIC = [
    (projective_space_presentation([2, 1]), 6),
    (projective_space_presentation([2, 1, -1]), 8),
    (projective_space_presentation(["5/2", "1/3", -1, -2]), 12),
    (projective_space_presentation([3, "1/2", 0, 0, -1, "-7/3"]), 14),
]
ALL = SYMMETRIC + ASYMMETRIC


def _name(case):
    # L^1 has the presentation of P(1,-1), with its own degree cap
    pres, _ = case
    if case in LINES or len(pres.factors) > 1:
        return f"L{len(pres.factors)}"
    return "P(" + ",".join(map(str, pres.factors[0])) + ")"


def _kernels(pres, top):
    # beside the stratum ideals, the ideal of the first coordinate class,
    # whose spans need the relations' lower terms in every degree
    z = GradedPolynomial.var(pres.variables, pres.variables[0])
    out = [None, torus_kernel_ideal(pres, top),
           KernelIdeal("torus", "semistable", top, (("z", z),), pres)]
    if (pres, top) in SYMMETRIC:
        out += [sl2_kernel_ideal(pres, top),
                KernelIdeal("sl2", "semistable", top, (("z^2", z * z),), pres)]
        if all(sorted(fac) == [-1, 1] for fac in pres.factors):
            out.append(sl2_kernel_ideal(pres, top, "stable"))
    return out


def _random_poly(rng, pres, d):
    """A random combination of free monomials of degree d."""
    v = pres.variables
    terms = {e: Fraction(rng.randint(-3, 3), rng.randint(1, 2))
             for e in rng.sample(exponents_of_degree(len(v), d // 2),
                                 k=min(3, graded_piece_dim(len(v), d)))}
    return GradedPolynomial.from_dict(v, terms)


@pytest.mark.parametrize("case", ALL, ids=_name)
def test_normal_form_against_the_free_ring(case):
    pres, top = case
    relations = free_spans(pres, None)
    reflection_stable = (pres, top) in SYMMETRIC
    for d in range(0, top + 1, 2):
        basis = pres.basis(d)
        assert list(basis) == sorted(basis)
        assert all(2 * sum(b) == d for b in basis)
        # Q_d has the dimension of the free piece modulo the relations
        assert len(basis) == graded_piece_dim(len(pres.variables), d) - relations.span(d).dim
        for b in basis:
            assert pres.normal_form(b) == {b: 1}
        for e in exponents_of_degree(len(pres.variables), d // 2):
            nf = pres.normal_form(e)
            assert set(nf) <= set(basis)
            rel = {f: -c for f, c in nf.items()}
            rel[e] = rel.get(e, 0) + 1
            assert free_in_span(relations, GradedPolynomial.from_dict(pres.variables, rel))
            # multiplication by a shifts the a-exponent of every term
            up = pres.normal_form(e[:-1] + (e[-1] + 1,))
            assert up == {f[:-1] + (f[-1] + 1,): c for f, c in nf.items()}
            if reflection_stable:
                assert all(f[-1] % 2 == e[-1] % 2 for f in nf)


@pytest.mark.parametrize("case", ALL, ids=_name)
def test_betti_and_membership_match_the_free_ring(case):
    pres, top = case
    rng = random.Random(2024)
    for kernel in _kernels(pres, top):
        spans = free_spans(pres, kernel)
        gens = list(pres.relations) + [g for _, g in getattr(kernel, "generators", ())]
        for d in range(0, top + 1, 2):
            assert betti_from_presentation(pres, kernel, d) == free_betti(pres, kernel, d)
            polys = [_random_poly(rng, pres, d) for _ in range(3)]
            for g in gens:
                if g.degree() <= d:
                    e = rng.choice(exponents_of_degree(len(pres.variables), (d - g.degree()) // 2))
                    polys.append(g * GradedPolynomial(pres.variables, ((e, Fraction(1)),)))
            polys.append(polys[-1] + polys[0])
            for poly in polys:
                assert in_relation_span(pres, kernel, poly) == free_in_span(spans, poly)


@pytest.mark.parametrize("case", SYMMETRIC, ids=_name)
def test_weyl_bijection_matches_the_free_ring(case):
    pres, top = case
    expected = free_bijection(pres, top - 2, sl2_kernel_ideal(pres, top - 2),
                              torus_kernel_ideal(pres, top))
    assert weyl_kernel_bijection_report(pres, top - 2) == expected


@pytest.mark.parametrize("case", [c for c in SYMMETRIC if _name(c) in (
    "P(3/2,1/2,-1/2,-3/2)", "P(5,3,1,-1,-3,-5)", "L4")], ids=_name)
def test_weyl_bijection_flags_a_folded_kernel_with_too_few_generators(case, monkeypatch):
    from moment_strata import kirwan

    pres, top = case
    folded = sl2_kernel_ideal(pres, top - 2)
    broken = KernelIdeal(folded.group, folded.target, folded.max_degree,
                         folded.generators[:1], folded.presentation)
    monkeypatch.setattr(kirwan, "sl2_kernel_ideal", lambda *args, **kw: broken)
    report = weyl_kernel_bijection_report(pres, top - 2)
    assert report == free_bijection(pres, top - 2, broken, torus_kernel_ideal(pres, top))
    assert not all(r.inverse_ok for r in report.degrees)


@pytest.mark.parametrize("case", ALL, ids=_name)
def test_two_sided_kernel_matches_the_free_ring(case):
    pres, top = case
    report, kernels = free_two_sided(pres, top)
    assert two_sided_kernel_report(pres, top) == report
    for d, basis in tolman_weitsman_kernel(pres, top).items():
        index = {e: i for i, e in enumerate(exponents_of_degree(len(pres.variables), d // 2))}
        span = SpanBasis()
        for poly in basis:
            assert span.add({index[e]: c for e, c in poly.terms})
        reference = kernels[d]
        assert span.dim == reference.dim
        assert all(reference.contains(row) for row in span.basis_rows())


@pytest.mark.parametrize("case", [c for c in ALL if _name(c) in (
    "P(3/2,1/2,-1/2,-3/2)", "P(3,1/2,0,0,-1,-7/3)", "L4")], ids=_name)
def test_two_sided_report_flags_a_stratum_ideal_with_a_missing_generator(case, monkeypatch):
    from moment_strata import kirwan

    pres, top = case
    strata = kirwan.torus_strata
    # a stratum of least codimension: its lift is in no other's ideal
    monkeypatch.setattr(kirwan, "torus_strata",
                        lambda p: tuple(sorted(strata(p), key=lambda s: len(s.kills)))[1:])
    pres = Presentation(pres.factors)
    report = two_sided_kernel_report(pres, top)
    assert report == free_two_sided(pres, top)[0]
    assert not report.ok


@pytest.mark.parametrize("case", ALL + [(line_product_presentation(8), 16)], ids=_name)
def test_counted_report_matches_the_restricted_ranks(case):
    """The side ranks by count against the ranks of the restrictions, also on
    L^8, past the free ring's cap; the per-factor vanishing rule against the
    component-by-component one on every stratum and side, and on the
    hand-made loci of no coordinate and of each single coordinate, which
    kill part of a repeated weight or leave a side's least sum at zero."""
    pres, top = case
    assert two_sided_kernel_report(pres, top) == restricted_two_sided(pres, top)
    comps, sides = restricted_sides(pres)
    single = [Stratum(f"{var}:{w}", ((var, w),))
              for var, fac in zip(pres.variables, pres.factors) for w in fac]
    for s in torus_strata(pres) + (Stratum("none", ()),) + tuple(single):
        assert _side_vanishing(pres, s) == tuple(
            all(restricted_vanishes(pres, s, comps[j]) for j in side) for side in sides[:2])


WEIGHTS = st.sampled_from([-3, -2, Fraction(-3, 2), -1, Fraction(-1, 2), 0,
                           Fraction(1, 2), 1, Fraction(3, 2), 2, 3])


@settings(max_examples=150, deadline=None)
@given(st.lists(st.lists(WEIGHTS, min_size=2, max_size=4), min_size=1, max_size=3))
@example([[1, 1, -1, -1]])
@example([[0, 0, 1], [Fraction(1, 2), Fraction(-1, 2)]])
@example([[2, 2], [1, 0, -1]])
@example([[0, 0], [0, 0, 0]])
def test_counted_report_matches_the_free_ring_on_products(weights):
    """Rank-1 products of one to three factors, with repeated, zero and
    half-integer weights: the report, or the stratum it fails on, against
    the free ring and the lifts restricted to each component."""
    pres = Presentation(tuple(tuple(Fraction(w) for w in fac) for fac in weights))
    top = min(6, 2 * sum(len(fac) - 1 for fac in weights) + 2)
    failing = [s.label for s in torus_strata(pres)
               if 2 * len(s.kills) <= top and not any(free_side_vanishing(pres, s))]
    if failing:
        with pytest.raises(VerificationFailed) as info:
            two_sided_kernel_report(pres, top)
        assert info.value.witness == {"generator": failing[0]}
    else:
        assert two_sided_kernel_report(pres, top) == free_two_sided(pres, top)[0]


@pytest.mark.parametrize("case", ALL, ids=_name)
def test_tolman_weitsman_basis_is_the_reduced_row_echelon_form(case):
    pres, top = case
    for d, polys in tolman_weitsman_kernel(pres, top).items():
        cols = {e: i for i, e in enumerate(pres.basis(d))}
        # the kernel rows on normal-form monomials; each relation e - nf(e)
        # has a monomial e outside them
        rows = []
        for poly in polys:
            if all(e in cols for e, _ in poly.terms):
                row = [Fraction(0)] * len(cols)
                for e, c in poly.terms:
                    row[cols[e]] = c
                rows.append(row)
        reduced, pivots = oracle.rref(rows)
        assert len(pivots) == len(rows)
        assert [[x / next(y for y in row if y) for x in row] for row in rows] == reduced


def test_kirwan_command_builds_each_lift_once(tmp_path, monkeypatch, capsys):
    from moment_strata import cli, kirwan

    built = []
    lift = kirwan.thom_gysin_lift
    monkeypatch.setattr(kirwan, "thom_gysin_lift",
                        lambda pres, s: built.append(s) or lift(pres, s))
    model = _l6_model(tmp_path)
    argv = ["kirwan", model, "--group", "sl2", "--target", "s", "--max-degree", "8"]
    assert cli.main(argv) == 0
    capsys.readouterr()
    # subsets of 3, 4 and 5 lines on both poles: the stable generators of
    # degree <= 8 and the torus generators of degree <= 10
    assert len(built) == len(set(built)) == 2 * (20 + 15 + 6)
    built.clear()
    assert cli.main(["kirwan", model, "--max-degree", "8"]) == 0
    assert len(built) == len(set(built)) == 2 * 15


def _l6_model(tmp_path):
    model = tmp_path / "l6.json"
    model.write_text(json.dumps({"rank": 1, "factors": [[["1"], ["-1"]]] * 6}))
    return str(model)


def test_torus_kirwan_command_restricts_nothing(tmp_path, monkeypatch, capsys):
    """A torus run counts its side ranks: it restricts no class to a fixed
    component, lists no component and takes no null space."""
    from moment_strata import cli, kirwan, linalg, residues

    def forbidden(*args):
        raise AssertionError("called off the kirwan command's path")

    for module in (kirwan, residues, linalg):
        for name in ("_restrict", "restriction_matrix", "null_space", "fixed_components"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, forbidden)
    assert cli.main(["kirwan", _l6_model(tmp_path), "--max-degree", "12"]) == 0
    assert '"ok": true' in capsys.readouterr().out


def test_a_generator_vanishing_on_neither_side_is_a_failure(tmp_path, monkeypatch, capsys):
    """A generator whose lift vanishes on no whole side has no proof of
    containment in the two-sided kernel: the report raises, naming it, and
    the command exits 3 with that witness instead of reporting equality."""
    from moment_strata import VerificationFailed, cli, kirwan

    strata = kirwan.torus_strata
    monkeypatch.setattr(kirwan, "torus_strata",
                        lambda pres: strata(pres) + (Stratum("unkilled", ()),))
    with pytest.raises(VerificationFailed) as info:
        two_sided_kernel_report(line_product_presentation(3), 8)
    assert info.value.witness == {"generator": "unkilled"}
    assert cli.main(["kirwan", _l6_model(tmp_path), "--max-degree", "8"]) == 3
    out = capsys.readouterr().out
    assert json.loads(out)["error"]["witness"] == {"generator": "unkilled"}
    assert '"equal"' not in out


# ---------------------------------------------------------------------------
# the per-kind stratum rules that the one rule replaced, kept as an oracle


def _two_kind_fields(pres):
    """The fields of the two-kind presentation: kind "pn" with the weights
    and the projective dimension, or "p1n" with n lines."""
    if len(pres.factors) == 1:
        return SimpleNamespace(kind="pn", weights=pres.factors[0], n=len(pres.factors[0]) - 1)
    assert all(sorted(fac) == [-1, 1] for fac in pres.factors)
    return SimpleNamespace(kind="p1n", weights=(), n=len(pres.factors))


def _pn_stratum(pres, beta):
    return Stratum(f"beta={beta}", tuple(("z", w) for w in pres.weights
                                         if w * beta < beta * beta))


def _line_stratum(subset, sigma):
    """The stratum where the lines in `subset` (1-based) sit on pole sigma."""
    return Stratum(f"J={','.join(map(str, subset))};sigma={sigma:+d}",
                   tuple((f"z{j}", Fraction(sigma)) for j in subset))


def two_kind_torus_strata(pres):
    if pres.kind == "pn":
        return tuple(_pn_stratum(pres, b)
                     for b in sorted(set(pres.weights)) if b != 0)
    n = pres.n
    return tuple(_line_stratum(subset, sigma)
                 for size in range(n // 2 + 1, n + 1)
                 for subset in itertools.combinations(range(1, n + 1), size)
                 for sigma in (1, -1))


def two_kind_sl2_pairs(pres, target):
    if pres.kind == "pn" and target == "stable":
        raise ValueError("the stable target is defined for products of lines only")
    if pres.kind == "pn":
        return [(f"beta={b}", _pn_stratum(pres, b), _pn_stratum(pres, -b))
                for b in sorted(set(pres.weights)) if b > 0]
    n = pres.n
    low = n // 2 if target == "stable" and n % 2 == 0 else n // 2 + 1
    return [("J=" + ",".join(map(str, subset)),
             _line_stratum(subset, 1), _line_stratum(subset, -1))
            for size in range(low, n + 1)
            for subset in itertools.combinations(range(1, n + 1), size)]


def assert_one_rule_matches_the_two_kinds(pres):
    """Labels, kills and order of the torus strata and of the sl2 pairs of
    both targets, where the model is negation-symmetric."""
    from moment_strata import kirwan

    old = _two_kind_fields(pres)
    assert torus_strata(pres) == two_kind_torus_strata(old)
    if any(sorted(fac) != sorted(-w for w in fac) for fac in pres.factors):
        return
    semistable = kirwan._pairs(pres, False)
    assert semistable == two_kind_sl2_pairs(old, "semistable")
    if old.kind == "p1n":
        assert kirwan._pairs(pres, True) == two_kind_sl2_pairs(old, "stable")
    elif sorted(old.weights) == [-1, 1]:
        # P(1,-1) is L^1, whose stable target is its semistable one
        assert kirwan._pairs(pres, True) == semistable
        assert sl2_kernel_ideal(pres, 4, "stable").generators == \
            sl2_kernel_ideal(pres, 4).generators
    else:
        with pytest.raises(ValueError, match="products of lines only"):
            sl2_kernel_ideal(pres, 4, "stable")


@pytest.mark.parametrize("case", ALL, ids=_name)
def test_one_stratum_rule_matches_the_two_kinds_on_the_oracle_cases(case):
    assert_one_rule_matches_the_two_kinds(case[0])


@pytest.mark.parametrize("n", range(1, 10))
def test_one_stratum_rule_matches_the_two_kinds_on_lines(n):
    assert_one_rule_matches_the_two_kinds(line_product_presentation(n))


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(-10, 10).map(lambda k: Fraction(k, 2)), min_size=2, max_size=7),
       st.booleans())
def test_one_stratum_rule_matches_the_two_kinds_on_projective_spaces(weights, symmetric):
    """Integer and half-integer weights in [-5, 5], repeats and zeros
    allowed; half the draws made negation-symmetric."""
    if symmetric:
        half = weights[:len(weights) // 2]
        weights = half + [-w for w in half] + [Fraction(0)] * (len(weights) % 2)
    assert_one_rule_matches_the_two_kinds(projective_space_presentation(weights))


def test_presentation_has_no_kind():
    from moment_strata import kirwan

    assert "kind" not in Presentation.__slots__ and not hasattr(L3, "kind")
    source = Path(kirwan.__file__).read_text()
    assert ".kind" not in source and '"p1n"' not in source


@pytest.mark.parametrize("kernel", [None, torus_kernel_ideal(P3, 8)])
def test_in_relation_span_rejects_a_polynomial_from_another_ring(kernel):
    """w^4 over (w, a) would read as z^4, and z1*z2 over L^2's ring has
    exponents that P^3's columns do not index."""
    for poly in (GradedPolynomial.parse(("w", "a"), "w^4"),
                 parse(line_product_presentation(2), "z1*z2")):
        with pytest.raises(ValueError, match="polynomials live in different rings"):
            in_relation_span(P3, kernel, poly)
