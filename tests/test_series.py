"""Equivariant series, the stratum recursion, perfection checks, and the
quotient polynomials with their obstructions."""

import itertools
from fractions import Fraction

import pytest

from moment_strata import (NotCoprimeStable, TruncationTooSmall,
                           WeylSymmetryRequired, line_product_model,
                           model_equivariant_series, perfection_check,
                           projective_space_model,
                           quotient_poincare_polynomial, semistable_series,
                           sl2_quotient_series, strictly_semistable_witness,
                           weighted_model)
from moment_strata import GradedPolynomial, models, series
from moment_strata.residues import raw_residue_sum
from moment_strata.series import (TruncatedSeries, quotient_top_degree,
                                  require_quotient)

from conftest import pn_model


def even_coeffs(series, upto):
    return [series.coeffs[d] for d in range(0, upto + 1, 2)]


def test_truncated_series_arithmetic():
    one = TruncatedSeries.one(6)
    geo = one.divide_one_minus(2)  # 1/(1-t^2)
    assert geo.coeffs == (1, 0, 1, 0, 1, 0, 1)
    assert (geo * geo).coeffs == (1, 0, 2, 0, 3, 0, 4)
    assert geo.shift(2).coeffs == (0, 0, 1, 0, 1, 0, 1, 0, 1)
    assert (geo - geo).coeffs == (0,) * 7


def test_equivariant_series_of_single_line():
    # H_T of a line: (1 + t^2) / (1 - t^2)
    s = model_equivariant_series(line_product_model(1), 8)
    assert s.coeffs == (1, 0, 2, 0, 2, 0, 2, 0, 2)


def _factor_product_by_products(sizes, trunc):
    """The factors' polynomials 1 + t^2 + ... + t^(2s-2) as whole truncated
    series, multiplied together: the reference for `series._factor_product`."""
    out = TruncatedSeries.one(trunc)
    for size in sizes:
        out = out * TruncatedSeries.from_coeffs(
            [1 if (d % 2 == 0 and d < 2 * size) else 0 for d in range(trunc + 1)], trunc)
    return out


def test_factor_product_matches_the_product_of_whole_series():
    cases = ([(s,) for s in range(1, 9)]
             + list(itertools.combinations_with_replacement(range(1, 9), 2))
             + [tuple(range(1, 9)), (8,) * 8])
    for sizes in cases:
        model = weighted_model(1, [[[k] for k in range(s)] for s in sizes])
        for trunc in range(41):
            assert (series._factor_product(model, trunc)
                    == _factor_product_by_products(sizes, trunc)), (sizes, trunc)


def test_p1_quotient_is_a_point():
    m = pn_model(1)
    assert quotient_poincare_polynomial(m, 12) == [1]


def test_p3_torus_quotient_poincare():
    m = pn_model(3)
    poly = quotient_poincare_polynomial(m, 20)
    assert poly == [1, 0, 2, 0, 1]


def test_three_line_torus_quotient_poincare():
    m = line_product_model(3)
    poly = quotient_poincare_polynomial(m, 20)
    assert poly == [1, 0, 4, 0, 1]


def test_quotient_polynomials_satisfy_poincare_duality():
    models = [pn_model(1), pn_model(3), pn_model(5),
              line_product_model(3), line_product_model(5)]
    for m in models:
        poly = quotient_poincare_polynomial(m, 40)
        assert poly[0] == 1
        assert poly == poly[::-1]
        assert all(c >= 0 for c in poly)


def test_strictly_semistable_witnesses():
    assert strictly_semistable_witness(pn_model(3)) is None
    assert strictly_semistable_witness(line_product_model(3)) is None
    w4 = strictly_semistable_witness(line_product_model(4))
    assert w4 is not None
    # the witness profile must itself be semistable but not stable
    from moment_strata import classify_profile
    cls = classify_profile(line_product_model(4), w4)
    assert cls.semistable and not cls.stable
    assert strictly_semistable_witness(pn_model(4)) is not None


def test_quotient_polynomial_obstructions():
    with pytest.raises(NotCoprimeStable) as exc:
        quotient_poincare_polynomial(line_product_model(4), 40)
    assert "profile" in exc.value.witness
    with pytest.raises(TruncationTooSmall):
        quotient_poincare_polynomial(pn_model(3), 4)
    with pytest.raises(ValueError):
        quotient_poincare_polynomial(pn_model(3), 40, "sl3")


def test_sl2_quotient_series_values():
    assert even_coeffs(sl2_quotient_series(pn_model(3), 12), 12) == [1] + [0] * 6
    assert even_coeffs(sl2_quotient_series(pn_model(5), 12), 12) == [1, 1, 1, 0, 0, 0, 0]
    assert even_coeffs(sl2_quotient_series(line_product_model(3), 8), 8) == [1, 0, 0, 0, 0]
    assert even_coeffs(sl2_quotient_series(line_product_model(5), 12), 12) == [1, 5, 1, 0, 0, 0, 0]


def test_sl2_quotient_requires_symmetric_weights():
    with pytest.raises(WeylSymmetryRequired):
        sl2_quotient_series(projective_space_model([2, 1, -1]), 8)
    with pytest.raises(WeylSymmetryRequired):
        sl2_quotient_series(weighted_model(2, [[[1, 0], [-1, 0]]]), 8)
    square = weighted_model(2, [[[1, 0], [-1, 0], [0, 1], [0, -1]]])
    with pytest.raises(WeylSymmetryRequired):
        quotient_poincare_polynomial(square, 40, "sl2")


def test_perfection_check_passes_on_reference_models():
    for m in (pn_model(2), pn_model(3), line_product_model(3),
              line_product_model(4)):
        report = perfection_check(m, 24)
        assert report.ok, report.failures
        assert report.strata_checked >= 1
        assert report.failures == ()


def test_recursion_measures_each_model_once(monkeypatch, empty_memo):
    """The recursion-measure check reduces each model's weight span once, and
    every model the recursion reaches is measured."""
    built = []

    class Counted(series.SpanBasis):
        def __init__(self):
            built.append(self)
            super().__init__()

    monkeypatch.setattr(series, "SpanBasis", Counted)
    semistable_series(line_product_model(4), 24)
    semistable_series(weighted_model(2, [[[1, 0], [0, 1], [-1, -1]]] * 3), 12)
    sl2_quotient_series(pn_model(5), 24)
    assert len(built) == len(models._MEMO) > 10
    assert all(record.span is not None for record in models._MEMO.values())


def test_perfection_check_reads_the_memoized_tree(monkeypatch, empty_memo):
    """Each node descends once, when the series builds it; the check then
    walks the stored children and descends no more."""
    calls = []
    descend = series._descend

    def counted(*args):
        calls.append(args)
        return descend(*args)

    monkeypatch.setattr(series, "_descend", counted)
    m = line_product_model(4)
    semistable_series(m, 24)
    built = len(calls)
    report = perfection_check(m, 24)
    assert built > 1 and len(calls) == built
    assert report.ok and report.strata_checked == built


def test_perfection_check_catches_a_wrong_codimension(monkeypatch, empty_memo):
    core = series._components

    def lowered(model, beta):
        cleared, comps = core(model, beta)
        return cleared, [(values, att, codim - 2) for values, att, codim in comps]

    with monkeypatch.context() as patch:
        patch.setattr(series, "_components", lowered)
        report = perfection_check(pn_model(3), 24)
    assert not report.ok
    assert "negative semistable coefficient" in [f["kind"] for f in report.failures]
    # the memo holds the wrong tree; the true codimensions pass on a fresh one
    monkeypatch.setattr(models, "_MEMO", {})
    assert perfection_check(pn_model(3), 24).ok


def test_strata_checked_does_not_depend_on_factor_or_weight_order():
    """Each submodel enters the recursion in one order, so permuting the
    factors and weights of A2 x A2 builds the same eleven nodes."""
    a2 = [[1, 0], [0, 1], [-1, -1]]
    for first in itertools.permutations(a2):
        for second in (a2, a2[::-1]):
            for factors in ([first, second], [second, first]):
                report = perfection_check(weighted_model(2, factors), 40)
                assert report.ok and report.strata_checked == 11, factors


@pytest.mark.parametrize("call", [
    lambda: quotient_top_degree(pn_model(3), "tours"),
    lambda: require_quotient(pn_model(3), "SL2"),
    lambda: raw_residue_sum(pn_model(3), GradedPolynomial.parse(("z", "a"), "1"),
                            GradedPolynomial.parse(("z", "a"), "1"), "u1"),
], ids=["quotient_top_degree", "require_quotient", "raw_residue_sum"])
def test_an_unknown_group_is_a_value_error(call):
    with pytest.raises(ValueError, match="group must be 'torus' or 'sl2'"):
        call()


def test_semistable_series_nonnegative_and_bounded_by_ambient():
    for m in (pn_model(4), line_product_model(4)):
        ss = semistable_series(m, 20)
        full = model_equivariant_series(m, 20)
        assert all(c >= 0 for c in ss.coeffs)
        assert all(a <= b for a, b in zip(ss.coeffs, full.coeffs))


def test_odd_degrees_vanish():
    for m in (pn_model(3), line_product_model(4)):
        ss = semistable_series(m, 15)
        assert all(ss.coeffs[d] == 0 for d in range(1, 16, 2))
