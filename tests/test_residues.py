"""Fixed-point restriction, Euler classes, and the residue pairing with its
normalization and nondegeneracy properties."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moment_strata import (GradedPolynomial, NotCoprimeStable,
                           WeylSymmetryRequired, betti_from_presentation,
                           kernel_by_pairing, line_product_model,
                           line_product_presentation, projective_space_model,
                           projective_space_presentation,
                           quotient_poincare_polynomial, quotient_top_degree,
                           raw_residue_sum, residue_pairing,
                           restrict_to_component, sl2_kernel_ideal, sl2_weyl,
                           torus_kernel_ideal, weighted_model)
from moment_strata import models, residues
from moment_strata.polynomials import exponents_of_degree, monomials
from moment_strata.residues import (_inverse_euler, component_variables,
                                    euler_class, fixed_components,
                                    presented_ring, restriction_matrix)

from conftest import pn_model
from fraction_oracle import laurent_inverse_euler, laurent_mul


def parse(variables, text):
    return GradedPolynomial.parse(variables, text)


def test_fixed_components_of_p3_are_the_four_points():
    m = pn_model(3)
    comps = fixed_components(m)
    assert [c.values[0] for c in comps] == [Fraction(-3), Fraction(-1),
                                           Fraction(1), Fraction(3)]
    assert all(c.sizes == (1,) for c in comps)
    assert [c.mu for c in comps] == [Fraction(-3), Fraction(-1),
                                    Fraction(1), Fraction(3)]


def test_fixed_components_of_line_products():
    m = line_product_model(2)
    comps = fixed_components(m)
    assert len(comps) == 4
    assert sorted(c.mu for c in comps) == [Fraction(-2), Fraction(0),
                                          Fraction(0), Fraction(2)]


def test_fixed_components_need_rank_one():
    with pytest.raises(ValueError):
        fixed_components(weighted_model(2, [[[1, 0], [0, 1]]]))


def test_rank_two_residues_fail_before_any_scan(monkeypatch, empty_memo):
    """The pairing tables live in the model's record, but a rank-2 model is
    refused before its profile scan would run."""
    def scan(model):
        raise AssertionError("profile scan ran")

    monkeypatch.setattr(models, "_profile_scan", scan)
    model = weighted_model(2, [[[1, 0], [0, 1], [-1, -1]]] * 2)
    one = parse(("h1", "h2", "a"), "1")
    with pytest.raises(ValueError, match="rank-one"):
        raw_residue_sum(model, one, one)
    assert models._MEMO == {}


def test_restriction_to_point_components():
    m = pn_model(3)
    z = parse(("z", "a"), "z")
    hvars = component_variables(m)
    for comp in fixed_components(m):
        image = restrict_to_component(m, z, comp)
        # z restricts to -v*a on the point with weight v
        expected = GradedPolynomial.var(hvars, "a").scale(-comp.values[0])
        assert image == expected


def test_restriction_is_a_ring_map():
    m = line_product_model(3)
    v = ("z1", "z2", "z3", "a")
    f = parse(v, "z1*z2 + a^2")
    g = parse(v, "z3 - a")
    for comp in fixed_components(m):
        rf = restrict_to_component(m, f, comp)
        rg = restrict_to_component(m, g, comp)
        rfg = restrict_to_component(m, f * g, comp)
        assert rf * rg == rfg


@pytest.mark.parametrize("model,comp", [
    # same factor count, but L^3 components have three values
    (line_product_model(2), fixed_components(line_product_model(3))[0]),
    # one factor against two
    (pn_model(2), fixed_components(line_product_model(2))[0]),
    (line_product_model(2), fixed_components(pn_model(2))[0]),
    # same shape, values of another model
    (pn_model(3), fixed_components(projective_space_model([2, 1, -1, -2]))[-1]),
], ids=["l2-with-l3", "p2-with-l2", "l2-with-p2", "p3-with-other-weights"])
def test_components_of_another_model_are_refused(model, comp):
    variables = tuple(f"z{i + 1}" for i in range(len(model.factors))) + ("a",)
    poly = parse(variables, "*".join(variables[:-1]))
    with pytest.raises(ValueError, match="not a fixed component"):
        restrict_to_component(model, poly, comp)
    with pytest.raises(ValueError, match="not a fixed component"):
        euler_class(model, comp)


def test_euler_class_of_extreme_point():
    m = pn_model(3)
    comps = fixed_components(m)
    top = comps[-1]
    assert top.values[0] == 3
    e = euler_class(m, top)
    hvars = component_variables(m)
    # normal weights at the top point: (1-3), (-1-3), (-3-3) times a
    assert e == parse(hvars, "-48*a^3")


def test_pairing_values_on_three_lines():
    m = line_product_model(3)
    v = ("z1", "z2", "z3", "a")
    one = parse(v, "1")
    z1z2 = parse(v, "z1*z2")
    assert residue_pairing(m, z1z2, one, "torus") == Fraction(1, 2)
    assert raw_residue_sum(m, z1z2, one, "torus") == Fraction(-1, 4)
    assert residue_pairing(m, one, one, "sl2") == Fraction(1)
    assert raw_residue_sum(m, one, one, "sl2") == Fraction(1)


def test_pairing_normalization_is_constant():
    m = line_product_model(3)
    v = ("z1", "z2", "z3", "a")
    for text_a, text_b in (("z1*z2", "1"), ("z1", "z2"), ("z1*z3", "1")):
        eta, zeta = parse(v, text_a), parse(v, text_b)
        raw = raw_residue_sum(m, eta, zeta, "torus")
        assert residue_pairing(m, eta, zeta, "torus") == raw * Fraction(-2)


def test_pairing_is_symmetric_and_bilinear():
    m = pn_model(3)
    v = ("z", "a")
    z = parse(v, "z")
    za = parse(v, "a")
    assert residue_pairing(m, z, za, "torus") == residue_pairing(m, za, z, "torus")
    lhs = residue_pairing(m, z.scale(3) + za, z, "torus")
    rhs = (residue_pairing(m, z, z, "torus") * 3
           + residue_pairing(m, za, z, "torus"))
    assert lhs == rhs


def test_pairing_vanishes_off_the_top_degree():
    m = pn_model(3)
    v = ("z", "a")
    top = quotient_top_degree(m, "torus")
    assert top == 4
    # degree 2 against degree 0 lands below the fundamental class
    assert residue_pairing(m, parse(v, "z"), parse(v, "1"), "torus") == 0
    # degree sum 8 exceeds it
    assert residue_pairing(m, parse(v, "z^2"), parse(v, "z^2"), "torus") == 0


def test_pairing_requires_coprime_stability():
    m = line_product_model(4)
    v = ("z1", "z2", "z3", "z4", "a")
    with pytest.raises(NotCoprimeStable) as exc:
        residue_pairing(m, parse(v, "1"), parse(v, "1"), "torus")
    assert exc.value.witness["profile"] is not None


def test_sl2_pairing_requires_symmetric_weights():
    m = projective_space_model([2, 1, -1])
    with pytest.raises(WeylSymmetryRequired):
        residue_pairing(m, parse(("z", "a"), "1"), parse(("z", "a"), "1"), "sl2")


def test_pairing_rank_equals_betti_numbers_on_p3():
    m = pn_model(3)
    v = ("z", "a")
    # torus quotient has Poincare polynomial 1 + 2t^2 + t^4
    expected = {0: 1, 2: 2, 4: 1}
    for d, b in expected.items():
        res = kernel_by_pairing(m, v, d, "torus")
        assert res.rank == b
        assert len(res.kernel) == len(res.basis) - res.rank


def test_pairing_kernel_elements_pair_to_zero():
    m = pn_model(3)
    res = kernel_by_pairing(m, ("z", "a"), 2, "torus")
    top = quotient_top_degree(m, "torus")
    for k in res.kernel:
        for comp_basis in res.complementary_basis:
            assert residue_pairing(m, k, comp_basis, "torus") == 0


# ---------------------------------------------------------------------------
# reference algorithms: restriction by substitution, and the residue of
# each product eta*zeta restricted on its own


def _restrict_by_substitution(model, poly, comp):
    """Substitute zi -> hi - vi*a, expand, then drop hi^k with k >= sizei."""
    hvars = component_variables(model)
    m = len(model.factors)
    a = GradedPolynomial.var(hvars, "a")
    images = {hvars[i]: GradedPolynomial.var(hvars, hvars[i]) - a.scale(comp.values[i])
              for i in range(m)}
    moved = GradedPolynomial(hvars, poly.terms).substitute(images)
    kept = {e: c for e, c in moved.terms
            if all(e[i] < comp.sizes[i] for i in range(m))}
    return GradedPolynomial.from_dict(hvars, kept)


def _residue_by_pair(model, eta, zeta, group):
    prod = eta * zeta
    if group == "sl2":
        a = GradedPolynomial.var(eta.variables, eta.variables[-1])
        prod = prod * (a.scale(2) ** 2)
    m = len(model.factors)
    acc = Fraction(0)
    for comp in fixed_components(model):
        if comp.mu <= 0:
            continue
        restricted = _restrict_by_substitution(model, prod, comp)
        num = {(e[:m], e[m]): c for e, c in restricted.terms}
        total = laurent_mul(num, laurent_inverse_euler(model, comp), comp.sizes)
        top = tuple(s - 1 for s in comp.sizes)
        acc += sum((c for (he, ae), c in total.items() if he == top and ae == -1),
                   Fraction(0))
    return acc


# even line counts have fixed components with moment value zero
_RESTRICTION_CASES = (
    [(f"p{n}", pn_model(n)) for n in range(1, 6)]
    + [(f"l{n}", line_product_model(n)) for n in range(1, 6)]
    + [("p3-repeated", projective_space_model([1, 1, -1, -1])),   # sizes 2
       ("p3-zero-weight", projective_space_model([2, 0, 0, -1])),
       # rational weights: the values are cleared by D = 2 and D = 6
       ("p3-halves", projective_space_model(["3/2", "1/2", "-1/2", "-3/2"])),
       ("p2-mixed-denominators", projective_space_model(["1/2", "-1/3", "1/6"])),
       ("p1-times-p2-rational", weighted_model(
           1, [[["1/2"], ["-1/3"]], [["2/3"], ["2/3"], ["-1/2"]]]))]
)
_RESTRICTION_MODELS = [m for _, m in _RESTRICTION_CASES]


@st.composite
def _model_and_class(draw):
    model = draw(st.sampled_from(_RESTRICTION_MODELS))
    nv = len(model.factors) + 1
    variables = tuple(f"z{i}" for i in range(nv - 1)) + ("a",)
    terms = draw(st.dictionaries(
        st.tuples(*[st.integers(0, 4)] * nv),
        st.builds(Fraction, st.integers(-5, 5), st.integers(1, 3)),
        max_size=4))
    comp = draw(st.sampled_from(fixed_components(model)))
    return model, GradedPolynomial.from_dict(variables, terms), comp


@settings(max_examples=200, deadline=None)
@given(_model_and_class())
def test_closed_form_restriction_matches_substitution(case):
    model, poly, comp = case
    assert (restrict_to_component(model, poly, comp)
            == _restrict_by_substitution(model, poly, comp))


@pytest.mark.parametrize("model", _RESTRICTION_MODELS,
                         ids=[name for name, _ in _RESTRICTION_CASES])
def test_restriction_matrix_columns_match_substitution(model):
    m = len(model.factors)
    variables = tuple(f"z{i}" for i in range(m)) + ("a",)
    # one degree at a time, then columns of mixed degrees, whose images
    # share h-exponents and differ only in their power of a
    for degrees in [(d,) for d in range(0, 9, 2)] + [(2, 4), (0, 2, 4, 6)]:
        basis = [mono for d in degrees for mono in monomials(variables, d)]
        exps = [mono.terms[0][0] for mono in basis]
        for comp in fixed_components(model):
            images = [{(e[:m], e[m]): c for e, c in
                       _restrict_by_substitution(model, mono, comp).terms}
                      for mono in basis]
            keys = sorted({key for image in images for key in image})
            expected = [[image.get(key, Fraction(0)) for image in images]
                        for key in keys]
            assert restriction_matrix(comp, exps) == expected, (degrees, comp)


@pytest.mark.parametrize("model", _RESTRICTION_MODELS,
                         ids=[name for name, _ in _RESTRICTION_CASES])
def test_inverse_euler_table_matches_the_laurent_oracle(model):
    m = len(model.factors)
    for comp in fixed_components(model):
        table = _inverse_euler(model, comp)
        assert sorted(table) == list(itertools.product(*map(range, comp.sizes)))
        # the oracle's inverse with its a-exponents dropped
        oracle = laurent_inverse_euler(model, comp)
        assert len({he for he, _ in oracle}) == len(oracle)
        assert {he: c for he, c in table.items() if c} == {
            he: c for (he, _), c in oracle.items()}, comp
        # times the Euler class at a = 1, it is 1 modulo h^sizes
        euler = {}
        for e, c in euler_class(model, comp).terms:
            euler[(e[:m], 0)] = euler.get((e[:m], 0), 0) + c
        inverse = {(he, 0): c for he, c in table.items()}
        assert laurent_mul(inverse, euler, comp.sizes) == {((0,) * m, 0): 1}, comp


def test_nothing_is_restricted_off_the_top_degree(monkeypatch, empty_memo):
    calls = []
    restrict = residues._restrict
    monkeypatch.setattr(residues, "_restrict",
                        lambda comp, e: calls.append(e) or restrict(comp, e))
    m = pn_model(3)
    one = parse(("z", "a"), "1")
    for group in ("torus", "sl2"):
        top = quotient_top_degree(m, group) // 2
        for k in (k for k in range(8) if k != top):
            z = parse(("z", "a"), f"z^{k}")
            assert raw_residue_sum(m, z, one, group) == 0, (group, k)
            assert residue_pairing(m, one, z, group) == 0, (group, k)
    assert calls == []
    raw_residue_sum(m, parse(("z", "a"), "z^2"), one)
    assert calls


def test_restriction_truncates_repeated_weights():
    m = projective_space_model([1, 1, -1, -1])
    comp = fixed_components(m)[-1]
    assert comp.sizes == (2,)
    # z^3 -> (h - a)^3 = h^3 - 3h^2 a + 3h a^2 - a^3, and h^2 = 0
    got = restrict_to_component(m, parse(("z", "a"), "z^3"), comp)
    assert got == parse(component_variables(m), "3*h1*a^2 - a^3")


_BETTI_CASES = [
    (pn_model(3), "torus"), (pn_model(5), "torus"), (line_product_model(3), "torus"),
    (projective_space_model([3, 1, -1, -3], sl2_weyl()), "sl2"),
    (projective_space_model([5, 3, 1, -1, -3, -5], sl2_weyl()), "sl2"),
    (line_product_model(3, sl2_weyl()), "sl2"),
]


@pytest.mark.parametrize("model,group", _BETTI_CASES,
                         ids=["p3-torus", "p5-torus", "l3-torus",
                              "p3-sl2", "p5-sl2", "l3-sl2"])
def test_pairing_matrix_matches_per_pair_residues(model, group):
    variables = ("z", "a") if len(model.factors) == 1 else tuple(
        f"z{i + 1}" for i in range(len(model.factors))) + ("a",)
    top = quotient_top_degree(model, group)
    for d in range(0, top + 1, 2):
        res = kernel_by_pairing(model, variables, d, group)
        expected = tuple(tuple(_residue_by_pair(model, m1, m2, group)
                               for m2 in res.complementary_basis)
                         for m1 in res.basis)
        assert res.matrix == expected, d
        for m1, m2 in itertools.islice(
                itertools.product(res.basis, res.complementary_basis), 6):
            assert raw_residue_sum(model, m1, m2, group) == _residue_by_pair(
                model, m1, m2, group)


def _count_integrals(monkeypatch) -> list:
    """The exponents of every monomial integrated from now on."""
    calls = []
    integral = residues._integral
    monkeypatch.setattr(residues, "_integral",
                        lambda loc, e: calls.append(e) or integral(loc, e))
    return calls


def _products(res):
    return {tuple(x + y for x, y in zip(m1.terms[0][0], m2.terms[0][0]))
            for m1 in res.basis for m2 in res.complementary_basis}


def test_pairing_matrix_integrates_each_product_once(monkeypatch):
    m = line_product_model(3)
    v = ("z1", "z2", "z3", "a")
    calls = _count_integrals(monkeypatch)
    pairs = distinct = 0
    for d in range(0, quotient_top_degree(m, "torus") + 1, 2):
        monkeypatch.setattr(models, "_MEMO", {})
        calls.clear()
        res = kernel_by_pairing(m, v, d, "torus")
        assert sorted(calls) == sorted(_products(res)), d
        pairs += len(res.basis) * len(res.complementary_basis)
        distinct += len(_products(res))
    # the middle degree repeats products: 16 pairs, 10 distinct
    assert distinct < pairs


def test_pairing_sweep_integrates_each_product_once(monkeypatch, empty_memo):
    """Every degree's products have the top degree: across a sweep on one
    memo the model's table integrates each of them once."""
    m = line_product_model(3)
    calls = _count_integrals(monkeypatch)
    products = set()
    for d in range(0, quotient_top_degree(m, "torus") + 1, 2):
        products |= _products(kernel_by_pairing(m, ("z1", "z2", "z3", "a"), d, "torus"))
    assert sorted(calls) == sorted(products)


_ROUTE3_CASES = [
    (pn_model(3), "torus"), (pn_model(5), "torus"), (line_product_model(3), "torus"),
    (pn_model(5), "sl2"), (line_product_model(5), "sl2"),
]
_ROUTE3_IDS = ["p3-torus", "p5-torus", "l3-torus", "p5-sl2", "l5-sl2"]


@pytest.mark.parametrize("model,group", _ROUTE3_CASES, ids=_ROUTE3_IDS)
def test_pairing_table_does_not_depend_on_the_degree_order(model, group, monkeypatch):
    variables = presented_ring(model)
    degrees = list(range(0, quotient_top_degree(model, group) + 1, 2))
    fresh = {}
    for d in degrees:
        monkeypatch.setattr(models, "_MEMO", {})
        fresh[d] = kernel_by_pairing(model, variables, d, group)
    for order in (degrees, degrees[::-1], [d for d in degrees for _ in range(2)]):
        monkeypatch.setattr(models, "_MEMO", {})
        for d in order:
            assert kernel_by_pairing(model, variables, d, group) == fresh[d], (order, d)


def test_route3_sweep_localizes_once_per_model_and_group(monkeypatch, empty_memo):
    seen = []
    localization = residues._localization
    monkeypatch.setattr(residues, "_localization",
                        lambda m, g: seen.append((m.factors, g)) or localization(m, g))
    for model, group in _ROUTE3_CASES:
        variables = presented_ring(model)
        one = parse(variables, "1")
        for d in range(0, quotient_top_degree(model, group) + 1, 2):
            kernel_by_pairing(model, variables, d, group)
            residue_pairing(model, one, one, group)
    assert sorted(seen) == sorted((m.factors, g) for m, g in _ROUTE3_CASES)


@pytest.mark.parametrize("model", _RESTRICTION_MODELS,
                         ids=[name for name, _ in _RESTRICTION_CASES])
def test_raw_residue_sum_matches_per_pair_residue(model):
    # every monomial of the degree that reaches a^-1, split into two
    # factors; strictly semistable models and repeated weights included
    nv = len(model.factors) + 1
    variables = tuple(f"z{i}" for i in range(nv - 1)) + ("a",)
    top = sum(len(f) - 1 for f in model.factors) - 1
    symmetric = all(sorted(w[0] for w in f) == sorted(-w[0] for w in f)
                    for f in model.factors)
    for group, k in (("torus", top), ("sl2", top - 2)):
        if group == "sl2" and not symmetric or k < 0:
            continue
        for e in exponents_of_degree(nv, k):
            i = next((j for j, x in enumerate(e) if x), 0)
            left = tuple(min(x, 1) if j == i else 0 for j, x in enumerate(e))
            right = tuple(x - y for x, y in zip(e, left))
            eta = GradedPolynomial(variables, ((left, Fraction(1)),))
            zeta = GradedPolynomial(variables, ((right, Fraction(1)),))
            assert (raw_residue_sum(model, eta, zeta, group)
                    == _residue_by_pair(model, eta, zeta, group)), (group, e)


# ---------------------------------------------------------------------------
# the three Betti routes: the quotient's series, the presented ring modulo
# the Kirwan kernel, and the rank of the residue pairing


def _three_routes_agree(model, pres, group, has_quotient):
    """Every even degree up to the top has one Betti number by all three
    routes; a model without a quotient is refused by the series and the
    pairing alike."""
    top = quotient_top_degree(model, group)
    if not has_quotient:
        with pytest.raises(NotCoprimeStable):
            quotient_poincare_polynomial(model, max(top, 0) + 2, group)
        with pytest.raises(NotCoprimeStable):
            kernel_by_pairing(model, pres.variables, 0, group)
        return
    poly = quotient_poincare_polynomial(model, max(top, 0) + 2, group)
    kernel_ideal = torus_kernel_ideal if group == "torus" else sl2_kernel_ideal
    kernel = kernel_ideal(pres, max(top, 0))
    for d in range(0, top + 1, 2):
        routes = (poly[d], betti_from_presentation(pres, kernel, d),
                  kernel_by_pairing(model, pres.variables, d, group).rank)
        assert len(set(routes)) == 1, (group, d, routes)


# integer weights of both signs, zeros and repeats included; a repeated
# weight gives a fixed component of size > 1, the only input whose pairing
# reads more than the first coefficient of each per-factor series
@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(-5, 5), min_size=2, max_size=6))
def test_three_routes_agree_on_weighted_projective_spaces(weights):
    # a zero weight is a semistable point that is not stable
    _three_routes_agree(projective_space_model(weights),
                        projective_space_presentation(weights), "torus",
                        0 not in weights)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(-5, 5), min_size=1, max_size=3))
def test_three_routes_agree_on_symmetrized_weights(half):
    weights = half + [-w for w in half]
    _three_routes_agree(projective_space_model(weights, sl2_weyl()),
                        projective_space_presentation(weights), "sl2",
                        0 not in weights)


@pytest.mark.parametrize("group", ["torus", "sl2"])
@pytest.mark.parametrize("n", range(1, 6))
def test_three_routes_agree_on_line_products(n, group):
    # an even number of lines has a fixed point of moment value zero
    weyl = sl2_weyl() if group == "sl2" else None
    _three_routes_agree(line_product_model(n, weyl), line_product_presentation(n),
                        group, n % 2 == 1)
