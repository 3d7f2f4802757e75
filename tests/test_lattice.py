"""The integer-lattice stratification core against its Fraction oracle.

The profile scan, the nearest-point search, the critical components and the
submodel shift run on weights and forms cleared of denominators. Each must agree with the
Fraction algorithms of ``fraction_oracle`` on random models with mixed
denominators, zero and repeated weights and random rational forms. The
library's one certificate check, the integer ``_verify_lattice`` behind
``ProjectionCertificate.verify``, must accept exactly what the oracle's
Fraction check ``fraction_oracle.verify`` accepts.
"""

import itertools
import os
import subprocess
import sys
import textwrap
from fractions import Fraction
from math import gcd, lcm
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fraction_oracle as oracle
from moment_strata import (BilinearForm, VerificationFailed, WeightedModel,
                           closest_point_to_origin, critical_components,
                           identity_form, index_betas, index_set,
                           line_product_model, origin_in_interior,
                           perfection_check, perturbed_model,
                           projective_space_model, semistable_series,
                           shifted_submodel, strictly_semistable_witness,
                           weighted_model)
import moment_strata
from moment_strata import geometry, series
from moment_strata import models as models_module
from moment_strata.geometry import (LatticeCertificate, ProjectionCertificate,
                                    _canonical_certificate, _combine,
                                    _verify_lattice, clear_denominators,
                                    lattice_nearest_point, nearest_point)

from conftest import pn_model, profile_beta

rationals = st.builds(Fraction, st.integers(-4, 4), st.sampled_from((1, 2, 3, 6)))
positive = st.builds(Fraction, st.integers(1, 3), st.sampled_from((1, 2, 3)))


@st.composite
def forms(draw, rank):
    """The identity, or L L^T for a random rational lower-triangular L with
    a positive diagonal."""
    if draw(st.booleans()):
        return identity_form(rank)
    low = [[draw(rationals) if j < i else draw(positive) if j == i else Fraction(0)
            for j in range(rank)] for i in range(rank)]
    return BilinearForm(tuple(tuple(sum(low[i][k] * low[j][k] for k in range(rank))
                                    for j in range(rank)) for i in range(rank)))


@st.composite
def models(draw):
    """Ranks 1-3; weights with denominators 1, 2, 3 and 6, zero weights,
    repeated weights inside a factor and repeated factors."""
    rank = draw(st.sampled_from((1, 2, 3)))
    vec = st.one_of(st.tuples(*[rationals] * rank),
                    st.just((Fraction(0),) * rank))
    factors = [draw(st.lists(vec, min_size=1, max_size=3))
               for _ in range(draw(st.integers(1, 2)))]
    if draw(st.booleans()):
        factors[0] = factors[0] + [factors[0][0]]
    if draw(st.booleans()):
        factors.append(factors[-1])
    return weighted_model(rank, factors, draw(forms(rank)))


@st.composite
def point_sets(draw):
    rank = draw(st.sampled_from((1, 2, 3)))
    pts = draw(st.lists(st.tuples(*[rationals] * rank), min_size=1, max_size=6))
    return pts + draw(st.lists(st.sampled_from(pts), max_size=2)), draw(forms(rank))


def _cleared(model):
    """`clear_denominators` of the model's weights, grouped by factor."""
    d, flat = clear_denominators([w for fac in model.factors for w in fac])
    rows = iter(flat)
    return d, tuple(tuple(next(rows) for _ in fac) for fac in model.factors)


def _sorted_model(model):
    """The model with its factors and weights in canonical order."""
    factors = tuple(sorted(tuple(sorted(f)) for f in model.factors))
    return type(model)(model.rank, factors, model.form)


@settings(max_examples=70, deadline=None)
@given(models())
def test_lattice_scan_matches_the_fraction_scan(model):
    strata, witness, betas = oracle.scan(model)
    assert index_set(model) == strata
    assert strictly_semistable_witness(model) == witness
    supports = [[s for r in range(1, len(fac) + 1)
                 for s in itertools.combinations(range(len(fac)), r)]
                for fac in model.factors]
    for profile in itertools.product(*supports):
        assert (profile_beta(model, profile)
                == betas[oracle.minkowski_points(model, profile)])
    probe = tuple(Fraction(k + 1, 3) for k in range(model.rank))
    for beta in [s.beta for s in strata] + [probe]:
        comps = critical_components(model, beta)
        assert comps == oracle.critical_components(model, beta)
        for comp in comps if any(beta) else ():
            sub = shifted_submodel(model, comp)
            assert sub == oracle.shifted_submodel(model, comp)
            assert sub.lattice == _cleared(sub)


def _check_recursion_children(todo):
    """Walk the recursion tree from the given models. At each model the
    public shift of every critical component matches the Fraction shift, and
    the children `_descend` yields are those shifts in canonical order; every
    model's lattice is its cleared weights and its span rank is the dense
    rref rank. Returns the number of components compared and the models
    walked."""
    seen, compared = set(), 0
    while todo:
        model = todo.pop()
        if model in seen:
            continue
        seen.add(model)
        assert model.lattice == _cleared(model)
        c, gram = clear_denominators(model.form.gram)
        assert model.form.cleared == (c, tuple(gram))
        rows = [w for fac in model.factors for w in fac]
        assert series._weights_span(model) == len(oracle.rref(rows)[1])
        expected = []
        for beta in index_betas(model):
            if not any(beta):
                with pytest.raises(ValueError, match="zero stratum"):
                    shifted_submodel(model, critical_components(model, beta)[0])
                continue
            for comp in critical_components(model, beta):
                sub = shifted_submodel(model, comp)
                assert sub == oracle.shifted_submodel(model, comp), (model.factors, comp)
                assert sub.lattice == _cleared(sub)
                expected.append(_sorted_model(sub))
                compared += 1
        children = [sub for _, sub in series._descend(model, 10 ** 6, 0)]
        assert children == expected, model.factors
        assert all(sub.lattice == _cleared(sub) for sub in children)
        todo += children
    return compared, seen


def test_integer_shift_matches_the_fraction_shift():
    """On every critical component the series recursion reaches from the
    series test models, from rational weights and from a form with
    denominators."""
    a2 = [[1, 0], [0, 1], [-1, -1]]
    skew = BilinearForm(((Fraction(2, 3), Fraction(-1, 5)),
                         (Fraction(-1, 5), Fraction(1, 2))))
    todo = [pn_model(n) for n in range(1, 6)]
    todo += [line_product_model(n) for n in range(1, 6)]
    todo += [weighted_model(2, [a2, a2]), weighted_model(2, [a2, a2[::-1], a2], skew),
             weighted_model(1, [[["1/2"], ["-1/3"], ["1/2"]], [["2/3"], ["-1"]]]),
             weighted_model(2, [[["1/2", 0], [0, "2/3"], ["-1/3", "-1/4"]]] * 2, skew),
             weighted_model(1, [[[3], [1], [-2]]] * 3, BilinearForm(((Fraction(3, 7),),)))]
    compared, _ = _check_recursion_children(todo)
    assert compared > 200, compared


# mostly integers in [-3, 3], some halves and thirds in the same range
entries = st.one_of(st.integers(-3, 3).map(Fraction), st.integers(-3, 3).map(Fraction),
                    st.builds(Fraction, st.integers(-6, 6), st.sampled_from((2, 3))))


@st.composite
def weight_systems(draw):
    """The criterion-02 generator's shapes: rank 1-3, 1-3 factors of 1-4
    distinct points in [-3, 3]^rank, with some p/q entries and sometimes a
    random rational form."""
    rank = draw(st.integers(1, 3))
    point = st.tuples(*[entries] * rank)
    factors = [draw(st.lists(point, min_size=1, max_size=4, unique=True))
               for _ in range(draw(st.integers(1, 3)))]
    return weighted_model(rank, factors, draw(forms(rank)))


@settings(max_examples=100, deadline=None)
@given(weight_systems())
def test_integer_shift_matches_the_fraction_shift_on_random_systems(model):
    _check_recursion_children([model])


def test_no_recursion_child_goes_through_the_constructor(monkeypatch, empty_memo):
    """Children are built from their integer lattice: none checks Fraction
    weights or clears them again."""
    a2 = [[1, 0], [0, 1], [-1, -1]]
    lines, triple = line_product_model(6), weighted_model(2, [a2, a2, a2])
    calls = []
    init = WeightedModel.__init__

    def counted(self, *args):
        calls.append(args)
        init(self, *args)

    monkeypatch.setattr(WeightedModel, "__init__", counted)
    assert any(semistable_series(lines, 40).coeffs)
    report = perfection_check(triple, 40)
    assert report.ok and report.strata_checked > 1
    assert calls == []


def _node_models(node, found):
    """The models of the recursion nodes below ``node``, by id."""
    for _, child in node[3]:
        if id(child[2]) not in found:
            found[id(child[2])] = child[2]
            _node_models(child, found)
    return found


def test_the_recursion_makes_no_fraction_it_does_not_return(monkeypatch, empty_memo):
    """The series recursion and the perfection walk leave every child's
    Fraction weights unmade, and every search returns integers only. Read
    afterwards, each child's weights are the Fraction shift of its parent's."""
    a2 = [[1, 0], [0, 1], [-1, -1]]
    lines, triple = line_product_model(6), weighted_model(2, [a2, a2, a2])
    returned, search = [], models_module._search

    def recorded(model, profile):
        returned.append(search(model, profile))
        return returned[-1]

    monkeypatch.setattr(models_module, "_search", recorded)
    assert any(semistable_series(lines, 40).coeffs)
    assert perfection_check(triple, 40).ok
    children: dict = {}
    for root in (lines, triple):
        _node_models(series._node(root, 40), children)
    assert len(children) > 10
    assert all(child._factors is None for child in children.values())
    assert returned
    for points, (b, s) in returned:
        assert all(type(x) is int for x in (*b, s, *(x for p in points for x in p)))
    monkeypatch.setattr(models_module, "_search", search)
    _, walked = _check_recursion_children([lines, triple])
    assert all(child in walked for child in children.values())
    assert all(child._factors is not None for child in children.values())


@settings(max_examples=60, deadline=None)
@given(weight_systems())
def test_search_keys_are_reduced_integer_betas(model):
    """Each profile's key (B, s) has s > 0 and gcd(s, *B) = 1 and converts to
    the Fraction search's beta; the index set's betas ascend as Fractions."""
    for profile in models_module.enumerate_profiles(model):
        b, s = models_module._search(model, profile)[1]
        assert s > 0 and gcd(s, *b) == 1
        points = oracle.minkowski_points(model, profile)
        assert models_module._beta((b, s)) == oracle.nearest_point(points, model.form).beta
    betas = index_betas(model)
    assert all(x < y for x, y in zip(betas, betas[1:]))


@pytest.mark.parametrize("model", [projective_space_model(["1/2", "1/3", -1]),
                                   weighted_model(2, [[["1/2", 0], ["1/3", 0], [-1, 0]]])],
                         ids=["rank-1", "rank-2"])
def test_betas_sort_as_fractions_not_as_keys(model, empty_memo):
    """By key, ((1,), 2) sorts before ((1,), 3), that is 1/2 before 1/3."""
    halves = [(Fraction(-1),), (Fraction(0),), (Fraction(1, 3),), (Fraction(1, 2),)]
    assert index_betas(model) == tuple(b + (Fraction(0),) * (model.rank - 1) for b in halves)
    assert models_module._profile_scan(model).firsts == models_module._record(model).firsts


def test_constructed_models_cache_their_lattice():
    skew = BilinearForm(((Fraction(2, 3), Fraction(-1, 5)),
                         (Fraction(-1, 5), Fraction(1, 2))))
    rational = weighted_model(2, [[["1/2", 0], [0, "2/3"], ["-1/3", "-1/4"]]] * 2, skew)
    built = [rational, weighted_model(1, [[["1/2"], ["-1/3"]], [[0], ["2/5"]]]),
             projective_space_model(["3/2", "1/3", 0, -2]), line_product_model(4)]
    built += [perturbed_model(m, [Fraction(1, 97 ** (k + 1)) for k in range(m.rank)])
              for m in list(built)]
    for model in built:
        assert model.lattice == _cleared(model), model.factors
    assert rational.form.cleared == (30, ((20, -6), (-6, 15)))


@settings(max_examples=150, deadline=None)
@given(point_sets())
def test_lattice_search_retraces_the_fraction_search(case):
    """Same active sets, same weights: the integer search is the Fraction
    search on scaled data, not only a search with the same answer."""
    pts, form = case
    cert = nearest_point(pts, form)
    assert cert == oracle.nearest_point(pts, form)
    assert (closest_point_to_origin(pts, form)
            == oracle.canonical_certificate(pts, form, cert.beta))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4).flatmap(lambda r: st.tuples(
    st.just(r), st.lists(st.tuples(*[st.integers(-2, 2)] * r), min_size=1, max_size=7))))
def test_interior_test_matches_the_cone_lp(case):
    """The facet test of origin_in_interior against exact cone LPs, on
    integer points (as the scan passes them) and on their rational halves."""
    rank, pts = case
    expected = oracle.origin_in_interior(pts, rank)
    assert origin_in_interior(pts, rank) == expected
    halves = [tuple(Fraction(x, 2) for x in p) for p in pts]
    assert origin_in_interior(halves, rank) == expected


def _image(cert, d):
    """The ProjectionCertificate that a lattice certificate stands for."""
    e = sum(cert.coefficients)
    return ProjectionCertificate(tuple(Fraction(x, d * e) for x in cert.beta),
                                 cert.support,
                                 tuple(Fraction(l, e) for l in cert.coefficients))


def _mutations(cert, lattice):
    """The certificate; each coefficient moved by one; each support point
    dropped, keeping beta and recombining it; beta moved along each axis."""
    x, support, lam = cert
    yield cert
    for k in range(len(support)):
        for delta in (-1, 1):
            yield LatticeCertificate(x, support, lam[:k] + (lam[k] + delta,) + lam[k + 1:])
        sub, weights = support[:k] + support[k + 1:], lam[:k] + lam[k + 1:]
        yield LatticeCertificate(x, sub, weights)
        yield LatticeCertificate(_combine(lattice, sub, weights), sub, weights)
    for i in range(len(x)):
        yield LatticeCertificate(tuple(v + (j == i) for j, v in enumerate(x)),
                                 support, lam)


@settings(max_examples=150, deadline=None)
@given(point_sets())
def test_integer_verifier_agrees_with_the_fraction_verifier(case):
    """On the search certificate and the lifted canonical certificate, and on
    every mutation of them, the integer check, ProjectionCertificate.verify and
    the oracle's Fraction check give the same verdict."""
    pts, form = case
    d, lattice = clear_denominators(pts)
    gram = clear_denominators(form.gram)[1]
    canonical = closest_point_to_origin(pts, form)
    m = lcm(*(c.denominator for c in canonical.coefficients))
    lifted = LatticeCertificate(tuple(int(x * d * m) for x in canonical.beta),
                                canonical.support,
                                tuple(int(c * m) for c in canonical.coefficients))
    for start in (lattice_nearest_point(lattice, gram), lifted):
        assert _verify_lattice(lattice, gram, start)
        for cert in _mutations(start, lattice):
            got = _verify_lattice(lattice, gram, cert)
            if sum(cert.coefficients) <= 0:
                assert not got
            else:
                image = _image(cert, d)
                assert got == image.verify(pts, form) == oracle.verify(image, pts, form), cert


def _q(*rows):
    return [tuple(Fraction(x) for x in row) for row in rows]


HALF = Fraction(1, 2)
SQUARE = _q((1, 0), (0, 1), (2, 2))
# points, a certificate and its verdict under the identity form; each bad
# certificate breaks one condition only
CERTIFICATES = {
    "valid": (SQUARE, ProjectionCertificate((HALF, HALF), (0, 1), (HALF, HALF)), True),
    "length mismatch": (_q((1, 0), (2, 2)), ProjectionCertificate(
        (Fraction(1), Fraction(0)), (0,), (Fraction(1), Fraction(0))), False),
    "empty support": (SQUARE, ProjectionCertificate((HALF, HALF), (), ()), False),
    "negative coefficient": (_q((1, 1), (1, 2)), ProjectionCertificate(
        (Fraction(1), Fraction(0)), (0, 1), (Fraction(2), Fraction(-1))), False),
    "sum other than 1": (SQUARE[:2], ProjectionCertificate(
        (Fraction(1), Fraction(1)), (0, 1), (Fraction(1), Fraction(1))), False),
    "not combining to beta": (SQUARE, ProjectionCertificate(
        (HALF, HALF), (0, 1), (Fraction(1), Fraction(0))), False),
    "duplicated index": (SQUARE, ProjectionCertificate(
        (HALF, HALF), (0, 1, 0), (HALF / 2, HALF, HALF / 2)), False),
    "not nearest": (SQUARE, ProjectionCertificate(SQUARE[2], (2,), (Fraction(1),)), False),
    "support point off the contact face": (_q((1, 0), (2, 2)), ProjectionCertificate(
        (Fraction(1), Fraction(0)), (0, 1), (Fraction(1), Fraction(0))), False),
}


@pytest.mark.parametrize("case", sorted(CERTIFICATES))
def test_malformed_certificates_get_the_oracle_verdict(case):
    """The library's verify and the oracle's Fraction check agree on each
    certificate, under the identity and under a skew form."""
    pts, cert, verdict = CERTIFICATES[case]
    skew = BilinearForm(((Fraction(2), -HALF), (-HALF, Fraction(1))))
    assert cert.verify(pts, identity_form(2)) is oracle.verify(cert, pts, identity_form(2)) is verdict
    assert cert.verify(pts, skew) is oracle.verify(cert, pts, skew)


def test_an_index_out_of_range_raises_in_both_checks():
    cert = ProjectionCertificate(SQUARE[0], (3,), (Fraction(1),))
    with pytest.raises(IndexError):
        oracle.verify(cert, SQUARE, identity_form(2))
    with pytest.raises(IndexError):
        cert.verify(SQUARE, identity_form(2))


def test_beta_of_the_wrong_length_is_rejected():
    """The Fraction check raised ValueError on a beta whose length differs
    from the points'; the integer check finds that no combination of the
    support equals it."""
    cert = ProjectionCertificate(SQUARE[0] + (Fraction(0),), (0,), (Fraction(1),))
    with pytest.raises(ValueError):
        oracle.verify(cert, SQUARE, identity_form(2))
    assert cert.verify(SQUARE, identity_form(2)) is False


# ---------------------------------------------------------------------------
# typed verification failures


def test_search_failure_is_typed(monkeypatch):
    monkeypatch.setattr(geometry, "_verify_lattice", lambda *args: False)
    pts = [(Fraction(1, 2), Fraction(0)), (Fraction(0), Fraction(1, 3))]
    with pytest.raises(VerificationFailed) as info:
        nearest_point(pts, identity_form(2))
    assert isinstance(info.value, ArithmeticError)
    assert set(info.value.witness) == {"beta", "support", "coefficients"}


def test_canonical_certificate_failures_are_typed(monkeypatch):
    pts = [(Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))]
    form = identity_form(2)
    with pytest.raises(VerificationFailed, match="no canonical certificate"):
        _canonical_certificate(pts, form, (Fraction(1), Fraction(1)))
    monkeypatch.setattr(ProjectionCertificate, "verify", lambda *args: False)
    with pytest.raises(VerificationFailed, match="self-verification") as info:
        _canonical_certificate(pts, form, (Fraction(1, 2), Fraction(1, 2)))
    assert info.value.witness["support"] == (0, 1)


def test_recursion_checks_are_typed(monkeypatch):
    model = pn_model(3)
    assert list(series._descend(model, 8, 0))
    assert [lam for lam, _ in series._descend(model, 8, 0)] == [6, 4, 4, 6]
    core = series._components

    def negative(model, beta):
        cleared, comps = core(model, beta)
        return cleared, [(values, att, -1) for values, att, _ in comps]

    with monkeypatch.context() as patch:
        patch.setattr(series, "_components", negative)
        with pytest.raises(VerificationFailed, match="codimension"):
            list(series._descend(model, 8, 0))
    monkeypatch.setattr(series, "_weights_span", lambda m: 1)
    with pytest.raises(VerificationFailed, match="measure"):
        list(series._descend(model, 8, 0))


STUCK_SEARCH = textwrap.dedent("""
    import sys
    from moment_strata import VerificationFailed, geometry
    # a projection that never moves off the first active point
    geometry._project_affine = lambda pts, gram: ([1] + [0] * (len(pts) - 1), 1)
    try:
        geometry.lattice_nearest_point([(2, 0), (0, 1)], [[1, 0], [0, 1]])
    except VerificationFailed as exc:
        print(exc.witness)
        sys.exit(0)
    sys.exit(1)
""")


def test_search_without_progress_fails_instead_of_hanging():
    # run apart, so that a search that loops forever fails at the timeout
    # instead of hanging the suite
    env = dict(os.environ)
    src = str(Path(moment_strata.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", STUCK_SEARCH], env=env,
                          capture_output=True, text=True, timeout=30)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "{'active': [1]}"
