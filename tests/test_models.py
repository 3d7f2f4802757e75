"""Weighted models: profiles, stability, the index set, critical components,
and the recursion submodels."""

import ast
import functools
import itertools
import random
from fractions import Fraction
from pathlib import Path

import pytest

from moment_strata import (IndexStratum, classify_profile, critical_components,
                           index_betas, index_set, is_semistable, is_stable,
                           line_product_model, perfection_check, profile_of_point,
                           projective_space_model, propose_epsilon,
                           semistable_series, shifted_submodel, stratum_codim,
                           strictly_semistable_witness, weighted_model)
from moment_strata.geometry import (BilinearForm, _canonical_certificate,
                                    origin_in_interior)
from moment_strata.models import enumerate_profiles, minkowski_points

from conftest import pn_model, profile_beta
from test_geometry import _closest_enum
from test_acceptance import random_weight_system


def fr(x):
    return Fraction(x)


def form_from_rows(rows):
    return BilinearForm(tuple(tuple(Fraction(x) for x in row) for row in rows))


def test_profile_of_point_records_support():
    m = pn_model(3)
    prof = profile_of_point(m, [[1, 0, 0, 2]])
    assert prof == ((0, 3),)
    with pytest.raises(ValueError):
        profile_of_point(m, [[0, 0, 0, 0]])
    with pytest.raises(ValueError):
        profile_of_point(m, [[1, 2]])


def test_minkowski_points_sum_over_factors():
    m = line_product_model(2)
    pts = minkowski_points(m, ((0,), (1,)))
    # first factor contributes +1, second -1
    assert pts == ((fr(0),),)
    pts = minkowski_points(m, ((0, 1), (0,)))
    assert set(pts) == {(fr(0),), (fr(2),)}


def test_pn_index_set_is_arithmetic_progression():
    for n in (1, 2, 3, 4):
        m = pn_model(n)
        betas = {b[0] for b in index_betas(m)}
        expected = {fr(0)} | {fr(2 * j - n) for j in range(n + 1)}
        assert betas == expected


def test_line_product_index_set():
    m = line_product_model(3)
    betas = {b[0] for b in index_betas(m)}
    assert betas == {fr(0), fr(1), fr(-1), fr(3), fr(-3)}
    m4 = line_product_model(4)
    betas4 = {b[0] for b in index_betas(m4)}
    assert betas4 == {fr(0), fr(2), fr(-2), fr(4), fr(-4)}


def test_index_certificates_verify_against_witnesses():
    for m in (pn_model(4), line_product_model(3)):
        for stratum in index_set(m):
            assert stratum.certificate.verify(stratum.witness_points, m.form)
            assert stratum.certificate.beta == stratum.beta


def test_stability_flags_on_p3():
    m = pn_model(3)
    # support {0}: the hull is the single point 3, far from the origin
    assert not is_semistable(m, [[1, 0, 0, 0]])
    # support {0, 3}: hull [-3, 3] contains 0 in its interior
    assert is_stable(m, [[1, 0, 0, 1]])
    # support {1}: hull {1}
    cls = classify_profile(m, ((1,),))
    assert cls.beta == (fr(1),)
    assert not cls.semistable


def test_strictly_semistable_profile_on_even_line_product():
    m = line_product_model(4)
    # two factors at +1, two at -1: hull is {0} alone, no interior
    prof = ((0,), (0,), (1,), (1,))
    cls = classify_profile(m, prof)
    assert cls.semistable and not cls.stable


def test_enumerate_profiles_count():
    # profiles are value supports, deduplicated up to reordering equal
    # factors: two line factors give the 6 unordered pairs of 3 subsets
    m = line_product_model(2)
    profs = list(enumerate_profiles(m))
    assert len(profs) == 6
    assert len(set(profs)) == 6
    m2 = projective_space_model([2, 0, -2])
    assert len(list(enumerate_profiles(m2))) == 7


def test_critical_components_values_sum_to_norm():
    m = pn_model(3)
    for stratum in index_set(m):
        target = m.form.norm2(stratum.beta)
        comps = critical_components(m, stratum.beta)
        assert comps
        for comp in comps:
            assert sum(comp.values, fr(0)) == target
            assert all(att for att in comp.attaining)
            codim = stratum_codim(m, comp)
            assert codim % 2 == 0 and codim >= 0


def _components_by_pairing(model, beta):
    """Reference: every tuple of distinct per-factor pairing values that sums
    to <beta, beta>, with its attaining sets and codimension."""
    pairs = [[model.form.inner(w, beta) for w in fac] for fac in model.factors]
    out = []
    for values in itertools.product(*(sorted(set(p)) for p in pairs)):
        if sum(values) == model.form.norm2(beta):
            attaining = tuple(tuple(k for k, x in enumerate(p) if x == v)
                              for p, v in zip(pairs, values))
            below = sum(1 for p, v in zip(pairs, values) for x in p if x < v)
            out.append((values, attaining, 2 * below))
    return out


def test_critical_components_match_direct_pairing():
    a2 = [[1, 0], [0, 1], [-1, -1]]
    skew = form_from_rows([[2, -1], [-1, 2]])
    rng = random.Random(7)
    models = [pn_model(n) for n in range(1, 7)]
    models += [line_product_model(n) for n in range(1, 5)]
    models += [projective_space_model([1, 1, -1, -1]),
               weighted_model(2, [a2, a2]), weighted_model(2, [a2, a2, a2], skew),
               random_weight_system(rng, 2), random_weight_system(rng, 2)]
    for m in models:
        betas = [s.beta for s in index_set(m)]
        betas.append(tuple(Fraction(k + 1, 3) for k in range(m.rank)))
        for beta in betas:
            got = [(c.values, c.attaining, stratum_codim(m, c))
                   for c in critical_components(m, beta)]
            assert got == _components_by_pairing(m, beta), (m.factors, beta)


def test_profile_scan_is_shared_by_models_differing_only_in_weyl():
    from moment_strata.models import _record, sl2_weyl

    plain, reflected = pn_model(4), projective_space_model([4, 2, 0, -2, -4], sl2_weyl())
    assert plain.factors == reflected.factors and plain == reflected
    assert _record(plain) is _record(reflected)


def test_the_weyl_argument_is_checked_and_stored_nowhere():
    from moment_strata.models import WeightedModel, sl2_weyl, sl3_torus_weyl

    for w in ([4, 2, 0, -2, -4], ["1/2", 0, "-1/2"], [3, 1, -2]):
        plain, reflected = projective_space_model(w), projective_space_model(w, sl2_weyl())
        assert reflected == plain and hash(reflected) == hash(plain)
    assert line_product_model(3, sl2_weyl()) == line_product_model(3)
    assert "weyl" not in WeightedModel.__slots__ + WeightedModel._compared
    for build in (lambda: projective_space_model([1, -1], sl3_torus_weyl()),
                  lambda: line_product_model(2, sl3_torus_weyl())):
        with pytest.raises(ValueError, match="'sl3-torus-weyl' does not act on rank 1"):
            build()


def _name_uses(path, name):
    """The innermost enclosing function of each use of `name` in a module,
    by name or as an attribute, or None at module level; imports are not uses."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if ((isinstance(node, ast.Name) and node.id == name)
                or (isinstance(node, ast.Attribute) and node.attr == name)):
            found.append(function)
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(path.read_text()), None)
    return found


def test_only_search_runs_the_verified_search():
    """Outside `geometry`, every profile's verified nearest-point search goes
    through `models._search`: the scans, their checks and the refinement."""
    from moment_strata import models

    uses = [f"{path.stem}.{function}"
            for path in sorted(Path(models.__file__).parent.glob("*.py"))
            if path.name != "geometry.py"
            for function in _name_uses(path, "lattice_nearest_point")]
    assert uses == ["models._search"]
    assert not hasattr(models, "_profile_betas")


def test_nonzero_strata_have_positive_codimension():
    for m in (pn_model(4), line_product_model(4)):
        for stratum in index_set(m):
            if all(x == 0 for x in stratum.beta):
                continue
            for comp in critical_components(m, stratum.beta):
                assert stratum_codim(m, comp) > 0


def test_shifted_submodel_shrinks_weight_span():
    from moment_strata.series import _weights_span

    for m in (pn_model(5), line_product_model(4),
              weighted_model(2, [[[1, 0], [0, 1], [-1, -1]]])):
        for stratum in index_set(m):
            if all(x == 0 for x in stratum.beta):
                continue
            for comp in critical_components(m, stratum.beta):
                sub = shifted_submodel(m, comp)
                assert _weights_span(sub) < _weights_span(m)
                # every shifted weight pairs to zero against the beta
                for fac in sub.factors:
                    for w in fac:
                        assert m.form.inner(w, stratum.beta) == 0


@pytest.mark.parametrize("model", [line_product_model(2),
                                   projective_space_model([3, 1, -1, -3])],
                         ids=["l2", "p3"])
def test_components_of_another_model_have_no_shifted_submodel(model):
    comp = critical_components(line_product_model(3), (3,))[0]
    with pytest.raises(ValueError, match="not a critical component"):
        shifted_submodel(model, comp)


# the reference search, once per point set
_beta_of = functools.lru_cache(maxsize=None)(_closest_enum)


def _index_set_by_profiles(model):
    """Reference betas from brute-force enumeration, and the canonical
    certificate of each beta on its first profile."""
    found = {}
    for profile in enumerate_profiles(model):
        points = minkowski_points(model, profile)
        beta = _beta_of(points, model.form)
        if beta not in found:
            cert = _canonical_certificate(points, model.form, beta)
            found[beta] = IndexStratum(beta, cert, profile, points)
    return tuple(found[b] for b in sorted(found))


def _witness_by_profiles(model):
    for profile in enumerate_profiles(model):
        points = minkowski_points(model, profile)
        if (all(x == 0 for x in _beta_of(points, model.form))
                and not origin_in_interior(points, model.rank)):
            return profile
    return None


def test_profile_scan_matches_direct_profile_loops():
    """The one-pass scan agrees with a separate loop per question."""
    models = []
    for n in range(1, 7):
        models += [pn_model(n), line_product_model(n)]
    rng = random.Random(20260822)   # the criterion-02 systems
    while len(models) < 12 + 25:
        rank = rng.choice((1, 2))
        m = random_weight_system(rng, rank)
        if {s.beta for s in _index_set_by_profiles(m)} != {(fr(0),) * rank}:
            models.append(m)
    for m in models:
        assert index_set(m) == _index_set_by_profiles(m), m.factors
        assert strictly_semistable_witness(m) == _witness_by_profiles(m), m.factors


def test_profile_beta_reads_any_profile_from_the_scan():
    """Swapping identical factors or picking another index of a repeated
    weight gives the classified beta of the same orbit."""
    a2 = [[1, 0], [0, 1], [-1, -1]]
    models = [pn_model(4), line_product_model(3), weighted_model(2, [a2, a2]),
              projective_space_model([1, 1, -1, -1])]
    for m in models:
        supports = [[s for r in range(1, len(fac) + 1)
                     for s in itertools.combinations(range(len(fac)), r)]
                    for fac in m.factors]
        for profile in itertools.product(*supports):
            assert profile_beta(m, profile) == classify_profile(m, profile).beta
    with pytest.raises(ValueError):
        profile_beta(pn_model(2), ((5,),))


def test_rank2_model_round_trip():
    m = weighted_model(2, [[[1, 0], [0, 1], [-1, -1]]])
    betas = index_betas(m)
    assert (fr(0), fr(0)) in betas
    for stratum in index_set(m):
        assert len(stratum.beta) == 2
        assert stratum.certificate.verify(stratum.witness_points, m.form)


def test_weights_parse_rationals():
    m = weighted_model(1, [[["1/2"], ["-1/2"]]])
    assert m.factors[0][0] == (fr(1) / 2,)
    betas = {b[0] for b in index_betas(m)}
    assert betas == {fr(0), Fraction(1, 2), Fraction(-1, 2)}


def _random_rank1_model(rng):
    """1-4 factors of 1-4 weights with denominators up to 3, some weights
    repeated within a factor, some factors repeated, and a random form."""
    factors = []
    for _ in range(rng.randint(1, 4)):
        if factors and rng.random() < 0.3:
            factors.append(rng.choice(factors))
            continue
        fac = [[Fraction(rng.randint(-4, 4), rng.randint(1, 3))]
               for _ in range(rng.randint(1, 4))]
        if rng.random() < 0.3:
            fac.insert(rng.randrange(len(fac) + 1), rng.choice(fac))
        factors.append(fac)
    form = form_from_rows([[Fraction(rng.randint(1, 5), rng.randint(1, 3))]])
    return weighted_model(1, factors, form)


def test_value_subsets_take_first_indices_in_value_order():
    from moment_strata.models import _value_subsets

    # distinct values -1 (index 1), 0 (index 3), 1 (index 0, again at 2)
    fac = ((fr(1),), (fr(-1),), (fr(1),), (fr(0),))
    assert _value_subsets(fac) == [(1,), (3,), (0,), (1, 3), (0, 1), (0, 3), (0, 1, 3)]


def test_rank1_closed_form_matches_the_profile_scan():
    """Strata (beta, certificate, witness profile and points) and the
    strictly-semistable witness read off the Minkowski values equal those
    of the enumerative scan, which stays the rank >= 2 path."""
    from moment_strata.models import _interval_scan, _profile_scan

    rng = random.Random(20261019)
    models = [pn_model(n) for n in range(1, 9)]
    models += [line_product_model(n) for n in range(1, 9)]
    # identical factors apart: enumeration takes a group's slots together
    models += [weighted_model(1, [[[0], [2], [3]], [[0], [2]], [[0], [2], [3]]]),
               weighted_model(1, [[[-2], [3], [1]], [[2], [-3]], [[-2], [3], [1]]])]
    models += [_random_rank1_model(rng) for _ in range(150)]
    for m in models:
        assert _interval_scan(m) == _profile_scan(m), m.factors


def test_rank1_index_set_enumerates_no_profiles(monkeypatch, empty_memo):
    from moment_strata import models

    def refuse(model):
        raise AssertionError("rank-1 scans must not enumerate profiles")

    monkeypatch.setattr(models, "enumerate_profiles", refuse)
    for m in (pn_model(14), line_product_model(12),
              weighted_model(1, [[["1/2"], ["-1/3"], ["1/2"]], [["2/3"], ["-1"]]])):
        assert index_set(m)
        strictly_semistable_witness(m)


def test_refinement_report_makes_one_pass_per_model(monkeypatch):
    from moment_strata import models, perturb

    searches, enumerations = [], []
    search, enumerate_ = models._search, models.enumerate_profiles

    def counted_search(model, profile):
        searches.append(model)
        return search(model, profile)

    def counted_enumeration(model):
        enumerations.append(model)
        return enumerate_(model)

    monkeypatch.setattr(perturb, "_search", counted_search)
    monkeypatch.setattr(perturb, "enumerate_profiles", counted_enumeration)
    m = line_product_model(4)
    eps = perturb.propose_epsilon(m).epsilon
    shifted = perturb.perturbed_model(m, eps)
    searches.clear()
    enumerations.clear()
    perturb.refinement_report(m, eps)
    count = len(list(enumerate_(shifted)))
    assert enumerations == [shifted]
    # one search per model and profile, each profile searched as it is enumerated
    assert searches == [shifted, m] * count


@pytest.fixture
def certificates_built(monkeypatch, empty_memo):
    """The betas of the canonical certificates the records build, in order."""
    from moment_strata import models

    built, canonical = [], models._canonical_certificate

    def counted(points, form, beta):
        built.append(beta)
        return canonical(points, form, beta)

    monkeypatch.setattr(models, "_canonical_certificate", counted)
    return built


def test_the_recursion_builds_no_certificates(certificates_built):
    """The series, the perfection check and the perturbation search read
    betas only; the index set builds each certificate once, when read."""
    a2 = [[1, 0], [0, 1], [-1, -1]]
    for m in (line_product_model(4), weighted_model(2, [a2, a2])):
        semistable_series(m, 24)
        perfection_check(m, 24)
        propose_epsilon(m)
        assert certificates_built == [], m.factors
        strata = index_set(m)
        assert certificates_built == [s.beta for s in strata]
        assert index_set(m) is strata and len(certificates_built) == len(strata)
        certificates_built.clear()


def test_index_betas_are_the_index_set_betas(certificates_built):
    a2 = [[1, 0], [0, 1], [-1, -1]]
    rng = random.Random(20260822)
    models = [pn_model(n) for n in range(1, 7)] + [line_product_model(n) for n in range(1, 7)]
    models += [projective_space_model([1, 1, -1, -1]), weighted_model(2, [a2, a2]),
               weighted_model(1, [[["1/2"], ["-1/3"], ["1/2"]], [["2/3"], ["-1"]]])]
    models += [random_weight_system(rng, rng.choice((1, 2))) for _ in range(25)]
    models += [_random_rank1_model(rng) for _ in range(25)]
    for m in models:
        betas = index_betas(m)
        assert certificates_built == [], m.factors
        assert betas == tuple(s.beta for s in index_set(m)), m.factors
        certificates_built.clear()
