"""Weighted models: profiles, stability, the index set, critical components,
and the recursion submodels."""

import itertools
import random
from fractions import Fraction

import pytest

from moment_strata import (IndexStratum, classify_profile, critical_components,
                           index_betas, index_set, is_semistable, is_stable,
                           line_product_model, profile_of_point,
                           projective_space_model, shifted_submodel,
                           stratum_codim, strictly_semistable_witness,
                           weighted_model)
from moment_strata.models import (enumerate_profiles, minkowski_points,
                                  profile_beta)

from conftest import pn_model
from test_acceptance import random_weight_system


def fr(x):
    return Fraction(x)


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


def _index_set_by_profiles(model):
    found = {}
    for profile in enumerate_profiles(model):
        cls = classify_profile(model, profile)
        if cls.beta not in found:
            found[cls.beta] = IndexStratum(cls.beta, cls.certificate,
                                           cls.profile, cls.points)
    return tuple(found[b] for b in sorted(found))


def _witness_by_profiles(model):
    for profile in enumerate_profiles(model):
        cls = classify_profile(model, profile)
        if cls.semistable and not cls.stable:
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
