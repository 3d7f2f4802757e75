"""Certified perturbations: genericity, the proposal ladder, and the
stratification refinement map."""

from fractions import Fraction

import pytest

from moment_strata import (RefinementViolation, classify_profile, index_betas,
                           is_generic, line_product_model, perfection_check,
                           perturbed_model, projective_space_model,
                           propose_epsilon, refinement_report,
                           strictly_semistable_witness, weighted_model)
from moment_strata.models import enumerate_profiles

from conftest import pn_model


def test_proposal_for_four_lines():
    m = line_product_model(4)
    prop = propose_epsilon(m)
    assert prop.epsilon == (Fraction(1, 97),)
    assert prop.denominator == 97
    assert m.form.norm2(prop.epsilon) < prop.norm_bound
    assert is_generic(m, prop.epsilon)


def test_perturbation_kills_strict_semistability():
    m = line_product_model(4)
    eps = propose_epsilon(m).epsilon
    shifted = perturbed_model(m, eps)
    assert strictly_semistable_witness(m) is not None
    assert strictly_semistable_witness(shifted) is None


def test_zero_epsilon_is_not_generic_when_strict_semistability_exists():
    m = line_product_model(4)
    assert not is_generic(m, (Fraction(0),))
    # an odd product has no strictly semistable locus to begin with
    assert is_generic(line_product_model(3), (Fraction(0),))


def test_refinement_fiber_splits_zero_stratum_of_four_lines():
    m = line_product_model(4)
    eps = propose_epsilon(m).epsilon
    report = refinement_report(m, eps)
    fiber = report.fiber_over((Fraction(0),))
    assert set(fiber) == {(Fraction(-1, 97),), (Fraction(0),)}


@pytest.mark.parametrize("model, epsilon, witness", [
    (projective_space_model([2, 0, -2]), [2],
     ((0,), ((2,), (0,)), (((0,),), ((0, 2),)))),
    (line_product_model(3), [Fraction(3, 2)],
     ((Fraction(-1, 2),), ((1,), (0,)),
      (((1,), (0,), (0,)), ((1,), (0,), (0, 1))))),
], ids=["p2", "l3"])
def test_a_coarse_epsilon_is_witnessed_by_its_first_two_profiles(model, epsilon, witness):
    """The witness names the perturbed beta, the two original betas it meets,
    as Fractions, and the first two profiles in enumeration order that meet them."""
    with pytest.raises(RefinementViolation) as info:
        refinement_report(model, epsilon)
    got = info.value.witness
    assert (got["perturbed_beta"], got["original_betas"], got["profiles"]) == witness
    betas = [got["perturbed_beta"], *got["original_betas"]]
    assert all(type(x) is Fraction for beta in betas for x in beta)


def test_refinement_is_bijective_for_three_lines():
    m = line_product_model(3)
    eps = propose_epsilon(m).epsilon
    report = refinement_report(m, eps)
    parents = [parent for parent, _ in report.fibers]
    assert len(parents) == 5
    for parent, fiber in report.fibers:
        assert len(fiber) == 1
    perturbed = [b for _, fiber in report.fibers for b in fiber]
    assert len(set(perturbed)) == 5
    assert set(perturbed) == set(index_betas(perturbed_model(m, eps)))


def test_every_perturbed_beta_has_a_parent():
    for m in (pn_model(4), line_product_model(4)):
        eps = propose_epsilon(m).epsilon
        report = refinement_report(m, eps)
        mapped = {pb for pb, _ in report.mapping}
        assert mapped == set(index_betas(perturbed_model(m, eps)))
        parents = {ob for _, ob in report.mapping}
        assert parents <= set(index_betas(m))


def test_perturbed_model_stays_perfect():
    m = line_product_model(4)
    eps = propose_epsilon(m).epsilon
    report = perfection_check(perturbed_model(m, eps), 20)
    assert report.ok, report.failures


def test_explicit_epsilon_round_trip():
    m = pn_model(3)
    eps = (Fraction(1, 10),)
    assert is_generic(m, eps)
    shifted = perturbed_model(m, eps)
    report = refinement_report(m, eps)
    assert {pb for pb, _ in report.mapping} == set(index_betas(shifted))


def _refinement_by_classification(model, eps):
    shifted = perturbed_model(model, eps)
    mapping = {}
    for profile in enumerate_profiles(shifted):
        eb = classify_profile(shifted, profile).beta
        ob = classify_profile(model, profile).beta
        assert mapping.setdefault(eb, ob) == ob
    return tuple(sorted(mapping.items()))


def test_refinement_map_matches_profile_classification():
    a2 = [[1, 0], [0, 1], [-1, -1]]
    for m in (pn_model(4), line_product_model(3), line_product_model(4),
              weighted_model(2, [a2, a2])):
        eps = propose_epsilon(m).epsilon
        assert refinement_report(m, eps).mapping == _refinement_by_classification(m, eps)
