"""Generic perturbations of weighted models.

Shifting the first factor's weights by a small rational vector breaks all
hull degeneracies when the shift is generic, making every semistable profile
stable. The routines here certify genericity exactly, propose certified
perturbations from a deterministic ladder, and verify that the perturbed
stratification refines the original one.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Sequence

from .errors import EpsilonSearchFailed, RefinementViolation
from .geometry import _search
from .linalg import Vector, frac, vsub
from .models import (
    WeightedModel,
    _beta,
    enumerate_profiles,
    index_betas,
    strictly_semistable_witness,
)

# candidate denominators for proposed perturbations, in search order
_PRIME_LADDER = (97, 101, 103, 107, 109, 113, 127, 131, 137, 139,
                 149, 151, 157, 163, 167, 173, 179, 181, 191, 193,
                 197, 199, 211, 223, 227)


def perturbed_model(model: WeightedModel, epsilon: Sequence) -> WeightedModel:
    """Shift every weight of the first factor by -epsilon."""
    eps = tuple(frac(x) for x in epsilon)
    if len(eps) != model.rank:
        raise ValueError("epsilon dimension does not match model rank")
    first = tuple(vsub(w, eps) for w in model.factors[0])
    return WeightedModel(model.rank, (first,) + model.factors[1:], model.form)


def is_generic(model: WeightedModel, epsilon: Sequence) -> bool:
    """True when every semistable profile of the perturbed model is stable."""
    return strictly_semistable_witness(perturbed_model(model, epsilon)) is None


class EpsilonProposal(NamedTuple):
    epsilon: Vector
    denominator: int
    norm_bound: Fraction  # strict upper bound |epsilon|^2 must satisfy


def propose_epsilon(model: WeightedModel) -> EpsilonProposal:
    """First certified perturbation on the ladder (1/M, 1/M^2, ..., 1/M^rank).

    Certification requires genericity and |epsilon|^2 < |beta|^2 / 4 for
    every nonzero beta in the model's index set. Models without nonzero
    strata provide no scale to certify against, so the search fails with a
    witness per candidate.
    """
    nonzero = [b for b in index_betas(model) if any(x != 0 for x in b)]
    if not nonzero:
        raise EpsilonSearchFailed(
            "model has no nonzero stratum to set the perturbation scale",
            witness={"index_set": "only the zero stratum"})
    bound = min(model.form.norm2(b) for b in nonzero) / 4
    failures = []
    for m in _PRIME_LADDER:
        eps = tuple(Fraction(1, m ** (k + 1)) for k in range(model.rank))
        if model.form.norm2(eps) >= bound:
            failures.append({"denominator": m, "reason": "norm bound"})
            continue
        witness = strictly_semistable_witness(perturbed_model(model, eps))
        if witness is not None:
            failures.append({"denominator": m, "reason": "not generic",
                             "profile": witness})
            continue
        return EpsilonProposal(eps, m, bound)
    raise EpsilonSearchFailed("no candidate perturbation certified", witness=failures)


class RefinementReport(NamedTuple):
    epsilon: Vector
    mapping: tuple[tuple[Vector, Vector], ...]  # (perturbed beta, original beta)
    fibers: tuple[tuple[Vector, tuple[Vector, ...]], ...]

    def fiber_over(self, beta: Sequence) -> tuple[Vector, ...]:
        return dict(self.fibers).get(tuple(frac(x) for x in beta), ())


def refinement_report(model: WeightedModel, epsilon: Sequence) -> RefinementReport:
    """Check that perturbed strata refine original strata, profile by profile.

    Every support profile has a nearest point before and after perturbation,
    found by one verified search on each model as the perturbed model's
    profiles are enumerated once; the assignment (perturbed beta -> original
    beta) must be well defined. Two profiles sharing a perturbed beta but
    disagreeing on the original one are reported as a RefinementViolation
    witness. Betas are compared by search key; only distinct ones become Fractions.
    """
    eps = tuple(frac(x) for x in epsilon)
    shifted = perturbed_model(model, eps)
    # perturbed beta's key -> (its original beta's key, its first profile)
    first: dict[tuple, tuple[tuple, tuple]] = {}
    for profile in enumerate_profiles(shifted):
        eps_key, orig_key = _search(shifted, profile)[1], _search(model, profile)[1]
        orig, seen = first.setdefault(eps_key, (orig_key, profile))
        if orig != orig_key:
            raise RefinementViolation(
                "perturbed stratum meets two original strata",
                witness={
                    "perturbed_beta": _beta(eps_key),
                    "original_betas": (_beta(orig), _beta(orig_key)),
                    "profiles": (seen, profile),
                })
    betas = {key: _beta(key) for key in {*first, *(ob for ob, _ in first.values())}}
    mapping = sorted((betas[eb], betas[ob]) for eb, (ob, _) in first.items())
    fibers: dict[Vector, list[Vector]] = {}
    for eb, ob in mapping:   # in ascending order of the perturbed beta
        fibers.setdefault(ob, []).append(eb)
    return RefinementReport(eps, tuple(mapping),
                            tuple((ob, tuple(ebs)) for ob, ebs in sorted(fibers.items())))
