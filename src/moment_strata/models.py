"""Weighted models: products of projective spaces with a rational torus action.

A model records, for each projective-space factor, the list of weights of the
torus action on the underlying coordinates, together with a positive definite
form on the (rank-dimensional) parameter space. Supports of points give
profiles; Minkowski sums of the chosen weights give the finite point sets
whose exact convex projections stratify the model.

The profile scan and the critical components run on integer weights and an
integer form, each scaled by the lcm of its denominators; Fractions appear
only in what leaves them: betas, certificates and component values.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import add
from typing import Iterable, NamedTuple, Sequence

from .errors import WeylSymmetryRequired
from .geometry import (
    BilinearForm,
    ProjectionCertificate,
    _canonical_certificate,
    _iapply,
    _idot,
    clear_denominators,
    closest_point_to_origin,
    identity_form,
    lattice_nearest_point,
    origin_in_interior,
)
from .linalg import Vector, frac, vscale, vsub


@dataclass(frozen=True)
class WeylGroup:
    """A Weyl group by name and the rank of the torus it acts on. No result
    depends on more of it: the reflection-group computations read the
    negation symmetry of the weights instead."""

    name: str
    rank: int


def sl2_weyl() -> WeylGroup:
    return WeylGroup("sl2", 1)


def sl3_torus_weyl() -> WeylGroup:
    """Symmetric group S3 acting on the rank-2 root space of SL(3)."""
    return WeylGroup("sl3-torus-weyl", 2)


WEYL_GROUPS = {
    "sl2": sl2_weyl,
    "sl3-torus-weyl": sl3_torus_weyl,
}


@dataclass(frozen=True)
class WeightedModel:
    rank: int
    factors: tuple[tuple[Vector, ...], ...]
    form: BilinearForm
    weyl: WeylGroup | None = None

    def __post_init__(self):
        if self.rank < 1:
            raise ValueError("rank must be positive")
        if self.form.rank != self.rank:
            raise ValueError("form rank does not match model rank")
        if not self.factors:
            raise ValueError("model needs at least one factor")
        for fac in self.factors:
            if not fac:
                raise ValueError("each factor needs at least one weight")
            for w in fac:
                if len(w) != self.rank:
                    raise ValueError("weight dimension does not match rank")
        if self.weyl is not None and self.weyl.rank != self.rank:
            raise ValueError(f"weyl group {self.weyl.name!r} does not act "
                             f"on rank {self.rank}")

    @property
    def factor_sizes(self) -> tuple[int, ...]:
        return tuple(len(f) for f in self.factors)


def weighted_model(rank: int, factors: Iterable[Iterable[Iterable]],
                   form: BilinearForm | None = None,
                   weyl: WeylGroup | None = None) -> WeightedModel:
    facs = tuple(tuple(tuple(frac(x) for x in w) for w in f) for f in factors)
    return WeightedModel(rank, facs, form or identity_form(rank), weyl)


def projective_space_model(weights: Iterable, weyl: WeylGroup | None = None) -> WeightedModel:
    fac = tuple((frac(w),) for w in weights)
    return WeightedModel(1, (fac,), identity_form(1), weyl)


def line_product_model(n: int, weyl: WeylGroup | None = None) -> WeightedModel:
    if n < 1:
        raise ValueError("need at least one line factor")
    fac = ((Fraction(1),), (Fraction(-1),))
    return WeightedModel(1, tuple(fac for _ in range(n)), identity_form(1), weyl)


# ---------------------------------------------------------------------------
# profiles and their classification

Profile = tuple[tuple[int, ...], ...]


def support_of_point(coords: Sequence) -> tuple[int, ...]:
    return tuple(i for i, c in enumerate(coords) if frac(c) != 0)


def profile_of_point(model: WeightedModel, point: Sequence[Sequence]) -> Profile:
    if len(point) != len(model.factors):
        raise ValueError("point must have one coordinate tuple per factor")
    prof = []
    for coords, fac in zip(point, model.factors):
        if len(coords) != len(fac):
            raise ValueError("coordinate count does not match factor size")
        supp = support_of_point(coords)
        if not supp:
            raise ValueError("projective coordinates cannot all vanish")
        prof.append(supp)
    return tuple(prof)


def _check_profile(model: WeightedModel, profile: Profile):
    if len(profile) != len(model.factors):
        raise ValueError("profile must list one support per factor")
    for supp, fac in zip(profile, model.factors):
        if not supp:
            raise ValueError("empty support")
        if any(not (0 <= k < len(fac)) for k in supp):
            raise ValueError("support index out of range")


Lattice = tuple[tuple[tuple[int, ...], ...], ...]


def _lattice(factors: tuple[tuple[Vector, ...], ...]) -> tuple[int, Lattice]:
    """(D, the weights times D) for D the lcm of the weight denominators."""
    d, flat = clear_denominators([w for fac in factors for w in fac])
    it = iter(flat)
    return d, tuple(tuple(next(it) for _ in fac) for fac in factors)


def _lattice_points(weights: Lattice, profile: Profile) -> tuple[tuple[int, ...], ...]:
    """Deduplicated sums of one selected lattice weight per factor, sorted."""
    acc = {(0,) * len(weights[0][0])}
    for supp, fac in zip(profile, weights):
        step = {fac[k] for k in supp}
        acc = {tuple(map(add, s, w)) for s in acc for w in step}
    return tuple(sorted(acc))


def minkowski_points(model: WeightedModel, profile: Profile) -> tuple[Vector, ...]:
    """Deduplicated sums of one selected weight per factor, sorted."""
    _check_profile(model, profile)
    d, weights = _lattice(model.factors)
    return tuple(tuple(Fraction(x, d) for x in p)
                 for p in _lattice_points(weights, profile))


@dataclass(frozen=True)
class ProfileClass:
    profile: Profile
    points: tuple[Vector, ...]
    certificate: ProjectionCertificate
    semistable: bool
    stable: bool

    @property
    def beta(self) -> Vector:
        return self.certificate.beta


def classify_profile(model: WeightedModel, profile: Profile) -> ProfileClass:
    points = minkowski_points(model, profile)
    cert = closest_point_to_origin(points, model.form)
    semistable = all(x == 0 for x in cert.beta)
    stable = semistable and origin_in_interior(points, model.rank)
    return ProfileClass(tuple(tuple(s) for s in profile), points, cert, semistable, stable)


def is_semistable(model: WeightedModel, point: Sequence[Sequence]) -> bool:
    return classify_profile(model, profile_of_point(model, point)).semistable


def is_stable(model: WeightedModel, point: Sequence[Sequence]) -> bool:
    return classify_profile(model, profile_of_point(model, point)).stable


# ---------------------------------------------------------------------------
# the index set


@dataclass(frozen=True)
class IndexStratum:
    beta: Vector
    certificate: ProjectionCertificate
    witness_profile: Profile
    witness_points: tuple[Vector, ...]


def _value_subsets(fac: tuple[Vector, ...]) -> list[tuple[tuple[int, ...], tuple[Vector, ...]]]:
    """Nonempty subsets of the distinct weight values of one factor.

    Each subset is returned as (an index support realizing it, the values).
    Index supports pick the first index bearing each chosen value, so
    witness profiles are deterministic.
    """
    first_index: dict[Vector, int] = {}
    for i, w in enumerate(fac):
        first_index.setdefault(w, i)
    values = sorted(first_index)
    out = []
    for size in range(1, len(values) + 1):
        for combo in itertools.combinations(values, size):
            supp = tuple(sorted(first_index[v] for v in combo))
            out.append((supp, combo))
    return out


def enumerate_profiles(model: WeightedModel):
    """Canonical support profiles, one per orbit of identical-factor swaps.

    Permuting identical factors does not change a profile's Minkowski sum,
    so enumerating value subsets up to such permutations loses no strata.
    """
    groups: dict[tuple[Vector, ...], list[int]] = {}
    for pos, fac in enumerate(model.factors):
        groups.setdefault(fac, []).append(pos)
    group_items = sorted(groups.items(), key=lambda kv: kv[1][0])
    group_subsets = [_value_subsets(fac) for fac, _ in group_items]
    per_group_choices = []
    for (_, positions), subsets in zip(group_items, group_subsets):
        per_group_choices.append(
            list(itertools.combinations_with_replacement(range(len(subsets)), len(positions))))
    for combo in itertools.product(*per_group_choices):
        profile: list[tuple[int, ...]] = [()] * len(model.factors)
        for (_, positions), subsets, chosen in zip(group_items, group_subsets, combo):
            for pos, subset_idx in zip(positions, chosen):
                profile[pos] = subsets[subset_idx][0]
        yield tuple(profile)


class _Scan(NamedTuple):
    strata: tuple[IndexStratum, ...]
    witness: Profile | None            # first semistable, not stable profile
    betas: dict[tuple[tuple[int, ...], ...], Vector]   # beta per lattice point set
    weights: Lattice


def _scan(model: WeightedModel) -> _Scan:
    """One pass over the profiles: the index set, the first profile that is
    semistable but not stable (None when there is none), and every
    profile's beta. No result depends on the model's Weyl group."""
    return _scan_weights(model.rank, model.factors, model.form)


@lru_cache(maxsize=None)
def _scan_weights(rank: int, factors: tuple[tuple[Vector, ...], ...],
                  form: BilinearForm) -> _Scan:
    model = WeightedModel(rank, factors, form)
    d, weights = _lattice(factors)
    gram = clear_denominators(form.gram)[1]
    found: dict[Vector, IndexStratum] = {}
    betas: dict[tuple[tuple[int, ...], ...], Vector] = {}
    witness = None
    for profile in enumerate_profiles(model):
        points = _lattice_points(weights, profile)
        search = lattice_nearest_point(points, gram)
        scale = d * sum(search.coefficients)
        beta = tuple(Fraction(x, scale) for x in search.beta)
        stratum = found.get(beta)
        if stratum is None:
            # the canonical certificate of a beta is built on its first profile
            fpoints = tuple(tuple(Fraction(x, d) for x in p) for p in points)
            cert = _canonical_certificate(fpoints, form, beta)
            stratum = found[beta] = IndexStratum(beta, cert, profile, fpoints)
        betas[points] = stratum.beta
        if (witness is None and not any(search.beta)
                and not origin_in_interior(points, rank)):
            witness = profile
    return _Scan(tuple(found[b] for b in sorted(found)), witness, betas, weights)


def index_set(model: WeightedModel) -> tuple[IndexStratum, ...]:
    """All nearest points of Minkowski hulls of support profiles."""
    return _scan(model).strata


def strictly_semistable_witness(model: WeightedModel) -> Profile | None:
    """A support profile that is semistable but not stable, or None."""
    return _scan(model).witness


def profile_beta(model: WeightedModel, profile: Profile) -> Vector:
    """The beta of any support profile, read from the model's profile scan.

    Beta depends on the profile only through its Minkowski points, and every
    profile shares its points with the scanned representative of its orbit
    under swaps of identical factors.
    """
    _check_profile(model, profile)
    scan = _scan(model)
    return scan.betas[_lattice_points(scan.weights, profile)]


def index_betas(model: WeightedModel) -> tuple[Vector, ...]:
    return tuple(s.beta for s in index_set(model))


def require_negation_symmetric(model: WeightedModel):
    """Reflection quotients need a rank-1 model whose every factor's
    weights are symmetric under negation."""
    if model.rank != 1:
        raise WeylSymmetryRequired("reflection quotients need a rank-1 model",
                                   witness={"rank": model.rank})
    for i, fac in enumerate(model.factors):
        if sorted(fac) != sorted(tuple(-x for x in w) for w in fac):
            raise WeylSymmetryRequired(
                "factor weights must be symmetric under negation",
                witness={"factor": i, "weights": fac})


# ---------------------------------------------------------------------------
# critical components of a stratum


@dataclass(frozen=True)
class CriticalComponent:
    beta: Vector
    values: tuple[Fraction, ...]
    attaining: tuple[tuple[int, ...], ...]
    codim: int


def critical_components(model: WeightedModel, beta: Sequence) -> tuple[CriticalComponent, ...]:
    """Fixed-locus components where the stratum's moment pairing is attained.

    One component per tuple of per-factor pairing values summing to
    <beta, beta>; the attaining sets list which coordinates realize each
    value, and the codimension counts the weights pairing below it.
    With weights W / D, form G / c and beta B / s, every pairing times
    D c s^2 is an integer; only the returned values are Fractions.
    """
    b = tuple(frac(x) for x in beta)
    if len(b) != model.rank:
        raise ValueError("beta dimension does not match model rank")
    s, (bl,) = clear_denominators([b])
    c, gram = clear_denominators(model.form.gram)
    gb = _iapply(gram, bl)
    d, weights = _lattice(model.factors)
    scale = d * c * s * s
    target = d * _idot(bl, gb)
    # per factor: each distinct pairing value with its attaining indices
    # and the number of weights pairing below it
    per_factor: list[list[tuple[int, tuple[int, ...], int]]] = []
    for fac in weights:
        pairs = [s * _idot(w, gb) for w in fac]
        per_factor.append([(v, tuple(k for k, p in enumerate(pairs) if p == v),
                            sum(1 for p in pairs if p < v))
                           for v in sorted(set(pairs))])
    # extend only the choices that the remaining factors' least and greatest
    # sums can complete to the target; values ascend, so paths stay in order
    low, high = [0], [0]
    for entries in reversed(per_factor):
        low.insert(0, low[0] + entries[0][0])
        high.insert(0, high[0] + entries[-1][0])
    paths: list[tuple[int, tuple]] = [(0, ())]
    for entries, lo, hi in zip(per_factor, low[1:], high[1:]):
        paths = [(acc + e[0], chosen + (e,)) for acc, chosen in paths
                 for e in entries if lo <= target - acc - e[0] <= hi]
    return tuple(CriticalComponent(b, tuple(Fraction(v, scale) for v, _, _ in chosen),
                                   tuple(att for _, att, _ in chosen),
                                   2 * sum(below for _, _, below in chosen))
                 for _, chosen in paths)


def stratum_codim(model: WeightedModel, component: CriticalComponent) -> int:
    """Real codimension: twice the count of weights pairing below the
    component's value in each factor."""
    return component.codim


def shifted_submodel(model: WeightedModel, component: CriticalComponent) -> WeightedModel:
    """Model carried by a critical component: attaining weights, shifted so
    the component pairs to zero against its own beta."""
    b = component.beta
    nb = model.form.norm2(b)
    if nb == 0:
        raise ValueError("the zero stratum has no shifted submodel")
    new_factors = []
    for fac, att, v in zip(model.factors, component.attaining, component.values):
        shift = vscale(v / nb, b)
        new_factors.append(tuple(vsub(fac[k], shift) for k in att))
    return WeightedModel(model.rank, tuple(new_factors), model.form, None)
