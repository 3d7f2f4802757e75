"""Weighted models: products of projective spaces with a rational torus action.

A model records, for each projective-space factor, the list of weights of the
torus action on the underlying coordinates, together with a positive definite
form on the (rank-dimensional) parameter space. Supports of points give
profiles; Minkowski sums of the chosen weights give the finite point sets
whose exact convex projections stratify the model.

Each model clears its weights of denominators once, as its form does its Gram
matrix; the profile scan, the critical components and the submodel shift run
on those integers; a shifted submodel is built from its lattice, never cleared.
Fractions, made on first read, appear only in what leaves them: distinct betas,
certificates and their points, component values and a submodel's weights.

The preconditions of a quotient (its top degree, negation symmetry for the
reflection group, semistable == stable) and its `presented_ring` are read off
the model here, so the cohomology layers need not load the series recursion;
the geometry is bound once per scan or classification, so `kirwan` skips it.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd
from typing import TYPE_CHECKING, Iterable, NamedTuple, Sequence

from .errors import NotCoprimeStable, VerificationFailed, WeylSymmetryRequired
from .linalg import (BilinearForm, Value, Vector, _iapply, _idot, clear_denominators, frac,
                     identity_form)

if TYPE_CHECKING:
    from .geometry import ProjectionCertificate


class WeylGroup(NamedTuple):
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


class WeightedModel(Value):
    """``lattice``, not compared, is (D, D * weights), D the lcm of their denominators.
    A shifted submodel, built from it, makes its Fraction ``factors`` on first read."""

    __slots__ = ("rank", "_factors", "form", "lattice")
    _compared = ("rank", "factors", "form")

    def __init__(self, rank: int, factors: tuple[tuple[Vector, ...], ...],
                 form: BilinearForm):
        if rank < 1:
            raise ValueError("rank must be positive")
        if form.rank != rank:
            raise ValueError("form rank does not match model rank")
        if not factors:
            raise ValueError("model needs at least one factor")
        for fac in factors:
            if not fac:
                raise ValueError("each factor needs at least one weight")
            if any(len(w) != rank for w in fac):
                raise ValueError("weight dimension does not match rank")
        self.rank, self._factors, self.form = rank, factors, form
        d, flat = clear_denominators([w for fac in factors for w in fac])
        rows = iter(flat)
        self.lattice = d, tuple(tuple(next(rows) for _ in fac) for fac in factors)

    @property
    def factors(self) -> tuple[tuple[Vector, ...], ...]:
        if self._factors is None:
            self._factors = tuple(_fractions(self.lattice[0], fac) for fac in self.lattice[1])
        return self._factors

    @property
    def factor_sizes(self) -> tuple[int, ...]:
        return tuple(map(len, self.lattice[1]))


def _check_weyl(weyl: WeylGroup | None, rank: int):
    """A Weyl group given with a model must act on its rank. It is checked
    and stored nowhere: no result depends on it."""
    if weyl is not None and weyl.rank != rank:
        raise ValueError(f"weyl group {weyl.name!r} does not act on rank {rank}")


def weighted_model(rank: int, factors: Iterable[Iterable[Iterable]],
                   form: BilinearForm | None = None) -> WeightedModel:
    facs = tuple(tuple(tuple(frac(x) for x in w) for w in f) for f in factors)
    return WeightedModel(rank, facs, form or identity_form(rank))


def projective_space_model(weights: Iterable, weyl: WeylGroup | None = None) -> WeightedModel:
    _check_weyl(weyl, 1)
    return weighted_model(1, [[(w,) for w in weights]])


def line_product_model(n: int, weyl: WeylGroup | None = None) -> WeightedModel:
    if n < 1:
        raise ValueError("need at least one line factor")
    _check_weyl(weyl, 1)
    return weighted_model(1, [[(1,), (-1,)]] * n)


# ---------------------------------------------------------------------------
# profiles and their classification

Profile = tuple[tuple[int, ...], ...]


def profile_of_point(model: WeightedModel, point: Sequence[Sequence]) -> Profile:
    if len(point) != len(model.factors):
        raise ValueError("point must have one coordinate tuple per factor")
    prof = []
    for coords, fac in zip(point, model.factors):
        if len(coords) != len(fac):
            raise ValueError("coordinate count does not match factor size")
        supp = tuple(i for i, c in enumerate(coords) if frac(c) != 0)
        if not supp:
            raise ValueError("projective coordinates cannot all vanish")
        prof.append(supp)
    return tuple(prof)


def _check_profile(model: WeightedModel, profile: Profile):
    if len(profile) != len(model.lattice[1]):
        raise ValueError("profile must list one support per factor")
    for supp, fac in zip(profile, model.lattice[1]):
        if not supp:
            raise ValueError("empty support")
        if any(not (0 <= k < len(fac)) for k in supp):
            raise ValueError("support index out of range")


Lattice = tuple[tuple[tuple[int, ...], ...], ...]


def _fractions(d: int, points) -> tuple[Vector, ...]:
    """Lattice points over the denominator d, as Fraction points."""
    return tuple(tuple(Fraction(x, d) for x in p) for p in points)


def minkowski_points(model: WeightedModel, profile: Profile) -> tuple[Vector, ...]:
    """Deduplicated sums of one selected weight per factor, sorted."""
    from .geometry import _lattice_points

    _check_profile(model, profile)
    d, weights = model.lattice
    return _fractions(d, _lattice_points(weights, profile))


class ProfileClass(NamedTuple):
    profile: Profile
    points: tuple[Vector, ...]
    certificate: ProjectionCertificate
    semistable: bool
    stable: bool

    @property
    def beta(self) -> Vector:
        return self.certificate.beta


def classify_profile(model: WeightedModel, profile: Profile) -> ProfileClass:
    from .geometry import closest_point_to_origin, origin_in_interior

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


class IndexStratum(NamedTuple):
    beta: Vector
    certificate: ProjectionCertificate
    witness_profile: Profile
    witness_points: tuple[Vector, ...]


def _subset_positions(k: int):
    """Nonempty subsets of range(k): by size, then lexicographically."""
    return itertools.chain.from_iterable(
        itertools.combinations(range(k), size) for size in range(1, k + 1))


def _distinct_values(fac: Sequence) -> tuple[list, list[int]]:
    """The sorted distinct weights of one factor and the first index of each."""
    order = sorted(range(len(fac)), key=fac.__getitem__)
    firsts = [i for n, i in enumerate(order) if n == 0 or fac[i] != fac[order[n - 1]]]
    return [fac[i] for i in firsts], firsts


def _value_subsets(fac: tuple[Vector, ...]) -> list[tuple[int, ...]]:
    """Index supports of the subsets of one factor's distinct weight values,
    in `_subset_positions` order; each picks the first index of a value."""
    firsts = _distinct_values(fac)[1]
    return [tuple(sorted(firsts[p] for p in c)) for c in _subset_positions(len(firsts))]


def _factor_groups(factors) -> list[list[int]]:
    """Positions of identical factors, grouped in order of first position."""
    groups: dict = {}
    for pos, fac in enumerate(factors):
        groups.setdefault(fac, []).append(pos)
    return list(groups.values())


def enumerate_profiles(model: WeightedModel):
    """Canonical support profiles, one per orbit of identical-factor swaps.

    Permuting identical factors does not change a profile's Minkowski sum,
    so enumerating value subsets up to such permutations loses no strata.
    The order is lexicographic in the subset indices, group by group, and
    the indices do not decrease within a group.
    """
    groups = _factor_groups(model.lattice[1])
    group_subsets = [_value_subsets(model.lattice[1][g[0]]) for g in groups]
    per_group_choices = [
        list(itertools.combinations_with_replacement(range(len(subsets)), len(g)))
        for g, subsets in zip(groups, group_subsets)]
    for combo in itertools.product(*per_group_choices):
        profile: list[tuple[int, ...]] = [()] * len(model.lattice[1])
        for positions, subsets, chosen in zip(groups, group_subsets, combo):
            for pos, subset_idx in zip(positions, chosen):
                profile[pos] = subsets[subset_idx]
        yield tuple(profile)


class _Record(Value):
    """One model's entry in `_MEMO`: per beta in sorted order (beta, its first
    profile, (D, that profile's Minkowski points on the lattice)), and the first
    profile that is semistable but not stable, or None. `strata` builds and keeps
    the Fraction points and canonical certificates on first read. The strata are
    a function of `firsts` and `form`, so they are not compared, and comparing or
    hashing a record builds none. Nor are the recursion nodes of `series`, by
    truncation, the dimension of the weights' span that `series` measures the
    recursion by, and the pairing tables of `residues`."""

    __slots__ = ("firsts", "witness", "form", "_strata", "nodes", "span", "pairing")
    _compared = ("firsts", "witness", "form")

    def __init__(self, firsts: tuple[tuple[Vector, Profile, tuple[int, tuple]], ...],
                 witness: Profile | None, form: BilinearForm):
        self.firsts, self.witness, self.form = firsts, witness, form
        self._strata, self.nodes, self.span, self.pairing = None, {}, None, {}

    @property
    def strata(self) -> tuple[IndexStratum, ...]:
        if self._strata is None:
            from .geometry import _canonical_certificate

            points = [_fractions(d, pts) for _, _, (d, pts) in self.firsts]
            self._strata = tuple(IndexStratum(b, _canonical_certificate(pts, self.form, b), f, pts)
                                 for (b, f, _), pts in zip(self.firsts, points))
        return self._strata


# The one memo: a record per model, keyed by its lattice (factors in their own
# order) and cleared Gram matrix. It is unbounded because evicting a record
# partway through a recursion would build one node of the tree twice.
_MEMO: dict = {}


def _record(model: WeightedModel) -> _Record:
    """The model's record, scanned on first use."""
    key = (model.lattice, model.form.cleared)
    record = _MEMO.get(key)
    if record is None:
        record = _MEMO[key] = (_interval_scan if model.rank == 1 else _profile_scan)(model)
    return record


def _beta(key: tuple[tuple[int, ...], int]) -> Vector:
    """The beta B / s of a search key (B, s)."""
    return tuple(Fraction(x, key[1]) for x in key[0])


def _profile_scan(model: WeightedModel) -> _Record:
    """One verified search per enumerated profile, its beta compared by key."""
    from .geometry import _search, origin_in_interior

    found: dict[tuple, tuple] = {}
    witness = None
    for profile in enumerate_profiles(model):
        points, key = _search(model, profile)
        if key not in found:
            # a beta's Fractions are made, and its certificate built, on its first profile
            found[key] = (_beta(key), profile, (model.lattice[0], points))
        if witness is None and not any(key[0]) and not origin_in_interior(points, model.rank):
            witness = profile
    return _Record(tuple(sorted(found.values())), witness, model.form)   # by beta, not key


def _interval_scan(model: WeightedModel) -> _Record:
    """`_profile_scan` in rank 1, where each hull is an interval: the betas
    are the distinct nonzero Minkowski values v, and 0 when the full
    profile's interval holds 0. Shrinking each support to the singleton of
    its minimum (v > 0) or maximum (v < 0) keeps beta v and moves the
    profile earlier, so v first appears on the first all-singleton profile
    summing to v; the witness is the first summing to 0. Each profile is
    found slot by slot against what the later slots can reach, and checked
    by the verified search."""
    from .geometry import _search, origin_in_interior

    d, weights = model.lattice
    # per slot in enumeration order: position, values, first indices. The
    # least choice is non-decreasing within a group, or a swap would lower it
    slots = [(pos, *_distinct_values([w for w, in weights[pos]]))
             for group in _factor_groups(weights) for pos in group]
    reach = [{0}]   # the sums the slots from j on can reach
    for _, values, _ in reversed(slots):
        reach.insert(0, {s + v for s in reach[0] for v in values})
    bounds = [(min(r), max(r)) for r in reach]

    def first(fits) -> Profile:
        """The first profile whose interval [lo, hi] after each slot j
        passes fits(j, lo, hi)."""
        lo, hi = 0, 0
        profile: list[tuple[int, ...]] = [()] * len(slots)
        for j, (pos, values, firsts) in enumerate(slots):
            c = next(c for c in _subset_positions(len(values))
                     if fits(j, lo + values[c[0]], hi + values[c[-1]]))
            lo, hi = lo + values[c[0]], hi + values[c[-1]]
            profile[pos] = tuple(sorted(firsts[p] for p in c))
        return tuple(profile)

    def summing_to(v):   # the singleton of a fitting minimum comes first
        return first(lambda j, lo, _: v - lo in reach[j + 1])

    profiles = {v: summing_to(v) for v in reach[0] if v}
    if bounds[0][0] <= 0 <= bounds[0][1]:
        profiles[0] = first(lambda j, lo, hi:
                            lo + bounds[j + 1][0] <= 0 <= hi + bounds[j + 1][1])
    firsts = []
    for v in sorted(profiles):
        points, key = _search(model, profiles[v])
        if key != ((v // gcd(v, d),), d // gcd(v, d)):
            raise VerificationFailed("derived stratum profile has another beta",
                                     witness={"profile": profiles[v]})
        firsts.append(((Fraction(v, d),), profiles[v], (d, points)))
    witness = summing_to(0) if 0 in reach[0] else None
    if witness is not None:
        points, key = _search(model, witness)
        if any(key[0]) or origin_in_interior(points, 1):
            raise VerificationFailed("derived witness is not strictly semistable",
                                     witness={"profile": witness})
    return _Record(tuple(firsts), witness, model.form)


def index_set(model: WeightedModel) -> tuple[IndexStratum, ...]:
    """All nearest points of Minkowski hulls of support profiles, certified."""
    return _record(model).strata


def strictly_semistable_witness(model: WeightedModel) -> Profile | None:
    """A support profile that is semistable but not stable, or None."""
    return _record(model).witness


def index_betas(model: WeightedModel) -> tuple[Vector, ...]:
    return tuple(beta for beta, _, _ in _record(model).firsts)


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


def _check_group(group: str):
    if group not in ("torus", "sl2"):
        raise ValueError("group must be 'torus' or 'sl2'")


def quotient_top_degree(model: WeightedModel, group: str) -> int:
    """Real dimension of the quotient: the projective dimensions minus the
    group's dimension (the rank for the torus, 3 for SL(2)), doubled."""
    _check_group(group)
    drop = model.rank if group == "torus" else 3
    return 2 * (sum(s - 1 for s in model.factor_sizes) - drop)


def require_quotient(model: WeightedModel, group: str):
    """The preconditions of a quotient with a fundamental class: a known
    group, negation symmetry for the reflection group, and semistable ==
    stable (else NotCoprimeStable, with the first such profile)."""
    _check_group(group)
    if group == "sl2":
        require_negation_symmetric(model)
    witness = strictly_semistable_witness(model)
    if witness is not None:
        raise NotCoprimeStable("model has a strictly semistable profile",
                               witness={"profile": witness})


def presented_ring(model: WeightedModel) -> tuple[str, ...]:
    """Variables of the ring `kirwan` presents for the model: a single
    weighted projective factor, or lines each with exactly the weights 1 and
    -1; ValueError for any other model."""
    if model.rank != 1:
        raise ValueError("presentations exist for rank-1 models only")
    if len(model.factors) == 1:
        if len(model.factors[0]) < 2:
            raise ValueError("need at least two coordinates")
        return ("z", "a")
    if all(sorted(fac) == [(-1,), (1,)] for fac in model.factors):
        return tuple(f"z{i+1}" for i in range(len(model.factors))) + ("a",)
    raise ValueError("no presentation for this model: need a single "
                     "weighted projective factor or a product of lines")


# ---------------------------------------------------------------------------
# critical components of a stratum


class CriticalComponent(NamedTuple):
    beta: Vector
    values: tuple[Fraction, ...]
    attaining: tuple[tuple[int, ...], ...]
    codim: int


def _components(model: WeightedModel, beta: Sequence[Fraction]):
    """((s, B, n), [(values, attaining sets, codimension)]) of beta = B / s, form G / c,
    weights W / D, n = <B, G B>: each value s <W, G B> is a pairing times D c s^2."""
    s, (bl,) = clear_denominators([beta])
    gb = _iapply(model.form.cleared[1], bl)
    n = _idot(bl, gb)
    d, weights = model.lattice
    target = d * n
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
    return (s, bl, n), [(v, att, 2 * sum(below)) for v, att, below in (zip(*c) for _, c in paths)]


def critical_components(model: WeightedModel, beta: Sequence) -> tuple[CriticalComponent, ...]:
    """Fixed-locus components where the stratum's moment pairing is attained.

    One component per tuple of per-factor pairing values summing to
    <beta, beta>; the attaining sets list which coordinates realize each
    value, and the codimension counts the weights pairing below it. The
    integer core `_components` finds them; only the values are Fractions.
    """
    b = tuple(frac(x) for x in beta)
    if len(b) != model.rank:
        raise ValueError("beta dimension does not match model rank")
    (s, _, _), comps = _components(model, b)
    scale = model.lattice[0] * model.form.cleared[0] * s * s
    return tuple(CriticalComponent(b, tuple(Fraction(v, scale) for v in values), att, codim)
                 for values, att, codim in comps)


def stratum_codim(model: WeightedModel, component: CriticalComponent) -> int:
    """Real codimension: twice the count of weights pairing below the
    component's value in each factor."""
    return component.codim


def _shift(model: WeightedModel, beta: tuple[int, tuple[int, ...], int],
           values: Sequence[int], attaining, canonical: bool) -> WeightedModel:
    """The shifted submodel, in the model's order or sorted, of `_components`'
    (s, B, n) and a component's values v: W / D shifts to (n s W - v B) / (D n s).
    Divided by their gcd, rows and denominator are the lattice the child would
    clear; it is built from them, after sorting, and makes its Fractions on first read."""
    s, bl, n = beta
    if n == 0:
        raise ValueError("the zero stratum has no shifted submodel")
    d, weights = model.lattice
    rows = [[tuple(n * s * x - v * b for x, b in zip(fac[i], bl)) for i in att]
            for fac, att, v in zip(weights, attaining, values)]
    g = gcd(d * n * s, *(x for fac in rows for w in fac for x in w))
    rows = [[tuple(x // g for x in w) for w in fac] for fac in rows]
    child = WeightedModel.__new__(WeightedModel)
    d, rows = d * n * s // g, tuple(map(tuple, sorted(map(sorted, rows)) if canonical else rows))
    child.rank, child.form, child.lattice, child._factors = model.rank, model.form, (d, rows), None
    return child


def shifted_submodel(model: WeightedModel, component: CriticalComponent) -> WeightedModel:
    """Model carried by a critical component of this model: attaining weights,
    shifted so the component pairs to zero against its beta: w - (v / |beta|^2) beta."""
    if component not in critical_components(model, component.beta):
        raise ValueError("not a critical component of this model")
    beta, _ = _components(model, component.beta)
    scale = model.lattice[0] * model.form.cleared[0] * beta[0] ** 2
    return _shift(model, beta, [int(v * scale) for v in component.values],
                  component.attaining, False)
