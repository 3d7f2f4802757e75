"""Fixed-point localization and residue pairings for rank-one models.

Classes restrict to the components of the torus-fixed locus (one component
per tuple of per-factor weight values); each component contributes an
integral of the restricted class against the inverse of its normal Euler
class, and the intersection pairing of the quotient is the residue in the
equivariant parameter of the sum over the components on the positive side
of the moment map.

Raw residue sums carry a universal constant depending only on the group
type: the torus sum is scaled by -2 and the reflection-quotient sum by +1,
normalized so the fundamental pairing of the basic one-line quotients is
+1. Orbifold quotients keep their stabilizer denominators (the four-point
reflection quotient pairs to 1/6, for instance); coranks and kernels do
not depend on these constants at all.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import comb
from typing import NamedTuple, Sequence

from .linalg import null_space
from .models import WeightedModel, require_negation_symmetric
from .polynomials import Exponents, GradedPolynomial, monomials
from .series import _check_group, quotient_top_degree, require_quotient

# residue_pairing is the raw residue sum times this, per group
PAIRING_SCALE = {"torus": Fraction(-2), "sl2": Fraction(1)}


class FixedComponent(NamedTuple):
    values: tuple[Fraction, ...]      # pairing value per factor
    indices: tuple[tuple[int, ...], ...]  # coordinates carrying each value
    sizes: tuple[int, ...]

    @property
    def mu(self) -> Fraction:
        return sum(self.values, Fraction(0))


def fixed_components(model: WeightedModel) -> tuple[FixedComponent, ...]:
    """Components of the fixed locus: one weight-value class per factor."""
    if model.rank != 1:
        raise ValueError("fixed-point localization implemented for rank-one models")
    per_factor = []
    for fac in model.factors:
        classes: dict[Fraction, list[int]] = {}
        for k, w in enumerate(fac):
            classes.setdefault(w[0], []).append(k)
        per_factor.append(sorted(classes.items()))
    out = []
    for combo in itertools.product(*per_factor):
        values = tuple(v for v, _ in combo)
        idxs = tuple(tuple(ix) for _, ix in combo)
        out.append(FixedComponent(values, idxs, tuple(len(ix) for ix in idxs)))
    out.sort(key=lambda c: c.values)
    return tuple(out)


def component_variables(model: WeightedModel) -> tuple[str, ...]:
    return tuple(f"h{i+1}" for i in range(len(model.factors))) + ("a",)


def presented_ring(model: WeightedModel) -> tuple[tuple[str, ...], list | None]:
    """Variables of the ring `kirwan` presents for the model, with the weights
    of its one factor, or None for lines (each with exactly the weights 1 and
    -1); ValueError for any other model."""
    if model.rank != 1:
        raise ValueError("presentations exist for rank-1 models only")
    if len(model.factors) == 1:
        weights = [w[0] for w in model.factors[0]]
        if len(weights) < 2:
            raise ValueError("need at least two coordinates")
        return ("z", "a"), weights
    if all(sorted(fac) == [(-1,), (1,)] for fac in model.factors):
        return tuple(f"z{i+1}" for i in range(len(model.factors))) + ("a",), None
    raise ValueError("no presentation for this model: need a single "
                     "weighted projective factor or a product of lines")


# ---------------------------------------------------------------------------
# Laurent bookkeeping: dict (h-exponents, a-exponent) -> Fraction

_Laurent = dict[tuple[Exponents, int], Fraction]


def _laurent_mul(x: _Laurent, y: _Laurent, sizes: tuple[int, ...]) -> _Laurent:
    out: _Laurent = {}
    for (he1, ae1), c1 in x.items():
        for (he2, ae2), c2 in y.items():
            he = tuple(a + b for a, b in zip(he1, he2))
            if any(he[i] >= sizes[i] for i in range(len(sizes))):
                continue
            key = (he, ae1 + ae2)
            out[key] = out.get(key, Fraction(0)) + c1 * c2
    return {k: v for k, v in out.items() if v != 0}


class ComponentRestriction:
    """Restriction to one fixed component, applied in closed form.

    The ambient variables (z1..zm, a) map to (h1 - v1*a, ..., hm - vm*a, a)
    with hi^sizei = 0, so zi^e maps to the sum over k < sizei of
    C(e, k) * hi^k * (-vi*a)^(e-k). Images are Laurent dicts keyed by
    (h-exponents, a-exponent); each factor's power images are kept on the
    instance, so restricting many monomials to one component expands each
    power once.
    """

    def __init__(self, comp: FixedComponent):
        self.comp = comp
        self._powers: list[dict[int, tuple[tuple[int, Fraction], ...]]] = [
            {} for _ in comp.values]

    def _power(self, i: int, e: int) -> tuple[tuple[int, Fraction], ...]:
        hit = self._powers[i].get(e)
        if hit is None:
            shift = -self.comp.values[i]
            hit = tuple((k, comb(e, k) * shift ** (e - k))
                        for k in range(min(e + 1, self.comp.sizes[i])))
            self._powers[i][e] = hit
        return hit

    def monomial(self, e: Exponents) -> _Laurent:
        """Image of the monomial with exponents e over (z1..zm, a)."""
        terms: _Laurent = {((), e[-1]): Fraction(1)}
        for i, ei in enumerate(e[:-1]):
            terms = {(he + (k,), ae + ei - k): c * ck
                     for (he, ae), c in terms.items()
                     for k, ck in self._power(i, ei)}
        return terms

    def laurent(self, poly: GradedPolynomial) -> _Laurent:
        """Image of a polynomial over (z1..zm, a)."""
        out: _Laurent = {}
        for e, c in poly.terms:
            for key, k in self.monomial(e).items():
                out[key] = out.get(key, 0) + c * k
        return out


def restriction_matrix(comp: FixedComponent, exps: Sequence[Exponents]
                       ) -> list[list[Fraction]]:
    """Restriction to one component as a linear map on the span of the
    monomials with exponents exps: one column per monomial, one row per
    image term (h-exponents, a-exponent) in sorted order."""
    restrict = ComponentRestriction(comp)
    images = [restrict.monomial(e) for e in exps]
    keys = sorted({key for image in images for key in image})
    return [[image.get(key, Fraction(0)) for image in images] for key in keys]


def _require_ambient(model: WeightedModel, variables: Sequence[str]):
    if len(variables) != len(model.factors) + 1:
        raise ValueError("polynomial must have one coordinate class per factor plus the parameter")


def restrict_to_component(model: WeightedModel, poly: GradedPolynomial,
                          comp: FixedComponent) -> GradedPolynomial:
    """Image of a class under restriction to one fixed component.

    The ambient variables (z1..zm, a) or (z, a) map to (h1 - v1*a, ...,
    hm - vm*a, a), and each hi is truncated at its component's size. Base
    relations of the ambient presentation restrict to zero.
    """
    _require_ambient(model, poly.variables)
    image = ComponentRestriction(comp).laurent(poly)
    return GradedPolynomial.from_dict(
        component_variables(model), {he + (ae,): c for (he, ae), c in image.items()})


def euler_class(model: WeightedModel, comp: FixedComponent) -> GradedPolynomial:
    """Product of the component's normal weights (h_i + (b - v_i) a)."""
    hvars = component_variables(model)
    a = GradedPolynomial.var(hvars, "a")
    out = GradedPolynomial.const(hvars, 1)
    for i, fac in enumerate(model.factors):
        h = GradedPolynomial.var(hvars, hvars[i])
        for w in fac:
            b = w[0]
            if b != comp.values[i]:
                out = out * (h + a.scale(b - comp.values[i]))
    kept = {e: c for e, c in out.terms
            if all(e[i] < comp.sizes[i] for i in range(len(model.factors)))}
    return GradedPolynomial.from_dict(hvars, kept)


def _inverse_euler(model: WeightedModel, comp: FixedComponent) -> _Laurent:
    """Inverse of the Euler class, exact in Q[h]/(h^sizes) with a inverted."""
    m = len(model.factors)
    sizes = comp.sizes
    inv: _Laurent = {((0,) * m, 0): Fraction(1)}
    for i, fac in enumerate(model.factors):
        for w in fac:
            b = w[0]
            if b == comp.values[i]:
                continue
            c = b - comp.values[i]
            factor: _Laurent = {}
            for k in range(sizes[i]):
                he = tuple(k if j == i else 0 for j in range(m))
                factor[(he, -1 - k)] = Fraction(-1) ** k / c ** (k + 1)
            inv = _laurent_mul(inv, factor, sizes)
    return inv


def _localization(model: WeightedModel, group: str
                  ) -> list[tuple[ComponentRestriction, _Laurent]]:
    """Per fixed component with positive moment value: its restriction, and
    the inverse of its Euler class (times (2a)^2 for the reflection group)."""
    out = []
    for comp in fixed_components(model):
        if comp.mu <= 0:
            continue
        inv = _inverse_euler(model, comp)
        if group == "sl2":
            inv = {(he, ae + 2): 4 * c for (he, ae), c in inv.items()}
        out.append((ComponentRestriction(comp), inv))
    return out


def _component_residue(left: _Laurent, right: _Laurent,
                       comp: FixedComponent) -> Fraction:
    """Coefficient of h^(sizes-1) a^-1 in left * right: the residue of the
    component's integral when left already carries the inverse Euler class."""
    top = tuple(s - 1 for s in comp.sizes)
    total = Fraction(0)
    for (he, ae), c in right.items():
        k = left.get((tuple(t - x for t, x in zip(top, he)), -1 - ae))
        if k is not None:
            total += k * c
    return total


def _raw_residue(model: WeightedModel, eta: GradedPolynomial,
                 zeta: GradedPolynomial, group: str) -> Fraction:
    if eta.variables != zeta.variables:
        raise ValueError("polynomials live in different rings")
    _require_ambient(model, eta.variables)
    total = Fraction(0)
    for restrict, inv in _localization(model, group):
        left = _laurent_mul(restrict.laurent(eta), inv, restrict.comp.sizes)
        total += _component_residue(left, restrict.laurent(zeta), restrict.comp)
    return total


def raw_residue_sum(model: WeightedModel, eta: GradedPolynomial,
                    zeta: GradedPolynomial, group: str = "torus") -> Fraction:
    """Unnormalized residue sum over the positive fixed components.

    Defined for any model; carries quotient meaning only when semistable
    equals stable, which residue_pairing enforces.
    """
    _check_group(group)
    if group == "sl2":
        require_negation_symmetric(model)
    return _raw_residue(model, eta, zeta, group)


def residue_pairing(model: WeightedModel, eta: GradedPolynomial,
                    zeta: GradedPolynomial, group: str = "torus") -> Fraction:
    """Intersection pairing of two classes on the quotient.

    Requires every semistable profile to be stable, so the quotient carries
    a rational fundamental class against which the residue sum pairs.
    """
    require_quotient(model, group)
    raw = _raw_residue(model, eta, zeta, group)
    return raw * PAIRING_SCALE[group]


class PairingKernelResult(NamedTuple):
    degree: int
    group: str
    basis: tuple[GradedPolynomial, ...]
    complementary_basis: tuple[GradedPolynomial, ...]
    matrix: tuple[tuple[Fraction, ...], ...]
    rank: int
    kernel: tuple[GradedPolynomial, ...]


def _free_basis(variables: tuple[str, ...], d: int, invariant: bool) -> tuple[GradedPolynomial, ...]:
    return tuple(m for m in monomials(variables, d)
                 if not (invariant and m.terms[0][0][-1] % 2))


def kernel_by_pairing(model: WeightedModel, variables: Sequence[str], d: int,
                      group: str = "torus") -> PairingKernelResult:
    """Null space of the degree-d pairing matrix against the complementary
    degree, over the free (invariant, for the reflection case) monomials."""
    require_quotient(model, group)
    v = tuple(variables)
    _require_ambient(model, v)
    invariant = group == "sl2"
    basis = _free_basis(v, d, invariant)
    comp_basis = _free_basis(v, quotient_top_degree(model, group) - d, invariant)
    entries = [[Fraction(0)] * len(comp_basis) for _ in basis]
    for restrict, inv in _localization(model, group):
        rights = [restrict.laurent(m2) for m2 in comp_basis]
        for row, m1 in zip(entries, basis):
            left = _laurent_mul(restrict.laurent(m1), inv, restrict.comp.sizes)
            for j, right in enumerate(rights):
                row[j] += _component_residue(left, right, restrict.comp)
    matrix = tuple(tuple(row) for row in entries)
    # kernel vectors live on the degree-d side: solve c^T M = 0
    transposed = [[matrix[i][j] for i in range(len(basis))]
                  for j in range(len(comp_basis))]
    kern_vecs = null_space(transposed, len(basis))
    rank = len(basis) - len(kern_vecs)
    kernel = []
    for vecs in kern_vecs:
        p = GradedPolynomial.zero(v)
        for c, mono in zip(vecs, basis):
            if c != 0:
                p = p + mono.scale(c)
        kernel.append(p)
    return PairingKernelResult(d, group, basis, comp_basis, matrix, rank, tuple(kernel))
