"""Fixed-point localization and residue pairings for rank-one models.

Classes restrict to the components of the torus-fixed locus (one component
per tuple of per-factor weight values). The intersection pairing of two
classes on the quotient is one linear functional of their product
(Jeffrey-Kirwan): the residue in the equivariant parameter of the sum, over
the components F with positive moment value, of the integral over F of
(eta*zeta)|_F / e(N_F), with e(N_F) the Euler class of F's normal bundle.
Restrictions and inverse Euler classes are homogeneous, so they are kept by
h-exponents alone at a = 1, and only monomials of half the quotient's top
degree reach a^-1: every other monomial integrates to 0 unrestricted. The
model's memo record keeps that localization and each product's integral.

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
from math import comb, lcm, prod
from operator import add
from typing import NamedTuple, Sequence

from .linalg import null_space
from .models import (WeightedModel, _check_group, _record, quotient_top_degree,
                     require_negation_symmetric, require_quotient)
from .polynomials import Exponents, GradedPolynomial, euler_product, monomials

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


def _restrict(comp: FixedComponent, e: Exponents) -> dict[Exponents, Fraction]:
    """Image on one component of the monomial with exponents e over
    (z1..zm, a), which map to (h1 - v1*a, ..., hm - vm*a, a) with
    hi^sizei = 0: zi^e maps to the sum over k < sizei of
    C(e, k) * hi^k * (-vi*a)^(e-k). The image is homogeneous of degree |e|,
    so a term keyed by its h-exponents he has a-exponent |e| - |he|. The
    products run in integers on the values times the lcm D of their
    denominators; each term's power of D is divided out by one Fraction."""
    d = lcm(*(v.denominator for v in comp.values))
    zdeg = sum(e[:-1])
    if all(size == 1 for size in comp.sizes):   # an isolated point: one term
        c = prod((-v.numerator * (d // v.denominator)) ** ei
                 for ei, v in zip(e, comp.values))
        return {(0,) * len(comp.sizes): Fraction(c, d ** zdeg)} if c else {}
    # per factor, the terms k of zi^ei; zip stops before the a-exponent
    powers = [[(k, comb(ei, k) * (-v.numerator * (d // v.denominator)) ** (ei - k))
               for k in range(min(ei + 1, size))]
              for ei, v, size in zip(e, comp.values, comp.sizes)]
    image: dict[Exponents, Fraction] = {}
    for combo in itertools.product(*powers):
        c = prod(ck for _, ck in combo)
        if c:
            he = tuple(k for k, _ in combo)
            image[he] = Fraction(c, d ** (zdeg - sum(he)))
    return image


def restriction_matrix(comp: FixedComponent, exps: Sequence[Exponents]
                       ) -> list[list[Fraction]]:
    """Restriction to one component as a linear map on the span of the
    monomials with exponents exps: one column per monomial, one row per
    nonzero image term in sorted order. A row is keyed by the term's
    h-exponents he and its a-exponent |e| - |he|, so columns of several
    degrees keep their terms apart."""
    images = [{(he, sum(e) - sum(he)): c for he, c in _restrict(comp, e).items()}
              for e in exps]
    keys = sorted({key for image in images for key in image})
    return [[image.get(key, Fraction(0)) for image in images] for key in keys]


def _require_ambient(model: WeightedModel, variables: Sequence[str]):
    if len(variables) != len(model.factors) + 1:
        raise ValueError("polynomial must have one coordinate class per factor plus the parameter")


def _require_component(model: WeightedModel, comp: FixedComponent):
    if comp not in fixed_components(model):
        raise ValueError("not a fixed component of this model")


def restrict_to_component(model: WeightedModel, poly: GradedPolynomial,
                          comp: FixedComponent) -> GradedPolynomial:
    """Image of a class under restriction to one fixed component.

    The ambient variables (z1..zm, a) or (z, a) map to (h1 - v1*a, ...,
    hm - vm*a, a), and each hi is truncated at its component's size. Base
    relations of the ambient presentation restrict to zero.
    """
    _require_ambient(model, poly.variables)
    _require_component(model, comp)
    out: dict[Exponents, Fraction] = {}
    for e, c in poly.terms:
        for he, k in _restrict(comp, e).items():
            key = he + (sum(e) - sum(he),)
            out[key] = out.get(key, 0) + c * k
    return GradedPolynomial.from_dict(component_variables(model), out)


def euler_class(model: WeightedModel, comp: FixedComponent) -> GradedPolynomial:
    """Product of the component's normal weights (h_i + (b - v_i) a)."""
    _require_component(model, comp)
    hvars = component_variables(model)
    out = euler_product(hvars, [(h, b - v) for h, fac, v in zip(hvars, model.factors, comp.values)
                                for (b,) in fac if b != v])
    kept = {e: c for e, c in out.terms
            if all(e[i] < comp.sizes[i] for i in range(len(model.factors)))}
    return GradedPolynomial.from_dict(hvars, kept)


def _inverse_euler(model: WeightedModel, comp: FixedComponent
                   ) -> dict[Exponents, Fraction]:
    """Inverse of the Euler class in Q[h]/(h^sizes) at a = 1, one entry per
    h-exponent below the sizes; being homogeneous, the inverse needs no
    a-exponents. Per factor, each other weight b contributes the series
    1/(h + b - v) = sum_j (-h)^j / (b - v)^(j+1), multiplied out below the
    factor's size; an entry is the product of one coefficient per factor."""
    series = []
    for fac, v, size in zip(model.factors, comp.values, comp.sizes):
        s = [Fraction(1)] + [Fraction(0)] * (size - 1)
        for (b,) in fac:
            if b != v:
                g = [Fraction((-1) ** j) / (b - v) ** (j + 1) for j in range(size)]
                s = [sum(s[i] * g[j - i] for i in range(j + 1)) for j in range(size)]
        series.append(s)
    return dict(zip(itertools.product(*(range(size) for size in comp.sizes)),
                    map(prod, itertools.product(*series))))


def _localization(model: WeightedModel, group: str) -> tuple[int, list]:
    """Half the quotient's top degree, the one exponent sum that reaches a^-1,
    and each positive fixed component with its inverse Euler class at a = 1
    (times 4 for the reflection group: its (2a)^2 takes two off that sum)."""
    scale = 4 if group == "sl2" else 1
    return quotient_top_degree(model, group) // 2, [
        (comp, {he: scale * c for he, c in _inverse_euler(model, comp).items()})
        for comp in fixed_components(model) if comp.mu > 0]


def _integral(localization: tuple[int, list], e: Exponents) -> Fraction:
    """Residue sum of the monomial with exponents e: per component, the
    coefficient of h^(sizes-1) a^-1 in its image times the inverse Euler
    class; 0, with nothing restricted, off the localization's exponent sum."""
    degree, components = localization
    if sum(e) != degree:
        return Fraction(0)
    return sum((c * inv[tuple(s - 1 - k for s, k in zip(comp.sizes, he))]
                for comp, inv in components for he, c in _restrict(comp, e).items()),
               Fraction(0))


def _integrals(model: WeightedModel, group: str, exps) -> dict[Exponents, Fraction]:
    """The model's table of monomial integrals for the group, now holding exps.
    Rank >= 2 fails in `fixed_components`, without the record's costly scan."""
    tables = _record(model).pairing if model.rank == 1 else {}
    if group not in tables:
        tables[group] = (_localization(model, group), {})
    localization, table = tables[group]
    table.update({e: _integral(localization, e) for e in exps if e not in table})
    return table


def _raw_residue(model: WeightedModel, eta: GradedPolynomial,
                 zeta: GradedPolynomial, group: str) -> Fraction:
    product = eta * zeta
    _require_ambient(model, product.variables)
    table = _integrals(model, group, [e for e, _ in product.terms])
    return sum((c * table[e] for e, c in product.terms), Fraction(0))


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
    # the pairing of two monomials is the integral of their product
    pairs = [[tuple(map(add, m1.terms[0][0], m2.terms[0][0])) for m2 in comp_basis]
             for m1 in basis]
    integrals = _integrals(model, group, {e for row in pairs for e in row})
    matrix = tuple(tuple(integrals[e] for e in row) for row in pairs)
    # kernel vectors live on the degree-d side: solve c^T M = 0
    transposed = [[matrix[i][j] for i in range(len(basis))]
                  for j in range(len(comp_basis))]
    kern_vecs = null_space(transposed, len(basis))
    rank = len(basis) - len(kern_vecs)
    kernel = tuple(GradedPolynomial.from_dict(
        v, {mono.terms[0][0]: c for c, mono in zip(vec, basis)}) for vec in kern_vecs)
    return PairingKernelResult(d, group, basis, comp_basis, matrix, rank, kernel)
