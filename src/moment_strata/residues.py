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
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import NotCoprimeStable
from .linalg import matrix_rank, null_space
from .models import (WeightedModel, require_negation_symmetric,
                     strictly_semistable_witness)
from .polynomials import Exponents, GradedPolynomial, exponents_of_degree
from .series import quotient_top_degree

_TORUS_SCALE = Fraction(-2)
_SL2_SCALE = Fraction(1)


@dataclass(frozen=True)
class FixedComponent:
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


def restrict_to_component(model: WeightedModel, poly: GradedPolynomial,
                          comp: FixedComponent) -> GradedPolynomial:
    """Image of a class under restriction to one fixed component.

    The ambient variables (z1..zm, a) or (z, a) map to (h1 - v1*a, ...,
    hm - vm*a, a), and each hi is truncated at its component's size. Base
    relations of the ambient presentation restrict to zero.
    """
    hvars = component_variables(model)
    m = len(model.factors)
    if len(poly.variables) != m + 1:
        raise ValueError("polynomial must have one coordinate class per factor plus the parameter")
    a = GradedPolynomial.var(hvars, "a")
    # reinterpret the ambient exponents over (h1..hm, a), then shift each hi
    images = {}
    for i in range(m):
        h = GradedPolynomial.var(hvars, hvars[i])
        images[hvars[i]] = h - a.scale(comp.values[i])
    moved = GradedPolynomial(hvars, poly.terms).substitute(images)
    kept = {e: c for e, c in moved.terms
            if all(e[i] < comp.sizes[i] for i in range(m))}
    return GradedPolynomial.from_dict(hvars, kept)


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


# ---------------------------------------------------------------------------
# Laurent bookkeeping: dict (h-exponents, a-exponent) -> Fraction

_Laurent = dict[tuple[Exponents, int], Fraction]


def _to_laurent(poly: GradedPolynomial, m: int) -> _Laurent:
    out: _Laurent = {}
    for e, c in poly.terms:
        out[(e[:m], e[m])] = c
    return out


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


def _integrate_component(model: WeightedModel, comp: FixedComponent,
                         restricted: GradedPolynomial) -> dict[int, Fraction]:
    """Integral over the component of restricted/euler, as a Laurent series in a."""
    m = len(model.factors)
    num = _to_laurent(restricted, m)
    total = _laurent_mul(num, _inverse_euler(model, comp), comp.sizes)
    top = tuple(s - 1 for s in comp.sizes)
    out: dict[int, Fraction] = {}
    for (he, ae), c in total.items():
        if he == top:
            out[ae] = out.get(ae, Fraction(0)) + c
    return out


def _raw_residue(model: WeightedModel, eta: GradedPolynomial,
                 zeta: GradedPolynomial, group: str) -> Fraction:
    prod = eta * zeta
    if group == "sl2":
        a = GradedPolynomial.var(eta.variables, eta.variables[-1])
        prod = prod * (a.scale(2) ** 2)
    acc: dict[int, Fraction] = {}
    for comp in fixed_components(model):
        if comp.mu <= 0:
            continue
        restricted = restrict_to_component(model, prod, comp)
        for ae, c in _integrate_component(model, comp, restricted).items():
            acc[ae] = acc.get(ae, Fraction(0)) + c
    return acc.get(-1, Fraction(0))


def raw_residue_sum(model: WeightedModel, eta: GradedPolynomial,
                    zeta: GradedPolynomial, group: str = "torus") -> Fraction:
    """Unnormalized residue sum over the positive fixed components.

    Defined for any model; carries quotient meaning only when semistable
    equals stable, which residue_pairing enforces.
    """
    if group not in ("torus", "sl2"):
        raise ValueError("group must be 'torus' or 'sl2'")
    if group == "sl2":
        require_negation_symmetric(model)
    return _raw_residue(model, eta, zeta, group)


def residue_pairing(model: WeightedModel, eta: GradedPolynomial,
                    zeta: GradedPolynomial, group: str = "torus") -> Fraction:
    """Intersection pairing of two classes on the quotient.

    Requires every semistable profile to be stable, so the quotient carries
    a rational fundamental class against which the residue sum pairs.
    """
    if group not in ("torus", "sl2"):
        raise ValueError("group must be 'torus' or 'sl2'")
    if group == "sl2":
        require_negation_symmetric(model)
    witness = strictly_semistable_witness(model)
    if witness is not None:
        raise NotCoprimeStable("model has a strictly semistable profile",
                               witness={"profile": witness})
    raw = _raw_residue(model, eta, zeta, group)
    return raw * (_TORUS_SCALE if group == "torus" else _SL2_SCALE)


@dataclass(frozen=True)
class PairingKernelResult:
    degree: int
    group: str
    basis: tuple[GradedPolynomial, ...]
    complementary_basis: tuple[GradedPolynomial, ...]
    matrix: tuple[tuple[Fraction, ...], ...]
    rank: int
    kernel: tuple[GradedPolynomial, ...]


def _free_basis(variables: tuple[str, ...], d: int, invariant: bool) -> tuple[GradedPolynomial, ...]:
    if d < 0 or d % 2:
        return ()
    out = []
    for e in exponents_of_degree(len(variables), d // 2):
        if invariant and e[-1] % 2:
            continue
        out.append(GradedPolynomial(variables, ((e, Fraction(1)),)))
    return tuple(out)


def kernel_by_pairing(model: WeightedModel, variables: Sequence[str], d: int,
                      group: str = "torus") -> PairingKernelResult:
    """Null space of the degree-d pairing matrix against the complementary
    degree, over the free (invariant, for the reflection case) monomials."""
    if group not in ("torus", "sl2"):
        raise ValueError("group must be 'torus' or 'sl2'")
    if group == "sl2":
        require_negation_symmetric(model)
    witness = strictly_semistable_witness(model)
    if witness is not None:
        raise NotCoprimeStable("model has a strictly semistable profile",
                               witness={"profile": witness})
    v = tuple(variables)
    invariant = group == "sl2"
    basis = _free_basis(v, d, invariant)
    comp_basis = _free_basis(v, quotient_top_degree(model, group) - d, invariant)
    matrix = tuple(
        tuple(_raw_residue(model, m1, m2, group) for m2 in comp_basis)
        for m1 in basis)
    # kernel vectors live on the degree-d side: solve c^T M = 0
    transposed = [[matrix[i][j] for i in range(len(basis))]
                  for j in range(len(comp_basis))]
    kern_vecs = null_space(transposed, len(basis))
    rank = matrix_rank(transposed) if transposed else 0
    kernel = []
    for vecs in kern_vecs:
        p = GradedPolynomial.zero(v)
        for c, mono in zip(vecs, basis):
            if c != 0:
                p = p + mono.scale(c)
        kernel.append(p)
    return PairingKernelResult(d, group, basis, comp_basis, matrix, rank, tuple(kernel))
