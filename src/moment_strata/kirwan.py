"""Kernels of the restriction from equivariant cohomology to the quotient.

Two presentations are supported: a weighted projective space P(C^{n+1})
with variables (z, a), relation prod_j (z + w_j a); and a product of n
projective lines with variables (z1..zn, a), relations z_i^2 - a^2. In both
cases every variable has cohomological degree two and `a` is the
equivariant parameter of the (rank-one) torus.

Each unstable stratum contributes the Thom-Gysin image of its closure: the
product of the Euler factors of the coordinates the stratum kills. The
torus-level kernel is generated by these lifts; the reflection-group kernel
folds opposite strata into an invariant difference (divided by the
parameter) and an invariant sum. Betti numbers fall out of exact row
reduction of the relation ideal degree by degree.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .linalg import SpanBasis, frac, null_space
from .models import (
    WeightedModel,
    index_set,
    line_product_model,
    projective_space_model,
    require_negation_symmetric,
)
from .polynomials import (
    Exponents,
    GradedPolynomial,
    divide_exact,
    exponents_of_degree,
    graded_piece_dim,
    polynomial_division,
)
from .residues import fixed_components, restriction_matrix


@dataclass(frozen=True)
class Presentation:
    kind: str                       # "pn" or "p1n"
    variables: tuple[str, ...]
    weights: tuple[Fraction, ...]   # pn: coordinate weights; p1n: empty
    n: int                          # pn: projective dimension; p1n: line count
    relations: tuple[GradedPolynomial, ...]

    def model(self) -> WeightedModel:
        if self.kind == "pn":
            return projective_space_model(self.weights)
        return line_product_model(self.n)

    @property
    def alpha(self) -> GradedPolynomial:
        return GradedPolynomial.var(self.variables, "a")


def projective_space_presentation(weights: Sequence) -> Presentation:
    ws = tuple(frac(w) for w in weights)
    if len(ws) < 2:
        raise ValueError("need at least two coordinates")
    v = ("z", "a")
    z = GradedPolynomial.var(v, "z")
    a = GradedPolynomial.var(v, "a")
    rel = GradedPolynomial.const(v, 1)
    for w in ws:
        rel = rel * (z + a.scale(w))
    return Presentation("pn", v, ws, len(ws) - 1, (rel,))


def line_product_presentation(n: int) -> Presentation:
    if n < 1:
        raise ValueError("need at least one line")
    v = tuple(f"z{i+1}" for i in range(n)) + ("a",)
    a = GradedPolynomial.var(v, "a")
    rels = tuple(GradedPolynomial.var(v, f"z{i+1}") ** 2 - a ** 2
                 for i in range(n))
    return Presentation("p1n", v, (), n, rels)


# ---------------------------------------------------------------------------
# strata and their Thom-Gysin lifts


@dataclass(frozen=True)
class PnStratum:
    beta: Fraction


@dataclass(frozen=True)
class LineProductStratum:
    subset: tuple[int, ...]   # 1-based factor positions, matching z-names
    sigma: int                # +1 or -1: which pole the subset sits on


def torus_strata(pres: Presentation):
    if pres.kind == "pn":
        model = pres.model()
        return tuple(PnStratum(s.beta[0]) for s in index_set(model)
                     if s.beta[0] != 0)
    out = []
    n = pres.n
    for size in range(n // 2 + 1, n + 1):
        for subset in itertools.combinations(range(1, n + 1), size):
            for sigma in (1, -1):
                out.append(LineProductStratum(subset, sigma))
    return tuple(out)


def stratum_codimension(pres: Presentation, stratum) -> int:
    if isinstance(stratum, PnStratum):
        b = stratum.beta
        return 2 * sum(1 for w in pres.weights if w * b < b * b)
    return 2 * len(stratum.subset)


def thom_gysin_lift(pres: Presentation, stratum,
                    eta: GradedPolynomial | None = None) -> GradedPolynomial:
    """Pushforward of eta from a stratum closure: eta times the product of
    Euler factors of the coordinates the stratum kills."""
    v = pres.variables
    a = pres.alpha
    if isinstance(stratum, PnStratum):
        b = stratum.beta
        if b == 0:
            raise ValueError("the zero stratum has no lift")
        out = GradedPolynomial.const(v, 1)
        for w in pres.weights:
            if w * b < b * b:
                out = out * (GradedPolynomial.var(v, "z") + a.scale(w))
    elif isinstance(stratum, LineProductStratum):
        if stratum.sigma not in (1, -1):
            raise ValueError("sigma must be +1 or -1")
        out = GradedPolynomial.const(v, 1)
        for j in stratum.subset:
            if not 1 <= j <= pres.n:
                raise ValueError("subset entry out of range")
            out = out * (GradedPolynomial.var(v, f"z{j}") + a.scale(stratum.sigma))
    else:
        raise TypeError("unknown stratum descriptor")
    if eta is not None:
        out = out * eta
    return out


# ---------------------------------------------------------------------------
# kernel ideals


@dataclass(frozen=True)
class KernelIdeal:
    group: str       # "torus" or "sl2"
    target: str      # "semistable" or "stable"
    max_degree: int
    generators: tuple[tuple[str, GradedPolynomial], ...]
    presentation: Presentation


def torus_kernel_ideal(pres: Presentation, max_degree: int) -> KernelIdeal:
    """One generator per unstable stratum: the lift of the unit class.

    The lift of any class eta is eta times the lift of the unit, so the
    degreewise spans of this ideal coincide with the spans of per-monomial
    lift enumerations up to the same degree cap.
    """
    gens = []
    for stratum in torus_strata(pres):
        lam = stratum_codimension(pres, stratum)
        if lam > max_degree:
            continue
        if isinstance(stratum, PnStratum):
            label = f"beta={stratum.beta}"
        else:
            label = f"J={','.join(map(str, stratum.subset))};sigma={stratum.sigma:+d}"
        gens.append((label, thom_gysin_lift(pres, stratum)))
    return KernelIdeal("torus", "semistable", max_degree, tuple(gens), pres)


def _reflect(poly: GradedPolynomial) -> GradedPolynomial:
    """Image under a -> -a (the last variable): terms with an odd power of a
    change sign."""
    return GradedPolynomial(poly.variables, tuple(
        (e, -c if e[-1] % 2 else c) for e, c in poly.terms))


def sl2_kernel_ideal(pres: Presentation, max_degree: int,
                     target: str = "semistable") -> KernelIdeal:
    """Folded kernel generators for the reflection quotient.

    Each pair of opposite strata yields two invariant generators: the
    difference of the two lifts divided by the parameter (degree two below
    the torus codimension) and their sum. For products of lines with the
    stable target, the half-size subsets contribute the same two families.
    """
    if target not in ("semistable", "stable"):
        raise ValueError("target must be 'semistable' or 'stable'")
    require_negation_symmetric(pres.model())
    a = pres.alpha
    pairs: list[tuple[str, GradedPolynomial, GradedPolynomial, int]] = []
    if pres.kind == "pn":
        if target == "stable":
            raise ValueError("the stable target is defined for products of lines only")
        model = pres.model()
        for s in index_set(model):
            b = s.beta[0]
            if b <= 0:
                continue
            plus = thom_gysin_lift(pres, PnStratum(b))
            minus = thom_gysin_lift(pres, PnStratum(-b))
            lam = stratum_codimension(pres, PnStratum(b))
            pairs.append((f"beta={b}", plus, minus, lam))
    else:
        n = pres.n
        low = n // 2 + 1
        if target == "stable" and n % 2 == 0:
            low = n // 2
        for size in range(low, n + 1):
            for subset in itertools.combinations(range(1, n + 1), size):
                plus = thom_gysin_lift(pres, LineProductStratum(subset, 1))
                minus = thom_gysin_lift(pres, LineProductStratum(subset, -1))
                label = "J=" + ",".join(map(str, subset))
                pairs.append((label, plus, minus, 2 * size))
    gens = []
    for label, plus, minus, lam in pairs:
        if _reflect(plus) != minus:
            raise AssertionError("opposite lifts are not reflection images")
        diff = divide_exact(plus - minus, a).scale(Fraction(1, 4))
        total = (plus + minus).scale(Fraction(1, 4))
        for g, deg, tag in ((diff, lam - 2, "difference"), (total, lam, "sum")):
            if deg > max_degree:
                continue
            if _reflect(g) != g:
                raise AssertionError("kernel generator is not invariant")
            gens.append((f"{label}:{tag}", g))
    return KernelIdeal("sl2", target, max_degree, tuple(gens), pres)


# ---------------------------------------------------------------------------
# graded spans of relation ideals, with caching


class _IdealSpans:
    """Degreewise row spans of an ideal in the free graded ring.

    Each degree's span, exponent index and parity-projected spans are built
    once and kept on the instance.
    """

    def __init__(self, variables: tuple[str, ...], gens: Sequence[GradedPolynomial]):
        self.variables = variables
        self.nv = len(variables)
        self.by_degree: dict[int, SpanBasis] = {}
        self.by_parity: dict[tuple[int, int], SpanBasis] = {}
        self.indices: dict[int, dict[Exponents, int]] = {}
        self.gens_at: dict[int, list[GradedPolynomial]] = {}
        for g in gens:
            if g.is_zero():
                continue
            if not g.is_homogeneous():
                raise ValueError("ideal generators must be homogeneous")
            self.gens_at.setdefault(g.degree(), []).append(g)

    def _index(self, d: int) -> dict[Exponents, int]:
        idx = self.indices.get(d)
        if idx is None:
            idx = {e: i for i, e in enumerate(exponents_of_degree(self.nv, d // 2))}
            self.indices[d] = idx
        return idx

    def span(self, d: int) -> SpanBasis:
        if d % 2 or d < 0:
            return SpanBasis()
        hit = self.by_degree.get(d)
        if hit is not None:
            return hit
        sb = SpanBasis()
        idx = self._index(d)
        if d >= 2:
            prev = self.span(d - 2)
            # column of each degree-(d-2) monomial times each variable
            shift = [[idx[e[:i] + (e[i] + 1,) + e[i + 1:]] for i in range(self.nv)]
                     for e in exponents_of_degree(self.nv, (d - 2) // 2)]
            for row in prev.basis_rows():
                for var_i in range(self.nv):
                    sb.add_int_row({shift[col][var_i]: val for col, val in row.items()})
        for g in self.gens_at.get(d, ()):
            sb.add({idx[e]: c for e, c in g.terms})
        self.by_degree[d] = sb
        return sb

    def parity_span(self, d: int, parity: int) -> SpanBasis:
        """Span of the rows' components on monomials with a-exponent of the
        given parity; valid whenever the ideal is stable under negating a."""
        hit = self.by_parity.get((d, parity))
        if hit is None:
            exps = exponents_of_degree(self.nv, d // 2)
            hit = SpanBasis()
            for row in self.span(d).basis_rows():
                filtered = {col: val for col, val in row.items()
                            if exps[col][-1] % 2 == parity}
                if filtered:
                    hit.add_int_row(filtered)
            self.by_parity[(d, parity)] = hit
        return hit

    def vector_of(self, poly: GradedPolynomial, d: int) -> dict[int, Fraction]:
        idx = self._index(d)
        out: dict[int, Fraction] = {}
        for e, c in poly.terms:
            if 2 * sum(e) != d:
                raise ValueError("polynomial is not homogeneous of the requested degree")
            out[idx[e]] = c
        return out

    def poly_of(self, row: dict[int, int | Fraction], d: int) -> GradedPolynomial:
        exps = exponents_of_degree(self.nv, d // 2)
        return GradedPolynomial.from_dict(
            self.variables, {exps[col]: Fraction(val) for col, val in row.items()})


_SPANS_CACHE: dict = {}


def _spans_for(pres: Presentation, kernel: KernelIdeal | None) -> _IdealSpans:
    key = (pres, kernel)
    hit = _SPANS_CACHE.get(key)
    if hit is None:
        gens = list(pres.relations)
        if kernel is not None:
            gens += [g for _, g in kernel.generators]
        hit = _IdealSpans(pres.variables, gens)
        _SPANS_CACHE[key] = hit
    return hit


def betti_from_presentation(pres: Presentation, kernel: KernelIdeal | None,
                            d: int) -> int:
    """Dimension of degree d in the presented ring modulo the kernel ideal.

    For the reflection group the count is taken inside the invariant
    (even powers of a) subspace; the ideal is reflection-stable, so its
    invariant part is spanned by the even projections of any basis.
    """
    if d < 0 or d % 2:
        return 0
    spans = _spans_for(pres, kernel)
    group = kernel.group if kernel is not None else "torus"
    if group == "torus":
        return graded_piece_dim(spans.nv, d) - spans.span(d).dim
    inv_count = sum(1 for e in exponents_of_degree(spans.nv, d // 2)
                    if e[-1] % 2 == 0)
    return inv_count - spans.parity_span(d, 0).dim


def in_relation_span(pres: Presentation, kernel: KernelIdeal | None,
                     poly: GradedPolynomial) -> bool:
    """Membership of a polynomial in the ideal, checked degree by degree."""
    if poly.is_zero():
        return True
    spans = _spans_for(pres, kernel)
    degrees = {2 * sum(e) for e, _ in poly.terms}
    for d in degrees:
        piece = poly.graded_piece(d)
        if not spans.span(d).contains(spans.vector_of(piece, d)):
            return False
    return True


# ---------------------------------------------------------------------------
# the reflection-descent bijection


@dataclass(frozen=True)
class WeylBijectionDegree:
    degree: int
    dim_kernel_group: int
    dim_kernel_torus_anti: int
    injective: bool
    spans_equal: bool
    inverse_ok: bool

    @property
    def ok(self) -> bool:
        return (self.injective and self.spans_equal and self.inverse_ok
                and self.dim_kernel_group == self.dim_kernel_torus_anti)


@dataclass(frozen=True)
class WeylBijectionReport:
    degrees: tuple[WeylBijectionDegree, ...]

    @property
    def ok(self) -> bool:
        return all(e.ok for e in self.degrees)


def weyl_kernel_bijection_report(pres: Presentation, max_degree: int) -> WeylBijectionReport:
    """Certify that multiplication by twice the parameter identifies the
    reflection-group kernel with the anti-invariant torus kernel.

    In each even degree d <= max_degree the invariant part of the folded
    kernel, taken modulo relations, must map bijectively onto the
    anti-invariant part of the torus kernel in degree d + 2: the map is
    checked to be injective modulo relations, to land exactly on the
    anti-invariant span, and to be inverted by exact division.
    """
    require_negation_symmetric(pres.model())
    torus = torus_kernel_ideal(pres, max_degree + 2)
    folded = sl2_kernel_ideal(pres, max_degree)
    base_spans = _spans_for(pres, None)
    g_spans = _spans_for(pres, folded)
    t_spans = _spans_for(pres, torus)
    a2 = pres.alpha.scale(2)

    entries = []
    for d in range(0, max_degree + 1, 2):
        zg = base_spans.parity_span(d, 0)
        kg = g_spans.parity_span(d, 0)
        dim_ker_g = kg.dim - zg.dim
        za = base_spans.parity_span(d + 2, 1)
        kt = t_spans.parity_span(d + 2, 1)
        dim_ker_t = kt.dim - za.dim

        lhs = SpanBasis()
        for row in za.basis_rows():
            lhs.add_int_row(dict(row))
        for row in kg.basis_rows():
            shifted = (g_spans.poly_of(row, d) * a2)
            lhs.add(t_spans.vector_of(shifted, d + 2))
        injective = (lhs.dim - za.dim) == dim_ker_g

        spans_equal = lhs.dim == kt.dim and all(
            lhs.contains({c: Fraction(v) for c, v in row.items()})
            for row in kt.basis_rows())

        inverse_ok = True
        for row in kt.basis_rows():
            u = t_spans.poly_of(row, d + 2)
            q = divide_exact(u, a2)
            if not kg.contains(g_spans.vector_of(q, d)):
                inverse_ok = False
                break

        entries.append(WeylBijectionDegree(d, dim_ker_g, dim_ker_t,
                                           injective, spans_equal, inverse_ok))
    return WeylBijectionReport(tuple(entries))


# ---------------------------------------------------------------------------
# the vanishing-locus kernel


def tolman_weitsman_kernel(pres: Presentation, max_degree: int
                           ) -> dict[int, tuple[GradedPolynomial, ...]]:
    """Degreewise kernel described by vanishing conditions at fixed points.

    In each even degree the kernel is the sum of two spaces: classes
    restricting to zero on every fixed component with nonpositive moment
    value, and classes restricting to zero on every component with
    nonnegative value. Base relations restrict to zero everywhere, so each
    graded piece automatically contains them.
    """
    comps = fixed_components(pres.model())
    sides = ([c for c in comps if c.mu <= 0], [c for c in comps if c.mu >= 0])
    out: dict[int, tuple[GradedPolynomial, ...]] = {}
    for d in range(0, max_degree + 1, 2):
        exps = exponents_of_degree(len(pres.variables), d // 2)
        # a component with moment value zero lies on both sides; its
        # restriction is computed once
        rows_of = {c: restriction_matrix(c, exps) for c in comps}
        span = SpanBasis()
        for side in sides:
            rows = [row for comp in side for row in rows_of[comp]]
            for v in null_space(rows, len(exps)):
                span.add({i: c for i, c in enumerate(v) if c != 0})
        basis = []
        for row in span.basis_rows():
            basis.append(GradedPolynomial.from_dict(
                pres.variables, {exps[c]: Fraction(v) for c, v in row.items()}))
        out[d] = tuple(basis)
    return out


@dataclass(frozen=True)
class TwoSidedKernelDegree:
    degree: int
    two_sided_kernel_dim: int
    stratum_ideal_dim: int
    equal: bool


@dataclass(frozen=True)
class TwoSidedKernelReport:
    degrees: tuple[TwoSidedKernelDegree, ...]

    @property
    def ok(self) -> bool:
        return all(e.equal for e in self.degrees)


def two_sided_kernel_report(pres: Presentation, max_degree: int) -> TwoSidedKernelReport:
    """Compare the vanishing-locus kernel with the torus stratum ideal.

    In each even degree d <= max_degree the two spaces are equal when every
    two-sided kernel class lies in the ideal (relations included) and the
    two dimensions agree.
    """
    spans = _spans_for(pres, torus_kernel_ideal(pres, max_degree))
    two_sided = tolman_weitsman_kernel(pres, max_degree)
    entries = []
    for d in range(0, max_degree + 1, 2):
        vectors = [spans.vector_of(b, d) for b in two_sided[d]]
        span = SpanBasis()
        for vec in vectors:
            span.add(vec)
        ideal = spans.span(d)
        contained = all(ideal.contains(vec) for vec in vectors)
        entries.append(TwoSidedKernelDegree(d, span.dim, ideal.dim,
                                            contained and span.dim == ideal.dim))
    return TwoSidedKernelReport(tuple(entries))


def restrict_to_subspace(pres: Presentation, poly: GradedPolynomial,
                         subset: Sequence[int]) -> GradedPolynomial:
    """Image of a class in the presentation of a coordinate subspace.

    Only meaningful for weighted projective spaces: the subspace spanned by
    the chosen coordinates carries the sub-product relation, and the image
    is the canonical remainder modulo that relation.
    """
    if pres.kind != "pn":
        raise ValueError("subspace restriction is defined for projective spaces only")
    idxs = sorted(set(subset))
    if not idxs or any(not 0 <= j <= pres.n for j in idxs):
        raise ValueError("subset must pick valid coordinate indices")
    v = pres.variables
    z = GradedPolynomial.var(v, "z")
    a = pres.alpha
    rel = GradedPolynomial.const(v, 1)
    for j in idxs:
        rel = rel * (z + a.scale(pres.weights[j]))
    _, r = polynomial_division(poly, rel)
    return r
