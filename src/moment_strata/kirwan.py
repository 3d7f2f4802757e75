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
reduction of the kernel ideal in the presented ring, degree by degree.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Sequence

from .errors import VerificationFailed
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

    def basis(self, d: int) -> tuple[Exponents, ...]:
        """Normal-form monomials of degree d, ascending lex: z^S a^m for a set
        S of lines, or z^j a^m with j <= n. The relations are a Groebner basis
        (leading terms z_i^2, coprime, or the one relation's z^(n+1))."""
        k = d // 2
        if self.kind == "pn":
            return tuple((j, k - j) for j in range(min(self.n, k) + 1))
        return tuple(s + (k - sum(s),)
                     for s in itertools.product((0, 1), repeat=self.n)
                     if sum(s) <= k)

    def normal_form(self, e: Exponents) -> dict[Exponents, Fraction]:
        """Monomial e modulo the relations, on basis monomials of its degree;
        commutes with times a and, for symmetric weights, with a -> -a."""
        if self.kind == "p1n":
            m = e[-1] + sum(x - x % 2 for x in e[:-1])
            return {tuple(x % 2 for x in e[:-1]) + (m,): Fraction(1)}
        k, n = sum(e), self.n
        tail = [(f[0], -c) for f, c in self.relations[0].terms if f[0] <= n]
        vec = {e[0]: Fraction(1)}
        for top in range(e[0], n, -1):
            c = vec.pop(top, 0)
            for j, r in (tail if c else ()):
                vec[j + top - n - 1] = vec.get(j + top - n - 1, 0) + c * r
        return {(j, k - j): c for j, c in sorted(vec.items()) if c}


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
    """Kernel generators up to a degree cap; the relations are not among them."""
    group: str       # "torus" or "sl2"
    target: str      # "semistable" or "stable"
    max_degree: int
    generators: tuple[tuple[str, GradedPolynomial], ...]
    presentation: Presentation


def _lift(pres: Presentation, stratum, lifts: dict | None) -> GradedPolynomial:
    """The lift of the unit class, kept in `lifts` when the caller gives one."""
    if lifts is None:
        return thom_gysin_lift(pres, stratum)
    if stratum not in lifts:
        lifts[stratum] = thom_gysin_lift(pres, stratum)
    return lifts[stratum]


def torus_kernel_ideal(pres: Presentation, max_degree: int,
                       lifts: dict | None = None) -> KernelIdeal:
    """One generator per unstable stratum: the lift of the unit class.

    The lift of any class eta is eta times the lift of the unit, so the
    degreewise spans of this ideal coincide with the spans of per-monomial
    lift enumerations up to the same degree cap. `lifts` (stratum -> lift)
    lets callers build each lift once.
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
        gens.append((label, _lift(pres, stratum, lifts)))
    return KernelIdeal("torus", "semistable", max_degree, tuple(gens), pres)


def _reflect(poly: GradedPolynomial) -> GradedPolynomial:
    """Image under a -> -a (the last variable): terms with an odd power of a
    change sign."""
    return GradedPolynomial(poly.variables, tuple(
        (e, -c if e[-1] % 2 else c) for e, c in poly.terms))


def sl2_kernel_ideal(pres: Presentation, max_degree: int,
                     target: str = "semistable",
                     lifts: dict | None = None) -> KernelIdeal:
    """Folded kernel generators for the reflection quotient.

    Each pair of opposite strata yields two invariant generators: the
    difference of the two lifts divided by the parameter (degree two below
    the torus codimension) and their sum. For products of lines with the
    stable target, the half-size subsets contribute the same two families.
    Pairs above max_degree are not lifted; `lifts` as in torus_kernel_ideal.
    """
    if target not in ("semistable", "stable"):
        raise ValueError("target must be 'semistable' or 'stable'")
    require_negation_symmetric(pres.model())
    a = pres.alpha
    pairs: list[tuple[str, object, object, int]] = []
    if pres.kind == "pn":
        if target == "stable":
            raise ValueError("the stable target is defined for products of lines only")
        model = pres.model()
        for s in index_set(model):
            b = s.beta[0]
            if b <= 0:
                continue
            lam = stratum_codimension(pres, PnStratum(b))
            pairs.append((f"beta={b}", PnStratum(b), PnStratum(-b), lam))
    else:
        n = pres.n
        low = n // 2 + 1
        if target == "stable" and n % 2 == 0:
            low = n // 2
        for size in range(low, n + 1):
            for subset in itertools.combinations(range(1, n + 1), size):
                label = "J=" + ",".join(map(str, subset))
                pairs.append((label, LineProductStratum(subset, 1),
                              LineProductStratum(subset, -1), 2 * size))
    gens = []
    for label, up, down, lam in pairs:
        if lam - 2 > max_degree:
            continue
        plus, minus = _lift(pres, up, lifts), _lift(pres, down, lifts)
        if _reflect(plus) != minus:
            raise VerificationFailed("opposite lifts are not reflection images",
                                     witness={"stratum": label})
        diff = divide_exact(plus - minus, a).scale(Fraction(1, 4))
        total = (plus + minus).scale(Fraction(1, 4))
        for g, deg, tag in ((diff, lam - 2, "difference"), (total, lam, "sum")):
            if deg > max_degree:
                continue
            if _reflect(g) != g:
                raise VerificationFailed("kernel generator is not invariant",
                                         witness={"generator": f"{label}:{tag}"})
            gens.append((f"{label}:{tag}", g))
    return KernelIdeal("sl2", target, max_degree, tuple(gens), pres)


# ---------------------------------------------------------------------------
# graded spans of kernel ideals in the presented ring, with caching


class _IdealSpans:
    """Degreewise spans of the image of an ideal in the presented ring.

    Degree d is spanned over `Presentation.basis(d)`: degree d-2's rows times
    each variable, reduced, and the generators' normal forms; relations never
    enter a span. Spans, basis indices and parity spans are kept per degree.
    """

    def __init__(self, pres: Presentation, gens: Sequence[GradedPolynomial]):
        self.pres = pres
        self.nv = len(pres.variables)
        self.by_degree: dict[int, SpanBasis] = {}
        self.by_parity: dict[tuple[int, int], SpanBasis] = {}
        self.indices: dict[int, dict[Exponents, int]] = {}
        self.gens_at: dict[int, list[GradedPolynomial]] = {}
        # scaling products by the relations' denominators keeps rows integer
        self.scale = lcm(*(c.denominator for r in pres.relations for _, c in r.terms))
        for g in gens:
            if g.is_zero():
                continue
            if not g.is_homogeneous():
                raise ValueError("ideal generators must be homogeneous")
            self.gens_at.setdefault(g.degree(), []).append(g)

    def index(self, d: int) -> dict[Exponents, int]:
        idx = self.indices.get(d)
        if idx is None:
            idx = {e: i for i, e in enumerate(self.pres.basis(d))}
            self.indices[d] = idx
        return idx

    def span(self, d: int) -> SpanBasis:
        if d % 2 or d < 0:
            return SpanBasis()
        hit = self.by_degree.get(d)
        if hit is not None:
            return hit
        sb = SpanBasis()
        idx = self.index(d)
        if d >= 2 and self.span(d - 2).dim:
            table = [[[(idx[f], int(c * self.scale)) for f, c in
                       self.pres.normal_form(e[:i] + (e[i] + 1,) + e[i + 1:]).items()]
                      for i in range(self.nv)] for e in self.index(d - 2)]
            for row in self.span(d - 2).basis_rows():
                for var_i in range(self.nv):
                    out: dict[int, int] = {}
                    for col, val in row.items():
                        for c, k in table[col][var_i]:
                            out[c] = out.get(c, 0) + val * k
                    sb.add_int_row(out)
        for g in self.gens_at.get(d, ()):
            sb.add(self.vector_of(g, d))
        self.by_degree[d] = sb
        return sb

    def parity_span(self, d: int, parity: int) -> SpanBasis:
        """Span of the rows' components on monomials with a-exponent of the
        given parity; valid whenever the ideal is stable under negating a."""
        hit = self.by_parity.get((d, parity))
        if hit is None:
            exps = self.pres.basis(d)
            hit = SpanBasis()
            for row in self.span(d).basis_rows():
                filtered = {col: val for col, val in row.items()
                            if exps[col][-1] % 2 == parity}
                if filtered:
                    hit.add_int_row(filtered)
            self.by_parity[(d, parity)] = hit
        return hit

    def vector_of(self, poly: GradedPolynomial, d: int) -> dict[int, Fraction]:
        """Normal form of a polynomial homogeneous of degree d."""
        idx = self.index(d)
        out: dict[int, Fraction] = {}
        for e, c in poly.terms:
            if 2 * sum(e) != d:
                raise ValueError("polynomial is not homogeneous of the requested degree")
            for f, k in ({e: 1} if e in idx else self.pres.normal_form(e)).items():
                out[idx[f]] = out.get(idx[f], 0) + c * k
        return out


_SPANS_CACHE: dict = {}


def _spans_for(pres: Presentation, kernel: KernelIdeal | None) -> _IdealSpans:
    key = (pres, kernel)
    hit = _SPANS_CACHE.get(key)
    if hit is None:
        gens = [g for _, g in kernel.generators] if kernel is not None else []
        hit = _IdealSpans(pres, gens)
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
        return len(pres.basis(d)) - spans.span(d).dim
    inv_count = sum(1 for e in pres.basis(d) if e[-1] % 2 == 0)
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


def weyl_kernel_bijection_report(pres: Presentation, max_degree: int,
                                 lifts: dict | None = None) -> WeylBijectionReport:
    """Certify that multiplication by twice the parameter identifies the
    reflection-group kernel with the anti-invariant torus kernel.

    In each even degree d <= max_degree the invariant part of the folded
    kernel, taken modulo relations, must map bijectively onto the
    anti-invariant part of the torus kernel in degree d + 2: the map is
    checked to be injective modulo relations, to land exactly on the
    anti-invariant span, and to be inverted by exact division (on basis
    monomials, both maps shift the power of a). `lifts` as in torus_kernel_ideal.
    """
    require_negation_symmetric(pres.model())
    torus = torus_kernel_ideal(pres, max_degree + 2, lifts)
    folded = sl2_kernel_ideal(pres, max_degree, lifts=lifts)
    g_spans = _spans_for(pres, folded)
    t_spans = _spans_for(pres, torus)

    entries = []
    for d in range(0, max_degree + 1, 2):
        kg = g_spans.parity_span(d, 0)
        kt = t_spans.parity_span(d + 2, 1)
        above = t_spans.index(d + 2)
        up = {i: above[e[:-1] + (e[-1] + 1,)] for e, i in g_spans.index(d).items()}
        down = {j: i for i, j in up.items()}
        lhs = SpanBasis()
        for row in kg.basis_rows():
            lhs.add_int_row({up[c]: v for c, v in row.items()})
        spans_equal = lhs.dim == kt.dim and all(
            lhs.contains(row) for row in kt.basis_rows())
        inverse_ok = all(kg.contains({down[c]: v for c, v in row.items()})
                         for row in kt.basis_rows())
        entries.append(WeylBijectionDegree(d, kg.dim, kt.dim, lhs.dim == kg.dim,
                                           spans_equal, inverse_ok))
    return WeylBijectionReport(tuple(entries))


# ---------------------------------------------------------------------------
# the vanishing-locus kernel


def _two_sided_spans(pres: Presentation, max_degree: int) -> dict[int, SpanBasis]:
    """Per even degree, the vanishing-locus kernel in the presented ring;
    the kernel in the free ring is this one plus the relations."""
    comps = fixed_components(pres.model())
    sides = ([c for c in comps if c.mu <= 0], [c for c in comps if c.mu >= 0])
    out: dict[int, SpanBasis] = {}
    for d in range(0, max_degree + 1, 2):
        basis = pres.basis(d)
        # a component with moment value zero lies on both sides; its
        # restriction is computed once
        rows_of = {c: restriction_matrix(c, basis) for c in comps}
        span = SpanBasis()
        for side in sides:
            rows = [row for comp in side for row in rows_of[comp]]
            for v in null_space(rows, len(basis)):
                span.add({i: c for i, c in enumerate(v) if c != 0})
        out[d] = span
    return out


def tolman_weitsman_kernel(pres: Presentation, max_degree: int
                           ) -> dict[int, tuple[GradedPolynomial, ...]]:
    """Degreewise kernel described by vanishing conditions at fixed points.

    In each even degree the kernel is the sum of two spaces: classes
    restricting to zero on every fixed component with nonpositive moment
    value, and classes restricting to zero on every component with
    nonnegative value. Relations restrict to zero, so the basis is the
    kernel in the presented ring on normal-form monomials, followed by the
    relations e - nf(e) for each monomial e outside the normal-form basis.
    """
    v = pres.variables
    out: dict[int, tuple[GradedPolynomial, ...]] = {}
    for d, span in _two_sided_spans(pres, max_degree).items():
        basis = pres.basis(d)
        polys = [GradedPolynomial.from_dict(
            v, {basis[c]: Fraction(x) for c, x in row.items()})
            for row in span.basis_rows()]
        for e in exponents_of_degree(len(v), d // 2):
            nf = pres.normal_form(e)
            if nf != {e: 1}:
                nf = {f: -c for f, c in nf.items()}
                polys.append(GradedPolynomial.from_dict(v, {e: Fraction(1), **nf}))
        out[d] = tuple(polys)
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


def two_sided_kernel_report(pres: Presentation, max_degree: int,
                            lifts: dict | None = None) -> TwoSidedKernelReport:
    """Compare the vanishing-locus kernel with the torus stratum ideal.

    In each even degree d <= max_degree the two spaces are equal when every
    two-sided kernel class lies in the ideal (relations included) and the
    two dimensions agree, compared in the presented ring; the dimensions
    reported are those in the free ring. `lifts` as in torus_kernel_ideal.
    """
    spans = _spans_for(pres, torus_kernel_ideal(pres, max_degree, lifts))
    entries = []
    for d, two_sided in _two_sided_spans(pres, max_degree).items():
        ideal = spans.span(d)
        contained = all(ideal.contains(row) for row in two_sided.basis_rows())
        rel = graded_piece_dim(spans.nv, d) - len(pres.basis(d))
        entries.append(TwoSidedKernelDegree(d, two_sided.dim + rel, ideal.dim + rel,
                                            contained and two_sided.dim == ideal.dim))
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
