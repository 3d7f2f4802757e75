"""Kernels of the restriction from equivariant cohomology to the quotient.

Two presentations are supported: a weighted projective space P(C^{n+1})
with variables (z, a), relation prod_j (z + w_j a); and a product of n
projective lines with variables (z1..zn, a), relations z_i^2 - a^2. In both
cases every variable has cohomological degree two and `a` is the
equivariant parameter of the (rank-one) torus.

Each unstable stratum contributes the Thom-Gysin image of its closure: the
product of the Euler factors of the coordinates the stratum kills, which is
all a `Stratum` records besides its label. The torus-level kernel is
generated by these lifts; the reflection-group kernel folds opposite strata
into an invariant difference (divided by the parameter) and an invariant
sum. Betti numbers fall out of exact row reduction of the kernel ideal in
the presented ring, degree by degree. Each presentation memoizes the lifts
and kernel ideals built on it, and each kernel ideal its degreewise spans.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import lcm
from typing import NamedTuple, Sequence

from .errors import VerificationFailed
from .linalg import SpanBasis, Value, frac, null_space
from .models import (
    WeightedModel,
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


class Presentation(Value):
    """Kind "pn": the coordinate weights and the projective dimension n; kind
    "p1n": no weights and n lines. `memo`, the kernel layer's, is not compared
    and starts empty: lifts by Stratum, kernel ideals by (group, target, max_degree)."""

    __slots__ = ("kind", "variables", "weights", "n", "relations", "memo")
    _compared = ("kind", "variables", "weights", "n", "relations")

    def __init__(self, kind: str, variables: tuple[str, ...], weights: tuple[Fraction, ...],
                 n: int, relations: tuple[GradedPolynomial, ...]):
        self.kind, self.variables, self.weights, self.n = kind, variables, weights, n
        self.relations, self.memo = relations, {}

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
        if e[0] <= self.n:
            return {e: Fraction(1)}
        monomial = GradedPolynomial(self.variables, ((e, Fraction(1)),))
        return dict(polynomial_division(monomial, self.relations[0])[1].terms)


def _euler_product(variables: tuple[str, ...],
                   kills: Sequence[tuple[str, Fraction]]) -> GradedPolynomial:
    """The product of the Euler factors var + w*a over (var, w) pairs."""
    a = GradedPolynomial.var(variables, "a")
    out = GradedPolynomial.const(variables, 1)
    for var, w in kills:
        out = out * (GradedPolynomial.var(variables, var) + a.scale(w))
    return out


def projective_space_presentation(weights: Sequence) -> Presentation:
    ws = tuple(frac(w) for w in weights)
    if len(ws) < 2:
        raise ValueError("need at least two coordinates")
    v = ("z", "a")
    rel = _euler_product(v, [("z", w) for w in ws])
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


class Stratum(NamedTuple):
    """An unstable stratum (or, for the stable target, a half-size subset of
    lines) by the (variable, weight) Euler factors z + w*a of the coordinates
    it kills; its complex codimension is the number of factors."""
    label: str
    kills: tuple[tuple[str, Fraction], ...]


def _pn_stratum(pres: Presentation, beta: Fraction) -> Stratum:
    return Stratum(f"beta={beta}", tuple(("z", w) for w in pres.weights
                                         if w * beta < beta * beta))


def _line_stratum(subset: tuple[int, ...], sigma: int) -> Stratum:
    """The stratum where the lines in `subset` (1-based) sit on pole sigma."""
    return Stratum(f"J={','.join(map(str, subset))};sigma={sigma:+d}",
                   tuple((f"z{j}", Fraction(sigma)) for j in subset))


def torus_strata(pres: Presentation) -> tuple[Stratum, ...]:
    """The unstable strata, on P^n in ascending order of beta.

    On P^n the betas are the distinct nonzero weights, without a profile
    scan. A profile is a nonempty set S of weights, and its hull is the
    interval [min S, max S]; the point of it nearest the origin is 0 when
    the interval contains 0, and otherwise the endpoint nearer 0, which is a
    weight. A one-value profile {w} has beta w. So every nonzero beta is a
    weight and every nonzero weight is a beta.
    """
    if pres.kind == "pn":
        return tuple(_pn_stratum(pres, b)
                     for b in sorted(set(pres.weights)) if b != 0)
    n = pres.n
    return tuple(_line_stratum(subset, sigma)
                 for size in range(n // 2 + 1, n + 1)
                 for subset in itertools.combinations(range(1, n + 1), size)
                 for sigma in (1, -1))


def thom_gysin_lift(pres: Presentation, stratum: Stratum) -> GradedPolynomial:
    """Pushforward of the unit class from a stratum closure: the product of
    the Euler factors of the coordinates the stratum kills."""
    return _euler_product(pres.variables, stratum.kills)


# ---------------------------------------------------------------------------
# kernel ideals


class KernelIdeal(Value):
    """Kernel generators up to a degree cap; the relations are not among them.
    The group is "torus" or "sl2", the target "semistable" or "stable". The
    degreewise spans are built on first use and kept, not compared."""

    __slots__ = ("group", "target", "max_degree", "generators", "presentation", "_built")
    _compared = ("group", "target", "max_degree", "generators", "presentation")

    def __init__(self, group: str, target: str, max_degree: int,
                 generators: tuple[tuple[str, GradedPolynomial], ...], presentation: Presentation):
        self.group, self.target, self.max_degree = group, target, max_degree
        self.generators, self.presentation, self._built = generators, presentation, None

    @property
    def _spans(self) -> _IdealSpans:
        if self._built is None:
            self._built = _IdealSpans(self.presentation, [g for _, g in self.generators])
        return self._built


def _lift(pres: Presentation, stratum: Stratum) -> GradedPolynomial:
    if stratum not in pres.memo:
        pres.memo[stratum] = thom_gysin_lift(pres, stratum)
    return pres.memo[stratum]


def torus_kernel_ideal(pres: Presentation, max_degree: int) -> KernelIdeal:
    """One generator per unstable stratum: the lift of the unit class.

    The lift of any class eta is eta times the lift of the unit, so the
    degreewise spans of this ideal coincide with the spans of per-monomial
    lift enumerations up to the same degree cap.
    """
    key = ("torus", "semistable", max_degree)
    if key not in pres.memo:
        pres.memo[key] = KernelIdeal("torus", "semistable", max_degree, tuple(
            (s.label, _lift(pres, s)) for s in torus_strata(pres)
            if 2 * len(s.kills) <= max_degree), pres)
    return pres.memo[key]


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
    Pairs above max_degree are not lifted.
    """
    if target not in ("semistable", "stable"):
        raise ValueError("target must be 'semistable' or 'stable'")
    require_negation_symmetric(pres.model())
    if pres.kind == "pn" and target == "stable":
        raise ValueError("the stable target is defined for products of lines only")
    key = ("sl2", target, max_degree)
    if key in pres.memo:
        return pres.memo[key]
    if pres.kind == "pn":
        pairs = [(f"beta={b}", _pn_stratum(pres, b), _pn_stratum(pres, -b))
                 for b in sorted(set(pres.weights)) if b > 0]
    else:
        n = pres.n
        low = n // 2 if target == "stable" and n % 2 == 0 else n // 2 + 1
        pairs = [("J=" + ",".join(map(str, subset)),
                  _line_stratum(subset, 1), _line_stratum(subset, -1))
                 for size in range(low, n + 1)
                 for subset in itertools.combinations(range(1, n + 1), size)]
    a = pres.alpha
    gens = []
    for label, up, down in pairs:
        lam = 2 * len(up.kills)
        if lam - 2 > max_degree:
            continue
        plus, minus = _lift(pres, up), _lift(pres, down)
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
    pres.memo[key] = KernelIdeal("sl2", target, max_degree, tuple(gens), pres)
    return pres.memo[key]


# ---------------------------------------------------------------------------
# graded spans of kernel ideals in the presented ring


class _IdealSpans:
    """Degreewise spans of the image of an ideal in the presented ring.

    Degree d is spanned over `Presentation.basis(d)` by the unit rows when
    degree d-2 is whole, as the ring is generated in degree 2; else by degree
    d-2's rows times each variable, reduced, and the generators' normal forms.
    No relation enters a span; spans, indices and parity spans are memoized.
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
        if d not in self.indices:
            self.indices[d] = {e: i for i, e in enumerate(self.pres.basis(d))}
        return self.indices[d]

    def span(self, d: int) -> SpanBasis:
        if d % 2 or d < 0 or not self.gens_at:
            return SpanBasis()
        # degrees 0, 2, ... are built in order, upwards from the last one
        for e in range(2 * len(self.by_degree), d + 1, 2):
            sb = SpanBasis()
            idx = self.index(e)
            if e and self.by_degree[e - 2].dim == len(self.index(e - 2)):
                sb.rows = {i: {i: 1} for i in range(len(idx))}
            elif e and self.by_degree[e - 2].dim:
                table = [[[(idx[f], int(c * self.scale)) for f, c in
                           self.pres.normal_form(x[:i] + (x[i] + 1,) + x[i + 1:]).items()]
                          for i in range(self.nv)] for x in self.index(e - 2)]
                for row in self.by_degree[e - 2].basis_rows():
                    for var_i in range(self.nv):
                        out: dict[int, int] = {}
                        for col, val in row.items():
                            for c, k in table[col][var_i]:
                                out[c] = out.get(c, 0) + val * k
                        sb.add_int_row(out)
            for g in self.gens_at.get(e, ()):
                sb.add(self.vector_of(g, e))
            self.by_degree[e] = sb
        return self.by_degree[d]

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


def _spans_of(pres: Presentation, kernel: KernelIdeal | None) -> _IdealSpans:
    """The kernel's spans; None is the zero ideal."""
    if kernel is None:
        return _IdealSpans(pres, ())
    if kernel.presentation is not pres and kernel.presentation != pres:
        raise ValueError("the kernel ideal belongs to another presentation")
    return kernel._spans


def betti_from_presentation(pres: Presentation, kernel: KernelIdeal | None,
                            d: int) -> int:
    """Dimension of degree d in the presented ring modulo the kernel ideal.

    For the reflection group the count is taken inside the invariant
    (even powers of a) subspace; the ideal is reflection-stable, so its
    invariant part is spanned by the even projections of any basis.
    """
    spans = _spans_of(pres, kernel)
    if d < 0 or d % 2:
        return 0
    basis = pres.basis(d)
    if kernel is None or kernel.group == "torus":
        return len(basis) - spans.span(d).dim
    return sum(1 for e in basis if e[-1] % 2 == 0) - spans.parity_span(d, 0).dim


def in_relation_span(pres: Presentation, kernel: KernelIdeal | None,
                     poly: GradedPolynomial) -> bool:
    """Membership of a polynomial in the ideal, checked degree by degree."""
    spans = _spans_of(pres, kernel)
    return all(spans.span(d).contains(spans.vector_of(poly.graded_piece(d), d))
               for d in {2 * sum(e) for e, _ in poly.terms})


# ---------------------------------------------------------------------------
# the reflection-descent bijection


class WeylBijectionDegree(NamedTuple):
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


class WeylBijectionReport(NamedTuple):
    degrees: tuple[WeylBijectionDegree, ...]

    @property
    def ok(self) -> bool:
        return all(e.ok for e in self.degrees)


def weyl_kernel_bijection_report(pres: Presentation, max_degree: int
                                 ) -> WeylBijectionReport:
    """Certify that multiplication by twice the parameter identifies the
    reflection-group kernel with the anti-invariant torus kernel.

    In each even degree d <= max_degree the invariant part of the folded
    kernel, taken modulo relations, must map bijectively onto the
    anti-invariant part of the torus kernel in degree d + 2: the map is
    checked to be injective modulo relations, to land exactly on the
    anti-invariant span, and to be inverted by exact division (on basis
    monomials, both maps shift the power of a).
    """
    require_negation_symmetric(pres.model())
    t_spans = torus_kernel_ideal(pres, max_degree + 2)._spans
    g_spans = sl2_kernel_ideal(pres, max_degree)._spans

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
            for _, row in sorted(span.reduced_rows().items())]
        for e in exponents_of_degree(len(v), d // 2):
            nf = pres.normal_form(e)
            if nf != {e: 1}:
                nf = {f: -c for f, c in nf.items()}
                polys.append(GradedPolynomial.from_dict(v, {e: Fraction(1), **nf}))
        out[d] = tuple(polys)
    return out


class TwoSidedKernelDegree(NamedTuple):
    degree: int
    two_sided_kernel_dim: int
    stratum_ideal_dim: int
    equal: bool


class TwoSidedKernelReport(NamedTuple):
    degrees: tuple[TwoSidedKernelDegree, ...]

    @property
    def ok(self) -> bool:
        return all(e.equal for e in self.degrees)


def two_sided_kernel_report(pres: Presentation, max_degree: int
                            ) -> TwoSidedKernelReport:
    """Compare the vanishing-locus kernel with the torus stratum ideal.

    In each even degree d <= max_degree the two spaces are equal when every
    two-sided kernel class lies in the ideal (relations included) and the
    two dimensions agree, compared in the presented ring; the dimensions
    reported are those in the free ring.
    """
    spans = torus_kernel_ideal(pres, max_degree)._spans
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
    rel = _euler_product(pres.variables, [("z", pres.weights[j]) for j in idxs])
    return polynomial_division(poly, rel)[1]
