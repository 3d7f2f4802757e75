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
sum.

The presented ring R is a free Q[a]-module on the normal-form z-parts, so
setting a = 1 embeds its degree-2k piece in A = R/(a - 1), with one column
per z-part (2^n on L^n, n + 1 on P^n), as the columns of z-degree <= k.
An ideal's degree-2k piece is level k of one filtration of A, and Betti
numbers are column counts minus level dimensions. The two-sided kernel
K- + K+ (classes vanishing on the fixed components with moment value <= 0,
or >= 0) has dimension (N - rk-) + (N - rk+) - (N - rk) on N columns, from
the ranks of the restrictions to either side and to all components. Each
presentation memoizes A, the lifts and the kernel ideals built on it, and
each kernel ideal its filtration.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import lcm
from typing import NamedTuple, Sequence

from .errors import VerificationFailed
from .linalg import SpanBasis, Value, frac, null_space
from .models import (WeightedModel, line_product_model, projective_space_model,
                     require_negation_symmetric)
from .polynomials import (Exponents, GradedPolynomial, divide_exact, exponents_of_degree,
                          graded_piece_dim, polynomial_division)
from .residues import _restrict, fixed_components, restriction_matrix


class Presentation(Value):
    """Kind "pn": the coordinate weights and the projective dimension n; kind
    "p1n": no weights and n lines. `memo`, the kernel layer's, is not compared
    and starts empty: lifts by Stratum, kernel ideals by (group, target, max_degree), A by "A"."""

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
    filtration of A is built on first use and kept, not compared."""

    __slots__ = ("group", "target", "max_degree", "generators", "presentation", "_built")
    _compared = ("group", "target", "max_degree", "generators", "presentation")

    def __init__(self, group: str, target: str, max_degree: int,
                 generators: tuple[tuple[str, GradedPolynomial], ...], presentation: Presentation):
        self.group, self.target, self.max_degree = group, target, max_degree
        self.generators, self.presentation, self._built = generators, presentation, None


def _lift(pres: Presentation, stratum: Stratum) -> GradedPolynomial:
    if stratum not in pres.memo:
        pres.memo[stratum] = thom_gysin_lift(pres, stratum)
    return pres.memo[stratum]


def torus_kernel_ideal(pres: Presentation, max_degree: int) -> KernelIdeal:
    """One generator per unstable stratum: the lift of the unit class. The
    lift of any class eta is eta times it, so this ideal holds every lift
    of degree <= max_degree."""
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
# kernel ideals as filtrations of A = R/(a - 1)


class _Filtration:
    """The image of an ideal in A, level by level: level k is the image of
    its degree-2k piece. Times a is the identity at a = 1, and zi times
    level k - 2 lies in level k - 1, so level k is spanned by level k - 1,
    the rows new at level k - 1 times each zi, and the generators of degree
    2k. No relation enters. The levels share one SpanBasis, whose rows are
    kept in insertion order with distinct pivots: level k is the first
    dims[k] of them. Parity spans are memoized by level."""

    def __init__(self, pres: Presentation, gens: Sequence[GradedPolynomial]):
        if "A" not in pres.memo:
            # A's columns in ascending lex order (so each degree's basis keeps
            # its order), and each column times each zi at a = 1: a column, or
            # a normal form scaled to integers by the relations' denominators
            cols = [e[:-1] for e in pres.basis(2 * pres.n)]
            index = {x: c for c, x in enumerate(cols)}
            scale = lcm(*(c.denominator for r in pres.relations for _, c in r.terms))
            pres.memo["A"] = cols, index, [[
                [(index[y], scale)] if y in index else
                [(index[f[:-1]], c.numerator * (scale // c.denominator))
                 for f, c in pres.normal_form(y + (0,)).items()]
                for y in (x[:i] + (x[i] + 1,) + x[i + 1:] for i in range(len(x)))]
                for x in cols]
        self.pres = pres
        self.cols, self.index, self.table = pres.memo["A"]
        self.zdeg = [sum(x) for x in self.cols]
        self.span = SpanBasis()
        self.dims: list[int] = []
        self.by_parity: dict[tuple[int, int], SpanBasis] = {}
        self.gens_at: dict[int, list[GradedPolynomial]] = {}
        for g in gens:
            if g.is_zero():
                continue
            if not g.is_homogeneous():
                raise ValueError("ideal generators must be homogeneous")
            self.gens_at.setdefault(g.degree() // 2, []).append(g)

    def dim(self, k: int) -> int:
        """The dimension of level k; levels are built in order, in a loop."""
        for j in range(len(self.dims), k + 1):
            # the rows new at level j - 1
            for row in list(self.span.rows.values())[self.dims[j - 2] if j > 1 else 0:]:
                for zi in range(len(self.cols[0])):
                    out: dict[int, int] = {}
                    for col, val in row.items():
                        for c, x in self.table[col][zi]:
                            out[c] = out.get(c, 0) + val * x
                    self.span.add_int_row(out)
            for g in self.gens_at.get(j, ()):
                self.span.add(self.vector_of(g))
            self.dims.append(self.span.dim)
        return self.dims[k]

    def level(self, k: int) -> SpanBasis:
        """Level k as a span of its own rows."""
        out = SpanBasis()
        out.rows = dict(itertools.islice(self.span.rows.items(), self.dim(k)))
        return out

    def parity_span(self, k: int, parity: int) -> SpanBasis:
        """Span of level k's rows on the columns whose monomial of degree 2k
        has a-exponent k - |z| of the given parity; valid whenever the ideal
        is stable under negating a."""
        hit = self.by_parity.get((k, parity))
        if hit is None:
            hit = self.by_parity[(k, parity)] = SpanBasis()
            for row in self.level(k).rows.values():
                filtered = {col: val for col, val in row.items()
                            if (k - self.zdeg[col]) % 2 == parity}
                if filtered:
                    hit.add_int_row(filtered)
        return hit

    def vector_of(self, poly: GradedPolynomial) -> dict[int, Fraction]:
        """The image in A of a homogeneous polynomial."""
        out: dict[int, Fraction] = {}
        for e, c in poly.terms:
            for f, x in ({e: 1} if e[:-1] in self.index else self.pres.normal_form(e)).items():
                col = self.index[f[:-1]]
                out[col] = out.get(col, 0) + c * x
        return out


def _filtration_of(pres: Presentation, kernel: KernelIdeal | None) -> _Filtration:
    """The kernel's filtration, built on first use and kept; None is the
    zero ideal."""
    if kernel is None:
        return _Filtration(pres, ())
    if kernel.presentation is not pres and kernel.presentation != pres:
        raise ValueError("the kernel ideal belongs to another presentation")
    if kernel._built is None:
        kernel._built = _Filtration(kernel.presentation, [g for _, g in kernel.generators])
    return kernel._built


def betti_from_presentation(pres: Presentation, kernel: KernelIdeal | None,
                            d: int) -> int:
    """Dimension of degree d in the presented ring modulo the kernel ideal:
    the columns of z-degree <= d/2 less the filtration's level d/2.

    For the reflection group the count is taken inside the invariant
    (even powers of a) subspace; the ideal is reflection-stable, so its
    invariant part is spanned by the even projections of any basis.
    """
    filt = _filtration_of(pres, kernel)
    if d < 0 or d % 2:
        return 0
    k = d // 2
    if kernel is None or kernel.group == "torus":
        return sum(z <= k for z in filt.zdeg) - filt.dim(k)
    return sum(z <= k and (k - z) % 2 == 0 for z in filt.zdeg) - filt.parity_span(k, 0).dim


def in_relation_span(pres: Presentation, kernel: KernelIdeal | None,
                     poly: GradedPolynomial) -> bool:
    """Membership of a polynomial in the ideal, checked degree by degree."""
    filt = _filtration_of(pres, kernel)
    return all(filt.level(d // 2).contains(filt.vector_of(poly.graded_piece(d)))
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
    kernel must map bijectively onto the anti-invariant part of the torus
    kernel in degree d + 2. Times 2a is injective, R being free over Q[a],
    and at a = 1 it is the identity on A's columns. So the torus span must
    lie in the folded one (the inverse, exact division by 2a, is then
    defined) and the dimensions must agree.
    """
    require_negation_symmetric(pres.model())
    torus = _filtration_of(pres, torus_kernel_ideal(pres, max_degree + 2))
    folded = _filtration_of(pres, sl2_kernel_ideal(pres, max_degree))
    entries = []
    for d in range(0, max_degree + 1, 2):
        kg, kt = folded.parity_span(d // 2, 0), torus.parity_span(d // 2 + 1, 1)
        inverse_ok = all(kg.contains(row) for row in kt.basis_rows())
        entries.append(WeylBijectionDegree(d, kg.dim, kt.dim, True,
                                           inverse_ok and kg.dim == kt.dim, inverse_ok))
    return WeylBijectionReport(tuple(entries))


# ---------------------------------------------------------------------------
# the vanishing-locus kernel


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
    comps = fixed_components(pres.model())
    sides = ([c for c in comps if c.mu <= 0], [c for c in comps if c.mu >= 0])
    v = pres.variables
    out: dict[int, tuple[GradedPolynomial, ...]] = {}
    for d in range(0, max_degree + 1, 2):
        basis = pres.basis(d)
        # a component with moment value zero lies on both sides; its
        # restriction is computed once
        rows_of = {c: restriction_matrix(c, basis) for c in comps}
        span = SpanBasis()
        for side in sides:
            for x in null_space([row for comp in side for row in rows_of[comp]], len(basis)):
                span.add({i: c for i, c in enumerate(x) if c != 0})
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


def _vanishes(pres: Presentation, stratum: Stratum, comp) -> bool:
    """Whether a stratum's lift restricts to zero on a fixed component: the
    factor zi + w*a maps to hi + (w - vi)*a, a non-zero-divisor unless
    w = vi, and hi^sizei = 0."""
    return any(sum(pres.variables.index(var) == i and w == v for var, w in stratum.kills) >= size
               for i, (v, size) in enumerate(zip(comp.values, comp.sizes)))


def two_sided_kernel_report(pres: Presentation, max_degree: int
                            ) -> TwoSidedKernelReport:
    """Compare the vanishing-locus kernel K- + K+ with the torus stratum ideal.

    K- and K+ are ideals, restriction being a ring map, so the stratum ideal
    lies in K- + K+ once each generator vanishes on one whole side; one that
    does not raises VerificationFailed. So in each even degree d <= max_degree
    the two are equal when their dimensions agree, in the free ring as
    reported. A column's image at a = 1, by component and h-exponents, does
    not depend on the degree, so each rank grows by each level's new columns.
    """
    comps = fixed_components(pres.model())
    sides = ([j for j, c in enumerate(comps) if c.mu <= 0],
             [j for j, c in enumerate(comps) if c.mu >= 0], range(len(comps)))
    for s in torus_strata(pres):
        if 2 * len(s.kills) <= max_degree and not any(
                all(_vanishes(pres, s, comps[j]) for j in side) for side in sides[:2]):
            raise VerificationFailed("a stratum lift vanishes on neither side",
                                     witness={"generator": s.label})
    filt = _filtration_of(pres, torus_kernel_ideal(pres, max_degree))
    ranks = [SpanBasis() for _ in sides]
    cols = sorted(filt.cols, key=sum)
    done = 0
    entries = []
    for d in range(0, max_degree + 1, 2):
        for x in itertools.takewhile(lambda x: sum(x) <= d // 2, cols[done:]):
            # each column is restricted once per component, a component
            # with moment value zero serving both sides
            images = [_restrict(c, x + (0,)) for c in comps]
            for side, rank in zip(sides, ranks):
                rank.add({(j, he): c for j in side for he, c in images[j].items()})
            done += 1
        two_sided = done - ranks[0].dim - ranks[1].dim + ranks[2].dim
        ideal, rel = filt.dim(d // 2), graded_piece_dim(len(pres.variables), d) - done
        entries.append(TwoSidedKernelDegree(d, two_sided + rel, ideal + rel, two_sided == ideal))
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
