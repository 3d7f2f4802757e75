"""Kernels of the restriction from equivariant cohomology to the quotient.

A rank-1 product of weighted projective factors, P^n (one factor) or L^n
(n factors P^1(1, -1)), presents its equivariant cohomology as one ring
Q[z1..zm, a]/(prod_j (zi + w_ij a))_i: a variable (z when m = 1) and an
Euler product per factor, every variable of degree two, `a` the parameter.

Each unstable stratum is a coordinate subspace: one weight value c_i per
factor with beta = sum c_i nonzero kills each coordinate of weight below
c_i if beta > 0, above it if beta < 0. A `Stratum` records its label and
the Euler factors of those coordinates, whose product is its Thom-Gysin
lift. The lifts generate the torus-level kernel; the reflection-group
kernel folds the strata of c and -c into an invariant difference (divided
by the parameter) and an invariant sum.

The presented ring R is a free Q[a]-module on the normal-form z-parts, so
setting a = 1 embeds its degree-2k piece in A = R/(a - 1), with one column
per z-part (prod (n_i + 1) of them), as the columns of z-degree <= k.
An ideal's degree-2k piece is level k of one filtration of A, and Betti
numbers are column counts minus level dimensions. The two-sided kernel
K- + K+ (classes vanishing on the fixed components with moment value <= 0,
or >= 0) has dimension (N - rk-) + (N - rk+) - (N - rk) on N columns, from
the ranks of the restrictions to either side and to all components. Each
presentation memoizes A, its strata, the lifts and the kernel ideals built
on it, and each kernel ideal its filtration.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import lcm
from typing import NamedTuple, Sequence

from .errors import VerificationFailed
from .linalg import SpanBasis, Value, frac, null_space
from .models import WeightedModel, require_negation_symmetric, weighted_model
from .polynomials import (Exponents, GradedPolynomial, divide_exact, euler_product,
                          exponents_of_degree, graded_piece_dim, polynomial_division)
from .residues import _restrict, fixed_components, restriction_matrix


class Presentation(Value):
    """The ring of a rank-1 product, by the weights of its factors (one tuple
    each); its variables and relations follow from them. `memo`, the kernel
    layer's, is not compared and starts empty: lifts by Stratum, kernel
    ideals by (group, target, max_degree), A and the strata by name."""

    __slots__ = ("factors", "variables", "relations", "memo")
    _compared = ("factors",)

    def __init__(self, factors: tuple[tuple[Fraction, ...], ...]):
        if any(len(fac) < 2 for fac in factors):
            raise ValueError("need at least two coordinates")
        names = ("z",) if len(factors) == 1 else tuple(f"z{i+1}" for i in range(len(factors)))
        self.factors, self.variables, self.memo = factors, names + ("a",), {}
        self.relations = tuple(euler_product(self.variables, [(z, w) for w in fac])
                               for z, fac in zip(names, factors))

    def model(self) -> WeightedModel:
        return weighted_model(1, [[(w,) for w in fac] for fac in self.factors])

    @property
    def alpha(self) -> GradedPolynomial:
        return GradedPolynomial.var(self.variables, "a")

    def basis(self, d: int) -> tuple[Exponents, ...]:
        """Normal-form monomials of degree d, ascending lex: z^s a^m with
        s_i < the number of coordinates of factor i. The relations are a
        Groebner basis: their leading terms z_i^(n_i + 1) are coprime."""
        k = d // 2
        return tuple(s + (k - sum(s),)
                     for s in itertools.product(*(range(len(fac)) for fac in self.factors))
                     if sum(s) <= k)

    def normal_form(self, e: Exponents) -> dict[Exponents, Fraction]:
        """Monomial e modulo the relations, on basis monomials of its degree:
        each z_i^(e_i) with e_i > n_i divided by its own factor's relation.
        Commutes with times a and, for symmetric weights, with a -> -a."""
        terms = {e[:-1]: Fraction(1)}
        for i, (x, fac, rel) in enumerate(zip(e, self.factors, self.relations)):
            if x >= len(fac):
                zi = GradedPolynomial.var(self.variables, self.variables[i])
                rem = polynomial_division(zi ** x, rel)[1]
                terms = {s[:i] + (f[i],) + s[i + 1:]: c * r
                         for s, c in terms.items() for f, r in rem.terms}
        return {s + (sum(e) - sum(s),): c for s, c in terms.items()}


def projective_space_presentation(weights: Sequence) -> Presentation:
    return Presentation((tuple(frac(w) for w in weights),))


def line_product_presentation(n: int) -> Presentation:
    if n < 1:
        raise ValueError("need at least one line")
    return Presentation(((Fraction(1), Fraction(-1)),) * n)


# ---------------------------------------------------------------------------
# strata and their Thom-Gysin lifts


class Stratum(NamedTuple):
    """A stratum by the (variable, weight) Euler factors z + w*a of the
    coordinates it kills; its complex codimension is their number."""
    label: str
    kills: tuple[tuple[str, Fraction], ...]


def _label(pres: Presentation, values: tuple[Fraction, ...], sign: int,
           kills: tuple[tuple[str, Fraction], ...]) -> tuple[tuple, str | None, Stratum]:
    """The one place the shape shows: print key, label of the reflection pair
    led (or None) and stratum. One factor: by beta, ascending; beta > 0 leads.
    Lines: J killed at weight sigma, by |J| then J; sigma = +1 first, leads."""
    if len(pres.factors) == 1:
        beta, = values
        return (beta,), f"beta={beta}" if sign > 0 else None, Stratum(f"beta={beta}", kills)
    lines = tuple(pres.variables.index(var) + 1 for var, _ in kills)
    pair = "J=" + ",".join(map(str, lines))
    return ((len(lines), lines, sign), pair if sign < 0 else None,
            Stratum(f"{pair};sigma={-sign:+d}", kills))


def _strata(pres: Presentation) -> list[tuple]:
    """(key, pair label, stratum, choice, sign, beta) in print order, kept in
    the memo: one for each choice c of one weight value per factor (times d)
    and each sign with sign * beta >= 0, beta = sum c. The stratum kills the
    coordinates of weight w in factor i with sign * w < sign * c_i."""
    if "strata" not in pres.memo:
        # per factor: each value, times d, with its kills on either side
        d = lcm(*(w.denominator for fac in pres.factors for w in fac))
        cuts = [[(c, c.numerator * (d // c.denominator),
                  {s: tuple((var, w) for w in fac if (w < c if s > 0 else w > c)) for s in (1, -1)})
                 for c in sorted(set(fac))] for var, fac in zip(pres.variables, pres.factors)]
        found = []
        for picks in itertools.product(*cuts):
            values, choice, sides = zip(*picks)
            beta = sum(choice)
            for sign in (s for s in (1, -1) if s * beta >= 0):
                kills = tuple(k for side in sides for k in side[sign])
                found.append((*_label(pres, values, sign, kills), choice, sign, beta))
        pres.memo["strata"] = sorted(found, key=lambda s: s[0])
    return pres.memo["strata"]


def torus_strata(pres: Presentation) -> tuple[Stratum, ...]:
    """The unstable strata, in print order, without a profile scan: a
    profile's hull is an interval whose ends are sums of one weight per
    factor, so its beta is 0 or such a sum, and each nonzero sum is a beta."""
    return tuple(s for _, _, s, _, _, beta in _strata(pres) if beta)


def thom_gysin_lift(pres: Presentation, stratum: Stratum) -> GradedPolynomial:
    """Pushforward of the unit class from a stratum closure: the product of
    the Euler factors of the coordinates the stratum kills."""
    return euler_product(pres.variables, stratum.kills)


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


def _pairs(pres: Presentation, stable: bool) -> list[tuple[str, Stratum, Stratum]]:
    """Reflection pairs (label, stratum of c, of -c) in order; beta = 0 if `stable`."""
    strata = _strata(pres)
    reflected = {(choice, sign): s for _, _, s, choice, sign, _ in strata}
    return [(pair, s, reflected[tuple(-c for c in choice), -sign])
            for _, pair, s, choice, sign, beta in strata if pair and (beta or stable)]


def sl2_kernel_ideal(pres: Presentation, max_degree: int,
                     target: str = "semistable") -> KernelIdeal:
    """Folded kernel generators for the reflection quotient.

    The strata of the choices c and -c yield two invariant generators: the
    difference of their lifts divided by the parameter (degree two below
    the torus codimension) and their sum. The stable target, on products of
    lines, adds the pairs of beta = 0. Pairs above max_degree are not lifted.
    """
    if target not in ("semistable", "stable"):
        raise ValueError("target must be 'semistable' or 'stable'")
    require_negation_symmetric(pres.model())
    if target == "stable" and any(sorted(fac) != [-1, 1] for fac in pres.factors):
        raise ValueError("the stable target is defined for products of lines only")
    key = ("sl2", target, max_degree)
    if key in pres.memo:
        return pres.memo[key]
    gens = []
    for label, up, down in _pairs(pres, target == "stable"):
        lam = 2 * len(up.kills)
        if lam - 2 > max_degree:
            continue
        plus, minus = _lift(pres, up), _lift(pres, down)
        if _reflect(plus) != minus:
            raise VerificationFailed("opposite lifts are not reflection images",
                                     witness={"stratum": label})
        diff = divide_exact(plus - minus, pres.alpha).scale(Fraction(1, 4))
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
            # zi^(ni + 1) rewritten by its relation's lower terms, all scaled
            # to integers by the relations' denominators
            cols = [e[:-1] for e in pres.basis(2 * sum(len(f) - 1 for f in pres.factors))]
            index = {x: c for c, x in enumerate(cols)}
            scale = lcm(*(c.denominator for r in pres.relations for _, c in r.terms))
            low = [[(f[i], -c.numerator * (scale // c.denominator)) for f, c in r.terms if f[-1]]
                   for i, r in enumerate(pres.relations)]
            pres.memo["A"] = cols, index, [[
                [(index[x[:i] + (x[i] + 1,) + x[i + 1:]], scale)] if x[i] < len(fac) - 1 else
                [(index[x[:i] + (j,) + x[i + 1:]], c) for j, c in low[i]]
                for i, fac in enumerate(pres.factors)] for x in cols]
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
    if poly.variables != pres.variables:
        raise ValueError("polynomials live in different rings")
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
    """Image of a class in the presentation of a coordinate subspace of a
    weighted projective space: the canonical remainder modulo the Euler
    product of the chosen coordinates, the subspace's relation."""
    if len(pres.factors) != 1:
        raise ValueError("subspace restriction is defined for projective spaces only")
    weights, idxs = pres.factors[0], sorted(set(subset))
    if not idxs or any(not 0 <= j < len(weights) for j in idxs):
        raise ValueError("subset must pick valid coordinate indices")
    rel = euler_product(pres.variables, [("z", weights[j]) for j in idxs])
    return polynomial_division(poly, rel)[1]
