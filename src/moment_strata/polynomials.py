"""Sparse exact polynomials in variables of cohomological degree two.

The rings that show up here are free polynomial algebras over Q whose
generators all sit in degree 2 (coordinate classes and the equivariant
parameter), so a term's cohomological degree is just twice its exponent
sum. Polynomials are immutable; arithmetic returns new objects.

The string grammar used by the command line round-trips through
``GradedPolynomial.parse`` / ``str``: terms are joined with ``+``/``-``,
each term is a ``*``-separated product of an optional rational coefficient
(``p`` or ``p/q`` in ASCII digits, q > 0) and powered variables (``z^2``, ``a``).
"""

from __future__ import annotations

import itertools
import re
from fractions import Fraction
from math import comb
from operator import add, sub
from typing import Mapping, Sequence

from .errors import NotDivisible
from .linalg import Value, frac

Exponents = tuple[int, ...]


def _sorted_terms(d: Mapping[Exponents, Fraction]) -> tuple[tuple[Exponents, Fraction], ...]:
    return tuple(sorted(((e, c) for e, c in d.items() if c != 0),
                        key=lambda ec: (sum(ec[0]), ec[0])))


class GradedPolynomial(Value):
    __slots__ = _compared = ("variables", "terms")

    def __init__(self, variables: tuple[str, ...], terms: tuple[tuple[Exponents, Fraction], ...]):
        self.variables, self.terms = variables, terms

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zero(variables: Sequence[str]) -> "GradedPolynomial":
        return GradedPolynomial(tuple(variables), ())

    @staticmethod
    def const(variables: Sequence[str], c) -> "GradedPolynomial":
        c = frac(c)
        v = tuple(variables)
        if c == 0:
            return GradedPolynomial(v, ())
        return GradedPolynomial(v, (((0,) * len(v), c),))

    @staticmethod
    def var(variables: Sequence[str], name: str) -> "GradedPolynomial":
        v = tuple(variables)
        i = v.index(name)
        e = tuple(1 if j == i else 0 for j in range(len(v)))
        return GradedPolynomial(v, ((e, Fraction(1)),))

    @staticmethod
    def from_dict(variables: Sequence[str], d: Mapping[Exponents, Fraction]) -> "GradedPolynomial":
        return GradedPolynomial(tuple(variables), _sorted_terms(d))

    def as_dict(self) -> dict[Exponents, Fraction]:
        return dict(self.terms)

    # -- arithmetic ---------------------------------------------------------

    def _same_ring(self, other: "GradedPolynomial"):
        if self.variables != other.variables:
            raise ValueError("polynomials live in different rings")

    def __add__(self, other: "GradedPolynomial") -> "GradedPolynomial":
        self._same_ring(other)
        d = self.as_dict()
        for e, c in other.terms:
            d[e] = d[e] + c if e in d else c
        return GradedPolynomial(self.variables, _sorted_terms(d))

    def __sub__(self, other: "GradedPolynomial") -> "GradedPolynomial":
        self._same_ring(other)
        d = self.as_dict()
        for e, c in other.terms:
            d[e] = d[e] - c if e in d else -c
        return GradedPolynomial(self.variables, _sorted_terms(d))

    def __neg__(self) -> "GradedPolynomial":
        return GradedPolynomial(self.variables,
                                tuple((e, -c) for e, c in self.terms))

    def __mul__(self, other: "GradedPolynomial") -> "GradedPolynomial":
        self._same_ring(other)
        d: dict[Exponents, Fraction] = {}
        for e1, c1 in self.terms:
            for e2, c2 in other.terms:
                e = tuple(map(add, e1, e2))
                c = c1 * c2
                d[e] = d[e] + c if e in d else c
        return GradedPolynomial(self.variables, _sorted_terms(d))

    def scale(self, c) -> "GradedPolynomial":
        c = frac(c)
        if c == 0:
            return GradedPolynomial.zero(self.variables)
        return GradedPolynomial(self.variables,
                                tuple((e, c * k) for e, k in self.terms))

    def __pow__(self, n: int) -> "GradedPolynomial":
        if n < 0:
            raise ValueError("negative power")
        out = GradedPolynomial.const(self.variables, 1)
        for _ in range(n):
            out = out * self
        return out

    def is_zero(self) -> bool:
        return not self.terms

    # -- grading ------------------------------------------------------------

    def degree(self) -> int:
        """Cohomological degree of the top term (-1 for the zero polynomial)."""
        if not self.terms:
            return -1
        return 2 * max(sum(e) for e, _ in self.terms)

    def is_homogeneous(self) -> bool:
        return len({sum(e) for e, _ in self.terms}) <= 1

    def graded_piece(self, d: int) -> "GradedPolynomial":
        if d % 2:
            return GradedPolynomial.zero(self.variables)
        k = d // 2
        return GradedPolynomial(self.variables,
                                tuple((e, c) for e, c in self.terms if sum(e) == k))

    # -- substitution -------------------------------------------------------

    def substitute(self, images: Mapping[str, "GradedPolynomial"]) -> "GradedPolynomial":
        """Ring map sending each variable to the given image (default: itself)."""
        cache: dict[str, GradedPolynomial] = {}
        for name in self.variables:
            img = images.get(name)
            cache[name] = img if img is not None else GradedPolynomial.var(self.variables, name)
        out = GradedPolynomial.zero(self.variables)
        for e, c in self.terms:
            term = GradedPolynomial.const(self.variables, c)
            for name, k in zip(self.variables, e):
                if k:
                    term = term * cache[name] ** k
            out = out + term
        return out

    # -- printing and parsing ----------------------------------------------

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        pieces = []
        for e, c in self.terms:
            factors = []
            for name, k in zip(self.variables, e):
                if k == 1:
                    factors.append(name)
                elif k > 1:
                    factors.append(f"{name}^{k}")
            mag = abs(c)
            if not factors:
                factors = [str(mag)]
            elif mag != 1:
                factors.insert(0, str(mag))
            body = "*".join(factors)
            if not pieces:
                pieces.append(body if c > 0 else f"-{body}")
            else:
                pieces.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(pieces)

    _TERM_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*(\^[0-9]+)?")
    _NUM_RE = re.compile(r"[0-9]+(/0*[1-9][0-9]*)?")

    @staticmethod
    def parse(variables: Sequence[str], text: str) -> "GradedPolynomial":
        v = tuple(variables)
        s = text.replace(" ", "")
        if not s:
            raise ValueError("empty polynomial string")
        # split into signed terms at top level
        terms: list[tuple[int, str]] = []
        sign, cur = 1, ""
        for i, ch in enumerate(s):
            if ch in "+-" and i != 0:
                if not cur:
                    raise ValueError(f"dangling sign in {text!r}")
                terms.append((sign, cur))
                sign, cur = (1 if ch == "+" else -1), ""
            elif ch in "+-" and i == 0:
                sign = 1 if ch == "+" else -1
            else:
                cur += ch
        if not cur:
            raise ValueError(f"dangling sign in {text!r}")
        terms.append((sign, cur))

        d: dict[Exponents, Fraction] = {}
        for sgn, term in terms:
            coeff = Fraction(sgn)
            exps = [0] * len(v)
            for piece in term.split("*"):
                if GradedPolynomial._NUM_RE.fullmatch(piece):
                    coeff *= Fraction(piece)
                elif GradedPolynomial._TERM_RE.fullmatch(piece):
                    if "^" in piece:
                        name, p = piece.split("^")
                        k = int(p)
                    else:
                        name, k = piece, 1
                    if name not in v:
                        raise ValueError(f"unknown variable {name!r}")
                    exps[v.index(name)] += k
                else:
                    raise ValueError(f"cannot parse term piece {piece!r}")
            e = tuple(exps)
            d[e] = d.get(e, Fraction(0)) + coeff
        return GradedPolynomial.from_dict(v, d)


def polynomial_division(f: GradedPolynomial, g: GradedPolynomial
                        ) -> tuple[GradedPolynomial, GradedPolynomial]:
    """Quotient and remainder of f by the single divisor g.

    Reduction is by leading terms in graded lexicographic order; terms whose
    leading monomial the divisor cannot cancel move to the remainder. With a
    single divisor the remainder is canonical, so a zero remainder is a
    genuine principal-ideal membership certificate.
    """
    if g.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    f._same_ring(g)
    q: dict[Exponents, Fraction] = {}
    r: dict[Exponents, Fraction] = {}
    if len(g.terms) == 1:
        # a monomial divisor cancels each divisible term on its own
        (g_e, g_c), = g.terms
        for e, c in f.terms:
            diff = tuple(map(sub, e, g_e))
            if any(x < 0 for x in diff):
                r[e] = c
            else:
                q[diff] = c / g_c
    else:
        def ltkey(ec):
            return (sum(ec[0]), ec[0])

        gl_e, gl_c = max(g.terms, key=ltkey)
        rem = f
        while not rem.is_zero():
            fl_e, fl_c = max(rem.terms, key=ltkey)
            diff = tuple(a - b for a, b in zip(fl_e, gl_e))
            if any(x < 0 for x in diff):
                r[fl_e] = r.get(fl_e, Fraction(0)) + fl_c
                rem = rem - GradedPolynomial(f.variables, ((fl_e, fl_c),))
                continue
            c = fl_c / gl_c
            q[diff] = q.get(diff, Fraction(0)) + c
            rem = rem - GradedPolynomial(f.variables, ((diff, c),)) * g
    return (GradedPolynomial.from_dict(f.variables, q),
            GradedPolynomial.from_dict(f.variables, r))


def divide_exact(f: GradedPolynomial, g: GradedPolynomial) -> GradedPolynomial:
    """Quotient f/g when g divides f exactly; NotDivisible otherwise."""
    q, r = polynomial_division(f, g)
    if not r.is_zero():
        raise NotDivisible("division left a remainder",
                           witness={"remainder": str(r), "divisor": str(g)})
    return q


# ---------------------------------------------------------------------------
# monomial bookkeeping


def exponents_of_degree(nvars: int, total: int) -> tuple[Exponents, ...]:
    """All exponent tuples with the given sum, in ascending lex order: the
    gaps around nvars - 1 bars placed among total + nvars - 1 slots."""
    if nvars == 0:
        return ((),) if total == 0 else ()
    slots = total + nvars - 1
    return tuple(tuple(b - a - 1 for a, b in zip((-1,) + bars, bars + (slots,)))
                 for bars in itertools.combinations(range(slots), nvars - 1))


def graded_piece_dim(nvars: int, d: int) -> int:
    """Dimension of the degree-d piece of a free ring on nvars generators."""
    if d < 0 or d % 2:
        return 0
    k = d // 2
    return comb(k + nvars - 1, nvars - 1)


def monomials(variables: Sequence[str], d: int) -> tuple[GradedPolynomial, ...]:
    v = tuple(variables)
    if d < 0 or d % 2:
        return ()
    return tuple(GradedPolynomial(v, ((e, Fraction(1)),))
                 for e in exponents_of_degree(len(v), d // 2))
