"""Exact linear algebra over the rationals, and the forms and integer vectors
that models share with the geometry, so a model is built without loading it.

Everything here is elementary but load-bearing: certificates elsewhere in the
package are only as trustworthy as the arithmetic below, so nothing touches
floats. Vectors are ``fractions.Fraction`` tuples; the one row reduction,
:class:`SpanBasis`, clears denominators and eliminates on integer rows with
gcd cofactors into echelon rows. Rank is read off them, and the null space
off the reduced form that :meth:`SpanBasis.reduced_rows` computes from them.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Sequence

Vector = tuple[Fraction, ...]


def frac(x) -> Fraction:
    """Coerce ints, strings like '-3/7', and Fractions to Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, bool):
        raise TypeError("bool is not a rational scalar")
    if isinstance(x, (int, str)):
        return Fraction(x)
    raise TypeError(f"not an exact rational: {x!r}")


class Value:
    """Base of the slotted records. Two records are equal when they are of the
    same class with equal `_compared` fields, a record hashes as the tuple of
    those fields, as the frozen dataclasses they replaced did, and its repr is
    ``Name(field=value, ...)`` over them. Slots not named there are caches."""

    __slots__ = ()
    _compared: tuple[str, ...] = ()

    def _key(self) -> tuple:
        return tuple(getattr(self, f) for f in self._compared)

    def __eq__(self, other):
        return other.__class__ is self.__class__ and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self) -> str:
        return (f"{type(self).__name__}("
                + ", ".join(f"{f}={getattr(self, f)!r}" for f in self._compared) + ")")


def vsub(u: Vector, v: Vector) -> Vector:
    return tuple(a - b for a, b in zip(u, v, strict=True))


def dot(u: Vector, v: Vector) -> Fraction:
    return sum((a * b for a, b in zip(u, v, strict=True)), Fraction(0))


def clear_denominators(points: Sequence[Vector]) -> tuple[int, list[tuple[int, ...]]]:
    """(D, [D p]) for D the lcm of all denominators: the scaled points keep
    their lexicographic order and their distinctness."""
    d = lcm(*(x.denominator for p in points for x in p))
    return d, [tuple(x.numerator * (d // x.denominator) for x in p) for p in points]


def _idot(u, v) -> int:
    return sum(map(mul, u, v))


def _iapply(gram, v) -> tuple[int, ...]:
    return tuple(_idot(row, v) for row in gram)


def _det(m: list[list[int]]) -> int:
    """Determinant of an integer matrix by fraction-free elimination
    (Bareiss, Math. Comp. 22, 1968)."""
    m, sign, det = [list(row) for row in m], 1, 1
    for i in range(len(m)):
        k = next((k for k in range(i, len(m)) if m[k][i]), None)
        if k is None:
            return 0
        if k != i:
            m[i], m[k], sign = m[k], m[i], -sign
        for row in m[i + 1:]:
            row[i + 1:] = [(m[i][i] * x - row[i] * y) // det
                           for x, y in zip(row[i + 1:], m[i][i + 1:])]
        det = m[i][i]
    return sign * det


class BilinearForm(Value):
    """Symmetric positive definite form on Q^rank, given by its Gram matrix;
    ``cleared``, not compared, is (c, c * gram) for c the lcm of its denominators."""

    __slots__ = ("gram", "cleared")
    _compared = ("gram",)

    def __init__(self, gram: tuple[tuple[Fraction, ...], ...]):
        if any(len(row) != len(gram) for row in gram):
            raise ValueError("Gram matrix must be square")
        if tuple(map(tuple, gram)) != tuple(zip(*gram)):
            raise ValueError("Gram matrix must be symmetric")
        # Sylvester's criterion: every leading principal minor is positive
        c, cleared = clear_denominators(gram)
        if any(_det([row[:k] for row in cleared[:k]]) <= 0
               for k in range(1, len(cleared) + 1)):
            raise ValueError("form is not positive definite")
        self.gram, self.cleared = gram, (c, tuple(cleared))

    @property
    def rank(self) -> int:
        return len(self.gram)

    def inner(self, u: Vector, v: Vector) -> Fraction:
        return dot(u, self.apply(v))

    def norm2(self, u: Vector) -> Fraction:
        return self.inner(u, u)

    def apply(self, v: Vector) -> Vector:
        """G v: the covector with inner(u, v) == dot(u, apply(v))."""
        return tuple(sum((g * x for g, x in zip(row, v) if x != 0), Fraction(0))
                     for row in self.gram)


def identity_form(rank: int) -> BilinearForm:
    return BilinearForm(tuple(
        tuple(Fraction(1) if i == j else Fraction(0) for j in range(rank))
        for i in range(rank)
    ))


def null_space(rows: Sequence[Sequence[Fraction]], ncols: int) -> list[Vector]:
    """Basis of {x : A x = 0}, deterministic: one vector per free column,
    with a 1 there and minus that column of the reduced row echelon form
    at the pivots."""
    span = SpanBasis()
    for r in rows:
        if span.dim == len(r):
            break   # the span is everything; the other rows lie in it
        if any(r):
            span.add({i: x for i, x in enumerate(r) if x})
    reduced = span.reduced_rows()
    basis = []
    for free in range(ncols):
        if free in reduced:
            continue
        v = [Fraction(0)] * ncols
        v[free] = Fraction(1)
        for c, row in reduced.items():
            if free in row:
                v[c] = Fraction(-row[free], row[c])
        basis.append(tuple(v))
    return basis


# ---------------------------------------------------------------------------
# incremental span tracking with integer-scaled sparse rows


def _int_scale(entries: dict[int, Fraction]) -> dict[int, int]:
    den = lcm(*(v.denominator for v in entries.values()))
    return _normalize({k: v.numerator * (den // v.denominator)
                       for k, v in entries.items()})


def _normalize(row: dict[int, int]) -> dict[int, int]:
    row = {k: v for k, v in row.items() if v != 0}
    if not row:
        return row
    g = 0
    for v in row.values():
        g = gcd(g, v)
    lead = row[min(row)]
    if lead < 0:
        g = -g
    if g not in (0, 1):
        row = {k: v // g for k, v in row.items()}
    return row


def _eliminate(row: dict[int, int], piv: dict[int, int], c: int) -> dict[int, int]:
    """Clear column c of row against piv, fraction-free: row times the gcd
    cofactor of piv[c], minus piv times that of row[c]. Scales into a new
    dict, or updates row in place when its cofactor is 1."""
    g = gcd(row[c], piv[c])
    ma, mp = piv[c] // g, row[c] // g
    if ma != 1:
        row = {k: v * ma for k, v in row.items()}
    for k, v in piv.items():
        nv = row.get(k, 0) - v * mp
        if nv:
            row[k] = nv
        else:
            row.pop(k, None)
    return row


class SpanBasis:
    """Row space over Q, built incrementally from sparse vectors.

    Rows are stored as gcd-reduced integer dicts keyed by column, one per
    pivot column (the minimal column of the row). A new row is reduced
    against the pivots left to right and stored; a stored row never changes.
    So the rows are echelon, not reduced: back-reduction grows the entries
    of the stored rows, and spans built degree by degree from the rows of
    the degree below compound that growth. `reduced_rows` computes the
    reduced form on demand. This is the package's one row reduction.
    """

    def __init__(self):
        self.rows: dict[int, dict[int, int]] = {}

    @property
    def dim(self) -> int:
        return len(self.rows)

    def _reduce(self, row: dict[int, int]) -> dict[int, int]:
        row = dict(row)
        while row:
            c = min(row)
            piv = self.rows.get(c)
            if piv is None:
                return _normalize(row)
            row = _eliminate(row, piv, c)
        return row

    def add(self, entries: dict[int, Fraction]) -> bool:
        """Insert a vector; returns True if it enlarged the span."""
        return self._insert(_int_scale(entries))

    def add_int_row(self, row: dict[int, int]) -> bool:
        """Insert an integer vector; the same as add, without Fractions."""
        return self._insert(_normalize(row))

    def _insert(self, row: dict[int, int]) -> bool:
        row = self._reduce(row)
        if row:
            self.rows[min(row)] = row
        return bool(row)

    def contains(self, entries: dict[int, Fraction]) -> bool:
        return not self._reduce(_int_scale(entries))

    def basis_rows(self) -> list[dict[int, int]]:
        return [dict(self.rows[c]) for c in sorted(self.rows)]

    def reduced_rows(self) -> dict[int, dict[int, int]]:
        """The rows keyed by pivot, each cleared at every other pivot column:
        the reduced row echelon form of the span, up to scaling each row.
        Rows are cleared from the last pivot back, so each elimination uses
        a row that is already zero at every other pivot."""
        out: dict[int, dict[int, int]] = {}
        for c in sorted(self.rows, reverse=True):
            row = dict(self.rows[c])
            for k in [k for k in row if k != c and k in out]:
                row = _eliminate(row, out[k], k)
            out[c] = _normalize(row)
        return out
