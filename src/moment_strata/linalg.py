"""Exact linear algebra over the rationals.

Everything here is elementary but load-bearing: certificates elsewhere in the
package are only as trustworthy as the arithmetic below, so nothing touches
floats. Vectors are ``fractions.Fraction`` tuples; the one row reduction,
:class:`SpanBasis`, clears denominators and eliminates on integer rows with
gcd cofactors, and rank and null space are read off it.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
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


def vadd(u: Vector, v: Vector) -> Vector:
    return tuple(a + b for a, b in zip(u, v, strict=True))


def vsub(u: Vector, v: Vector) -> Vector:
    return tuple(a - b for a, b in zip(u, v, strict=True))


def vscale(c: Fraction, u: Vector) -> Vector:
    return tuple(c * a for a in u)


def dot(u: Vector, v: Vector) -> Fraction:
    return sum((a * b for a, b in zip(u, v, strict=True)), Fraction(0))


def matrix_rank(rows: Sequence[Sequence[Fraction]]) -> int:
    return _span_of(rows).dim


def null_space(rows: Sequence[Sequence[Fraction]], ncols: int) -> list[Vector]:
    """Basis of {x : A x = 0}, deterministic: one vector per free column,
    with a 1 there and minus that column of the reduced row echelon form
    at the pivots."""
    reduced = _span_of(rows).reduced_rows()
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


def _span_of(rows: Sequence[Sequence[Fraction]]) -> SpanBasis:
    span = SpanBasis()
    for r in rows:
        if span.dim == len(r):
            break   # the span is everything; the other rows lie in it
        if any(r):
            span.add({i: x for i, x in enumerate(r) if x})
    return span


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
    pivot column (the minimal column of the row). New rows are reduced
    against existing pivots left to right; existing rows are back-reduced so
    the basis stays close to reduced echelon form, which keeps fill-in down
    on the large graded pieces this class exists for. This is the package's
    one row reduction: rank and null space read it too.
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
        if not row:
            return False
        c = min(row)
        for oc, other in self.rows.items():
            if c in other:
                self.rows[oc] = _normalize(_eliminate(other, row, c))
        self.rows[c] = row
        return True

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
