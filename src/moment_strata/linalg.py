"""Exact linear algebra over the rationals.

Everything here is elementary but load-bearing: certificates elsewhere in the
package are only as trustworthy as the arithmetic below, so all routines work
over ``fractions.Fraction`` (or integer-scaled sparse rows) and never touch
floats.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
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


def is_zero_vector(u: Vector) -> bool:
    return all(a == 0 for a in u)


def dot(u: Vector, v: Vector) -> Fraction:
    return sum((a * b for a, b in zip(u, v, strict=True)), Fraction(0))


def rref(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form; returns (matrix, pivot column list).

    Deterministic: in each column the first row with a nonzero entry is used
    as the pivot.
    """
    m = [list(r) for r in rows]
    if not m:
        return [], []
    ncols = len(m[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pr = None
        for i in range(r, len(m)):
            if m[i][c] != 0:
                pr = i
                break
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        pv = m[r][c]
        m[r] = [x / pv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m, pivots


def matrix_rank(rows: Sequence[Sequence[Fraction]]) -> int:
    return len(rref([list(r) for r in rows])[1])


def solve_linear(a: Sequence[Sequence[Fraction]], b: Sequence[Fraction]) -> list[Fraction] | None:
    """One solution of A x = b, or None if the system is inconsistent.

    When the solution space is positive-dimensional the free variables are
    set to zero, which keeps the output deterministic.
    """
    rows = [list(ra) + [rb] for ra, rb in zip(a, b, strict=True)]
    if not rows:
        return []
    n = len(a[0]) if a else 0
    red, pivots = rref(rows)
    for row in red:
        if all(x == 0 for x in row[:n]) and row[n] != 0:
            return None
    x = [Fraction(0)] * n
    for i, c in enumerate(pivots):
        if c < n:
            x[c] = red[i][n]
        elif red[i][n] != 0:
            return None
    return x


def null_space(rows: Sequence[Sequence[Fraction]], ncols: int) -> list[Vector]:
    """Basis of {x : A x = 0}, deterministic (one vector per free column)."""
    red, pivots = rref([list(r) for r in rows]) if rows else ([], [])
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        v = [Fraction(0)] * ncols
        v[free] = Fraction(1)
        for i, c in enumerate(pivots):
            v[c] = -red[i][free]
        basis.append(tuple(v))
    return basis


# ---------------------------------------------------------------------------
# incremental span tracking with integer-scaled sparse rows


def _int_scale(entries: dict[int, Fraction]) -> dict[int, int]:
    den = 1
    for v in entries.values():
        den = den * v.denominator // gcd(den, v.denominator)
    out = {k: int(v * den) for k, v in entries.items() if v != 0}
    return _normalize(out)


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


class SpanBasis:
    """Row space over Q, built incrementally from sparse vectors.

    Rows are stored as gcd-reduced integer dicts keyed by column, one per
    pivot column (the minimal column of the row). New rows are reduced
    against existing pivots left to right; existing rows are back-reduced so
    the basis stays close to reduced echelon form, which keeps fill-in down
    on the large graded pieces this class exists for.
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
            a, p = row[c], piv[c]
            g = gcd(a, p)
            ma, mp = p // g, a // g
            if ma != 1:
                row = {k: v * ma for k, v in row.items()}
            for k, v in piv.items():
                nv = row.get(k, 0) - v * mp
                if nv:
                    row[k] = nv
                else:
                    row.pop(k, None)
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
                a, p = other[c], row[c]
                g = gcd(a, p)
                ma, mp = p // g, a // g
                merged = {k: v * ma for k, v in other.items()}
                for k, v in row.items():
                    nv = merged.get(k, 0) - v * mp
                    if nv:
                        merged[k] = nv
                    else:
                        merged.pop(k, None)
                self.rows[oc] = _normalize(merged)
        self.rows[c] = row
        return True

    def contains(self, entries: dict[int, Fraction]) -> bool:
        return not self._reduce(_int_scale(entries))

    def basis_rows(self) -> list[dict[int, int]]:
        return [dict(self.rows[c]) for c in sorted(self.rows)]


# ---------------------------------------------------------------------------
# exact LP feasibility (phase-one simplex with Bland's rule)


def lp_feasible(a_eq: list[list[Fraction]], b_eq: list[Fraction]) -> list[Fraction] | None:
    """A nonnegative solution x of A x = b, or None if none exists."""
    m = len(a_eq)
    n = len(a_eq[0]) if m else 0
    if m == 0:
        return []
    tab: list[list[Fraction]] = []
    for i in range(m):
        row = list(a_eq[i])
        rhs = b_eq[i]
        if rhs < 0:
            row = [-x for x in row]
            rhs = -rhs
        art = [Fraction(1) if j == i else Fraction(0) for j in range(m)]
        tab.append(row + art + [rhs])
    basis = [n + i for i in range(m)]
    total = n + m

    def reduced_costs() -> list[Fraction]:
        # phase-one objective: sum of artificial variables
        costs = []
        for j in range(total):
            cj = Fraction(1) if j >= n else Fraction(0)
            z = sum((tab[i][j] for i in range(m) if basis[i] >= n), Fraction(0))
            costs.append(cj - z)
        return costs

    while True:
        costs = reduced_costs()
        enter = next((j for j in range(total) if costs[j] < 0), None)
        if enter is None:
            break
        leave = None
        best = None
        for i in range(m):
            if tab[i][enter] > 0:
                ratio = tab[i][total] / tab[i][enter]
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best, leave = ratio, i
        if leave is None:
            raise ArithmeticError("phase-one objective unbounded; inconsistent tableau")
        pv = tab[leave][enter]
        tab[leave] = [x / pv for x in tab[leave]]
        for i in range(m):
            if i != leave and tab[i][enter] != 0:
                f = tab[i][enter]
                tab[i] = [x - f * y for x, y in zip(tab[i], tab[leave])]
        basis[leave] = enter

    if any(basis[i] >= n and tab[i][total] != 0 for i in range(m)):
        return None
    x = [Fraction(0)] * n
    for i in range(m):
        if basis[i] < n:
            x[basis[i]] = tab[i][total]
    return x


def cone_contains(points: Sequence[Vector], target: Vector) -> bool:
    """Does the convex cone generated by ``points`` contain ``target``?"""
    if not points:
        return is_zero_vector(target)
    r = len(target)
    a = [[p[i] for p in points] for i in range(r)]
    return lp_feasible(a, list(target)) is not None
