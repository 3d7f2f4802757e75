"""Refined stratum classifiers for point configurations.

Three families are implemented over exact rational coordinates: SL(2) acting
on ordered tuples of points on the projective line, SL(2) acting on binary
forms (unordered root multisets), and SL(3) acting on ordered tuples of
points in the projective plane.

Labels are returned in the tuple notation used throughout: "Stable", "(T)",
"(T,2)", "(T,4)", "(T1,3)", "(T,(1/2,0,-1/2))", "S_{2}", "S_{(2,1,0)}",
"S~_{(3/2,3/2,0,T1)}" and so on. Every label also carries its coarse
(norm-square Morse) form so the coarsening relation is checkable.
"""

from __future__ import annotations

import itertools
from collections import Counter
from fractions import Fraction
from math import comb
from typing import Iterable, Sequence

from .errors import FlagAmbiguity, VerificationFailed
from .linalg import Value, frac


class ProjPoint(Value):
    """A point of projective space with canonically normalized homogeneous
    coordinates (first nonzero coordinate scaled to one)."""

    __slots__ = _compared = ("coords",)

    def __init__(self, coords: tuple[Fraction, ...]):
        if len(coords) < 2:
            raise ValueError("need at least two homogeneous coordinates")
        if all(c == 0 for c in coords):
            raise ValueError("homogeneous coordinates must not all vanish")
        if next(c for c in coords if c != 0) != 1:
            raise ValueError("coordinates must be normalized; use proj_point()")
        self.coords = coords

    @property
    def dim(self) -> int:
        return len(self.coords) - 1

    def __str__(self) -> str:
        return "[" + ":".join(str(c) for c in self.coords) + "]"


def proj_point(coords: Iterable) -> ProjPoint:
    cs = tuple(frac(c) for c in coords)
    if all(c == 0 for c in cs):
        raise ValueError("homogeneous coordinates must not all vanish")
    lead = next(c for c in cs if c != 0)
    return ProjPoint(tuple(c / lead for c in cs))


def affine_p1(x) -> ProjPoint:
    """The point with affine coordinate x; use infinity_p1() for the pole."""
    return proj_point((frac(x), 1))


def infinity_p1() -> ProjPoint:
    return proj_point((1, 0))


Config = tuple[ProjPoint, ...]


def config_of(points: Iterable) -> Config:
    """Coerce an iterable of points or raw coordinate rows to a Config."""
    out = []
    for p in points:
        out.append(p if isinstance(p, ProjPoint) else proj_point(p))
    if not out:
        raise ValueError("a configuration must contain at least one point")
    d = out[0].dim
    if any(p.dim != d for p in out):
        raise ValueError("all points must live in the same projective space")
    return tuple(out)


# ---------------------------------------------------------------------------
# exact projective transformations


Matrix = tuple[tuple[Fraction, ...], ...]


def apply_matrix(m: Matrix, p: ProjPoint) -> ProjPoint:
    if len(m[0]) != len(p.coords):
        raise ValueError("matrix size does not match the point")
    image = tuple(sum((row[j] * p.coords[j] for j in range(len(row))),
                      Fraction(0)) for row in m)
    return proj_point(image)


def transform_config(m: Matrix, config: Config) -> Config:
    return tuple(apply_matrix(m, p) for p in config)


def random_special_linear(dim: int, rng, steps: int = 8) -> Matrix:
    """A random determinant-one rational matrix, built from row shears."""
    m = [[Fraction(int(i == j)) for j in range(dim)] for i in range(dim)]
    for _ in range(steps):
        i, j = rng.sample(range(dim), 2)
        c = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        m[i] = [a + c * b for a, b in zip(m[i], m[j])]
    return tuple(tuple(row) for row in m)


# ---------------------------------------------------------------------------
# labels


class StratumLabel(Value):
    """A refined stratum name together with its coarse Morse form."""

    __slots__ = _compared = ("text", "coarse_text")

    def __init__(self, text: str, coarse_text: str):
        self.text, self.coarse_text = text, coarse_text

    def __str__(self) -> str:
        return self.text

    @property
    def is_refined(self) -> bool:
        return self.text != self.coarse_text


def _ray(*parts) -> str:
    return "(" + ",".join(str(p) for p in parts) + ")"


# ---------------------------------------------------------------------------
# the projective line, ordered tuples


def _line_coincidences(points: Iterable, what: str) -> tuple[Config, StratumLabel | ProjPoint]:
    """The configuration on the line, and its label when coincidences decide
    it (unstable; Stable; (T) when two points carry half each), or else the
    one point carrying exactly half."""
    config = config_of(points)
    if config[0].dim != 1:
        raise ValueError(f"{what} must lie on the projective line")
    n = len(config)
    counts = Counter(config)
    j = max(counts.values())
    if 2 * j > n:
        s = f"S_{{{2 * j - n}}}"
        return config, StratumLabel(s, s)
    heavy = [p for p, c in counts.items() if 2 * c == n]
    if len(heavy) != 1:
        return config, StratumLabel("(T)" if heavy else "Stable", "S_{0}")
    return config, heavy[0]


def classify_p1_config(points: Iterable) -> StratumLabel:
    """Refined stratum of an ordered tuple of points on the line.

    A tuple is unstable when more than half the points coincide; the coarse
    label records twice the excess. For even length, tuples with a point of
    multiplicity exactly half split into the closed-orbit case (the rest
    also coincide) and its unipotent thickening.
    """
    found = _line_coincidences(points, "points")[1]
    return found if isinstance(found, StratumLabel) else StratumLabel("(T,2)", "S_{0}")


# ---------------------------------------------------------------------------
# binary forms (unordered root multisets)


def _form_coefficients(roots: Sequence[ProjPoint]) -> list[Fraction]:
    """Coefficients a_0..a_n of prod_i (y_i t - x_i), the degree-n form with
    the given roots, dehomogenized at the second coordinate."""
    coeffs = [Fraction(1)]
    for p in roots:
        x, y = p.coords
        new = [Fraction(0)] * (len(coeffs) + 1)
        for i, c in enumerate(coeffs):
            new[i + 1] += y * c
            new[i] -= x * c
        coeffs = new
    return coeffs


def _shear_second_coordinate(coeffs: Sequence[Fraction], c: Fraction) -> list[Fraction]:
    """Coefficients of f(x, y + c*x) given those of f, both written as
    sum a_i x^i y^(n-i)."""
    n = len(coeffs) - 1
    out = [Fraction(0)] * (n + 1)
    for i, a in enumerate(coeffs):
        if a == 0:
            continue
        power = Fraction(1)
        for j in range(n - i + 1):
            out[i + j] += a * comb(n - i, j) * power
            power *= c
    return out


def _move_to_zero(p: ProjPoint) -> Matrix:
    """A determinant-nonzero matrix sending p to the origin (0:1)."""
    p0, p1 = p.coords
    second = (Fraction(1), Fraction(0)) if p0 != 0 else (Fraction(0), Fraction(1))
    return ((p1, -p0), second)


def classify_binary_form(roots: Iterable) -> StratumLabel:
    """Refined stratum of a binary form given by its rational root multiset.

    Beyond the closed-orbit case (two roots of half multiplicity each), a
    form with exactly one root p of half multiplicity is classified by the
    first surviving coefficient after moving p to the origin and killing the
    next coefficient with the unique unipotent substitution fixing the
    origin; the resulting gap k gives the label "(T,2k)".
    """
    config, p = _line_coincidences(roots, "roots")
    if isinstance(p, StratumLabel):
        return p
    n = len(config)
    m = n // 2
    moved = transform_config(_move_to_zero(p), config)
    coeffs = _form_coefficients(moved)
    if any(coeffs[i] != 0 for i in range(m)) or coeffs[m] == 0:
        raise VerificationFailed("moved form does not vanish to order exactly "
                                 "half its degree at the origin",
                                 witness={"coefficients": coeffs})
    shear = -coeffs[m + 1] / (m * coeffs[m])
    coeffs = _shear_second_coordinate(coeffs, shear)
    if coeffs[m + 1] != 0:
        raise VerificationFailed("unipotent shear left the next coefficient "
                                 "nonzero", witness={"coefficients": coeffs})
    k = next(i - m for i in range(m + 2, n + 1) if coeffs[i] != 0)
    if not 2 <= k <= m:
        raise VerificationFailed(f"coefficient gap {k} outside [2, {m}]",
                                 witness={"gap": k, "half_degree": m})
    return StratumLabel(_ray("T", 2 * k), "S_{0}")


# ---------------------------------------------------------------------------
# the projective plane


ProjLine = ProjPoint  # a line is its normalized coefficient vector


def line_through(p: ProjPoint, q: ProjPoint) -> ProjLine:
    (a1, a2, a3), (b1, b2, b3) = p.coords, q.coords
    normal = (a2 * b3 - a3 * b2, a3 * b1 - a1 * b3, a1 * b2 - a2 * b1)
    if all(c == 0 for c in normal):
        raise ValueError("the two points coincide")
    return proj_point(normal)


def on_line(p: ProjPoint, line: ProjLine) -> bool:
    return sum((a * b for a, b in zip(p.coords, line.coords)), Fraction(0)) == 0


def _candidate_lines(counts: Counter) -> dict[ProjLine, int]:
    """Lines through at least two distinct configuration points, with the
    number of configuration points (counted with multiplicity) on each."""
    distinct = list(counts)
    lines: dict[ProjLine, int] = {}
    for p, q in itertools.combinations(distinct, 2):
        line = line_through(p, q)
        if line not in lines:
            lines[line] = sum(c for x, c in counts.items() if on_line(x, line))
    return lines


def _vec_label(prefix: str, entries: Sequence) -> str:
    return prefix + "_{(" + ",".join(str(e) for e in entries) + ")}"


def p2_semistable(config: Config, counts: Counter | None = None,
                  lines: dict[ProjLine, int] | None = None) -> bool:
    n = len(config)
    counts = counts if counts is not None else Counter(config)
    lines = lines if lines is not None else _candidate_lines(counts)
    if any(3 * c > n for c in counts.values()):
        return False
    return all(3 * c <= 2 * n for c in lines.values())


def _destabilizing_flags(n: int, counts: Counter, lines: dict[ProjLine, int]):
    """All flags satisfying the ratio chain and projected-semistability side
    conditions; instability guarantees exactly one, which is asserted by the
    caller."""
    hits = []
    for line, k in lines.items():
        if 3 * k <= 2 * n:
            continue
        on = {p: c for p, c in counts.items() if on_line(p, line)}
        if 2 * max(on.values()) <= k:
            beta = (Fraction(k, 2), Fraction(k, 2), Fraction(n - k))
            hits.append(("line", beta, None, line))
    for p, k in counts.items():
        if 3 * k <= n:
            continue
        groups = _projected_groups(p, counts)
        if 2 * max(groups.values(), default=0) <= n - k:
            beta = (Fraction(k), Fraction(n - k, 2), Fraction(n - k, 2))
            hits.append(("point", beta, p, None))
    for p, k1 in counts.items():
        for line, cnt in lines.items():
            if not on_line(p, line):
                continue
            k2 = cnt - k1
            k3 = n - k1 - k2
            if k1 > k2 > k3:
                beta = (Fraction(k1), Fraction(k2), Fraction(k3))
                hits.append(("full", beta, p, line))
    return hits


def _projected_groups(p: ProjPoint, counts: Counter) -> dict[ProjLine, int]:
    """Multiplicities of the projection away from p: points other than p,
    grouped by the line joining them to p."""
    groups: dict[ProjLine, int] = {}
    for q, c in counts.items():
        if q == p:
            continue
        line = line_through(p, q)
        groups[line] = groups.get(line, 0) + c
    return groups


def _refine_unstable(n: int, counts: Counter, flag) -> str:
    kind, beta, p, line = flag
    if kind == "full":
        return _vec_label("S", beta)
    if kind == "line":
        k = int(2 * beta[0])
        if k % 2:
            return _vec_label("S", beta)
        on = {q: c for q, c in counts.items() if on_line(q, line)}
        top = max(on.values())
        if 2 * top < k:
            return _vec_label("S~", beta)
        if len(on) == 2:
            return _vec_label("S~", list(beta) + ["T1"])
        return _vec_label("S~", list(beta) + ["T1", 3])
    k = int(beta[0])
    if (n - k) % 2:
        return _vec_label("S", beta)
    if n == k:
        return _vec_label("S~", list(beta) + ["T2"])
    r = (n - k) // 2
    groups = _projected_groups(p, counts)
    achieved = sum(1 for c in groups.values() if c == r)
    if max(groups.values()) < r:
        return _vec_label("S~", beta)
    if achieved == 2:
        return _vec_label("S~", list(beta) + ["T2"])
    return _vec_label("S~", list(beta) + ["T2", 3])


def classify_p2_config(points: Iterable) -> StratumLabel:
    """Refined stratum of an ordered tuple of points in the plane.

    Unstable tuples are classified by their unique destabilizing flag (a
    line, a point, or a full flag), refined by coincidence patterns when the
    stratum splits. Strictly semistable tuples with length divisible by
    three are classified by the special points carrying a third of the
    configuration and the special lines carrying two thirds.
    """
    config = config_of(points)
    if config[0].dim != 2:
        raise ValueError("points must lie in the projective plane")
    n = len(config)
    counts = Counter(config)
    lines = _candidate_lines(counts)

    if not p2_semistable(config, counts, lines):
        hits = _destabilizing_flags(n, counts, lines)
        if len(hits) != 1:
            raise FlagAmbiguity(
                "the destabilizing flag is not unique",
                witness={"flags": [(kind, tuple(map(str, beta)))
                                   for kind, beta, _, _ in hits]})
        flag = hits[0]
        coarse = _vec_label("S", flag[1])
        return StratumLabel(_refine_unstable(n, counts, flag), coarse)

    third = Fraction(n, 3)
    coarse = _vec_label("S", (third, third, third))
    if n % 3:
        return StratumLabel("Stable", coarse)
    special_points = [p for p, c in counts.items() if 3 * c == n]
    special_lines = [line for line, c in lines.items() if 3 * c == 2 * n]
    a, b = len(special_points), len(special_lines)
    special = {"points": [p.coords for p in special_points],
               "lines": [line.coords for line in special_lines]}
    if a == 3:
        return StratumLabel("(T)", coarse)
    if a == 2:
        if b == 1:
            return StratumLabel(_ray("T", "(1/2,1/2,-1)"), coarse)
        if b != 2:
            raise VerificationFailed(f"two special points with {b} special "
                                     "lines", witness=special)
        return StratumLabel(_ray("T", "(1,0,-1)"), coarse)
    if a == 1:
        p = special_points[0]
        if b == 0:
            return StratumLabel("(T1,-3)", coarse)
        if b == 1:
            if on_line(p, special_lines[0]):
                return StratumLabel(_ray("T", "(1/2,0,-1/2)"), coarse)
            return StratumLabel("(T1)", coarse)
        if b != 2 or not all(on_line(p, line) for line in special_lines):
            raise VerificationFailed("one special point needs two special "
                                     "lines through it", witness=special)
        return StratumLabel(_ray("T", "(1,-1/2,-1/2)"), coarse)
    if a != 0 or b > 1:
        raise VerificationFailed(f"{a} special points with {b} special lines",
                                 witness=special)
    if b == 1:
        return StratumLabel("(T1,3)", coarse)
    return StratumLabel("Stable", coarse)


# ---------------------------------------------------------------------------
# coarse labels


def morse_label_of_config(points: Iterable) -> StratumLabel:
    """The coarse stratum label alone; it equals the coarsening of the
    refined classification (for line configurations the ordered-tuple and
    binary-form refinements coarsen identically)."""
    config = config_of(points)
    if config[0].dim == 1:
        label = classify_p1_config(config)
    elif config[0].dim == 2:
        label = classify_p2_config(config)
    else:
        raise ValueError("configurations live on the line or in the plane")
    return StratumLabel(label.coarse_text, label.coarse_text)
