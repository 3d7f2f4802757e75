"""Reference implementations in Fraction arithmetic.

The library runs the profile scan, the nearest-point search and the critical
components on the integer lattice of a model, and its one row reduction on
integer rows. These are the earlier Fraction versions of the same
algorithms, kept as test oracles: every quantity is computed on the rational
weights and the rational form directly, with no common denominator. The
dense reduced row echelon form, a linear solver and a phase-one simplex
come first; the searches below are built on them.
"""

from fractions import Fraction

from moment_strata.geometry import (ProjectionCertificate, _affinely_independent,
                                    _dedupe, _lex_subsets)
from moment_strata.linalg import dot, vadd, vscale, vsub
from moment_strata.models import (CriticalComponent, IndexStratum, WeightedModel,
                                  _check_profile, enumerate_profiles)


def rref(rows):
    """Reduced row echelon form; returns (matrix, pivot column list).

    Deterministic: in each column the first row with a nonzero entry is used
    as the pivot.
    """
    m = [list(r) for r in rows]
    if not m:
        return [], []
    ncols = len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
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


def rref_null_space(rows, ncols):
    """Basis of {x : A x = 0}: one vector per free column of the rref."""
    red, pivots = rref(rows)
    basis = []
    for free in range(ncols):
        if free in pivots:
            continue
        v = [Fraction(0)] * ncols
        v[free] = Fraction(1)
        for i, c in enumerate(pivots):
            v[c] = -red[i][free]
        basis.append(tuple(v))
    return basis


def solve_linear(a, b):
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


def lp_feasible(a_eq, b_eq):
    """A nonnegative solution x of A x = b, or None if none exists: phase-one
    simplex with Bland's rule."""
    m = len(a_eq)
    n = len(a_eq[0]) if m else 0
    if m == 0:
        return []
    tab = []
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

    def reduced_costs():
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


def cone_contains(points, target):
    """Does the convex cone generated by ``points`` contain ``target``?"""
    if not points:
        return all(x == 0 for x in target)
    a = [[p[i] for p in points] for i in range(len(target))]
    return lp_feasible(a, list(target)) is not None


def minkowski_points(model, profile):
    """Deduplicated sums of one selected weight per factor, sorted."""
    _check_profile(model, profile)
    acc = {tuple(Fraction(0) for _ in range(model.rank))}
    for supp, fac in zip(profile, model.factors):
        step = {fac[k] for k in supp}
        acc = {tuple(a + b for a, b in zip(s, w)) for s in acc for w in step}
    return tuple(sorted(acc))


def project_affine(sub_pts, form):
    """Foot of the origin on the affine hull of affinely independent points,
    with its barycentric coordinates; None when they are dependent."""
    base = sub_pts[0]
    dirs = [vsub(p, base) for p in sub_pts[1:]]
    k = len(dirs)
    red, pivots = rref([[form.inner(di, dj) for dj in dirs] + [-form.inner(base, di)]
                        for di in dirs])
    if pivots[:k] != list(range(k)):
        return None
    sol = [row[k] for row in red]
    point = base
    for c, d in zip(sol, dirs):
        point = vadd(point, vscale(c, d))
    return point, [Fraction(1) - sum(sol, Fraction(0))] + sol


def interval_certificate(pts):
    """Rank one: the endpoint nearest 0, or the two endpoints straddling 0."""
    lo = min(range(len(pts)), key=lambda i: pts[i][0])
    hi = max(range(len(pts)), key=lambda i: pts[i][0])
    a, b = pts[lo][0], pts[hi][0]
    if a >= 0:
        return ProjectionCertificate(pts[lo], (lo,), (Fraction(1),))
    if b <= 0:
        return ProjectionCertificate(pts[hi], (hi,), (Fraction(1),))
    return ProjectionCertificate((Fraction(0),), (lo, hi),
                                 (b / (b - a), -a / (b - a)))


def wolfe_certificate(pts, form):
    """Wolfe's active-set method (Math. Prog. 11, 1976) on rational points."""
    norms = [form.norm2(p) for p in pts]
    first = norms.index(min(norms))
    active, lam, x = [first], [Fraction(1)], pts[first]
    while True:
        gx = form.apply(x)
        vals = [dot(p, gx) for p in pts]
        j = min(range(len(pts)), key=vals.__getitem__)
        if vals[j] >= dot(x, gx):
            return ProjectionCertificate(x, tuple(active), tuple(lam))
        active.append(j)
        lam.append(Fraction(0))
        while True:
            proj = project_affine([pts[i] for i in active], form)
            if proj is None:
                raise ArithmeticError("active set lost affine independence")
            y, alpha = proj
            if all(a > 0 for a in alpha):
                x, lam = y, alpha
                break
            theta = min(l / (l - a) for l, a in zip(lam, alpha) if a <= 0)
            lam = [l + theta * (a - l) for l, a in zip(lam, alpha)]
            x = vadd(x, vscale(theta, vsub(y, x)))
            keep = [k for k, l in enumerate(lam) if l > 0]
            active = [active[k] for k in keep]
            lam = [lam[k] for k in keep]


def nearest_point(points, form):
    """The search certificate, verified by ProjectionCertificate.verify."""
    if form.rank == 1:
        cert = interval_certificate(points)
    else:
        cert = wolfe_certificate(points, form)
    if not cert.verify(points, form):
        raise ArithmeticError("projection certificate failed self-verification")
    return cert


def origin_in_interior(points, rank):
    """0 is interior iff the points' cone contains +e_i and -e_i for every
    coordinate direction, each by an exact LP."""
    pts = [tuple(Fraction(x) for x in p) for p in points]
    return all(cone_contains(pts, tuple(Fraction(s if j == i else 0) for j in range(rank)))
               for i in range(rank) for s in (1, -1))


def canonical_certificate(points, form, beta):
    """Lexicographically smallest affinely independent face support whose
    barycentric coordinates of beta are nonnegative."""
    nb = form.norm2(beta)
    face = sorted(idx for p, idx in _dedupe(points) if form.inner(p, beta) == nb)
    for sub in _lex_subsets(face, form.rank + 1):
        sub_pts = [points[i] for i in sub]
        if not _affinely_independent(sub_pts, form.rank):
            continue
        a = [[p[c] for p in sub_pts] for c in range(form.rank)] + [[Fraction(1)] * len(sub)]
        lam = solve_linear(a, list(beta) + [Fraction(1)])
        if lam is not None and all(x >= 0 for x in lam):
            cert = ProjectionCertificate(beta, tuple(sub), tuple(lam))
            if not cert.verify(points, form):
                raise ArithmeticError("canonical certificate does not verify")
            return cert
    raise ArithmeticError("no canonical certificate")


def scan(model):
    """(index set, strictly-semistable witness, beta per Minkowski point set)
    by one Fraction pass over the canonical profiles."""
    found, betas, witness = {}, {}, None
    for profile in enumerate_profiles(model):
        points = minkowski_points(model, profile)
        beta = nearest_point(points, model.form).beta
        betas[points] = beta
        if beta not in found:
            cert = canonical_certificate(points, model.form, beta)
            found[beta] = IndexStratum(beta, cert, profile, points)
        if (witness is None and all(x == 0 for x in beta)
                and not origin_in_interior(points, model.rank)):
            witness = profile
    return tuple(found[b] for b in sorted(found)), witness, betas


def critical_components(model: WeightedModel, beta):
    """Per-factor pairing values summing to <beta, beta>, in Fractions."""
    b = tuple(Fraction(x) for x in beta)
    gb = model.form.apply(b)
    target = dot(b, gb)
    per_factor = []
    for fac in model.factors:
        pairs = [dot(w, gb) for w in fac]
        per_factor.append([(v, tuple(k for k, p in enumerate(pairs) if p == v),
                            sum(1 for p in pairs if p < v))
                           for v in sorted(set(pairs))])
    suffix_min = [Fraction(0)] * (len(per_factor) + 1)
    suffix_max = [Fraction(0)] * (len(per_factor) + 1)
    for i in range(len(per_factor) - 1, -1, -1):
        suffix_min[i] = suffix_min[i + 1] + per_factor[i][0][0]
        suffix_max[i] = suffix_max[i + 1] + per_factor[i][-1][0]
    out = []

    def rec(i, acc, chosen):
        if i == len(per_factor):
            if acc == target:
                out.append(CriticalComponent(
                    b, tuple(v for v, _, _ in chosen),
                    tuple(att for _, att, _ in chosen),
                    2 * sum(below for _, _, below in chosen)))
            return
        for entry in per_factor[i]:
            v = entry[0]
            if acc + v + suffix_min[i + 1] <= target <= acc + v + suffix_max[i + 1]:
                chosen.append(entry)
                rec(i + 1, acc + v, chosen)
                chosen.pop()

    rec(0, Fraction(0), [])
    out.sort(key=lambda c: c.values)
    return tuple(out)
