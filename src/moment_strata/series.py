"""Equivariant Poincare series of weighted models and their quotients.

The semistable series is computed by the stratification recursion: from the
full equivariant series subtract, for every nonzero stratum and every
critical component, the component's submodel series shifted by the stratum
codimension. Termination is guaranteed because the linear span of a shifted
submodel's weights is strictly smaller than the parent's (the submodel
weights are orthogonal to a nonzero vector of the parent span); the
recursion checks that the measure decreases at every descent and raises
VerificationFailed where it does not. Each node of the recursion tree is
built once and kept with its children in the model's record in `models`; a
submodel enters the recursion with its factors and weights sorted, so
submodels equal up to that order share one node. The perfection check audits
that stored tree. The quotient by the reflection group runs the same descent
over the positive strata only, each codimension lowered by two.
"""

from __future__ import annotations

import operator
from typing import NamedTuple

from .errors import TruncationTooSmall, VerificationFailed
from .linalg import SpanBasis, Value
from .models import (
    WeightedModel,
    _components,
    _record,
    _shift,
    index_betas,
    quotient_top_degree,
    require_negation_symmetric,
    require_quotient,
)


class TruncatedSeries(Value):
    """Integer power series known through degree ``truncation``."""

    __slots__ = _compared = ("coeffs",)

    def __init__(self, coeffs: tuple[int, ...]):
        self.coeffs = coeffs

    @property
    def truncation(self) -> int:
        return len(self.coeffs) - 1

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._align(other)
        return TruncatedSeries(tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._align(other)
        n = self.truncation
        out = [0] * (n + 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs[:n + 1 - i]):
                if b:
                    out[i + j] += a * b
        return TruncatedSeries(tuple(out))

    def _align(self, other: "TruncatedSeries"):
        if self.truncation != other.truncation:
            raise ValueError("series truncations differ")

    def shift(self, k: int) -> "TruncatedSeries":
        """Multiply by t^k; the result is known through truncation + k."""
        if k < 0:
            raise ValueError("negative shift")
        return TruncatedSeries((0,) * k + self.coeffs)

    def divide_one_minus(self, m: int) -> "TruncatedSeries":
        """Divide by (1 - t^m), i.e. multiply by the geometric series."""
        if m <= 0:
            raise ValueError("modulus must be positive")
        out = list(self.coeffs)
        for i in range(m, len(out)):
            out[i] += out[i - m]
        return TruncatedSeries(tuple(out))


def _factor_product(model: WeightedModel, trunc: int) -> TruncatedSeries:
    """Product of the projective-space polynomials of the factors, each
    1 + t^2 + ... + t^(2s-2) = (1 - t^(2s)) / (1 - t^2) applied in place:
    linear in the truncation per factor."""
    out = [1] + [0] * trunc
    for size in model.factor_sizes:
        for d in range(trunc, 2 * size - 1, -1):
            out[d] -= out[d - 2 * size]
        for d in range(2, trunc + 1):
            out[d] += out[d - 2]
    return TruncatedSeries(tuple(out))


def model_equivariant_series(model: WeightedModel, trunc: int) -> TruncatedSeries:
    """Series of the full model: product of projective-space polynomials
    over the polynomial ring of the torus."""
    if trunc < 0:
        raise ValueError("truncation must be nonnegative")
    out = _factor_product(model, trunc)
    for _ in range(model.rank):
        out = out.divide_one_minus(2)
    return out


def _weights_span(model: WeightedModel) -> int:
    record = _record(model)   # each model's span is reduced once, on its lattice
    if record.span is None:
        span = SpanBasis()
        for row in (w for fac in model.lattice[1] for w in fac):
            span.add_int_row(dict(enumerate(row)))
        record.span = span.dim
    return record.span


def _descend(model: WeightedModel, trunc: int, drop: int):
    """(codimension, shifted submodel in canonical order) of every
    component the recursion subtracts through degree ``trunc``.

    ``drop=0`` is the torus: every nonzero beta. ``drop=2`` is the
    reflection quotient: positive betas only, each codimension lowered by 2.
    """
    parent_span = _weights_span(model)
    for beta in index_betas(model):
        if (beta[0] <= 0) if drop else all(x == 0 for x in beta):
            continue
        cleared, comps = _components(model, beta)
        for values, attaining, codim in comps:
            lam = codim - drop
            if lam < 0:
                raise VerificationFailed("negative group-level codimension",
                                         witness={"beta": beta, "drop": drop})
            if lam > trunc:
                continue
            # canonical order: submodels equal up to order share one node
            sub = _shift(model, cleared, values, attaining, True)
            if not _weights_span(sub) < parent_span:
                raise VerificationFailed("recursion measure failed to decrease",
                                         witness={"beta": beta})
            yield lam, sub


def _node(model: WeightedModel, trunc: int):
    """(semistable series, ambient series, model, ((codimension, child), ...)):
    one node of the recursion tree, built once per model and truncation and
    kept in the model's record."""
    nodes = _record(model).nodes
    node = nodes.get(trunc)
    if node is None:
        children = tuple((lam, _node(sub, trunc - lam))
                         for lam, sub in _descend(model, trunc, 0))
        ambient = model_equivariant_series(model, trunc)
        out = list(ambient.coeffs)
        for lam, child in children:   # in place, at the child's shift
            out[lam:] = map(operator.sub, out[lam:], child[0].coeffs)
        node = nodes[trunc] = (TruncatedSeries(tuple(out)), ambient, model, children)
    return node


def semistable_series(model: WeightedModel, trunc: int) -> TruncatedSeries:
    """Equivariant series of the semistable locus, by stratum subtraction."""
    if trunc < 0:
        raise ValueError("truncation must be nonnegative")
    return _node(model, trunc)[0]


def sl2_quotient_series(model: WeightedModel, trunc: int) -> TruncatedSeries:
    """Series of the reflection-group quotient for symmetric rank-1 models.

    The ambient series is the ordinary product polynomial over the degree-4
    polynomial ring; each positive stratum is subtracted with codimension
    two less than its maximal-torus codimension.
    """
    if trunc < 0:
        raise ValueError("truncation must be nonnegative")
    require_negation_symmetric(model)
    out = _factor_product(model, trunc).divide_one_minus(4)
    for lam, sub in _descend(model, trunc, 2):
        out = out - semistable_series(sub, trunc - lam).shift(lam)
    return out


def quotient_poincare_polynomial(model: WeightedModel, trunc: int,
                                 group: str = "torus") -> list[int]:
    """Betti numbers of the torus or reflection quotient, when the quotient
    is an orbifold.

    Requires semistable == stable (else NotCoprimeStable) and a truncation
    past the quotient's real dimension so the series can be seen to
    terminate (else TruncationTooSmall). A quotient of negative dimension
    is empty and has the empty polynomial.
    """
    require_quotient(model, group)
    top = quotient_top_degree(model, group)
    if trunc <= top:
        raise TruncationTooSmall(
            f"truncation {trunc} cannot certify termination at degree {top}",
            witness={"required_beyond": top, "given": trunc})
    if group == "torus":
        series = semistable_series(model, trunc)
    else:
        series = sl2_quotient_series(model, trunc)
    top = max(top, -1)
    for d in range(top + 1, trunc + 1):
        if series.coeffs[d] != 0:
            raise VerificationFailed(
                f"series fails to terminate at degree {d}; quotient data inconsistent",
                witness={"degree": d, "coefficient": series.coeffs[d]})
    poly = list(series.coeffs[:top + 1])
    if any(c < 0 for c in poly):
        raise VerificationFailed("negative coefficient in quotient polynomial",
                                 witness={"polynomial": poly})
    return poly


class PerfectionReport(NamedTuple):
    ok: bool
    truncation: int
    strata_checked: int
    failures: tuple[dict, ...]


def perfection_check(model: WeightedModel, trunc: int) -> PerfectionReport:
    """Verify the stratification identity and Morse-theoretic positivity.

    At every node of the recursion tree the full series must equal the
    semistable series plus the shifted submodel contributions, and every
    semistable series in sight must have nonnegative (integer) coefficients.
    The identity alone restates the recursion; positivity of all the pieces
    is what a wrong codimension or a missed stratum actually breaks. The
    check reads the memoized tree of `semistable_series`, each node once.
    """
    semistable_series(model, trunc)
    failures: list[dict] = []
    visited: set = set()

    def walk(node):
        if id(node) in visited:
            return
        visited.add(id(node))
        ss, ambient, m, children = node
        if any(c < 0 for c in ss.coeffs):
            failures.append({"kind": "negative semistable coefficient",
                             "factors": m.factors})
        total = list(ss.coeffs)
        for lam, child in children:
            walk(child)
            total[lam:] = map(operator.add, total[lam:], child[0].coeffs)
        if tuple(total) != ambient.coeffs:
            failures.append({"kind": "stratification identity", "factors": m.factors})

    walk(_node(model, trunc))
    return PerfectionReport(not failures, trunc, len(visited), tuple(failures))
