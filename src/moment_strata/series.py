"""Equivariant Poincare series of weighted models and their quotients.

The semistable series is computed by the stratification recursion: from the
full equivariant series subtract, for every nonzero stratum and every
critical component, the component's submodel series shifted by the stratum
codimension. Termination is guaranteed because the linear span of a shifted
submodel's weights is strictly smaller than the parent's (the submodel
weights are orthogonal to a nonzero vector of the parent span); the
recursion checks that the measure decreases at every descent and raises
VerificationFailed where it does not. The quotient by the reflection group
runs the same descent over the positive strata only, each codimension
lowered by two.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import NotCoprimeStable, TruncationTooSmall, VerificationFailed
from .geometry import span_dimension
from .models import (
    WeightedModel,
    critical_components,
    index_set,
    require_negation_symmetric,
    shifted_submodel,
    strictly_semistable_witness,
    stratum_codim,
)


@dataclass(frozen=True)
class TruncatedSeries:
    """Integer power series known through degree ``truncation``."""

    coeffs: tuple[int, ...]

    @property
    def truncation(self) -> int:
        return len(self.coeffs) - 1

    @staticmethod
    def zero(truncation: int) -> "TruncatedSeries":
        return TruncatedSeries((0,) * (truncation + 1))

    @staticmethod
    def one(truncation: int) -> "TruncatedSeries":
        return TruncatedSeries((1,) + (0,) * truncation)

    @staticmethod
    def from_coeffs(cs: Sequence[int], truncation: int) -> "TruncatedSeries":
        out = list(cs[:truncation + 1]) + [0] * max(0, truncation + 1 - len(cs))
        return TruncatedSeries(tuple(out))

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._align(other)
        return TruncatedSeries(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

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

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def __str__(self) -> str:
        terms = []
        for d, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if d == 0:
                terms.append(str(c))
            elif c == 1:
                terms.append(f"t^{d}")
            elif c == -1:
                terms.append(f"-t^{d}")
            else:
                terms.append(f"{c}*t^{d}")
        body = " + ".join(terms).replace("+ -", "- ") if terms else "0"
        return f"{body} (+ O(t^{self.truncation + 1}))"


def _factor_product(model: WeightedModel, trunc: int) -> TruncatedSeries:
    """Product of the projective-space polynomials of the factors."""
    out = TruncatedSeries.one(trunc)
    for size in model.factor_sizes:
        poly = TruncatedSeries.from_coeffs(
            [1 if (d % 2 == 0 and d < 2 * size) else 0 for d in range(trunc + 1)], trunc)
        out = out * poly
    return out


def model_equivariant_series(model: WeightedModel, trunc: int) -> TruncatedSeries:
    """Series of the full model: product of projective-space polynomials
    over the polynomial ring of the torus."""
    if trunc < 0:
        raise ValueError("truncation must be nonnegative")
    out = _factor_product(model, trunc)
    for _ in range(model.rank):
        out = out.divide_one_minus(2)
    return out


def _canonical_key(model: WeightedModel, trunc: int):
    facs = tuple(sorted(tuple(sorted(f)) for f in model.factors))
    return (model.rank, facs, model.form.gram, trunc)


_SS_MEMO: dict = {}


def _weights_span(model: WeightedModel) -> int:
    return span_dimension([w for fac in model.factors for w in fac])


def _descend(model: WeightedModel, trunc: int, drop: int):
    """(codimension, shifted submodel) of every component the recursion
    subtracts through degree ``trunc``.

    ``drop=0`` is the torus: every nonzero beta. ``drop=2`` is the
    reflection quotient: positive betas only, each codimension lowered by 2.
    """
    parent_span = _weights_span(model)
    for stratum in index_set(model):
        beta = stratum.beta
        if (beta[0] <= 0) if drop else all(x == 0 for x in beta):
            continue
        for comp in critical_components(model, beta):
            lam = stratum_codim(model, comp) - drop
            if lam < 0:
                raise VerificationFailed("negative group-level codimension",
                                         witness={"beta": beta, "drop": drop})
            if lam > trunc:
                continue
            sub = shifted_submodel(model, comp)
            if not _weights_span(sub) < parent_span:
                raise VerificationFailed("recursion measure failed to decrease",
                                         witness={"beta": beta})
            yield lam, sub


def semistable_series(model: WeightedModel, trunc: int) -> TruncatedSeries:
    """Equivariant series of the semistable locus, by stratum subtraction."""
    if trunc < 0:
        raise ValueError("truncation must be nonnegative")
    key = _canonical_key(model, trunc)
    hit = _SS_MEMO.get(key)
    if hit is not None:
        return hit
    result = model_equivariant_series(model, trunc)
    for lam, sub in _descend(model, trunc, 0):
        result = result - semistable_series(sub, trunc - lam).shift(lam)
    _SS_MEMO[key] = result
    return result


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


def quotient_top_degree(model: WeightedModel, group: str) -> int:
    """Real dimension of the quotient: the projective dimensions minus the
    group's dimension (the rank for the torus, 3 for SL(2)), doubled."""
    drop = model.rank if group == "torus" else 3
    return 2 * (sum(s - 1 for s in model.factor_sizes) - drop)


def quotient_poincare_polynomial(model: WeightedModel, trunc: int,
                                 group: str = "torus") -> list[int]:
    """Betti numbers of the torus or reflection quotient, when the quotient
    is an orbifold.

    Requires semistable == stable (else NotCoprimeStable) and a truncation
    past the quotient's real dimension so the series can be seen to
    terminate (else TruncationTooSmall). A quotient of negative dimension
    is empty and has the empty polynomial.
    """
    if group not in ("torus", "sl2"):
        raise ValueError("group must be 'torus' or 'sl2'")
    if group == "sl2":
        require_negation_symmetric(model)
    witness = strictly_semistable_witness(model)
    if witness is not None:
        raise NotCoprimeStable(
            "model has a strictly semistable profile",
            witness={"profile": witness})
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


@dataclass(frozen=True)
class PerfectionReport:
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
    is what a wrong codimension or a missed stratum actually breaks.
    """
    failures: list[dict] = []
    visited: set = set()

    def walk(m: WeightedModel, depth_trunc: int) -> TruncatedSeries:
        key = _canonical_key(m, depth_trunc)
        ss = semistable_series(m, depth_trunc)
        if key in visited:
            return ss
        visited.add(key)
        if any(c < 0 for c in ss.coeffs):
            failures.append({"kind": "negative semistable coefficient",
                             "factors": m.factors})
        total = ss
        for lam, sub in _descend(m, depth_trunc, 0):
            total = total + walk(sub, depth_trunc - lam).shift(lam)
        if total != model_equivariant_series(m, depth_trunc):
            failures.append({"kind": "stratification identity", "factors": m.factors})
        return ss

    walk(model, trunc)
    return PerfectionReport(not failures, trunc, len(visited), tuple(failures))
