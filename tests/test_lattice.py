"""The integer-lattice stratification core against its Fraction oracle.

The profile scan, the nearest-point search and the critical components run
on weights and forms cleared of denominators. Each must agree with the
Fraction algorithms of ``fraction_oracle`` on random models with mixed
denominators, zero and repeated weights and random rational forms, and the
integer certificate check must accept exactly what
``ProjectionCertificate.verify`` accepts.
"""

import itertools
import os
import subprocess
import sys
import textwrap
from fractions import Fraction
from math import lcm
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fraction_oracle as oracle
from moment_strata import (BilinearForm, VerificationFailed,
                           closest_point_to_origin, critical_components,
                           identity_form, index_set, origin_in_interior,
                           strictly_semistable_witness, weighted_model)
import moment_strata
from moment_strata import geometry, series
from moment_strata.geometry import (LatticeCertificate, ProjectionCertificate,
                                    _canonical_certificate, _combine,
                                    _verify_lattice, clear_denominators,
                                    lattice_nearest_point, nearest_point)
from moment_strata.models import profile_beta

from conftest import pn_model

rationals = st.builds(Fraction, st.integers(-4, 4), st.sampled_from((1, 2, 3, 6)))
positive = st.builds(Fraction, st.integers(1, 3), st.sampled_from((1, 2, 3)))


@st.composite
def forms(draw, rank):
    """The identity, or L L^T for a random rational lower-triangular L with
    a positive diagonal."""
    if draw(st.booleans()):
        return identity_form(rank)
    low = [[draw(rationals) if j < i else draw(positive) if j == i else Fraction(0)
            for j in range(rank)] for i in range(rank)]
    return BilinearForm(tuple(tuple(sum(low[i][k] * low[j][k] for k in range(rank))
                                    for j in range(rank)) for i in range(rank)))


@st.composite
def models(draw):
    """Ranks 1-3; weights with denominators 1, 2, 3 and 6, zero weights,
    repeated weights inside a factor and repeated factors."""
    rank = draw(st.sampled_from((1, 2, 3)))
    vec = st.one_of(st.tuples(*[rationals] * rank),
                    st.just((Fraction(0),) * rank))
    factors = [draw(st.lists(vec, min_size=1, max_size=3))
               for _ in range(draw(st.integers(1, 2)))]
    if draw(st.booleans()):
        factors[0] = factors[0] + [factors[0][0]]
    if draw(st.booleans()):
        factors.append(factors[-1])
    return weighted_model(rank, factors, draw(forms(rank)))


@st.composite
def point_sets(draw):
    rank = draw(st.sampled_from((1, 2, 3)))
    pts = draw(st.lists(st.tuples(*[rationals] * rank), min_size=1, max_size=6))
    return pts + draw(st.lists(st.sampled_from(pts), max_size=2)), draw(forms(rank))


@settings(max_examples=70, deadline=None)
@given(models())
def test_lattice_scan_matches_the_fraction_scan(model):
    strata, witness, betas = oracle.scan(model)
    assert index_set(model) == strata
    assert strictly_semistable_witness(model) == witness
    supports = [[s for r in range(1, len(fac) + 1)
                 for s in itertools.combinations(range(len(fac)), r)]
                for fac in model.factors]
    for profile in itertools.product(*supports):
        assert (profile_beta(model, profile)
                == betas[oracle.minkowski_points(model, profile)])
    probe = tuple(Fraction(k + 1, 3) for k in range(model.rank))
    for beta in [s.beta for s in strata] + [probe]:
        assert critical_components(model, beta) == oracle.critical_components(model, beta)


@settings(max_examples=150, deadline=None)
@given(point_sets())
def test_lattice_search_retraces_the_fraction_search(case):
    """Same active sets, same weights: the integer search is the Fraction
    search on scaled data, not only a search with the same answer."""
    pts, form = case
    cert = nearest_point(pts, form)
    assert cert == oracle.nearest_point(pts, form)
    assert (closest_point_to_origin(pts, form)
            == oracle.canonical_certificate(pts, form, cert.beta))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4).flatmap(lambda r: st.tuples(
    st.just(r), st.lists(st.tuples(*[st.integers(-2, 2)] * r), min_size=1, max_size=7))))
def test_interior_test_matches_the_cone_lp(case):
    """The facet test of origin_in_interior against exact cone LPs, on
    integer points (as the scan passes them) and on their rational halves."""
    rank, pts = case
    expected = oracle.origin_in_interior(pts, rank)
    assert origin_in_interior(pts, rank) == expected
    halves = [tuple(Fraction(x, 2) for x in p) for p in pts]
    assert origin_in_interior(halves, rank) == expected


def _image(cert, d):
    """The ProjectionCertificate that a lattice certificate stands for."""
    e = sum(cert.coefficients)
    return ProjectionCertificate(tuple(Fraction(x, d * e) for x in cert.beta),
                                 cert.support,
                                 tuple(Fraction(l, e) for l in cert.coefficients))


def _mutations(cert, lattice):
    """The certificate; each coefficient moved by one; each support point
    dropped, keeping beta and recombining it; beta moved along each axis."""
    x, support, lam = cert
    yield cert
    for k in range(len(support)):
        for delta in (-1, 1):
            yield LatticeCertificate(x, support, lam[:k] + (lam[k] + delta,) + lam[k + 1:])
        sub, weights = support[:k] + support[k + 1:], lam[:k] + lam[k + 1:]
        yield LatticeCertificate(x, sub, weights)
        yield LatticeCertificate(_combine(lattice, sub, weights), sub, weights)
    for i in range(len(x)):
        yield LatticeCertificate(tuple(v + (j == i) for j, v in enumerate(x)),
                                 support, lam)


@settings(max_examples=150, deadline=None)
@given(point_sets())
def test_integer_verifier_agrees_with_the_fraction_verifier(case):
    """On the search certificate and the lifted canonical certificate, and on
    every mutation of them, the integer check and ProjectionCertificate.verify
    give the same verdict."""
    pts, form = case
    d, lattice = clear_denominators(pts)
    gram = clear_denominators(form.gram)[1]
    canonical = closest_point_to_origin(pts, form)
    m = lcm(*(c.denominator for c in canonical.coefficients))
    lifted = LatticeCertificate(tuple(int(x * d * m) for x in canonical.beta),
                                canonical.support,
                                tuple(int(c * m) for c in canonical.coefficients))
    for start in (lattice_nearest_point(lattice, gram), lifted):
        assert _verify_lattice(lattice, gram, start)
        for cert in _mutations(start, lattice):
            got = _verify_lattice(lattice, gram, cert)
            if sum(cert.coefficients) <= 0:
                assert not got
            else:
                assert got == _image(cert, d).verify(pts, form), cert


# ---------------------------------------------------------------------------
# typed verification failures


def test_search_failure_is_typed(monkeypatch):
    monkeypatch.setattr(geometry, "_verify_lattice", lambda *args: False)
    pts = [(Fraction(1, 2), Fraction(0)), (Fraction(0), Fraction(1, 3))]
    with pytest.raises(VerificationFailed) as info:
        nearest_point(pts, identity_form(2))
    assert isinstance(info.value, ArithmeticError)
    assert set(info.value.witness) == {"beta", "support", "coefficients"}


def test_canonical_certificate_failures_are_typed(monkeypatch):
    pts = [(Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))]
    form = identity_form(2)
    with pytest.raises(VerificationFailed, match="no canonical certificate"):
        _canonical_certificate(pts, form, (Fraction(1), Fraction(1)))
    monkeypatch.setattr(ProjectionCertificate, "verify", lambda *args: False)
    with pytest.raises(VerificationFailed, match="self-verification") as info:
        _canonical_certificate(pts, form, (Fraction(1, 2), Fraction(1, 2)))
    assert info.value.witness["support"] == (0, 1)


def test_recursion_checks_are_typed(monkeypatch):
    model = pn_model(3)
    assert list(series._descend(model, 8, 0))
    with monkeypatch.context() as patch:
        patch.setattr(series, "stratum_codim", lambda m, c: -1)
        with pytest.raises(VerificationFailed, match="codimension"):
            list(series._descend(model, 8, 0))
    monkeypatch.setattr(series, "_weights_span", lambda m: 1)
    with pytest.raises(VerificationFailed, match="measure"):
        list(series._descend(model, 8, 0))


STUCK_SEARCH = textwrap.dedent("""
    import sys
    from moment_strata import VerificationFailed, geometry
    # a projection that never moves off the first active point
    geometry._project_affine = lambda pts, gram: ([1] + [0] * (len(pts) - 1), 1)
    try:
        geometry.lattice_nearest_point([(2, 0), (0, 1)], [[1, 0], [0, 1]])
    except VerificationFailed as exc:
        print(exc.witness)
        sys.exit(0)
    sys.exit(1)
""")


def test_search_without_progress_fails_instead_of_hanging():
    # run apart, so that a search that loops forever fails at the timeout
    # instead of hanging the suite
    env = dict(os.environ)
    src = str(Path(moment_strata.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", STUCK_SEARCH], env=env,
                          capture_output=True, text=True, timeout=30)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "{'active': [1]}"
