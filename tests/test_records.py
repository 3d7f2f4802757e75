"""Value semantics of the library's records.

Plain records are NamedTuples. Records that print through str(), do
arithmetic, validate their fields or carry a memo are __slots__ classes with
their own __init__, deriving from `linalg.Value`, which compares, hashes and
prints the fields each one names in `_compared`; the memo's per-model record
compares its scan, not the certificates built from it. Either way two records
with equal compared fields are equal, and each hashes as the tuple of its
compared fields, as the frozen dataclasses they replaced did; set iteration
order, and so output bytes, therefore do not depend on the record kind.
"""

import ast
from fractions import Fraction
from pathlib import Path

import pytest

from moment_strata import (GradedPolynomial, betti_from_presentation, classify_p1_config,
                           classify_profile, closest_point_to_origin, config_of,
                           critical_components, fixed_components, index_set,
                           kernel_by_pairing, line_product_model,
                           line_product_presentation, models, perfection_check,
                           proj_point, projective_space_model,
                           projective_space_presentation, propose_epsilon,
                           refinement_report, semistable_series, sl2_weyl,
                           torus_kernel_ideal, torus_strata, two_sided_kernel_report,
                           weighted_model, weyl_kernel_bijection_report)
from moment_strata.geometry import BilinearForm
from moment_strata.linalg import Value

# compared fields of the __slots__ records, in constructor order
SLOTTED = {
    "BilinearForm": ("gram",),
    "WeightedModel": ("rank", "factors", "form", "weyl"),
    "_Record": ("firsts", "witness", "form"),
    "GradedPolynomial": ("variables", "terms"),
    "TruncatedSeries": ("coeffs",),
    "Presentation": ("factors",),
    "KernelIdeal": ("group", "target", "max_degree", "generators", "presentation"),
    "ProjPoint": ("coords",),
    "StratumLabel": ("text", "coarse_text"),
}
# a tuple subclass would print as a JSON array, not through str()
PRINTED = {"GradedPolynomial", "TruncatedSeries", "ProjPoint", "StratumLabel"}
NAMED_TUPLES = {
    "ProjectionCertificate", "WeylGroup", "ProfileClass", "IndexStratum",
    "CriticalComponent", "EpsilonProposal", "RefinementReport", "FixedComponent",
    "PairingKernelResult", "Stratum", "WeylBijectionDegree", "WeylBijectionReport",
    "TwoSidedKernelDegree", "TwoSidedKernelReport", "PerfectionReport",
}


def _samples():
    """One record of each kind, built by the library itself, by id; the memos
    of the memo-carrying ones are filled."""
    a2 = weighted_model(2, [[(1, 0), (0, 1), (-1, -1)]] * 2)
    p3 = projective_space_model([3, 1, -1, -3], sl2_weyl())
    profile = ((0, 1), (2,))
    stratum = index_set(a2)[1]
    eps = propose_epsilon(a2)
    series = semistable_series(a2, 6)
    pres = projective_space_presentation([3, 1, -1, -3])
    kernel = torus_kernel_ideal(pres, 8)
    betti_from_presentation(pres, kernel, 6)
    bijection = weyl_kernel_bijection_report(pres, 4)
    two_sided = two_sided_kernel_report(pres, 4)
    lines = line_product_presentation(3)
    return {
        "WeylGroup": sl2_weyl(),
        "BilinearForm": BilinearForm(((Fraction(2), Fraction(-1)),
                                      (Fraction(-1), Fraction(2)))),
        "WeightedModel": a2,
        "WeightedModel-weyl": p3,
        "_Record": models._record(a2),
        "ProjectionCertificate": closest_point_to_origin(
            models.minkowski_points(a2, profile), a2.form),
        "ProfileClass": classify_profile(a2, profile),
        "IndexStratum": stratum,
        "CriticalComponent": critical_components(a2, stratum.beta)[0],
        "EpsilonProposal": eps,
        "RefinementReport": refinement_report(a2, eps.epsilon),
        "TruncatedSeries": series,
        "PerfectionReport": perfection_check(a2, 6),
        "GradedPolynomial": GradedPolynomial.parse(("z", "a"), "z^2 - 1/4*a^2"),
        "FixedComponent": fixed_components(p3)[0],
        "PairingKernelResult": kernel_by_pairing(line_product_model(3), lines.variables,
                                                 2, "torus"),
        "Presentation": pres,
        "Stratum": torus_strata(pres)[0],
        "KernelIdeal": kernel,
        "WeylBijectionReport": bijection,
        "WeylBijectionDegree": bijection.degrees[0],
        "TwoSidedKernelReport": two_sided,
        "TwoSidedKernelDegree": two_sided.degrees[0],
        "ProjPoint": proj_point([2, 4]),
        "StratumLabel": classify_p1_config(config_of([(0, 1), (0, 1), (1, 1), (1, 0)])),
    }


IDS = sorted(SLOTTED.keys() | NAMED_TUPLES | {"WeightedModel-weyl"})


@pytest.fixture(scope="module")
def samples():
    """The samples, built on an empty model memo; the shared one is restored."""
    saved = models._MEMO
    models._MEMO = {}
    try:
        return _samples()
    finally:
        models._MEMO = saved


def _fields(record):
    name = type(record).__name__
    return SLOTTED[name] if name in SLOTTED else type(record)._fields


def test_every_record_kind_is_sampled(samples):
    assert sorted(samples) == IDS
    kinds = {type(r).__name__ for r in samples.values()}
    assert kinds == set(SLOTTED) | NAMED_TUPLES
    assert len(kinds) == 24


@pytest.mark.parametrize("key", IDS)
def test_equal_fields_make_equal_records_with_the_dataclass_hash(samples, key):
    record = samples[key]
    values = tuple(getattr(record, f) for f in _fields(record))
    twin = type(record)(*values)
    assert twin is not record
    assert twin == record and not twin != record
    assert hash(twin) == hash(record) == hash(values)


@pytest.mark.parametrize("key", IDS)
def test_record_kind(samples, key):
    record = samples[key]
    name = type(record).__name__
    assert isinstance(record, tuple) == (name in NAMED_TUPLES)
    if name in SLOTTED:
        assert not hasattr(record, "__dict__")
        assert record != tuple(getattr(record, f) for f in SLOTTED[name])
    if name in PRINTED:
        assert not isinstance(record, tuple)


def test_memos_are_not_compared(samples):
    pres, kernel, record = samples["Presentation"], samples["KernelIdeal"], samples["_Record"]
    assert pres.memo and kernel._built is not None and record.nodes
    fresh_pres = type(pres)(pres.factors)
    assert fresh_pres.memo == {} and fresh_pres == pres
    fresh_kernel = type(kernel)(kernel.group, kernel.target, kernel.max_degree,
                                kernel.generators, fresh_pres)
    assert fresh_kernel._built is None and fresh_kernel == kernel
    fresh_record = type(record)(record.firsts, record.witness, record.form)
    assert fresh_record.nodes == fresh_record.pairing == {} and fresh_record._strata is None
    assert fresh_record.span is None
    fresh_record.pairing["torus"], fresh_record.span = ([], {}), -1
    assert fresh_record == record and hash(fresh_record) == hash(record)
    assert fresh_record._strata is None


def test_cached_integers_are_not_compared(samples):
    """A model's lattice and a form's cleared Gram matrix are caches: equality
    and hash read the compared fields only."""
    model, form = samples["WeightedModel"], samples["BilinearForm"]
    twin = type(model)(model.rank, model.factors, model.form, model.weyl)
    assert twin.lattice == model.lattice
    twin.lattice = (1, ())
    assert twin == model and hash(twin) == hash(model)
    twin_form = BilinearForm(form.gram)
    twin_form.cleared = None
    assert twin_form == form and hash(twin_form) == hash((form.gram,))


@pytest.mark.parametrize("name", sorted(SLOTTED))
def test_slotted_records_share_one_value_protocol(samples, name):
    """The compared fields are declared once, in `_compared`, and equality
    and hash come from `Value`."""
    cls = type(samples[name])
    assert issubclass(cls, Value) and cls._compared == SLOTTED[name]
    assert cls.__hash__ is Value.__hash__ and cls.__eq__ is Value.__eq__


def test_only_the_value_base_defines_equality():
    defined = {}
    for path in sorted(Path(models.__file__).parent.glob("*.py")):
        for cls in ast.walk(ast.parse(path.read_text())):
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                names = ([node.name] if isinstance(node, ast.FunctionDef)
                         else [t.id for t in getattr(node, "targets", ()) if isinstance(t, ast.Name)])
                for n in set(names) & {"__eq__", "__hash__"}:
                    defined.setdefault(cls.name, set()).add(n)
    assert defined == {"Value": {"__eq__", "__hash__"}}


@pytest.mark.parametrize("key", IDS)
def test_repr_names_the_class_and_its_fields(samples, key):
    record = samples[key]
    text = repr(record)
    assert text.startswith(type(record).__name__ + "(") and "object at" not in text
    assert all(f"{f}=" in text for f in _fields(record))
