"""One library session of the lib-sweep workload.

Usage: python3 perfbench/lib_session.py SESSION_JSON

Runs, in this one process, the criterion-02 style report for every model in
the session file (index set, perfection check at truncation 40, proposed
perturbation, perfection check of the perturbed model) and then the
three-route Betti comparison on symmetric P^n and (P^1)^n.  Memo state is
shared between models, as in any long-running library user.  Each job prints
one JSON line ``{"id": ..., "s": seconds, "out": report}`` to stdout; only
``out`` is checked for correctness.
"""

from __future__ import annotations

import json
import sys
import time
from fractions import Fraction

from moment_strata import kirwan, models, perturb, residues, series


def _s(x):
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, (list, tuple)):
        return [_s(v) for v in x]
    if isinstance(x, dict):
        return {str(k): _s(v) for k, v in x.items()}
    return x


def _build(spec: dict):
    factors = [[[Fraction(x) for x in w] for w in fac] for fac in spec["factors"]]
    return models.weighted_model(spec["rank"], factors)


def _perfection(report) -> dict:
    return {"ok": report.ok, "strata_checked": report.strata_checked,
            "failures": [str(f) for f in report.failures]}


def model_reports(specs: list) -> dict:
    return {"reports": [_model_report(spec) for spec in specs]}


def _model_report(spec: dict) -> dict:
    m = _build(spec)
    strata = models.index_set(m)
    perf = series.perfection_check(m, 40)
    eps = perturb.propose_epsilon(m).epsilon
    shifted = series.perfection_check(perturb.perturbed_model(m, eps), 40)
    return {
        "index_set": [{"beta": s.beta,
                       "norm_squared": m.form.norm2(s.beta),
                       "support": s.certificate.support,
                       "coefficients": s.certificate.coefficients,
                       "witness_profile": s.witness_profile} for s in strata],
        "perfection": _perfection(perf),
        "epsilon": eps,
        "perturbed_perfection": _perfection(shifted),
    }


def _trim(values: list) -> list:
    while values and values[-1] == 0:
        values = values[:-1]
    return values


def betti_report(case: dict) -> dict:
    n, group = case["n"], case["group"]
    weyl = models.sl2_weyl() if group == "sl2" else None
    if case["kind"] == "p":
        weights = list(range(n, -n - 1, -2))
        model = models.projective_space_model(weights, weyl)
        pres = kirwan.projective_space_presentation(weights)
    else:
        model = models.line_product_model(n, weyl)
        pres = kirwan.line_product_presentation(n)
    top = residues.quotient_top_degree(model, group)
    if group == "torus":
        route1 = series.quotient_poincare_polynomial(model, 40)
        kernel = kirwan.torus_kernel_ideal(pres, top)
    else:
        route1 = list(series.sl2_quotient_series(model, 40).coeffs)
        kernel = kirwan.sl2_kernel_ideal(pres, top)
    route2 = [kirwan.betti_from_presentation(pres, kernel, d)
              for d in range(0, top + 1, 2)]
    route3 = [residues.kernel_by_pairing(model, pres.variables, d, group).rank
              for d in range(0, case["route3_top"] + 1, 2)]
    return {"route1": _trim(list(route1[0::2])), "route1_odd": _trim(list(route1[1::2])),
            "route2": _trim(route2), "route3": route3}


def main(path: str, on_job=None) -> int:
    with open(path) as fh:
        session = json.load(fh)
    jobs = [(m["id"], model_reports, m["models"]) for m in session["models"]]
    jobs += [(c["id"], betti_report, c) for c in session["betti"]]
    for jid, fn, arg in jobs:
        if on_job is not None:
            on_job(jid)
        t0 = time.perf_counter()
        out = fn(arg)
        dt = time.perf_counter() - t0
        sys.stdout.write(json.dumps({"id": jid, "s": dt, "out": _s(out)},
                                    sort_keys=True) + "\n")
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
