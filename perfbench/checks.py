"""Correctness gate: reference fields for fixed jobs, exact invariants for all.

Reference fields are the parts of a report that the mathematics determines
(betas, norms, codimensions, series, perfection flags, quotient polynomials,
Betti tables, check flags, pairing values, labels).  Certificates and witness
profiles are left out of them on purpose: a different but valid witness is
allowed, and is checked by the invariants instead.  Invariants are recomputed
here in exact Fractions from the input files, without the library.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import product


def _f(x) -> Fraction:
    return Fraction(x)


def _vec(xs) -> tuple:
    return tuple(Fraction(x) for x in xs)


def _dot(u, v) -> Fraction:
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


def minkowski_points(model: dict, profile) -> list:
    """Sorted distinct sums of one chosen weight per factor (identity form)."""
    acc = {tuple(Fraction(0) for _ in range(model["rank"]))}
    for supp, fac in zip(profile, model["factors"]):
        step = {_vec(fac[k]) for k in supp}
        acc = {tuple(a + b for a, b in zip(s, w)) for s in acc for w in step}
    return sorted(acc)


def certificate_errors(points, beta, support, coefficients) -> list:
    """The certificate must express beta as a convex combination of points on
    which <p, beta> = |beta|^2, with <p, beta> >= |beta|^2 for every point."""
    errs = []
    beta = _vec(beta)
    coeffs = [_f(c) for c in coefficients]
    if not support or len(support) != len(coeffs) or max(support) >= len(points):
        return ["certificate support/coefficient mismatch"]
    if any(c < 0 for c in coeffs) or sum(coeffs) != 1:
        errs.append("certificate coefficients are not a convex combination")
    combo = tuple(sum((c * points[i][k] for i, c in zip(support, coeffs)),
                      Fraction(0)) for k in range(len(beta)))
    if combo != beta:
        errs.append("certificate does not combine to beta")
    nb = _dot(beta, beta)
    for i, p in enumerate(points):
        v = _dot(p, beta)
        if v < nb or (i in support and v != nb):
            errs.append("certificate inequality fails")
            break
    return errs


def _palindromic_errors(poly) -> list:
    if poly[0] != 1 or poly != poly[::-1] or any(c < 0 for c in poly):
        return ["quotient polynomial is not palindromic with leading 1"]
    return []


# ---------------------------------------------------------------------------
# CLI reports


def cli_fields(report: dict) -> dict:
    """The reference fields of a CLI report (or of an error payload)."""
    if "error" in report:
        return {"error": report["error"]["type"]}
    cmd, r = report["command"], report["result"]
    if cmd == "index-set":
        return {"strata": [[e["beta"], e["norm_squared"],
                            [[c["values"], c["attaining"], c["codimension"]]
                             for c in e["components"]]]
                           for e in r["index_set"]],
                "stratum_count": r["stratum_count"]}
    if cmd == "classify":
        return {k: r[k] for k in ("beta", "norm_squared", "semistable",
                                  "stable", "profile", "hull_points")}
    if cmd == "series":
        obstruction = r["quotient_obstruction"]
        return {"series": r["series"], "perfection": r["perfection"],
                "quotient_polynomial": r["quotient_polynomial"],
                "obstruction": obstruction and obstruction["type"]}
    if cmd == "perturb":
        return {"epsilon": r["epsilon"], "proposal": r["proposal"],
                "generic": r["generic"],
                "perturbed": [[s["beta"], s["norm_squared"]]
                              for s in r["perturbed_index_set"]],
                "refinement": r["refinement"]}
    if cmd == "kirwan":
        return {"betti": r["betti"], "checks": r["checks"],
                "relations": r["presentation"]["relations"]}
    if cmd == "pairing":
        return {k: r[k] for k in ("pairing", "raw_residue_sum", "degree_sum",
                                  "quotient_top_degree")}
    if cmd == "config":
        return {k: r[k] for k in ("label", "coarse_label", "refined")}
    raise ValueError(f"unknown command {cmd!r}")


def _corner_errors(model: dict, betas) -> list:
    """A profile choosing one weight per factor has a one-point hull, so every
    such sum of weights is a beta of the index set."""
    corners = {tuple(sum(c, Fraction(0)) for c in zip(*choice))
               for choice in product(*[[_vec(w) for w in fac]
                                       for fac in model["factors"]])}
    return [] if corners <= set(betas) else ["a one-point profile beta is missing"]


def _index_set_errors(model: dict, r: dict) -> list:
    errs = []
    if r["stratum_count"] != len(r["index_set"]):
        errs.append("stratum_count does not match the index set")
    betas = [_vec(e["beta"]) for e in r["index_set"]]
    if betas != sorted(set(betas)):
        errs.append("betas are not distinct and sorted")
    for e, beta in zip(r["index_set"], betas):
        cert = e["certificate"]
        if _vec(cert["beta"]) != beta or _f(e["norm_squared"]) != _dot(beta, beta):
            errs.append("beta/norm mismatch")
        points = minkowski_points(model, e["witness_profile"])
        errs += certificate_errors(points, beta, cert["support"],
                                   cert["coefficients"])
        nb = _dot(beta, beta)
        for comp in e["components"]:
            values = [_f(v) for v in comp["values"]]
            if sum(values) != nb:
                errs.append("component values do not sum to |beta|^2")
            for fac, v, att in zip(model["factors"], values, comp["attaining"]):
                want = [k for k, w in enumerate(fac) if _dot(_vec(w), beta) == v]
                if att != want:
                    errs.append("attaining set is wrong")
    return errs


def _classify_errors(model: dict, point: list, r: dict) -> list:
    errs = []
    profile = [[k for k, x in enumerate(row) if _f(x) != 0] for row in point]
    if r["profile"] != profile:
        errs.append("profile is not the support of the point")
    points = minkowski_points(model, profile)
    if [_vec(p) for p in r["hull_points"]] != points:
        errs.append("hull points are not the Minkowski sums of the profile")
    beta = _vec(r["beta"])
    cert = r["certificate"]
    errs += certificate_errors(points, beta, cert["support"], cert["coefficients"])
    if r["semistable"] != all(x == 0 for x in beta):
        errs.append("semistable flag disagrees with beta")
    if r["stable"] and not r["semistable"]:
        errs.append("stable but not semistable")
    return errs


def _perturb_errors(r: dict) -> list:
    errs = []
    if not r["generic"]:
        errs.append("proposed perturbation is not generic")
    betas = []
    for s in r["perturbed_index_set"]:
        beta = _vec(s["beta"])
        cert = s["certificate"]
        coeffs = [_f(c) for c in cert["coefficients"]]
        if (_vec(cert["beta"]) != beta or _f(s["norm_squared"]) != _dot(beta, beta)
                or any(c < 0 for c in coeffs) or sum(coeffs) != 1):
            errs.append("perturbed certificate is inconsistent")
        betas.append(beta)
    fibres = [_vec(b) for f in r["refinement"]["fibers"]
              for b in f["perturbed_betas"]]
    if sorted(fibres) != sorted(betas) or len(set(fibres)) != len(fibres):
        errs.append("refinement fibres do not partition the perturbed index set")
    owner = {_vec(b): _vec(f["beta"]) for f in r["refinement"]["fibers"]
             for b in f["perturbed_betas"]}
    for pb, ob in r["refinement"]["mapping"]:
        if owner.get(_vec(pb)) != _vec(ob):
            errs.append("refinement mapping disagrees with the fibres")
            break
    return errs


def cli_invariant_errors(job: dict, files: dict, report: dict) -> list:
    """Invariants of one successful CLI report, from its input files."""
    cmd, r = report["command"], report["result"]
    argv = job["argv"]
    if cmd == "index-set":
        return _index_set_errors(files[argv[1]], r)
    if cmd == "classify":
        return _classify_errors(files[argv[1]], files[argv[2]], r)
    if cmd == "series":
        errs = [] if r["perfection"]["ok"] else ["perfection check failed"]
        # an empty semistable locus has series 0 and a zero quotient polynomial;
        # otherwise the series starts with 1 and the quotient satisfies duality
        empty = not any(r["series"])
        if not empty and r["series"][0] != 1:
            errs.append("series of a nonempty locus does not start with 1")
        if r["quotient_polynomial"] is not None:
            if empty != (not any(r["quotient_polynomial"])):
                errs.append("quotient polynomial disagrees with the series")
            elif not empty:
                errs += _palindromic_errors(r["quotient_polynomial"])
        elif r["quotient_obstruction"] is None:
            errs.append("neither quotient polynomial nor obstruction")
        return errs
    if cmd == "perturb":
        return _perturb_errors(r)
    if cmd == "kirwan":
        errs = [] if all(c["ok"] for c in r["checks"].values()) else \
            ["kirwan structure check failed"]
        if any(not 0 <= b["quotient"] <= b["ambient"] for b in r["betti"]):
            errs.append("quotient Betti number out of range")
        return errs
    if cmd == "pairing":
        errs = []
        pairing, raw = _f(r["pairing"]), _f(r["raw_residue_sum"])
        if r["degree_sum"] != r["quotient_top_degree"] and pairing != 0:
            errs.append("nonzero pairing off the top degree")
        if r["group"] == "torus" and pairing != -2 * raw:
            errs.append("torus pairing is not -2 times the residue sum")
        return errs
    if cmd == "config":
        want = (job.get("expect") or {}).get("label")
        if want is not None and r["label"] != want:
            return [f"label {r['label']!r} != {want!r}"]
        return []
    return [f"unknown command {cmd!r}"]


def check_cli(job: dict, files: dict, exit_code, stdout: bytes,
              stderr: bytes) -> tuple[list, dict | None]:
    """Errors of one CLI execution, and its reference fields when parsable."""
    if exit_code is None:
        return ["timed out"], None
    if b"Traceback (most recent call last)" in stderr:
        return ["traceback on stderr"], None
    probe = job.get("probe")
    want_exit = probe["exit"] if probe else 0
    if exit_code != want_exit:
        return [f"exit code {exit_code}, expected {want_exit}"], None
    if exit_code == 2:
        return ([] if stderr.startswith(b"error: ") else ["no error message"]), \
            {"exit": 2}
    try:
        report = json.loads(stdout)
    except ValueError:
        return ["stdout is not one JSON report"], None
    fields = cli_fields(report)
    if probe:
        if "error" in probe and fields.get("error") != probe["error"]:
            return [f"error type {fields.get('error')!r}"], fields
        if "obstruction" in probe and fields.get("obstruction") != probe["obstruction"]:
            return [f"obstruction {fields.get('obstruction')!r}"], fields
    if "error" in report:
        return ([] if probe else [f"error report {fields['error']}"]), fields
    return cli_invariant_errors(job, files, report), fields


# ---------------------------------------------------------------------------
# lib-sweep reports


def lib_fields(out: dict) -> dict:
    if "route2" in out:
        return out
    return {"reports": [{"strata": [[e["beta"], e["norm_squared"]]
                                    for e in r["index_set"]],
                         "perfection": r["perfection"], "epsilon": r["epsilon"],
                         "perturbed_perfection": r["perturbed_perfection"]}
                        for r in out["reports"]]}


def lib_invariant_errors(job_models: list | None, out: dict) -> list:
    """Invariants of one lib-sweep job; ``job_models`` are its model specs
    (None for a Betti case)."""
    if "route2" in out:
        r1, r2, r3 = out["route1"], out["route2"], out["route3"]
        errs = [] if r1 == r2 and r3 == r1[:len(r3)] else \
            ["the three Betti routes disagree"]
        if out["route1_odd"]:
            errs.append("odd Betti numbers in the quotient series")
        if not r1 or r1 != r1[::-1] or r1[0] != 1:
            errs.append("quotient Betti numbers are not palindromic")
        return errs
    errs = []
    if len(out["reports"]) != len(job_models):
        return ["one report per model expected"]
    for model, r in zip(job_models, out["reports"]):
        if not r["perfection"]["ok"] or not r["perturbed_perfection"]["ok"]:
            errs.append("perfection check failed")
        if not any(_f(x) for x in r["epsilon"]):
            errs.append("zero perturbation proposed")
        betas = []
        for e in r["index_set"]:
            beta = _vec(e["beta"])
            betas.append(beta)
            points = minkowski_points(model, e["witness_profile"])
            if _f(e["norm_squared"]) != _dot(beta, beta):
                errs.append("beta/norm mismatch")
            errs += certificate_errors(points, beta, e["support"], e["coefficients"])
        errs += _corner_errors(model, betas)
    return errs
