"""Command-line surface: exact JSON reports over model and config files.

Every subcommand reads JSON input (a file path, or ``-`` for stdin), computes
in exact rational arithmetic, and prints a single JSON report to stdout.  The
report carries the subcommand name, the normalized arguments, a SHA-256
digest of the raw input bytes, and the structured result.  Identical inputs
produce byte-identical reports.

Exit codes: 0 on success, 2 for input validation problems, 3 when a
mathematical precondition fails; in the latter case the report printed to
stdout holds the error type, message, and machine-readable witness.

Rational values are written as ``p/q`` strings (or plain integer strings)
everywhere, on the way in and on the way out.  Floating-point numbers are
rejected.  The environment variable MOMENT_STRATA_THREADS, when set, must be
a positive integer; all computations here run on a single thread, so any
cap is honored trivially and never affects output bytes.

Each handler imports the library modules it calls, so a cold process
compiles only those; ``tests/test_package.py`` pins the set per subcommand.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import re
import sys
from fractions import Fraction
from typing import TYPE_CHECKING, Sequence

from .errors import MomentStrataError, NotCoprimeStable, TruncationTooSmall

if TYPE_CHECKING:
    from .models import WeightedModel
    from .polynomials import GradedPolynomial

THREADS_VAR = "MOMENT_STRATA_THREADS"


class InputError(ValueError):
    """A problem with the invocation or the input files (exit code 2)."""


# ---------------------------------------------------------------------------
# input parsing


def _read_source(path: str, what: str) -> bytes:
    if path == "-":
        return sys.stdin.buffer.read()
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {what} {path!r}: {exc}") from exc


def _parse_json(data: bytes, what: str):
    try:
        return json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise InputError(f"{what} is not valid JSON: {exc}") from exc


def _rational(value, what: str) -> Fraction:
    """Exact rational from a JSON integer or a '[+-]p[/q]' digit string."""
    if isinstance(value, bool) or isinstance(value, float):
        raise InputError(f"{what} must be an integer or a 'p/q' string, "
                         f"got {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        if re.fullmatch(r"[+-]?[0-9]+(/[0-9]+)?", value):
            try:
                return Fraction(value)
            except (ValueError, ZeroDivisionError):
                pass
        raise InputError(f"{what} is not a rational: {value!r}")
    raise InputError(f"{what} must be an integer or a 'p/q' string, "
                     f"got {type(value).__name__}")


def _load_model(path: str) -> tuple[WeightedModel, bytes]:
    """Model JSON: {"rank": r, "factors": [[[w, ...], ...], ...],
    "form": optional Gram rows, "weyl": optional group name}."""
    from .geometry import BilinearForm
    from .models import WEYL_GROUPS, _check_weyl, weighted_model

    data = _read_source(path, "model file")
    obj = _parse_json(data, "model file")
    if not isinstance(obj, dict):
        raise InputError("model file must be a JSON object")
    unknown = sorted(set(obj) - {"rank", "factors", "form", "weyl"})
    if unknown:
        raise InputError(f"unknown model keys: {unknown}")
    if "rank" not in obj or "factors" not in obj:
        raise InputError("model file needs 'rank' and 'factors'")
    rank = obj["rank"]
    if isinstance(rank, bool) or not isinstance(rank, int) or rank < 1:
        raise InputError("'rank' must be a positive integer")
    raw_factors = obj["factors"]
    if not isinstance(raw_factors, list) or not raw_factors:
        raise InputError("'factors' must be a nonempty array")
    factors = []
    for i, fac in enumerate(raw_factors):
        if not isinstance(fac, list) or not fac:
            raise InputError(f"factor {i} must be a nonempty array of weights")
        rows = []
        for w in fac:
            if not isinstance(w, list) or len(w) != rank:
                raise InputError(f"every weight in factor {i} must be an "
                                 f"array of {rank} rationals")
            rows.append(tuple(_rational(x, f"factor {i} weight entry")
                              for x in w))
        factors.append(tuple(rows))
    form = None
    if obj.get("form") is not None:
        rows = obj["form"]
        if (not isinstance(rows, list)
                or any(not isinstance(r, list) or len(r) != rank for r in rows)
                or len(rows) != rank):
            raise InputError(f"'form' must be a {rank}x{rank} array")
        try:
            form = BilinearForm(tuple(
                tuple(_rational(x, "form entry") for x in r) for r in rows))
        except ValueError as exc:
            raise InputError(f"bad form: {exc}") from exc
    if obj.get("weyl") is not None:
        name = obj["weyl"]
        if not isinstance(name, str) or name not in WEYL_GROUPS:
            raise InputError(f"unknown weyl group {name!r}; "
                             f"choices: {sorted(WEYL_GROUPS)}")
        _check_weyl(WEYL_GROUPS[name](), rank)
    return weighted_model(rank, factors, form), data


def _parse_poly(variables: tuple[str, ...], text: str, what: str) -> GradedPolynomial:
    from .polynomials import GradedPolynomial

    try:
        return GradedPolynomial.parse(variables, text)
    except ValueError as exc:
        raise InputError(f"cannot parse {what}: {exc}") from exc


def _validate_threads() -> None:
    raw = os.environ.get(THREADS_VAR)
    if raw is None or raw == "":
        return
    try:
        n = int(raw)
    except ValueError:
        raise InputError(f"{THREADS_VAR} must be a positive integer, "
                         f"got {raw!r}") from None
    if n < 1:
        raise InputError(f"{THREADS_VAR} must be a positive integer, "
                         f"got {raw!r}")


# ---------------------------------------------------------------------------
# report plumbing


def _jsonify(x):
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, (list, tuple)):
        return [_jsonify(v) for v in x]
    if isinstance(x, dict):
        return {str(k): _jsonify(v) for k, v in x.items()}
    if isinstance(x, (str, int, bool)) or x is None:
        return x
    return str(x)


def _emit(args: argparse.Namespace, inputs: tuple[bytes, ...], result: dict) -> int:
    """Print the report. Its arguments are every parsed argument, so a flag
    cannot be parsed and left out; the digest is over the raw inputs, joined
    by NUL bytes."""
    arguments = {k: v for k, v in vars(args).items() if k not in ("subcommand", "handler")}
    report = {
        "command": args.subcommand,
        "arguments": _jsonify(arguments),
        "input_digest": hashlib.sha256(b"\x00".join(inputs)).hexdigest(),
        "exact_arithmetic": True,
        "result": _jsonify(result),
    }
    sys.stdout.write(json.dumps(report, sort_keys=True, indent=2) + "\n")
    return 0


def _error_payload(exc: MomentStrataError) -> dict:
    return {"type": type(exc).__name__, "message": str(exc),
            "witness": _jsonify(exc.witness)}


# ---------------------------------------------------------------------------
# subcommands


def _cmd_index_set(args) -> int:
    from .models import critical_components, index_set, stratum_codim

    model, raw = _load_model(args.model)
    entries = []
    for stratum in index_set(model):
        comps = [{"values": comp.values, "attaining": comp.attaining,
                  "codimension": stratum_codim(model, comp)}
                 for comp in critical_components(model, stratum.beta)]
        entries.append({
            "beta": list(stratum.beta),
            "norm_squared": model.form.norm2(stratum.beta),
            "certificate": stratum.certificate._asdict(),
            "witness_profile": [list(s) for s in stratum.witness_profile],
            "components": comps,
        })
    result = {"rank": model.rank,
              "factor_sizes": list(model.factor_sizes),
              "stratum_count": len(entries),
              "index_set": entries}
    return _emit(args, (raw,), result)


def _cmd_classify(args) -> int:
    from .models import classify_profile, profile_of_point

    model, raw_model = _load_model(args.model)
    raw_point = _read_source(args.point, "point file")
    obj = _parse_json(raw_point, "point file")
    if (not isinstance(obj, list)
            or any(not isinstance(row, list) for row in obj)):
        raise InputError("point file must be a JSON array of coordinate "
                         "arrays, one per factor")
    point = [[_rational(x, "coordinate") for x in row] for row in obj]
    profile = profile_of_point(model, point)
    cls = classify_profile(model, profile)
    result = {
        "profile": [list(s) for s in profile],
        "hull_points": [list(p) for p in cls.points],
        "beta": list(cls.beta),
        "norm_squared": model.form.norm2(cls.beta),
        "certificate": cls.certificate._asdict(),
        "semistable": cls.semistable,
        "stable": cls.stable,
    }
    return _emit(args, (raw_model, raw_point), result)


def _cmd_series(args) -> int:
    from .series import (perfection_check, quotient_poincare_polynomial,
                         semistable_series, sl2_quotient_series)

    model, raw = _load_model(args.model)
    if args.trunc < 0:
        raise InputError("--trunc must be nonnegative")
    if args.group == "torus":
        series = semistable_series(model, args.trunc)
    else:
        series = sl2_quotient_series(model, args.trunc)
    perf = perfection_check(model, args.trunc)
    try:
        poly = quotient_poincare_polynomial(model, args.trunc, args.group)
        quotient = {"quotient_polynomial": poly, "quotient_obstruction": None}
    except (NotCoprimeStable, TruncationTooSmall) as exc:
        quotient = {"quotient_polynomial": None,
                    "quotient_obstruction": _error_payload(exc)}
    result = {
        "group": args.group,
        "truncation": args.trunc,
        "series": list(series.coeffs),
        "perfection": perf._asdict(),
        **quotient,
    }
    return _emit(args, (raw,), result)


def _cmd_perturb(args) -> int:
    from .models import index_set
    from .perturb import (is_generic, perturbed_model, propose_epsilon,
                          refinement_report)

    model, raw = _load_model(args.model)
    if args.epsilon is not None:
        eps = tuple(_rational(t.strip(), "epsilon entry")
                    for t in args.epsilon.split(","))
        if len(eps) != model.rank:
            raise InputError(f"epsilon needs {model.rank} entries, "
                             f"got {len(eps)}")
        proposal = None
    else:
        prop = propose_epsilon(model)
        eps = prop.epsilon
        proposal = {"denominator": prop.denominator,
                    "norm_bound": prop.norm_bound}
    generic = is_generic(model, eps)
    shifted = perturbed_model(model, eps)
    perturbed_strata = [
        {"beta": list(s.beta),
         "norm_squared": shifted.form.norm2(s.beta),
         "certificate": s.certificate._asdict()}
        for s in index_set(shifted)]
    report = refinement_report(model, eps)
    fibers = [{"beta": parent, "perturbed_betas": bs}
              for parent, bs in report.fibers]
    result = {
        "epsilon": list(eps),
        "proposal": proposal,
        "generic": generic,
        "perturbed_index_set": perturbed_strata,
        "refinement": {"mapping": report.mapping, "fibers": fibers},
    }
    return _emit(args, (raw,), result)


def _cmd_kirwan(args) -> int:
    from .kirwan import (Presentation, betti_from_presentation, sl2_kernel_ideal,
                         torus_kernel_ideal, two_sided_kernel_report,
                         weyl_kernel_bijection_report)
    from .residues import presented_ring

    model, raw = _load_model(args.model)
    if args.max_degree < 0:
        raise InputError("--max-degree must be nonnegative")
    presented_ring(model)   # exit 2 for a shape with no presentation
    pres = Presentation(tuple(tuple(w for (w,) in fac) for fac in model.factors))
    target = {"ss": "semistable", "s": "stable"}[args.target]
    if args.group == "torus":
        if target != "semistable":
            raise InputError("the stable target applies to the reflection "
                             "quotient only; use --group sl2")
        kernel = torus_kernel_ideal(pres, args.max_degree)
    else:
        kernel = sl2_kernel_ideal(pres, args.max_degree, target)
    betti = [{"degree": d, "ambient": len(pres.basis(d)),
              "quotient": betti_from_presentation(pres, kernel, d)}
             for d in range(0, args.max_degree + 1, 2)]
    checks: dict = {}
    if args.group == "sl2":
        rep = weyl_kernel_bijection_report(pres, args.max_degree)
        checks["reflection_bijection"] = {
            "ok": rep.ok,
            "degrees": [{**r._asdict(), "ok": r.ok} for r in rep.degrees],
        }
    else:
        rep = two_sided_kernel_report(pres, args.max_degree)
        checks["two_sided_kernel"] = {
            "ok": rep.ok,
            "degrees": [r._asdict() for r in rep.degrees],
        }
    one = len(pres.factors) == 1
    presentation = {
        "kind": "pn" if one else "p1n",
        "variables": list(pres.variables),
        "n": len(pres.factors[0]) - 1 if one else len(pres.factors),
        "weights": list(pres.factors[0]) if one else [],
        "relations": [str(r) for r in pres.relations],
    }
    generators = [{"label": label,
                   "degree": g.degree(),
                   "polynomial": str(g)}
                  for label, g in kernel.generators]
    result = {
        "group": args.group,
        "target": target,
        "max_degree": args.max_degree,
        "presentation": presentation,
        "generators": generators,
        "betti": betti,
        "checks": checks,
    }
    return _emit(args, (raw,), result)


def _cmd_pairing(args) -> int:
    from .models import quotient_top_degree
    from .residues import PAIRING_SCALE, presented_ring, residue_pairing

    model, raw = _load_model(args.model)
    variables = presented_ring(model)
    eta = _parse_poly(variables, args.eta, "eta")
    zeta = _parse_poly(variables, args.zeta, "zeta")
    normalized = residue_pairing(model, eta, zeta, args.group)
    raw_sum = normalized / PAIRING_SCALE[args.group]
    result = {
        "group": args.group,
        "eta": str(eta),
        "zeta": str(zeta),
        "degree_sum": eta.degree() + zeta.degree(),
        "quotient_top_degree": quotient_top_degree(model, args.group),
        "raw_residue_sum": raw_sum,
        "pairing": normalized,
    }
    return _emit(args, (raw, args.eta.encode(), args.zeta.encode()), result)


# family -> (projective dimension, name of the classifier in `configs`)
_FAMILY_CLASSIFIERS = {
    "p1": (1, "classify_p1_config"),
    "binary": (1, "classify_binary_form"),
    "p2": (2, "classify_p2_config"),
}


def _cmd_config(args) -> int:
    from . import configs

    raw = _read_source(args.config, "config file")
    obj = _parse_json(raw, "config file")
    if (not isinstance(obj, list) or not obj
            or any(not isinstance(row, list) for row in obj)):
        raise InputError("config file must be a nonempty JSON array of "
                         "homogeneous coordinate arrays")
    dim, classifier = _FAMILY_CLASSIFIERS[args.family]
    points = []
    for i, row in enumerate(obj):
        if len(row) != dim + 1:
            raise InputError(f"point {i}: family {args.family!r} needs "
                             f"{dim + 1} homogeneous coordinates")
        try:
            points.append(configs.proj_point(
                [_rational(x, f"point {i} coordinate") for x in row]))
        except ValueError as exc:
            raise InputError(f"point {i}: {exc}") from exc
    label = getattr(configs, classifier)(configs.config_of(points))
    result = {
        "family": args.family,
        "points": [str(p) for p in points],
        "label": label.text,
        "coarse_label": label.coarse_text,
        "refined": label.is_refined,
    }
    return _emit(args, (raw,), result)


# ---------------------------------------------------------------------------
# parser and dispatch


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="moment-strata",
        description="Exact stratification, series, and cohomology reports "
                    "for weighted models; all I/O is JSON over files or "
                    "stdio ('-' reads stdin).")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("index-set",
                       help="critical betas with certificates and "
                            "component codimensions")
    p.add_argument("model", help="model JSON file, or -")
    p.set_defaults(handler=_cmd_index_set)

    p = sub.add_parser("classify",
                       help="stratum, beta, and stability flags of a point")
    p.add_argument("model", help="model JSON file, or -")
    p.add_argument("point", help="point JSON file (coordinates per factor)")
    p.set_defaults(handler=_cmd_classify)

    p = sub.add_parser("series",
                       help="semistable series, perfection check, and "
                            "quotient polynomial when applicable")
    p.add_argument("model", help="model JSON file, or -")
    p.add_argument("--trunc", type=int, default=40,
                   help="truncation degree (default 40)")
    p.add_argument("--group", choices=("torus", "sl2"), default="torus")
    p.set_defaults(handler=_cmd_series)

    p = sub.add_parser("perturb",
                       help="certified perturbation, perturbed index set, "
                            "and refinement map")
    p.add_argument("model", help="model JSON file, or -")
    p.add_argument("--epsilon",
                   help="comma-separated rationals, e.g. '1/97,1/9409'; "
                        "omitted: first certified proposal")
    p.set_defaults(handler=_cmd_perturb)

    p = sub.add_parser("kirwan",
                       help="cohomology presentation, kernel generators, "
                            "Betti table, and structure checks")
    p.add_argument("model", help="model JSON file, or -")
    p.add_argument("--group", choices=("torus", "sl2"), default="torus")
    p.add_argument("--max-degree", type=int, default=12,
                   help="largest cohomological degree (default 12)")
    p.add_argument("--target", choices=("ss", "s"), default="ss",
                   help="semistable or stable locus (default ss)")
    p.set_defaults(handler=_cmd_kirwan)

    p = sub.add_parser("pairing",
                       help="raw and normalized intersection pairing of "
                            "two classes")
    p.add_argument("model", help="model JSON file, or -")
    p.add_argument("eta", help="polynomial, e.g. 'z^2 - a^2'")
    p.add_argument("zeta", help="polynomial")
    p.add_argument("--group", choices=("torus", "sl2"), default="torus")
    p.set_defaults(handler=_cmd_pairing)

    p = sub.add_parser("config",
                       help="refined and coarse stratum labels of a point "
                            "configuration")
    p.add_argument("config", help="config JSON file (array of coordinate "
                                  "arrays), or -")
    p.add_argument("--family", choices=("p1", "binary", "p2"), required=True)
    p.set_defaults(handler=_cmd_config)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        _validate_threads()
        return args.handler(args)
    except MomentStrataError as exc:
        payload = {"error": _error_payload(exc)}
        sys.stdout.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run(argv: Sequence[str] | None = None) -> int:
    """Process entry point: `main`, then `gc.freeze()` once the report is
    written. Interpreter shutdown would otherwise run one full collection
    over every object the run left alive; a frozen heap is out of every
    later collection, that one included. `main` stays free of `gc` state
    for tests and library callers."""
    code = main(argv)
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(run())
