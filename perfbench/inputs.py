"""Seeded inputs and job lists for the three workloads.

Everything here is generated bench-side, without importing the library, so
that the program under test receives only finished input files.  A job is a
plain dict:

``id``       stable name, also the key into ``reference.json``
``argv``     CLI arguments after ``python -m moment_strata`` (files are
             named relative to the run's input directory, so reports do not
             depend on where the benchmark writes)
``fixed``    True when the input does not depend on the seed; only fixed
             jobs are compared with stored reference fields
``probe``    expected outcome of an error-path probe, or None; probes count
             towards attempted/failed but are kept out of latency metrics
``same_as``  (job id, keys): fields that must equal another job's report
``expect``   fields whose values are known bench-side

The lib-sweep workload has one "job" per fixed model, per batch of two random
systems, and per Betti case; its jobs run in one ``lib_session.py`` process.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction
from pathlib import Path

WORKLOADS = ("cli-strata", "cli-cohomology", "lib-sweep")

# Shapes (rank, factors, points per factor) of the seeded random weight
# systems.  The generator is the one of acceptance criterion 02, but the shape
# mix is fixed and the costliest shapes are left out: with three factors of
# three or four points the cost of one system varies by 2x between seeds,
# which would make the run-to-run spread a property of the seed.
CLI_RANDOM_SHAPES = ((1, 2, 3), (2, 2, 2), (2, 1, 4), (1, 3, 2))
LIB_RANDOM_SHAPES = ((1, 2, 2), (1, 2, 3), (1, 2, 4), (2, 1, 3),
                     (2, 1, 4), (2, 2, 2), (2, 2, 3), (1, 3, 2))


def _q(x) -> str | int:
    x = Fraction(x)
    return x.numerator if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def pn_model(n: int, sl2: bool = False) -> dict:
    """P^n with weights n, n-2, ..., -n."""
    model = {"rank": 1, "factors": [[[w] for w in range(n, -n - 1, -2)]]}
    if sl2:
        model["weyl"] = "sl2"
    return model


def ln_model(n: int, sl2: bool = False) -> dict:
    """(P^1)^n with weights +1/-1 on every line."""
    model = {"rank": 1, "factors": [[[1], [-1]] for _ in range(n)]}
    if sl2:
        model["weyl"] = "sl2"
    return model


A2_TRIPLE = [[1, 0], [0, 1], [-1, -1]]
R3_FACTOR = [[1, 0, 0], [0, 1, 0], [0, 0, 1], [-1, -1, -1]]


def random_weight_system(rng: random.Random, rank: int, nfac: int,
                         npts: int) -> dict:
    """Criterion-02 generator with a given shape; redrawn until some choice
    of one weight per factor has a nonzero sum, which makes the index set
    nontrivial (that choice's singleton hull misses the origin)."""
    while True:
        factors = []
        for _ in range(nfac):
            seen: set = set()
            while len(seen) < npts:
                seen.add(tuple(rng.randint(-3, 3) for _ in range(rank)))
            factors.append([list(w) for w in sorted(seen)])
        sums = {tuple([0] * rank)}
        for fac in factors:
            sums = {tuple(a + b for a, b in zip(s, w)) for s in sums for w in fac}
        if any(any(s) for s in sums):
            return {"rank": rank, "factors": factors}


def random_point(rng: random.Random, model: dict) -> list:
    """Integer coordinates per factor, about a third of them zero."""
    point = []
    for fac in model["factors"]:
        while True:
            row = [0 if rng.random() < 0.35 else rng.randint(-3, 3)
                   for _ in fac]
            if any(row):
                break
        point.append(row)
    return point


def random_special_linear(rng: random.Random, dim: int, steps: int = 6):
    """Determinant-one rational matrix as a product of row shears."""
    m = [[Fraction(int(i == j)) for j in range(dim)] for i in range(dim)]
    for _ in range(steps):
        i, j = rng.sample(range(dim), 2)
        c = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        m[i] = [a + c * b for a, b in zip(m[i], m[j])]
    return m


def transform(m, points):
    return [[_q(sum(Fraction(row[j]) * Fraction(p[j]) for j in range(len(p))))
             for row in m] for p in points]


# worked configurations (acceptance criterion 09) with their labels; the
# binary-form label is taken from reference.json
P1_CASE = ("p1-t2", [[0, 1], [0, 1], [1, 1], [1, 0]], "(T,2)")
P2_CASE = ("p2-t1", [[1, 0, 0], [1, 0, 0]] + [[0, 1, k] for k in range(4)], "(T1)")
BINARY_CASE = ("bin-b", [[0, 1], [0, 1], [0, 1], [1, 1], [2, 1], [1, 0]], None)


def _job(jid, argv, fixed=True, probe=None, same_as=None, expect=None):
    return {"id": jid, "argv": argv, "fixed": fixed, "probe": probe,
            "same_as": same_as, "expect": expect}


def _cli_strata(rng: random.Random, files: dict) -> list:
    jobs = []
    for n in (6, 8, 10):
        files[f"p{n}.json"] = pn_model(n)
    for n in (4, 6, 8):
        files[f"l{n}.json"] = ln_model(n)
    files["p8s.json"] = pn_model(8, sl2=True)
    files["l8s.json"] = ln_model(8, sl2=True)
    files["a2x2.json"] = {"rank": 2, "factors": [A2_TRIPLE] * 2}
    files["a2x3.json"] = {"rank": 2, "factors": [A2_TRIPLE] * 3}
    files["r3.json"] = {"rank": 3, "factors": [R3_FACTOR] * 2}
    rand = []
    for k, shape in enumerate(CLI_RANDOM_SHAPES):
        rand.append(f"rand{k}")
        files[f"rand{k}.json"] = random_weight_system(rng, *shape)

    def add(command, names, *extra, fixed=True):
        for name in names:
            tag = f"-{extra[-1]}" if extra else ""
            jobs.append(_job(f"{command}{tag}:{name}",
                             [command, f"{name}.json", *extra], fixed))

    add("index-set", ("p8", "l8", "a2x3", "r3"))
    add("index-set", rand[:2], fixed=False)
    add("series", ("p8", "p10", "l8", "a2x2"))
    add("series", ("p8s", "l8s"), "--group", "sl2")
    add("series", rand[2:3], fixed=False)
    add("perturb", ("p6", "l6", "a2x2"))
    add("perturb", rand[3:], fixed=False)

    for base in ("p8", "a2x3", "r3"):
        files[f"point-{base}.json"] = random_point(rng, files[f"{base}.json"])
        jobs.append(_job(f"classify:{base}",
                         ["classify", f"{base}.json", f"point-{base}.json"], False))

    for family, (case, points, label), dim in (
            ("p1", P1_CASE, 2), ("p2", P2_CASE, 3), ("binary", BINARY_CASE, 2)):
        files[f"{case}.json"] = points
        jobs.append(_job(f"config:{case}",
                         ["config", f"{case}.json", "--family", family],
                         expect=label and {"label": label}))
        moved = f"{case}-sl.json"
        files[moved] = transform(random_special_linear(rng, dim), points)
        jobs.append(_job(f"config:{case}-sl",
                         ["config", moved, "--family", family], False,
                         same_as=(f"config:{case}",
                                  ("label", "coarse_label", "refined"))))

    files["float.json"] = {"rank": 1, "factors": [[[1.5], [-1]]]}
    files["asym.json"] = {"rank": 1, "factors": [[[2], [0], [-1]]],
                          "weyl": "sl2"}
    jobs.append(_job("probe:float-weight", ["index-set", "float.json"],
                     probe={"exit": 2}))
    jobs.append(_job("probe:sl2-asymmetric",
                     ["series", "asym.json", "--group", "sl2"],
                     probe={"exit": 3, "error": "WeylSymmetryRequired"}))
    jobs.append(_job("probe:l4-obstruction", ["series", "l4.json"],
                     probe={"exit": 0, "obstruction": "NotCoprimeStable"}))
    return jobs


# monomial pairs for the pairing jobs: (model file, group, variables, top)
PAIRING_MODELS = (
    ("p5.json", "torus", ("z", "a"), 8),
    ("l5.json", "torus", ("z1", "z2", "z3", "z4", "z5", "a"), 8),
    ("l5s.json", "sl2", ("z1", "z2", "z3", "z4", "z5", "a"), 4),
)

def _monomial(exps, variables) -> str:
    parts = [v if e == 1 else f"{v}^{e}" for v, e in zip(variables, exps) if e]
    return "*".join(parts) or "1"


def _split_monomial(rng: random.Random, variables, top: int):
    """A random monomial of degree top (two per variable) split in two."""
    exps = [0] * len(variables)
    for _ in range(top // 2):
        exps[rng.randrange(len(variables))] += 1
    left = [rng.randint(0, e) for e in exps]
    right = [e - x for e, x in zip(exps, left)]
    return (_monomial(left, variables), _monomial(right, variables),
            _monomial(exps, variables))


def _cli_cohomology(rng: random.Random, files: dict) -> list:
    jobs = []
    files["p1.json"] = pn_model(1)     # for the unbounded kirwan probe
    for n in (3, 4, 5, 7):
        files[f"p{n}.json"] = pn_model(n)
        files[f"p{n}s.json"] = pn_model(n, sl2=True)
    for n in (3, 4, 5):
        files[f"l{n}.json"] = ln_model(n)
    for n in (3, 4, 5, 6):
        files[f"l{n}s.json"] = ln_model(n, sl2=True)

    kirwan = (
        ("p3", "p3.json", []),
        ("p4", "p4.json", []),
        ("p5", "p5.json", []),
        ("p7-d16", "p7.json", ["--max-degree", "16"]),
        ("l3", "l3.json", []),
        ("l4-d8", "l4.json", ["--max-degree", "8"]),
        ("l5-d6", "l5.json", ["--max-degree", "6"]),
        ("sl2-p3", "p3s.json", ["--group", "sl2"]),
        ("sl2-p5", "p5s.json", ["--group", "sl2"]),
        ("sl2-p7", "p7s.json", ["--group", "sl2"]),
        ("sl2-l3", "l3s.json", ["--group", "sl2"]),
        ("sl2-l5", "l5s.json", ["--group", "sl2"]),
        ("sl2-l6-d8", "l6s.json", ["--group", "sl2", "--max-degree", "8"]),
        ("sl2-s-l4", "l4s.json", ["--group", "sl2", "--target", "s"]),
        ("sl2-s-l5", "l5s.json", ["--group", "sl2", "--target", "s"]),
        ("sl2-s-l6-d8", "l6s.json",
         ["--group", "sl2", "--target", "s", "--max-degree", "8"]),
    )
    for name, model, extra in kirwan:
        jobs.append(_job(f"kirwan:{name}", ["kirwan", model, *extra]))

    for k, (model, group, variables, top) in enumerate(PAIRING_MODELS):
        eta, zeta, prod = _split_monomial(rng, variables, top)
        base = f"pairing:{k}"
        jobs.append(_job(base, ["pairing", model, eta, zeta, "--group", group],
                         False))
        keys = ("pairing", "raw_residue_sum", "degree_sum")
        jobs.append(_job(f"{base}-swap",
                         ["pairing", model, zeta, eta, "--group", group],
                         False, same_as=(base, keys)))
        jobs.append(_job(f"{base}-product",
                         ["pairing", model, prod, "1", "--group", group],
                         False, same_as=(base, keys)))
    return jobs


def _lib_sweep(rng: random.Random, files: dict) -> list:
    # One model per job for the fixed family; the random systems run in
    # batches of two, so that job percentiles compare the same amount of
    # work across seeds instead of following the cost of single systems.
    models = []
    for n in range(1, 7):
        models.append({"id": f"model:p{n}", "models": [pn_model(n)], "fixed": True})
    for n in range(1, 7):
        models.append({"id": f"model:l{n}", "models": [ln_model(n)], "fixed": True})
    systems = [random_weight_system(rng, *shape) for shape in LIB_RANDOM_SHAPES]
    for k in range(0, len(systems), 2):
        models.append({"id": f"model-batch:{k // 2}", "models": systems[k:k + 2],
                       "fixed": False})
    # three-route Betti cases; routes 1 and 2 run up to the quotient's top
    # degree, route 3 (pairing kernels) up to ``route3_top``.  The L^5 torus
    # quotient is left out: route 3 there takes 0.9 s at degree 0 and 3 s at
    # degree 2, which would leave room for too few sessions in a run to find
    # each job's fastest time.  The kirwan jobs of cli-cohomology cover it.
    betti = [
        {"id": "betti:p3-sl2", "kind": "p", "n": 3, "group": "sl2", "route3_top": 0},
        {"id": "betti:p5-sl2", "kind": "p", "n": 5, "group": "sl2", "route3_top": 4},
        {"id": "betti:l3-sl2", "kind": "l", "n": 3, "group": "sl2", "route3_top": 0},
        {"id": "betti:l5-sl2", "kind": "l", "n": 5, "group": "sl2", "route3_top": 4},
        {"id": "betti:p3-torus", "kind": "p", "n": 3, "group": "torus", "route3_top": 4},
        {"id": "betti:p5-torus", "kind": "p", "n": 5, "group": "torus", "route3_top": 8},
        {"id": "betti:l3-torus", "kind": "l", "n": 3, "group": "torus", "route3_top": 4},
    ]
    files["session.json"] = {"models": models, "betti": betti}
    return ([_job(m["id"], None, m["fixed"]) for m in models]
            + [_job(c["id"], None, True) for c in betti])


_BUILDERS = {"cli-strata": _cli_strata, "cli-cohomology": _cli_cohomology,
             "lib-sweep": _lib_sweep}


def generate(workload: str, seed: int, directory: Path) -> tuple[list, str]:
    """Write the workload's input files; return its jobs and an input digest."""
    rng = random.Random(f"{workload}:{seed}")
    files: dict = {}
    jobs = _BUILDERS[workload](rng, files)
    directory.mkdir(parents=True, exist_ok=True)
    digest = hashlib.sha256()
    for name in sorted(files):
        data = json.dumps(files[name], sort_keys=True).encode()
        (directory / name).write_bytes(data)
        digest.update(name.encode() + b"\0" + data + b"\0")
    for job in jobs:
        digest.update(json.dumps(job, sort_keys=True).encode())
    return jobs, digest.hexdigest()
