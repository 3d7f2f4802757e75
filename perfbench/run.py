"""Benchmark of the moment-strata CLI and library.

Usage (from the root of a checkout):
  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see perfbench/README.md): cli-strata, cli-cohomology, lib-sweep.
Each is a closed loop with one client: the next job starts when the previous
one has finished.  With ``--trace 0`` the run repeats the workload's job list
for S seconds (at least once) and reports the end-to-end metrics; with
``--trace 1`` it runs the list once untraced and once traced and reports the
per-layer metrics named in BENCHMARK.json.  Every execution is checked for
correctness.  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics.

Child processes run with PYTHONHASHSEED=0: set iteration order changes how
much work some jobs do (up to 1.6x for ``kirwan`` on (P^1)^4), and a fixed
hash seed keeps that out of the comparison between two commits.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import inputs
import tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = Path.cwd()
WORK = ROOT / ".perfbench-work"
SETUP_REPEATS = 16
JOB_TIMEOUT_S = 60.0
RUN_BUDGET_S = 150.0        # stop starting new work after this, whatever S is
REPEAT_S = 0.5              # a pass runs a CLI job back-to-back until this much
MAX_REPEATS = 3             # time is used, at most this many times
PROBE_TIMEOUT_S = 5.0
UNBOUNDED_PROBE = ["kirwan", "p1.json", "--max-degree", "100000"]
# The CPUs of a shared virtual machine slow down independently of each other,
# by up to 1.6x for seconds to minutes, as other tenants load their cores.
# The n-th repeat of a measurement runs on the n-th CPU in turn, so that the
# fastest repeat is taken on whichever CPU was fast.
CPUS = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_process(argv: list, cwd: Path, timeout: float,
                repeat: int | None = None) -> dict:
    """One child process, pinned to the CPU for ``repeat`` when given;
    ``exit`` is None when it timed out."""
    pin = None
    if repeat is not None and len(CPUS) > 1:
        cpu = CPUS[repeat % len(CPUS)]
        pin = lambda: os.sched_setaffinity(0, {cpu})
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(argv, cwd=cwd, env=child_env(), capture_output=True,
                              timeout=timeout, preexec_fn=pin)
        code, out, err = proc.returncode, proc.stdout, proc.stderr
    except subprocess.TimeoutExpired as exc:
        code, out, err = None, exc.stdout or b"", exc.stderr or b""
    return {"s": time.perf_counter() - t0, "exit": code, "stdout": out,
            "stderr": err}


def cli_argv(job: dict) -> list:
    return [sys.executable, "-m", "moment_strata", *job["argv"]]


def traced_argv(prefix: Path, job_id: str, mode: str, args: list) -> list:
    return [sys.executable, str(BENCH_DIR / "tracer.py"), str(prefix), job_id,
            mode, *args]


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class Ledger:
    """Outcome of every execution, first reports, and per-job timings.

    An execution fails when its own checks fail or its output differs from
    the job's first execution (traced runs included).  A job whose report is
    wrong (reference mismatch, disagreement with a related job) fails on
    every execution."""

    def __init__(self, jobs: list, files: dict, reference: dict):
        self.jobs = {j["id"]: j for j in jobs}
        self.files = files
        self.reference = reference
        self.times: dict[str, list] = {}
        self.first: dict[str, tuple] = {}     # id -> (digest, fields)
        self.executions: dict[str, int] = {}
        self.failed_executions: dict[str, int] = {}
        self.wrong: set = set()
        self.reasons: dict[str, str] = {}
        self.digest_changed = 0

    def record(self, jid: str, seconds: float | None, digest: str | None,
               errors: list, fields=None) -> None:
        job = self.jobs[jid]
        self.executions[jid] = self.executions.get(jid, 0) + 1
        if seconds is not None and not job["probe"]:
            self.times.setdefault(jid, []).append(seconds)
        if not errors and jid in self.first and self.first[jid][0] != digest:
            errors = ["output differs from the first execution"]
        if errors:
            self.failed_executions[jid] = self.failed_executions.get(jid, 0) + 1
            self.reasons.setdefault(jid, "; ".join(errors))
        elif jid not in self.first:
            self.first[jid] = (digest, fields)
            if job["fixed"]:
                self._compare_reference(jid, digest, fields)

    def mark_wrong(self, jid: str, why: str) -> None:
        self.wrong.add(jid)
        self.reasons.setdefault(jid, why)

    def _compare_reference(self, jid: str, digest: str, fields) -> None:
        ref = self.reference.get(jid)
        if ref is None:
            self.mark_wrong(jid, "no reference result")
        elif ref["fields"] != json.loads(json.dumps(fields)):
            self.mark_wrong(jid, "fields differ from the reference result")
        elif ref["sha256"] != digest:
            self.digest_changed += 1

    def cross_check(self) -> None:
        for jid, job in self.jobs.items():
            if not job["same_as"] or jid not in self.first:
                continue
            other, keys = job["same_as"]
            mine, theirs = self.first[jid][1], self.first.get(other, (None, None))[1]
            if theirs is None or any(mine[k] != theirs[k] for k in keys):
                self.mark_wrong(jid, f"disagrees with {other}")

    @property
    def attempted(self) -> int:
        return sum(self.executions.values())

    @property
    def failed(self) -> int:
        return sum(self.executions[jid] if jid in self.wrong
                   else self.failed_executions.get(jid, 0)
                   for jid in self.executions)


# ---------------------------------------------------------------------------
# executing the workloads


def run_cli_job(ledger: Ledger, job: dict, cwd: Path, timeout: float,
                traced_prefix: Path | None = None, repeat: int | None = None) -> dict:
    if traced_prefix is None:
        res = run_process(cli_argv(job), cwd, timeout, repeat)
    else:
        res = run_process(traced_argv(traced_prefix, job["id"], "cli", job["argv"]),
                          cwd, timeout)
    errors, fields = checks.check_cli(job, ledger.files, res["exit"],
                                      res["stdout"], res["stderr"])
    ledger.record(job["id"], res["s"], sha(res["stdout"]), errors, fields)
    return res


def run_lib_session(ledger: Ledger, cwd: Path, timeout: float,
                    traced_prefix: Path | None = None, repeat: int | None = None) -> dict:
    args = ["session.json"]
    argv = ([sys.executable, str(BENCH_DIR / "lib_session.py"), *args]
            if traced_prefix is None else traced_argv(traced_prefix, "-", "lib", args))
    res = run_process(argv, cwd, timeout, repeat)
    seen = set()
    lines = res["stdout"].decode().splitlines()
    job_models = {m["id"]: m["models"] for m in ledger.files["session.json"]["models"]}
    for line in lines:
        rec = json.loads(line)
        jid, out = rec["id"], rec["out"]
        seen.add(jid)
        errors = checks.lib_invariant_errors(job_models.get(jid), out)
        digest = sha(json.dumps(out, sort_keys=True).encode())
        ledger.record(jid, rec["s"], digest, errors, checks.lib_fields(out))
    for jid in ledger.jobs:
        if jid not in seen:
            why = "timed out" if res["exit"] is None else \
                f"session exit {res['exit']}: {res['stderr'][-300:].decode(errors='replace')}"
            ledger.record(jid, None, None, [why])
    return res


def timed_run(workload: str, jobs: list, ledger: Ledger, cwd: Path,
              seconds: float, t_start: float) -> list:
    """Repeat the job list (lib-sweep: the session) until S seconds have
    passed, finishing the first pass in any case; return the wall time of
    every execution.  Within a pass, a short CLI job runs back-to-back up to
    MAX_REPEATS times: its fastest time then rests on more samples, and the
    long jobs still run in every pass."""
    walls = []
    units = [None] if workload == "lib-sweep" else jobs
    deadline = time.perf_counter() + seconds
    i = 0
    while True:
        now = time.perf_counter()
        if i >= len(units) and now >= deadline:
            break
        budget = RUN_BUDGET_S - (now - t_start)
        if budget <= 1.0:
            for job in units[i:]:
                if job is not None:
                    ledger.record(job["id"], None, None,
                                  ["not run: time budget exhausted"])
            break
        unit = units[i % len(units)]
        if unit is None:
            walls.append(run_lib_session(ledger, cwd, budget, repeat=len(walls))["s"])
        else:
            spent = 0.0
            for _ in range(MAX_REPEATS):
                res = run_cli_job(ledger, unit, cwd, min(budget, JOB_TIMEOUT_S),
                                  repeat=ledger.executions.get(unit["id"], 0))
                walls.append(res["s"])
                spent += res["s"]
                if (unit["probe"] or spent >= REPEAT_S
                        or time.perf_counter() >= deadline):
                    break
        i += 1
    return walls


def tail(values: list) -> tuple[float, float]:
    """Value at the highest percentile with at least ten samples above it,
    and that percentile (the maximum when there are ten samples or fewer)."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def measure_setup(workload: str, seed: int, directory: Path) -> tuple[float, list, str]:
    """Cold import of the CLI module plus input generation, repeated on each
    CPU in turn; the median on the faster CPU is reported.  One untimed import
    first compiles the bytecode."""
    probe = [sys.executable, "-c", "import moment_strata.cli"]
    res = run_process(probe, ROOT, 60)
    if res["exit"] != 0:
        raise RuntimeError("cannot import moment_strata: "
                           + res["stderr"].decode(errors="replace")[-500:])
    samples: dict[int, list] = {}
    for k in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        jobs, digest = inputs.generate(workload, seed, directory)
        gen = time.perf_counter() - t0
        samples.setdefault(k % max(1, len(CPUS)), []).append(
            gen + run_process(probe, ROOT, 60, repeat=k)["s"])
    return min(statistics.median(v) for v in samples.values()), jobs, digest


def load_files(directory: Path) -> dict:
    return {p.name: json.loads(p.read_text()) for p in directory.iterdir()
            if p.suffix == ".json"}


def load_reference() -> dict:
    return json.loads((BENCH_DIR / "reference.json").read_text())["jobs"]


# ---------------------------------------------------------------------------
# metrics


def end_to_end(ledger: Ledger, walls: list, setup_s: float) -> tuple:
    # Other tenants of the machine only ever add time, in bursts that slow a
    # job by up to 1.6x; the fastest repeat of a job is the estimate least
    # disturbed by them.
    # a session that crashed leaves no job times; fall back to its wall time
    values = [min(ts) for ts in ledger.times.values()] or walls
    tail_s, pct = tail(values)
    rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (sum(values), "s"),
        "job_p50_s": (statistics.median(values), "s"),
        "job_tail_s": (tail_s, "s"),
        "peak_rss_mb": (rss_mb, "MiB"),
    }
    samples = {
        "setup_s": SETUP_REPEATS,
        "jobs_timed": len(values),
        "executions_per_job": sorted({len(ts) for ts in ledger.times.values()}),
        "executions": len(walls),
        "job_tail_percentile": round(pct, 2),
    }
    return metrics, samples


def per_layer(entries: list, summary: dict, extra: dict) -> dict:
    """The per-layer metrics declared in BENCHMARK.json, by name:
    ``<module>.<function>.<stat>``, layer totals ``<module>.self_s``, and the
    run-level values in ``extra``."""
    calls, self_s, counters = summary["calls"], summary["self_s"], summary["counters"]
    ratio_counter = {"distinct_beta_ratio": "distinct_betas",
                     "independent_ratio": "independent",
                     "repeat_ratio": "repeats"}
    out = {}
    for entry in entries:
        name = entry["name"]
        target, _, stat = name.rpartition(".")
        if name in extra:
            value = extra[name]
        elif stat == "calls":
            value = calls.get(target, 0)
        elif stat == "self_s" and target in tracer.LAYERS:
            value = sum(v for k, v in self_s.items() if k.split(".")[0] == target)
        elif stat == "self_s":
            value = self_s.get(target, 0.0)
        elif stat == "yielded":
            value = counters.get(name, 0)
        elif stat in ratio_counter:
            n = calls.get(target, 0)
            value = counters.get(f"{target}.{ratio_counter[stat]}", 0) / n if n else 0.0
        else:
            raise KeyError(f"no rule for per-layer metric {name!r}")
        out[name] = (value, entry["unit"])
    return out


def merge_summaries(paths: list) -> dict:
    total = {"calls": {}, "self_s": {}, "counters": {}, "top_level_s": 0.0}
    for path in paths:
        if not path.exists():     # the traced process failed; already counted
            continue
        part = json.loads(path.read_text())
        for key in ("calls", "self_s", "counters"):
            for k, v in part[key].items():
                total[key][k] = total[key].get(k, 0) + v
        total["top_level_s"] += part["top_level_s"]
    return total


def traced_run(workload: str, jobs: list, ledger: Ledger, cwd: Path,
               t_start: float, entries: list) -> dict:
    trace_dir = WORK / "traces" / workload
    shutil.rmtree(trace_dir, ignore_errors=True)
    trace_dir.mkdir(parents=True)
    budget = lambda: max(1.0, RUN_BUDGET_S - (time.perf_counter() - t_start))
    if workload == "lib-sweep":
        plain = run_lib_session(ledger, cwd, budget())
        traced = run_lib_session(ledger, cwd, budget(), trace_dir / "session")
        untraced_s, traced_s = plain["s"], traced["s"]
        summaries = [trace_dir / "session.json"]
    else:
        untraced_s = traced_s = 0.0
        summaries = []
        for k, job in enumerate(jobs):
            plain = run_cli_job(ledger, job, cwd, min(budget(), JOB_TIMEOUT_S))
            prefix = trace_dir / f"job{k}"
            traced = run_cli_job(ledger, job, cwd, min(budget(), JOB_TIMEOUT_S),
                                 prefix)
            if not job["probe"]:
                untraced_s += plain["s"]
                traced_s += traced["s"]
            summaries.append(trace_dir / f"job{k}.json")
    summary = merge_summaries(summaries)
    timeouts = 0
    if workload == "cli-cohomology":
        probe = run_process([sys.executable, "-m", "moment_strata", *UNBOUNDED_PROBE],
                            cwd, PROBE_TIMEOUT_S)
        timeouts = int(probe["exit"] is None)
    ledger.cross_check()
    extra = {
        "trace.overhead_s": traced_s - untraced_s,
        "trace.coverage": summary["top_level_s"] / traced_s if traced_s else 0.0,
        "cli.stdout_digest_changed": ledger.digest_changed,
        "failed_frac": ledger.failed / max(1, ledger.attempted),
        "probe.kirwan_unbounded_timeouts": timeouts,
    }
    return per_layer(entries, summary, extra)


# ---------------------------------------------------------------------------
# entry point


def metadata(workload: str, seed: int, digest: str, samples: dict) -> dict:
    commit = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: ") and (ROOT / ".git" / ref[5:]).is_file():
            commit = (ROOT / ".git" / ref[5:]).read_text().strip()
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:   # read-only, for the record
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"workload": workload, "seed": seed, "inputs_sha256": digest,
            "commit": commit, "python": platform.python_version(),
            "nproc": os.cpu_count(), "cpu": cpu, "samples": samples}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=inputs.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    t_start = time.perf_counter()
    if not (ROOT / "src" / "moment_strata" / "__init__.py").is_file():
        print("error: run from the root of a moment-strata checkout "
              "(src/moment_strata is missing)", file=sys.stderr)
        return 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    run_dir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    try:
        setup_s, jobs, digest = measure_setup(args.workload, args.seed, run_dir)
        files = load_files(run_dir)
        ledger = Ledger(jobs, files, load_reference())
        if args.trace:
            metrics = traced_run(args.workload, jobs, ledger, run_dir, t_start,
                                 spec["per_layer"])
            samples = {"jobs": len(jobs), "executions_per_job": 2}
        else:
            walls = timed_run(args.workload, jobs, ledger, run_dir,
                              args.seconds, t_start)
            ledger.cross_check()
            metrics, samples = end_to_end(ledger, walls, setup_s)
            names = [m["name"] for m in spec["end_to_end"]]
            metrics = {k: metrics[k] for k in names}
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    print(json.dumps({"meta": metadata(args.workload, args.seed, digest, samples)},
                     sort_keys=True))
    for jid, why in sorted(ledger.reasons.items()):
        print(f"FAILED {jid}: {why}")
    for name, (value, unit) in metrics.items():
        print(f"{name:<56} {value:>14.6g} {unit}")
    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
