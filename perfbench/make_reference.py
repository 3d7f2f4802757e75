"""Regenerate perfbench/reference.json from the current checkout.

Usage (from the root of a checkout):  python3 perfbench/make_reference.py

Runs every fixed job of every workload once, refuses to write anything if an
invariant check fails, and stores each job's reference fields and stdout
digest.  Run it only on a commit whose outputs are trusted; a change that
means to alter outputs says so and regenerates the file in the same commit.
"""

from __future__ import annotations

import json
import shutil
import sys

import checks
import inputs
import run


def main() -> int:
    reference, problems = {}, []
    for workload in inputs.WORKLOADS:
        directory = run.WORK / f"reference-{workload}"
        jobs, _ = inputs.generate(workload, 0, directory)
        files = run.load_files(directory)
        if workload == "lib-sweep":
            res = run.run_process([sys.executable, str(run.BENCH_DIR / "lib_session.py"),
                                   "session.json"], directory, 600)
            fixed = {j["id"] for j in jobs if j["fixed"]}
            models = {m["id"]: m["models"] for m in files["session.json"]["models"]}
            for line in res["stdout"].decode().splitlines():
                rec = json.loads(line)
                if rec["id"] not in fixed:
                    continue
                errors = checks.lib_invariant_errors(models.get(rec["id"]), rec["out"])
                problems += [f"{rec['id']}: {e}" for e in errors]
                reference[rec["id"]] = {
                    "fields": checks.lib_fields(rec["out"]),
                    "sha256": run.sha(json.dumps(rec["out"], sort_keys=True).encode())}
            shutil.rmtree(directory)
            continue
        for job in jobs:
            if not job["fixed"]:
                continue
            res = run.run_process(run.cli_argv(job), directory, 600)
            errors, fields = checks.check_cli(job, files, res["exit"],
                                              res["stdout"], res["stderr"])
            problems += [f"{job['id']}: {e}" for e in errors]
            reference[job["id"]] = {"fields": fields, "sha256": run.sha(res["stdout"])}
            print(f"{res['s']:7.3f}s {job['id']}", flush=True)
        shutil.rmtree(directory)
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 1
    out = run.BENCH_DIR / "reference.json"
    lines = [f"{json.dumps(jid)}: {json.dumps(reference[jid], sort_keys=True)}"
             for jid in sorted(reference)]     # one job per line, for review
    out.write_text('{"jobs": {\n' + ",\n".join(lines) + "\n}}\n")
    print(f"wrote {len(reference)} reference results to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
