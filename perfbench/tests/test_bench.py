"""Tests of the benchmark itself (not part of the library's test suite).

Run from the root of a checkout:  python3 -m pytest perfbench/tests
"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402


@pytest.fixture(autouse=True)
def _checkout_root(monkeypatch):
    monkeypatch.setattr(run, "ROOT", BENCH.parent)


def _session_outputs(res) -> list:
    assert res["exit"] == 0, res["stderr"][-500:]
    return [json.loads(line)["out"] for line in res["stdout"].decode().splitlines()]


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_tracing_leaves_every_output_unchanged(workload, tmp_path):
    jobs, _ = inputs.generate(workload, 7, tmp_path)
    if workload == "lib-sweep":
        plain = run.run_process([sys.executable, str(BENCH / "lib_session.py"),
                                 "session.json"], tmp_path, 300)
        traced = run.run_process(run.traced_argv(tmp_path / "trace", "-", "lib",
                                                 ["session.json"]), tmp_path, 300)
        assert _session_outputs(plain) == _session_outputs(traced)
        return
    for k, job in enumerate(jobs):
        plain = run.run_process(run.cli_argv(job), tmp_path, 120)
        traced = run.run_process(run.traced_argv(tmp_path / f"trace{k}", job["id"],
                                                 "cli", job["argv"]), tmp_path, 120)
        assert plain["exit"] == traced["exit"], job["id"]
        assert run.sha(plain["stdout"]) == run.sha(traced["stdout"]), job["id"]


def test_gate_rejects_a_wrong_certificate(tmp_path):
    jobs, _ = inputs.generate("cli-strata", 7, tmp_path)
    files = run.load_files(tmp_path)
    job = next(j for j in jobs if j["id"] == "index-set:a2x3")
    res = run.run_process(run.cli_argv(job), tmp_path, 120)
    errors, _ = checks.check_cli(job, files, res["exit"], res["stdout"], res["stderr"])
    assert errors == []
    report = json.loads(res["stdout"])
    stratum = report["result"]["index_set"][-1]
    stratum["beta"] = stratum["certificate"]["beta"] = ["1/2", "1/2"]
    assert checks.check_cli(job, files, 0, json.dumps(report).encode(), b"")[0]


def test_gate_rejects_a_lib_certificate_on_other_points(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH.parent / "src"))
    import lib_session
    model = {"rank": 2, "factors": [inputs.A2_TRIPLE] * 2}
    out = json.loads(json.dumps(lib_session._s(lib_session.model_reports([model]))))
    assert checks.lib_invariant_errors([model], out) == []
    strata = out["reports"][0]["index_set"]
    pairs = [(a, b) for a in strata for b in strata if a["beta"] != b["beta"]
             and len(checks.minkowski_points(model, a["witness_profile"])) > 1
             and a["support"] == b["support"]]
    assert pairs
    # the certificate of one stratum against another stratum's points
    mine, other = pairs[0]
    profile = mine["witness_profile"]
    mine["witness_profile"] = other["witness_profile"]
    assert checks.lib_invariant_errors([model], out)
    # and against a truncated point list
    mine["witness_profile"] = [supp[:1] for supp in profile]
    assert checks.lib_invariant_errors([model], out)


def test_tail_keeps_ten_samples_above():
    assert run.tail(list(range(1, 41))) == (30, 75.0)
    assert run.tail([3.0, 1.0]) == (3.0, 100.0)
