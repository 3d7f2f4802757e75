"""Command line interface: report envelopes, exit codes, determinism."""

import gc
import io
import json
import os
import shutil
import subprocess
import sys
import types
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import moment_strata
from moment_strata import cli

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"
SCRIPT = "moment-strata"

P3 = {"rank": 1, "factors": [[["3"], ["1"], ["-1"], ["-3"]]], "weyl": "sl2"}
L3 = {"rank": 1, "factors": [[["1"], ["-1"]]] * 3}
L4 = {"rank": 1, "factors": [[["1"], ["-1"]]] * 4}
FLOAT = {"rank": 1, "factors": [[[1.5], [-1]]]}
ASYM = {"rank": 1, "factors": [[["2"], ["0"], ["-1"]]]}


@pytest.fixture
def models(tmp_path):
    paths = {}
    for name, obj in (("p3", P3), ("l3", L3), ("l4", L4), ("float", FLOAT),
                      ("asym", ASYM)):
        p = tmp_path / (name + ".json")
        p.write_text(json.dumps(obj))
        paths[name] = str(p)
    return paths


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 0, err
    return json.loads(out)


def test_report_envelope(models, capsys):
    report = run_json(capsys, ["index-set", models["p3"]])
    assert set(report) == {"command", "arguments", "input_digest",
                           "exact_arithmetic", "result"}
    assert report["command"] == "index-set"
    assert report["exact_arithmetic"] is True
    digest = report["input_digest"]
    assert len(digest) == 64 and int(digest, 16) >= 0


def test_index_set_output(models, capsys):
    result = run_json(capsys, ["index-set", models["p3"]])["result"]
    assert result["rank"] == 1
    assert result["factor_sizes"] == [4]
    assert result["stratum_count"] == 5
    betas = [e["beta"] for e in result["index_set"]]
    assert betas == [["-3"], ["-1"], ["0"], ["1"], ["3"]]
    top = result["index_set"][-1]
    assert top["norm_squared"] == "9"
    assert top["certificate"]["beta"] == ["3"]
    assert top["components"][0]["codimension"] == 6


def test_same_bytes_same_digest(models, capsys, tmp_path):
    copy = tmp_path / "other-name.json"
    copy.write_text(json.dumps(P3))
    first = run_json(capsys, ["index-set", models["p3"]])
    second = run_json(capsys, ["index-set", str(copy)])
    assert first["input_digest"] == second["input_digest"]
    assert first["result"] == second["result"]


def test_output_is_deterministic(models, capsys):
    _, out1, _ = run(capsys, ["series", models["l4"]])
    _, out2, _ = run(capsys, ["series", models["l4"]])
    assert out1 == out2


def test_classify_point(models, capsys, tmp_path):
    point = tmp_path / "pt.json"
    point.write_text('[["1", "0", "0", "1"]]')
    result = run_json(capsys, ["classify", models["p3"], str(point)])["result"]
    assert result["beta"] == ["0"]
    assert result["profile"] == [[0, 3]]
    assert result["hull_points"] == [["-3"], ["3"]]
    assert result["semistable"] and result["stable"]
    assert result["certificate"]["coefficients"] == ["1/2", "1/2"]
    point.write_text('[["0", "0", "0", "1"]]')
    result = run_json(capsys, ["classify", models["p3"], str(point)])["result"]
    assert result["beta"] == ["-3"]
    assert not result["semistable"]


def test_series_reflection_quotient(models, capsys):
    result = run_json(capsys,
                      ["series", "--group", "sl2", models["p3"]])["result"]
    assert result["series"][:8] == [1, 0, 0, 0, 0, 0, 0, 0]
    assert result["quotient_polynomial"] == [1]
    assert result["quotient_obstruction"] is None
    assert result["perfection"] == {"ok": True, "truncation": 40,
                                    "strata_checked": 3, "failures": []}


def test_series_torus_quotient(models, capsys):
    result = run_json(capsys, ["series", models["p3"]])["result"]
    assert result["quotient_polynomial"] == [1, 0, 2, 0, 1]


def test_series_reports_obstruction_without_failing(models, capsys):
    result = run_json(capsys, ["series", models["l4"]])["result"]
    assert result["quotient_polynomial"] is None
    obstruction = result["quotient_obstruction"]
    assert obstruction["type"] == "NotCoprimeStable"
    assert obstruction["witness"]["profile"] == [[1], [1], [0], [0]]
    assert result["perfection"]["ok"] is True


def test_perturb_proposes_epsilon(models, capsys):
    result = run_json(capsys, ["perturb", models["l4"]])["result"]
    assert result["epsilon"] == ["1/97"]
    assert result["proposal"]["denominator"] == 97
    assert result["generic"] is True
    fibers = {tuple(f["beta"]): f["perturbed_betas"]
              for f in result["refinement"]["fibers"]}
    assert fibers[("0",)] == [["-1/97"], ["0"]]
    originals = {("-4",), ("-2",), ("0",), ("2",), ("4",)}
    for _perturbed, original in result["refinement"]["mapping"]:
        assert tuple(original) in originals


def test_perturb_explicit_epsilon(models, capsys):
    result = run_json(capsys,
                      ["perturb", "--epsilon", "1/10", models["p3"]])["result"]
    assert result["epsilon"] == ["1/10"]
    assert result["proposal"] is None


def test_kirwan_torus_report(models, capsys):
    result = run_json(capsys, ["kirwan", models["p3"]])["result"]
    assert result["presentation"]["kind"] == "pn"
    assert result["presentation"]["variables"] == ["z", "a"]
    assert result["presentation"]["weights"] == ["3", "1", "-1", "-3"]
    rows = [(r["degree"], r["ambient"], r["quotient"])
            for r in result["betti"]]
    assert rows == [(0, 1, 1), (2, 2, 2), (4, 3, 1), (6, 4, 0),
                    (8, 4, 0), (10, 4, 0), (12, 4, 0)]
    assert result["checks"]["two_sided_kernel"]["ok"] is True
    assert all(g["label"].startswith("beta=")
               for g in result["generators"])


def test_kirwan_reflection_report(models, capsys):
    result = run_json(capsys,
                      ["kirwan", "--group", "sl2", models["p3"]])["result"]
    assert [r["quotient"] for r in result["betti"]] == [1, 0, 0, 0, 0, 0, 0]
    assert result["checks"]["reflection_bijection"]["ok"] is True
    labels = [(g["label"], g["degree"]) for g in result["generators"]]
    assert labels == [("beta=1:difference", 2), ("beta=1:sum", 4),
                      ("beta=3:difference", 4), ("beta=3:sum", 6)]


def test_kirwan_stable_target(models, capsys):
    semistable = run_json(capsys, ["kirwan", "--group", "sl2",
                                   models["l4"]])["result"]
    stable = run_json(capsys, ["kirwan", "--group", "sl2", "--target", "s",
                               models["l4"]])["result"]
    assert stable["target"] == "stable"
    ss_labels = {g["label"] for g in semistable["generators"]}
    s_labels = {g["label"] for g in stable["generators"]}
    assert ss_labels < s_labels
    # the halfway subsets contribute the twelve extra generators
    assert len(s_labels - ss_labels) == 12


def test_kirwan_rejects_torus_stable_target(models, capsys):
    code, out, err = run(capsys, ["kirwan", "--target", "s", models["l4"]])
    assert code == 2
    assert not out
    assert "sl2" in err


def test_pairing_top_degree(models, capsys):
    result = run_json(capsys,
                      ["pairing", models["l3"], "z1*z2", "1"])["result"]
    assert result["degree_sum"] == 4
    assert result["quotient_top_degree"] == 4
    assert result["raw_residue_sum"] == "-1/4"
    assert result["pairing"] == "1/2"


def test_pairing_far_off_the_top_degree_is_zero(models, capsys):
    """Only the top degree reaches the residue, so a power of twenty million
    pairs to 0 without being restricted to any fixed point."""
    code, out, _ = run(capsys, ["pairing", models["p3"], "z^20000000", "1"])
    assert code == 0
    assert '"pairing": "0"' in out


def test_a_polynomial_that_starts_with_a_minus_goes_after_the_separator(models, capsys):
    """argparse reads '-z1' as an option: without '--' the run exits 2 with a
    message that names the separator; with it, '-z1' is the polynomial."""
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["pairing", models["l3"], "-z1", "z2"])
    out, err = capsys.readouterr()
    assert excinfo.value.code == 2 and not out
    assert "'--'" in err and "pairing MODEL -- -z1 z2" in err
    report = run_json(capsys, ["pairing", models["l3"], "--", "-z1", "z2"])
    assert report["arguments"]["eta"] == "-z1"
    assert report["result"]["pairing"] == "-1/2"


@pytest.mark.parametrize("argv", [["z1*z2", "1"], ["--group", "sl2", "z1", "z2"]])
def test_pairing_computes_the_residue_sum_once(models, capsys, monkeypatch, argv):
    from moment_strata import residues

    calls = []
    raw = residues._raw_residue
    monkeypatch.setattr(residues, "_raw_residue",
                        lambda *args: calls.append(1) or raw(*args))
    result = run_json(capsys, ["pairing", models["l3"], *argv])["result"]
    assert len(calls) == 1
    scale = residues.PAIRING_SCALE[result["group"]]
    assert Fraction(result["raw_residue_sum"]) * scale == Fraction(result["pairing"])


@pytest.mark.parametrize("factors,message", [
    ([[["1", "0"], ["0", "1"]]], "presentations exist for rank-1 models only"),
    ([[["1"]]], "need at least two coordinates"),
    ([[["1"], ["-1"]], [["2"], ["-1"]]], "no presentation for this model"),
    # the weights of each line must be exactly 1 and -1, not just that set
    ([[["1"], ["-1"], ["1"]], [["1"], ["-1"]]], "no presentation for this model"),
])
@pytest.mark.parametrize("command", ["kirwan", "pairing"])
def test_presentation_shape_errors(tmp_path, capsys, command, factors, message):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"rank": len(factors[0][0]), "factors": factors}))
    extra = ["1", "1"] if command == "pairing" else []
    code, out, err = run(capsys, [command, str(path), *extra])
    assert code == 2 and not out
    assert err.startswith("error: " + message)


@pytest.mark.parametrize("factors,pres", [
    ([[["3"], ["1/2"], ["-1"]]], ("projective_space_presentation", ["3", "1/2", "-1"])),
    ([[["1"], ["-1"]]] * 3, ("line_product_presentation", 3)),
    ([[["-1"], ["1"]], [["1"], ["-1"]]], ("line_product_presentation", 2)),
])
def test_pairing_ring_matches_the_presentation(factors, pres):
    from moment_strata import kirwan
    from moment_strata.models import weighted_model
    from moment_strata.residues import presented_ring

    name, arg = pres
    pres = getattr(kirwan, name)(arg)
    model = weighted_model(1, factors)
    assert presented_ring(model) == pres.variables
    # the weights are the model's, up to their order within a factor
    assert sorted(map(sorted, pres.model().factors)) == sorted(map(sorted, model.factors))


def test_lines_written_minus_one_first_get_the_line_presentation(tmp_path, capsys):
    results = []
    for line in ([["-1"], ["1"]], [["1"], ["-1"]]):
        path = tmp_path / "l2.json"
        path.write_text(json.dumps({"rank": 1, "factors": [line] * 2}))
        results.append(run_json(capsys, ["kirwan", "--max-degree", "4",
                                         str(path)])["result"])
    assert results[0]["presentation"]["kind"] == "p1n"
    assert results[0] == results[1]


@pytest.mark.parametrize("entry", ["0.5", "-1e1", "1e3000000"])
def test_weight_entries_follow_the_p_q_grammar(tmp_path, capsys, entry):
    """A rational string is an optional sign, digits and an optional
    '/digits': no decimal points and no exponents."""
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"rank": 1, "factors": [[[entry]]]}))
    code, out, err = run(capsys, ["index-set", str(path)])
    assert code == 2 and not out
    assert err == f"error: factor 0 weight entry is not a rational: {entry!r}\n"


@pytest.mark.parametrize("epsilon", ["0.5", "-1e1", "1e3000000"])
def test_epsilon_entries_follow_the_p_q_grammar(tmp_path, capsys, epsilon):
    path = tmp_path / "a2.json"
    path.write_text(json.dumps({"rank": 2, "factors": [[[1, 0], [0, 1], [-1, -1]]]}))
    code, out, err = run(capsys, ["perturb", f"--epsilon={epsilon}", str(path)])
    assert code == 2 and not out
    assert err == f"error: epsilon entry is not a rational: {epsilon!r}\n"


@pytest.mark.parametrize("epsilon", ["1/97,", ",1/97", "1/97,,1/9409"])
def test_an_empty_epsilon_entry_exits_2(models, capsys, epsilon):
    code, out, err = run(capsys, ["perturb", "--epsilon", epsilon, models["p3"]])
    assert code == 2 and not out
    assert err == "error: epsilon entry is not a rational: ''\n"


@pytest.mark.parametrize("piece", ["١", "z^١", "1\n", "z^1\n", "1/0", "3/00"])
@pytest.mark.parametrize("which", ["eta", "zeta"])
def test_polynomial_pieces_follow_the_ascii_grammar(tmp_path, capsys, piece, which):
    """Coefficients and exponents are ASCII digits, a denominator is nonzero,
    and a piece ends where its string ends (no trailing newline)."""
    path = tmp_path / "p1.json"
    path.write_text(json.dumps({"rank": 1, "factors": [[["1"], ["-1"]]]}))
    text = piece if "z" in piece else piece + "*z"
    polys = [text, "1"] if which == "eta" else ["1", text]
    code, out, err = run(capsys, ["pairing", str(path), *polys])
    assert code == 2 and not out
    assert err == f"error: cannot parse {which}: cannot parse term piece {piece!r}\n"


def test_pairing_strictly_semistable_is_a_math_error(models, capsys):
    code, out, err = run(capsys, ["pairing", models["l4"], "1", "1"])
    assert code == 3
    payload = json.loads(out)["error"]
    assert payload["type"] == "NotCoprimeStable"
    assert payload["witness"]["profile"] == [[1], [1], [0], [0]]


def test_failed_verification_exits_3_with_a_witness(tmp_path, capsys, monkeypatch,
                                                    empty_memo):
    """A certificate that fails its own check is a typed error with a JSON
    witness, not a traceback."""
    from moment_strata import geometry

    path = tmp_path / "p2.json"
    path.write_text(json.dumps({"rank": 1, "factors": [[["3"], ["1"], ["-2"]]]}))
    monkeypatch.setattr(geometry, "_verify_lattice", lambda *args: False)
    code, out, err = run(capsys, ["index-set", str(path)])
    assert code == 3 and err == ""
    error = json.loads(out)["error"]
    assert error["type"] == "VerificationFailed"
    assert set(error["witness"]) == {"beta", "support", "coefficients"}


def test_perturb_with_a_coarse_epsilon_exits_3_with_the_witness(models, capsys):
    code, out, err = run(capsys, ["perturb", models["l3"], "--epsilon", "3/2"])
    assert code == 3 and err == ""
    error = json.loads(out)["error"]
    assert error["type"] == "RefinementViolation"
    assert error["witness"] == {"perturbed_beta": ["-1/2"],
                                "original_betas": [["1"], ["0"]],
                                "profiles": [[[1], [0], [0]], [[1], [0], [0, 1]]]}


def _exits_3_with_verification_failed(capsys, argv, message):
    code, out, err = run(capsys, argv)
    assert code == 3 and err == ""
    error = json.loads(out)["error"]
    assert error["type"] == "VerificationFailed" and message in error["message"]
    return error["witness"]


def test_inconsistent_quotient_series_exits_3(models, capsys, monkeypatch):
    from moment_strata import series

    monkeypatch.setattr(series, "quotient_top_degree", lambda model, group: -1)
    witness = _exits_3_with_verification_failed(
        capsys, ["series", models["p3"], "--trunc", "6"], "fails to terminate")
    assert witness == {"degree": 0, "coefficient": 1}


def test_failed_binary_form_check_exits_3(capsys, tmp_path, monkeypatch):
    from moment_strata import configs

    conf = tmp_path / "conf.json"
    conf.write_text('[["1","0"],["1","0"],["1","1"],["1","2"]]')
    monkeypatch.setattr(configs, "_form_coefficients",
                        lambda config: [Fraction(0)] * (len(config) + 1))
    witness = _exits_3_with_verification_failed(
        capsys, ["config", "--family", "binary", str(conf)], "does not vanish")
    assert witness == {"coefficients": ["0"] * 5}


def test_failed_reflection_check_exits_3(models, capsys, monkeypatch):
    from moment_strata import kirwan

    monkeypatch.setattr(kirwan, "_reflect", lambda poly: poly)
    witness = _exits_3_with_verification_failed(
        capsys, ["kirwan", models["p3"], "--group", "sl2", "--max-degree", "4"],
        "reflection images")
    assert set(witness) == {"stratum"}


def test_config_families(capsys, tmp_path):
    conf = tmp_path / "conf.json"
    conf.write_text('[["1","0"],["1","0"],["1","1"],["1","2"]]')
    result = run_json(capsys,
                      ["config", "--family", "p1", str(conf)])["result"]
    assert result["label"] == "(T,2)"
    assert result["coarse_label"] == "S_{0}"
    assert result["refined"] is True
    assert result["points"] == ["[1:0]", "[1:0]", "[1:1]", "[1:2]"]
    conf.write_text('[["1","0"],["1","0"],["1","1"],["1","-1"]]')
    result = run_json(capsys,
                      ["config", "--family", "binary", str(conf)])["result"]
    assert result["label"] == "(T,4)"
    conf.write_text(json.dumps([["1", "0", "0"], ["1", "0", "0"],
                                ["0", "1", "0"], ["0", "1", "0"],
                                ["1", "0", "1"], ["1", "0", "2"]]))
    result = run_json(capsys,
                      ["config", "--family", "p2", str(conf)])["result"]
    assert result["label"] == "(T,(1,0,-1))"
    assert result["coarse_label"] == "S_{(2,2,2)}"


def test_input_errors_exit_2(models, capsys, tmp_path):
    bad = tmp_path / "bad.json"

    code, out, err = run(capsys, ["index-set", str(tmp_path / "nope.json")])
    assert code == 2 and not out and err

    bad.write_text("{not json")
    code, out, err = run(capsys, ["index-set", str(bad)])
    assert code == 2 and not out and err

    bad.write_text('{"rank": 1, "factors": [[[1.5], [-1]]]}')
    code, out, err = run(capsys, ["index-set", str(bad)])
    assert code == 2 and "p/q" in err

    bad.write_text('{"rank": 1, "factors": [[[1], [-1]]], "extra": 0}')
    code, out, err = run(capsys, ["index-set", str(bad)])
    assert code == 2

    conf = tmp_path / "conf.json"
    conf.write_text('[["1","0","0"]]')
    code, out, err = run(capsys, ["config", "--family", "p1", str(conf)])
    assert code == 2 and "coordinates" in err


@pytest.mark.parametrize("model,argv,message", [
    ({"rank": 1, "factors": [[[1], [-1]]], "weyl": "sl3-torus-weyl"},
     ["index-set", "MODEL"], "weyl group 'sl3-torus-weyl' does not act on rank 1"),
    (L3, ["classify", "MODEL", "POINT"], "projective coordinates cannot all vanish"),
    (P3, ["kirwan", "MODEL", "--group", "sl2", "--target", "s"],
     "the stable target is defined for products of lines only"),
])
def test_library_value_errors_exit_2_with_their_message(tmp_path, capsys, model,
                                                        argv, message):
    """A ValueError from the library reaches the user as one error line."""
    files = {"MODEL": tmp_path / "model.json", "POINT": tmp_path / "point.json"}
    files["MODEL"].write_text(json.dumps(model))
    files["POINT"].write_text('[["1", "0"], ["0", "0"], ["0", "1"]]')
    code, out, err = run(capsys, [str(files.get(a, a)) for a in argv])
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("weyl", [["sl2"], {}, "sl4"])
def test_weyl_entry_must_name_a_group(tmp_path, capsys, weyl):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"rank": 1, "factors": [[[1], [-1]]],
                               "weyl": weyl}))
    code, out, err = run(capsys, ["index-set", str(bad)])
    assert code == 2 and not out and "weyl" in err


def test_weyl_group_must_match_rank(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"rank": 1, "factors": [[[1], [-1]]],
                               "weyl": "sl3-torus-weyl"}))
    code, out, err = run(capsys, ["index-set", str(bad)])
    assert code == 2 and not out and "rank 1" in err
    bad.write_text(json.dumps({"rank": 2, "factors": [[[1, 0], [-1, 0]]],
                               "weyl": "sl2"}))
    code, out, err = run(capsys, ["index-set", str(bad)])
    assert code == 2 and not out and "rank 2" in err


@pytest.mark.parametrize("argv", [
    ["index-set"], ["series"], ["series", "--group", "sl2"], ["perturb"],
    ["kirwan"], ["kirwan", "--group", "sl2"],
    ["pairing", "z1", "z2"], ["pairing", "1", "1", "--group", "sl2"],
], ids=" ".join)
def test_the_weyl_entry_changes_no_result(tmp_path, capsys, argv):
    """`--group` chooses the group; a model's `weyl` entry is only validated."""
    results = []
    for extra in ({}, {"weyl": "sl2"}):
        path = tmp_path / "l3.json"
        path.write_text(json.dumps({**L3, **extra}))
        results.append(run_json(capsys, [argv[0], str(path), *argv[1:]])["result"])
    assert results[0] == results[1]


def test_empty_reflection_quotient_has_empty_polynomial(tmp_path, capsys):
    """P^1 under SL(2) has a quotient of negative dimension."""
    p1 = tmp_path / "p1.json"
    p1.write_text(json.dumps({"rank": 1, "factors": [[[1], [-1]]],
                              "weyl": "sl2"}))
    for trunc in ("8", "20"):
        result = run_json(capsys, ["series", "--group", "sl2",
                                   "--trunc", trunc, str(p1)])["result"]
        assert result["quotient_polynomial"] == []
        assert result["quotient_obstruction"] is None


def test_thread_cap_is_validated(models, capsys, monkeypatch):
    monkeypatch.setenv(cli.THREADS_VAR, "not-a-number")
    code, out, err = run(capsys, ["index-set", models["p3"]])
    assert code == 2 and cli.THREADS_VAR in err
    monkeypatch.setenv(cli.THREADS_VAR, "4")
    code, out, err = run(capsys, ["index-set", models["p3"]])
    assert code == 0


def test_unknown_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["frobnicate"])
    assert excinfo.value.code == 2


def test_model_on_stdin(models, capsys, monkeypatch):
    fake = types.SimpleNamespace(buffer=io.BytesIO(json.dumps(P3).encode()))
    monkeypatch.setattr(sys, "stdin", fake)
    report = run_json(capsys, ["index-set", "-"])
    direct = run_json(capsys, ["index-set", models["p3"]])
    assert report["result"] == direct["result"]


def console_script(args):
    """Command and environment that run the packaged `moment-strata`.

    The installed script is used when it is on PATH.  Otherwise the entry
    point declared in `[project.scripts]` is run in a fresh interpreter the
    way a setuptools console script runs it, importing the same package
    as this process.
    """
    installed = shutil.which(SCRIPT)
    if installed:
        return [installed, *args], None
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        import tomli as tomllib
    with PYPROJECT.open("rb") as fh:
        entry = tomllib.load(fh)["project"]["scripts"][SCRIPT]
    module, attr = entry.split(":")
    code = (f"import sys; sys.argv[0] = {SCRIPT!r}; "
            f"from {module} import {attr}; sys.exit({attr}())")
    return [sys.executable, "-c", code, *args], package_env()


def package_env():
    """The environment with this process's package first on PYTHONPATH."""
    src = str(Path(moment_strata.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def test_console_script_matches_in_process_output(models, capsys):
    """Exit code, stdout and stderr of a report, an input error (a float
    weight) and a mathematical error (sl2 on asymmetric weights)."""
    for argv, exit_code in ((["series", models["l4"]], 0),
                            (["index-set", models["float"]], 2),
                            (["series", "--group", "sl2", models["asym"]], 3)):
        expected = run(capsys, argv)
        assert expected[0] == exit_code
        command, env = console_script(argv)
        proc = subprocess.run(command, capture_output=True, text=True, env=env,
                              timeout=120)
        assert (proc.returncode, proc.stdout, proc.stderr) == expected, argv


# reports on stderr, from an atexit hook, whether the heap was frozen
FREEZE_PROBE = """import atexit, gc, sys
from moment_strata import cli
atexit.register(lambda: print(gc.get_freeze_count() > 0, file=sys.stderr))
sys.exit(cli.run(sys.argv[1:]))"""


def test_run_freezes_the_heap_and_main_leaves_it(models, capsys):
    argv = ["index-set", models["p3"]]
    proc = subprocess.run([sys.executable, "-c", FREEZE_PROBE, *argv],
                          capture_output=True, text=True, env=package_env(),
                          timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "True\n")
    assert proc.stdout == run(capsys, argv)[1]
    assert gc.get_freeze_count() == 0


# ---------------------------------------------------------------------------
# fuzzing the whole command line in process

ENTRY = st.one_of(st.integers(-3, 3),
                  st.builds("{}/{}".format, st.integers(-3, 3), st.integers(1, 3)))


@st.composite
def model_objects(draw):
    """Rank 1 or 2; 1-3 factors of 1-3 weights, or a product of lines; an
    optional `weyl` name; in rank 2, sometimes a positive form."""
    rank = draw(st.integers(1, 2))
    if rank == 1 and draw(st.booleans()):
        factors = [[[1], [-1]]] * draw(st.integers(1, 3))
    else:
        weight = st.lists(ENTRY, min_size=rank, max_size=rank)
        factors = draw(st.lists(st.lists(weight, min_size=1, max_size=3),
                                min_size=1, max_size=3))
    obj = {"rank": rank, "factors": factors}
    weyl = draw(st.sampled_from([None, "sl2", "sl3-torus-weyl"]))
    if weyl is not None:
        obj["weyl"] = weyl
    if rank == 2 and draw(st.booleans()):
        a, b = draw(st.integers(1, 3)), draw(st.integers(-2, 2))
        c = b * b // a + draw(st.integers(1, 3))   # a c > b^2
        obj["form"] = [[a, b], [b, c]]
    return obj


def _polynomial(draw, variables):
    from moment_strata.polynomials import GradedPolynomial

    monomial = st.tuples(*[st.integers(0, 2)] * len(variables))
    coefficient = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    terms = draw(st.dictionaries(monomial, coefficient, max_size=3))
    return str(GradedPolynomial.from_dict(variables, terms))


@st.composite
def cli_cases(draw):
    """(model, point or None, the subcommand and its options): a pairing's
    polynomials are over the variables of the model's presented ring."""
    obj = draw(model_objects())
    command = draw(st.sampled_from(["index-set", "classify", "series", "perturb",
                                    "kirwan", "pairing"]))
    point, rest = None, []
    if command == "classify":
        point = [draw(st.lists(st.integers(-2, 2), min_size=len(fac), max_size=len(fac)))
                 for fac in obj["factors"]]
    elif command == "series":
        rest = ["--trunc", str(draw(st.integers(0, 10))),
                "--group", draw(st.sampled_from(["torus", "sl2"]))]
    elif command == "kirwan":
        rest = ["--max-degree", str(draw(st.integers(0, 6))),
                "--group", draw(st.sampled_from(["torus", "sl2"])),
                "--target", draw(st.sampled_from(["ss", "s"]))]
    elif command == "pairing":
        m = len(obj["factors"])
        variables = ("z",) if m == 1 else tuple(f"z{i + 1}" for i in range(m))
        variables += ("a",)
        rest = [_polynomial(draw, variables), _polynomial(draw, variables),
                "--group", draw(st.sampled_from(["torus", "sl2"]))]
    return obj, point, [command, *rest]


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=150, deadline=None)
@given(case=cli_cases())
def test_every_invocation_reports_or_exits_2_or_3(fuzz_dir, case):
    """Each run exits 0 with a report, 2 with a message and no report (an
    argparse rejection included), or 3 with an error type and witness."""
    obj, point, argv = case
    model_path, point_path = fuzz_dir / "model.json", fuzz_dir / "point.json"
    model_path.write_text(json.dumps(obj))
    argv = [argv[0], str(model_path), *argv[1:]]
    if point is not None:
        point_path.write_text(json.dumps(point))
        argv.insert(2, str(point_path))
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 2, 3), (obj, argv, err)
    if code == 2:
        assert not out and err, (obj, argv)
    else:
        report = json.loads(out)
        if code == 0:
            assert "result" in report
        else:
            assert {"type", "witness"} <= set(report["error"]), report
