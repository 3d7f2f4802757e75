"""Golden digests of CLI reports on a fast corpus of models.

Each case runs `cli.main` in-process from a fixed working directory and
compares its exit code and the sha256 of its stdout with a recorded value.
A refactor must leave every digest unchanged; an intended output change
updates the digest here and says why in CHANGES.md.
"""

import hashlib
import json

import pytest

from moment_strata import cli


def _lines(n):
    return [[["1"], ["-1"]]] * n


def _pn(n):
    return [[[str(w)] for w in range(n, -n - 1, -2)]]


_A2 = [["1", "0"], ["0", "1"], ["-1", "-1"]]
_R3 = [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"], ["-1", "-1", "-1"]]

MODELS = {
    "p1s": {"rank": 1, "factors": _pn(1), "weyl": "sl2"},
    "p2asym": {"rank": 1, "factors": [[["2"], ["1"], ["-1"]]]},
    "p3": {"rank": 1, "factors": _pn(3)},
    "p3rep": {"rank": 1, "factors": [[["1"], ["1"], ["-1"], ["-1"]]]},
    "p4": {"rank": 1, "factors": _pn(4)},
    "p5": {"rank": 1, "factors": _pn(5)},
    "p5s": {"rank": 1, "factors": _pn(5), "weyl": "sl2"},
    "p6": {"rank": 1, "factors": _pn(6)},
    "l3": {"rank": 1, "factors": _lines(3)},
    "l3s": {"rank": 1, "factors": _lines(3), "weyl": "sl2"},
    "l4": {"rank": 1, "factors": _lines(4)},
    "l4s": {"rank": 1, "factors": _lines(4), "weyl": "sl2"},
    "l5": {"rank": 1, "factors": _lines(5)},
    "l5s": {"rank": 1, "factors": _lines(5), "weyl": "sl2"},
    "l6": {"rank": 1, "factors": _lines(6)},
    "l6s": {"rank": 1, "factors": _lines(6), "weyl": "sl2"},
    "l7": {"rank": 1, "factors": _lines(7)},
    "p1d": {"rank": 1, "factors": _pn(1)},
    # rational, zero and non-integral weights for the presented-ring kernels
    "p3half": {"rank": 1, "factors": [[["3/2"], ["1/2"], ["-1/2"], ["-3/2"]]]},
    "p4zero": {"rank": 1, "factors": [[["2"], ["1"], ["0"], ["-1"], ["-2"]]]},
    "p3rat": {"rank": 1, "factors": [[["5/2"], ["1/3"], ["-1"], ["-2"]]]},
    # two zero weights: a fixed component of size 2 with moment value 0
    "p5flat": {"rank": 1,
               "factors": [[["3"], ["1/2"], ["0"], ["0"], ["-1"], ["-7/3"]]]},
    "l8": {"rank": 1, "factors": _lines(8)},
    "a2x2": {"rank": 2, "factors": [_A2, _A2]},
    "a2x3": {"rank": 2, "factors": [_A2, _A2, _A2]},
    "r3": {"rank": 3, "factors": [_R3, _R3]},
    # weights with denominators 2 and 3, a zero and a repeated weight, and a
    # non-identity rational form: the cases that clear denominators
    "rat2form": {"rank": 2,
                 "factors": [[["1/2", "0"], ["0", "1/3"], ["-1/2", "-1/3"],
                              ["0", "0"]],
                             [["1", "1/2"], ["-1/3", "0"], ["0", "-1"],
                              ["-1/3", "0"]]],
                 "form": [["2", "1"], ["1", "3/2"]]},
    # input errors: a float weight (exit 2), asymmetric sl2 weights (exit 3)
    "float": {"rank": 1, "factors": [[[1.5], [-1]]]},
    "asym": {"rank": 1, "factors": [[[2], [0], [-1]]], "weyl": "sl2"},
}

# point files for `classify`, one coordinate array per factor
POINTS = {
    "r3pt": [["1", "0", "2", "3"], ["0", "5", "0", "1"]],
    "rat2pt": [["1", "0", "2", "0"], ["0", "3", "0", "1"]],
}

# configuration files for `config`: the worked P^1 (T,2), binary-form and
# P^2 (T1) cases of the benchmark inputs
CONFIGS = {
    "p1t2": [[0, 1], [0, 1], [1, 1], [1, 0]],
    "binb": [[0, 1], [0, 1], [0, 1], [1, 1], [2, 1], [1, 0]],
    "p2t1": [[1, 0, 0], [1, 0, 0]] + [[0, 1, k] for k in range(4)],
}

# (argv with model names in place of files, exit code, sha256 of stdout)
CASES = [
    (["index-set", "p6"], 0,
     "dd768fecea94b85b2a04c9279917b29351a95801436e1f65a5263b272c254272"),
    (["index-set", "a2x2"], 0,
     "b0725321da5304fd28372824a8fc8cadca96e152856ea988bb196abc7c766d02"),
    (["series", "--trunc", "16", "p6"], 0,
     "20a4f68f29f2da2db2b1886a60d449859ea3ead41a31491aa81f8773115e4f31"),
    (["series", "--trunc", "16", "l4"], 0,
     "8fa2b2ae2c1229f1eb241a78a78158f8b73717bc6436045eef6357a470734519"),
    (["series", "--trunc", "16", "--group", "sl2", "p5s"], 0,
     "cce1c81db3f514aad99144144c8b071227d4f6acb495617ee33b7adf1a0b8795"),
    (["series", "--trunc", "16", "--group", "sl2", "l5s"], 0,
     "aac31cf90d5714f28f308573c4de2cc0e82f04f83c27976d210304e0a1c988ad"),
    (["series", "--trunc", "8", "--group", "sl2", "p1s"], 0,
     "fa5ec76396c982e4a2623e49b24aee465978082c6d52be6c1a31d9cecdb9156c"),
    (["perturb", "p4"], 0,
     "0d032319fa4fefb705f0f17d653174dbf632e0e2547947dbad0ccaf4e4681b3a"),
    (["perturb", "l3"], 0,
     "7ecbfc56129ff9b05884c9e89b2fe1d2f5439483bbfee917358495d9b1d6b9a5"),
    (["kirwan", "--group", "sl2", "--max-degree", "6", "p3"], 0,
     "e6fd546c609839d707c233b22d565e9c459b16437d6c6b081248cf848f9655e1"),
    (["kirwan", "--group", "sl2", "--max-degree", "6", "l3s"], 0,
     "37b7f9d009423fa4b2d2789485a0c943fdca0f65bd1b92e19bde632e0b504b99"),
    (["kirwan", "--group", "sl2", "--max-degree", "6", "p2asym"], 3,
     "2d46186b7c83c0b18118500950a313dcccd4007da6f7efdd60c9494fdd6fae35"),
    (["pairing", "l3", "z1*z2", "1"], 0,
     "66240b935f5d70e5c85fcbfff1afcef01573db435639117b1b055d7b8a45c7e6"),
    # torus kirwan: restriction to fixed components and the two-sided kernel
    (["kirwan", "--max-degree", "8", "p4"], 0,
     "56fb8f8da1a401f9c85eb1f6b184387e44c5af537b1219a2cb664b34159519f4"),
    (["kirwan", "--max-degree", "8", "l3"], 0,
     "3ff183ee06894fcfe1c79cfd850e684a90b2bf7a57637641cae4b7c1a67c86ab"),
    # repeated weights: fixed components of size 2, truncated at h^2
    (["kirwan", "p3rep"], 0,
     "5ebff4ee471c9671d816da7f5f92fcbc1f85145c659c344141e9f1fb7c4407b2"),
    (["kirwan", "--group", "sl2", "--target", "s", "l4s"], 0,
     "1afd8a0ad03cc919ca6cb2251bc29012980a83490f2ffb73e0b6d307527b2190"),
    (["pairing", "p5", "z^2", "z^2"], 0,
     "29b8594ef155a974cbc5404815c65e709344b9ce17489c89bc046f0ab0b2e96f"),
    (["pairing", "--group", "sl2", "l5s", "z1", "z2"], 0,
     "3775676aa207168275b9ed312800e7782b85a4ffd90622d72887f51559f8dfb7"),
    (["pairing", "--group", "sl2", "l5s", "a", "a"], 0,
     "3a06543aee54ce52218a631e22f88fb54f84077a1b1df198174f962daedd2f33"),
    # rank 3 and the triple A2 sum: nearest points beyond the planar case
    (["index-set", "r3"], 0,
     "838f3cae6c780933b7d44249da686bdb6c4e819f71dca3a5acd16c6ff62267bf"),
    (["classify", "r3", "r3pt"], 0,
     "e17a9bc3780fecbd7fd770551a10ee8e8e5d3693ef4ab742ea73d6676d52139f"),
    (["index-set", "a2x3"], 0,
     "a2434fc845b767a3727f261c302e985f43c0339da19d85b6e2ed3fbafb1911a2"),
    (["perturb", "a2x2"], 0,
     "de7c00eb8e14ff55cfb3ead3cc94c43239642e4b10bb95c20f3756dec39f7382"),
    # submodels equal up to factor and weight order share one node, which
    # strata_checked (11 and 12) counts
    (["series", "a2x2"], 0,
     "8ef9f4d1bcc481d5aee616593dd7219acb42bfda0581d9da65faf7c3e76d6cc2"),
    (["series", "a2x3"], 0,
     "bdb419c0536e4c5d3f0b1fdd757080d683cc31e0a429a607b5fdcbdf28466f14"),
    # configuration classifiers, one per family
    (["config", "p1t2", "--family", "p1"], 0,
     "0335934e9bf2d58a854124dceff92657c004634bd501d964f7d48b88d65be559"),
    (["config", "binb", "--family", "binary"], 0,
     "7dec6dd9ca41876b21b9fcc3b49c814ea50f84f2232b26c829e225c5540dce44"),
    (["config", "p2t1", "--family", "p2"], 0,
     "97e76a3f6cfebca2a4c836d2660b3db18b5a3ad23814502fb865d52bd174bc6d"),
    # kernels in the presented ring: larger line products, rational and zero
    # weights, and a high degree on P^1
    (["kirwan", "l5"], 0,
     "3510083e5c7581b5eae5f6f0af726c647ff72461b276116748cdf2729a51cafc"),
    (["kirwan", "--group", "sl2", "--target", "s", "--max-degree", "10", "l6s"], 0,
     "8c4fb9e52021db4b2a9ecf6898f38efddef3c5ccc39f15c007728a8921ceaac8"),
    # line products to high degrees, where each span is built from the rows
    # of the degree below and any growth of those rows compounds
    (["kirwan", "--max-degree", "12", "l6"], 0,
     "77719fdee88f4c320e6b464ef3bbc4bc9f36721b5728f4e6230d7bff04789bf3"),
    (["kirwan", "--max-degree", "14", "l7"], 0,
     "a4ac44583141cb6ab56da11f43812d7148f9a2b3b341823baaeb0a839d15d983"),
    (["kirwan", "--group", "sl2", "--max-degree", "12", "l6s"], 0,
     "9a23490dcf9c5c0a61fe43d62d4454afd03b8daa0b04b857795e2ec9adf6c221"),
    (["kirwan", "p3half"], 0,
     "bcd38d968d2190137f1c878566d47aeeaa81abff04094923c869e84a090aa9eb"),
    (["kirwan", "--group", "sl2", "p3half"], 0,
     "ffdbed70cdb14d5d133973184bc554c12587d4d3f9175f0a0894802426373d48"),
    (["kirwan", "--group", "sl2", "p4zero"], 0,
     "8757243df50ffc509d294cc25fe82606d490ea6a7b5156c74e674ce70ad0824a"),
    (["kirwan", "--max-degree", "14", "p3rat"], 0,
     "aabbf3c1526b9348e19e38482fb9bcc0be2d34a5cd6b5333bb68d932d53d730c"),
    (["kirwan", "--max-degree", "200", "p1d"], 0,
     "f666c4786f42cd7a52ac10fc523fd134cb632ecc20d9958c650fee23c8eebc55"),
    # the two-sided kernel where a moment-zero component lies on both sides:
    # an isolated point, then a component of size 2
    (["kirwan", "p4zero"], 0,
     "f5ff3e4cc0d81c416992bbcd9458d05948995041da938fbccd95a70e88d1ff8b"),
    (["kirwan", "--max-degree", "14", "p5flat"], 0,
     "7fe63a743806ecf744bdd1a2064956bb958a52b3bfa0d7467d897997f55d63ef"),
    (["kirwan", "--max-degree", "16", "l8"], 0,
     "4c3a456a5e4b1ba982f88539738023ea0366e67fd24f477ab1c19d82ac69bc70"),
    # stratification on rational weights and a rational form
    (["index-set", "rat2form"], 0,
     "293fe77873366eda6a568a4e0496cae21568413c17a63c6985250d0206195611"),
    (["series", "--trunc", "16", "rat2form"], 0,
     "7ec1540c709520c9c89c2cf7169efd69b23a80e3a0bf47c2bbf7edfdff245f56"),
    (["perturb", "rat2form"], 0,
     "12ee46aafe0375320080ca73444895d33ec6525ecf4e2a62696248616171b778"),
    (["classify", "rat2form", "rat2pt"], 0,
     "32ffdffad805f9022637690cdca1531a4530ef5af74095e19e4149d10d5aad42"),
    (["index-set", "p3rat"], 0,
     "3af2ec4c18632d9e425955af4fbe8fe54a512e660c6a417e341c870782341213"),
    (["series", "p3rat"], 0,
     "2af424e35f2943986ef2c2e84b960163793e96fdabb11237d4c09461934f82fd"),
    (["perturb", "p3rat"], 0,
     "7e703b04eeb066dba896339b471876673d51d8db1c27a33e8ca70c8419f2b34e"),
    # input errors: exit 2 prints nothing to stdout, exit 3 prints the witness
    (["index-set", "float"], 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (["series", "--group", "sl2", "asym"], 3,
     "a105d0fbabb61925063bfc47cb954c7e7c810a79212e658b5ea42697d4100c51"),
]


FILES = {**MODELS, **POINTS, **CONFIGS}


@pytest.fixture
def corpus(tmp_path, monkeypatch):
    for name, obj in FILES.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(obj, sort_keys=True))
    monkeypatch.chdir(tmp_path)


def _argv(argv):
    return [f"{a}.json" if a in FILES else a for a in argv]


@pytest.mark.parametrize("argv,code,digest", CASES,
                         ids=[" ".join(c[0]) for c in CASES])
def test_cli_report_digest(corpus, capsys, argv, code, digest):
    got = cli.main(_argv(argv))
    out = capsys.readouterr().out
    assert got == code
    assert hashlib.sha256(out.encode()).hexdigest() == digest
