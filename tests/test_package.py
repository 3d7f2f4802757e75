"""The package surface: lazily resolved exports, the modules each CLI
subcommand loads in a fresh interpreter, imports that are all used, and
checks that survive python -O."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import moment_strata

PACKAGE = Path(moment_strata.__file__).resolve().parent

EXPORTS = [
    "BilinearForm", "CriticalComponent", "EpsilonProposal",
    "EpsilonSearchFailed", "FlagAmbiguity", "GradedPolynomial",
    "IndexStratum", "KernelIdeal", "MomentStrataError", "NotCoprimeStable",
    "NotDivisible", "PerfectionReport", "Presentation", "ProfileClass",
    "ProjectionCertificate", "RefinementReport", "RefinementViolation",
    "StratumLabel", "TruncatedSeries", "TruncationTooSmall",
    "VerificationFailed", "WeightedModel", "WeylGroup",
    "WeylSymmetryRequired", "affine_p1",
    "betti_from_presentation", "classify_binary_form",
    "classify_p1_config", "classify_p2_config", "classify_profile",
    "closest_point_to_origin", "component_variables", "config_of",
    "critical_components", "divide_exact", "euler_class",
    "fixed_components", "identity_form", "in_relation_span", "index_betas",
    "index_set", "infinity_p1", "is_generic", "is_semistable", "is_stable",
    "kernel_by_pairing", "line_product_model", "line_product_presentation",
    "model_equivariant_series", "morse_label_of_config", "origin_in_hull",
    "origin_in_interior", "perfection_check", "perturbed_model",
    "polynomial_division", "profile_of_point", "proj_point",
    "projective_space_model", "projective_space_presentation",
    "propose_epsilon", "quotient_poincare_polynomial",
    "quotient_top_degree", "random_special_linear", "raw_residue_sum",
    "refinement_report", "residue_pairing", "restrict_to_component",
    "restrict_to_subspace", "restriction_matrix", "semistable_series",
    "shifted_submodel", "sl2_kernel_ideal", "sl2_quotient_series",
    "sl2_weyl", "sl3_torus_weyl", "stratum_codim",
    "strictly_semistable_witness", "thom_gysin_lift",
    "tolman_weitsman_kernel", "torus_kernel_ideal", "torus_strata",
    "transform_config", "two_sided_kernel_report", "weighted_model",
    "weyl_kernel_bijection_report",
]


def _child(code, *args, cwd=None):
    """Run code in a fresh interpreter on this package; its stdout as JSON."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(PACKAGE.parent), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code, *args], cwd=cwd,
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


# ---------------------------------------------------------------------------
# lazy exports


def test_all_is_the_pinned_export_list():
    assert len(EXPORTS) == 85
    assert sorted(moment_strata.__all__) == EXPORTS


def test_exports_are_the_defining_module_bindings():
    for name in EXPORTS:
        obj = getattr(moment_strata, name)
        assert obj is getattr(sys.modules[obj.__module__], name), name


def test_dir_lists_the_exports():
    listed = dir(moment_strata)
    assert "__all__" in listed
    assert set(EXPORTS) <= set(listed)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        moment_strata.no_such_name


def test_star_import_binds_every_export():
    names = _child("from moment_strata import *\n"
                   "import json\n"
                   "print(json.dumps(sorted(n for n in dir() "
                   "if not n.startswith('_') and n != 'json')))")
    assert names == EXPORTS


def test_export_is_read_from_the_submodule_on_first_access():
    """A rebinding made in the submodule before the first access is what the
    package returns, as for the benchmark tracer's wrappers."""
    got = _child("import json, moment_strata\n"
                 "from moment_strata import models\n"
                 "models.index_set = 'rebound'\n"
                 "print(json.dumps(moment_strata.index_set))")
    assert got == "rebound"


# ---------------------------------------------------------------------------
# modules each subcommand loads

LOADED = """
import contextlib, io, json, sys
%s
print(json.dumps(sorted(m.split(".", 1)[1] for m in sys.modules
                        if m.startswith("moment_strata."))))
"""

# every module in sys.modules, with the same harness imports as LOADED
ALL_MODULES = """
import contextlib, io, json, sys
%s
print(json.dumps(sorted(sys.modules)))
"""

# `dataclasses` and the `inspect` it imports: no subcommand may load them
CODE_GENERATION = {"dataclasses", "inspect"}

RUN_CLI = """from moment_strata import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:])
assert code == 0, code"""

INDEX_SET = ["cli", "errors", "geometry", "linalg", "models"]
# `pairing` needs only the variable names of a presentation, not `kirwan`,
# and neither reads a quotient's preconditions from `series`
PAIRING = ["cli", "errors", "geometry", "linalg", "models", "polynomials",
           "residues"]
COHOMOLOGY = sorted(PAIRING + ["kirwan"])

INPUTS = {
    "p1.json": {"rank": 1, "factors": [[["1"], ["-1"]]]},
    "point.json": [["1", "1"]],
    "config.json": [[0, 1], [0, 1], [1, 1], [1, 0]],
}

SUBCOMMANDS = [
    (["index-set", "p1.json"], INDEX_SET),
    (["classify", "p1.json", "point.json"], INDEX_SET),
    (["series", "--trunc", "4", "p1.json"], sorted(INDEX_SET + ["series"])),
    (["perturb", "p1.json"], sorted(INDEX_SET + ["perturb"])),
    (["config", "config.json", "--family", "p1"],
     ["cli", "configs", "errors", "linalg"]),
    (["kirwan", "--max-degree", "2", "p1.json"], COHOMOLOGY),
    (["pairing", "p1.json", "z", "1"], PAIRING),
]


def test_package_import_loads_no_submodule():
    assert _child(LOADED % "import moment_strata") == []


def test_cli_import_loads_only_errors():
    assert _child(LOADED % "import moment_strata.cli") == ["cli", "errors"]


@pytest.fixture(scope="module")
def bare_modules():
    """What a bare `import sys` child of this environment has loaded."""
    loaded = set(_child(ALL_MODULES % "import sys"))
    assert not loaded & CODE_GENERATION
    return loaded


@pytest.mark.parametrize("argv,modules", SUBCOMMANDS,
                         ids=[case[0][0] for case in SUBCOMMANDS])
def test_subcommand_loads_only_what_it_runs(tmp_path, bare_modules, argv, modules):
    for name, obj in INPUTS.items():
        (tmp_path / name).write_text(json.dumps(obj))
    loaded = _child(ALL_MODULES % RUN_CLI, *argv, cwd=tmp_path)
    assert [m.split(".", 1)[1] for m in loaded if m.startswith("moment_strata.")] == modules
    assert not (set(loaded) - bare_modules) & CODE_GENERATION


def test_no_library_module_imports_dataclasses():
    """Records are NamedTuples or __slots__ classes: `dataclasses` would
    import `inspect` and generate code for every record on a cold start."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            found += [(path.name, node.lineno) for name in names
                      if name.split(".")[0] == "dataclasses"]
    assert not found


def _process_exits(path):
    """(function, call) for each use of `gc.freeze`, `gc.disable` or
    `os._exit` in a module, by attribute or by name imported from the
    module; the function is the innermost enclosing one, or None."""
    banned = {("gc", "freeze"), ("gc", "disable"), ("os", "_exit")}
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and (node.value.id, node.attr) in banned):
            found.append((function, f"{node.value.id}.{node.attr}"))
        elif isinstance(node, ast.ImportFrom):
            found.extend((function, f"{node.module}.{alias.name}")
                         for alias in node.names if (node.module, alias.name) in banned)
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(path.read_text()), None)
    return found


def test_only_the_process_entry_point_touches_the_collector_or_exits():
    """`cli.run` freezes the heap once its report is written; `main` and
    the library leave `gc` alone and never end the process themselves."""
    found = {path.name: uses for path in sorted(PACKAGE.glob("*.py"))
             if (uses := _process_exits(path))}
    assert found == {"cli.py": [("run", "gc.freeze")]}


def test_the_process_exit_check_sees_attributes_and_imported_names(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text("import gc, os\n"
                    "from gc import disable\n"
                    "def f():\n"
                    "    gc.freeze()\n"
                    "    def g():\n"
                    "        os._exit(0)\n"
                    "gc.collect()\n")
    assert _process_exits(path) == [(None, "gc.disable"), ("f", "gc.freeze"),
                                    ("g", "os._exit")]


def _unused_imports(path):
    """Names a module imports, at module or function level, that it never
    reads. Annotations count as reads: they stay in the syntax tree under
    `from __future__ import annotations`."""
    tree = ast.parse(path.read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_every_import_is_used():
    found = {path.name: unused for path in sorted(PACKAGE.glob("*.py"))
             if (unused := _unused_imports(path))}
    assert not found


def test_the_unused_import_check_sees_function_level_and_annotation_names(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text("from __future__ import annotations\n"
                    "import os.path\n"
                    "from typing import Sequence\n"
                    "from .linalg import dot, matrix_rank\n"
                    "def f(xs: Sequence[int]):\n"
                    "    from math import gcd, lcm\n"
                    "    return dot(xs, xs) + lcm(*xs)\n")
    assert _unused_imports(path) == [(2, "os"), (4, "matrix_rank"), (6, "gcd")]


# ---------------------------------------------------------------------------
# checks that python -O keeps


def test_library_has_no_assert_statements():
    found = [(path.name, node.lineno)
             for path in sorted(PACKAGE.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert not found


def _module_memos(path):
    """Names bound at module level to an empty dict or set, and module-level
    functions decorated with lru_cache or cache."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            value = node.value
            empty = ((isinstance(value, ast.Dict) and not value.keys)
                     or (isinstance(value, ast.Call) and not value.args
                         and not value.keywords
                         and getattr(value.func, "id", None) in ("dict", "set")))
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if empty:
                yield from (t.id for t in targets if isinstance(t, ast.Name))
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for dec in node.decorator_list:
                dec = dec.func if isinstance(dec, ast.Call) else dec
                if getattr(dec, "id", getattr(dec, "attr", None)) in ("lru_cache", "cache"):
                    yield node.name


def test_module_level_memos_are_declared():
    """A new global cache must be added here: per-object state (such as the
    kernel layer's Presentation.memo) is the default."""
    found = {f"{path.stem}.{name}" for path in sorted(PACKAGE.glob("*.py"))
             for name in _module_memos(path)}
    assert found == {"models._MEMO"}
