"""Source checks that keep the library's conventions."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "fairclf").glob("*.py"))


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "cli.py"], ids=lambda p: p.name)
def test_library_logs_instead_of_printing(path):
    # only the command-line front end writes to stdout; library modules log
    tree = ast.parse(path.read_text(), filename=str(path))
    calls = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "print"
    ]
    assert not calls, f"{path.name} calls print on lines {calls}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_exported_names_exist(path):
    # a deleted name must not linger in a module's __all__
    name = "fairclf" if path.stem == "__init__" else f"fairclf.{path.stem}"
    module = importlib.import_module(name)
    missing = [export for export in getattr(module, "__all__", ()) if not hasattr(module, export)]
    assert not missing, f"{name}.__all__ names {missing}, which it does not define"


def test_private_helpers_are_used():
    # a module-level _helper that no code in the package names is dead
    defined, used = [], set()
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        defined += [
            f"{path.name}:{node.name}"
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name.startswith("_")
        ]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    unused = [name for name in defined if name.split(":")[1] not in used]
    assert not unused, f"defined but never referenced: {unused}"


def test_one_module_global_the_theta_star_record():
    # a module-level memo makes a call's cost depend on the call before it;
    # the library keeps one, the theta* record that fit_logreg writes
    found = [
        f"{path.name}:{node.lineno}:{','.join(node.names)}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Global)
    ]
    assert len(found) == 1 and found[0].startswith("models.py:") and found[0].endswith(":_theta_star_record"), found


def test_only_the_solvers_import_scipy():
    # scipy's BLAS and LAPACK sit behind the solvers' products and
    # factorisations; every other module reaches them through fairclf.solvers.
    # A module name in a string counts as an import too: the solvers load
    # scipy's compiled modules by name, not by an import statement
    importers = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                names = [node.value]
            else:
                continue
            if any(name == "scipy" or name.startswith("scipy.") for name in names):
                importers.append(f"{path.name}:{node.lineno}")
    assert importers and all(entry.startswith("solvers.py:") for entry in importers), importers


# solve_qp's products on scipy's BLAS, its private helpers and the routines under them
BLAS_NAMES = {"matvec", "rmatvec", "dot", "_matvec", "_rmatvec", "_dot", "ddot", "dgemv", "dgemm", "dsyrk"}


def test_only_the_solvers_name_the_blas():
    # only solve_qp runs on scipy's BLAS pool; every other module multiplies
    # with numpy's @, so no fit hands a product to the pool that solve_qp
    # alone needs
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, (ast.alias, ast.FunctionDef)):
                name = node.name
            else:
                continue
            if name in BLAS_NAMES:
                found.append(f"{path.name}:{getattr(node, 'lineno', '?')}:{name}")
    assert found and all(entry.startswith("solvers.py:") for entry in found), found


def _python(code: str, *args: str) -> str:
    """Run ``code`` with ``args`` in a fresh interpreter that imports fairclf from this tree; its stripped stdout."""
    src = str(SOURCES[0].parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


@pytest.mark.parametrize(
    "module",
    [
        "scipy.optimize",
        "scipy.special",
        "scipy.linalg",
        "scipy._lib.array_api_compat",
        "numpy.f2py",
        "numpy.testing",
        "numpy.ma",
    ],
)
def test_cli_import_leaves_out_scipy_module(module):
    # the solvers load scipy.linalg's compiled BLAS and LAPACK modules alone
    # and the logistic function is numpy's; scipy.linalg's package import
    # clones the numpy namespace (numpy.f2py, numpy.testing, numpy.ma), and
    # any of these modules would add its import time to every command-line
    # start
    assert _python(f"import sys, fairclf.cli; print({module!r} in sys.modules)") == "False"


BLAS_LAPACK = {"blas": ("ddot", "dgemm", "dgemv", "dsyrk"), "lapack": ("dpotrf", "dpotrs")}


@pytest.mark.parametrize("solvers_first", [True, False], ids=["solvers_first", "scipy_first"])
def test_solvers_run_scipys_blas_and_lapack(solvers_first):
    # whichever is imported first, each routine the solvers call is the very
    # object scipy.linalg.blas/lapack export: the fits run the same code, and
    # one copy of each compiled module is loaded
    imports = ["import fairclf.solvers as ours", "import scipy.linalg.blas as blas, scipy.linalg.lapack as lapack"]
    pairs = ", ".join(f"({module}, {name!r})" for module, names in BLAS_LAPACK.items() for name in names)
    code = "\n".join(
        (imports if solvers_first else imports[::-1])
        + [
            "import sys",
            f"print([name for module, name in [{pairs}] if getattr(ours, name) is not getattr(module, name)])",
            "print(ours._fblas is blas._fblas is sys.modules['scipy.linalg._fblas'],"
            " ours._flapack is lapack._flapack is sys.modules['scipy.linalg._flapack'])",
        ]
    )
    assert _python(code).splitlines() == ["[]", "True True"]


def test_missing_linalg_extension_names_its_path():
    from fairclf.solvers import _linalg_extension

    with pytest.raises(ImportError, match=r"scipy\.linalg\._no_such_module: no compiled module _no_such_module\.\* in .*linalg"):
        _linalg_extension("_no_such_module")


NO_IMPORT_SCRIPT = """
import json, sys
from pathlib import Path
import fairclf.cli
before = set(sys.modules)

import numpy as np
from fairclf.cli import cli_main
from fairclf.data import append_bias
from fairclf.models import (
    FitSpec, KernelSpec, fit_kernel_svm_fair, fit_linear_svm_fair, fit_logreg, fit_logreg_fair,
    fit_logreg_fairness_max, fit_logreg_fine_grained, protected_rows,
)
from fairclf.synth import SynthConfig, gen_linear_synthetic

ds = append_bias(gen_linear_synthetic(SynthConfig(n=200, phi=np.pi / 4, seed=3)))
base = fit_logreg(ds, FitSpec(mode="unconstrained"))
fit_logreg_fair(ds, FitSpec(mode="fairness_constrained", covariance_thresholds=0.1))
fit_logreg_fairness_max(ds, FitSpec(mode="accuracy_constrained", gamma=0.5))
protected = protected_rows(base, ds, group=1)
fit_logreg_fine_grained(ds, FitSpec(mode="fine_grained", per_point_gammas=np.full(ds.n, 0.5), protected_index_set=protected))
fair = {"mode": "fairness_constrained", "covariance_thresholds": 0.1, "svm_cost": 1.0}
fit_linear_svm_fair(ds, FitSpec(**fair))
fit_kernel_svm_fair(ds, FitSpec(kernel=KernelSpec(kind="rbf"), **fair))

config, out = Path(sys.argv[1]), Path(sys.argv[2])
payload = json.loads(config.read_text())
payload["dataset"]["n"], payload["split"]["repeats"] = 300, 1
edited = out.parent / config.name
edited.write_text(json.dumps(payload))
assert cli_main(["sweep", "--config", str(edited), "--out", str(out)]) == 0
print(sorted(set(sys.modules) - before))
"""


def test_fits_and_sweep_import_nothing(tmp_path):
    # everything a fit or a sweep needs is loaded by ``import fairclf.cli``: a
    # module imported on first use would add its import time to the first
    # fit of every process (numpy 2.4's np.unique imports numpy.ma)
    config = SOURCES[0].parents[2] / "experiments" / "synthetic" / "fine_grained_lr.json"
    assert _python(NO_IMPORT_SCRIPT, str(config), str(tmp_path / "out")).splitlines()[-1] == "[]"
