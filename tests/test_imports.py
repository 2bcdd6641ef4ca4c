"""bernmix loads numpy and the standard library only; scipy is for tests.

No module under src/bernmix imports scipy (an AST scan of every import
statement), and no code path loads it: a fresh `bernmix` process, every
scenario law, sampler and truth, the kernel and parametric baselines with
the ISE quadrature on every scenario (the normal law included: its CDF is
math.erfc), the population fit and the acceptance-rejection diagnostic.
Module names are checked, not import time, so the test does not depend on
the speed of the machine.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _scipy_modules_after(code):
    """Sorted names of the scipy modules loaded once code runs in a fresh process."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    probe = code + "\nimport sys\nprint(sorted(k for k in sys.modules if k.split('.')[0] == 'scipy'))\n"
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return ast.literal_eval(proc.stdout.strip())


@pytest.mark.parametrize("module", ["bernmix", "bernmix.cli"])
def test_import_loads_no_scipy(module):
    assert _scipy_modules_after(f"import {module}") == []


def test_scenarios_without_the_normal_law_load_no_scipy():
    code = """
from bernmix.sim import SCENARIO_TAGS, ScenarioSpec, generate, scenario_distribution, true_unit_pdf

for tag in SCENARIO_TAGS:
    if tag != "normal01":
        scenario_distribution(tag)
        spec = ScenarioSpec(tag, n=50, n_cells=5)
        generate(spec, 0)
        true_unit_pdf(spec)([0.0, 0.5, 1.0])
"""
    assert _scipy_modules_after(code) == []


def test_baselines_and_ise_load_no_scipy():
    code = """
from bernmix.sim import ScenarioSpec, mise

spec = ScenarioSpec("exp1", n=60, n_cells=8, replicates=2, seed=3)
for estimator in ("kernel", "parametric"):
    mise(spec, estimator)
"""
    assert _scipy_modules_after(code) == []


def test_no_code_path_loads_scipy():
    code = """
from bernmix.sim import (
    SCENARIO_TAGS, ScenarioSpec, acceptance_rejection_diag, best_mixture_approximation,
    generate, mise, scenario_distribution, true_unit_pdf,
)

for tag in SCENARIO_TAGS:
    scenario_distribution(tag)
    spec = ScenarioSpec(tag, n=40, n_cells=6, replicates=2, seed=5)
    generate(spec, 0)
    true_unit_pdf(spec)([0.0, 0.5, 1.0])
    for estimator in ("kernel", "parametric", "truth"):
        mise(spec, estimator)
pdf = true_unit_pdf(ScenarioSpec("normal01", n=1, n_cells=1))
acceptance_rejection_diag(pdf, best_mixture_approximation(pdf, 4), n=200, seed=1)
"""
    assert _scipy_modules_after(code) == []


def _imported_roots(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_no_module_imports_scipy():
    sources = sorted((ROOT / "src" / "bernmix").rglob("*.py"))
    assert sources
    offenders = [
        path.name
        for path in sources
        if "scipy" in _imported_roots(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert offenders == []
