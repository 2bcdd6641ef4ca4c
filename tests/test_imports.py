"""The core package and the CLI import numpy and the standard library only.

The only scipy function bernmix calls is scipy.special.ndtr, loaded by
normal_family (the normal01 scenario law and the normal parametric fit).
The baselines and the ISE quadrature are numpy: a fresh `bernmix` process
does not load scipy, nor does a harness that scores the kernel and
parametric baselines on any scenario but the normal ones, and the normal
ones load scipy.special without scipy.optimize or scipy.integrate.
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

PROBE = "import sys, {module}; print(sorted(k for k in sys.modules if k.split('.')[0] == 'scipy'))"


@pytest.mark.parametrize("module", ["bernmix", "bernmix.cli"])
def test_import_loads_no_scipy(module):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", PROBE.format(module=module)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


SCENARIO_PROBE = """
import sys
from bernmix.sim import SCENARIO_TAGS, ScenarioSpec, generate, scenario_distribution, true_unit_pdf

for tag in SCENARIO_TAGS:
    if tag != "normal01":
        scenario_distribution(tag)
        spec = ScenarioSpec(tag, n=50, n_cells=5)
        generate(spec, 0)
        true_unit_pdf(spec)([0.0, 0.5, 1.0])
print(sorted(k for k in sys.modules if k.split('.')[0] == 'scipy'))
"""


def test_scenarios_without_the_normal_law_load_no_scipy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", SCENARIO_PROBE],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


BASELINE_PROBE = """
import sys
from bernmix.sim import ScenarioSpec, mise

spec = ScenarioSpec({tag!r}, n=60, n_cells=8, replicates=2, seed=3)
for estimator in ("kernel", "parametric"):
    mise(spec, estimator)
print(sorted(k for k in sys.modules if k.split('.')[0] == 'scipy'))
"""


def _scipy_modules_after(tag):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", BASELINE_PROBE.format(tag=tag)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return ast.literal_eval(proc.stdout.strip())


def test_baselines_and_ise_load_no_scipy():
    assert _scipy_modules_after("exp1") == []


def test_normal_baselines_load_only_scipy_special():
    loaded = set(_scipy_modules_after("normal01"))
    assert "scipy.special" in loaded
    assert not {m for m in loaded if m.startswith(("scipy.optimize", "scipy.integrate"))}
