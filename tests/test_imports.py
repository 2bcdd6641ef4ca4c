"""The core package and the CLI import numpy and the standard library only.

scipy is loaded by the first call that needs it (the baselines, the ISE
quadrature and the normal01 scenario law, through normal_family), so a
fresh `bernmix` process does not pay for it, and neither does a harness
that only looks up and draws the other scenarios.  Module names are checked, not import time, so the
test does not depend on the speed of the machine.
"""

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
