"""The core package and the CLI import numpy and the standard library only.

scipy is loaded by the first call that needs it (the baselines, the ISE
quadrature and the normal01 scenario CDF), so a fresh `bernmix` process
does not pay for it.  Module names are checked, not import time, so the
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
