"""Cold start: importing bathcool, running the CLI tasks, solving a
covariance and fitting a line load no scipy.

bathcool needs numpy alone; scipy is a test dependency, the reference the
line fit's peak test and least-squares solve are checked against.  Each
check runs in a fresh interpreter, since this one has long since imported
scipy.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import bathcool
from conftest import README_CONFIG

SRC = str(Path(bathcool.__file__).resolve().parent.parent)

# the last line a script prints: the scipy modules it has loaded
SCIPY_LOADED = (
    "import sys\n"
    "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
)


def run_fresh(code: str) -> str:
    """Run ``code`` in a new interpreter that imports bathcool from this
    tree; returns the last line of its stdout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip().splitlines()[-1]


def test_import_loads_no_scipy():
    assert run_fresh("import bathcool, bathcool.cli\n" + SCIPY_LOADED) == "[]"


@pytest.mark.parametrize("task", ["sweep", "optimize"])
def test_full_fidelity_task_loads_no_scipy(tmp_path, task):
    config = tmp_path / f"{task}.ini"
    config.write_text(README_CONFIG.format(task=task))
    args = [task, "--config", str(config), "--fidelity", "full", "--out", str(tmp_path / task)]
    code = f"from bathcool import cli\nassert cli.main({args!r}) == 0\n" + SCIPY_LOADED
    assert run_fresh(code) == "[]"
    assert (tmp_path / f"{task}.summary.json").is_file()


def test_first_line_fit_in_a_fresh_process():
    code = (
        "import numpy as np\n"
        "from bathcool import fit_lorentzian\n"
        "x = np.linspace(-5.0, 5.0, 1001)\n"
        "fit = fit_lorentzian(x, 0.25 / (x**2 + 0.25) + 0.01, (-5.0, 5.0))\n"
        "assert abs(fit.center) <= 1e-9 and abs(fit.fwhm - 1.0) <= 1e-9, fit\n"
    )
    assert run_fresh(code + SCIPY_LOADED) == "[]"


# the README system at C_OM = 7.14, built through the public API
README_SPEC = """
import math
from bathcool import *
two_pi = 2.0 * math.pi
spec = SystemSpec(
    mode_a=MechanicalMode(two_pi * 1e6, two_pi * 1.0, 300.0),
    mode_b=MechanicalMode(two_pi * 1e6, two_pi * 1e3, 300.0),
    cavity=CavityDrive(kappa=two_pi * 3e5, detuning=-two_pi * 1e6, g0=two_pi * 10.0,
                       alpha=math.sqrt(7.14e3 * 3e5) / 2.0 / 10.0),
    coupling=two_pi * 111.8,
)
n = steady_state_occupation(build_full_system(spec), "a")
"""


def test_steady_state_occupation_loads_no_scipy():
    scope = {}
    exec(README_SPEC, scope)
    code = README_SPEC + f"assert n == {scope['n']!r}, n\n" + SCIPY_LOADED
    assert run_fresh(code) == "[]"
