import math

import numpy as np
import pytest

from bathcool import CavityDrive, MechanicalMode, SystemSpec

TWO_PI = 2.0 * math.pi

# the README "Command line" system, as a config for any task but design
README_CONFIG = """
[run]
task = {task}

[system]
omega_a_hz = 1e6
gamma_a_hz = 1.0
omega_b_hz = 1e6
gamma_b_hz = 1e3
lambda_hz = 111.8
temperature_k = 300
mass_a_kg = 1e-12

[cavity]
kappa_hz = 3e5
detuning_hz = -1e6
g0_hz = 10
"""

if not hasattr(np, "trapezoid"):  # numpy < 2 names the trapezoidal rule trapz
    np.trapezoid = np.trapz


def make_spec(
    c_ab=50.0,
    gamma_a_hz=1.0,
    gamma_b_hz=1e3,
    omega_hz=1e6,
    delta_b_hz=0.0,
    kappa_hz=3e5,
    temperature=300.0,
    c_om=None,
    g0_hz=10.0,
    mass=1e-12,
):
    """System with the requested cooperativities (frequencies in Hz)."""
    lam_hz = math.sqrt(c_ab * gamma_a_hz * gamma_b_hz) / 2.0
    if c_om is None:
        alpha = 0.0
    else:
        gamma_opt = TWO_PI * c_om * gamma_b_hz
        alpha = math.sqrt(gamma_opt * TWO_PI * kappa_hz) / 2.0 / (TWO_PI * g0_hz)
    return SystemSpec(
        mode_a=MechanicalMode(TWO_PI * omega_hz, TWO_PI * gamma_a_hz, temperature),
        mode_b=MechanicalMode(
            TWO_PI * (omega_hz + delta_b_hz), TWO_PI * gamma_b_hz, temperature
        ),
        cavity=CavityDrive(
            kappa=TWO_PI * kappa_hz,
            detuning=-TWO_PI * (omega_hz + delta_b_hz),
            g0=TWO_PI * g0_hz,
            alpha=alpha,
        ),
        coupling=TWO_PI * lam_hz,
        mass_a=mass,
    )


@pytest.fixture
def spec50():
    return make_spec(c_ab=50.0)
