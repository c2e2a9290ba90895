"""Beam-resonator design: map geometry and material onto the toy model.

Two nearly identical quarter-wave arms on a shared support hybridize into
a symmetric mode a (clamping-protected, thermoelastic-damping limited)
and an antisymmetric mode b (clamping-loss limited).  Arm-length
asymmetry epsilon couples them at lambda = epsilon*omega0.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from importlib import resources

from .analytics import cooperativity_ab
from .errors import RegimeError
from .model import CavityDrive, MechanicalMode, SystemSpec

__all__ = [
    "BeamGeometry",
    "Material",
    "LossBudget",
    "DesignReport",
    "load_material",
    "normal_mode_map",
    "cantilever_frequency",
    "clamping_Q",
    "ted_quality_factor",
    "ted_critical_width",
    "design_to_system",
]

# Q_C-F = calibration * (L/h)^2, pinned to the one published
# (geometry, loss) pair: omega0 = 2pi*1.102 MHz, gamma_b = 2pi*140 Hz at
# L/h = 20 um / 0.3 um.
_Q_REF = 1.102e6 / 140.0
_LH_REF = 20.0 / 0.3
DEFAULT_CLAMPING_CALIBRATION = _Q_REF / _LH_REF**2

# critical thermoelastic width at 1 MHz; scales as 1/sqrt(omega)
# (thermal diffusion length).
_H0_REF = 6.546e-3           # m
_OMEGA_REF = 2 * math.pi * 1e6


@dataclass(frozen=True)
class BeamGeometry:
    """Doubly-clamped beam with two quarter-wave arms.

    h is the width/thickness in the vibration direction, w the support
    width.  Lengths in meters.
    """

    L_left: float
    L_right: float
    h: float
    w: float

    def __post_init__(self):
        for name in ("L_left", "L_right", "h", "w"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be > 0")

    @property
    def asymmetry(self) -> float:
        return abs(self.L_left - self.L_right) / (self.L_left + self.L_right)

    @property
    def nominal_length(self) -> float:
        return (self.L_left + self.L_right) / 2.0


@dataclass(frozen=True)
class Material:
    """Elastic/thermal constants used by the loss formulas."""

    youngs_modulus: float    # Pa
    density: float           # kg/m^3
    tec: float               # 1/K, thermal expansion coefficient
    heat_capacity_vol: float  # J/(m^3 K)
    name: str = "custom"

    def __post_init__(self):
        for f in ("youngs_modulus", "density", "tec", "heat_capacity_vol"):
            if not getattr(self, f) > 0:
                raise ValueError(f"{f} must be > 0")


@dataclass(frozen=True)
class LossBudget:
    """Per-channel damping summary of a designed beam."""

    omega0: float
    gamma_clamp: float
    gamma_ted: float
    Q_clamp: float
    Q_ted: float
    coupling: float  # lambda = epsilon*omega0


@dataclass(frozen=True)
class DesignReport:
    """Everything design_to_system derives from a geometry."""

    system: SystemSpec
    budget: LossBudget
    epsilon: float
    C_ab: float
    warnings: tuple


def _materials_db() -> dict:
    text = resources.files("bathcool").joinpath("data/materials.json").read_text()
    return json.loads(text)


def load_material(name: str) -> Material:
    """Load a named material from the shipped database."""
    db = _materials_db()
    try:
        entry = db[name]
    except KeyError:
        raise KeyError(
            f"unknown material {name!r}; available: {', '.join(sorted(db))}"
        ) from None
    return Material(name=name, **entry)


def normal_mode_map(omega_L: float, omega_R: float) -> tuple:
    """Hybridize the two arm modes: returns (omega0, epsilon, lambda).

    omega0 = (omega_L + omega_R)/2, epsilon = |omega_L - omega_R| /
    (omega_L + omega_R), lambda = epsilon*omega0.  The symmetric mode is
    (a_L + a_R)/sqrt(2), the antisymmetric (a_L - a_R)/sqrt(2).
    """
    if not (omega_L > 0 and omega_R > 0):
        raise ValueError("arm frequencies must be > 0")
    omega0 = (omega_L + omega_R) / 2.0
    epsilon = abs(omega_L - omega_R) / (omega_L + omega_R)
    return omega0, epsilon, epsilon * omega0


def cantilever_frequency(L: float, h: float, material: Material) -> float:
    """Fundamental clamped-free flexural frequency estimate (rad/s).

    Euler-Bernoulli quarter-wave mode: omega = 1.875^2 * (h/L^2) *
    sqrt(E/(12*rho)).  An estimate of the finite-element value, good to
    ~10% for slender beams (L/h >= 10).
    """
    if not (L > 0 and h > 0):
        raise ValueError("L and h must be > 0")
    return 1.875**2 * (h / L**2) * math.sqrt(
        material.youngs_modulus / (12.0 * material.density)
    )


def clamping_Q(L: float, h: float) -> float:
    """Clamping-loss quality factor of a clamped-free beam: c*(L/h)^2.

    The calibration c = DEFAULT_CLAMPING_CALIBRATION (~1.77) reproduces
    the published datapoint Q ~= 7.87e3 at L/h = 66.7.
    """
    if not (L > 0 and h > 0):
        raise ValueError("L and h must be > 0")
    return DEFAULT_CLAMPING_CALIBRATION * (L / h) ** 2


def ted_critical_width(omega: float) -> float:
    """Critical thermoelastic beam width h0 at angular frequency omega.

    6.546 mm at 1 MHz, scaling as omega^-1/2 with the thermal diffusion
    length.
    """
    if not omega > 0:
        raise ValueError("omega must be > 0")
    return _H0_REF * math.sqrt(_OMEGA_REF / omega)


def ted_quality_factor(
    material: Material, temperature: float, h: float, omega: float
) -> float:
    """Thermoelastic-damping quality factor in the thin-beam limit.

    Q_TED = C_p / (E * alpha^2 * T * f) with f = 5*(h/h0)^2, valid for
    h <= 0.1*h0(omega).
    """
    if not temperature > 0:
        raise ValueError("temperature must be > 0")
    h0 = ted_critical_width(omega)
    if h > 0.1 * h0:
        raise RegimeError(
            f"h = {h:g} m exceeds the thin-beam limit 0.1*h0 = {0.1 * h0:g} m "
            f"(h0 = {h0:g} m at this frequency)"
        )
    f = 5.0 * (h / h0) ** 2
    e = material.youngs_modulus
    return material.heat_capacity_vol / (e * material.tec**2 * temperature * f)


def design_to_system(
    geometry: BeamGeometry, material: Material, temperature: float, cavity: CavityDrive
) -> DesignReport:
    """Compose the beam design into a SystemSpec plus its loss budget.

    Mode a (symmetric) is thermoelastic-damping limited, mode b
    (antisymmetric) clamping-loss limited; the asymmetry provides
    lambda = epsilon*omega0.  Mass is estimated as the total beam mass
    (rho * (L_L + L_R) * h * w); it only scales the dimensional force
    noise.
    """
    omega_l = cantilever_frequency(geometry.L_left, geometry.h, material)
    omega_r = cantilever_frequency(geometry.L_right, geometry.h, material)
    omega0, epsilon, lam = normal_mode_map(omega_l, omega_r)

    q_clamp = clamping_Q(geometry.nominal_length, geometry.h)
    q_ted = ted_quality_factor(material, temperature, geometry.h, omega0)
    gamma_b = omega0 / q_clamp
    gamma_a = omega0 / q_ted

    warnings = []
    if geometry.nominal_length / geometry.h < 10:
        warnings.append("beam not slender (L/h < 10): frequency estimate unreliable")
    if epsilon == 0.0:
        warnings.append("no export channel: epsilon = 0 gives lambda = 0")
    if gamma_a > gamma_b:
        warnings.append("mode-a not weakly damped: gamma_a > gamma_b")
    if lam > 0 and gamma_a > lam:
        warnings.append("weak-coupling hierarchy violated: gamma_a > lambda")

    mass = material.density * (geometry.L_left + geometry.L_right) * geometry.h * geometry.w
    spec = SystemSpec(
        mode_a=MechanicalMode(omega0, gamma_a, temperature),
        mode_b=MechanicalMode(omega0, gamma_b, temperature),
        cavity=cavity,
        coupling=lam,
        mass_a=mass,
    )
    budget = LossBudget(
        omega0=omega0,
        gamma_clamp=gamma_b,
        gamma_ted=gamma_a,
        Q_clamp=q_clamp,
        Q_ted=q_ted,
        coupling=lam,
    )
    return DesignReport(
        system=spec,
        budget=budget,
        epsilon=epsilon,
        C_ab=cooperativity_ab(spec),
        warnings=tuple(warnings),
    )
