"""bathcool: cooling a mechanical mode by optomechanically modifying its bath.

A simulator and design toolkit for the coupled-oscillator cooling scheme:
closed-form rotating-wave analytics, an exact linear-Langevin
frequency-domain solver, parameter sweeps/optimization, and the
beam-resonator design formulas that realize the scheme.
"""

__version__ = "0.1.0"

from .analytics import (
    CoolingSummary,
    ForceNoiseResult,
    RegimeFlags,
    chi_a,
    chi_b,
    cooling_limit_ratio,
    cooling_summary,
    cooperativity_ab,
    force_noise_psd,
    induced_damping,
    mode_a_response,
    n_eff_closed_form,
    narrowed_linewidth,
    optical_damping,
    optimal_cooperativity,
    optomechanical_cooperativity,
)
from .design import (
    BeamGeometry,
    DesignReport,
    LossBudget,
    Material,
    cantilever_frequency,
    clamping_Q,
    clamping_gamma_quasimode,
    design_to_system,
    load_material,
    normal_mode_map,
    ted_critical_width,
    ted_quality_factor,
)
from .model import (
    CavityDrive,
    DriftModel,
    MechanicalMode,
    SystemSpec,
    ThermalBathSpec,
    build_full_system,
    build_rwa_system,
    effective_temperature,
    intracavity_amplitude,
    is_stable,
    stability_eigenvalues,
    thermal_occupation,
)
from .spectra import (
    FrequencyGrid,
    LorentzFit,
    SpectrumResult,
    fit_lorentzian,
    force_spectrum_numeric,
    integrate_occupation,
    make_grid,
    position_spectrum,
    steady_state_occupation,
    steady_state_occupations,
    susceptibility_matrix,
)
from .sweeps import SweepResult, find_optimum, sweep_cooperativity, sweep_detuning
