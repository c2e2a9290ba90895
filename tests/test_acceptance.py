"""End-to-end acceptance suite.

Each test prints one ``[criterion N] ...: PASS`` or ``FAIL`` line; run
with ``pytest -s tests/test_acceptance.py`` to see them live.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from bathcool import (
    CavityDrive,
    MechanicalMode,
    SystemSpec,
    build_full_system,
    build_rwa_system,
    cantilever_frequency,
    clamping_Q,
    effective_temperature,
    find_optimum,
    force_noise_psd,
    force_spectrum_numeric,
    load_material,
    make_grid,
    optical_damping,
    position_spectrum,
    stability_eigenvalues,
    sweep_cooperativity,
    ted_quality_factor,
    thermal_occupation,
)
from bathcool.spectra import RESIDUAL_TOL, FrequencyGrid

from conftest import TWO_PI, make_spec


@contextmanager
def report(number, label):
    try:
        yield
    except BaseException:
        print(f"[criterion {number}] {label}: FAIL")
        raise
    print(f"[criterion {number}] {label}: PASS")


def full_spec(c_ab):
    """System with lambda = 1e-4 * omega_a and the requested C_ab."""
    return make_spec(
        c_ab=c_ab, gamma_a_hz=40.0 / c_ab, gamma_b_hz=1e3, kappa_hz=3e5
    )


def test_criterion_1_optimum_reproduction():
    with report(1, "optimum reproduction for C_ab in {8, 50, 200}"):
        for c_ab in (8.0, 50.0, 200.0):
            c_expected = math.sqrt(1.0 + c_ab)
            ratio_expected = 2.0 / (1.0 + c_expected)
            spec = full_spec(c_ab)
            nbar = spec.mode_a.nbar

            c_star, n_star = find_optimum(spec, fidelity="rwa")
            assert c_star == pytest.approx(c_expected, rel=1e-3)
            assert n_star / nbar == pytest.approx(ratio_expected, rel=1e-3)

            start = time.monotonic()
            bracket = (0.3 * c_expected, 3.0 * c_expected)
            c_star, n_star = find_optimum(spec, bracket=bracket, fidelity="full")
            elapsed = time.monotonic() - start
            assert c_star == pytest.approx(c_expected, rel=0.05)
            assert n_star / nbar == pytest.approx(ratio_expected, rel=0.05)
            assert elapsed < 60.0


def test_criterion_2_cross_fidelity_agreement():
    with report(2, "full solver matches closed form across a C_OM sweep"):
        # lambda = 3.54e-6 * omega_a; alpha*g0 <= 1e-3 * omega_a at C_OM = 40
        spec = make_spec(c_ab=50.0, gamma_a_hz=0.1, gamma_b_hz=10.0, kappa_hz=1e4)
        c_oms = np.geomspace(0.5, 40.0, 10)
        rwa = sweep_cooperativity(spec, c_oms, fidelity="rwa")
        full = sweep_cooperativity(spec, c_oms, fidelity="full")
        assert all(e is None for e in full.errors)
        assert np.all(np.abs(full.n_eff / rwa.n_eff - 1.0) < 0.05)


def test_criterion_3_linewidth_narrowing():
    with report(3, "fitted FWHM at the optimum is gamma_a*sqrt(51)"):
        spec = make_spec(c_ab=50.0, gamma_a_hz=0.1, gamma_b_hz=10.0, kappa_hz=1e4)
        res = sweep_cooperativity(
            spec, [math.sqrt(51.0)], fidelity="full", fit_lines=True
        )
        expected = spec.mode_a.gamma * math.sqrt(51.0)
        assert res.linewidths[0] == pytest.approx(expected, rel=0.03)


def test_criterion_4_equilibrium_limits():
    with report(4, "decoupled modes thermalize to their baths"):
        quiet = make_spec(c_ab=0.0, c_om=None)
        for build in (build_rwa_system, build_full_system):
            res = position_spectrum(build(quiet), "a")
            assert res.n_eff == pytest.approx(quiet.mode_a.nbar, rel=1e-3)

        # Gamma/kappa = 0.2%: the closed form for mode b drops terms of
        # that order, so keep the drive well inside the adiabatic regime
        driven = make_spec(c_ab=0.0, c_om=2.0, kappa_hz=1e6)
        gamma = optical_damping(driven.cavity.alpha_g0, driven.cavity.kappa)
        model = build_rwa_system(driven)
        res_a = position_spectrum(model, "a")
        assert res_a.n_eff == pytest.approx(driven.mode_a.nbar, rel=1e-3)
        res_b = position_spectrum(model, "b")
        gb = driven.mode_b.gamma
        expected_b = driven.mode_b.nbar * gb / (gb + gamma)
        assert res_b.n_eff == pytest.approx(expected_b, rel=1e-2)


def test_criterion_5_force_noise_reduction():
    with report(5, "force noise factor and 29.1x reduction at the optimum"):
        spec = make_spec(c_ab=50.0, c_om=math.sqrt(51.0))
        gamma = optical_damping(spec.cavity.alpha_g0, spec.cavity.kappa)
        closed = force_noise_psd(spec, gamma, spec.mode_a.bath_temperature)
        assert closed.factor == pytest.approx(1.754, rel=1e-3)

        res = force_spectrum_numeric(build_rwa_system(spec), spec)
        at_res = float(np.interp(spec.mode_a.omega, res.grid.points, res.factor))
        assert at_res == pytest.approx(closed.factor, rel=0.05)

        reduction = 51.0 / closed.factor
        assert reduction == pytest.approx(29.1, rel=0.05)


def test_criterion_6_design_numbers():
    with report(6, "beam design formulas hit the reference numbers"):
        sin = load_material("silicon_nitride")
        omega = cantilever_frequency(20e-6, 0.3e-6, sin)
        assert omega == pytest.approx(TWO_PI * 1.102e6, rel=0.10)
        assert clamping_Q(20e-6, 0.3e-6) == pytest.approx(7.87e3, rel=1e-2)
        assert ted_quality_factor(sin, 300.0, 0.3e-6, TWO_PI * 1e6) > 1e10


def test_criterion_7_randomized_property_suite():
    with report(7, "1000 randomized configurations pass all solver checks"):
        rng = np.random.default_rng(2024)
        for _ in range(1000):
            omega_hz = 10 ** rng.uniform(6, 7)
            gamma_a_hz = 10 ** rng.uniform(-2, 0)
            gamma_b_hz = gamma_a_hz * 10 ** rng.uniform(2, 4)
            c_ab = 10 ** rng.uniform(0, 2)
            c_om = 10 ** rng.uniform(-0.5, 1.3)
            t_a = 10 ** rng.uniform(-1, 3)
            t_b = t_a * 10 ** rng.uniform(-1, 1)
            lam_hz = math.sqrt(c_ab * gamma_a_hz * gamma_b_hz) / 2.0
            alpha = math.sqrt(c_om * gamma_b_hz * 3e5) / 2.0 / 10.0
            spec = SystemSpec(
                mode_a=MechanicalMode(TWO_PI * omega_hz, TWO_PI * gamma_a_hz, t_a),
                mode_b=MechanicalMode(TWO_PI * omega_hz, TWO_PI * gamma_b_hz, t_b),
                cavity=CavityDrive(
                    kappa=TWO_PI * 3e5,
                    detuning=-TWO_PI * omega_hz,
                    g0=TWO_PI * 10.0,
                    alpha=alpha,
                ),
                coupling=TWO_PI * lam_hz,
                mass_a=1e-12,
            )
            model = build_rwa_system(spec)
            assert np.all(stability_eigenvalues(model).real < 0)

            grid = make_grid(model, points_per_linewidth=60, log_points=240)
            # susceptibility residual spot checks
            eye = np.eye(model.dimension)
            for omega in rng.choice(grid.points, size=3, replace=False):
                t = -1j * omega * eye - model.drift
                chi = np.linalg.inv(t)
                rel = np.linalg.norm(t @ chi - eye) / (
                    np.linalg.norm(t) * np.linalg.norm(chi)
                )
                assert rel <= RESIDUAL_TOL

            res = position_spectrum(model, "a", grid=grid)
            assert np.all(res.values >= 0)

            # grid-refinement convergence
            coarse = position_spectrum(model, "a", grid=grid.halved())
            assert abs(coarse.n_eff - res.n_eff) <= 1e-3 * res.n_eff

            # bath-occupation bounds
            n_max = max(
                spec.mode_a.nbar,
                thermal_occupation(spec.mode_b.omega, t_b),
            )
            assert -1e-9 <= res.n_eff <= n_max * 1.005

            # force-noise factor decreases with the cooling rate
            wa, ga = spec.mode_a.omega, spec.mode_a.gamma
            probe = FrequencyGrid(
                points=wa + ga * np.array([-2.0, -1.0, 0.0, 1.0]),
                clusters=((wa, ga),),
            )
            factors = []
            for scale in (0.5, 1.0, 2.0):
                alpha_s = alpha * math.sqrt(scale)
                spec_s = SystemSpec(
                    mode_a=spec.mode_a,
                    mode_b=spec.mode_b,
                    cavity=CavityDrive(
                        kappa=spec.cavity.kappa,
                        detuning=spec.cavity.detuning,
                        g0=spec.cavity.g0,
                        alpha=alpha_s,
                    ),
                    coupling=spec.coupling,
                    mass_a=spec.mass_a,
                )
                f = force_spectrum_numeric(
                    build_rwa_system(spec_s), spec_s, grid=probe
                )
                factors.append(float(f.factor[2]))
            assert factors[0] > factors[1] > factors[2]


def test_criterion_8_ground_state_condition():
    with report(8, "n_eff < 1 at nbar = 2 with C_ab = 16*nbar^2 = 64"):
        omega = TWO_PI * 1e6
        temp = effective_temperature(2.0, omega)
        spec = make_spec(c_ab=64.0, temperature=temp)
        assert spec.mode_a.nbar == pytest.approx(2.0, rel=1e-12)

        c_star, n_star = find_optimum(spec, fidelity="rwa")
        assert n_star == pytest.approx(0.443, rel=1e-2)
        assert n_star < 1.0
        assert c_star == pytest.approx(math.sqrt(65.0), rel=1e-3)

        # deeper coupling cools further, and the optimum moves out
        optima = [
            find_optimum(make_spec(c_ab=c, temperature=temp), fidelity="rwa")
            for c in (4.0, 16.0, 64.0)
        ]
        n_curve = [n for _, n in optima]
        c_curve = [c for c, _ in optima]
        assert n_curve[0] > n_curve[1] > n_curve[2]
        assert c_curve[0] < c_curve[1] < c_curve[2]
