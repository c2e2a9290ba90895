import math

import mpmath
import numpy as np
import pytest

from bathcool import (
    CavityDrive,
    MechanicalMode,
    SystemSpec,
    build_full_system,
    build_rwa_system,
    effective_temperature,
    intracavity_amplitude,
    is_stable,
    stability_eigenvalues,
    thermal_occupation,
)
from bathcool.constants import HBAR, KB

from conftest import TWO_PI, make_spec


class TestThermalOccupation:
    def test_zero_temperature(self):
        assert thermal_occupation(TWO_PI * 1.102e6, 0.0) == 0.0

    def test_room_temperature_against_high_precision(self):
        # oracle: 50-digit evaluation of the Bose-Einstein formula
        omega = TWO_PI * 1.102e6
        with mpmath.workdps(50):
            x = mpmath.mpf(HBAR) * omega / (mpmath.mpf(KB) * 300)
            expected = float(1 / mpmath.expm1(x))
        got = thermal_occupation(omega, 300.0)
        assert got == pytest.approx(expected, rel=1e-12)
        assert got == pytest.approx(5.67e6, rel=1e-2)
        # asymptote cross-check: kB*T/(hbar*omega) - 1/2
        asym = KB * 300 / (HBAR * omega) - 0.5
        assert got == pytest.approx(asym, rel=1e-7)

    def test_ln2_point_gives_exactly_one(self):
        omega = TWO_PI * 1e6
        temp = HBAR * omega / (KB * math.log(2.0))
        assert thermal_occupation(omega, temp) == pytest.approx(1.0, rel=1e-12)

    def test_tiny_argument_stable(self):
        # hbar*omega/kB/T ~ 1e-10: series/expm1 path must not cancel
        omega = TWO_PI * 1.0
        n = thermal_occupation(omega, 5000.0)
        assert n == pytest.approx(KB * 5000.0 / (HBAR * omega) - 0.5, rel=1e-6)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            thermal_occupation(0.0, 300.0)
        with pytest.raises(ValueError):
            thermal_occupation(-1.0, 300.0)
        with pytest.raises(ValueError):
            thermal_occupation(TWO_PI * 1e6, -1.0)


class TestEffectiveTemperature:
    def test_zero_occupation(self):
        assert effective_temperature(0.0, TWO_PI * 1e6) == 0.0

    def test_round_trip(self):
        for omega_hz, temp in [(1e6, 300.0), (1.102e6, 4.2), (5e4, 77.0)]:
            omega = TWO_PI * omega_hz
            n = thermal_occupation(omega, temp)
            assert effective_temperature(n, omega) == pytest.approx(temp, rel=1e-10)

    def test_single_phonon_value(self):
        omega = TWO_PI * 1e6
        expected = HBAR * omega / (KB * math.log(2.0))
        assert effective_temperature(1.0, omega) == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(6.92e-5, rel=1e-2)

    def test_negative_occupation_rejected(self):
        with pytest.raises(ValueError):
            effective_temperature(-0.1, TWO_PI * 1e6)


class TestIntracavityAmplitude:
    def test_zero_pump(self):
        assert intracavity_amplitude(0.0, TWO_PI * 1e5, TWO_PI * 1e6) == 0.0

    def test_resonant_real_pump(self):
        kappa = TWO_PI * 1e6
        alpha = intracavity_amplitude(2.0, 0.0, kappa)
        assert alpha == pytest.approx(-4.0 / kappa)

    def test_constructed_inverse(self):
        alpha0 = 123.4 + 5.6j
        detuning, kappa = -TWO_PI * 1e6, TWO_PI * 2e5
        pump = (1j * detuning - kappa / 2) * alpha0
        assert intracavity_amplitude(pump, detuning, kappa) == pytest.approx(alpha0)

    def test_kappa_positive_required(self):
        with pytest.raises(ValueError):
            intracavity_amplitude(1.0, 0.0, 0.0)


class TestTypes:
    def test_mode_invariants(self):
        with pytest.raises(ValueError):
            MechanicalMode(omega=0.0, gamma=1.0, bath_temperature=1.0)
        with pytest.raises(ValueError):
            MechanicalMode(omega=1.0, gamma=-1.0, bath_temperature=1.0)
        with pytest.raises(ValueError):
            MechanicalMode(omega=1.0, gamma=1.0, bath_temperature=-1.0)
        m = MechanicalMode(omega=TWO_PI * 1e6, gamma=TWO_PI * 10.0, bath_temperature=1.0)
        assert m.quality_factor == pytest.approx(1e5)

    @pytest.mark.parametrize("temperature", [math.inf, math.nan])
    def test_non_finite_bath_temperature_rejected(self, temperature):
        with pytest.raises(ValueError, match="finite"):
            MechanicalMode(omega=TWO_PI * 6e6, gamma=1.0, bath_temperature=temperature)
        with pytest.raises(ValueError, match="finite"):
            CavityDrive(
                kappa=TWO_PI * 1e5, detuning=-TWO_PI * 1e6, g0=1.0,
                bath_temperature=temperature,
            )

    def test_cavity_pump_consistency_asserted(self):
        kappa, det = TWO_PI * 1e5, -TWO_PI * 1e6
        cav = CavityDrive.from_pump(1e7, det, kappa, g0=TWO_PI * 10)
        assert cav.alpha == intracavity_amplitude(1e7, det, kappa)
        with pytest.raises(ValueError):
            CavityDrive(kappa=kappa, detuning=det, g0=0.0, alpha=1.0, pump=1e7)

    def test_negative_coupling_rejected(self):
        spec = make_spec()
        with pytest.raises(ValueError):
            SystemSpec(
                mode_a=spec.mode_a,
                mode_b=spec.mode_b,
                cavity=spec.cavity,
                coupling=-1.0,
            )


class TestBuildRwaSystem:
    def test_decoupled_eigenvalues_exact(self):
        spec = make_spec(c_ab=0.0, c_om=None)
        model = build_rwa_system(spec)
        eigs = sorted(stability_eigenvalues(model), key=lambda z: z.real)
        kappa, det = spec.cavity.kappa, spec.cavity.detuning
        expected = sorted(
            [
                1j * det - kappa / 2,
                -1j * spec.mode_a.omega - spec.mode_a.gamma / 2,
                -1j * spec.mode_b.omega - spec.mode_b.gamma / 2,
            ],
            key=lambda z: z.real,
        )
        assert np.allclose(eigs, expected, rtol=1e-12)

    def test_coupling_entries(self, spec50):
        spec = make_spec(c_ab=50.0, c_om=2.0)
        model = build_rwa_system(spec)
        c, a, b = (model.index(x) for x in "cab")
        lam = spec.coupling
        ag = spec.cavity.alpha_g0
        assert model.drift[a, b] == -1j * lam  # b -> a
        assert model.drift[b, a] == -1j * lam  # a -> b
        assert model.drift[c, b] == 1j * ag  # b -> c
        assert model.drift[b, c] == 1j * ag
        assert model.drift[a, c] == 0.0

    def test_noise_amplitudes_and_correlations(self):
        spec = make_spec()
        model = build_rwa_system(spec)
        assert np.allclose(
            np.diag(model.noise_input),
            [
                math.sqrt(spec.cavity.kappa),
                math.sqrt(spec.mode_a.gamma),
                math.sqrt(spec.mode_b.gamma),
            ],
        )
        nbar = spec.mode_a.nbar
        assert model.input_correlations[0, 0] == 1.0  # cavity vacuum
        assert model.input_correlations[1, 1] == pytest.approx(nbar)
        assert model.input_correlations[0, 1] == pytest.approx(nbar + 1.0)

    def test_conjugation_linearity(self):
        # drift of the conjugated basis = elementwise conjugate
        model = build_rwa_system(make_spec(c_om=1.0))
        assert np.array_equal(np.conj(model.drift), model.drift.conj())

    def test_pure_bitwise_identical(self):
        spec = make_spec(c_om=3.0)
        m1, m2 = build_rwa_system(spec), build_rwa_system(spec)
        assert m1.drift.tobytes() == m2.drift.tobytes()
        assert m1.noise_input.tobytes() == m2.noise_input.tobytes()
        assert m1.input_correlations.tobytes() == m2.input_correlations.tobytes()


class TestBuildFullSystem:
    def test_decoupled_conjugate_pair_eigenvalues(self):
        spec = make_spec(c_ab=0.0)
        model = build_full_system(spec)
        eigs = stability_eigenvalues(model)
        wa, ga = spec.mode_a.omega, spec.mode_a.gamma
        for target in (-1j * wa - ga / 2, 1j * wa - ga / 2):
            assert min(abs(eigs - target)) < 1e-6 * abs(target)

    def test_conjugate_pairing_symmetry(self):
        model = build_full_system(make_spec(c_om=2.0))
        d = model.dimension
        perm = np.zeros((d, d))
        for i in range(0, d, 2):
            perm[i, i + 1] = perm[i + 1, i] = 1.0
        assert np.allclose(perm @ np.conj(model.drift) @ perm, model.drift)

    def test_rwa_embedding(self):
        spec = make_spec(c_om=2.0)
        full = build_full_system(spec)
        rwa = build_rwa_system(spec)
        a = full.drift.copy()
        # zero the counter-rotating blocks (annihilation <-> creation)
        for i, li in enumerate(full.labels):
            for j, lj in enumerate(full.labels):
                if i != j and li.endswith("_dag") != lj.endswith("_dag"):
                    a[i, j] = 0.0
        idx = [full.index(x) for x in ("c", "a", "b")]
        assert np.allclose(a[np.ix_(idx, idx)], rwa.drift)

    def test_pure_bitwise_identical(self):
        spec = make_spec(c_om=3.0)
        m1, m2 = build_full_system(spec), build_full_system(spec)
        assert m1.drift.tobytes() == m2.drift.tobytes()

    def test_doubled_noise_channels(self):
        model = build_full_system(make_spec())
        assert model.noise_input.shape == (6, 6)
        # conjugate channel pairs swap the nbar / nbar+1 weights
        corr = model.input_correlations
        assert np.allclose(corr[0, 0::2], corr[1, 1::2])
        assert np.allclose(corr[0, 1::2], corr[1, 0::2])


class TestPairedBasis:
    def test_full_model_is_its_own_pairing(self):
        full = build_full_system(make_spec(c_om=2.0))
        assert full.paired() is full

    def test_rwa_pairing_adds_conjugate_eigenvalues(self):
        rwa = build_rwa_system(make_spec(c_om=2.0))
        paired = rwa.paired()
        assert paired.dimension == 2 * rwa.dimension
        assert paired.paired() is paired
        eigs = np.linalg.eigvals(rwa.drift)
        expected = np.sort_complex(np.concatenate([eigs, eigs.conj()]))
        got = np.sort_complex(np.linalg.eigvals(paired.drift))
        assert np.allclose(got, expected, rtol=1e-12, atol=0.0)

    def test_rwa_pairing_is_full_model_without_counter_rotating_terms(self):
        spec = make_spec(c_om=2.0)
        full = build_full_system(spec)
        paired = build_rwa_system(spec).paired()
        assert paired.labels == ("c", "a", "b", "c_dag", "a_dag", "b_dag")
        a = full.drift.copy()
        for i, li in enumerate(full.labels):
            for j, lj in enumerate(full.labels):
                if i != j and li.endswith("_dag") != lj.endswith("_dag"):
                    a[i, j] = 0.0
        idx = [full.index(x) for x in paired.labels]
        assert np.array_equal(a[np.ix_(idx, idx)], paired.drift)
        assert np.array_equal(full.noise_input[np.ix_(idx, idx)], paired.noise_input)
        assert np.array_equal(
            full.input_correlations[:, idx], paired.input_correlations
        )


class TestStability:
    def test_decoupled_real_parts(self):
        spec = make_spec(c_ab=0.0)
        model = build_rwa_system(spec)
        reals = sorted(stability_eigenvalues(model).real)
        expected = sorted(
            [-spec.cavity.kappa / 2, -spec.mode_a.gamma / 2, -spec.mode_b.gamma / 2]
        )
        assert np.allclose(reals, expected, rtol=1e-12)
        assert is_stable(model)

    def test_marginal_flagged_unstable(self):
        spec = SystemSpec(
            mode_a=MechanicalMode(TWO_PI * 1e6, 0.0, 0.0),
            mode_b=MechanicalMode(TWO_PI * 1e6, 0.0, 0.0),
            cavity=CavityDrive(
                kappa=TWO_PI * 1e5, detuning=-TWO_PI * 1e6, g0=0.0, alpha=0.0
            ),
            coupling=0.0,
        )
        model = build_rwa_system(spec)
        # mechanical eigenvalues purely imaginary -> marginal, not stable
        eigs = stability_eigenvalues(model)
        assert np.any(np.isclose(eigs.real, 0.0, atol=1e-12))
        assert not is_stable(model)

    def test_randomized_weakly_coupled_specs_stable(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            omega_hz = 10 ** rng.uniform(5, 7)
            spec = make_spec(
                c_ab=0.0,
                omega_hz=omega_hz,
                gamma_a_hz=10 ** rng.uniform(-2, 2),
                gamma_b_hz=10 ** rng.uniform(0, 4),
                kappa_hz=10 ** rng.uniform(4, 6),
            )
            # couplings <= 1e-2 * omega
            lam = rng.uniform(0, 1e-2) * spec.mode_a.omega
            alpha = rng.uniform(0, 1e-2) * spec.mode_a.omega / spec.cavity.g0
            spec = SystemSpec(
                mode_a=spec.mode_a,
                mode_b=spec.mode_b,
                cavity=CavityDrive(
                    kappa=spec.cavity.kappa,
                    detuning=spec.cavity.detuning,
                    g0=spec.cavity.g0,
                    alpha=alpha,
                ),
                coupling=lam,
                mass_a=spec.mass_a,
            )
            assert is_stable(build_rwa_system(spec))
            assert is_stable(build_full_system(spec))
