import math
from dataclasses import replace

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
    stability_eigenvalues,
    sweep_cooperativity,
    thermal_occupation,
)
from bathcool.constants import HBAR, KB
from bathcool.errors import NumericsError
from bathcool.model import _effective_temperatures

from conftest import TWO_PI, make_spec
from test_spectra import _criterion_7_draws


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

    def test_underflowing_ratio_is_a_numerics_error(self):
        # hbar*omega/(kB*T) underflows to 0, where 1/expm1 has no value
        with pytest.raises(NumericsError, match="hbar\\*omega/\\(kB\\*T\\) underflows to 0"):
            thermal_occupation(TWO_PI * 1e-300, 300.0)

    def test_subnormal_ratio_is_a_numerics_error(self):
        # hbar*omega/(kB*T) is about 4.8e-310, a subnormal: 1/expm1 overflows to inf
        with pytest.raises(NumericsError, match="underflows to 4.8e-310 at omega = 62.8319"):
            thermal_occupation(TWO_PI * 10.0, 1e300)


def _python_effective_temperature(n, omega):
    """The inverse Bose-Einstein occupation in Python floats, as written per point."""
    if n == 0.0:
        return 0.0
    log = math.log1p(1.0 / n)
    if KB * log > 0.0:
        return HBAR * omega / (KB * log)
    return float(HBAR * omega / KB) / log


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

    def test_underflowing_denominator_keeps_a_finite_temperature(self):
        # kB*log1p(1/n_eff) is about 1.4e-328, below the least subnormal,
        # but the temperature, about 4.8e300 K, is a float
        omega = TWO_PI * 1e6
        assert effective_temperature(1e305, omega) == pytest.approx(HBAR * omega / KB * 1e305, rel=1e-12)

    def test_overflowing_temperature_is_a_numerics_error(self):
        with pytest.raises(NumericsError, match="overflows at n_eff = 1e\\+305"):
            effective_temperature(1e305, TWO_PI * 1e15)
        with pytest.raises(NumericsError, match="overflows at n_eff = inf"):
            effective_temperature(math.inf, TWO_PI * 1e6)
        # a column raises at its first overflowing point
        with pytest.raises(NumericsError, match="overflows at n_eff = inf"):
            _effective_temperatures(np.array([1.0, math.inf, 1e305]), TWO_PI * 1e15)

    def test_column_is_the_python_float_formula_bit_for_bit(self):
        # 1/n and the products in numpy, in the scalar formula's order, and
        # math.log1p itself (np.log1p is not bitwise math.log1p)
        rng = np.random.default_rng(30)
        n = [0.0, 5e-324, 1e-300, 0.5, 1.0, 1e300, 1e305, *(10 ** rng.uniform(-12, 12, 2000)).tolist()]
        with np.errstate(over="ignore", invalid="ignore"):
            for spec in _criterion_7_draws(60, seed=7):  # the occupations of the 60 draws' sweeps
                for fidelity in ("rwa", "full"):
                    column = sweep_cooperativity(spec, np.geomspace(1e-2, 1e3, 31), fidelity).n_eff
                    n += column[np.isfinite(column)].tolist()
        for omega in (TWO_PI * 1e3, TWO_PI * 1e6, TWO_PI * 1.7e7):
            expected = [_python_effective_temperature(x, omega).hex() for x in n]
            assert [t.hex() for t in _effective_temperatures(np.array(n), omega).tolist()] == expected
            assert [effective_temperature(x, omega).hex() for x in n] == expected


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
        cav = CavityDrive.from_pump(pump, detuning, kappa, g0=TWO_PI * 10)
        assert cav.alpha == intracavity_amplitude(pump, detuning, kappa)

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

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize(
        "part, field",
        [
            ("mode_a", "omega"),
            ("mode_a", "gamma"),
            ("cavity", "kappa"),
            ("cavity", "detuning"),
            ("cavity", "g0"),
            (None, "coupling"),
            (None, "mass_a"),
            ("cavity", "alpha"),
            ("complex", "alpha"),  # alpha = complex(value, 0)
            ("from_pump", "pump"),  # CavityDrive.from_pump(complex(value, 0), ...)
        ],
    )
    def test_non_finite_rates_rejected(self, part, field, value):
        spec = make_spec()
        cav = spec.cavity
        with pytest.raises(ValueError, match="finite"):
            if part == "from_pump":
                CavityDrive.from_pump(complex(value, 0), cav.detuning, cav.kappa, cav.g0)
            elif part == "complex":
                replace(cav, **{field: complex(value, 0)})
            else:
                replace(getattr(spec, part) if part else spec, **{field: value})

    @pytest.mark.parametrize("value", [-1e-300, -1.0, math.nan, math.inf])
    def test_drift_model_refuses_bad_correlations(self, value):
        # every spectrum sums |.|^2 times these, so >= 0 keeps it >= 0
        model = build_full_system(make_spec())
        corr = model.input_correlations.copy()
        corr[1, 2] = value
        with pytest.raises(ValueError, match="input_correlations must be finite and >= 0"):
            replace(model, input_correlations=corr)

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
        eigs = np.sort_complex(stability_eigenvalues(model))
        kappa, det = spec.cavity.kappa, spec.cavity.detuning
        poles = [
            1j * det - kappa / 2,
            -1j * spec.mode_a.omega - spec.mode_a.gamma / 2,
            -1j * spec.mode_b.omega - spec.mode_b.gamma / 2,
        ]
        # the annihilation poles and their conjugates
        expected = np.sort_complex(np.concatenate([poles, np.conj(poles)]))
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
        rate = {"a": spec.mode_a.gamma, "b": spec.mode_b.gamma, "c": spec.cavity.kappa}
        assert np.allclose(
            np.diag(model.noise_input),
            [math.sqrt(rate[label[0]]) for label in model.labels],
        )
        a, a_dag, c = (model.index(x) for x in ("a", "a_dag", "c"))
        nbar = spec.mode_a.nbar
        assert model.input_correlations[0, c] == 1.0  # cavity vacuum
        assert model.input_correlations[0, a] == pytest.approx(nbar + 1.0)
        assert model.input_correlations[0, a_dag] == pytest.approx(nbar)
        assert model.input_correlations[1, a] == pytest.approx(nbar)

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
        assert rwa.labels == full.labels
        assert np.array_equal(_without_counter_rotating(full), rwa.drift)

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

    def test_inputs_are_the_two_mode_baths_and_cavity_vacuum(self):
        spec = make_spec()
        spec = replace(spec, mode_b=replace(spec.mode_b, bath_temperature=4.0))
        na, nb = spec.mode_a.nbar, spec.mode_b.nbar
        for build in (build_full_system, build_rwa_system):
            assert build(spec).input_correlations[1].tolist() == [
                na, na + 1, nb, nb + 1, 0.0, 1.0
            ]


def _without_counter_rotating(model):
    """The drift with every annihilation <-> creation entry zeroed."""
    a = model.drift.copy()
    for i, li in enumerate(model.labels):
        for j, lj in enumerate(model.labels):
            if li.endswith("_dag") != lj.endswith("_dag"):
                a[i, j] = 0.0
    return a


class TestPairedBasis:
    """Both builders return 6x6 models in one conjugate-paired basis."""

    def test_full_model_is_its_own_pairing(self):
        full = build_full_system(make_spec(c_om=2.0))
        assert full.labels == ("a", "a_dag", "b", "b_dag", "c", "c_dag")
        # swapping every x with x_dag maps the drift to its conjugate
        swap = [
            full.index(x[: -len("_dag")] if x.endswith("_dag") else x + "_dag")
            for x in full.labels
        ]
        assert np.array_equal(full.drift[np.ix_(swap, swap)], full.drift.conj())

    def test_rwa_pairing_adds_conjugate_eigenvalues(self):
        rwa = build_rwa_system(make_spec(c_om=2.0))
        ann = [rwa.index(x) for x in ("a", "b", "c")]
        block = rwa.drift[np.ix_(ann, ann)]
        eigs = np.linalg.eigvals(block)
        expected = np.concatenate([eigs, eigs.conj()])
        got = np.linalg.eigvals(rwa.drift)
        # pair each eigenvalue with its nearest counterpart: conjugate pairs
        # share a real part, so a sort would order them by roundoff
        gap = np.abs(got[:, None] - expected[None, :])
        assert sorted(np.argmin(gap, axis=1)) == list(range(6))
        assert np.all(gap.min(axis=1) <= 1e-12 * np.abs(got))

    def test_rwa_pairing_is_full_model_without_counter_rotating_terms(self):
        spec = make_spec(c_om=2.0)
        full = build_full_system(spec)
        rwa = build_rwa_system(spec)
        assert rwa.dimension == full.dimension == 6
        assert np.array_equal(_without_counter_rotating(full), rwa.drift)
        assert np.array_equal(full.noise_input, rwa.noise_input)
        assert np.array_equal(full.input_correlations, rwa.input_correlations)


class TestStability:
    def test_decoupled_real_parts(self):
        spec = make_spec(c_ab=0.0)
        model = build_rwa_system(spec)
        reals = sorted(stability_eigenvalues(model).real)
        expected = sorted(
            [-spec.cavity.kappa / 2, -spec.mode_a.gamma / 2, -spec.mode_b.gamma / 2] * 2
        )
        assert np.allclose(reals, expected, rtol=1e-12)
        assert np.all(stability_eigenvalues(model).real < 0)

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
        assert not np.all(eigs.real < 0)

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
            assert np.all(stability_eigenvalues(build_rwa_system(spec)).real < 0)
            assert np.all(stability_eigenvalues(build_full_system(spec)).real < 0)
