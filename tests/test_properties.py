"""Property-based invariants: scaling laws, involutions, bounds."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bathcool import (
    build_full_system,
    build_rwa_system,
    cooling_limit_ratio,
    effective_temperature,
    force_noise_psd,
    induced_damping_detuned,
    n_eff_closed_form,
    narrowed_linewidth,
    normal_mode_map,
    optical_damping,
    optimal_cooperativity,
    position_spectrum,
    thermal_occupation,
)

from conftest import TWO_PI, make_spec

pos = st.floats(min_value=1e-3, max_value=1e3, allow_nan=False)


class TestThermodynamics:
    @given(
        omega_hz=st.floats(min_value=1e3, max_value=1e9),
        temp=st.floats(min_value=1e-6, max_value=1e4),
    )
    def test_occupation_temperature_involution(self, omega_hz, temp):
        omega = TWO_PI * omega_hz
        n = thermal_occupation(omega, temp)
        assume(n > 1e-12)  # below that the occupation underflows to zero
        assert effective_temperature(n, omega) == pytest.approx(temp, rel=1e-9)

    @given(
        omega_hz=st.floats(min_value=1e3, max_value=1e9),
        t1=st.floats(min_value=1e-6, max_value=1e4),
        t2=st.floats(min_value=1e-6, max_value=1e4),
    )
    def test_occupation_monotone_in_temperature(self, omega_hz, t1, t2):
        omega = TWO_PI * omega_hz
        lo, hi = sorted((t1, t2))
        assert thermal_occupation(omega, lo) <= thermal_occupation(omega, hi)


class TestDampingLaws:
    @given(ag=pos, kappa=pos, k=st.floats(min_value=1e-2, max_value=1e2))
    def test_optical_damping_quadratic_in_drive(self, ag, kappa, k):
        assert optical_damping(k * ag, kappa) == pytest.approx(
            k**2 * optical_damping(ag, kappa), rel=1e-9
        )

    @given(lam=pos, gb=pos, gamma=pos, delta=st.floats(min_value=0, max_value=1e4))
    def test_detuned_damping_bounded_and_even(self, lam, gb, gamma, delta):
        on = induced_damping_detuned(lam, gb, gamma, 0.0)
        det = induced_damping_detuned(lam, gb, gamma, delta)
        assert 0 <= det <= on * (1 + 1e-12)
        assert induced_damping_detuned(lam, gb, gamma, -delta) == det

    @given(cab=st.floats(min_value=0.0, max_value=1e8))
    def test_optimum_identities(self, cab):
        c_star = optimal_cooperativity(cab)
        ratio = cooling_limit_ratio(cab)
        # the two closed forms agree: ratio = 2/(1 + C_OM*)
        assert ratio == pytest.approx(2.0 / (1.0 + c_star), rel=1e-12)
        assert ratio * (1.0 + math.sqrt(1.0 + cab)) == pytest.approx(2.0, rel=1e-12)
        assert narrowed_linewidth(1.0, cab) == pytest.approx(c_star, rel=1e-12)

    @given(
        cab=st.floats(min_value=1e-2, max_value=1e6),
        factor=st.floats(min_value=1.1, max_value=100.0),
    )
    def test_optimum_is_a_global_minimum(self, cab, factor):
        spec = make_spec(c_ab=cab)
        gb = spec.mode_b.gamma
        c_star = optimal_cooperativity(cab)
        n_star = float(n_eff_closed_form(spec, c_star * gb))
        for c in (c_star * factor, c_star / factor):
            assert n_star <= float(n_eff_closed_form(spec, c * gb)) * (1 + 1e-12)

    @given(cab=st.floats(min_value=0.0, max_value=1e6), com=pos)
    def test_force_factor_bounds(self, cab, com):
        spec = make_spec(c_ab=cab)
        res = force_noise_psd(spec, com * spec.mode_b.gamma, 300.0)
        assert 1.0 - 1e-12 <= res.factor <= 1.0 + cab + 1e-9


class TestDesignMaps:
    @given(
        omega0=st.floats(min_value=1e3, max_value=1e9),
        eps=st.floats(min_value=0.0, max_value=0.99),
    )
    def test_mode_map_round_trip(self, omega0, eps):
        wl, wr = omega0 * (1 + eps), omega0 * (1 - eps)
        w0_back, eps_back, lam = normal_mode_map(wl, wr)
        assert w0_back == pytest.approx(omega0, rel=1e-12)
        # tiny splittings cancel in omega_L - omega_R; only absolute
        # accuracy at the float rounding level survives
        assert eps_back == pytest.approx(eps, rel=1e-9, abs=1e-15)
        assert lam == pytest.approx(eps * omega0, rel=1e-9, abs=1e-12 * omega0)


class TestModelInvariants:
    @given(
        cab=st.floats(min_value=0.0, max_value=1e3),
        com=st.floats(min_value=0.0, max_value=50.0),
        gb=st.floats(min_value=10.0, max_value=1e4),
    )
    @settings(max_examples=30, deadline=None)
    def test_full_model_conjugate_pairing(self, cab, com, gb):
        spec = make_spec(c_ab=cab, gamma_b_hz=gb, c_om=com if com > 0 else None)
        model = build_full_system(spec)
        d = model.dimension
        perm = np.zeros((d, d))
        for i in range(0, d, 2):
            perm[i, i + 1] = perm[i + 1, i] = 1.0
        assert np.allclose(perm @ np.conj(model.drift) @ perm, model.drift)

    @given(
        cab=st.floats(min_value=1.0, max_value=200.0),
        com=st.floats(min_value=0.1, max_value=30.0),
    )
    @settings(max_examples=10, deadline=None)
    def test_spectrum_nonnegative_and_bounded(self, cab, com):
        spec = make_spec(c_ab=cab, c_om=com)
        res = position_spectrum(build_rwa_system(spec), "a")
        assert np.all(res.values >= 0)
        # cooling never heats above the bath nor below the vacuum, up to
        # the reported quadrature error
        budget = 1.0 + 1e-3 + 5.0 * res.n_eff_error
        assert -1e-6 <= res.n_eff <= spec.mode_a.nbar * budget
