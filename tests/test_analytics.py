import math
import sys
from dataclasses import replace

import mpmath as mp
import numpy as np
import pytest

from bathcool import (
    MechanicalMode,
    chi_a,
    chi_b,
    cooling_limit_ratio,
    cooling_summary,
    cooperativity_ab,
    force_noise_psd,
    induced_damping_detuned,
    mode_a_response,
    n_eff_closed_form,
    narrowed_linewidth,
    optical_damping,
    optimal_cooperativity,
)
from bathcool.analytics import _induced_damping, _n_eff_columns, regime_flags
from bathcool.constants import KB
from bathcool.errors import UnstableSystemError

from conftest import TWO_PI, make_spec
from test_spectra import _criterion_7_draws
from test_sweeps import WIDE, _split


class TestOpticalDamping:
    def test_zero_coupling(self):
        assert optical_damping(0.0, TWO_PI * 1e6) == 0.0

    def test_substitution(self):
        got = optical_damping(TWO_PI * 10e3, TWO_PI * 1e6)
        assert got == pytest.approx(TWO_PI * 400.0, rel=1e-12)

    def test_round_trip(self):
        gamma_target = TWO_PI * 123.0
        kappa = TWO_PI * 2e5
        ag = math.sqrt(kappa * gamma_target) / 2.0
        assert optical_damping(ag, kappa) == pytest.approx(gamma_target, rel=1e-12)

    def test_kappa_required(self):
        with pytest.raises(ValueError):
            optical_damping(1.0, 0.0)


class TestSusceptibilities:
    def test_chi_b_resonant_maximum(self, spec50):
        gamma = TWO_PI * 500.0
        got = chi_b(spec50.mode_b.omega, spec50, gamma)
        assert got == pytest.approx(2.0 / (spec50.mode_b.gamma + gamma))
        assert got.imag == 0.0

    def test_chi_b_lorentzian_halfwidth(self, spec50):
        gamma = TWO_PI * 500.0
        gtot = spec50.mode_b.gamma + gamma
        peak = abs(chi_b(spec50.mode_b.omega, spec50, gamma)) ** 2
        half = abs(chi_b(spec50.mode_b.omega + gtot / 2, spec50, gamma)) ** 2
        assert half == pytest.approx(peak / 2.0, rel=1e-12)
        grid = spec50.mode_b.omega + gtot * np.linspace(-3, 3, 301)
        mags = np.abs(chi_b(grid, spec50, gamma)) ** 2
        assert np.argmax(mags) == 150

    def test_chi_b_vanishes_at_large_damping(self, spec50):
        assert abs(chi_b(spec50.mode_b.omega, spec50, 1e12)) < 1e-11

    def test_chi_a_bare_limit(self):
        spec = make_spec(c_ab=0.0)
        omega = spec.mode_a.omega + 3 * spec.mode_a.gamma
        bare = 1.0 / (-1j * (omega - spec.mode_a.omega) + spec.mode_a.gamma / 2)
        assert chi_a(omega, spec, 0.0) == pytest.approx(bare)

    def test_chi_a_degenerate_resonance_matches_induced_damping(self, spec50):
        gamma = TWO_PI * 7141.4
        got = chi_a(spec50.mode_a.omega, spec50, gamma)
        gamma_a_ind = induced_damping_detuned(spec50.coupling, spec50.mode_b.gamma, gamma, 0.0)
        expected = 1.0 / ((spec50.mode_a.gamma + gamma_a_ind) / 2.0)
        assert got == pytest.approx(expected, rel=1e-12)


class TestModeAResponse:
    def test_on_resonance(self, spec50):
        gamma = TWO_PI * 2000.0
        w, g = mode_a_response(spec50.mode_b.omega, spec50, gamma)
        assert w == pytest.approx(spec50.mode_a.omega)
        expected = spec50.mode_a.gamma + induced_damping_detuned(
            spec50.coupling, spec50.mode_b.gamma, gamma, 0.0
        )
        assert g == pytest.approx(expected, rel=1e-12)

    def test_no_coupling(self):
        spec = make_spec(c_ab=0.0)
        w, g = mode_a_response(spec.mode_a.omega + 1.0, spec, 0.0)
        assert w == spec.mode_a.omega
        assert g == spec.mode_a.gamma

    def test_half_width_detuning_halves_extra_damping(self, spec50):
        gamma = TWO_PI * 2000.0
        gtot = spec50.mode_b.gamma + gamma
        _, g_on = mode_a_response(spec50.mode_b.omega, spec50, gamma)
        _, g_half = mode_a_response(spec50.mode_b.omega + gtot / 2, spec50, gamma)
        on = g_on - spec50.mode_a.gamma
        assert g_half - spec50.mode_a.gamma == pytest.approx(on / 2.0, rel=1e-12)


class TestCooperativityAB:
    def test_bits_of_the_python_float_form(self):
        # lambda is squared by libm pow, as Python's ** squares it
        for spec in _criterion_7_draws(20):
            ga, gb = spec.mode_a.gamma, spec.mode_b.gamma
            assert cooperativity_ab(spec) == 4.0 * spec.coupling**2 / (ga * gb)

    def test_overflow_is_inf(self, spec50):
        # lambda^2 overflows from about 1.3e154 rad/s, and 1e-300^2 underflows
        # to 0; a numpy warning fails the test
        assert cooperativity_ab(replace(spec50, coupling=1e160)) == math.inf
        tiny = lambda mode: replace(mode, gamma=1e-300)
        assert cooperativity_ab(replace(spec50, mode_a=tiny(spec50.mode_a), mode_b=tiny(spec50.mode_b))) == math.inf


class TestInducedDamping:
    def test_reference_numbers(self):
        # parameters chosen so C_ab = 50 at gamma_a = 2pi*1 Hz
        got = induced_damping_detuned(
            TWO_PI * 111.8033989, TWO_PI * 1000.0, TWO_PI * 7141.43, 0.0
        )
        assert got / TWO_PI == pytest.approx(6.1413, rel=1e-3)

    def test_zero_coupling(self):
        assert induced_damping_detuned(0.0, TWO_PI * 1000.0, 0.0, 0.0) == 0.0

    def test_gamma_zero_identity_with_cooperativity(self, spec50):
        gamma_a_ind = induced_damping_detuned(spec50.coupling, spec50.mode_b.gamma, 0.0, 0.0)
        assert gamma_a_ind == pytest.approx(
            cooperativity_ab(spec50) * spec50.mode_a.gamma, rel=1e-12
        )

    def test_zero_total_damping_rejected(self):
        with pytest.raises(ValueError):
            induced_damping_detuned(1.0, 0.0, 0.0, 0.0)

    def test_detuned_reduces_to_on_resonance(self):
        # Gamma_a = 4 lambda^2/(gamma_b + Gamma) at delta = 0
        lam, gb, gamma = TWO_PI * 100.0, TWO_PI * 1e3, TWO_PI * 5e3
        on = 4.0 * lam**2 / (gb + gamma)
        assert induced_damping_detuned(lam, gb, gamma, 0.0) == pytest.approx(on, rel=1e-12)
        far = induced_damping_detuned(lam, gb, gamma, 100 * (gb + gamma))
        assert far < 1e-3 * on


def _colder_b(spec, temperature):
    """``spec`` with mode b's bath at ``temperature``."""
    return replace(spec, mode_b=replace(spec.mode_b, bath_temperature=temperature))


class TestNEffClosedForm:
    def test_thermal_equilibrium(self):
        spec = make_spec(c_ab=0.0)
        assert float(n_eff_closed_form(spec, 0.0)) == pytest.approx(spec.mode_a.nbar)

    def test_optimum_value_cab_50(self, spec50):
        gamma_star = optimal_cooperativity(50.0) * spec50.mode_b.gamma
        ratio = float(n_eff_closed_form(spec50, gamma_star)) / spec50.mode_a.nbar
        assert ratio == pytest.approx(2.0 / (1.0 + math.sqrt(51.0)), rel=1e-9)
        assert ratio == pytest.approx(0.2457, abs=2e-4)

    def test_large_gamma_returns_to_thermal(self, spec50):
        nbar = spec50.mode_a.nbar
        got = float(n_eff_closed_form(spec50, 1e9 * spec50.mode_b.gamma))
        assert got == pytest.approx(nbar, rel=1e-3)
        # (gamma_b + Gamma)^2 overflows past Gamma ~ 1.3e154: Gamma_a takes its limit, 0
        assert n_eff_closed_form(spec50, 1e200) == nbar
        # as it does where Gamma itself is infinite, as C_OM*gamma_b can be
        assert n_eff_closed_form(spec50, math.inf) == nbar

    def test_regime_violation_flags_not_error(self):
        spec = make_spec(c_ab=50.0, delta_b_hz=5e4)  # far detuned modes
        result = n_eff_closed_form(spec, TWO_PI * 100.0)
        assert not regime_flags(spec, TWO_PI * 100.0).degenerate
        assert float(result) > 0

    def test_undamped_mode_a_is_unstable(self):
        # no intrinsic damping and no coupling to b: no steady state, not 0/0
        spec = make_spec(c_ab=0.0, gamma_a_hz=0.0)
        with pytest.raises(UnstableSystemError):
            n_eff_closed_form(spec, TWO_PI * 100.0)

    def test_bath_occupations_follow_the_temperatures(self):
        # one temperature: mode b's bath takes mode a's nbar, evaluated at
        # omega_a, as the paper's formula does, also with b detuned; a bath
        # at another temperature brings its own nbar, at omega_b
        spec = make_spec(c_ab=20.0, delta_b_hz=300.0)
        gamma = TWO_PI * 2e3
        ga, gb = spec.mode_a.gamma, spec.mode_b.gamma
        delta = spec.mode_b.omega - spec.mode_a.omega
        gamma_a_ind = induced_damping_detuned(spec.coupling, gb, gamma, delta)

        def weighted(nbar_b):
            num = ga * spec.mode_a.nbar + gamma_a_ind * (gb / (gb + gamma)) * nbar_b
            return num / (ga + gamma_a_ind)

        assert spec.mode_b.nbar != pytest.approx(spec.mode_a.nbar, rel=1e-6)
        same = n_eff_closed_form(spec, gamma)
        assert same == pytest.approx(weighted(spec.mode_a.nbar), rel=1e-14)
        cold = _colder_b(spec, 40.0)
        colder = n_eff_closed_form(cold, gamma)
        assert colder == pytest.approx(weighted(cold.mode_b.nbar), rel=1e-14)

    @pytest.mark.parametrize(
        "spec, temperature_b",
        [
            (make_spec(c_ab=50.0), None),
            (make_spec(c_ab=50.0, delta_b_hz=2e3), None),  # b detuned by 2 gamma_b
            (make_spec(c_ab=20.0, delta_b_hz=-700.0), 37.0),  # and a colder bath
            # gamma_a = 0 at the coupling of C_ab = 50: R = lambda^2 g only
            (replace(make_spec(c_ab=50.0), mode_a=MechanicalMode(TWO_PI * 1e6, 0.0, 300.0)), None),
        ],
    )
    def test_slope_matches_central_differences(self, spec, temperature_b):
        if temperature_b is not None:
            spec = _colder_b(spec, temperature_b)
        n = lambda g: n_eff_closed_form(spec, g)
        gammas = TWO_PI * np.array([300.0, 4e3, 5e4])
        for gamma, slope in zip(gammas, _n_eff_columns(spec, spec.mode_b.omega)(gammas, slopes=True)[1]):
            h = 1e-4 * gamma
            assert slope == pytest.approx((n(gamma + h) - n(gamma - h)) / (2 * h), rel=1e-6)


def _paper_closed_form(spec, Gamma):
    """``(n_eff, dn_eff/dGamma, Gamma_a)`` of the paper's closed form in Python
    floats, squares by pow, NaN n_eff and slope where mode a is undamped.
    Where a square overflows the Lorentzian Gamma_a takes its limit, 0."""
    ga, gb, lam = spec.mode_a.gamma, spec.mode_b.gamma, spec.coupling
    nbar = spec.mode_a.nbar
    same = spec.mode_a.bath_temperature == spec.mode_b.bath_temperature
    nbar_b = nbar if same else spec.mode_b.nbar
    g = gb + Gamma
    try:
        d = pow(spec.mode_b.omega - spec.mode_a.omega, 2) + pow(g, 2) / 4.0
    except OverflowError:
        d = math.inf
    gamma_a = pow(lam, 2) * g / d if d < math.inf else 0.0
    if not ga + gamma_a > 0:
        return math.nan, math.nan, gamma_a
    n = (ga * nbar + gamma_a * (gb / g) * nbar_b) / (ga + gamma_a)
    # n = P/R with P = ga nbar D + lam^2 gb nbar_b, R = ga D + lam^2 g, D = d
    r = ga * d + pow(lam, 2) * g
    p = (ga * nbar * d + pow(lam, 2) * gb * nbar_b) / r
    return n, (ga * nbar * g / 2.0 - p * (ga * g / 2.0 + pow(lam, 2))) / r, gamma_a


class TestOneColumnBody:
    """The closed forms' one numpy body is the paper's formulas in Python
    floats, bit for bit, with mode b at one frequency for all points and
    at one per point."""

    @np.errstate(over="ignore", invalid="ignore")  # as the bodies' callers run them
    def test_matches_the_python_transcription(self):
        squares_that_differ = 0
        for draw in _criterion_7_draws(48, seed=16):
            omega_b, gammas, expected = [], [], []
            for split in (0.0, 0.7, -3.0):
                spec = _split(draw, split * draw.mode_b.gamma)
                gb, delta = spec.mode_b.gamma, spec.mode_b.omega - spec.mode_a.omega
                column = np.concatenate((WIDE * gb, [0.0, 1e200 * gb, math.inf]))
                reference = np.array([_paper_closed_form(spec, g) for g in column.tolist()]).T
                n, slope = _n_eff_columns(spec, spec.mode_b.omega)(column, slopes=True)
                assert np.array_equal(n, reference[0], equal_nan=True)
                assert np.array_equal(slope, reference[1], equal_nan=True)
                damping = _induced_damping(spec.coupling, gb + column, delta)
                assert np.array_equal(damping, reference[2])
                # the limits: Gamma_a = 0 past the square's overflow and at Gamma = inf
                assert damping[-2:].tolist() == [0.0, 0.0]
                omega_b.append(np.full(column.size, spec.mode_b.omega))
                gammas.append(column)
                expected.append(reference)
                squares_that_differ += sum((gb + g) ** 2 != (gb + g) * (gb + g) for g in WIDE * gb)
            # the three splittings in one call, mode b's frequency a column, as
            # sweep_detuning reads it
            n, slope = _n_eff_columns(draw, np.concatenate(omega_b))(np.concatenate(gammas), slopes=True)
            expected = np.concatenate(expected, axis=1)
            assert np.array_equal(n, expected[0], equal_nan=True)
            assert np.array_equal(slope, expected[1], equal_nan=True)
        # squares by x*x would have failed the comparisons above at these points
        assert squares_that_differ > 0

    @np.errstate(over="ignore", invalid="ignore", divide="raise")  # as the CLI runs them
    def test_underflowing_denominator_keeps_the_lorentzian(self):
        # delta^2 + gtot^2/4 underflows below about 1e-154: the scaled form
        # gives 4 lambda^2/gtot at delta = 0, and inf where that overflows
        lam = TWO_PI * 111.8
        gtot = TWO_PI * np.array([1e-100, 1e-155, 1e-160, 1e-200, 1e-300, 1e-305, 5e-324])
        mp.mp.dps = 40
        for delta in (0.0, 1e-310, 3e-160):
            got = _induced_damping(lam, gtot, delta)
            for g, value in zip(gtot.tolist(), got.tolist()):
                exact = mp.mpf(lam) ** 2 * g / (mp.mpf(delta) ** 2 + mp.mpf(g) ** 2 / 4)
                if exact > sys.float_info.max:
                    assert value == math.inf
                else:
                    assert abs(value - exact) <= 4e-16 * exact
        assert _induced_damping(lam, gtot[4:5], 0.0)[0] == 4.0 * lam**2 / gtot[4]

    @np.errstate(over="ignore", invalid="ignore", divide="raise")
    def test_overflowing_bath_term_keeps_a_finite_occupation(self):
        # at gamma_b = 1e-300 Hz, Gamma_a*nbar_b overflows but n_eff is
        # about nbar/(1 + C_OM), the two baths' weighted average
        spec = make_spec(c_ab=50.0)
        gb = TWO_PI * 1e-300
        spec = replace(spec, mode_b=replace(spec.mode_b, gamma=gb))
        mp.mp.dps = 40
        nbar, ga, lam = mp.mpf(spec.mode_a.nbar), mp.mpf(spec.mode_a.gamma), mp.mpf(spec.coupling)
        for c_om in (0.01, 1.0, 1e3):
            g = gb + c_om * gb
            gamma_a = 4 * lam**2 / mp.mpf(g)
            exact = (ga * nbar + gamma_a * (mp.mpf(gb) / g) * nbar) / (ga + gamma_a)
            n = n_eff_closed_form(spec, c_om * gb)
            assert abs(n - exact) <= 1e-14 * exact and n == pytest.approx(spec.mode_a.nbar / (1 + c_om))

    @np.errstate(invalid="ignore")
    def test_undamped_points_are_nan(self):
        spec = make_spec(c_ab=0.0, gamma_a_hz=0.0)
        n, slope = _n_eff_columns(spec, spec.mode_b.omega)(np.array([0.0, 1.0, math.inf]), slopes=True)
        assert np.isnan(n).all() and np.isnan(slope).all()


class TestOptimum:
    def test_optimal_cooperativity_values(self):
        assert optimal_cooperativity(0.0) == 1.0
        assert optimal_cooperativity(8.0) == pytest.approx(3.0, rel=1e-15)
        assert optimal_cooperativity(50.0) == pytest.approx(math.sqrt(51.0), rel=1e-15)
        with pytest.raises(ValueError):
            optimal_cooperativity(-1.0)

    def test_cooling_limit_ratio_values(self):
        assert cooling_limit_ratio(0.0) == 1.0
        assert cooling_limit_ratio(8.0) == pytest.approx(0.5, rel=1e-15)
        # ground-state condition C_ab = 16*nbar^2 at nbar = 2
        ratio = cooling_limit_ratio(64.0)
        assert ratio == pytest.approx(2.0 / (1.0 + math.sqrt(65.0)), rel=1e-15)
        assert 2.0 * ratio < 1.0

    def test_narrowed_linewidth(self):
        assert narrowed_linewidth(TWO_PI * 1.0, 50.0) == pytest.approx(
            TWO_PI * math.sqrt(51.0), rel=1e-15
        )

    def test_linewidth_identity_at_optimum(self, spec50):
        # gamma_a + Gamma_a(optimum) = gamma_a*sqrt(1 + C_ab) exactly
        cab = cooperativity_ab(spec50)
        gamma_star = optimal_cooperativity(cab) * spec50.mode_b.gamma
        gamma_a_ind = induced_damping_detuned(
            spec50.coupling, spec50.mode_b.gamma, gamma_star, 0.0
        )
        lhs = spec50.mode_a.gamma + gamma_a_ind
        assert lhs == pytest.approx(
            narrowed_linewidth(spec50.mode_a.gamma, cab), rel=1e-12
        )


class TestForceNoise:
    def test_conventional_baseline(self, spec50):
        res = force_noise_psd(spec50, 0.0, 300.0)
        assert res.factor == pytest.approx(51.0, rel=1e-9)
        expected = 51.0 * spec50.mass_a * spec50.mode_a.gamma * KB * 300.0
        assert res.s_ff == pytest.approx(expected, rel=1e-12)
        assert res.classical

    def test_optimum_reduction(self, spec50):
        gamma_star = math.sqrt(51.0) * spec50.mode_b.gamma
        res = force_noise_psd(spec50, gamma_star, 300.0)
        expected = 1.0 + 50.0 / (1.0 + math.sqrt(51.0)) ** 2
        assert res.factor == pytest.approx(expected, rel=1e-9)
        assert res.factor == pytest.approx(1.754, abs=1e-3)
        assert 51.0 / res.factor == pytest.approx(29.07, abs=0.05)

    def test_bare_thermal_limit(self):
        spec = make_spec(c_ab=0.0)
        res = force_noise_psd(spec, 0.0, 300.0)
        assert res.s_ff == pytest.approx(
            spec.mass_a * spec.mode_a.gamma * KB * 300.0, rel=1e-12
        )

    def test_overflowing_square_keeps_the_factor(self):
        # (1 + C_OM)^2 overflows past C_OM ~ 1.3e154; the term C_ab/(1 + C_OM)^2
        # is kept where it still counts, and goes to its limit 0 at C_OM = inf
        spec = make_spec(c_ab=1e300)
        cab, gb = cooperativity_ab(spec), spec.mode_b.gamma
        for c_om in (2e154, 1e200, 1e308):
            with mp.workdps(40):
                exact = 1 + mp.mpf(cab) / (1 + mp.mpf(c_om * gb) / mp.mpf(gb)) ** 2
            assert force_noise_psd(spec, c_om * gb, 300.0).factor == pytest.approx(float(exact), rel=1e-15)
        assert force_noise_psd(spec, math.inf, 300.0).factor == 1.0

    def test_monotonicity(self, spec50):
        gb = spec50.mode_b.gamma
        factors = [force_noise_psd(spec50, c * gb, 300.0).factor for c in
                   (0.0, 1.0, 3.0, 10.0, 100.0)]
        assert all(a > b for a, b in zip(factors, factors[1:]))

    def test_mass_required(self):
        spec = make_spec()
        spec = type(spec)(
            mode_a=spec.mode_a, mode_b=spec.mode_b, cavity=spec.cavity,
            coupling=spec.coupling, mass_a=None,
        )
        with pytest.raises(ValueError):
            force_noise_psd(spec, 0.0, 300.0)


class TestSummaryAndFlags:
    def test_summary_consistency(self):
        spec = make_spec(c_ab=50.0, c_om=math.sqrt(51.0))
        s = cooling_summary(spec)
        assert s.C_ab == pytest.approx(50.0, rel=1e-9)
        assert s.C_OM == pytest.approx(math.sqrt(51.0), rel=1e-9)
        assert s.n_eff / spec.mode_a.nbar == pytest.approx(
            cooling_limit_ratio(50.0), rel=1e-6
        )
        assert s.linewidth_a == pytest.approx(
            narrowed_linewidth(spec.mode_a.gamma, 50.0), rel=1e-6
        )
        assert s.omega_a_pulled == pytest.approx(spec.mode_a.omega)
        assert s.flags.ok

    def test_regime_flags_exported(self):
        import bathcool

        assert bathcool.regime_flags is regime_flags
        assert type(n_eff_closed_form(make_spec(), 1.0)) is float

    def test_flags_threshold_factor_ten(self):
        spec = make_spec(c_ab=50.0, kappa_hz=3e5)
        gamma = TWO_PI * 7141.0
        fl = regime_flags(spec, gamma)
        assert fl.sideband  # kappa = 2pi*3e5 > 10*(gamma_b + Gamma)
        narrow = make_spec(c_ab=50.0, kappa_hz=5e4)
        assert not regime_flags(narrow, gamma).sideband
