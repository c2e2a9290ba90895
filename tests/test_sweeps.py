import math
from dataclasses import replace

import numpy as np
import pytest

from bathcool import (
    build_full_system,
    cooling_limit_ratio,
    find_optimum,
    n_eff_closed_form,
    narrowed_linewidth,
    optimal_cooperativity,
    steady_state_occupation,
    sweep_cooperativity,
    sweep_detuning,
)
from bathcool import sweeps
from bathcool.errors import PhysicsError

from conftest import make_spec


def _driven(spec, c_om):
    """The full model at G = sqrt(Gamma*kappa)/2 exactly (g0 = 1, alpha = G)."""
    g = math.sqrt(c_om * spec.mode_b.gamma * spec.cavity.kappa) / 2.0
    return build_full_system(replace(spec, cavity=replace(spec.cavity, alpha=g, g0=1.0)))


class TestSweepCooperativity:
    def test_rwa_points_match_closed_form(self, spec50):
        c_oms = np.geomspace(0.1, 100.0, 13)
        res = sweep_cooperativity(spec50, c_oms, fidelity="rwa")
        assert res.axis_name == "C_OM"
        gb = spec50.mode_b.gamma
        nbar = spec50.mode_a.nbar
        for c, n, lw in zip(c_oms, res.n_eff, res.linewidths):
            assert n == pytest.approx(
                float(n_eff_closed_form(spec50, c * gb, nbar)), rel=1e-12
            )
            expected_lw = spec50.mode_a.gamma * (1.0 + 50.0 / (1.0 + c))
            assert lw == pytest.approx(expected_lw, rel=1e-9)
        assert all(e is None for e in res.errors)
        assert all(fl is not None for fl in res.validity_flags)

    def test_minimum_sits_at_sqrt_one_plus_cab(self, spec50):
        c_oms = np.geomspace(0.5, 100.0, 201)
        res = sweep_cooperativity(spec50, c_oms, fidelity="rwa")
        i = int(np.argmin(res.n_eff))
        assert c_oms[i] == pytest.approx(math.sqrt(51.0), rel=0.03)
        # n_eff falls toward the optimum and rises past it
        assert np.all(np.diff(res.n_eff[: i - 1]) < 0)
        assert np.all(np.diff(res.n_eff[i + 1 :]) > 0)

    def test_temperature_ratio_column(self, spec50):
        res = sweep_cooperativity(spec50, [optimal_cooperativity(50.0)])
        assert res.T_ratio[0] == pytest.approx(
            cooling_limit_ratio(50.0), rel=1e-3
        )  # classical regime: T ratio tracks the occupation ratio

    def test_input_validation(self, spec50):
        with pytest.raises(ValueError):
            sweep_cooperativity(spec50, [3.0, 1.0])
        with pytest.raises(ValueError):
            sweep_cooperativity(spec50, [-1.0, 1.0])
        with pytest.raises(ValueError):
            sweep_cooperativity(spec50, [1.0], fidelity="bogus")

    def test_full_fidelity_tracks_rwa(self):
        spec = make_spec(c_ab=50.0, gamma_a_hz=0.1, gamma_b_hz=10.0, kappa_hz=1e4)
        c_oms = np.geomspace(1.0, 30.0, 5)
        rwa = sweep_cooperativity(spec, c_oms, fidelity="rwa")
        full = sweep_cooperativity(spec, c_oms, fidelity="full")
        assert np.all(np.abs(full.n_eff / rwa.n_eff - 1.0) < 0.05)

    def test_per_point_errors_recorded(self):
        # blue-detuned drive: anti-damping destabilizes large-C_OM points
        spec = make_spec(c_ab=10.0, gamma_a_hz=0.1, gamma_b_hz=10.0, kappa_hz=1e4)
        spec = replace(
            spec, cavity=replace(spec.cavity, detuning=-spec.cavity.detuning)
        )
        res = sweep_cooperativity(spec, [0.01, 50.0], fidelity="full")
        assert res.errors[0] is None
        assert res.errors[1] is not None and "unstable" in res.errors[1].lower()
        assert math.isnan(res.n_eff[1]) and not math.isnan(res.n_eff[0])

    def test_fitted_linewidths_full(self):
        spec = make_spec(c_ab=50.0, gamma_a_hz=0.1, gamma_b_hz=10.0, kappa_hz=1e4)
        c_om = math.sqrt(51.0)
        res = sweep_cooperativity(spec, [c_om], fidelity="full", fit_lines=True)
        expected = narrowed_linewidth(spec.mode_a.gamma, 50.0)
        assert res.linewidths[0] == pytest.approx(expected, rel=0.03)


class TestFullFidelityCovariance:
    """Full-fidelity occupations come from the steady-state covariance."""

    SPEC = make_spec(c_ab=50.0, gamma_a_hz=0.1, gamma_b_hz=10.0, kappa_hz=1e4)

    @pytest.fixture
    def no_spectrum(self, monkeypatch):
        def refused(*args, **kwargs):
            raise AssertionError("spectrum built without a line fit")

        monkeypatch.setattr(sweeps, "position_spectrum", refused)

    def test_sweep_points_are_exact_covariances(self, no_spectrum):
        c_oms = np.geomspace(1.0, 30.0, 5)
        res = sweep_cooperativity(self.SPEC, c_oms, fidelity="full")
        for c, n in zip(c_oms, res.n_eff):
            assert n == steady_state_occupation(_driven(self.SPEC, c), "a")

    def test_optimum_and_detuning_without_spectra(self, no_spectrum):
        c_star, _ = find_optimum(self.SPEC, bracket=(1.0, 60.0), fidelity="full")
        assert c_star == pytest.approx(math.sqrt(51.0), rel=0.05)
        res = sweep_detuning(self.SPEC, [0.0, 10.0], fidelity="full", c_om=c_star)
        assert all(e is None for e in res.errors)

    def test_sweep_into_instability_matches_point_by_point(self):
        # blue detuning: anti-damping destabilizes the upper part of the range
        spec = replace(
            self.SPEC, cavity=replace(self.SPEC.cavity, detuning=-self.SPEC.cavity.detuning)
        )
        c_oms = np.geomspace(0.01, 100.0, 13)
        res = sweep_cooperativity(spec, c_oms, fidelity="full")
        failed = [e is not None for e in res.errors]
        assert any(failed) and not all(failed)
        for i, c in enumerate(c_oms):
            one = sweep_cooperativity(spec, [c], fidelity="full")
            assert res.errors[i] == one.errors[0]
            assert np.array_equal(res.n_eff[i], one.n_eff[0], equal_nan=True)
            if failed[i]:
                assert "unstable" in res.errors[i]
            else:
                assert res.n_eff[i] == steady_state_occupation(_driven(spec, c), "a")

    def test_one_pencil_per_call(self, monkeypatch):
        calls = []
        pencil = sweeps._pencil

        def counted(*args, **kwargs):
            calls.append(args)
            return pencil(*args, **kwargs)

        monkeypatch.setattr(sweeps, "_pencil", counted)
        sweep_cooperativity(self.SPEC, np.geomspace(0.01, 1e3, 301), fidelity="full")
        assert len(calls) == 1
        find_optimum(self.SPEC, bracket=(1.0, 60.0), fidelity="full")
        assert len(calls) == 2

    def test_line_fit_still_builds_the_spectrum(self, monkeypatch):
        calls = []
        spectrum = sweeps.position_spectrum

        def counted(*args, **kwargs):
            calls.append(args)
            return spectrum(*args, **kwargs)

        monkeypatch.setattr(sweeps, "position_spectrum", counted)
        sweep_cooperativity(self.SPEC, [3.0, 7.0], fidelity="full", fit_lines=True)
        assert len(calls) == 2


class TestFindOptimum:
    def test_rwa_reproduces_closed_form(self, spec50):
        c_star, n_star = find_optimum(spec50, fidelity="rwa")
        assert c_star == pytest.approx(math.sqrt(51.0), rel=1e-4)
        expected = cooling_limit_ratio(50.0) * spec50.mode_a.nbar
        assert n_star == pytest.approx(expected, rel=1e-6)

    def test_rwa_cab_8(self):
        spec = make_spec(c_ab=8.0)
        c_star, n_star = find_optimum(spec, fidelity="rwa")
        assert c_star == pytest.approx(3.0, rel=1e-4)
        assert n_star == pytest.approx(0.5 * spec.mode_a.nbar, rel=1e-6)

    def test_full_within_five_percent(self):
        spec = make_spec(c_ab=50.0, gamma_a_hz=0.1, gamma_b_hz=10.0, kappa_hz=1e4)
        c_star, n_star = find_optimum(spec, bracket=(1.0, 60.0), fidelity="full")
        assert c_star == pytest.approx(math.sqrt(51.0), rel=0.05)
        assert n_star == pytest.approx(
            cooling_limit_ratio(50.0) * spec.mode_a.nbar, rel=0.05
        )

    def test_boundary_minimum_rejected(self, spec50):
        with pytest.raises(PhysicsError):
            find_optimum(spec50, bracket=(100.0, 1000.0), fidelity="rwa")

    def test_bad_bracket(self, spec50):
        with pytest.raises(ValueError):
            find_optimum(spec50, bracket=(1.0, 1.0))
        with pytest.raises(ValueError):
            find_optimum(spec50, bracket=(-1.0, 10.0))


class TestSweepDetuning:
    def test_zero_detuning_matches_closed_form(self, spec50):
        c_om = math.sqrt(51.0)
        res = sweep_detuning(spec50, [0.0], fidelity="rwa", c_om=c_om)
        expected = cooling_limit_ratio(50.0) * spec50.mode_a.nbar
        assert res.axis_name == "delta_ab"
        assert res.n_eff[0] == pytest.approx(expected, rel=1e-6)

    def test_cooling_degrades_with_splitting(self, spec50):
        gtot = spec50.mode_b.gamma * (1.0 + math.sqrt(51.0))
        deltas = np.linspace(0.0, 20.0, 9) * gtot
        res = sweep_detuning(spec50, deltas, fidelity="rwa", c_om=math.sqrt(51.0))
        assert np.all(np.diff(res.n_eff) > 0)
        # far detuned, the engineered bath decouples and n_eff -> nbar
        far = sweep_detuning(spec50, [1e4 * gtot], fidelity="rwa", c_om=math.sqrt(51.0))
        assert far.n_eff[0] == pytest.approx(spec50.mode_a.nbar, rel=1e-3)

    def test_optimize_each_beats_fixed(self, spec50):
        gtot = spec50.mode_b.gamma * (1.0 + math.sqrt(51.0))
        deltas = [5.0 * gtot]
        fixed = sweep_detuning(spec50, deltas, fidelity="rwa", c_om=math.sqrt(51.0))
        opt = sweep_detuning(
            spec50, deltas, fidelity="rwa", optimize_each=True, bracket=(0.1, 1e4)
        )
        assert opt.n_eff[0] <= fixed.n_eff[0] * (1.0 + 1e-9)

    @pytest.mark.parametrize("fidelity", ["rwa", "full"])
    def test_empty_axis(self, spec50, fidelity):
        assert sweep_detuning(spec50, [], fidelity=fidelity).n_eff.size == 0
        assert sweep_cooperativity(spec50, [], fidelity=fidelity).n_eff.size == 0

    def test_negative_detuning_rejected(self, spec50):
        with pytest.raises(ValueError):
            sweep_detuning(spec50, [-1.0], c_om=1.0)
