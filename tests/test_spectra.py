import math
from dataclasses import replace

import numpy as np
import pytest

from bathcool import (
    build_full_system,
    build_rwa_system,
    chi_a,
    chi_b,
    cooperativity_ab,
    effective_temperature,
    fit_lorentzian,
    force_spectrum_numeric,
    integrate_occupation,
    make_grid,
    n_eff_closed_form,
    optical_damping,
    position_spectrum,
    steady_state_occupation,
    susceptibility_matrix,
)
from bathcool import spectra
from bathcool.errors import (
    CoverageError,
    FitFailureError,
    NumericsError,
    UnstableSystemError,
)
from bathcool.model import CavityDrive, DriftModel, MechanicalMode, SystemSpec
from bathcool.spectra import RESIDUAL_TOL, _chi_batch, _solve_rows

from conftest import TWO_PI, make_spec


class TestGrid:
    def test_rwa_mirrored_clusters(self, spec50):
        model = build_rwa_system(spec50)
        grid = make_grid(model)
        assert len(grid.clusters) == 2 * model.dimension
        centers = sorted(c for c, _ in grid.clusters)
        assert centers == sorted(-c for c in centers)  # mirror symmetry

    def test_full_model_no_extra_mirror(self, spec50):
        model = build_full_system(spec50)
        grid = make_grid(model)
        assert len(grid.clusters) == model.dimension

    def test_sorted_and_spanning(self, spec50):
        model = build_rwa_system(spec50)
        grid = make_grid(model, span_linewidths=50)
        assert np.all(np.diff(grid.points) > 0)
        for center, width in grid.clusters:
            assert grid.points[0] <= center - 49 * width
            assert grid.points[-1] >= center + 49 * width

    def test_minimum_span_enforced(self, spec50):
        with pytest.raises(ValueError):
            make_grid(build_rwa_system(spec50), span_linewidths=3)

    def test_halved_keeps_endpoints(self, spec50):
        grid = make_grid(build_rwa_system(spec50))
        half = grid.halved()
        assert half.points[0] == grid.points[0]
        assert half.points[-1] == grid.points[-1]
        assert half.points.size < 0.6 * grid.points.size


def _diagonal_model(eigs):
    """A DriftModel whose drift is diag(eigs): one cluster per entry."""
    d = len(eigs)
    return DriftModel(
        dimension=d,
        drift=np.diag(eigs),
        noise_input=np.eye(d),
        input_correlations=np.ones((2, d)),
        labels=tuple(f"m{i}" for i in range(d)),
        kind="full",
    )


class TestGridClusters:
    EIG = complex(-0.05, -TWO_PI * 3e6)  # a narrow line far from omega = 0

    def _ulp_neighbour(self, eig):
        return complex(eig.real, np.nextafter(eig.imag, 0.0))

    def test_duplicate_in_last_bits_is_one_cluster(self):
        twin = _diagonal_model([self.EIG, self._ulp_neighbour(self.EIG)])
        single = _diagonal_model([self.EIG])
        grid = make_grid(twin)
        assert grid.clusters == make_grid(single).clusters
        assert np.array_equal(grid.points, make_grid(single).points)

    def test_degenerate_centers_share_one_center(self):
        # three lines at one resonance with different widths, as for
        # omega_a = omega_b below the exceptional point; the centers
        # differing in the last bit must not add grid points
        wide = complex(-50.0, self.EIG.imag)
        exact = _diagonal_model([self.EIG, wide])
        rounded = _diagonal_model([self.EIG, self._ulp_neighbour(wide)])
        grid = make_grid(rounded)
        assert len(grid.clusters) == 2
        assert grid.clusters[0][0] == grid.clusters[1][0]
        assert np.array_equal(grid.points, make_grid(exact).points)

    def test_distinct_resonances_kept(self):
        near = complex(self.EIG.real, self.EIG.imag + 1e-3)  # 1/50 linewidth away
        grid = make_grid(_diagonal_model([self.EIG, near]))
        assert len(grid.clusters) == 2
        assert grid.clusters[0][0] != grid.clusters[1][0]


class TestSusceptibility:
    def test_decoupled_diagonal_closed_form(self):
        spec = make_spec(c_ab=0.0)
        model = build_rwa_system(spec)
        omega = spec.mode_a.omega + 3 * spec.mode_a.gamma
        chi = susceptibility_matrix(model, omega)
        ia = model.index("a")
        bare = 1.0 / (-1j * (omega - spec.mode_a.omega) + spec.mode_a.gamma / 2)
        assert chi[ia, ia] == pytest.approx(bare, rel=1e-12)
        assert chi[ia, model.index("b")] == 0.0

    def test_transfer_matches_cascaded_susceptibilities(self):
        # at omega = omega_b = -detuning the cavity response is exactly
        # real, so the a <- b_in transfer factorizes through chi_a * chi_b
        spec = make_spec(c_ab=50.0, c_om=5.0)
        model = build_rwa_system(spec)
        omega = spec.mode_b.omega
        chi = susceptibility_matrix(model, omega)
        ia, ib = model.index("a"), model.index("b")
        gamma = optical_damping(spec.cavity.alpha_g0, spec.cavity.kappa)
        expected = (
            chi_a(omega, spec, gamma) * (-1j * spec.coupling) * chi_b(omega, spec, gamma)
        )
        assert chi[ia, ib] == pytest.approx(expected, rel=1e-8)

    def test_residual_guarantee(self, spec50):
        model = build_full_system(spec50)
        omegas = np.linspace(0.2, 2.0, 7) * spec50.mode_a.omega
        chi = _chi_batch(model, omegas)
        eye = np.eye(model.dimension)
        for w, x in zip(omegas, chi):
            t = -1j * w * eye - model.drift
            rel = np.linalg.norm(t @ x - eye) / (
                np.linalg.norm(t) * np.linalg.norm(x)
            )
            assert rel <= RESIDUAL_TOL

    def test_unstable_refused(self):
        spec = SystemSpec(
            mode_a=MechanicalMode(TWO_PI * 1e6, 0.0, 0.0),
            mode_b=MechanicalMode(TWO_PI * 1e6, TWO_PI * 10.0, 0.0),
            cavity=CavityDrive(
                kappa=TWO_PI * 1e5, detuning=-TWO_PI * 1e6, g0=0.0, alpha=0.0
            ),
            coupling=0.0,
        )
        model = build_rwa_system(spec)
        with pytest.raises(UnstableSystemError):
            susceptibility_matrix(model, TWO_PI * 1e6)
        chi = susceptibility_matrix(model, TWO_PI * 1.5e6, allow_unstable=True)
        assert np.all(np.isfinite(chi))


class TestRowSolve:
    @pytest.mark.parametrize("builder", [build_rwa_system, build_full_system])
    def test_quadrature_row_matches_chi_batch(self, builder, spec50):
        model = builder(make_spec(c_ab=50.0, c_om=5.0)).paired()
        omegas = np.linspace(-2.0, 2.0, 9) * spec50.mode_a.omega
        u = np.zeros((1, model.dimension))
        u[0, [model.index("a"), model.index("a_dag")]] = 1.0
        got = _solve_rows(model, omegas, u)[:, 0, :]
        chi = _chi_batch(model, omegas)
        expected = chi[:, model.index("a"), :] + chi[:, model.index("a_dag"), :]
        rel = np.linalg.norm(got - expected, axis=1) / np.linalg.norm(expected, axis=1)
        assert np.all(rel <= 1e-12)

    def test_refinement_step_repairs_a_poor_solve(self, spec50, monkeypatch):
        model = build_full_system(make_spec(c_ab=50.0, c_om=5.0))
        omegas = np.linspace(0.5, 1.5, 5) * spec50.mode_a.omega
        clean = _chi_batch(model, omegas)
        solve = np.linalg.solve
        calls = []

        def poor_first_solve(a, b):
            calls.append(a.shape[0])
            x = solve(a, b)
            return x * (1.0 + 1e-6) if len(calls) == 1 else x

        monkeypatch.setattr(np.linalg, "solve", poor_first_solve)
        chi = _chi_batch(model, omegas)
        assert calls == [omegas.size, omegas.size]  # solve, then one refinement
        assert np.allclose(chi, clean, rtol=1e-12, atol=0.0)

    def test_residual_beyond_tolerance_raises(self, spec50, monkeypatch):
        model = build_full_system(spec50)
        monkeypatch.setattr(spectra, "RESIDUAL_TOL", 0.0)
        with pytest.raises(NumericsError, match="susceptibility residual"):
            _chi_batch(model, np.array([spec50.mode_a.omega]))

    @pytest.mark.parametrize("with_grid", [False, True])
    def test_one_eigendecomposition_per_spectrum(self, spec50, monkeypatch, with_grid):
        model = build_rwa_system(spec50)
        grid = make_grid(model) if with_grid else None
        calls = []
        eigs = spectra.stability_eigenvalues

        def counted(m):
            calls.append(m.dimension)
            return eigs(m)

        monkeypatch.setattr(spectra, "stability_eigenvalues", counted)
        position_spectrum(model, "a", grid)
        force_spectrum_numeric(model, spec50, grid)
        assert len(calls) == 2


class TestPositionSpectrum:
    def test_thermal_equilibrium_rwa(self):
        spec = make_spec(c_ab=0.0)
        model = build_rwa_system(spec)
        res = position_spectrum(model, "a")
        assert res.n_eff == pytest.approx(spec.mode_a.nbar, rel=1e-3)
        assert res.n_eff_error < 1e-3
        assert res.T_eff == pytest.approx(300.0, rel=1e-3)
        assert res.T_eff == effective_temperature(res.n_eff, spec.mode_a.omega)

    def test_matches_closed_form_at_optimum(self):
        # the closed form drops terms of order (gamma_a + Gamma_a) over
        # (gamma_b + Gamma), about 1e-3 here, so compare at the 0.3% level
        spec = make_spec(c_ab=50.0, c_om=math.sqrt(51.0))
        model = build_rwa_system(spec)
        gamma = optical_damping(spec.cavity.alpha_g0, spec.cavity.kappa)
        expected = float(n_eff_closed_form(spec, gamma, spec.mode_a.nbar))
        res = position_spectrum(model, "a")
        assert res.n_eff == pytest.approx(expected, rel=3e-3)

    def test_full_and_rwa_agree(self):
        spec = make_spec(c_ab=50.0, c_om=5.0)
        n_rwa = position_spectrum(build_rwa_system(spec), "a").n_eff
        n_full = position_spectrum(build_full_system(spec), "a").n_eff
        assert n_full == pytest.approx(n_rwa, rel=0.02)

    def test_nonnegative_values(self, spec50):
        spec = make_spec(c_ab=50.0, c_om=7.0)
        res = position_spectrum(build_full_system(spec), "a")
        assert np.all(res.values >= 0)

    def test_refinement_stability(self):
        spec = make_spec(c_ab=50.0, c_om=3.0)
        model = build_rwa_system(spec)
        grid = make_grid(model)
        full = position_spectrum(model, "a", grid=grid)
        half = position_spectrum(model, "a", grid=grid.halved())
        assert half.n_eff == pytest.approx(full.n_eff, rel=1e-3)

    def test_rwa_matches_mirrored_susceptibility_reference(self):
        # S_xx = |chi(w)_a B|^2 (nbar+1) + |chi(-w)_a B|^2 nbar in the
        # annihilation basis, sampled at the peak, the tails and -omega
        spec = make_spec(c_ab=50.0, c_om=5.0)
        model = build_rwa_system(spec)
        res = position_spectrum(model, "a")
        n_plus, n_minus = model.input_correlations
        ia = model.index("a")
        pts = res.grid.points
        picks = [0, pts.size // 4, int(np.argmax(res.values)), pts.size - 1]
        picks.append(int(np.argmin(np.abs(pts + spec.mode_a.omega))))
        for i in picks:
            w_p = susceptibility_matrix(model, pts[i])[ia] @ model.noise_input
            w_m = susceptibility_matrix(model, -pts[i])[ia] @ model.noise_input
            expected = np.abs(w_p) ** 2 @ n_plus + np.abs(w_m) ** 2 @ n_minus
            assert res.values[i] == pytest.approx(expected, rel=1e-10)

    def test_unknown_label(self, spec50):
        model = build_rwa_system(spec50)
        with pytest.raises(ValueError):
            position_spectrum(model, "q")


def _criterion_7_draws(n, seed=7):
    """Seeded systems from the criterion-7 distribution."""
    rng = np.random.default_rng(seed)
    for _ in range(n):
        omega_hz = 10 ** rng.uniform(6, 7)
        gamma_a_hz = 10 ** rng.uniform(-2, 0)
        gamma_b_hz = gamma_a_hz * 10 ** rng.uniform(2, 4)
        c_ab = 10 ** rng.uniform(0, 2)
        c_om = 10 ** rng.uniform(-0.5, 1.3)
        t_a = 10 ** rng.uniform(-1, 3)
        t_b = t_a * 10 ** rng.uniform(-1, 1)
        spec = make_spec(
            c_ab=c_ab,
            gamma_a_hz=gamma_a_hz,
            gamma_b_hz=gamma_b_hz,
            omega_hz=omega_hz,
            temperature=t_a,
            c_om=c_om,
        )
        yield replace(spec, mode_b=replace(spec.mode_b, bath_temperature=t_b))


class TestSteadyStateOccupation:
    @pytest.mark.parametrize("builder", [build_rwa_system, build_full_system])
    def test_quadrature_agrees_with_covariance(self, builder):
        for spec in _criterion_7_draws(50):
            model = builder(spec)
            exact = steady_state_occupation(model, "a")
            quad = position_spectrum(model, "a").n_eff
            assert quad == pytest.approx(exact, rel=1e-3)

    @pytest.mark.parametrize("builder", [build_rwa_system, build_full_system])
    def test_decoupled_limit_is_bath_occupation(self, builder):
        spec = make_spec(c_ab=0.0, c_om=5.0)
        n = steady_state_occupation(builder(spec), "a")
        assert n == pytest.approx(spec.mode_a.nbar, rel=1e-12)

    def test_zero_temperature_rwa_is_vacuum(self):
        spec = make_spec(c_ab=50.0, c_om=5.0, temperature=0.0)
        n = steady_state_occupation(build_rwa_system(spec), "a")
        assert 0.0 <= n <= 1e-9  # the vacuum floor, to roundoff

    def test_residual_beyond_tolerance_raises(self, monkeypatch):
        # both paths return a perturbed Sigma: the eigenbasis one misses the
        # gate, and so does its Bartels-Stewart fallback
        model = build_full_system(make_spec(c_ab=50.0, c_om=5.0))
        calls = []
        eigenbasis = spectra._eigenbasis_lyapunov
        solve = spectra.solve_continuous_lyapunov

        def perturbed(name, fn):
            def wrapped(*args):
                calls.append(name)
                return fn(*args) * (1.0 + 1e-6)

            return wrapped

        monkeypatch.setattr(spectra, "_eigenbasis_lyapunov", perturbed("eig", eigenbasis))
        monkeypatch.setattr(spectra, "solve_continuous_lyapunov", perturbed("bs", solve))
        with pytest.raises(NumericsError, match="Lyapunov residual"):
            steady_state_occupation(model, "a")
        assert calls == ["eig", "bs"]

    def test_unstable_refused(self):
        spec = make_spec(c_ab=10.0, c_om=50.0)
        spec = replace(spec, cavity=replace(spec.cavity, detuning=-spec.cavity.detuning))
        with pytest.raises(UnstableSystemError):
            steady_state_occupation(build_full_system(spec), "a")

    def test_unknown_label(self, spec50):
        with pytest.raises(ValueError):
            steady_state_occupation(build_rwa_system(spec50), "q")


def _exceptional_point_spec():
    """omega_a = omega_b, alpha = 0 and lambda = (gamma_b - gamma_a)/4: the
    two mechanical eigenvalues coalesce and the eigenbasis is defective."""
    spec = make_spec(c_ab=50.0, c_om=None)
    return replace(spec, coupling=(spec.mode_b.gamma - spec.mode_a.gamma) / 4.0)


def _bartels_stewart_occupation(model, select="a"):
    """Independent n_eff: scipy's Schur-based solve and u Sigma u^T."""
    paired = model.paired()
    b = paired.noise_input
    q = (b * paired.input_correlations[0]) @ b.T
    sigma = spectra.solve_continuous_lyapunov(paired.drift, -q)
    u = np.zeros(paired.dimension)
    u[[paired.index(select), paired.index(select + "_dag")]] = 1.0
    return ((u @ sigma @ u).real - 1.0) / 2.0


class TestBatchedCovariance:
    """steady_state_occupations: one eigenbasis solve per batch, a
    Bartels-Stewart fallback where the residual gate fails."""

    @pytest.mark.parametrize("builder", [build_rwa_system, build_full_system])
    def test_exceptional_point_falls_back_to_bartels_stewart(self, builder, monkeypatch):
        model = builder(_exceptional_point_spec())
        paired = model.paired()
        b = paired.noise_input
        q = ((b * paired.input_correlations[0]) @ b.T)[None]
        lam, v = np.linalg.eig(paired.drift[None])
        sigma = spectra._eigenbasis_lyapunov(lam, v, q)
        assert spectra._lyapunov_residuals(paired.drift[None], sigma, q)[0] > RESIDUAL_TOL

        n = steady_state_occupation(model, "a")
        assert n == pytest.approx(_bartels_stewart_occupation(model), rel=1e-12)
        # the same number as a solve that skips the eigenbasis altogether
        def missed(lam, v, q):
            return np.full(q.shape, np.nan, dtype=complex)

        monkeypatch.setattr(spectra, "_eigenbasis_lyapunov", missed)
        assert steady_state_occupation(model, "a") == n

    def test_mixed_batch_matches_single_calls(self):
        stable = build_full_system(make_spec(c_ab=50.0, c_om=5.0))
        blue = make_spec(c_ab=10.0, c_om=50.0)
        blue = replace(blue, cavity=replace(blue.cavity, detuning=-blue.cavity.detuning))
        models = [
            stable,
            build_full_system(blue),
            build_full_system(_exceptional_point_spec()),
            build_rwa_system(make_spec(c_ab=8.0, c_om=3.0)),
        ]
        batch = spectra.steady_state_occupations(models, "a")
        assert isinstance(batch[1], UnstableSystemError)
        for model, entry in zip(models, batch):
            try:
                single = steady_state_occupation(model, "a")
            except UnstableSystemError as exc:
                assert type(entry) is type(exc) and str(entry) == str(exc)
            else:
                assert entry == single

    def test_non_finite_drift_is_a_per_point_error(self):
        good = build_full_system(make_spec(c_ab=50.0, c_om=5.0))
        drift = good.drift.copy()
        drift[0, 0] = complex(math.nan, 0.0)
        bad = replace(good, drift=drift)
        n_bad, n_good = spectra.steady_state_occupations([bad, good], "a")
        assert isinstance(n_bad, NumericsError)
        assert n_good == steady_state_occupation(good, "a")

    def test_empty_batch_and_unknown_label(self, spec50):
        assert spectra.steady_state_occupations([], "a") == []
        with pytest.raises(ValueError):
            spectra.steady_state_occupations([build_full_system(spec50)], "q")

    def test_one_eigendecomposition_per_batch(self, monkeypatch):
        spec = make_spec(c_ab=50.0, gamma_a_hz=0.1, gamma_b_hz=10.0, kappa_hz=1e4)
        models = [build_full_system(replace(spec, coupling=spec.coupling * f))
                  for f in (0.5, 1.0, 2.0)]
        calls = []
        eig = np.linalg.eig

        def counted(a):
            calls.append(a.shape)
            return eig(a)

        monkeypatch.setattr(spectra.np.linalg, "eig", counted)
        monkeypatch.setattr(spectra, "stability_eigenvalues", None)
        spectra.steady_state_occupations(models, "a")
        assert calls == [(3, 6, 6)]


class TestIntegration:
    def _lorentz_grid(self, center, fwhm, span=50.0):
        hw = fwhm / 2.0
        dense = np.linspace(center - 5 * fwhm, center + 5 * fwhm, 2001)
        tail = np.geomspace(5 * fwhm, span * fwhm, 400)[1:]
        pts = np.unique(np.concatenate([dense, center + tail, center - tail]))
        return pts, hw

    def test_analytic_lorentzian_occupation(self):
        # amp*pi*hw = 2*pi*(2n+1) gives occupation n exactly
        n_true = 123.456
        center, fwhm = TWO_PI * 1e6, TWO_PI * 40.0
        pts, hw = self._lorentz_grid(center, fwhm)
        amp = 2.0 * (2.0 * n_true + 1.0) / hw
        vals = amp * hw**2 / ((pts - center) ** 2 + hw**2)
        n_eff, rel_err = integrate_occupation(pts, vals)
        assert n_eff == pytest.approx(n_true, rel=1e-3)
        assert abs(n_eff - n_true) / n_true <= max(rel_err, 1e-4) * 10

    def test_tail_correction_improves_truncated_integral(self):
        n_true = 50.0
        center, fwhm = TWO_PI * 1e6, TWO_PI * 40.0
        pts, hw = self._lorentz_grid(center, fwhm)
        amp = 2.0 * (2.0 * n_true + 1.0) / hw
        vals = amp * hw**2 / ((pts - center) ** 2 + hw**2)
        raw = np.trapezoid(vals, pts) / (4.0 * math.pi) - 0.5
        n_eff, _ = integrate_occupation(pts, vals)
        # plain trapezoid misses ~0.64% at 50 linewidths; corrected < 0.1%
        assert abs(raw - n_true) / n_true > 3e-3
        assert abs(n_eff - n_true) / n_true < 1e-3

    def test_coverage_error_on_narrow_span(self):
        center, fwhm = TWO_PI * 1e6, TWO_PI * 40.0
        hw = fwhm / 2.0
        pts = np.linspace(center - 2 * fwhm, center + 2 * fwhm, 500)
        vals = hw**2 / ((pts - center) ** 2 + hw**2)
        with pytest.raises(CoverageError):
            integrate_occupation(pts, vals)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            integrate_occupation(np.arange(10.0), np.arange(9.0))


class TestLorentzFit:
    def test_recovers_synthetic_line(self):
        center, fwhm, amp, base = TWO_PI * 1e6, TWO_PI * 7.14, 3.0e-4, 1e-8
        x = np.linspace(center - 10 * fwhm, center + 10 * fwhm, 4001)
        hw = fwhm / 2.0
        y = amp * hw**2 / ((x - center) ** 2 + hw**2) + base
        fit = fit_lorentzian(x, y, (x[0], x[-1]))
        assert fit.center == pytest.approx(center, abs=1e-6 * fwhm)
        assert fit.fwhm == pytest.approx(fwhm, rel=1e-6)
        assert fit.area == pytest.approx(amp * math.pi * hw, rel=1e-6)

    def test_fitted_linewidth_of_cooled_mode(self):
        # at the optimum working point the line is gamma_a*sqrt(1+C_ab) wide
        spec = make_spec(c_ab=50.0, c_om=math.sqrt(51.0))
        model = build_rwa_system(spec)
        res = position_spectrum(model, "a")
        expected = spec.mode_a.gamma * math.sqrt(51.0)
        window = (spec.mode_a.omega - 8 * expected, spec.mode_a.omega + 8 * expected)
        fit = fit_lorentzian(res.grid, res.values, window)
        assert fit.fwhm == pytest.approx(expected, rel=0.03)
        assert fit.center == pytest.approx(spec.mode_a.omega, abs=0.3 * expected)

    def test_two_peaks_rejected(self):
        x = np.linspace(0.0, 10.0, 1001)
        y = 1.0 / ((x - 3) ** 2 + 0.04) + 1.0 / ((x - 7) ** 2 + 0.04)
        with pytest.raises(FitFailureError):
            fit_lorentzian(x, y, (0.0, 10.0))

    def test_flat_rejected(self):
        x = np.linspace(0.0, 10.0, 100)
        with pytest.raises(FitFailureError):
            fit_lorentzian(x, np.ones_like(x), (0.0, 10.0))

    def test_non_lorentzian_rejected(self):
        x = np.linspace(-5.0, 5.0, 1001)
        y = np.exp(-(x**2) / 0.5)  # Gaussian deviates > 5% from any Lorentzian
        with pytest.raises(FitFailureError):
            fit_lorentzian(x, y, (-5.0, 5.0))


class TestForceSpectrum:
    def _factor_at(self, result, omega):
        return float(np.interp(omega, result.grid.points, result.factor))

    def test_undamped_plateau_is_one_plus_cab(self):
        spec = make_spec(c_ab=50.0, c_om=None)
        model = build_rwa_system(spec)
        res = force_spectrum_numeric(model, spec)
        got = self._factor_at(res, spec.mode_a.omega)
        assert got == pytest.approx(51.0, rel=1e-6)

    def test_optimum_matches_closed_form(self):
        spec = make_spec(c_ab=50.0, c_om=math.sqrt(51.0))
        model = build_rwa_system(spec)
        res = force_spectrum_numeric(model, spec)
        expected = 1.0 + 50.0 / (1.0 + math.sqrt(51.0)) ** 2
        got = self._factor_at(res, spec.mode_a.omega)
        assert got == pytest.approx(expected, rel=1e-4)

    def test_far_from_resonance_bare(self):
        spec = make_spec(c_ab=50.0, c_om=math.sqrt(51.0))
        model = build_rwa_system(spec)
        res = force_spectrum_numeric(model, spec)
        # a megahertz away from mode b the extra bath is dark
        got = self._factor_at(res, 0.5 * spec.mode_a.omega)
        assert got == pytest.approx(1.0, rel=1e-3)

    def test_full_model_bracketed(self):
        spec = make_spec(c_ab=50.0, c_om=5.0)
        model = build_full_system(spec)
        res = force_spectrum_numeric(model, spec)
        got = self._factor_at(res, spec.mode_a.omega)
        cab = cooperativity_ab(spec)
        assert 1.0 <= got <= 1.0 + cab

    def test_mass_required(self):
        spec = make_spec()
        spec = SystemSpec(
            mode_a=spec.mode_a, mode_b=spec.mode_b, cavity=spec.cavity,
            coupling=spec.coupling, mass_a=None,
        )
        with pytest.raises(ValueError):
            force_spectrum_numeric(build_rwa_system(spec), spec)
