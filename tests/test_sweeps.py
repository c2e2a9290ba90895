import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

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
from bathcool import analytics, spectra, sweeps
from bathcool.analytics import induced_damping_detuned, regime_flags
from bathcool.errors import BathcoolError, NumericsError, PhysicsError, UnstableSystemError
from bathcool.model import DriftModel, _conjugate_swap, _pencil, effective_temperature

from conftest import make_spec
from test_spectra import _criterion_7_draws, _entries, _record


def _driven(spec, c_om):
    """The full model at G = sqrt(Gamma*kappa)/2 exactly (g0 = 1, alpha = G)."""
    g = math.sqrt(c_om * spec.mode_b.gamma * spec.cavity.kappa) / 2.0
    return build_full_system(replace(spec, cavity=replace(spec.cavity, alpha=g, g0=1.0)))


def _criterion_1_spec(c_ab):
    """The criterion-1 system: lambda = 1e-4 * omega_a at the requested C_ab."""
    return make_spec(c_ab=c_ab, gamma_a_hz=40.0 / c_ab, gamma_b_hz=1e3, kappa_hz=3e5)


# (spec, bracket): the README system over the CLI default range, and the
# three criterion-1 systems over their acceptance brackets
OPTIMA = [(make_spec(c_ab=50.0), (1e-2, 1e3))] + [
    (_criterion_1_spec(c), (0.3 * math.sqrt(1 + c), 3.0 * math.sqrt(1 + c)))
    for c in (8.0, 50.0, 200.0)
]


@pytest.fixture
def covariance_calls(monkeypatch):
    """``(points, with derivatives)`` of every batched covariance solve the
    sweeps make."""
    calls = []
    solve = sweeps._occupations

    def counted(pencil, g, r, slopes=False):
        calls.append((g.shape[0], slopes))
        return solve(pencil, g, r, slopes)

    monkeypatch.setattr(sweeps, "_occupations", counted)
    return calls


@pytest.fixture
def modal_solves(monkeypatch):
    """The point count of every covariance solve by a pencil's modal form."""
    calls = []
    solve = spectra._modal_solve

    def counted(modal, ops, g, rhs):
        calls.append(g.shape[0])
        return solve(modal, ops, g, rhs)

    monkeypatch.setattr(spectra, "_modal_solve", counted)
    return calls


class TestSweepCooperativity:
    def test_rwa_points_match_closed_form(self, spec50):
        c_oms = np.geomspace(0.1, 100.0, 13)
        res = sweep_cooperativity(spec50, c_oms, fidelity="rwa")
        assert res.axis_name == "C_OM"
        gb = spec50.mode_b.gamma
        for c, n, lw in zip(c_oms, res.n_eff, res.linewidths):
            assert n == pytest.approx(float(n_eff_closed_form(spec50, c * gb)), rel=1e-12)
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


    def test_fit_failure_is_a_point_error(self):
        # at C_OM = 0.5 and 5 the mode-a window holds a doublet; the sweep goes on
        spec = make_spec(c_ab=400.0, gamma_a_hz=1.0, gamma_b_hz=10.0)
        c_oms = [0.5, 5.0, 50.0, 500.0]
        res = sweep_cooperativity(spec, c_oms, fidelity="full", fit_lines=True)
        assert res.errors[:2] == ("fit_failure: 2 peaks in window; need exactly one",) * 2
        assert np.isnan(res.n_eff[:2]).all() and res.validity_flags[:2] == (None, None)
        assert res.errors[2:] == (None, None)
        assert res.linewidths[2:] == pytest.approx([56.4, 11.3], rel=1e-3)
        plain = sweep_cooperativity(spec, c_oms, fidelity="full")
        assert res.n_eff[2:].tolist() == plain.n_eff[2:].tolist()

    def test_rwa_where_the_squares_overflow(self, spec50):
        # (gamma_b + Gamma)^2 overflows past Gamma ~ 1.3e154 and lambda^2 (gamma_b + Gamma)
        # near C_OM = 1e299: Gamma_a takes its limit, 0, without a warning
        res = sweep_cooperativity(spec50, [1e-2, 1e150, 1e200, 1e299, 1e300], fidelity="rwa")
        assert res.errors == (None,) * 5
        assert res.n_eff[2:].tolist() == [spec50.mode_a.nbar] * 3
        assert res.linewidths[2:].tolist() == [spec50.mode_a.gamma] * 3

    def test_rwa_where_gamma_overflows(self, spec50):
        # past C_OM ~ 2.9e304 Gamma = C_OM gamma_b is inf: the same limit, no error
        res = sweep_cooperativity(spec50, [1e300, 1e305, 1.7e308], fidelity="rwa")
        assert res.errors == (None,) * 3
        assert res.n_eff.tolist() == [spec50.mode_a.nbar] * 3
        assert res.linewidths.tolist() == [spec50.mode_a.gamma] * 3

    def test_full_where_the_drift_overflows(self, spec50):
        # at 1e298 the norms of the certificate overflow; past it G overflows
        # and the drift holds inf * 0: point errors of their own kind, and
        # no warning (RuntimeWarning is an error here)
        c_oms = [1e298, 1e299, 1e300]
        res = sweep_cooperativity(spec50, c_oms, fidelity="full")
        kinds = [e.split(":")[0] for e in res.errors]
        assert kinds == ["unstable_system", "numerical_failure", "numerical_failure"]
        assert res.errors[1:] == ("numerical_failure: drift matrix has non-finite entries",) * 2
        assert np.isnan(res.n_eff).all()
        for c, error in zip(c_oms, res.errors):
            assert sweep_cooperativity(spec50, [c], fidelity="full").errors == (error,)


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

    @pytest.mark.parametrize("part", [0, 1])
    def test_a_pencil_off_its_pairing_is_refused(self, monkeypatch, part):
        # the covariance solve folds onto the paired coordinates, so a
        # pencil whose A0 or A1 breaks A = P conj(A) P must not reach it
        pencil = sweeps._pencil

        def broken(*args, **kwargs):
            parts = list(pencil(*args, **kwargs))
            parts[part] = parts[part].copy()
            parts[part][0, 2] += 0.3j  # no conjugate partner at [1, 3]
            return tuple(parts)

        monkeypatch.setattr(sweeps, "_pencil", broken)
        monkeypatch.setattr(sweeps, "_prepare_noise", None)
        with pytest.raises(ValueError, match="not conjugate-paired"):
            sweeps._n_effs(self.SPEC, "full")

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

    # (C_ab, fidelity, repr of C* and n*) on the README system over the
    # default bracket, pinned bit for bit: the covariance call's bookkeeping
    # may change, its numbers may not.  The full-fidelity bits are those of
    # the LU in numpy 2's OpenBLAS on x86-64; another LAPACK may round them
    # differently.
    PINNED = [
        (10.0, "rwa", ("3.316624790341272", "2896237.521297933")),
        (10.0, "full", ("3.3276088736706413", "2900349.2853145027")),
        (50.0, "rwa", ("7.14142842854341", "1535599.163331309")),
        (50.0, "full", ("7.165080180510523", "1539014.3698846535")),
        (300.0, "rwa", ("17.34935157289713", "681330.3801785514")),
        (300.0, "full", ("17.406834679557694", "683228.7251139985")),
    ]

    @pytest.mark.parametrize("c_ab, fidelity, pinned", PINNED)
    def test_readme_optima_are_pinned_bitwise(self, c_ab, fidelity, pinned):
        if fidelity == "full" and np.lib.NumpyVersion(np.__version__) < "2.0.0":
            pytest.skip("the full-fidelity bits are pinned for numpy 2's LAPACK")
        assert tuple(map(repr, find_optimum(make_spec(c_ab=c_ab), fidelity=fidelity))) == pinned

    def test_rwa_lands_on_the_analytic_optimum(self, spec50):
        # with the detuning-free closed form the optimum is sqrt(1 + C_ab) exactly
        c_star, n_star = find_optimum(spec50, fidelity="rwa")
        assert c_star == pytest.approx(math.sqrt(51.0), rel=1e-9)
        gamma = c_star * spec50.mode_b.gamma
        assert n_star == n_eff_closed_form(spec50, gamma)

    def test_bisects_on_the_slope_sign_alone(self, spec50, monkeypatch):
        # a slope of fixed, huge magnitude carries its sign only: the first
        # step leaves the bracket, two points on one side give no curvature,
        # and a secant across the optimum lands midway, so every step is a
        # bisection and the search still reaches the optimum at that rate
        n_effs = sweeps._n_effs
        steps = []

        def sign_only(spec, fidelity):
            evaluate = n_effs(spec, fidelity)

            def entries(gammas, slopes=False):
                out = evaluate(gammas, slopes)
                if slopes:
                    steps.append(gammas)
                    out = _record([(n, math.copysign(1e12, d1)) for n, d1 in _entries(out)])
                return out

            return entries

        monkeypatch.setattr(sweeps, "_n_effs", sign_only)
        c_star, _ = find_optimum(spec50, fidelity="rwa")
        assert c_star == pytest.approx(math.sqrt(51.0), rel=2e-6)
        # the bracket is 2h wide, h = log(1e5)/24, and each evaluation halves
        # it until the step is below 1e-6
        assert len(steps) <= math.ceil(math.log2(2 * math.log(1e5) / 24 / 1e-6)) + 1


class TestUnstableScanPoints:
    """An unstable point of the coarse scan scores +inf; the search fails
    only when the minimum of the stable points is not interior to them."""

    WIDE = (0.1, 1e4)  # the README system is unstable from C_OM ~ 3.8e3 up

    def test_full_search_skips_the_unstable_end(self, spec50):
        gb = spec50.mode_b.gamma
        (top,) = _entries(sweeps._n_effs(spec50, "full")([self.WIDE[1] * gb]))
        assert isinstance(top, UnstableSystemError)
        c_star, n_star = find_optimum(spec50, self.WIDE, "full")
        c_ref, n_ref = find_optimum(spec50, fidelity="full")
        assert c_star == pytest.approx(c_ref, rel=1e-5)
        assert n_star == pytest.approx(n_ref, rel=1e-9)

    def test_optimize_each_has_no_error_rows(self, spec50):
        splittings = np.linspace(0.0, 3.0, 7) * spec50.mode_b.gamma
        res = sweep_detuning(
            spec50, splittings, fidelity="full", optimize_each=True, bracket=self.WIDE
        )
        assert res.errors == (None,) * splittings.size
        assert np.all(np.isfinite(res.n_eff))

    @pytest.fixture
    def scan(self, monkeypatch):
        """Let find_optimum see ``entries[i]`` at scan point i."""

        def install(entries):
            monkeypatch.setattr(
                sweeps, "_n_effs", lambda spec, fidelity: lambda gammas, slopes=False: _record(entries)
            )

        return install

    def test_minimum_next_to_an_unstable_point_rejected(self, spec50, scan):
        scan([3.0] * 21 + [2.0, 1.0, UnstableSystemError("u1"), UnstableSystemError("u2")])
        with pytest.raises(PhysicsError, match="no interior"):
            find_optimum(spec50)

    def test_failed_scan_names_its_lowest_point(self, spec50, scan):
        scan([3.0] * 21 + [2.0, 1.0, UnstableSystemError("u1"), UnstableSystemError("u2")])
        with pytest.raises(PhysicsError) as err:
            find_optimum(spec50)
        assert str(err.value) == (
            "no interior n_eff minimum in C_OM bracket [0.01, 1000]: the lowest of the 25 "
            "scan points, point 23 at C_OM = 383.119, is next to an unstable point"
        )
        scan([1.0] + [2.0] * 24)
        with pytest.raises(PhysicsError, match=r"point 1 at C_OM = 0\.01, is at a bracket end$"):
            find_optimum(spec50)

    def test_scan_too_coarse_for_a_wide_bracket(self, spec50):
        # 25 points over 137 decades step 5.7 decades: the README system's
        # optimum near C_OM = 7 falls between points 1 and 2, and point 1 scores lower
        assert find_optimum(spec50, (1e-2, 1e134))[0] == pytest.approx(7.14, rel=1e-3)
        with pytest.raises(PhysicsError, match=r"^no interior n_eff minimum .*point 1 at C_OM = 0\.01, is at a bracket end$"):
            find_optimum(spec50, (1e-2, 1e135))

    def test_every_point_unstable_raises_the_first(self, spec50, scan):
        scan([UnstableSystemError("u1")] + [UnstableSystemError("u2")] * 24)
        with pytest.raises(UnstableSystemError, match="u1"):
            find_optimum(spec50)

    def test_other_point_errors_still_raise(self, spec50, scan):
        scan([3.0, 1.0] + [2.0] * 21 + [NumericsError("n1"), UnstableSystemError("u1")])
        with pytest.raises(NumericsError, match="n1"):
            find_optimum(spec50)
        # of two such errors the lower index is raised; an unstable point
        # below both, and a PhysicsError that is not an instability, do not
        # change that
        scan([UnstableSystemError("u0"), 1.0] + [2.0] * 20 + [PhysicsError("p1"), 3.0, NumericsError("n2")])
        with pytest.raises(PhysicsError, match="p1"):
            find_optimum(spec50)


class TestSecantSearch:
    """The search is checked against methods that share none of its code:
    a derivative-free minimizer and finite differences of the values."""

    @pytest.mark.parametrize("spec, bracket", OPTIMA)
    def test_matches_a_value_only_minimizer(self, spec, bracket):
        c_star, n_star = find_optimum(spec, bracket=bracket, fidelity="full")
        xs = np.linspace(math.log(bracket[0]), math.log(bracket[1]), 25)
        k = int(np.argmin(np.abs(xs - math.log(c_star))))
        n = lambda x: steady_state_occupation(_driven(spec, math.exp(x)), "a")
        ref = minimize_scalar(
            n, bounds=(xs[k - 1], xs[k + 1]), method="bounded", options={"xatol": 1e-10}
        )
        # n_eff carries roundoff of about 1e-10 relative here (omega_a/gamma_a ~
        # 1e6); with a curvature of order 1 in log C_OM, n_eff changes by that
        # much only about 3e-5 from the minimum, so a minimizer that sees values
        # alone locates it to about 3e-5, whatever its xatol
        assert c_star == pytest.approx(math.exp(ref.x), rel=1e-4)
        assert n_star <= ref.fun * (1.0 + 1e-9)

    @pytest.mark.parametrize("spec, bracket", OPTIMA)
    def test_stationary_by_finite_differences(self, spec, bracket):
        c_star, n_star = find_optimum(spec, bracket=bracket, fidelity="full")
        assert n_star == pytest.approx(
            steady_state_occupation(_driven(spec, c_star), "a"), rel=1e-9
        )
        # the Newton step from central differences of the values, which average
        # the roundoff over h = 1e-2, is below the 1e-6 tolerance in log C_OM
        h = 1e-2
        lo, mid, hi = (
            steady_state_occupation(_driven(spec, c_star * math.exp(s * h)), "a")
            for s in (-1, 0, 1)
        )
        d1, d2 = (hi - lo) / (2 * h), (hi - 2 * mid + lo) / h**2
        assert d2 > 0
        assert abs(d1 / d2) < 1e-6

    @pytest.mark.parametrize("fidelity", ["rwa", "full"])
    def test_slopes_match_central_differences(self, fidelity):
        spec = make_spec(c_ab=50.0, delta_b_hz=300.0)  # b detuned by 0.3 gamma_b
        gb = spec.mode_b.gamma
        if fidelity == "full":
            n = lambda c: steady_state_occupation(_driven(spec, c), "a")
            h, tol = 1e-3, 1e-5
        else:
            n = lambda c: n_eff_closed_form(spec, c * gb)
            h, tol = 1e-4, 1e-7
        entries = sweeps._n_effs(spec, fidelity)
        for c in (1.0, 3.0, 30.0):
            (value, slope), = _entries(entries([c * gb], slopes=True))
            assert value == _entries(entries([c * gb]))[0]
            assert slope == pytest.approx(
                (n(c * math.exp(h)) - n(c * math.exp(-h))) / (2 * h), rel=tol
            )

    def test_slopes_at_the_exceptional_point_match_central_differences(self):
        # omega_a = omega_b, alpha = 0, lambda = (gamma_b - gamma_a)/4: the
        # mechanical eigenvalues coalesce; the slope along dA/dlambda is
        # solved on the same folded operator as Sigma
        spec = make_spec(c_ab=50.0)
        lam = (spec.mode_b.gamma - spec.mode_a.gamma) / 4.0
        drift = lambda x: _pencil(replace(spec, coupling=x), rotating_wave=False)[0]
        _, _, b, corr, labels = _pencil(spec, rotating_wave=False)
        da = drift(1.0) - drift(0.0)  # exact: the lambda entries are +-1j

        perm = _conjugate_swap(labels, da)

        def entry(x, slopes=False):
            pencil = spectra._prepare_noise(drift(x), da, b, corr[0], perm)  # at G = 0
            (e,) = _entries(spectra._occupations(pencil, np.zeros(1), 0, slopes))
            return e

        n, slope = entry(lam, slopes=True)
        assert n == steady_state_occupation(DriftModel(6, drift(lam), b, corr, labels), "a")
        h = 1e-2 * lam
        assert slope == pytest.approx((entry(lam + h) - entry(lam - h)) / (2 * h), rel=1e-5)

class TestEvaluationCounts:
    SPEC = make_spec(c_ab=50.0)

    @pytest.mark.parametrize("spec, bracket", OPTIMA)
    def test_find_optimum_full_makes_at_most_six_solves(self, spec, bracket, covariance_calls):
        find_optimum(spec, bracket=bracket, fidelity="full")
        # the coarse scan is one batched call without derivatives
        assert covariance_calls[0] == (25, False)
        assert covariance_calls[1:] == [(1, True)] * (len(covariance_calls) - 1)
        assert len(covariance_calls) <= 6

    def test_each_pencil_prepares_its_noise_side_once(self, monkeypatch, covariance_calls):
        # a search's scan and secant steps, with and without slopes, all
        # solve against the one preparation its _n_effs made
        prepared = []
        prepare = sweeps._prepare_noise

        def counted(*args):
            prepared.append(args)
            return prepare(*args)

        monkeypatch.setattr(sweeps, "_prepare_noise", counted)
        find_optimum(self.SPEC, bracket=(1e-2, 1e3), fidelity="full")
        assert len(prepared) == 1
        assert {with_slopes for _, with_slopes in covariance_calls} == {False, True}
        # a detuning sweep is one pencil in omega_b, with a noise row per point
        sweep_detuning(self.SPEC, [0.0, 1e3, 2e3], fidelity="full", c_om=7.0)
        assert len(prepared) == 2 and prepared[1][0].shape == (6, 6) and prepared[1][3].shape == (3, 6)

    def test_a_search_solves_by_lu_and_a_sweep_by_the_modal_form(self, covariance_calls, modal_solves):
        # the 25-point scan and the one-point secant steps stay below the
        # crossover; a 301-point sweep takes the modal form, Sigma only
        find_optimum(self.SPEC, bracket=(1e-2, 1e3), fidelity="full")
        assert covariance_calls[0] == (25, False) and modal_solves == []
        sweep_cooperativity(self.SPEC, np.geomspace(0.01, 1e3, 301), fidelity="full")
        assert covariance_calls[-1] == (301, False) and modal_solves == [301]

    def test_sweeps_compute_no_derivatives(self, covariance_calls):
        sweep_cooperativity(self.SPEC, np.geomspace(0.01, 1e3, 301), fidelity="full")
        sweep_detuning(self.SPEC, [0.0, 1e3], fidelity="full", c_om=7.0)
        assert covariance_calls == [(301, False), (2, False)]

    @pytest.mark.parametrize("fidelity", ["rwa", "full"])
    def test_optimize_each_matches_point_by_point(self, fidelity):
        # at 40 gamma_b of splitting the optimum leaves the bracket (0.1, 30):
        # that point records its PhysicsError, the others their optimum
        gb = self.SPEC.mode_b.gamma
        deltas = np.array([0.0, 0.5, 2.0, 40.0]) * gb
        bracket = (0.1, 30.0)
        res = sweep_detuning(
            self.SPEC, deltas, fidelity=fidelity, optimize_each=True, bracket=bracket
        )
        assert res.errors[-1] is not None and "no interior" in res.errors[-1]
        assert math.isnan(res.n_eff[-1])
        for i, delta in enumerate(deltas[:-1]):
            assert res.errors[i] is None
            mode_b = replace(self.SPEC.mode_b, omega=self.SPEC.mode_a.omega + delta)
            one = replace(self.SPEC, mode_b=mode_b)
            c_star, n_star = find_optimum(one, bracket=bracket, fidelity=fidelity)
            assert res.n_eff[i] == n_star
            split = one.mode_b.omega - one.mode_a.omega
            gamma_a = induced_damping_detuned(one.coupling, gb, c_star * gb, split)
            assert res.linewidths[i] == self.SPEC.mode_a.gamma + gamma_a


class TestErrorOrder:
    def test_sweep_errors_match_single_point_sweeps(self):
        # a non-finite drift (G overflows past C_OM ~ 1.5e298) after an
        # unstable point: the batch finds the non-finite one first
        spec = make_spec(c_ab=50.0)
        c_oms = [1.0, 7.0, 1e4, 3e5, 1e300]
        res = sweep_cooperativity(spec, c_oms, fidelity="full")
        singles = [sweep_cooperativity(spec, [c], fidelity="full") for c in c_oms]
        assert res.errors == tuple(one.errors[0] for one in singles)
        assert res.errors[2].startswith("unstable_system: ")
        assert res.errors[4] == "numerical_failure: drift matrix has non-finite entries"
        assert np.array_equal(res.n_eff, [one.n_eff[0] for one in singles], equal_nan=True)


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

    def test_rwa_at_an_overflowing_gamma(self, spec50):
        res = sweep_detuning(spec50, [0.0, 10.0], fidelity="rwa", c_om=1e300)
        assert res.errors == (None, None)
        assert res.n_eff.tolist() == [spec50.mode_a.nbar] * 2

    def test_full_at_an_overflowing_gamma(self, spec50):
        # G overflows, so A0' holds inf * 0: a per-point error, not a refused pencil
        res = sweep_detuning(spec50, [0.0, 10.0], fidelity="full", c_om=1e300)
        assert res.errors == ("numerical_failure: drift matrix has non-finite entries",) * 2
        assert np.isnan(res.n_eff).all()

    def test_negative_detuning_rejected(self, spec50):
        with pytest.raises(ValueError):
            sweep_detuning(spec50, [-1.0], c_om=1.0)


class TestNonFiniteInputs:
    """A non-finite C_OM, splitting, bracket end or c_om is a ValueError
    naming it, raised before any point is evaluated."""

    @pytest.fixture(autouse=True)
    def no_evaluation(self, monkeypatch):
        def refused(*args, **kwargs):
            raise AssertionError("evaluated before the arguments were checked")

        for name in ("_n_effs", "_n_eff_columns", "_omega_b_pencil"):
            monkeypatch.setattr(sweeps, name, refused)

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    @pytest.mark.parametrize("fidelity", ["rwa", "full"])
    def test_sweep_cooperativity(self, spec50, fidelity, bad):
        with pytest.raises(ValueError, match=f"C_OM values must be finite, got {bad!r}"):
            sweep_cooperativity(spec50, [1.0, bad], fidelity=fidelity)

    @pytest.mark.parametrize("bad", [math.inf, math.nan, -math.inf])
    @pytest.mark.parametrize("optimize_each", [False, True])
    @pytest.mark.parametrize("fidelity", ["rwa", "full"])
    def test_sweep_detuning_splitting(self, spec50, fidelity, optimize_each, bad):
        # the first non-finite value is named, before the sign test and any spec
        with pytest.raises(ValueError, match=f"^detuning values must be finite, got {bad!r}$"):
            sweep_detuning(spec50, [0.0, -1.0, bad, math.nan], fidelity=fidelity, optimize_each=optimize_each)

    @pytest.mark.parametrize("bracket", [(0.01, math.inf), (math.nan, 10.0), (0.01, math.nan)])
    @pytest.mark.parametrize("fidelity", ["rwa", "full"])
    def test_find_optimum_bracket(self, spec50, fidelity, bracket):
        with pytest.raises(ValueError, match=f"got \\({bracket[0]!r}, {bracket[1]!r}\\)"):
            find_optimum(spec50, bracket=bracket, fidelity=fidelity)

    @pytest.mark.parametrize("optimize_each", [False, True])
    @pytest.mark.parametrize("fidelity", ["rwa", "full"])
    def test_sweep_detuning_bracket(self, spec50, fidelity, optimize_each):
        with pytest.raises(ValueError, match="got \\(0.01, inf\\)"):
            sweep_detuning(
                spec50, [0.0], fidelity=fidelity, optimize_each=optimize_each,
                bracket=(0.01, math.inf),
            )

    @pytest.mark.parametrize("c_om", [math.inf, -math.inf, math.nan, -1.0])
    @pytest.mark.parametrize("fidelity", ["rwa", "full"])
    def test_sweep_detuning_c_om(self, spec50, fidelity, c_om):
        with pytest.raises(ValueError, match=f"c_om must be finite and >= 0, got {c_om!r}"):
            sweep_detuning(spec50, [0.0], fidelity=fidelity, c_om=c_om)


# C_OM over eight decades: the full model is unstable at the top of the range
WIDE = np.geomspace(1e-2, 1e6, 61)
# the README system over C_OM in [0.1, 1e5]: 46 stable points, then 15 unstable
MIXED = (make_spec(c_ab=50.0), np.geomspace(0.1, 1e5, 61))


def _split(spec, delta):
    """``spec`` with mode b moved to omega_a + delta, as sweep_detuning moves it."""
    return replace(spec, mode_b=replace(spec.mode_b, omega=spec.mode_a.omega + delta))


def _rebuild(spec, fidelity, gamma, closed_form_linewidth=True):
    """``(n_eff, T_ratio, linewidth, flags, error)`` of one sweep point,
    from the scalar public functions alone."""
    try:
        if fidelity == "rwa":
            n = n_eff_closed_form(spec, gamma)
        else:
            g = math.sqrt(gamma * spec.cavity.kappa) / 2.0
            drive = replace(spec.cavity, alpha=g, g0=1.0)
            n = steady_state_occupation(build_full_system(replace(spec, cavity=drive)), "a")
    except BathcoolError as exc:
        return math.nan, math.nan, math.nan, None, f"{exc.kind}: {exc}"
    t = spec.mode_a.bath_temperature
    t_ratio = effective_temperature(n, spec.mode_a.omega) / t if t > 0 else math.nan
    lw = math.nan
    if closed_form_linewidth:
        delta = spec.mode_b.omega - spec.mode_a.omega
        lw = spec.mode_a.gamma + induced_damping_detuned(
            spec.coupling, spec.mode_b.gamma, gamma, delta
        )
    return n, t_ratio, lw, regime_flags(spec, gamma), None


def _assert_rebuilt(res, points):
    """``res`` equals the point-by-point rebuild, bit for bit."""
    n, t_ratio, lw, flags, errors = zip(*points)
    for column, expected in ((res.n_eff, n), (res.T_ratio, t_ratio), (res.linewidths, lw)):
        assert np.array_equal(column, expected, equal_nan=True)
    assert res.validity_flags == flags
    assert res.errors == errors


class TestColumnsMatchScalars:
    """The column forms of the closed forms, and the sweeps built on them,
    equal the scalar public functions bit for bit."""

    @pytest.mark.parametrize("split", [0.0, 0.7, -3.0])
    def test_closed_form_columns(self, split):
        # mode b detuned by split * gamma_b; the draws' baths differ in temperature
        squares_that_differ = 0
        for spec in _criterion_7_draws(48, seed=16):
            spec = _split(spec, split * spec.mode_b.gamma)
            gb, wa, wb = spec.mode_b.gamma, spec.mode_a.omega, spec.mode_b.omega
            gammas = WIDE * gb
            omega_b = np.full(gammas.size, wb)
            flags = analytics._regime_flags_column(spec, gammas, omega_b)
            damping = analytics._induced_damping(spec.coupling, gb + gammas, omega_b - wa)
            for i, g in enumerate(gammas.tolist()):
                assert flags[i] == regime_flags(spec, g)
                assert damping[i] == induced_damping_detuned(spec.coupling, gb, g, wb - wa)
                squares_that_differ += (gb + g) ** 2 != (gb + g) * (gb + g)
            assert len({id(f) for f in flags}) == len(set(flags))  # one instance per flag set
        # numpy's x*x would have failed the comparisons above at these points
        assert squares_that_differ > 0

    @pytest.mark.parametrize("fidelity", ["rwa", "full"])
    def test_sweep_cooperativity(self, fidelity):
        cases = [(spec, WIDE) for spec in _criterion_7_draws(6, seed=17)] + [MIXED]
        for spec, c_oms in cases:
            res = sweep_cooperativity(spec, c_oms, fidelity=fidelity)
            gammas = (c_oms * spec.mode_b.gamma).tolist()
            _assert_rebuilt(res, [_rebuild(spec, fidelity, g, fidelity == "rwa") for g in gammas])
        # the README sweep: the unstable points keep their None flags and errors
        assert fidelity == "rwa" or sum(e is not None for e in res.errors) == 15

    @pytest.mark.parametrize("fidelity", ["rwa", "full"])
    def test_sweep_detuning(self, fidelity):
        for spec in list(_criterion_7_draws(6, seed=18)) + [MIXED[0]]:
            gb = spec.mode_b.gamma
            deltas = np.array([0.0, 0.05, 0.5, 2.0, 7.5, 40.0]) * gb
            for c_om in (3.0, 3e5):
                res = sweep_detuning(spec, deltas, fidelity=fidelity, c_om=c_om)
                points = [_rebuild(_split(spec, d), fidelity, c_om * gb) for d in deltas]
                _assert_rebuilt(res, points)
