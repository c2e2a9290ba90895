import math
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import least_squares
from scipy.signal import find_peaks

from bathcool import (
    build_full_system,
    build_rwa_system,
    chi_a,
    chi_b,
    cooling_summary,
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
    sweep_detuning,
)
import bathcool
from bathcool import spectra
from bathcool.design import BeamGeometry, design_to_system, load_material
from bathcool.errors import (
    BathcoolError,
    CoverageError,
    FitFailureError,
    NumericsError,
    UnstableSystemError,
)
from bathcool.model import (
    CavityDrive,
    DriftModel,
    MechanicalMode,
    SystemSpec,
    _conjugate_swap,
    _omega_b_pencil,
    _pencil,
)
from bathcool.spectra import RESIDUAL_TOL, _peaks, _solve_rows

from conftest import TWO_PI, make_spec


class TestGrid:
    def test_rwa_mirrored_clusters(self, spec50):
        model = build_rwa_system(spec50)
        grid = make_grid(model)
        assert len(grid.clusters) == model.dimension == 6
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

    @pytest.mark.parametrize(
        "points, message",
        [([0.0, 1.0, 2.0], "at least 4"), ([0.0, 1.0, 1.0, 2.0], "strictly increasing"),
         ([0.0, 2.0, 1.0, 3.0], "strictly increasing"), ([[0.0, 1.0], [2.0, 3.0]], "at least 4"),
         ([0.0, 1.0, 2.0, math.inf], "finite"), ([-math.inf, 0.0, 1.0, 2.0], "finite"),
         ([0.0, 1.0, math.nan, 2.0], "finite")],
    )
    def test_frequency_grid_refuses_bad_points(self, points, message):
        with pytest.raises(ValueError, match=message):
            spectra.FrequencyGrid(points=np.array(points), clusters=())

    def test_frequency_grid_copies_its_points(self):
        x = np.linspace(0.0, 1.0, 10)
        grid = spectra.FrequencyGrid(x, ())
        assert x.flags.writeable
        assert not grid.points.flags.writeable
        x[0] = -1.0
        assert grid.points[0] == 0.0

    def test_minimum_span_enforced(self, spec50):
        with pytest.raises(ValueError):
            make_grid(build_rwa_system(spec50), span_linewidths=3)

    def test_halved_keeps_endpoints(self, spec50):
        grid = make_grid(build_rwa_system(spec50))
        half = grid.halved()
        assert half.points[0] == grid.points[0]
        assert half.points[-1] == grid.points[-1]
        assert half.points.size < 0.6 * grid.points.size

    # (points_per_linewidth, log_points): default, the criterion-7 fine
    # grid, an even dense count, and no log fill
    GRID_SETTINGS = [(20.0, 160), (60.0, 240), (2.5, 3), (1.0, 0)]

    @pytest.mark.parametrize("builder", [build_rwa_system, build_full_system])
    def test_paired_grids_are_mirror_symmetric(self, builder):
        for spec in _criterion_7_draws(10):
            model = builder(spec)
            for ppl, log_points in self.GRID_SETTINGS:
                grid = make_grid(model, points_per_linewidth=ppl, log_points=log_points)
                assert grid.points.size % 2 == 1  # omega = 0 and its mirrored halves
                for points in (grid.points, grid.halved().points):
                    assert np.array_equal(points, -points[::-1])

    @pytest.mark.parametrize("builder", [build_rwa_system, build_full_system])
    def test_count_never_exceeds_the_documented_cap(self, builder):
        # README [grid]: at most 6 * (round(10 ppl) + 1 + 2 log_points) points
        for spec in _criterion_7_draws(50):
            model = builder(spec)
            for ppl, log_points in self.GRID_SETTINGS:
                grid = make_grid(model, points_per_linewidth=ppl, log_points=log_points)
                assert grid.points.size <= 6 * (round(10 * ppl) + 1 + 2 * log_points)

    @pytest.mark.parametrize("builder", [build_rwa_system, build_full_system])
    def test_unpaired_points_match_a_per_cluster_construction(self, builder):
        # the grid's positive half is the top of the points before the
        # mirror pairs them, built one cluster at a time
        for spec in _criterion_7_draws(10):
            model = builder(spec)
            for ppl, log_points in self.GRID_SETTINGS:
                grid = make_grid(model, points_per_linewidth=ppl, log_points=log_points)
                unpaired = _per_cluster_points(grid.clusters, 50.0, ppl, log_points)
                half, top = grid.points[grid.points > 0], unpaired[unpaired > 0]
                assert np.array_equal(half, top[top.size - half.size :])
                assert grid.points.size <= unpaired.size

    def test_mirrored_grid_has_no_more_points_than_the_unmirrored_one(self, spec50):
        grid = make_grid(build_full_system(spec50))
        unmirrored = _per_cluster_points(grid.clusters, 50.0, 20.0, 160)
        assert grid.points.size <= unmirrored.size
        assert np.array_equal(grid.points[grid.points > 0][-100:], unmirrored[-100:])


def _per_cluster_points(clusters, span, ppl, log_points):
    """The unmirrored grid points, built one cluster at a time."""
    lo = min(c - span * w for c, w in clusters)
    hi = max(c + span * w for c, w in clusters)
    n_dense = int(round(10 * ppl)) + 1
    pieces = []
    for center, width in clusters:
        right = max(hi - center, span * width)
        left = max(center - lo, span * width)
        pieces += [
            center + width * np.linspace(-5.0, 5.0, n_dense),
            center + np.geomspace(5 * width, right, log_points + 1)[1:],
            center - np.geomspace(5 * width, left, log_points + 1)[1:],
        ]
    return np.unique(np.concatenate(pieces))


def _diagonal_model(eigs):
    """A paired DriftModel whose drift is diag(eig, conj(eig), ...) with
    labels x_k, x_k_dag: one cluster per entry and one per its mirror."""
    d = 2 * len(eigs)
    return DriftModel(
        dimension=d,
        drift=np.diag([z for eig in eigs for z in (eig, np.conj(eig))]),
        noise_input=np.eye(d),
        input_correlations=np.ones((2, d)),
        labels=tuple(x for k in range(len(eigs)) for x in (f"x{k}", f"x{k}_dag")),
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
        # narrowest first: the line at +-omega, then the wide one at each
        (c0, _), (c1, _), (c2, _), (c3, _) = grid.clusters
        assert (c2, c3) == (c0, c1) == (-c1, c1)
        assert np.array_equal(grid.points, make_grid(exact).points)

    def test_distinct_resonances_kept(self):
        near = complex(self.EIG.real, self.EIG.imag + 1e-3)  # 1/50 linewidth away
        grid = make_grid(_diagonal_model([self.EIG, near]))
        assert len({c for c, _ in grid.clusters}) == len(grid.clusters) == 4

    def test_paired_clusters_mirror_each_other(self):
        for spec in _criterion_7_draws(50):
            for builder in (build_rwa_system, build_full_system):
                assert _mirrored(make_grid(builder(spec)).clusters)

    def test_merging_does_not_follow_the_eigenvalue_order(self):
        # config 41 of operating-point seed 501, full model: taken in this
        # order, the wide line shared the 1247 rad/s line's center at
        # +omega but not at -omega
        eigs = np.array([
            -0.22008529410231858 - 34535779.67159277j,
            -623.5996535874934 - 34535797.71169121j,
            -941904.9112744611 - 34535797.70992689j,
            -941904.911274463 + 34535797.709926896j,
            -623.5996535755321 + 34535797.71169125j,
            -0.22008530339046625 + 34535779.671592794j,
        ])
        clusters = spectra._clusters(eigs)
        assert _mirrored(clusters)
        assert len({c for c, _ in clusters}) == 4
        assert spectra._clusters(eigs[::-1]) == clusters

    @pytest.mark.parametrize("kappa_hz", [1e16, 1e20, 1e100])
    def test_cavity_far_broader_than_the_mechanical_lines(self, kappa_hz):
        # undriven: 1e-12 of the cavity's width once merged the widths of
        # modes a and b (from 1e16 Hz) and the centers +-omega (from 1e20 Hz)
        model = build_full_system(make_spec(c_ab=50.0, kappa_hz=kappa_hz))
        grid = make_grid(model)
        assert len(grid.clusters) == 6 and _mirrored(grid.clusters)
        exact = steady_state_occupation(model, "a")
        assert abs(position_spectrum(model, "a", grid).n_eff / exact - 1.0) <= 1e-3


def _mirrored(clusters):
    """True when the clusters at omega < 0 mirror those at omega > 0: the
    same count, the same centers shared, and centers and widths within
    the merge tolerance of their mirror."""
    c = np.array(clusters)
    pos, neg = c[c[:, 0] > 0], c[c[:, 0] < 0] * [-1.0, 1.0]
    if len(pos) != len(neg) or len(pos) + len(neg) != len(c):
        return False
    pos, neg = (x[np.lexsort(x.T[::-1])] for x in (pos, neg))
    tol = np.maximum(1e-9 * pos[:, 1:], 1e-12 * np.abs(c[:, 0]).max())
    shared = lambda x: x[:, None, 0] == x[None, :, 0]
    return bool(np.all(np.abs(pos - neg) <= tol)) and np.array_equal(shared(pos), shared(neg))


class TestSusceptibility:
    def test_decoupled_diagonal_closed_form(self):
        spec = make_spec(c_ab=0.0)
        model = build_rwa_system(spec)
        omega = spec.mode_a.omega + 3 * spec.mode_a.gamma
        chi = _solve_rows(model, np.array([omega]), np.eye(model.dimension))[0]
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
        chi = _solve_rows(model, np.array([omega]), np.eye(model.dimension))[0]
        ia, ib = model.index("a"), model.index("b")
        gamma = optical_damping(spec.cavity.alpha_g0, spec.cavity.kappa)
        expected = (
            chi_a(omega, spec, gamma) * (-1j * spec.coupling) * chi_b(omega, spec, gamma)
        )
        assert chi[ia, ib] == pytest.approx(expected, rel=1e-8)

    def test_residual_guarantee(self, spec50):
        model = build_full_system(spec50)
        omegas = np.linspace(0.2, 2.0, 7) * spec50.mode_a.omega
        chi = _solve_rows(model, omegas, np.eye(model.dimension))
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
            make_grid(model)
        chi = _solve_rows(model, np.array([TWO_PI * 1.5e6]), np.eye(model.dimension))[0]
        assert np.all(np.isfinite(chi))


class TestRowSolve:
    @pytest.mark.parametrize("builder", [build_rwa_system, build_full_system])
    def test_quadrature_row_matches_chi_batch(self, builder, spec50):
        model = builder(make_spec(c_ab=50.0, c_om=5.0))
        omegas = np.linspace(-2.0, 2.0, 9) * spec50.mode_a.omega
        u = np.zeros((1, model.dimension))
        u[0, [model.index("a"), model.index("a_dag")]] = 1.0
        got = _solve_rows(model, omegas, u)[:, 0, :]
        chi = _solve_rows(model, omegas, np.eye(model.dimension))
        expected = chi[:, model.index("a"), :] + chi[:, model.index("a_dag"), :]
        rel = np.linalg.norm(got - expected, axis=1) / np.linalg.norm(expected, axis=1)
        assert np.all(rel <= 1e-12)

    def test_refinement_step_repairs_a_poor_solve(self, spec50, monkeypatch):
        model = build_full_system(make_spec(c_ab=50.0, c_om=5.0))
        omegas = np.linspace(0.5, 1.5, 5) * spec50.mode_a.omega
        clean = _solve_rows(model, omegas, np.eye(model.dimension))
        eliminate = spectra._eliminate
        calls = []

        def poor_first_solve(a, omegas, u):
            calls.append(omegas.size)
            y = eliminate(a, omegas, u)
            return y * (1.0 + 1e-6) if len(calls) == 1 else y

        monkeypatch.setattr(spectra, "_eliminate", poor_first_solve)
        chi = _solve_rows(model, omegas, np.eye(model.dimension))
        assert calls == [omegas.size, omegas.size]  # solve, then one refinement
        assert np.allclose(chi, clean, rtol=1e-12, atol=0.0)

    def test_residual_beyond_tolerance_raises(self, spec50, monkeypatch):
        model = build_full_system(spec50)
        monkeypatch.setattr(spectra, "RESIDUAL_TOL", 0.0)
        with pytest.raises(NumericsError, match="susceptibility residual"):
            _solve_rows(model, np.array([spec50.mode_a.omega]), np.eye(model.dimension))

    def test_nan_solution_misses_the_gate(self, spec50, monkeypatch):
        model = build_full_system(spec50)
        nan_rows = lambda a, omegas, u: np.full((omegas.size,) + u.shape[-2:], np.nan + 0j)
        monkeypatch.setattr(spectra, "_eliminate", nan_rows)
        with pytest.raises(NumericsError, match="susceptibility residual"):
            _solve_rows(model, np.array([spec50.mode_a.omega]), np.eye(model.dimension))

    @pytest.mark.parametrize("builder", [build_rwa_system, build_full_system])
    def test_elimination_matches_lapack(self, builder):
        for spec in _criterion_7_draws(10):
            model = builder(spec)
            omegas = make_grid(model).points
            u = np.eye(model.dimension)[:2]
            got = spectra._eliminate(model.drift, omegas, u)
            tt = np.empty((omegas.size,) + model.drift.shape, dtype=complex)
            tt[:] = -model.drift.T
            tt[:, range(model.dimension), range(model.dimension)] -= 1j * omegas[:, None]
            expected = np.linalg.solve(tt, np.broadcast_to(u.T, tt.shape[:2] + (2,)))
            expected = expected.transpose(0, 2, 1)
            rel = np.linalg.norm(got - expected, axis=2) / np.linalg.norm(expected, axis=2)
            assert rel.max() <= 1e-13

    def test_rows_near_the_narrowest_line_match_a_40_digit_solve(self):
        # a unitary (eigen or Schur) form would be ~1e-7 off here: it moves
        # the poles by eps*||A|| ~ 1e-8 rad/s against a 0.19 rad/s line
        model = build_full_system(make_spec(**TestConditioning.DRAWS[0]))
        grid = make_grid(model)
        center, _ = min(grid.clusters, key=lambda c: c[1])
        omegas = np.sort(grid.points[np.argsort(np.abs(grid.points - center))[:15]])
        u = spectra._quadrature(model, "a")
        got = _solve_rows(model, omegas, u[None, :])[:, 0, :]
        with mpmath.workdps(40):
            for w, y in zip(omegas, got):
                tt = -mpmath.matrix(model.drift.T.tolist())
                for i in range(model.dimension):
                    tt[i, i] -= 1j * mpmath.mpf(w)
                exact = mpmath.lu_solve(tt, mpmath.matrix(u.tolist()))
                err = mpmath.norm(mpmath.matrix(y.tolist()) - exact) / mpmath.norm(exact)
                assert float(err) <= 1e-14

    def test_undamped_pole_is_singular(self):
        spec = SystemSpec(
            mode_a=MechanicalMode(TWO_PI * 1e6, 0.0, 0.0),
            mode_b=MechanicalMode(TWO_PI * 1e6, TWO_PI * 10.0, 0.0),
            cavity=CavityDrive(
                kappa=TWO_PI * 1e5, detuning=-TWO_PI * 1e6, g0=0.0, alpha=0.0
            ),
            coupling=0.0,
        )
        model = build_rwa_system(spec)
        with pytest.raises(NumericsError, match="singular susceptibility"):
            _solve_rows(model, np.array([spec.mode_a.omega]), np.eye(model.dimension))

    @pytest.mark.parametrize("with_grid", [False, True])
    def test_one_eigendecomposition_per_spectrum(self, spec50, monkeypatch, with_grid):
        # one per model: the model keeps its eigenvalues, so none when
        # make_grid already ran on it
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
        assert len(calls) == (0 if with_grid else 1)


def _dense_eliminate(a, omegas, u):
    """The elimination of ``spectra._eliminate`` over every row and column
    at every step: the reference its band restriction must match."""
    d, n = a.shape[0], omegas.size
    u = np.broadcast_to(u, (n,) + u.shape[-2:])
    m = np.empty((d, d + u.shape[1], n), dtype=complex)
    m[:, :d] = -a.T[:, :, None]
    diag = np.arange(d)
    m[diag, diag] -= 1j * omegas
    m[:, d:] = u.transpose(2, 1, 0)
    for j in range(d):
        col = m[j:, j]
        p = np.argmax(np.abs(col.real) + np.abs(col.imag), axis=0)
        swap = np.flatnonzero(p)
        if swap.size:
            rows = j + p[swap]
            row_j = m[j, j:, swap]
            m[j, j:, swap] = m[rows, j:, swap]
            m[rows, j:, swap] = row_j
        pivot_row = m[j, j:]
        factors = m[j + 1 :, j] * (1.0 / pivot_row[0])
        m[j + 1 :, j + 1 :] -= factors[:, None, :] * pivot_row[None, 1:, :]
    y = np.empty_like(m[:, d:])
    for i in range(d - 1, -1, -1):
        y[i] = (m[i, d:] - np.sum(m[i, i + 1 : d, None, :] * y[i + 1 :], axis=0)) / m[i, i]
    return y.T


# the row sets the solvers read: the quadrature, a row that is not its own
# mate (the force spectrum's e_a), and every row
ROW_SETS = {
    "quadrature": lambda model: spectra._quadrature(model, "a")[None, :],
    "e_a": lambda model: np.eye(model.dimension)[[model.index("a")]],
    "identity": lambda model: np.eye(model.dimension),
}


class TestMirroredSolve:
    @pytest.mark.parametrize("rows", ROW_SETS)
    @pytest.mark.parametrize("builder", [build_rwa_system, build_full_system])
    def test_mirrored_rows_match_a_direct_solve(self, builder, rows):
        for spec in _criterion_7_draws(10):
            model = builder(spec)
            omegas = make_grid(model).points
            u = ROW_SETS[rows](model)
            # grids with nothing to mirror, criterion 7's probe and the made grid
            # shifted off its mirrors, are eliminated throughout, the rows alone
            wa, ga = spec.mode_a.omega, spec.mode_a.gamma
            for unmirrored in (wa + ga * np.array([-2.0, -1.0, 0.0, 1.0]), omegas + ga / 3):
                assert spectra._mirrors(unmirrored) == (slice(0), slice(None), slice(0))
                direct = spectra._eliminate(model.drift, unmirrored, u)
                assert np.array_equal(_solve_rows(model, unmirrored, u), direct)
            got = _solve_rows(model, omegas, u)
            neg = omegas < 0
            direct = spectra._eliminate(model.drift, omegas[neg], u)
            # normwise at each omega: a row of chi far below its peak is
            # only as accurate as the peak, by either route
            err = np.abs(got[neg] - direct).max(axis=(1, 2))
            assert np.all(err <= 1e-14 * np.abs(direct).max(axis=(1, 2)))
            solved = spectra._eliminate(model.drift, omegas[~neg], u)
            assert np.array_equal(got[~neg], solved)

    @pytest.mark.parametrize("rows", ROW_SETS)
    @pytest.mark.parametrize("builder", [build_rwa_system, build_full_system])
    def test_rows_placed_by_index_arrays(self, builder, rows):
        # grids whose mirrored and solved points would not be runs: a made grid
        # with every third negative point dropped, and one with extra points
        # that nothing mirrors, on both sides of zero. Neither is its own mirror
        # image, so no index arrays place rows: every point is eliminated, and
        # the rows are bitwise a direct solve
        for spec in _criterion_7_draws(10):
            model = builder(spec)
            points = make_grid(model).points
            u = ROW_SETS[rows](model)
            dropped = np.delete(points, np.arange(0, points.size // 2, 3))
            extra = np.union1d(points, points[::50] + spec.mode_a.gamma / 3)
            for omegas in (dropped, extra):
                assert spectra._mirrors(omegas) == (slice(0), slice(None), slice(0))
                direct = spectra._eliminate(model.drift, omegas, u)
                assert np.array_equal(_solve_rows(model, omegas, u), direct)

    def test_made_grids_are_placed_by_slices(self, spec50):
        grid = make_grid(build_full_system(spec50))
        for points in (grid.points, grid.halved().points):
            mirror, solve, at = spectra._mirrors(points)
            n, h = points.size, points.size // 2
            assert (mirror, solve, at) == (slice(h - 1, None, -1), slice(h, None), slice(1, h + 1))
            assert np.array_equal(points[mirror], -points[solve][at])

    @pytest.mark.parametrize(
        "omegas", [[1.0, 3.0, 2.0], [-1.0, 1.0, 1.0], [3.0, 2.0, 1.0], [0.0, np.nan, 1.0]]
    )
    def test_omegas_must_be_strictly_increasing(self, spec50, omegas):
        model = build_full_system(spec50)
        with pytest.raises(ValueError, match="strictly increasing"):
            _solve_rows(model, np.array(omegas) * spec50.mode_a.omega, np.eye(model.dimension))

    def test_pairing_needs_the_exact_conjugate_symmetry(self, spec50):
        # the mirrored rows rely on it, so a DriftModel refuses a drift one
        # ulp off A = P conj(A) P
        model = build_full_system(spec50)
        assert _conjugate_swap(model.labels, model.drift).tolist() == [1, 0, 3, 2, 5, 4]
        drift = model.drift.copy()
        drift[0, 2] = complex(drift[0, 2].real, np.nextafter(drift[0, 2].imag, 0.0))
        with pytest.raises(ValueError, match="not conjugate-paired"):
            replace(model, drift=drift)
        # a stack pairs only if every matrix of it does
        assert _conjugate_swap(model.labels, np.stack([model.drift] * 2)) is not None
        with pytest.raises(ValueError, match="not conjugate-paired"):
            _conjugate_swap(model.labels, np.stack([model.drift, drift]))

    @pytest.mark.parametrize(
        "labels",
        [("a", "a_dag", "b", "b_dag", "c", "m"),
         ("a", "a_dag", "b", "b_dag", "c_dag", "m_dag"),
         ("a", "a_dag", "b", "b_dag", "a", "a_dag"),
         ("a", "a_dag", "b", "b_dag", "c", "c_dag_dag")],
        ids=["no-dag-mate", "no-plain-mate", "duplicate-pair", "dag-of-a-dag"],
    )
    def test_labels_without_their_mate_are_refused(self, spec50, labels):
        model = build_full_system(spec50)
        with pytest.raises(ValueError, match="x/x_dag pairs"):
            replace(model, labels=labels)

    def test_corrupted_solve_is_caught_at_mirrored_points(self, spec50, monkeypatch):
        model = build_full_system(make_spec(c_ab=50.0, c_om=5.0))
        omegas = np.linspace(-1.5, 1.5, 7) * spec50.mode_a.omega
        clean = _solve_rows(model, omegas, np.eye(model.dimension))
        eliminate = spectra._eliminate
        calls = []

        def poor_first_solve(a, w, u):
            calls.append(w.copy())
            y = eliminate(a, w, u)
            if len(calls) == 1:
                y[w == omegas[-1]] *= 1.0 + 1e-6  # also read mirrored at omegas[0]
            return y

        monkeypatch.setattr(spectra, "_eliminate", poor_first_solve)
        chi = _solve_rows(model, omegas, np.eye(model.dimension))
        assert calls[0].tolist() == omegas[3:].tolist()  # omega >= 0 only
        # gated and refined where it was eliminated; omegas[0] takes the refined
        # row's mirror
        assert calls[1].tolist() == [omegas[-1]]
        err = np.abs(chi - clean).max(axis=(1, 2))
        assert np.all(err <= 1e-12 * np.abs(clean).max(axis=(1, 2)))

    @pytest.mark.parametrize("rows", ["quadrature", "identity"])
    @pytest.mark.parametrize("builder", [build_rwa_system, build_full_system])
    def test_refined_point_mirror_is_the_conjugate_of_its_twin(self, builder, rows, monkeypatch):
        eliminate = spectra._eliminate
        calls = []

        def poor_first_solve(a, w, u):
            calls.append(w.copy())
            y = eliminate(a, w, u)
            if len(calls) == 1:
                y[w == target] += _noise(y[w == target])
            return y

        monkeypatch.setattr(spectra, "_eliminate", poor_first_solve)
        for spec in _criterion_7_draws(5):
            model = builder(spec)
            omegas = make_grid(model).points
            target = omegas[np.argmin(np.abs(omegas - spec.mode_a.omega))]
            u = ROW_SETS[rows](model)
            calls.clear()
            got = _solve_rows(model, omegas, u)
            assert calls[1].tolist() == [target]  # refined where it was eliminated
            perm = _conjugate_swap(model.labels)
            plus, minus = np.flatnonzero(omegas == target)[0], np.flatnonzero(omegas == -target)[0]
            # each row's twin is its mate, u conj(P): the quadrature's is itself
            twin = got[plus][perm] if rows == "identity" else got[plus]
            assert np.array_equal(got[minus], twin.conj()[:, perm])

    @pytest.mark.parametrize("builder", [build_rwa_system, build_full_system])
    def test_unmirrored_grid_is_gated_at_every_point(self, builder, monkeypatch):
        eliminate = spectra._eliminate
        calls = []

        def poor_first_solve(a, w, u):
            calls.append(w.copy())
            y = eliminate(a, w, u)
            return y + _noise(y) if len(calls) == 1 else y

        monkeypatch.setattr(spectra, "_eliminate", poor_first_solve)
        for spec in _criterion_7_draws(3):
            model = builder(spec)
            omegas = make_grid(model).points + spec.mode_a.gamma / 3  # nothing to mirror
            for rows in ROW_SETS.values():
                u = rows(model)
                calls.clear()
                got = _solve_rows(model, omegas, u)
                assert [w.tolist() for w in calls] == [omegas.tolist()] * 2
                # one refinement step leaves the noise times cond(T), up to 2e-8
                # relative here, but within the gate: checked on dense T
                for w, y in zip(omegas[::50], got[::50]):
                    assert _dense_residual(model, w, u, y) <= RESIDUAL_TOL

    @pytest.mark.parametrize("builder", [build_rwa_system, build_full_system])
    def test_spectrum_eliminates_at_most_half_its_points(self, builder, monkeypatch):
        calls = _record_eliminations(monkeypatch)
        for spec in _criterion_7_draws(5):
            grid = make_grid(builder(spec))
            for g in (grid, grid.halved()):
                # a new model each, so the halved grid is solved, not read
                model = builder(spec)
                n = g.points.size
                calls.clear()
                position_spectrum(model, "a", g)
                force_spectrum_numeric(model, spec, g)
                # the rwa spectrum solves u alone, and the force spectrum's e_a
                # row takes its mate e_a_dag along; the full spectrum solves u and
                # e_a, with e_a's mate e_a_dag, once, and the force spectrum reads e_a
                expected = [1, 2] if builder is build_rwa_system else [3]
                assert [k for _, k in calls] == expected
                assert all(w.size <= math.ceil(n / 2) + 1 for w, _ in calls)

    def test_shifted_grid_force_eliminates_e_a_alone(self, spec50, monkeypatch):
        # nothing on a grid shifted off its mirrors is mirrored, so no row
        # reads e_a's mate e_a_dag, and it is not eliminated
        calls = _record_eliminations(monkeypatch)
        spec = make_spec(c_ab=50.0, c_om=5.0)
        model = build_full_system(spec)
        points = make_grid(model).points + 1.0
        force_spectrum_numeric(model, spec, spectra.FrequencyGrid(points, ()))
        assert [(w.size, k) for w, k in calls] == [(points.size, 1)]

    @pytest.mark.parametrize("rows", ROW_SETS)
    @pytest.mark.parametrize("builder", [build_rwa_system, build_full_system])
    def test_banded_elimination_is_bitwise_the_dense_one(self, builder, rows):
        for spec in _criterion_7_draws(10):
            model = builder(spec)
            omegas = make_grid(model).points
            u = ROW_SETS[rows](model)
            got = spectra._eliminate(model.drift, omegas, u)
            assert np.array_equal(got, _dense_eliminate(model.drift, omegas, u))

    def test_dense_drift_runs_the_dense_elimination(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6)) - 4.0 * np.eye(6)
        omegas = np.linspace(-10.0, 10.0, 101)
        u = rng.normal(size=(2, 6))
        rows, cols = spectra._band(6, (a != 0).tobytes())
        assert rows == tuple(slice(j, 6, 1) for j in range(6))
        assert np.array_equal(spectra._eliminate(a, omegas, u), _dense_eliminate(a, omegas, u))


    def test_tied_pivots_take_the_first_row(self):
        # T^T's first column is [0.5 - i*omega, 0.5 + 0.5i, -i, 0.75 + 0.25i]:
        # |Re| + |Im| ties rows 1-3 for |omega| < 0.5, where row 1 must win,
        # and every row at |omega| = 0.5, where row 0 must stay
        rng = np.random.default_rng(26)
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        a[0] = [-0.5, -(0.5 + 0.5j), 1j, -(0.75 + 0.25j)]
        omegas = np.array([-1.0, -0.5, -0.25, 0.0, 0.25, 0.5, 1.0])
        u = rng.normal(size=(2, 4))
        assert np.array_equal(spectra._eliminate(a, omegas, u), _dense_eliminate(a, omegas, u))

    def test_pivot_is_the_first_argmax_nan_included(self):
        # at each omega: no tie, ties with and without row 0, NaN keys first,
        # later and twice, and an inf key before a NaN
        col = np.array([
            [1.0, 1.0, 2.0, np.nan, 1.0, 1.0, np.inf, 1.0],
            [2.0, 1.0, 1.0, 5.0, np.nan, np.nan, 9.0, 3.0],
            [0.5, 1.0, 3.0, np.nan, 7.0, np.nan, np.nan, 3.0],
            [3.0, 0.5, 3.0, 1.0, np.nan, 2.0, np.inf, 1.0],
        ])
        rng = np.random.default_rng(26)
        m = rng.normal(size=(4, 6, 8)) + 1j * rng.normal(size=(4, 6, 8))
        m[:, 0] = col * (0.5 + 0.5j)  # |Re| + |Im| is |col|, NaN kept
        expected = m.copy()
        p = np.argmax(np.abs(m[:, 0].real) + np.abs(m[:, 0].imag), axis=0)
        assert p.tolist() == [3, 0, 2, 0, 1, 1, 2, 1]
        expected[0], expected[p, :, range(8)] = m[p, :, range(8)].T, m[0].T
        spectra._pivot(m, 0, range(1, 4), np.empty(8), np.empty(8), np.empty(8, dtype=bool))
        assert np.array_equal(m.view(float), expected.view(float), equal_nan=True)

    def test_rows_swapped_at_most_points_of_every_step(self, monkeypatch):
        # a dense random drift whose largest entries sit one row below T^T's
        # diagonal, with the omegas on its resonances: most points, but not
        # all, swap their pivot row at every step
        rng = np.random.default_rng(22)
        a = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6)) - 0.5 * np.eye(6)
        a += 30.0 * np.roll(np.eye(6), 1, axis=1)
        omegas = np.unique(-np.linalg.eigvals(a).imag[:, None] + np.linspace(-0.5, 0.5, 21))
        u = rng.normal(size=(2, 6))
        swapped = []
        pivot = spectra._pivot

        def counted(m, j, *args):
            before = m[j, j].copy()
            pivot(m, j, *args)
            swapped.append(np.mean(m[j, j] != before))

        monkeypatch.setattr(spectra, "_pivot", counted)
        got = spectra._eliminate(a, omegas, u)
        assert len(swapped) == 5 and 0.75 <= min(swapped) and max(swapped) < 1.0
        assert np.array_equal(got, _dense_eliminate(a, omegas, u))

    def test_elimination_allocates_one_augmented_matrix(self):
        # no scratch array the size of the augmented system: such a block is
        # mapped afresh on every call and faults its pages in again
        model = build_full_system(make_spec(c_ab=50.0, c_om=5.0))
        points = make_grid(model).points
        omegas = points[points >= 0]
        u = np.eye(model.dimension)[[model.index("a"), model.index("a_dag")]]
        u = np.vstack((u.sum(axis=0), u))
        augmented = model.dimension * (model.dimension + u.shape[0]) * omegas.size * 16
        spectra._eliminate(model.drift, omegas, u)
        tracemalloc.start()
        try:
            spectra._eliminate(model.drift, omegas, u)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert omegas.size == 1559
        assert peak <= 2.0 * augmented


def _dense_residual(model, omega, u, y):
    """Worst ||y T - u|| / (||T||_F ||y||) of the rows ``y`` (k, d), T = -i*omega*I - A formed dense."""
    t = -1j * omega * np.eye(model.dimension) - model.drift
    rel = np.linalg.norm(y @ t - u, axis=1) / np.linalg.norm(y, axis=1) / np.linalg.norm(t)
    return rel.max()


def _noise(y):
    """Seeded complex noise of 1e-6 of the largest |y| at each omega of the rows
    ``y`` (n, k, d): it misses the residual gate at every omega, which a scaling
    of y can pass near a resonance, where ||u|| is small against ||T|| ||y||."""
    rng = np.random.default_rng(0)
    z = rng.normal(size=y.shape) + 1j * rng.normal(size=y.shape)
    return 1e-6 * np.abs(y).max(axis=(1, 2))[:, None, None] * z


def _record_eliminations(monkeypatch) -> list:
    """Record ``(omegas, row count)`` of every ``spectra._eliminate`` call."""
    calls = []
    eliminate = spectra._eliminate

    def recorded(a, omegas, u):
        calls.append((omegas.copy(), np.shape(u)[-2]))
        return eliminate(a, omegas, u)

    monkeypatch.setattr(spectra, "_eliminate", recorded)
    return calls


def _unstable_rwa_model():
    """An rwa model whose undamped mode a sits on the imaginary axis."""
    spec = SystemSpec(
        mode_a=MechanicalMode(TWO_PI * 1e6, 0.0, 0.0),
        mode_b=MechanicalMode(TWO_PI * 1e6, TWO_PI * 10.0, 0.0),
        cavity=CavityDrive(kappa=TWO_PI * 1e5, detuning=-TWO_PI * 1e6, g0=0.0, alpha=0.0),
        coupling=0.0,
    )
    return build_rwa_system(spec)


def _outputs(result) -> list:
    """Every number of a spectrum or force result, as bytes or floats."""
    fields = ("values", "n_eff", "n_eff_error", "T_eff", "s_ff", "factor")
    out = [result.grid.points.tobytes(), result.grid.clusters]
    for name in fields:
        x = getattr(result, name, None)
        out.append(x.tobytes() if isinstance(x, np.ndarray) else x)
    return out


class TestModelMemo:
    """A DriftModel keeps the grids make_grid built for it, its drift
    eigenvalues and its last position spectrum of each mode, with the
    mode's e_select chi B where the spectrum solved that row; nothing else about a
    call may change."""

    def test_second_grid_is_the_same_object(self, spec50):
        model = build_full_system(spec50)
        grids = []
        for kw in ({}, {"span_linewidths": 60}, {"points_per_linewidth": 60}, {"log_points": 240}):
            grid = make_grid(model, **kw)
            assert make_grid(model, **kw) is grid
            # each call's own grid, whatever this model built before
            assert np.array_equal(grid.points, make_grid(replace(model), **kw).points)
            grids.append(grid)
        assert make_grid(model, 50.0, 20.0, 160) is grids[0]  # the defaults, passed

    def test_replace_gives_a_fresh_memo(self, spec50):
        model = build_full_system(spec50)
        grid = make_grid(model)
        copy = replace(model)
        assert copy._memo == {}
        again = make_grid(copy)
        assert again is not grid and np.array_equal(again.points, grid.points)
        assert make_grid(model) is grid

    def test_unstable_model_raises_on_every_call(self):
        model = _unstable_rwa_model()
        calls = (
            make_grid,
            make_grid,
            lambda m: position_spectrum(m, "a"),
        )
        messages = []
        for call in calls:
            with pytest.raises(UnstableSystemError) as err:
                call(model)
            messages.append(str(err.value))
        with pytest.raises(UnstableSystemError) as fresh:
            make_grid(_unstable_rwa_model())
        assert messages == [str(fresh.value)] * len(calls)

    def test_operating_point_calls_match_fresh_models(self):
        # the operating point's calls on one model of each builder, against
        # the same calls each on a newly built model
        for spec in _criterion_7_draws(10):
            full, rwa = build_full_system(spec), build_rwa_system(spec)
            fine = make_grid(rwa, points_per_linewidth=60, log_points=240)
            shared = [
                position_spectrum(full, "a"),
                force_spectrum_numeric(full, spec),
                position_spectrum(rwa, "a", fine),
                position_spectrum(rwa, "a", fine.halved()),
            ]
            fine_grid = lambda: make_grid(build_rwa_system(spec), points_per_linewidth=60, log_points=240)
            fresh = [
                position_spectrum(build_full_system(spec), "a"),
                force_spectrum_numeric(build_full_system(spec), spec),
                position_spectrum(build_rwa_system(spec), "a", fine_grid()),
                position_spectrum(build_rwa_system(spec), "a", fine_grid().halved()),
            ]
            for one, new in zip(shared, fresh):
                assert _outputs(one) == _outputs(new)

    @pytest.mark.parametrize("builder", [build_rwa_system, build_full_system])
    def test_halved_spectrum_reuses_the_fine_solve(self, builder, monkeypatch):
        calls = _record_eliminations(monkeypatch)
        for spec in _criterion_7_draws(5):
            for kw in ({}, {"points_per_linewidth": 60, "log_points": 240}):
                model = builder(spec)
                grid = make_grid(model, **kw)
                # the default grid by None, as the operating point's full spectrum
                fine = position_spectrum(model, "a", grid if kw else None)
                calls.clear()
                coarse = position_spectrum(model, "a", grid.halved())
                assert calls == []
                every_other = spectra._every_other(grid.points.size)
                assert np.array_equal(coarse.values, fine.values[every_other])
                fresh = builder(spec)
                new = position_spectrum(fresh, "a", make_grid(fresh, **kw).halved())
                assert calls and _outputs(coarse) == _outputs(new)

    @pytest.mark.parametrize("builder", [build_rwa_system, build_full_system])
    def test_spectra_the_fine_solve_lacks_are_solved(self, builder, monkeypatch):
        calls = _record_eliminations(monkeypatch)
        for spec in _criterion_7_draws(3):
            grid = make_grid(builder(spec))
            points, clusters = grid.points, grid.clusters
            # not its own mirror image: every third negative point dropped
            lopsided = np.delete(points, np.arange(0, points.size // 2, 3))
            lopsided = spectra.FrequencyGrid(lopsided, clusters)
            x = (points[-2] + points[-3]) / 2.0  # between two points of the made grid
            extra = spectra.FrequencyGrid(np.union1d(grid.halved().points, [-x, x]), clusters)
            # not its own mirror image, so eliminated throughout, though its halving
            # is: a negative point the halving drops (an odd index) moved
            i = points.size // 4 | 1
            nudged = points.copy()
            nudged[i] = (points[i - 1] + points[i]) / 2.0
            nudged = spectra.FrequencyGrid(nudged, clusters)
            cases = [  # (mode, grid) solved first, then (mode, grid) that must be solved too
                (("a", lopsided), ("a", lopsided.halved())),
                (("a", nudged), ("a", nudged.halved())),
                (("a", grid), ("a", extra)),
                (("a", grid.halved()), ("a", grid)),
                (("a", grid), ("b", grid.halved())),
            ]
            for (first_select, first), (select, second) in cases:
                model = builder(spec)
                position_spectrum(model, first_select, first)
                calls.clear()
                got = position_spectrum(model, select, second)
                assert calls
                assert _outputs(got) == _outputs(position_spectrum(builder(spec), select, second))

    def test_spectrum_values_are_read_only(self, spec50):
        model = build_rwa_system(spec50)
        grid = make_grid(model)
        coarse = position_spectrum(build_rwa_system(spec50), "a", grid.halved())
        fine = position_spectrum(model, "a", grid)
        for res in (fine, position_spectrum(model, "a", grid.halved())):
            with pytest.raises(ValueError, match="read-only"):
                res.values[:] = -1.0
        assert _outputs(position_spectrum(model, "a", grid.halved())) == _outputs(coarse)


def _direct_spectrum(model, select, points):
    """S_xx from a direct solve of the one row u = e_select + e_select_dag."""
    y = _solve_rows(model, points, spectra._quadrature(model, select)[None, :])[:, 0, :]
    return np.abs(y @ model.noise_input) ** 2 @ model.input_correlations[0]


class TestSharedPairSolve:
    """A full model's spectrum solves u = e_a + e_a_dag and e_a, with e_a's
    mate e_a_dag, in one elimination, and a force spectrum on the same grid
    points reads e_a chi B from it; an RWA model's spectrum solves u alone."""

    @pytest.mark.parametrize("builder", [build_rwa_system, build_full_system])
    def test_force_reads_the_kept_row(self, builder, monkeypatch):
        calls = _record_eliminations(monkeypatch)
        for spec in _criterion_7_draws(10):
            model = builder(spec)
            position_spectrum(model, "a")
            calls.clear()
            force = force_spectrum_numeric(model, spec)
            # an rwa spectrum keeps no row, so its force spectrum solves e_a
            assert [k for _, k in calls] == ([] if builder is build_full_system else [2])
            assert _outputs(force) == _outputs(force_spectrum_numeric(builder(spec), spec))

    @pytest.mark.parametrize("builder", [build_rwa_system, build_full_system])
    def test_each_miss_solves(self, builder, monkeypatch):
        calls = _record_eliminations(monkeypatch)
        for spec in _criterion_7_draws(5):
            grid = make_grid(builder(spec))
            other = make_grid(builder(spec), points_per_linewidth=30)
            cases = [  # (spectrum mode, spectrum grid, force grid)
                ("a", grid, other),
                ("a", grid, grid.halved()),
                ("b", grid, grid),
                ("a", other, grid),
            ]
            for select, first, second in cases:
                model = builder(spec)
                position_spectrum(model, select, first)
                calls.clear()
                got = force_spectrum_numeric(model, spec, second)
                assert [k for _, k in calls] == [2]
                assert _outputs(got) == _outputs(force_spectrum_numeric(builder(spec), spec, second))

    @pytest.mark.parametrize("builder", [build_rwa_system, build_full_system])
    def test_spectra_match_a_direct_row_solve(self, builder):
        for spec in _criterion_7_draws(10):
            model = builder(spec)
            for select in ("a", "b", "c"):
                res = position_spectrum(model, select)
                assert np.array_equal(res.values, _direct_spectrum(model, select, res.grid.points))

    @pytest.mark.parametrize("builder", [build_rwa_system, build_full_system])
    def test_summed_row_meets_the_gate_by_dense_residuals(self, builder, monkeypatch):
        gate = spectra._gate
        gated = []

        def recorded(a, omegas, u, y):
            gate(a, omegas, u, y)
            gated.append((omegas, u, y))  # y is refined in place

        monkeypatch.setattr(spectra, "_gate", recorded)
        # one gate per spectrum solve, over every row it eliminated: the summed
        # row u = e_a + e_a_dag, and on the full model e_a and e_a_dag too
        for spec in _criterion_7_draws(10):
            model = builder(spec)
            gated.clear()
            position_spectrum(model, "a")
            (omegas, u, y), = gated
            assert np.array_equal(u[0], spectra._quadrature(model, "a"))
            assert u.shape[0] == (1 if builder is build_rwa_system else 3)
            assert omegas.size == (make_grid(model).points.size + 1) // 2
            for w, rows in zip(omegas, y.T):
                assert _dense_residual(model, w, u, rows) <= RESIDUAL_TOL

    def test_pair_split_follows_the_zero_pattern(self, monkeypatch):
        # the RWA keeps each x and x_dag apart and the driven full model joins
        # them; an undriven, uncoupled full model has the RWA's zero pattern,
        # so it solves each spectrum's row u alone, as the RWA does.  Only
        # mode a's e_a row has a reader (the force spectrum), so modes b and
        # c solve u alone on every model
        calls = _record_eliminations(monkeypatch)
        spec, bare = make_spec(c_ab=50.0, c_om=5.0), make_spec(c_ab=0.0)
        cases = ((build_rwa_system(spec), 1), (build_full_system(spec), 3), (build_full_system(bare), 1))
        for model, rows in cases:
            for select in ("a", "b", "c"):
                calls.clear()
                position_spectrum(model, select)
                assert [k for _, k in calls] == [rows if select == "a" else 1]
        a = np.diag(-1.0 - 1j * np.arange(1.0, 7.0))
        a[0, 5] = a[5, 0] = 0.5  # a joined to c_dag alone
        assert spectra._blocks(6, (a != 0).tobytes()) == (0, 1, 2, 3, 4, 0)


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
        expected = float(n_eff_closed_form(spec, gamma))
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
        eye = np.eye(model.dimension)
        for i in picks:
            w_p = _solve_rows(model, pts[i : i + 1], eye)[0, ia] @ model.noise_input
            w_m = _solve_rows(model, -pts[i : i + 1], eye)[0, ia] @ model.noise_input
            expected = np.abs(w_p) ** 2 @ n_plus + np.abs(w_m) ** 2 @ n_minus
            assert res.values[i] == pytest.approx(expected, rel=1e-10)

    def test_unknown_label(self, spec50):
        model = build_rwa_system(spec50)
        with pytest.raises(ValueError):
            position_spectrum(model, "q")

    @pytest.mark.parametrize("builder", [build_rwa_system, build_full_system])
    def test_slightly_negative_occupation_reads_zero(self, builder):
        # a zero-temperature mode a next to a narrow b: the tail-corrected
        # integral lands about 7e-6 below zero, within roundoff of the vacuum
        model = builder(make_spec(c_ab=1.0, c_om=0.0, temperature=0.0, gamma_b_hz=10.0))
        res = position_spectrum(model, "a")
        assert integrate_occupation(res.grid, res.values)[0] < 0.0
        assert res.n_eff == 0.0
        assert res.T_eff == 0.0

    def test_occupation_below_minus_1e_3_raises(self, spec50, monkeypatch):
        model = build_rwa_system(spec50)
        monkeypatch.setattr(spectra, "integrate_occupation", lambda grid, values: (-1e-3, 0.0))
        assert position_spectrum(model, "a").n_eff == 0.0
        monkeypatch.setattr(spectra, "integrate_occupation", lambda grid, values: (-1.01e-3, 0.0))
        with pytest.raises(NumericsError, match="integrated occupation -0.00101 < 0"):
            position_spectrum(model, "a")


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
        # the one linear solve returns a perturbed Sigma, which misses the gate
        model = build_full_system(make_spec(c_ab=50.0, c_om=5.0))
        calls = []
        solve = np.linalg.solve

        def perturbed(k, q):
            calls.append(k.shape)
            return solve(k, q) * (1.0 + 1e-6)

        monkeypatch.setattr(np.linalg, "solve", perturbed)
        with pytest.raises(NumericsError, match="Lyapunov residual"):
            steady_state_occupation(model, "a")
        assert calls == [(1, 21, 21)]

    def test_occupation_below_the_vacuum_raises(self, monkeypatch):
        # a Sigma at half the vacuum's, let through the residual gate, reads
        # <x^2> = 1/2 at both points of a batch: n = -1/4
        spec = make_spec(c_ab=50.0, temperature=0.0)
        pencil, _, _, row = _shared_pencil(spec, rotating_wave=True)
        solve = np.linalg.solve
        monkeypatch.setattr(np.linalg, "solve", lambda k, q: solve(k, q) * 0.5)
        monkeypatch.setattr(spectra, "RESIDUAL_TOL", math.inf)
        errors = _entries(spectra._occupations(pencil, _drive(spec, [3.0, 5.0]), row))
        assert [str(e) for e in errors] == ["steady-state occupation -0.25 < 0"] * 2

    @pytest.mark.parametrize("kappa_hz", [1e200, 1e250, 1e300, 1e306])
    def test_huge_kappa_keeps_the_occupation_and_warns_nothing(self, kappa_hz):
        # the drift's norms overflow, so the eigensolve certifies the point;
        # a numpy warning fails the test
        n = steady_state_occupation(build_full_system(make_spec(c_ab=50.0, kappa_hz=kappa_hz)), "a")
        assert n == steady_state_occupation(build_full_system(make_spec(c_ab=50.0)), "a")

    def test_unstable_refused(self):
        spec = make_spec(c_ab=10.0, c_om=50.0)
        spec = replace(spec, cavity=replace(spec.cavity, detuning=-spec.cavity.detuning))
        with pytest.raises(UnstableSystemError):
            steady_state_occupation(build_full_system(spec), "a")

    def test_unknown_label(self, spec50):
        with pytest.raises(ValueError):
            steady_state_occupation(build_rwa_system(spec50), "q")


class TestModeLabels:
    """Both occupations read a mode: a label whose ``_dag`` mate is a label too."""

    # the README system (C_ab = 50, alpha = 2314)
    SPEC = SystemSpec(
        mode_a=MechanicalMode(TWO_PI * 1e6, TWO_PI * 1.0, 300.0),
        mode_b=MechanicalMode(TWO_PI * 1e6, TWO_PI * 1e3, 300.0),
        cavity=CavityDrive(
            kappa=TWO_PI * 3e5, detuning=-TWO_PI * 1e6, g0=TWO_PI * 10.0, alpha=2314.0
        ),
        coupling=TWO_PI * 111.8,
        mass_a=1e-12,
    )

    @pytest.mark.parametrize("select", ["a_dag", "q"])
    def test_a_label_that_is_not_a_mode_is_refused(self, select):
        # "a_dag" is a label but not a mode: "a_dag_dag" is none
        model = build_full_system(self.SPEC)
        for call in (steady_state_occupation, position_spectrum):
            with pytest.raises(ValueError, match=f"unknown mode label {select!r}; have"):
                call(model, select)

    def test_force_spectrum_needs_an_a_mode(self):
        model = replace(build_full_system(self.SPEC), labels=("p", "p_dag", "b", "b_dag", "c", "c_dag"))
        with pytest.raises(ValueError, match="unknown mode label 'a'; have"):
            force_spectrum_numeric(model, self.SPEC)

    def test_each_mode_keeps_its_occupation(self):
        # the covariance and the quadrature of modes a, b and c, full model;
        # the last bits depend on the BLAS kernels of the machine
        expected = {
            "a": (1539060.9891974698, 1539371.355550273),
            "b": (790808.7679429114, 790963.3779258621),
            "c": (18238.165157005005, 18241.8143905787),
        }
        model = build_full_system(self.SPEC)
        for select, (exact, quad) in expected.items():
            assert steady_state_occupation(model, select) == pytest.approx(exact, rel=1e-12)
            assert position_spectrum(model, select).n_eff == pytest.approx(quad, rel=1e-12)


def _exceptional_point_spec():
    """omega_a = omega_b, alpha = 0 and lambda = (gamma_b - gamma_a)/4: the
    two mechanical eigenvalues coalesce and the eigenbasis is defective."""
    spec = make_spec(c_ab=50.0, c_om=None)
    return replace(spec, coupling=(spec.mode_b.gamma - spec.mode_a.gamma) / 4.0)


_EXACT = {}  # a 40-digit solve takes about 0.2 s; tests share them


def _kronecker_occupation(model, select="a", digits=40):
    """n_eff from a ``digits``-digit solve of the Kronecker form
    (I (x) A + conj(A) (x) I) vec(Sigma) = -vec(Q), column-major vec."""
    key = (model.drift.tobytes(), model.noise_input.tobytes(),
           model.input_correlations.tobytes(), model.labels, select, digits)
    if key not in _EXACT:
        _EXACT[key] = _kronecker_solve(model, select, digits)
    return _EXACT[key]


def _kronecker_solve(model, select, digits):
    d = model.dimension
    b = model.noise_input
    q = (b * model.input_correlations[0]) @ b.T
    with mpmath.workdps(digits):
        a = mpmath.matrix(model.drift.tolist())
        m = mpmath.zeros(d * d, d * d)
        for i in range(d):
            for j in range(d):
                for k in range(d):
                    m[j * d + i, j * d + k] += a[i, k]  # (A Sigma)_ij
                    m[j * d + i, k * d + i] += mpmath.conj(a[j, k])  # (Sigma A^dag)_ij
        sigma = mpmath.lu_solve(m, mpmath.matrix([-q[i, j] for j in range(d) for i in range(d)]))
        rows = (model.index(select), model.index(select + "_dag"))
        x2 = sum(sigma[j * d + i] for i in rows for j in rows)
        return float((mpmath.re(x2) - 1) / 2)


class TestConditioning:
    """The covariance solve is accurate to about eps*max|lam|/min(-Re lam)."""

    # stiff draws: omega_a/gamma_a up to 5e8, min(-Re lam) a few mrad/s
    DRAWS = [
        dict(omega_hz=6.99e6, gamma_a_hz=0.0245, gamma_b_hz=27.5, c_ab=1.86, c_om=6.29),
        dict(omega_hz=3.27e6, gamma_a_hz=0.0133, gamma_b_hz=22.6, c_ab=21.9, c_om=4.62),
        dict(omega_hz=6.58e6, gamma_a_hz=0.0186, gamma_b_hz=78.8, c_ab=1.21, c_om=0.339),
    ]

    @pytest.mark.parametrize("builder", [build_rwa_system, build_full_system])
    def test_within_the_eigenvalue_bound_of_a_40_digit_solve(self, builder):
        for kw in self.DRAWS:
            model = builder(make_spec(**kw))
            lam = np.linalg.eigvals(model.drift)
            bound = np.finfo(float).eps * np.abs(lam).max() / (-lam.real).min()
            assert bound > 1e-9  # stiff enough that the bound says something
            exact = _kronecker_occupation(model)
            n = steady_state_occupation(model, "a")
            assert abs(n - exact) <= bound * exact


class TestCovarianceAccuracy:
    """The folded real solve against a 40-digit one, on stiff draws, the
    exceptional point and criterion-7 draws."""

    SPECS = (
        [make_spec(**kw) for kw in TestConditioning.DRAWS]
        + [_exceptional_point_spec()]
        + list(_criterion_7_draws(6))
    )

    @pytest.mark.parametrize("builder", [build_rwa_system, build_full_system])
    def test_within_1e_14_of_a_40_digit_solve(self, builder):
        for spec in self.SPECS:
            model = builder(spec)
            exact = _kronecker_occupation(model)
            assert abs(steady_state_occupation(model, "a") - exact) <= 1e-14 * exact


def _models(spec, g, rotating_wave=False):
    """The models of ``spec``'s pencil at each G of the column ``g``, their
    drifts A0 + G*A1 bitwise a covariance call's."""
    a0, a1, *inputs = _pencil(spec, rotating_wave=rotating_wave)
    return [DriftModel(6, a0 + x * a1, *inputs) for x in g.tolist()]


def _drift_pencil(model):
    """The prepared pencil (A, 0) of ``model``'s drift A, as steady_state_occupation solves it."""
    a = model.drift
    return spectra._prepare_noise(a, np.zeros_like(a), model.noise_input, model.input_correlations[0],
                                  _conjugate_swap(model.labels))


def _across_the_pole(c_om):
    """The README pencil, mode a's row and its G column at ``c_om``: the
    full drift goes unstable at C_OM = 3408."""
    spec = make_spec(c_ab=50.0)
    pencil, _, _, row = _shared_pencil(spec)
    return spec, pencil, row, _drive(spec, c_om)


def _entries(record):
    """The points of a :class:`spectra._Occupations` record as a list: the
    BathcoolError of a failed point, else its n, or ``(n, slope)`` where
    the record has slopes."""
    values = record.n.tolist()
    if record.slope is not None:
        values = list(zip(values, record.slope.tolist()))
    return [record.errors.get(i, v) for i, v in enumerate(values)]


def _record(entries):
    """The :class:`spectra._Occupations` record of such a list."""
    errors = {i: e for i, e in enumerate(entries) if isinstance(e, BathcoolError)}
    sloped = any(isinstance(e, tuple) for e in entries)
    rows = [(math.nan, math.nan) if i in errors else e if sloped else (e, math.nan)
            for i, e in enumerate(entries)]
    n, slope = np.array(rows, dtype=float).reshape(-1, 2).T
    return spectra._Occupations(n, slope if sloped else None, errors)


def _entry(e):
    """An entry of :func:`_entries`, comparable with ==."""
    return (type(e), str(e)) if isinstance(e, Exception) else e


class TestBatchedCovariance:
    """The batched covariance: one folded real linear solve per call, and
    an eigensolve only of the points the solved covariances do not
    certify stable."""

    @pytest.mark.parametrize("builder", [build_rwa_system, build_full_system])
    def test_a_drift_has_zero_slopes(self, builder):
        # one drift is the pencil (A, 0) at G = 0, which no G moves
        model = builder(make_spec(c_ab=50.0, c_om=5.0))
        record = spectra._occupations(_drift_pencil(model), np.zeros(1), model.index("a"), slopes=True)
        assert record.slope.tolist() == [0.0] and not record.errors
        assert record.n.tolist() == [steady_state_occupation(model, "a")]

    @pytest.mark.parametrize("builder", [build_rwa_system, build_full_system])
    def test_exceptional_point_matches_a_40_digit_solve(self, builder):
        model = builder(_exceptional_point_spec())
        # the eigenbasis is defective there: an eigenvector solve is ill-conditioned
        _, v = np.linalg.eig(model.drift)
        assert np.linalg.cond(v) > 1e5
        exact = _kronecker_occupation(model)
        assert abs(steady_state_occupation(model, "a") - exact) <= 1e-14 * exact

    def test_mixed_batch_matches_single_calls(self):
        # the README pencil over C_OM in [0.1, 1e5]: 46 stable points, then 15 unstable
        spec, pencil, row, g = _across_the_pole(np.geomspace(0.1, 1e5, 61))
        batch = _entries(spectra._occupations(pencil, g, row))
        assert [isinstance(e, UnstableSystemError) for e in batch] == [False] * 46 + [True] * 15
        for model, entry in zip(_models(spec, g), batch):
            try:
                single = steady_state_occupation(model, "a")
            except UnstableSystemError as exc:
                assert type(entry) is type(exc) and str(entry) == str(exc)
            else:
                assert entry == single

    @pytest.mark.parametrize("slopes", [False, True])
    def test_an_eigensolve_that_fails_fails_its_point_alone(self, monkeypatch, slopes):
        # the batched eigensolve of the three uncertified points (two past
        # the pole, one stable whose Q row has no mode-a bath, so is
        # singular) raises; each is solved again alone, and only the one
        # whose eigensolve raises again takes a NumericsError; the stable one
        # and the slopes are solved after
        spec = make_spec(c_ab=50.0)
        a0, a1, b, corr, labels = _pencil(spec, rotating_wave=False)
        weights = np.repeat(corr[:1], 4, axis=0)
        weights[2, :2] = 0.0
        pencil = spectra._prepare_noise(a0, a1, b, weights, _conjugate_swap(labels))
        assert pencil.q_floor[2] <= 0 < pencil.q_floor[1]
        g = _drive(spec, [1e4, 5.0, 7.0, 3e4])
        solve = lambda: _entries(spectra._occupations(pencil, g, labels.index("a"), slopes))
        expected = solve()
        eigvals, singles = np.linalg.eigvals, []

        def flaky(m):
            if m.ndim == 2:
                singles.append(m)
            if m.ndim == 3 or len(singles) == 3:
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return eigvals(m)

        monkeypatch.setattr(np.linalg, "eigvals", flaky)
        got = solve()
        assert len(singles) == 3 and isinstance(expected[0], UnstableSystemError)
        assert not isinstance(expected[2], Exception)
        assert [_entry(e) for e in got] == [
            _entry(expected[0]), expected[1], expected[2], (NumericsError, "eigensolver did not converge")
        ]

    def test_non_finite_drift_is_a_per_point_error(self):
        spec, pencil, row, g = _across_the_pole([math.nan, 5.0])
        n_bad, n_good = _entries(spectra._occupations(pencil, g, row))
        assert isinstance(n_bad, NumericsError)
        assert n_good == steady_state_occupation(_models(spec, g[1:])[0], "a")

    def test_a_reordered_basis_gives_the_same_occupation(self, spec50):
        # the same system with its b and c pairs swapped: a paired basis of
        # its own
        model = build_full_system(spec50)
        order = [0, 1, 4, 5, 2, 3]
        swapped = DriftModel(
            6, model.drift[np.ix_(order, order)], model.noise_input[order],
            model.input_correlations, tuple(model.labels[i] for i in order),
        )
        n = steady_state_occupation(model, "a")
        assert steady_state_occupation(swapped, "a") == pytest.approx(n, rel=1e-14)

    def test_eigvals_runs_only_on_uncertified_points(self, monkeypatch):
        _, pencil, row, g = _across_the_pole([1.0, 7.0, 30.0, 1e4])
        calls = []

        dtypes = []

        def counted(name, fn):
            def wrapped(*args):
                calls.append((name, args[0].shape))
                dtypes.append(args[0].dtype)
                return fn(*args)

            return wrapped

        def refused(*args):
            raise AssertionError("no eigenvectors are needed")

        monkeypatch.setattr(np.linalg, "eigvals", counted("eigvals", np.linalg.eigvals))
        monkeypatch.setattr(np.linalg, "solve", counted("solve", np.linalg.solve))
        monkeypatch.setattr(np.linalg, "eig", refused)
        monkeypatch.setattr(spectra, "stability_eigenvalues", None)
        spectra._occupations(pencil, g[:3], row)
        # 21 = 6*7/2 real coordinates of a paired Hermitian Sigma; every
        # point's covariance certifies it stable, so no eigensolve runs
        assert calls == [("solve", (3, 21, 21))]
        # one point past the pole: it alone takes the eigensolve, that of its
        # real quadrature form, and the batch is not solved again
        calls.clear()
        dtypes.clear()
        entries = _entries(spectra._occupations(pencil, g[[0, 3, 2]], row))
        assert isinstance(entries[1], UnstableSystemError)
        assert calls == [("solve", (3, 21, 21)), ("eigvals", (1, 6, 6))]
        assert dtypes[1] == np.float64

    def test_a_failed_first_solve_takes_the_eigensolve_first(self, monkeypatch):
        _, pencil, row, g = _across_the_pole([5.0, 1e4, 7.0, 3.0])
        batch = lambda: _entries(spectra._occupations(pencil, g, row))
        expected = batch()
        calls = []
        solve, eigvals = np.linalg.solve, np.linalg.eigvals

        def solve_once(k, q):
            calls.append(("solve", k.shape))
            if len(calls) == 1:
                raise np.linalg.LinAlgError("Singular matrix")
            return solve(k, q)

        def counted(x):
            calls.append(("eigvals", x.shape))
            return eigvals(x)

        monkeypatch.setattr(np.linalg, "solve", solve_once)
        monkeypatch.setattr(np.linalg, "eigvals", counted)
        entries = batch()
        # the order without a certificate: every point's eigenvalues, then
        # one solve of the stable ones
        assert calls == [("solve", (4, 21, 21)), ("eigvals", (4, 6, 6)), ("solve", (3, 21, 21))]
        assert [_entry(e) for e in entries] == [_entry(e) for e in expected]

    @pytest.mark.parametrize("builder", [build_rwa_system, build_full_system])
    def test_undamped_mode_a_takes_the_eigensolve_first(self, builder, monkeypatch):
        # gamma_a = 0 leaves Q singular, so no covariance can certify a point
        spec = make_spec(c_ab=50.0, gamma_a_hz=0.0, c_om=5.0)  # lambda = 0 as well
        # with lambda > 0, mode a is damped through b
        undamped, coupled = builder(spec), builder(replace(spec, coupling=TWO_PI * 100.0))
        lam = np.linalg.eigvals(coupled.drift)
        bound = np.finfo(float).eps * np.abs(lam).max() / (-lam.real).min()
        calls = []
        for name in ("solve", "eigvals"):
            fn = getattr(np.linalg, name)
            monkeypatch.setattr(
                np.linalg, name, lambda *args, fn=fn, name=name: calls.append(name) or fn(*args)
            )
        with pytest.raises(UnstableSystemError) as error:
            steady_state_occupation(undamped, "a")
        assert str(error.value) == (
            "drift matrix has non-negative-real-part eigenvalue(s): 0-6.28319e+06j, 0+6.28319e+06j"
        )
        assert calls == ["eigvals"]
        calls.clear()
        n = steady_state_occupation(coupled, "a")
        assert calls == ["eigvals", "solve"]
        exact = _kronecker_occupation(coupled)
        assert abs(n - exact) <= bound * exact

    @pytest.mark.parametrize("perm, m", [((1, 0, 3, 2, 5, 4), 21)])
    def test_fold_is_exact_and_combines_at_most_two_entries(self, perm, m):
        # so it adds no rounding to A or Q beyond their own, in any batch
        op, qmap, unfold, _, weights, *_ = spectra._fold(6, perm)
        assert op.shape == (72, m * m) and qmap.shape == (36, m) and unfold.shape == (m, 72)
        for x in (op, qmap, unfold):
            assert set(np.unique(x)) <= {-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0}
            assert (x != 0).sum(axis=0).max() <= 2
        # distinct coordinates fill disjoint entries: ||Sigma||_F^2 = sum_k w_k y_k^2
        assert (unfold != 0).sum(axis=0).max() == 1 and set(weights) == {2.0, 4.0}


def _real_form(model):
    """M = U A U^-1 of a paired model, through spectra's cached fold."""
    d = model.dimension
    to_real = spectra._fold(d, tuple(_conjugate_swap(model.labels).tolist()))[3]
    return (model.drift.view(float).reshape(2 * d * d) @ to_real).reshape(d, d)


class TestRealQuadratureForm:
    """The stability check of a paired stack takes the eigenvalues of its
    real quadrature form, x = v + v^dag and p = -i (v - v^dag) per mode."""

    @pytest.mark.parametrize("perm", [(1, 0, 3, 2, 5, 4), (1, 0), (3, 2, 1, 0)])
    def test_map_is_exact_and_combines_at_most_two_entries(self, perm):
        # so M carries one rounding per entry, less than zgeev's eps*||A||
        d = len(perm)
        to_real = spectra._fold(d, perm)[3]
        assert to_real.shape == (2 * d * d, d * d)
        assert set(np.unique(to_real)) == {-1.0, 0.0, 1.0}
        assert (to_real != 0).sum(axis=0).max() == 2
        assert not np.signbit(to_real[to_real == 0]).any()
        assert to_real.flags.c_contiguous

    @pytest.mark.parametrize("perm", [(1, 0, 3, 2, 5, 4), (1, 0), (3, 2, 1, 0)])
    def test_map_gives_the_documented_entries_bitwise(self, perm):
        # on random paired A: M[x_k, x_l] = Re A_ij + Re A_{i,Pj}, and so on
        d = len(perm)
        p = np.array(perm)
        rng = np.random.default_rng(20161)
        a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        pairs = np.flatnonzero(np.arange(d) < p)
        a[p[pairs][:, None], p] = a[pairs].conj()  # A = P conj(A) P, from the rows i < Pi
        assert np.array_equal(a[p[:, None], p], a.conj())
        m = (a.view(float).reshape(2 * d * d) @ spectra._fold(d, perm)[3]).reshape(d, d)
        for k, i in enumerate(pairs):
            for l, j in enumerate(pairs):
                aij, aipj = a[i, j], a[i, p[j]]
                assert m[2 * k, 2 * l] == aij.real + aipj.real
                assert m[2 * k, 2 * l + 1] == -aij.imag + aipj.imag
                assert m[2 * k + 1, 2 * l] == aij.imag + aipj.imag
                assert m[2 * k + 1, 2 * l + 1] == aij.real - aipj.real

    @pytest.mark.parametrize("builder", [build_rwa_system, build_full_system])
    def test_eigenvalues_match_the_complex_eigensolve(self, builder):
        from scipy.optimize import linear_sum_assignment

        for spec in _criterion_7_draws(256):
            model = builder(spec)
            tol = 1e3 * np.finfo(float).eps * np.linalg.norm(model.drift)
            real_form = np.linalg.eigvals(_real_form(model))
            complex_form = spectra.stability_eigenvalues(model)
            # pair each eigenvalue with its nearest counterpart, conjugates
            # included; a sort would reorder near-equal real parts
            gap = np.abs(real_form[:, None] - complex_form[None, :])
            rows, cols = linear_sum_assignment(gap)
            assert gap[rows, cols].max() <= tol

    def test_stability_decisions_match_on_the_readme_sweep(self):
        # the README system at C_OM in [0.1, 1e5], as a full-fidelity CLI sweep
        spec, pencil, row, g = _across_the_pole(np.geomspace(0.1, 1e5, 61))
        entries = _entries(spectra._occupations(pencil, g, row))
        unstable = [isinstance(e, UnstableSystemError) for e in entries]
        assert sum(unstable) == 15
        complex_form = [spectra.stability_eigenvalues(m) for m in _models(spec, g)]
        assert unstable == [bool(np.any(lam.real >= 0)) for lam in complex_form]

    def test_instability_messages_are_canonical(self):
        # by imaginary part, then real part, always complex-formatted
        error = spectra._instability(np.array([2.0, -1.0, 1.0]))
        assert str(error).endswith(": 1+0j, 2+0j")
        error = spectra._instability(np.array([1 + 2j, 3 - 1j, 0.5 - 1j, -1 + 0j]))
        assert str(error).endswith(": 0.5-1j, 3-1j, 1+2j")
        # an imaginary part within 1e3 eps*max|lam| is zgeev's roundoff on a
        # real eigenvalue (up to ~17 eps*max|lam| measured); one beyond stays
        eps = np.finfo(float).eps
        error = spectra._instability(np.array([2.0 - 3e3 * eps * 1j, -3.0 + 1j]))
        assert str(error).endswith(": 2+0j")
        error = spectra._instability(np.array([2.0 + 1e4 * eps * 1j, -3.0]))
        assert str(error).endswith(f": {2.0 + 1e4 * eps * 1j:.6g}")

    def test_batched_and_single_model_messages_agree(self):
        blue = make_spec(c_ab=10.0, c_om=50.0)
        blue = replace(blue, cavity=replace(blue.cavity, detuning=-blue.cavity.detuning))
        # the README system at C_OM = 1e4: a real unstable eigenvalue, on
        # which zgeev leaves an imaginary part
        readme = make_spec(c_ab=50.0, c_om=1e4)
        for spec, n_bad in ((blue, 2), (readme, 1)):
            pencil, a0, a1, row = _shared_pencil(spec)
            g = np.array([spec.cavity.alpha * spec.cavity.g0])
            model = build_full_system(spec)
            assert np.array_equal(model.drift, a0 + g[0] * a1)
            (batched,) = _entries(spectra._occupations(pencil, g, row))
            with pytest.raises(UnstableSystemError) as single:
                spectra._require_stable(model)
            assert isinstance(batched, UnstableSystemError)
            assert str(batched) == str(single.value)
            assert str(batched).count(", ") == n_bad - 1
        assert str(batched).endswith(": 4.89986e+06+0j")


def _drive(spec, c_om):
    """The column G = sqrt(Gamma kappa) / 2 of a sweep over ``c_om``."""
    return np.sqrt(np.asarray(c_om) * spec.mode_b.gamma * spec.cavity.kappa) / 2.0


class TestStabilityCertificate:
    """A point whose solved covariance certifies it stable runs no
    eigensolve, and the certified points are exactly those the real-form
    eigensolve calls stable."""

    def _check(self, monkeypatch, spec, c_om, rotating_wave=False):
        """The decisions at the G column of ``c_om``, and that the eigensolve
        saw exactly the unstable points."""
        eigvals = np.linalg.eigvals
        pencil, a0, a1, row = _shared_pencil(spec, rotating_wave)
        g = _drive(spec, c_om)
        drifts = a0 + g[:, None, None] * a1
        to_real = pencil.fold[3]
        forms = (drifts.view(float).reshape(-1, 72) @ to_real).reshape(-1, 6, 6)
        unstable = np.any(eigvals(forms).real >= 0, axis=1)
        seen = [np.empty((0, 6, 6))]
        monkeypatch.setattr(np.linalg, "eigvals", lambda x: seen.append(x) or eigvals(x))
        entries = _entries(spectra._occupations(pencil, g, row))
        monkeypatch.undo()
        assert [isinstance(e, UnstableSystemError) for e in entries] == unstable.tolist()
        assert np.array_equal(np.concatenate(seen), forms[unstable])
        return unstable

    @pytest.mark.parametrize("rotating_wave", [True, False])
    def test_decisions_match_the_real_form_eigensolve(self, rotating_wave, monkeypatch):
        # criterion-7 draws out to C_OM = 1e6, deep into the full model's
        # unstable region (the rwa model, without counter-rotating terms,
        # stays stable there)
        c_om = np.geomspace(1e-2, 1e6, 60)
        counts = np.zeros(2, dtype=int)
        for spec in _criterion_7_draws(256, seed=501):
            unstable = self._check(monkeypatch, spec, c_om, rotating_wave)
            counts += (~unstable).sum(), unstable.sum()
        assert counts[0] > 13000 and (rotating_wave or counts[1] > 1000)

    def test_decisions_match_on_the_readme_boundary_scan(self, monkeypatch):
        # 20001 points 3.5e-5 apart across the boundary at C_OM = 3408.33,
        # where the last stable points have ||Sigma|| ~ 1e13
        scan = np.linspace(3408.0, 3408.7, 20001)
        unstable = [
            self._check(monkeypatch, make_spec(c_ab=50.0), chunk)
            for chunk in np.array_split(scan, 10)
        ]
        assert 9000 < np.concatenate(unstable).sum() < 11000

    def test_positive_definite_mixed_stack(self):
        # a stack of positive definite and indefinite Hermitian matrices
        # fails the batched Cholesky; eigvalsh then decides each matrix
        rng = np.random.default_rng(16)
        m = rng.normal(size=(400, 6, 6)) + 1j * rng.normal(size=(400, 6, 6))
        h = m @ spectra._dagger(m) + rng.uniform(-6.0, 6.0, 400)[:, None, None] * np.eye(6)
        lam = np.linalg.eigvalsh(h)[:, 0]
        clear = np.abs(lam) > 1e-6
        assert 100 < (lam[clear] > 0).sum() < 300
        assert np.array_equal(spectra._positive_definite(h)[clear], lam[clear] > 0)
        # an update that overflows gives a NaN Cholesky factor, not an error
        h = np.repeat(np.eye(6, dtype=complex)[None], 2, axis=0)
        h[0, 0, 0], h[0, 0, 1], h[0, 1, 0] = 1e-300, 1e200, 1e200
        assert spectra._positive_definite(h).tolist() == [False, True]

    def test_the_pole_edge_is_decided_by_t(self, monkeypatch):
        # the beam's full drift goes unstable at C_OM = 29086.57; 0.57 to 0.07
        # below it, (||R||_F + t) / L reads 0.089, 0.19 and 0.75, and one call
        # certifies every point with no drift formed and no eigensolve
        spec = _beam_spec()
        pencil, _, _, row = _shared_pencil(spec)
        g = _drive(spec, np.array([29086.0, 29086.3, 29086.5]))
        y = _lu_solve(pencil, g)
        r_norm, s_norm = spectra._residual(pencil.ops, pencil.qf, g, y, pencil.fold[4])
        nu1, nu0 = pencil.nu
        delta = (r_norm + (nu0 + g * nu1) * s_norm + pencil.q_rounding) / pencil.q_floor
        assert 0.05 < delta[0] < delta[1] < delta[2] < 1.0
        formed, drifts, eigvals = [], spectra._drifts, np.linalg.eigvals
        monkeypatch.setattr(spectra, "_drifts", lambda *args: formed.append(args[2]) or drifts(*args))
        monkeypatch.setattr(np.linalg, "eigvals", lambda x: formed.append(x) or eigvals(x))
        record = spectra._occupations(pencil, g, row)
        assert not record.errors and np.isfinite(record.n).all() and formed == []

    def test_a_large_residual_is_not_certified(self, monkeypatch):
        # an unstable drift handed the positive-definite Sigma of a stable
        # one (same Q): only ||R|| against lambda_min(Q) rejects it
        stable = make_spec(c_ab=10.0, c_om=50.0)
        blue = replace(stable, cavity=replace(stable.cavity, detuning=-stable.cavity.detuning))
        stable, blue = build_full_system(stable), build_full_system(blue)
        with pytest.raises(UnstableSystemError) as single:
            spectra._require_stable(blue)
        op = spectra._fold(6, (1, 0, 3, 2, 5, 4))[0]
        stable_op = (stable.drift.view(float).reshape(1, -1) @ op).reshape(1, 21, 21)
        solve = np.linalg.solve
        monkeypatch.setattr(np.linalg, "solve", lambda k, q: solve(stable_op, q))
        with pytest.raises(UnstableSystemError) as batched:
            steady_state_occupation(blue, "a")
        assert str(batched.value) == str(single.value)


def _bits(entries):
    """Covariance entries, comparable bit for bit: floats by hex, errors by type and text."""
    return [
        (type(e), str(e)) if isinstance(e, Exception)
        else tuple(map(float.hex, e if isinstance(e, tuple) else (e,)))
        for e in entries
    ]


class TestErrorOrder:
    """The gates of a batch find its errors out of index order: the
    non-finite drifts first, then the unstable points.  The record lists
    them by index, with the bits of each point solved on its own."""

    @pytest.mark.parametrize("slopes", [False, True])
    def test_errors_are_listed_by_index(self, slopes):
        spec = make_spec(c_ab=50.0)
        a0, a1, b, corr, labels = _pencil(spec, rotating_wave=False)
        pencil = spectra._prepare_noise(a0, a1, b, corr[0], _conjugate_swap(labels))
        g = _drive(spec, [1.0, 1e4, 7.0, 3.0, 30.0])
        g[3] = math.inf  # after the unstable point 1, the stable point 2 between
        with np.errstate(invalid="ignore"):  # inf * 0 in the drift
            record = spectra._occupations(pencil, g, labels.index("a"), slopes)
        assert list(record.errors) == [1, 3]
        assert isinstance(record.errors[1], UnstableSystemError)
        assert str(record.errors[3]) == "drift matrix has non-finite entries"
        columns = [record.n] if record.slope is None else [record.n, record.slope]
        for column in columns:
            assert np.isnan(column[[1, 3]]).all() and np.isfinite(column[[0, 2, 4]]).all()
        with np.errstate(invalid="ignore"):
            singles = [
                e for i in range(5)
                for e in _entries(spectra._occupations(pencil, g[i : i + 1], labels.index("a"), slopes))
            ]
        assert _bits(_entries(record)) == _bits(singles)


class TestPreparedNoise:
    """A sweep prepares each pencil once and solves only its G columns:
    every entry is bitwise the one of a preparation per call."""

    def _prepared_once(self, a0, a1, b, weights, labels, g, slopes=False):
        """One preparation, against a preparation per one-point call with
        that point's noise row where ``weights`` has one per point.  One
        noise row serves a one-point column and the rest in two calls."""
        perm = _conjugate_swap(labels)
        rows = weights.ndim == 2
        pencil = spectra._prepare_noise(a0, a1, b, weights, perm)
        with np.errstate(invalid="ignore"):  # inf * 0 where G is not finite
            prepared = [
                e for part in ([slice(None)] if rows else [slice(0, 1), slice(1, None)])
                for e in _entries(spectra._occupations(pencil, g[part], 0, slopes))
            ]
            per_call = [
                e for i in range(len(g)) for e in _entries(spectra._occupations(
                    spectra._prepare_noise(a0, a1, b, weights[i] if rows else weights, perm), g[i : i + 1], 0, slopes
                ))
            ]
        assert _bits(prepared) == _bits(per_call)
        return prepared

    def _one_pencil(self, spec, g, rotating_wave=False, slopes=False):
        a0, a1, b, corr, labels = _pencil(spec, rotating_wave=rotating_wave)
        return self._prepared_once(a0, a1, b, corr[0], labels, g, slopes)

    @pytest.mark.parametrize("slopes", [False, True])
    @pytest.mark.parametrize("rotating_wave", [True, False])
    def test_criterion_7_draws(self, rotating_wave, slopes):
        # out to C_OM = 1e6: the full model's stacks hold unstable points
        c_om = np.geomspace(1e-2, 1e6, 24)
        errors = 0
        for spec in _criterion_7_draws(24, seed=502):
            entries = self._one_pencil(spec, _drive(spec, c_om), rotating_wave, slopes)
            errors += sum(isinstance(e, UnstableSystemError) for e in entries)
        assert rotating_wave or errors > 50

    @pytest.mark.parametrize("slopes", [False, True])
    def test_mixed_batch(self, slopes):
        # a noise row per point across the pole: baths from 1 K to 1000 K, and
        # one row without mode a's bath, whose Q is singular
        spec = make_spec(c_ab=50.0)
        a0, a1, b, corr, labels = _pencil(spec, rotating_wave=False)
        c_om = np.geomspace(0.1, 1e5, 12)
        weights = np.stack([build_full_system(make_spec(temperature=t)).input_correlations[0]
                            for t in np.geomspace(1.0, 1e3, len(c_om))])
        weights[4, :2] = 0.0
        entries = self._prepared_once(a0, a1, b, weights, labels, _drive(spec, c_om), slopes)
        assert [isinstance(e, UnstableSystemError) for e in entries] == [False] * 9 + [True] * 3

    @pytest.mark.parametrize("slopes", [False, True])
    def test_non_finite_drifts(self, slopes):
        spec = make_spec(c_ab=50.0)
        g = _drive(spec, np.geomspace(0.1, 100.0, 12))
        g[0] = math.nan  # the one-point column alone
        g[5] = math.inf
        entries = self._one_pencil(spec, g, slopes=slopes)
        assert [isinstance(e, NumericsError) for e in entries] == [i in (0, 5) for i in range(12)]

    @pytest.mark.parametrize("slopes", [False, True])
    def test_singular_noise_takes_the_eigensolve(self, slopes):
        spec = replace(make_spec(c_ab=50.0, gamma_a_hz=0.0), coupling=TWO_PI * 100.0)
        a0, a1, b, corr, labels = _pencil(spec, rotating_wave=False)
        assert (spectra._prepare_noise(a0, a1, b, corr[0], _conjugate_swap(labels)).q_floor <= 0).all()
        entries = self._one_pencil(spec, _drive(spec, np.geomspace(0.1, 1e5, 16)), slopes=slopes)
        assert not isinstance(entries[0], Exception)

    @pytest.mark.parametrize("builder", [build_rwa_system, build_full_system])
    def test_operators_are_those_of_the_drifts(self, monkeypatch, builder):
        # L0 + G*L1 is bitwise the folded operator of A0 + G*A1: every nonzero
        # float-view component of A1 is +-1 where A0's is 0, and every fold
        # coefficient is a power of two or 0, so each entry rounds once either
        # way.  So too along omega_b for the full drift, the only one a
        # detuning sweep solves: E = diag(0, 0, -i, i, 0, 0) meets A0' on the
        # diagonal, but in its real parts, not its imaginary ones
        rotating_wave = builder is build_rwa_system
        g = np.array([0.0, 1e-3, 1.0, 1e3, 1e150])
        for spec in (make_spec(c_ab=50.0), _beam_spec(), *_criterion_7_draws(20, seed=7)):
            a0, a1, b, corr, labels = _pencil(spec, rotating_wave=rotating_wave)
            assert np.array_equal(builder(spec).drift, a0 + spec.cavity.alpha * spec.cavity.g0 * a1)
            # at the builder's own G, mode b from omega_a out to 40 gamma_b, and
            # at 3.7 omega_a, 2^-20 omega_a and 1e150
            wa, gb = spec.mode_a.omega, spec.mode_b.gamma
            omega_b = np.array([wa, wa + 1e-3 * gb, wa + 0.5 * gb, wa + 40.0 * gb, 3.7 * wa, 2.0**-20 * wa, 1e150])
            g0 = spec.cavity.alpha_g0
            cases = [(g, spectra._prepare_noise(a0, a1, b, corr[0], _conjugate_swap(labels, a0, a1)),
                      [builder(_at(spec, g0=x)).drift for x in g.tolist()])]
            if not rotating_wave:
                cases.append((omega_b, _detuning_pencil(spec, g0, omega_b),
                              [builder(_at(spec, omega_b=x)).drift for x in omega_b.tolist()]))
            for column, pencil, drifts in cases:
                seen, solve = [], np.linalg.solve
                monkeypatch.setattr(np.linalg, "solve", lambda k, q: seen.append(k) or solve(k, q))
                with np.errstate(over="ignore", invalid="ignore"):  # an unstable point's norms
                    spectra._occupations(pencil, column, 0)
                monkeypatch.undo()
                op, qmap = pencil.fold[:2]
                assert seen[0].tobytes() == spectra._operator(np.stack(drifts), op, qmap.shape[1]).tobytes()


def _detuning_pencil(spec, g, omega_b):
    """The prepared pencil of a full detuning sweep of ``spec`` at G = ``g``
    over mode b at ``omega_b``, as :func:`sweep_detuning` prepares it, and
    its pairing checked (the sweep takes it from the labels)."""
    a0, e, b, weights, labels = _omega_b_pencil(spec, g, omega_b)
    return spectra._prepare_noise(a0, e, b, weights, _conjugate_swap(labels, a0, e), spec.mode_a.omega)


def _at(spec, g0=None, omega_b=None):
    """``spec`` driven at G = ``g0`` (alpha = G, g0 = 1) or with mode b at ``omega_b``."""
    if g0 is not None:
        return replace(spec, cavity=replace(spec.cavity, alpha=g0, g0=1.0))
    return replace(spec, mode_b=replace(spec.mode_b, omega=omega_b))


def _record_lu_solves(monkeypatch) -> list:
    """Record the point count of every stacked LU solve, ``np.linalg.solve`` of
    a stack of folded operators (the modal preparation solves one matrix)."""
    counts, solve = [], np.linalg.solve

    def counted(k, q):
        if k.ndim == 3:
            counts.append(k.shape[0])
        return solve(k, q)

    monkeypatch.setattr(np.linalg, "solve", counted)
    return counts


def _shared_pencil(spec, rotating_wave=False):
    """The prepared pencil of ``spec``, its A0 and A1, and mode a's row."""
    a0, a1, b, corr, labels = _pencil(spec, rotating_wave=rotating_wave)
    pencil = spectra._prepare_noise(a0, a1, b, corr[0], _conjugate_swap(labels, a0, a1))
    return pencil, a0, a1, labels.index("a")


def _beam_spec():
    """The README ``[design]`` beam, with kappa = 2 pi 0.3 MHz at detuning -omega_b
    (ROADMAP item 11): its drift goes unstable at C_OM = 29086.57."""
    geometry = BeamGeometry(20.01e-6, 19.99e-6, 0.3e-6, 0.3e-6)
    cavity = CavityDrive(kappa=TWO_PI * 3e5, detuning=0.0, g0=TWO_PI * 10.0, alpha=0.0)
    spec = design_to_system(geometry, load_material("silicon_nitride"), 300.0, cavity).system
    return replace(spec, cavity=replace(cavity, detuning=-spec.mode_b.omega))


class TestModalCovariance:
    """A call of _MODAL_POINTS points or more on one shared pencil solves by
    the pencil's eigendecomposition and one refinement step.  Every gate
    stays: the LU solves again each certified point above the residual
    gate, and each point the certificate leaves that the eigensolve calls
    stable."""

    @pytest.mark.parametrize("builder", [build_rwa_system, build_full_system])
    def test_batches_above_the_crossover_match_a_40_digit_solve(self, monkeypatch, builder):
        rotating_wave = builder is build_rwa_system
        for spec in TestCovarianceAccuracy.SPECS + list(_criterion_7_draws(3, seed=31)):
            pencil, a0, a1, row = _shared_pencil(spec, rotating_wave)
            g0 = spec.cavity.alpha * spec.cavity.g0
            model = builder(spec)
            assert np.array_equal(model.drift, a0 + g0 * a1)
            # the model's own G, then a sweep's column of the crossover's size
            g = np.append(g0, _drive(spec, np.geomspace(1e-2, 10.0, spectra._MODAL_POINTS)))
            lu = _record_lu_solves(monkeypatch)
            record = spectra._occupations(pencil, g, row)
            monkeypatch.undo()
            assert pencil.modal is not None and lu == [] and not record.errors
            exact = _kronecker_occupation(model)
            assert abs(record.n[0] - exact) <= 1e-14 * exact

    @pytest.mark.parametrize("c_ab", [10.0, 50.0, 300.0, 1e4])
    def test_readme_sweeps_match_the_lu(self, monkeypatch, c_ab):
        spec = make_spec(c_ab=c_ab)
        pencil, _, _, row = _shared_pencil(spec)
        g = _drive(spec, np.geomspace(1e-2, 1e3, 301))
        lu = _record_lu_solves(monkeypatch)
        modal = spectra._occupations(pencil, g, row, slopes=True)
        # no point falls back: at C_ab = 1e4 the refinement step is what
        # passes the gate, as the modal form alone misses it at 117 points
        assert lu == [] and not modal.errors
        parts = np.array_split(g, 8)
        assert len(parts[0]) < spectra._MODAL_POINTS
        by_lu = [spectra._occupations(pencil, part, row, slopes=True) for part in parts]
        assert lu == [len(part) for part in parts for _ in range(2)]  # Sigma, then its slope
        n, slope = (np.concatenate([getattr(r, x) for r in by_lu]) for x in ("n", "slope"))
        np.testing.assert_allclose(modal.n, n, rtol=1e-13, atol=0)
        np.testing.assert_allclose(modal.slope, slope, rtol=1e-12, atol=0)

    def test_beam_near_its_pole_is_no_further_from_a_40_digit_solve_than_the_lu(self, monkeypatch):
        # C_OM = 2.9e4 is 0.3% below the pole, where Sigma is ill-conditioned:
        # the modal form keeps every point, 2e-13 from the 40-digit solve
        # there, against the LU's 1.7e-8
        spec = _beam_spec()
        pencil, a0, a1, row = _shared_pencil(spec)
        g = _drive(spec, np.geomspace(1e2, 2.9e4, spectra._MODAL_POINTS))
        lu = _record_lu_solves(monkeypatch)
        modal = spectra._occupations(pencil, g, row)
        monkeypatch.undo()
        assert lu == [] and not modal.errors
        for i in (-1, -2):
            model = build_full_system(replace(spec, cavity=replace(spec.cavity, alpha=g[i], g0=1.0)))
            assert np.array_equal(model.drift, a0 + g[i] * a1)
            exact = _kronecker_occupation(model)
            (by_lu,) = spectra._occupations(pencil, g[[i]], row).n
            assert abs(modal.n[i] - exact) <= abs(by_lu - exact)

    def test_a_batch_below_the_crossover_is_bitwise_the_lu(self):
        spec = make_spec(c_ab=50.0)
        pencil, _, _, row = _shared_pencil(spec)
        g = _drive(spec, np.geomspace(1e-2, 1e3, spectra._MODAL_POINTS - 1))
        batch = _entries(spectra._occupations(pencil, g, row, slopes=True))
        assert "modal" not in vars(pencil)  # never prepared
        singles = [
            e for i in range(len(g))
            for e in _entries(spectra._occupations(pencil, g[i : i + 1], row, slopes=True))
        ]
        assert _bits(batch) == _bits(singles)

    @pytest.mark.parametrize("slopes", [False, True])
    def test_points_past_the_pole_go_from_the_modal_form_to_the_eigensolve(self, monkeypatch, slopes):
        # C_OM in [0.1, 1e5]: 20 of the 81 points lie past the pole at
        # C_OM = 3408, where the modal form is meaningless; the certificate
        # refuses them, and the eigensolve alone words their errors, as the
        # single-point calls do, with no LU solve
        spec = make_spec(c_ab=50.0)
        pencil, _, _, row = _shared_pencil(spec)
        g = _drive(spec, np.geomspace(0.1, 1e5, 81))
        formed, drifts = [], spectra._drifts
        monkeypatch.setattr(spectra, "_drifts", lambda *a: formed.append(len(a[2])) or drifts(*a))
        lu = _record_lu_solves(monkeypatch)
        batch = _entries(spectra._occupations(pencil, g, row, slopes))
        monkeypatch.undo()
        assert lu == [] and formed == [20] and pencil.modal is not None
        singles = [
            e for i in range(len(g)) for e in _entries(spectra._occupations(pencil, g[i : i + 1], row, slopes))
        ]
        failed = [isinstance(e, Exception) for e in singles]
        assert sum(failed) == 20 and [isinstance(e, Exception) for e in batch] == failed
        for got, single in zip(batch, singles):
            if isinstance(single, Exception):
                assert _entry(got) == _entry(single)
            else:
                assert got == pytest.approx(single, rel=1e-12, abs=0)

    @pytest.mark.parametrize("slopes", [False, True])
    def test_a_modal_form_that_misses_every_gate_leaves_the_lu_bitwise(self, monkeypatch, slopes):
        spec = make_spec(c_ab=50.0)
        pencil, _, _, row = _shared_pencil(spec)
        g = _drive(spec, np.geomspace(1e-2, 1e3, 301))
        expected = _bits(_entries(spectra._occupations(pencil, g, row, slopes)))
        miss = lambda modal, ops, g, rhs: np.full((len(g), rhs.shape[-1]), math.nan)
        monkeypatch.setattr(spectra, "_modal_solve", miss)
        lu = _record_lu_solves(monkeypatch)
        record = spectra._occupations(pencil, g, row, slopes)
        assert lu == [301] * (1 + slopes) and not record.errors
        monkeypatch.setattr(spectra, "_MODAL_POINTS", 302)
        assert _bits(_entries(record)) == _bits(_entries(spectra._occupations(pencil, g, row, slopes)))
        assert _bits(_entries(record)) != expected  # the modal form's bits differ by rounding

    def test_one_drift_under_64_noise_rows_takes_the_modal_form(self, monkeypatch):
        # one drift, the pencil (A, 0) at G = 0, under 64 bath temperatures:
        # the points are the rows of its noise, and L(G)^-1 = L0^-1 at every one
        models = [build_full_system(make_spec(c_om=5.0, temperature=t)) for t in np.geomspace(1.0, 1e3, 64)]
        drift, labels = models[0].drift, models[0].labels
        assert all(np.array_equal(model.drift, drift) for model in models)
        weights = np.stack([model.input_correlations[0] for model in models])
        b, perm, row = models[0].noise_input, _conjugate_swap(labels), labels.index("a")
        pencil = spectra._prepare_noise(drift, np.zeros_like(drift), b, weights, perm)  # 64 Q rows
        g = np.zeros(len(models))
        lu = _record_lu_solves(monkeypatch)
        modal = spectra._occupations(pencil, g, row)
        monkeypatch.undo()
        assert lu == [] and pencil.modal is not None and not modal.errors
        by_lu = [steady_state_occupation(model, "a") for model in models]
        np.testing.assert_allclose(modal.n, by_lu, rtol=1e-15, atol=0)

    def test_pencils_without_a_modal_form(self):
        # mode a undamped and uncoupled: A0 has the eigenvalues -+i omega_a,
        # so L0 is singular, and every point takes the LU path
        a0, a1, b, corr, labels = _pencil(make_spec(c_ab=0.0, gamma_a_hz=0.0), rotating_wave=False)
        assert spectra._prepare_noise(a0, a1, b, corr[0], _conjugate_swap(labels)).modal is None

    @pytest.mark.parametrize(
        "spec", [make_spec(c_ab=50.0), _beam_spec(), list(_criterion_7_draws(3, seed=18))[2]],
        ids=["readme", "beam", "criterion-7"],
    )
    def test_detuning_sweeps_match_a_40_digit_solve(self, monkeypatch, spec):
        # a full sweep_detuning of 301 points at C_OM = sqrt(51), out to 40
        # gamma_b of splitting, is one pencil in omega_b on its modal form,
        # taken about omega_a.  Measured at every fifth point: within 4.1e-16
        # of the 40-digit solve on the README system (the LU of each point:
        # 6.3e-16), 5.0e-16 on the beam (the LU: 9.9e-16) and 4.1e-16 on this
        # draw, where the form about 0 was 8e-12 off
        gb, wa = spec.mode_b.gamma, spec.mode_a.omega
        splittings = np.linspace(0.0, 40.0, 301) * gb
        lu, modal = _record_lu_solves(monkeypatch), []
        solve = spectra._modal_solve
        monkeypatch.setattr(spectra, "_modal_solve", lambda *args: modal.append(len(args[2])) or solve(*args))
        result = sweep_detuning(spec, splittings, fidelity="full", c_om=math.sqrt(51.0))
        monkeypatch.undo()
        assert lu == [] and modal == [301] and not any(result.errors)
        g = math.sqrt(math.sqrt(51.0) * gb * spec.cavity.kappa) / 2.0
        for i in (0, 30, 110, 260):
            model = build_full_system(_at(_at(spec, g0=g), omega_b=wa + splittings[i]))
            exact = _kronecker_occupation(model)
            assert abs(result.n_eff[i] - exact) <= 1e-15 * exact


def _exact_norm2(*terms):
    """||X||_F^2, exactly in fractions, of the sum of the terms, each a complex
    matrix or a ``(A, S)`` pair that adds A S + S A^dag (S Hermitian)."""
    total = {}
    for term in terms:
        if isinstance(term, tuple):
            a, s = term
            for (i, k) in zip(*np.nonzero(a)):
                ar, ai = Fraction(a[i, k].real), Fraction(a[i, k].imag)
                for j in range(s.shape[1]):
                    sr, si = Fraction(s[k, j].real), Fraction(s[k, j].imag)
                    x = (ar * sr - ai * si, ar * si + ai * sr)  # (A S)_ij, and its mate (S A^dag)_ji
                    for key, (re, im) in (((i, j), x), ((j, i), (x[0], -x[1]))):
                        old = total.get(key, (0, 0))
                        total[key] = (old[0] + re, old[1] + im)
        else:
            for (i, j) in zip(*np.nonzero(term)):
                old = total.get((i, j), (0, 0))
                total[(i, j)] = (old[0] + Fraction(term[i, j].real), old[1] + Fraction(term[i, j].imag))
    return sum(re * re + im * im for re, im in total.values())


def _lu_solve(pencil, g):
    """The folded Sigma of each G of ``g`` by the LU of G*L1 + L0, as a call forms it."""
    m = pencil.qf.shape[1]
    coef = np.stack((g, np.ones_like(g)), axis=1)[:, None, :]
    return np.linalg.solve((coef @ pencil.ops).reshape(-1, m, m), -pencil.qf[:, :, None])[..., 0]


def _dense_pencils(n):
    """``(pencil, A0, A1)`` of ``n`` random paired pencils with Q = I, A0 ~ 1e6
    and A1 ~ 1 on the other entries, so A0 + G*A1 is exact at G = 2^k."""
    rng = np.random.default_rng(32)
    perm = np.array([1, 0, 3, 2, 5, 4])
    pairs = np.flatnonzero(np.arange(6) < perm)

    def paired(x):  # A = P conj(A) P from the rows i < perm[i]
        x[perm[pairs][:, None], perm] = x[pairs].conj()
        return x

    for _ in range(n):
        a = paired(rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6)))
        mask = paired(rng.random((6, 6)) + 0j).real < 0.5
        a0, a1 = np.where(mask, 1e6 * a, 0), np.where(mask, 0, a)
        yield spectra._prepare_noise(a0, a1, np.eye(6), np.ones(6), perm), a0, a1


class TestResidualRounding:
    """The covariance certificate's ||R||_F is formed on the folded
    coordinates: G*(L1 y) + L0 y + qf, weighted.  Its rounding term t, the
    certificate's only one, from the ``nu`` that the pencil prepares, covers
    the gap between that computed norm and the exact ||A S + S A^dag + Q||_F
    of the same computed S, for this Q and A = A0 + G*A1, with every
    product in fractions."""

    def _check(self, pencil, a, g, y, perturbed=False):
        """``a`` holds each point's A0 + G*A1 exactly (the builders' pencils round no entry)."""
        m, unfold = pencil.qf.shape[1], pencil.fold[2]
        r_norm, s_norm = spectra._residual(pencil.ops, pencil.qf, g, y, pencil.fold[4])
        nu1, nu0 = pencil.nu  # gamma_{k+3} nu of L1 and of L0
        t = (nu0 + np.abs(g) * nu1) * s_norm
        t += (math.ceil(m / 2) + 3) * np.finfo(float).eps / 2 * pencil.q_norm
        s = spectra._hermitian(y, unfold, 6)  # exact: every unfold entry is 0 or +-1
        q = spectra._hermitian(pencil.qf, unfold, 6)
        for i in range(len(g)):
            exact = _exact_norm2((a[i], s[i]), q[i if len(q) > 1 else 0])
            assert abs(Fraction(s_norm[i]) ** 2 / _exact_norm2(s[i]) - 1) <= 1e-14
            # off the solution the norm's own rounding, relative, is not t's to cover
            slack = Fraction(t[i]) + (Fraction(1e-14 * r_norm[i]) if perturbed else 0)
            low = max(Fraction(r_norm[i]) - slack, Fraction(0))
            assert low**2 <= exact <= (Fraction(r_norm[i]) + slack) ** 2

    def _pencil_cases(self, spec, c_om, rotating_wave):
        pencil, a0, a1, _ = _shared_pencil(spec, rotating_wave)
        g = _drive(spec, c_om)
        a = a0 + g[:, None, None] * a1
        assert pencil.modal is not None
        for y in (spectra._modal_solve(pencil.modal, pencil.ops, g, -pencil.qf), _lu_solve(pencil, g)):
            self._check(pencil, a, g, y)
            self._check(pencil, a, g, y * (1.0 + 1e-7 * np.sin(np.arange(y.size))).reshape(y.shape), True)

    @pytest.mark.parametrize("rotating_wave", [False, True])
    @pytest.mark.parametrize("c_ab", [10.0, 50.0, 300.0, 1e4])
    def test_readme_sweeps(self, c_ab, rotating_wave):
        self._pencil_cases(make_spec(c_ab=c_ab), np.geomspace(1e-2, 1e3, 301)[::50], rotating_wave)

    @pytest.mark.parametrize("rotating_wave", [False, True])
    def test_criterion_7_draws(self, rotating_wave):
        for spec in _criterion_7_draws(4, seed=32):
            self._pencil_cases(spec, np.geomspace(1e-2, 1e2, 4), rotating_wave)

    @pytest.mark.parametrize("rotating_wave", [False, True])
    def test_beam_below_its_pole(self, rotating_wave):
        # C_OM = 2.9e4 is 0.3% below the full drift's pole, where ||Sigma|| is largest
        self._pencil_cases(_beam_spec(), np.array([1e2, 2.5e4, 2.9e4]), rotating_wave)

    def test_dense_pencils(self):
        # the builders' pencils multiply their large entries (omega) by small
        # coherences, so their gaps stay 1e-2 of t or less.  Random paired
        # pencils solved for Q = I: large products cancel in every row, and
        # their rounding is what nu ||Sigma||_F bounds, not ||Q||
        g = 2.0 ** np.array([-3, 4, 10])
        for pencil, a0, a1 in _dense_pencils(8):
            self._check(pencil, a0 + g[:, None, None] * a1, g, _lu_solve(pencil, g))

    def test_prepared_nu_is_the_scaled_norm_bound(self):
        # nu = (k+4) u sqrt(||M||_1 ||M||_inf) >= (k+4) u ||M||_2 of
        # M = W^1/2 |L| W^-1/2 for L1 and L0, k the most nonzeros in a row of [L0 L1]
        specs = (make_spec(c_ab=50.0), _beam_spec(), *_criterion_7_draws(8, seed=34))
        pencils = [_shared_pencil(spec, rotating_wave)[0] for spec in specs for rotating_wave in (False, True)]
        u = np.finfo(float).eps / 2
        for pencil in pencils + [pencil for pencil, _, _ in _dense_pencils(8)]:
            m, root = pencil.qf.shape[1], np.sqrt(pencil.fold[4])
            assert pencil.nu.shape == (2,)
            parts = pencil.ops.reshape(2, m, m)
            k = np.count_nonzero(np.hstack(parts[::-1]), axis=1).max()
            for nu, part in zip(pencil.nu, parts):
                scaled = np.diag(root) @ np.abs(part) @ np.diag(1.0 / root)
                bound = math.sqrt(np.linalg.norm(scaled, 1) * np.linalg.norm(scaled, np.inf))
                assert nu == pytest.approx((k + 4) * u * bound, rel=1e-15, abs=0.0)
                # equal in exact arithmetic for the builders' L0, whose largest
                # row is its 2-norm: up to both norms' rounding, a few ulps
                assert nu >= (k + 4) * u * np.linalg.norm(scaled, 2) * (1 - 8 * u)

    def test_detuning_pencils(self):
        # along omega_b, A1 is E = diag(0, 0, -i, i, 0, 0): each L1 row holds
        # one nonzero, and k is 9 on the full README pencil;
        # A0' + omega_b*E is exact, and Q has a row per point
        for spec, c_om in ((make_spec(c_ab=50.0), math.sqrt(51.0)), (_beam_spec(), 2.5e4)):
            g = math.sqrt(c_om * spec.mode_b.gamma * spec.cavity.kappa) / 2.0
            omega_b = spec.mode_a.omega + np.array([0.0, 0.3, 2.0, 40.0]) * spec.mode_b.gamma
            pencil = _detuning_pencil(spec, g, omega_b)
            m = pencil.qf.shape[1]
            k = np.count_nonzero(pencil.ops.reshape(2, m, m), axis=(0, 2)).max()
            assert np.count_nonzero(pencil.ops[0].reshape(m, m), axis=1).max() == 1
            assert k == 9
            a = pencil.a0 + omega_b[:, None, None] * pencil.a1
            assert pencil.modal is not None
            for y in (spectra._modal_solve(pencil.modal, pencil.ops, omega_b, -pencil.qf), _lu_solve(pencil, omega_b)):
                self._check(pencil, a, omega_b, y)
                self._check(pencil, a, omega_b, y * (1.0 + 1e-7 * np.sin(np.arange(y.size))).reshape(y.shape), True)

    @pytest.mark.parametrize("builder", [build_rwa_system, build_full_system])
    def test_drifts_at_g_0(self, builder):
        # one drift A as the pencil (A, 0), as steady_state_occupation solves it
        g = np.zeros(1)
        for model in [builder(spec) for spec in _criterion_7_draws(4, seed=33)]:
            pencil = _drift_pencil(model)
            self._check(pencil, model.drift[None], g, _lu_solve(pencil, g))

    def test_no_larger_than_the_term_it_replaced(self):
        # (d + 3) eps (2 ||A||_F ||Sigma||_F + ||Q||_F) bounded the complex
        # residual A S + S A^dag + Q; the folded one's term is 0.23-0.50 of it
        for rotating_wave in (False, True):
            for c_ab in (10.0, 50.0, 300.0, 1e4):
                spec = make_spec(c_ab=c_ab)
                pencil, a0, a1, _ = _shared_pencil(spec, rotating_wave)
                g = _drive(spec, np.geomspace(1e-2, 1e3, 301))
                y = spectra._modal_solve(pencil.modal, pencil.ops, g, -pencil.qf)
                _, s_norm = spectra._residual(pencil.ops, pencil.qf, g, y, pencil.fold[4])
                eps = np.finfo(float).eps
                nu1, nu0 = pencil.nu
                t = (nu0 + g * nu1) * s_norm + 7 * eps * pencil.q_norm
                a_norm = np.linalg.norm(a0 + g[:, None, None] * a1, axis=(1, 2))
                assert (t <= 9 * eps * (2 * a_norm * s_norm + pencil.q_norm)).all()


class TestIntegration:
    def test_edge_tail_of_a_zero_edge_is_zero(self):
        points = np.arange(20.0)
        values = np.linspace(2.0, 0.0, 20)
        assert spectra._edge_tail(points, values, right=True) == 0.0
        assert spectra._edge_tail(points, values[::-1], right=False) == 0.0

    def test_edge_tail_of_a_non_decaying_edge_is_a_rectangle(self):
        # no 1/omega^2 decay to extrapolate: the edge value times the span
        # of the last k = 8 intervals
        points = np.arange(20.0)
        values = np.linspace(1.0, 3.0, 20)
        assert spectra._edge_tail(points, values, right=True) == 3.0 * 8.0
        assert spectra._edge_tail(points, values[::-1], right=False) == 3.0 * 8.0

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

    @pytest.mark.parametrize(
        "points",
        [[], [1.0], np.linspace(50.0, -50.0, 2001), np.append(np.linspace(-50.0, 50.0, 2001), math.inf)],
        ids=["empty", "one-point", "decreasing", "non-finite"],
    )
    def test_bare_points_are_checked_as_a_grid(self, points):
        # the decreasing points carry a line of n = 1.07, which the trapezoid
        # would integrate to -2.05
        points = np.array(points)
        values = 2.0 * (2.0 * 1.07 + 1.0) / 0.5 * 0.25 / (points**2 + 0.25)
        with pytest.raises(ValueError, match="at least 4 points|strictly increasing|finite"):
            integrate_occupation(points, values)
        if points.size > 1 and np.isfinite(points).all():  # the same line on increasing points
            assert integrate_occupation(points[::-1], values[::-1])[0] == pytest.approx(1.07, rel=1e-5)


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
        assert x.flags.writeable  # the points are checked as a grid's, not frozen

    @pytest.mark.parametrize(
        "points",
        [[], [1.0], np.arange(5.0, -5.001, -0.25), np.append(np.arange(-5.0, 5.001, 0.25), math.inf)],
        ids=["empty", "one-point", "decreasing", "non-finite"],
    )
    def test_bare_points_are_checked_as_a_grid(self, points):
        # a FWHM 0.1 line on a 0.25 grid: increasing, the grid does not resolve
        # it; decreasing, the spacing test would read a negative spacing
        points = np.array(points)
        values = 0.05**2 / (points**2 + 0.05**2)
        with pytest.raises(ValueError, match="at least 4 points|strictly increasing|finite"):
            fit_lorentzian(points, values, (-5.0, 5.0))
        if points.size > 1 and np.isfinite(points).all():
            with pytest.raises(FitFailureError, match="below the grid spacing"):
                fit_lorentzian(points[::-1], values[::-1], (-5.0, 5.0))

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

    def test_fewer_than_8_points_rejected(self):
        x = np.linspace(-5.0, 5.0, 1001)
        y = 1.0 / (x**2 + 1.0)
        with pytest.raises(FitFailureError, match="fewer than 8"):
            fit_lorentzian(x, y, (-0.03, 0.03))

    def test_edge_maximum_is_no_interior_peak(self):
        x = np.linspace(0.0, 10.0, 200)
        with pytest.raises(FitFailureError, match="no interior peak"):
            fit_lorentzian(x, 1.0 / ((x - 12.0) ** 2 + 1.0), (0.0, 10.0))

    def test_line_without_a_half_maximum_on_one_side(self):
        # the window stops above half maximum left of the peak, so the
        # start width is a quarter of the window; the fit still converges
        x = np.linspace(0.0, 10.0, 1001)
        y = 3.0 * 4.0 / ((x - 1.0) ** 2 + 4.0)  # FWHM 4, centered at 1
        assert y[:100].min() > (y.max() + y.min()) / 2.0
        fit = fit_lorentzian(x, y, (0.0, 10.0))
        assert fit.center == pytest.approx(1.0, rel=1e-6)
        assert fit.fwhm == pytest.approx(4.0, rel=1e-6)

    def test_flat_rejected(self):
        x = np.linspace(0.0, 10.0, 100)
        with pytest.raises(FitFailureError):
            fit_lorentzian(x, np.ones_like(x), (0.0, 10.0))

    def test_non_lorentzian_rejected(self):
        x = np.linspace(-5.0, 5.0, 1001)
        y = np.exp(-(x**2) / 0.5)  # Gaussian deviates > 5% from any Lorentzian
        with pytest.raises(FitFailureError):
            fit_lorentzian(x, y, (-5.0, 5.0))


    def test_width_is_the_drift_eigenvalue_width(self):
        # a single line is the quasi-normal mode of one drift eigenvalue,
        # whose FWHM is -2 Re lam
        checked = 0
        for spec in _criterion_7_draws(50):
            participation, width = _mode_a_line(build_full_system(spec))
            if abs(participation - 1.0) > 1e-2:
                continue
            assert _fit_mode_a(spec).fwhm == pytest.approx(width, rel=1e-4)
            checked += 1
        assert checked >= 40

    # narrow lines of split modes: fitted in absolute omega, with a numeric
    # Jacobian, the first came out 3.4e-3 wide of -2 Re lam and the second
    # ran out of 2000 evaluations
    NARROW_SPLIT = [
        dict(omega_hz=9.32e6, gamma_a_hz=0.0104, gamma_b_hz=3.64, c_ab=34.5,
             c_om=1.59, delta_b_hz=-33.8, temperature=44.8),
        dict(omega_hz=2.27e6, gamma_a_hz=0.0102, gamma_b_hz=2.99, c_ab=29.0,
             c_om=2.72, delta_b_hz=-25.3, temperature=22.2),
    ]

    @pytest.mark.parametrize("kw", NARROW_SPLIT)
    def test_narrow_split_line_converges_to_the_eigenvalue_width(self, kw, monkeypatch):
        monkeypatch.setattr(spectra, "MAX_FIT_EVALUATIONS", 20)
        spec = make_spec(**kw)
        participation, width = _mode_a_line(build_full_system(spec))
        assert participation == pytest.approx(1.0, abs=1e-2)
        assert _fit_mode_a(spec).fwhm == pytest.approx(width, rel=1e-4)

    def test_unconverged_fit_raises(self, monkeypatch):
        monkeypatch.setattr(spectra, "MAX_FIT_EVALUATIONS", 1)
        x = np.linspace(-5.0, 5.0, 1001)
        y = 0.25 / (x**2 + 0.25) + 0.01
        with pytest.raises(FitFailureError, match="did not converge"):
            fit_lorentzian(x, y, (-5.0, 5.0))

    def test_shape_mismatch_is_a_value_error(self):
        x = np.linspace(-5.0, 5.0, 1001)
        with pytest.raises(ValueError, match="matching shapes"):
            fit_lorentzian(x, 0.25 / (x[1:] ** 2 + 0.25), (-5.0, 5.0))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_value_in_window_rejected(self, bad):
        x = np.linspace(-5.0, 5.0, 1001)
        y = 0.25 / (x**2 + 0.25) + 0.01
        y[700] = bad
        with pytest.raises(FitFailureError, match="non-finite"):
            fit_lorentzian(x, y, (-5.0, 5.0))
        # outside the window it is not read
        assert fit_lorentzian(x, y, (-5.0, 1.0)).fwhm == pytest.approx(1.0, rel=1e-9)

    @pytest.mark.parametrize("baseline", [0.0, 0.1])
    def test_line_the_grid_does_not_resolve_raises(self, baseline):
        # a peak one grid point wide converges to a FWHM of about 1e-9 to
        # 1e-8, far below the 0.02 spacing
        x = np.linspace(-1.0, 1.0, 101)
        y = np.full_like(x, baseline)
        y[50] += 1.0
        with pytest.raises(FitFailureError, match="below the grid spacing"):
            fit_lorentzian(x, y, (-1.0, 1.0))


class TestLevenbergMarquardt:
    def test_non_finite_trial_steps_are_rejected(self):
        # atan(x) from x = 2: the first steps overshoot past |x| = 3, where
        # the residual is infinite, and each such trial raises the damping
        # until a step lands inside; from there it converges to 0
        trials = []

        def fun(x):
            trials.append(float(x[0]))
            return np.where(np.abs(x) > 3.0, np.inf, np.arctan(x))

        x = spectra._levenberg_marquardt(
            fun, lambda x: (1.0 / (1.0 + x**2))[:, None], np.array([2.0]), 100
        )
        assert sum(abs(t) > 3.0 for t in trials) == 4
        assert abs(x[0]) < 1e-25
        assert len(trials) == 16


class TestFitMatchesScipy:
    """The numpy peak test and least-squares fit against the scipy calls
    they replace."""

    @settings(max_examples=300, deadline=None)
    @given(
        steps=st.lists(st.sampled_from([-2, -1, 0, 0, 0, 1, 2]), min_size=3, max_size=80),
        level=st.sampled_from([0.0, 0.05, 0.3, 1.0]),
    )
    @example(steps=[0, 1, 0, 0, -1], level=0.0)  # a top three samples wide
    @example(steps=[0, 1, 0, 0, 0, -1], level=0.0)  # four wide: the left middle
    def test_peaks_on_arrays_with_plateaus(self, steps, level):
        # zero steps make flat runs, at maxima and minima and at the ends
        y = np.cumsum(steps).astype(float)
        prominence = level * float(y.max() - y.min())
        assert np.array_equal(_peaks(y, prominence), find_peaks(y, prominence=prominence)[0])

    @pytest.mark.parametrize("builder", [build_rwa_system, build_full_system])
    def test_peaks_on_spectrum_windows(self, builder):
        for spec in _criterion_7_draws(40):
            summary = cooling_summary(spec)
            res = position_spectrum(builder(spec), "a")
            for lws in (8, 30, 200):
                half = lws * summary.linewidth_a
                inside = np.abs(res.grid.points - summary.omega_a_pulled) <= half
                y = res.values[inside]
                prominence = 0.05 * float(y.max() - y.min())
                assert np.array_equal(
                    _peaks(y, prominence), find_peaks(y, prominence=prominence)[0]
                )

    def test_fits_of_the_operating_point_windows(self, monkeypatch):
        # every window the benchmark's operating-point workload fits, for
        # seeds 501-504: the same problem solved by least_squares
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
        import workloads

        solve = spectra._levenberg_marquardt
        gaps = []

        def both(fun, jac, x0, budget):
            params = solve(fun, jac, x0, budget)
            ref = least_squares(
                fun, x0, jac=jac, xtol=1e-9, ftol=1e-15, gtol=None, x_scale="jac",
                max_nfev=budget,
            )
            assert ref.status > 0
            fwhm = abs(ref.x[1])
            gaps.append((abs(params[0] - ref.x[0]) / fwhm, abs(abs(params[1]) - fwhm) / fwhm))
            return params

        monkeypatch.setattr(spectra, "_levenberg_marquardt", both)
        for seed in (501, 502, 503, 504):
            for spec in workloads.OperatingPoint(bathcool, seed, None).specs:
                summary = cooling_summary(spec)
                res = position_spectrum(build_full_system(spec), "a")
                half = 8.0 * summary.linewidth_a
                center = summary.omega_a_pulled
                fit_lorentzian(res.grid, res.values, (center - half, center + half))
        assert len(gaps) == 4 * workloads.OperatingPoint.N_CONFIGS
        assert np.max(gaps) <= 1e-6


def _mode_a_line(model):
    """``(participation, FWHM)`` of the drift eigenvalue carrying mode a's
    positive-frequency line: the largest |V_ak (V^-1)_ka| with Im lam_k < 0."""
    lam, v = np.linalg.eig(model.drift)
    ia = model.index("a")
    part = np.where(lam.imag < 0, np.abs(v[ia] * np.linalg.inv(v)[:, ia]), -np.inf)
    k = int(np.argmax(part))
    return float(part[k]), float(-2.0 * lam[k].real)


def _fit_mode_a(spec):
    """Line fit of the full mode-a spectrum, 8 closed-form linewidths each
    side of the pulled line."""
    summary = cooling_summary(spec)
    res = position_spectrum(build_full_system(spec), "a")
    half = 8.0 * summary.linewidth_a
    center = summary.omega_a_pulled
    return fit_lorentzian(res.grid, res.values, (center - half, center + half))


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

    def test_undamped_mode_a_cannot_normalize(self):
        spec = make_spec(c_ab=0.0)
        spec = replace(spec, mode_a=replace(spec.mode_a, gamma=0.0))
        with pytest.raises(ValueError, match="gamma_a must be > 0"):
            force_spectrum_numeric(build_rwa_system(spec), spec)

    @pytest.mark.parametrize("builder", [build_rwa_system, build_full_system])
    @pytest.mark.parametrize("field", ["mass", "gamma_a"])
    def test_an_underflowing_baseline_is_a_numerics_error(self, builder, field):
        # hbar*m*omega_a*gamma_a*(2 nbar_a + 1)/2 underflows to 0 at 1e-300:
        # the factor would be inf or NaN, with a numpy warning
        spec = make_spec(c_ab=50.0, c_om=5.0, **{"mass" if field == "mass" else "gamma_a_hz": 1e-300})
        if field == "gamma_a":  # keep lambda, so mode a stays coupled to b
            spec = replace(spec, coupling=make_spec(c_ab=50.0).coupling)
        baseline = r"force baseline hbar\*m\*omega_a\*gamma_a.* = 0 is not positive"
        with pytest.raises(NumericsError, match=baseline):
            force_spectrum_numeric(builder(spec), spec)

    def test_mass_required(self):
        spec = make_spec()
        spec = SystemSpec(
            mode_a=spec.mode_a, mode_b=spec.mode_b, cavity=spec.cavity,
            coupling=spec.coupling, mass_a=None,
        )
        with pytest.raises(ValueError):
            force_spectrum_numeric(build_rwa_system(spec), spec)
