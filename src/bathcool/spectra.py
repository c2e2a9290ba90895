"""Exact frequency-domain solution of a linear Langevin DriftModel.

Every model is solved in its conjugate-paired basis
(:meth:`DriftModel.paired`).  Builds adaptive frequency grids around
every resonance of the drift matrix, solves for the needed rows of the
susceptibility (-i*omega*I - A)^-1 in batch, propagates the thermal
input correlators into position fluctuation spectra S_xx(omega),
integrates occupations, fits Lorentzian lines, and evaluates the
fluctuating-force density seen by a selected mode.  The exact stationary
occupation comes from the steady-state covariance instead, one Lyapunov
solve with no grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_continuous_lyapunov
from scipy.optimize import least_squares
from scipy.signal import find_peaks

from .constants import HBAR
from .errors import (
    CoverageError,
    FitFailureError,
    NumericsError,
    UnstableSystemError,
)
from .model import (
    DriftModel,
    SystemSpec,
    effective_temperature,
    stability_eigenvalues,
)

__all__ = [
    "FrequencyGrid",
    "SpectrumResult",
    "LorentzFit",
    "ForceSpectrumResult",
    "make_grid",
    "susceptibility_matrix",
    "position_spectrum",
    "steady_state_occupation",
    "integrate_occupation",
    "fit_lorentzian",
    "force_spectrum_numeric",
]

RESIDUAL_TOL = 1e-10
DEFAULT_SPAN = 50.0            # linewidths covered on each side of a resonance
DEFAULT_POINTS_PER_LW = 20.0   # dense sampling within +-5 linewidths
DEFAULT_LOG_POINTS = 160       # log-spaced fill per side from 5 to `span` linewidths

# numpy < 2 names the trapezoidal rule ``trapz``
_trapezoid = getattr(np, "trapezoid", None) or np.trapz


@dataclass(frozen=True)
class FrequencyGrid:
    """Sorted angular-frequency grid with its densification anchors.

    ``clusters`` records (center, linewidth) pairs for every resonance the
    grid was built around.
    """

    points: np.ndarray
    clusters: tuple

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)
        if pts.ndim != 1 or pts.size < 4:
            raise ValueError("grid needs at least 4 points")
        if not np.all(np.diff(pts) > 0):
            raise ValueError("grid points must be strictly increasing")

    def halved(self) -> "FrequencyGrid":
        """Every other point (endpoints kept); used for refinement checks."""
        idx = _every_other(self.points.size)
        return FrequencyGrid(points=self.points[idx], clusters=self.clusters)


def _every_other(n: int) -> np.ndarray:
    """Indices 0, 2, 4, ... of ``n`` points, with the last one always kept."""
    idx = np.arange(0, n, 2)
    return idx if idx[-1] == n - 1 else np.append(idx, n - 1)


@dataclass(frozen=True)
class LorentzFit:
    center: float
    fwhm: float
    area: float


@dataclass(frozen=True)
class SpectrumResult:
    """Position fluctuation spectrum of one mode plus derived quantities."""

    grid: FrequencyGrid
    values: np.ndarray
    n_eff: float
    n_eff_error: float
    T_eff: float
    select: str
    fit: LorentzFit | None = None


@dataclass(frozen=True)
class ForceSpectrumResult:
    """Fluctuating-force density on the selected mode.

    ``factor`` is s_ff normalized to the bare-oscillator value
    (hbar*m*omega_a/2) * gamma_a * (2*nbar_a + 1), so it reproduces the
    closed-form bracket 1 + C_ab/(1 + C_OM)^2 in the narrowband limit.
    """

    grid: FrequencyGrid
    s_ff: np.ndarray
    factor: np.ndarray


def _require_stable(model: DriftModel):
    eigs = stability_eigenvalues(model)
    bad = eigs[eigs.real >= 0]
    if bad.size:
        raise UnstableSystemError(
            "drift matrix has non-negative-real-part eigenvalue(s): "
            + ", ".join(f"{z:.6g}" for z in bad)
        )
    return eigs


def make_grid(
    model: DriftModel,
    span_linewidths: float = DEFAULT_SPAN,
    points_per_linewidth: float = DEFAULT_POINTS_PER_LW,
    log_points: int = DEFAULT_LOG_POINTS,
) -> FrequencyGrid:
    """Adaptive grid covering every resonance of the paired drift matrix.

    Each eigenvalue of ``model.paired()`` contributes a cluster at its
    resonance frequency: linear sampling (``points_per_linewidth`` per
    linewidth) within +-5 linewidths, log-spaced fill out to
    ``span_linewidths``.  The conjugate eigenvalues give the
    negative-frequency clusters.  Degenerate resonances share one center
    (:func:`_clusters`), so the grid does not depend on the last bits of
    the eigensolve.  Refuses unstable models.
    """
    if span_linewidths < 5:
        raise ValueError("span_linewidths must be >= 5")
    clusters = _clusters(_require_stable(model.paired()))

    # every cluster's log fill runs out to the global grid extent, so a
    # narrow line's power-law tail is never left to another cluster's
    # coarse sampling
    lo = min(c - span_linewidths * w for c, w in clusters)
    hi = max(c + span_linewidths * w for c, w in clusters)
    pieces = []
    n_dense = int(round(10 * points_per_linewidth)) + 1
    for center, width in clusters:
        # offsets from the center, so clusters sharing a center share it bitwise
        dense = center + width * np.linspace(-5.0, 5.0, n_dense)
        right = max(hi - center, span_linewidths * width)
        left = max(center - lo, span_linewidths * width)
        tail_r = np.geomspace(5 * width, right, log_points + 1)[1:]
        tail_l = np.geomspace(5 * width, left, log_points + 1)[1:]
        pieces.extend([dense, center + tail_r, center - tail_l])
    points = np.unique(np.concatenate(pieces))
    return FrequencyGrid(points=points, clusters=tuple(clusters))


def _clusters(eigs: np.ndarray) -> list:
    """(center, linewidth) of every eigenvalue, degenerate ones merged.

    A center within ``tol`` of an earlier one takes that center's value,
    and a cluster whose width is also within ``tol`` is dropped.  ``tol``
    is 1e-9 of the width or 1e-12 of the largest |eigenvalue|, whichever
    is larger: the eigensolve places degenerate eigenvalues a few ulps of
    the largest one apart, which can exceed 1e-9 of a narrow line.
    """
    floor = 1e-12 * float(np.max(np.abs(eigs)))
    clusters = []
    for eig in eigs:
        center, width = -eig.imag, -2.0 * eig.real
        tol = max(1e-9 * width, floor)
        same = [c for c in clusters if abs(c[0] - center) <= tol]
        if same:
            center = same[0][0]
            if any(abs(w - width) <= tol for _, w in same):
                continue
        clusters.append((center, width))
    return clusters


def _solve_rows(model: DriftModel, omegas: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Rows ``rows @ chi(omega)`` of the susceptibility, shape (n, k, d).

    Solves T^T y = u with T = -i*omega*I - A for each of the k rows u of
    ``rows`` at every omega.  A row whose relative residual
    ||T^T y - u|| / (||T|| ||y||) exceeds RESIDUAL_TOL gets one
    refinement step; NumericsError if it still does.
    """
    a = model.drift
    d = model.dimension
    tt = np.empty((omegas.size, d, d), dtype=complex)
    tt[:] = -a.T
    diag = np.arange(d)
    tt[:, diag, diag] -= 1j * omegas[:, None]
    u = np.asarray(rows, dtype=complex).T
    u = np.broadcast_to(u, (omegas.size,) + u.shape)
    try:
        y = np.linalg.solve(tt, u)
    except np.linalg.LinAlgError as exc:
        eigs = np.linalg.eigvals(a)
        worst = min(
            (min(abs(-1j * w - eigs)), w) for w in np.atleast_1d(omegas)
        )
        raise NumericsError(
            f"singular susceptibility near omega={worst[1]:.6g} rad/s "
            f"(drift eigenvalue within {worst[0]:.3g} of the pole)"
        ) from exc

    t_norm = np.linalg.norm(tt, axis=(1, 2))[:, None]

    def residual(sel):
        """T^T y - u and the worst relative residual per omega, on ``sel``."""
        r = tt[sel] @ y[sel] - u[sel]
        rel = np.linalg.norm(r, axis=1) / (t_norm[sel] * np.linalg.norm(y[sel], axis=1))
        return r, rel.max(axis=1)

    resid, rel = residual(slice(None))
    bad = rel > RESIDUAL_TOL
    if np.any(bad):
        y[bad] -= np.linalg.solve(tt[bad], resid[bad])
        _, rel_bad = residual(bad)
        if np.any(rel_bad > RESIDUAL_TOL):
            i = int(np.argmax(rel_bad))
            raise NumericsError(
                "susceptibility residual "
                f"{rel_bad[i]:.3g} exceeds {RESIDUAL_TOL} at "
                f"omega={omegas[np.flatnonzero(bad)[i]]:.6g} rad/s"
            )
    return y.transpose(0, 2, 1)


def _chi_batch(model: DriftModel, omegas: np.ndarray) -> np.ndarray:
    """(-i*omega*I - A)^-1 for every omega, with residual guarantee."""
    return _solve_rows(model, omegas, np.eye(model.dimension))


def susceptibility_matrix(
    model: DriftModel, omega: float, allow_unstable: bool = False
) -> np.ndarray:
    """Dense susceptibility (-i*omega*I - A)^-1 at a single frequency.

    Refuses unstable models unless ``allow_unstable`` (diagnostic use).
    """
    if not allow_unstable:
        _require_stable(model)
    return _chi_batch(model, np.atleast_1d(float(omega)))[0]


def position_spectrum(
    model: DriftModel, select: str, grid: FrequencyGrid | None = None
) -> SpectrumResult:
    """Position fluctuation spectrum S_xx(omega) for x = a + a_dag.

    In the conjugate-paired basis of ``model.paired()`` the quadrature is
    the single susceptibility row u = e_select + e_select_dag, so
    S_xx = |u chi B|^2 . <xi xi^dag>, which covers both +-omega
    resonances.  Refuses unstable models.
    """
    if select not in model.labels:
        raise ValueError(f"unknown mode label {select!r}; have {model.labels}")
    if grid is None:
        grid = make_grid(model)
    else:
        _require_stable(model)
    paired = model.paired()
    u = _quadrature(paired, select)[None, :]
    w = _solve_rows(paired, grid.points, u)[:, 0, :] @ paired.noise_input
    values = np.abs(w) ** 2 @ paired.input_correlations[0]

    vmax = float(values.max())
    neg = values < 0
    if np.any(values < -1e-12 * vmax):
        raise NumericsError("spectrum has negative values beyond roundoff level")
    n_neg = int(np.count_nonzero(neg))
    if n_neg > 1e-4 * values.size:
        raise NumericsError(
            f"{n_neg} of {values.size} spectral points negative before clipping"
        )
    values = np.where(neg, 0.0, values)

    n_eff, err = integrate_occupation(grid, values)
    if n_eff < 0:
        if n_eff < -1e-3:
            raise NumericsError(f"integrated occupation {n_eff:.4g} < 0")
        n_eff = 0.0
    omega_sel = -model.drift[model.index(select), model.index(select)].imag
    t_eff = effective_temperature(n_eff, abs(omega_sel))
    return SpectrumResult(
        grid=grid,
        values=values,
        n_eff=n_eff,
        n_eff_error=err,
        T_eff=t_eff,
        select=select,
    )


def _quadrature(paired: DriftModel, select: str) -> np.ndarray:
    """The row u = e_select + e_select_dag that reads x = select + select_dag."""
    u = np.zeros(paired.dimension)
    u[[paired.index(select), paired.index(select + "_dag")]] = 1.0
    return u


def steady_state_occupation(model: DriftModel, select: str) -> float:
    """Exact stationary occupation (u Sigma u^T - 1) / 2 of mode ``select``.

    Sigma = <v v^dag> solves A Sigma + Sigma A^dag + Q = 0 with
    Q = B diag(<xi xi^dag>) B^T in the basis of ``model.paired()``, and
    u = e_select + e_select_dag, so u Sigma u^T = <x^2> is the integral
    (1/2pi) int S_xx dw that :func:`position_spectrum` approximates by
    quadrature.  Refuses unstable models; NumericsError when the relative
    residual ||A Sigma + Sigma A^dag + Q|| / (2 ||A|| ||Sigma|| + ||Q||)
    exceeds RESIDUAL_TOL.
    """
    if select not in model.labels:
        raise ValueError(f"unknown mode label {select!r}; have {model.labels}")
    _require_stable(model)
    paired = model.paired()
    a, b = paired.drift, paired.noise_input
    q = (b * paired.input_correlations[0]) @ b.T
    sigma = solve_continuous_lyapunov(a, -q)
    resid = np.linalg.norm(a @ sigma + sigma @ a.conj().T + q) / (
        2.0 * np.linalg.norm(a) * np.linalg.norm(sigma) + np.linalg.norm(q)
    )
    if not resid <= RESIDUAL_TOL:
        raise NumericsError(
            f"Lyapunov residual {resid:.3g} exceeds {RESIDUAL_TOL}"
        )
    u = _quadrature(paired, select)
    x2 = float((u @ sigma @ u).real)
    n_eff = (x2 - 1.0) / 2.0
    if n_eff < 0:
        # the vacuum floor <x^2> = 1 up to roundoff
        if n_eff < -1e-9 * x2:
            raise NumericsError(f"steady-state occupation {n_eff:.4g} < 0")
        n_eff = 0.0
    return n_eff


def _edge_tail(points: np.ndarray, values: np.ndarray, right: bool) -> float:
    """Estimate the integral beyond one grid edge assuming 1/omega^2 decay."""
    k = min(8, points.size - 2)
    if right:
        w1, w2 = points[-1 - k], points[-1]
        s1, s2 = values[-1 - k], values[-1]
    else:
        w1, w2 = points[k], points[0]
        s1, s2 = values[k], values[0]
    if s2 <= 0:
        return 0.0
    if s1 <= s2:
        # not decaying at the edge; fall back to a crude rectangle bound
        return float(s2 * abs(w2 - w1))
    r = math.sqrt(s1 / s2)
    x0 = (r * w1 - w2) / (r - 1.0)
    d = abs(w2 - x0)
    return float(s2 * d)


def integrate_occupation(grid: FrequencyGrid | np.ndarray, values: np.ndarray) -> tuple:
    """Occupation from the integrated spectrum: (1/2pi) int S dw / 2 - 1/2.

    Trapezoidal quadrature on the adaptive grid with an analytic
    Lorentzian-tail correction beyond the grid edges.  Returns
    ``(n_eff, relative_error_estimate)``; raises CoverageError when the
    raw tail estimate exceeds 1% of the integral.
    """
    points = grid.points if isinstance(grid, FrequencyGrid) else np.asarray(grid)
    values = np.asarray(values, dtype=float)
    if points.shape != values.shape:
        raise ValueError("grid and values must have matching shapes")

    raw = float(_trapezoid(values, points))
    idx = _every_other(points.size)
    coarse = float(_trapezoid(values[idx], points[idx]))
    err_quad = abs(raw - coarse) / 3.0

    tail = _edge_tail(points, values, right=False) + _edge_tail(
        points, values, right=True
    )
    ref = max(abs(raw), 1e-300)
    if tail > 0.01 * ref:
        raise CoverageError(
            f"spectrum tails carry {tail / ref:.2%} of the integral; "
            "widen the grid span (>= 50 linewidths per resonance required)"
        )
    total = raw + tail
    n_eff = total / (2.0 * math.pi) / 2.0 - 0.5
    rel_err = (err_quad + 0.05 * tail) / max(abs(total), 1e-300)
    return n_eff, rel_err


def _lorentz(params, omega):
    center, fwhm, amp, base = params
    hw = fwhm / 2.0
    return amp * hw**2 / ((omega - center) ** 2 + hw**2) + base


def fit_lorentzian(
    grid: FrequencyGrid | np.ndarray, values: np.ndarray, window: tuple
) -> LorentzFit:
    """Nonlinear least-squares Lorentzian fit inside ``window = (lo, hi)``.

    The window must contain exactly one local maximum; initialization uses
    the peak location and half-maximum crossings.  Fails when no peak is
    present, several peaks overlap, or the residual exceeds 5% of the
    peak.
    """
    points = grid.points if isinstance(grid, FrequencyGrid) else np.asarray(grid)
    lo, hi = window
    mask = (points >= lo) & (points <= hi)
    x = points[mask]
    y = np.asarray(values, dtype=float)[mask]
    if x.size < 8:
        raise FitFailureError("window contains fewer than 8 grid points")

    span = float(y.max() - y.min())
    if span <= 0:
        raise FitFailureError("no peak in window (flat spectrum)")
    peaks, _ = find_peaks(y, prominence=0.05 * span)
    if peaks.size == 0:
        raise FitFailureError("no interior peak in window")
    if peaks.size > 1:
        raise FitFailureError(f"{peaks.size} peaks in window; need exactly one")

    ipk = int(peaks[0])
    base0 = float(y.min())
    amp0 = float(y[ipk] - base0)
    half = base0 + amp0 / 2.0
    left = np.flatnonzero(y[:ipk] < half)
    right = np.flatnonzero(y[ipk:] < half)
    if left.size and right.size:
        w0 = x[ipk + right[0]] - x[left[-1]]
    else:
        w0 = (x[-1] - x[0]) / 4.0
    x0 = np.array([x[ipk], w0, amp0, base0])

    res = least_squares(
        lambda p: _lorentz(p, x) - y,
        x0,
        xtol=1e-9,
        ftol=1e-15,
        gtol=None,
        x_scale="jac",
        max_nfev=2000,
    )
    center, fwhm, amp, base = res.x
    fwhm = abs(fwhm)
    resid = np.max(np.abs(_lorentz(res.x, x) - y))
    if resid > 0.05 * (amp + abs(base)):
        raise FitFailureError(
            f"fit residual {resid:.3g} exceeds 5% of peak {amp:.3g}"
        )
    return LorentzFit(center=float(center), fwhm=float(fwhm), area=float(amp * math.pi * fwhm / 2.0))


def force_spectrum_numeric(
    model: DriftModel, spec: SystemSpec, grid: FrequencyGrid | None = None
) -> ForceSpectrumResult:
    """Fluctuating-force density on mode a from the exact susceptibility.

    The per-channel force coefficients are extracted by deconvolving the
    exact mode-a response with its own a_in transfer (which enters the
    Langevin equation unfiltered with amplitude sqrt(gamma_a)); each
    channel then contributes with the symmetrized weight 2*nbar + 1.  At
    omega = omega_a the narrowband closed form is recovered.
    """
    if spec.mass_a is None:
        raise ValueError("spec.mass_a must be set for force noise")
    ga = spec.mode_a.gamma
    if not ga > 0:
        raise ValueError("gamma_a must be > 0 to normalize the force transfer")
    if grid is None:
        grid = make_grid(model)
    else:
        _require_stable(model)

    paired = model.paired()
    ia = paired.index("a")
    u = np.eye(paired.dimension)[[ia]]
    resp = _solve_rows(paired, grid.points, u)[:, 0, :] @ paired.noise_input
    chi_eff = resp[:, ia] / math.sqrt(ga)
    f = resp / chi_eff[:, None]  # f[:, a_in] = sqrt(gamma_a) exactly
    weights = paired.input_correlations.sum(axis=0)  # 2*nbar + 1 per channel
    prefactor = HBAR * spec.mass_a * spec.mode_a.omega / 2.0
    s_ff = prefactor * (np.abs(f) ** 2 @ weights)
    baseline = prefactor * ga * weights[ia]
    return ForceSpectrumResult(grid=grid, s_ff=s_ff, factor=s_ff / baseline)
