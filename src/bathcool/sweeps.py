"""Parameter sweeps over cooperativity and mode detuning, and optimum finding.

The optomechanical cooperativity C_OM = Gamma/gamma_b is swept by
setting G = |alpha|*g0 = sqrt(Gamma*kappa)/2 at fixed kappa (the
experimental pump-power knob), at either closed-form ("rwa") or
six-component ("full") fidelity.  A full-fidelity n_eff is the
steady-state covariance of the 6x6 drift A0 + G*A1, one batched solve
over the points, not a spectrum integral.  At a fixed C_OM a detuning
sweep is solved the same way, on the pencil A0' + omega_b*E in mode b's
frequency.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .analytics import (
    _UNDAMPED,
    _induced_damping,
    _n_eff_columns,
    _regime_flags_column,
    cooperativity_ab,
    induced_damping_detuned,
    optimal_cooperativity,
)
from .errors import BathcoolError, PhysicsError, UnstableSystemError
from .model import DriftModel, SystemSpec, _conjugate_swap, _effective_temperatures, _omega_b_pencil, _pencil
from .spectra import _occupations, _Occupations, _prepare_noise, fit_lorentzian, position_spectrum

__all__ = ["SweepResult", "sweep_cooperativity", "find_optimum", "sweep_detuning"]

DEFAULT_POINTS_PER_DECADE = 60
DEFAULT_RANGE = (1e-2, 1e3)
# find_optimum's coarse scan size and its stopping step in log C_OM
_COARSE_POINTS = 25
_REL_TOL = 1e-6


@dataclass(frozen=True)
class SweepResult:
    """Per-point results of a one-dimensional sweep.

    ``errors`` holds None for successful points and the error message for
    points that failed (e.g. instability); failed points carry NaN in the
    numeric columns.  ``linewidths`` holds mode a's closed-form linewidth
    gamma_a + Gamma_a for an rwa sweep and a full :func:`sweep_detuning`,
    and for a full :func:`sweep_cooperativity` the fitted FWHM with
    ``fit_lines``, NaN without.
    """

    axis_name: str
    axis_values: np.ndarray
    n_eff: np.ndarray
    T_ratio: np.ndarray
    linewidths: np.ndarray
    validity_flags: tuple
    errors: tuple

    def __post_init__(self):
        n = len(self.axis_values)
        for name in ("n_eff", "T_ratio", "linewidths", "validity_flags", "errors"):
            if len(getattr(self, name)) != n:
                raise ValueError(f"{name} length mismatch")


def _fidelity(fidelity: str) -> str:
    """``fidelity``, unless it is neither "rwa" nor "full" (ValueError)."""
    if fidelity not in ("rwa", "full"):
        raise ValueError(f"fidelity must be 'rwa' or 'full', got {fidelity!r}")
    return fidelity


def _closed_form(columns):
    """``(gammas, slopes=False) -> _Occupations`` of :func:`_n_eff_columns`' ``columns``."""

    def closed_form(gammas, slopes=False):
        gammas = np.asarray(gammas, dtype=float)
        n, slope = columns(gammas, slopes)
        errors = {i: UnstableSystemError(_UNDAMPED) for i in np.flatnonzero(np.isnan(n)).tolist()}
        return _Occupations(n, gammas * slope if slopes else None, errors)  # d/dlog Gamma

    return closed_form


def _n_effs(spec: SystemSpec, fidelity: str):
    """``(gammas, slopes=False) -> _Occupations``: n_eff of mode a at every
    damping of the column ``gammas``.

    At full fidelity the pencil of ``spec`` is built once, here, and must be
    conjugate-paired (ValueError).  All of the covariance solve that G
    does not move (the folded A0 and A1, the folded Q, its floor and
    norm, the drift's norms and the certificate's rounding coefficients)
    is prepared once here too, and the pencil's modal form on its first
    call of _MODAL_POINTS points or more (:func:`_occupations`).  So
    every call is one batched steady-state covariance solve of the drifts
    A0 + G*A1, whose folded operators are G*L1 + L0, at
    G = |alpha|*g0 = sqrt(Gamma*kappa)/2, the drive that damps mode b at
    rate Gamma: by LU for find_optimum's 25-point scan and secant steps,
    by the modal form for a 301-point sweep, then one pass through the
    gates for either.  With ``slopes`` the record's slope is
    dn_eff/dlog Gamma, from the Lyapunov sensitivity or the derivative of
    the closed form; without, no derivative is computed.

    The public sweeps and the optimum search run with numpy's overflow and
    invalid warnings off: past C_OM ~ 1e200 G, its slope factor and the
    closed forms overflow, and where G overflows the drift holds inf * 0.
    Every such point is already a recorded error (:func:`_occupations`
    gates on finite values, and switches the warnings off for its own
    norms, which an unstable point's Sigma can overflow).  The warnings
    are switched off once per sweep or search, not per call here: a
    secant step's call takes about 0.1 ms and each switch 1.5-3 us.
    """
    if _fidelity(fidelity) == "rwa":
        return _closed_form(_n_eff_columns(spec, spec.mode_b.omega))
    a0, a1, b, corr, labels = _pencil(spec, rotating_wave=False)
    pencil = _prepare_noise(a0, a1, b, corr[0], _conjugate_swap(labels, a0, a1))
    row, kappa = labels.index("a"), spec.cavity.kappa

    def covariance(gammas, slopes=False):
        g = np.sqrt(np.asarray(gammas, dtype=float) * kappa) / 2.0
        occupation = _occupations(pencil, g, row, slopes)
        if slopes:  # d/dlog Gamma = (G/2) d/dG, in place: the record's slope column is its own
            np.multiply(occupation.slope, g / 2.0, out=occupation.slope)
        return occupation

    return covariance


def _sweep(
    spec: SystemSpec, axis_name: str, values, n_eff, errors, gammas, omega_b, linewidths=None
) -> SweepResult:
    """A sweep's columns from the occupations ``n_eff`` and the point
    ``errors`` by index at the dampings ``gammas``, mode b at ``omega_b``
    (floats or arrays like ``values``).  A failed point records its
    message and NaNs; T_ratio, the flags and, unless given, the
    closed-form linewidths are computed at the other points only."""
    ok = np.ones(values.size, dtype=bool)
    ok[list(errors)] = False
    n_eff = np.where(ok, n_eff, math.nan)
    messages = [None] * values.size
    for i, e in errors.items():
        messages[i] = f"{e.kind}: {e}"
    gammas, omega_b = (np.broadcast_to(x, values.shape)[ok] for x in (gammas, omega_b))
    t_ratio = np.full(values.size, math.nan)
    if spec.mode_a.bath_temperature > 0:
        t_ratio[ok] = _effective_temperatures(n_eff[ok], spec.mode_a.omega)
        t_ratio /= spec.mode_a.bath_temperature
    if linewidths is None:
        linewidths = np.full(values.size, math.nan)
        gtot, delta = spec.mode_b.gamma + gammas, omega_b - spec.mode_a.omega
        linewidths[ok] = spec.mode_a.gamma + _induced_damping(spec.coupling, gtot, delta)
    flags = iter(_regime_flags_column(spec, gammas, omega_b))
    flags = tuple(next(flags) if k else None for k in ok.tolist())
    return SweepResult(axis_name, values, n_eff, t_ratio, linewidths, flags, tuple(messages))


@np.errstate(over="ignore", invalid="ignore")  # see _n_effs
def sweep_cooperativity(
    spec: SystemSpec,
    c_om_values,
    fidelity: str = "rwa",
    fit_lines: bool = False,
) -> SweepResult:
    """n_eff, T_eff/T and linewidth versus optomechanical cooperativity.

    For each C_OM the optical damping is set to Gamma = C_OM*gamma_b
    (G = |alpha|*g0 = sqrt(Gamma*kappa)/2; the drive of ``spec`` is not
    used).  Instability or fit failure at a point records a per-point
    error; the sweep continues.  A non-finite C_OM is a ValueError.
    """
    values = np.asarray(list(c_om_values), dtype=float)
    bad = values[~np.isfinite(values)]
    if bad.size:
        raise ValueError(f"C_OM values must be finite, got {float(bad[0])!r}")
    if values.size and np.any(np.diff(values) <= 0):
        raise ValueError("C_OM values must be sorted strictly increasing")
    if np.any(values < 0):
        raise ValueError("C_OM values must be >= 0")
    gammas = values * spec.mode_b.gamma
    occupation = _n_effs(spec, fidelity)(gammas)
    errors = dict(occupation.errors)
    if fidelity == "rwa":
        return _sweep(spec, "C_OM", values, occupation.n, errors, gammas, spec.mode_b.omega)
    # a full-fidelity linewidth comes only from a line fit, in a window of 8
    # closed-form linewidths around the mode-a line
    linewidths = np.full(values.size, math.nan)
    fit = [i for i in range(values.size) if fit_lines and i not in errors]
    if fit:
        a0, a1, *inputs = _pencil(spec, rotating_wave=False)
    wa, gb, delta = spec.mode_a.omega, spec.mode_b.gamma, spec.mode_b.omega - spec.mode_a.omega
    for i in fit:
        lw = spec.mode_a.gamma + induced_damping_detuned(spec.coupling, gb, gammas[i], delta)
        g = np.sqrt(gammas[i] * spec.cavity.kappa) / 2.0
        try:
            result = position_spectrum(DriftModel(6, a0 + g * a1, *inputs), "a")
            line = fit_lorentzian(result.grid, result.values, (wa - 8 * lw, wa + 8 * lw))
            linewidths[i] = line.fwhm
        except BathcoolError as exc:
            errors[i] = exc
    return _sweep(spec, "C_OM", values, occupation.n, errors, gammas, spec.mode_b.omega, linewidths)


def _bracket(bracket: tuple) -> tuple:
    """``(lo, hi)`` of a C_OM bracket, or ValueError unless 0 < lo < hi < inf."""
    lo, hi = bracket
    if not 0 < lo < hi < math.inf:
        raise ValueError(f"bracket must satisfy 0 < lo < hi < inf, got {bracket!r}")
    return lo, hi


@np.errstate(over="ignore", invalid="ignore")  # see _n_effs
def find_optimum(spec: SystemSpec, bracket: tuple = DEFAULT_RANGE, fidelity: str = "rwa") -> tuple:
    """Locate the n_eff minimum over C_OM as a stationary point in log C_OM.

    A scan of 25 log-spaced points over ``bracket`` (one batched call)
    must find its lowest n_eff at a point whose two neighbours are
    stable, else a PhysicsError that names that point.  An unstable point scores
    +inf; a scan with no stable point raises its first
    UnstableSystemError, and else the first other point error is raised.  From the
    vertex of the parabola through that point and its two neighbours, a
    safeguarded secant iteration drives the exact dn_eff/dlog C_OM to
    zero inside the neighbours: the slope is the
    Lyapunov sensitivity of the covariance at full fidelity and the
    derivative of the closed form at rwa, and the curvature is the
    parabola's at the first step and the slope difference of the last two
    points after.  A step that leaves the bracket or fails to halve the
    previous one, or a curvature that is not positive, becomes a bisection
    on the sign of the slope.  The search stops when the step in log C_OM
    is below 1e-6.  Returns ``(c_om_star, n_eff_star)``, n_eff_star
    the gated n_eff evaluated at c_om_star.
    """
    lo, hi = _bracket(bracket)
    gb = spec.mode_b.gamma
    n_effs = _n_effs(spec, fidelity)
    xs = np.linspace(math.log(lo), math.log(hi), _COARSE_POINTS).tolist()
    scan = n_effs([math.exp(x) * gb for x in xs])
    others = [e for e in scan.errors.values() if e.kind != UnstableSystemError.kind]  # by index
    if others or len(scan.errors) == _COARSE_POINTS:
        raise (others or list(scan.errors.values()))[0]
    ys = [math.inf if i in scan.errors else n for i, n in enumerate(scan.n.tolist())]
    k = int(np.argmin(ys))
    if k in (0, _COARSE_POINTS - 1) or math.inf in (ys[k - 1], ys[k + 1]):
        where = "at a bracket end" if k in (0, _COARSE_POINTS - 1) else "next to an unstable point"
        raise PhysicsError(
            f"no interior n_eff minimum in C_OM bracket [{lo:g}, {hi:g}]: the lowest of the "
            f"{_COARSE_POINTS} scan points, point {k + 1} at C_OM = {math.exp(xs[k]):g}, is {where}"
        )

    left, right = xs[k - 1], xs[k + 1]
    h = (right - left) / 2.0
    curvature = (ys[k - 1] - 2.0 * ys[k] + ys[k + 1]) / h**2
    x = xs[k] - (ys[k + 1] - ys[k - 1]) / (2.0 * h * curvature) if curvature > 0 else xs[k]
    last, previous = right - left, None
    while True:
        point = n_effs([math.exp(x) * gb], slopes=True)
        if point.errors:
            raise point.errors[0]
        n, slope = float(point.n[0]), float(point.slope[0])
        if slope > 0:
            right = x
        else:
            left = x
        if previous is not None:
            curvature = (slope - previous[1]) / (x - previous[0])
        step = -slope / curvature if curvature > 0 else math.nan
        if not (left <= x + step <= right and abs(step) <= last / 2.0):
            step = (left + right) / 2.0 - x
        if abs(step) < _REL_TOL:
            return math.exp(x), n
        previous, x, last = (x, slope), x + step, abs(step)


@np.errstate(over="ignore", invalid="ignore")  # see _n_effs
def sweep_detuning(
    spec: SystemSpec,
    delta_ab_values,
    fidelity: str = "rwa",
    c_om: float | None = None,
    optimize_each: bool = False,
    bracket: tuple = DEFAULT_RANGE,
) -> SweepResult:
    """n_eff versus mechanical mode splitting |omega_a - omega_b|.

    omega_b is moved away from the fixed omega_a.  Evaluation is either
    at a fixed C_OM or, with ``optimize_each``, at the per-point optimum
    within ``bracket``.  A non-finite or negative splitting or ``c_om``
    and a non-finite bracket end are ValueErrors.  At a fixed C_OM a full
    sweep is one covariance call on the pencil in omega_b
    (:func:`_omega_b_pencil`).
    """
    values = np.asarray(list(delta_ab_values), dtype=float)
    bad = values[~np.isfinite(values)]
    if bad.size:
        raise ValueError(f"detuning values must be finite, got {float(bad[0])!r}")
    if np.any(values < 0):
        raise ValueError("detuning values must be >= 0")
    _bracket(bracket)
    if c_om is not None and not 0 <= c_om < math.inf:
        raise ValueError(f"c_om must be finite and >= 0, got {c_om!r}")
    if c_om is None and not optimize_each:
        cab = cooperativity_ab(spec)
        c_om = optimal_cooperativity(cab) if math.isfinite(cab) else 1.0
    gb = spec.mode_b.gamma
    omega_b = spec.mode_a.omega + values
    if not optimize_each:
        gamma = c_om * gb
        if _fidelity(fidelity) == "full":  # the modal form about omega_a, from _MODAL_POINTS points on
            a0, e, b, weights, labels = _omega_b_pencil(spec, math.sqrt(gamma * spec.cavity.kappa) / 2.0, omega_b)
            # paired as _pencil builds it; an overflowed G leaves NaN in A0', a per-point error
            pencil = _prepare_noise(a0, e, b, weights, _conjugate_swap(labels), spec.mode_a.omega)
            occupation = _occupations(pencil, omega_b, labels.index("a"))
        else:
            occupation = _closed_form(_n_eff_columns(spec, omega_b))(np.full(values.size, gamma))
        return _sweep(spec, "delta_ab", values, occupation.n, occupation.errors, gamma, omega_b)
    c_opt, n_eff, errors = np.full(values.size, math.nan), np.full(values.size, math.nan), {}
    for i, w in enumerate(omega_b):
        try:
            split = replace(spec, mode_b=replace(spec.mode_b, omega=w))
            c_opt[i], n_eff[i] = find_optimum(split, bracket, fidelity)
        except BathcoolError as exc:
            errors[i] = exc
    return _sweep(spec, "delta_ab", values, n_eff, errors, c_opt * gb, omega_b)
