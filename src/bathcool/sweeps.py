"""Parameter sweeps over cooperativity and mode detuning, and optimum finding.

The optomechanical cooperativity C_OM = Gamma/gamma_b is swept by
setting G = |alpha|*g0 = sqrt(Gamma*kappa)/2 at fixed kappa (the
experimental pump-power knob), at either closed-form ("rwa") or
six-component ("full") fidelity.  A full-fidelity n_eff is the
steady-state covariance of the 6x6 drift A0 + G*A1, one batched solve
over the points, not a spectrum integral.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from .analytics import (
    _nbar_b,
    cooperativity_ab,
    induced_damping_detuned,
    n_eff_closed_form,
    regime_flags,
)
from .errors import BathcoolError, PhysicsError
from .model import DriftModel, SystemSpec, _pencil, effective_temperature
from .spectra import _stacked_occupations, fit_lorentzian, position_spectrum

__all__ = ["SweepResult", "sweep_cooperativity", "find_optimum", "sweep_detuning"]

DEFAULT_POINTS_PER_DECADE = 60
DEFAULT_RANGE = (1e-2, 1e3)


@dataclass(frozen=True)
class SweepResult:
    """Per-point results of a one-dimensional sweep.

    ``errors`` holds None for successful points and the error message for
    points that failed (e.g. instability); failed points carry NaN in the
    numeric columns.
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
        for name in ("n_eff", "T_ratio", "linewidths"):
            if len(getattr(self, name)) != n:
                raise ValueError(f"{name} length mismatch")
        if len(self.validity_flags) != n or len(self.errors) != n:
            raise ValueError("flags/errors length mismatch")


def _rwa_line(spec: SystemSpec, Gamma: float):
    """Closed-form mode-a linewidth and regime flags at optical damping Gamma."""
    delta = spec.mode_b.omega - spec.mode_a.omega
    lw = spec.mode_a.gamma + induced_damping_detuned(
        spec.coupling, spec.mode_b.gamma, Gamma, delta
    )
    return lw, regime_flags(spec, Gamma)


def _n_effs(specs, fidelity: str):
    """``gammas -> entries``: n_eff of mode a at every point (specs[i], gammas[i]).

    ``specs`` holds one spec per point, or one spec for all points.  At
    full fidelity the pencil of each spec is built once, here, and every
    call is one batched steady-state covariance solve of the drift stack
    A0 + G*A1 at G = |alpha|*g0 = sqrt(Gamma*kappa)/2, the drive that damps
    mode b at rate Gamma; the entry of a point that failed is its
    BathcoolError.
    """
    if fidelity == "rwa":

        def closed_form(s, g):
            try:
                return n_eff_closed_form(s, g, s.mode_a.nbar, nbar_b=_nbar_b(s))
            except BathcoolError as exc:
                return exc

        return lambda gammas: [
            closed_form(s, g) for s, g in zip(itertools.cycle(specs), gammas)
        ]
    if fidelity != "full":
        raise ValueError(f"fidelity must be 'rwa' or 'full', got {fidelity!r}")
    if not specs:
        return lambda gammas: []
    a0, a1, b, corr, labels = zip(*(_pencil(s, rotating_wave=False) for s in specs))
    a0, a1, b, corr = map(np.stack, (a0, a1, b, corr))
    kappa = np.array([s.cavity.kappa for s in specs])
    rows = labels[0].index("a"), labels[0].index("a_dag")

    def covariance(gammas):
        g = np.sqrt(np.asarray(gammas, dtype=float) * kappa) / 2.0
        return _stacked_occupations(a0 + g[:, None, None] * a1, b, corr[:, 0], *rows)

    return covariance


def _value(n_eff):
    """An entry of :func:`_n_effs`: the float, or raise its error."""
    if isinstance(n_eff, BathcoolError):
        raise n_eff
    return n_eff


def _sweep(spec: SystemSpec, axis_name: str, values: np.ndarray, point) -> SweepResult:
    """Evaluate ``point(i) -> (n_eff, linewidth, flags)`` at every axis index.

    A point that raises a BathcoolError records its message and NaNs; the
    sweep continues.
    """
    t_bath = spec.mode_a.bath_temperature
    n_eff = np.full(values.size, math.nan)
    t_ratio = np.full(values.size, math.nan)
    lws = np.full(values.size, math.nan)
    flags, errors = [], []
    for i in range(values.size):
        try:
            n, lw, fl = point(i)
        except BathcoolError as exc:
            flags.append(None)
            errors.append(f"{exc.kind}: {exc}")
            continue
        n_eff[i] = n
        lws[i] = lw
        if t_bath > 0:
            t_ratio[i] = effective_temperature(n, spec.mode_a.omega) / t_bath
        flags.append(fl)
        errors.append(None)
    return SweepResult(
        axis_name=axis_name,
        axis_values=values,
        n_eff=n_eff,
        T_ratio=t_ratio,
        linewidths=lws,
        validity_flags=tuple(flags),
        errors=tuple(errors),
    )


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
    error; the sweep continues.
    """
    values = np.asarray(list(c_om_values), dtype=float)
    if values.size and np.any(np.diff(values) <= 0):
        raise ValueError("C_OM values must be sorted strictly increasing")
    if np.any(values < 0):
        raise ValueError("C_OM values must be >= 0")
    gammas = values * spec.mode_b.gamma
    n_effs = _n_effs([spec], fidelity)(gammas)
    if fit_lines and fidelity == "full":
        a0, a1, *inputs = _pencil(spec, rotating_wave=False)

    def point(i):
        n_eff = _value(n_effs[i])
        lw, flags = _rwa_line(spec, gammas[i])
        if fidelity == "full":
            # a full-fidelity linewidth comes only from a line fit, in a
            # window of 8 closed-form linewidths around the mode-a line
            window = (spec.mode_a.omega - 8 * lw, spec.mode_a.omega + 8 * lw)
            lw = math.nan
            if fit_lines:
                g = np.sqrt(gammas[i] * spec.cavity.kappa) / 2.0
                result = position_spectrum(DriftModel(6, a0 + g * a1, *inputs), "a")
                lw = fit_lorentzian(result.grid, result.values, window).fwhm
        return n_eff, lw, flags

    return _sweep(spec, "C_OM", values, point)


def find_optimum(
    spec: SystemSpec,
    bracket: tuple = DEFAULT_RANGE,
    fidelity: str = "rwa",
    rel_tol: float = 1e-4,
    coarse_points: int = 25,
) -> tuple:
    """Locate the n_eff minimum over C_OM by golden-section search on log C_OM.

    The bracket must contain an interior minimum (checked on a coarse
    log-spaced scan first).  Returns ``(c_om_star, n_eff_star)``.
    """
    lo, hi = bracket
    if not (0 < lo < hi):
        raise ValueError("bracket must satisfy 0 < lo < hi")
    gb = spec.mode_b.gamma
    n_effs = _n_effs([spec], fidelity)

    def f(log_c):
        return _value(n_effs([math.exp(log_c) * gb])[0])

    xs = np.linspace(math.log(lo), math.log(hi), coarse_points)
    coarse = n_effs([math.exp(x) * gb for x in xs])
    ys = np.array([_value(n) for n in coarse])
    imin = int(np.argmin(ys))
    if imin in (0, coarse_points - 1):
        raise PhysicsError(
            f"no interior n_eff minimum in C_OM bracket [{lo:g}, {hi:g}]"
        )

    a, b = xs[imin - 1], xs[imin + 1]
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while (b - a) > rel_tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    x_star = (a + b) / 2.0
    c_star = math.exp(x_star)
    return c_star, f(x_star)


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
    at a fixed C_OM or, with ``optimize_each``, at the per-point optimum.
    """
    values = np.asarray(list(delta_ab_values), dtype=float)
    if np.any(values < 0):
        raise ValueError("detuning values must be >= 0")
    if c_om is None and not optimize_each:
        cab = cooperativity_ab(spec)
        c_om = math.sqrt(1.0 + cab) if math.isfinite(cab) else 1.0
    gb = spec.mode_b.gamma
    specs = [
        replace(spec, mode_b=replace(spec.mode_b, omega=spec.mode_a.omega + delta))
        for delta in values
    ]
    if not optimize_each:
        gamma = c_om * gb
        n_effs = _n_effs(specs, fidelity)([gamma] * values.size)

    def point(i):
        if optimize_each:
            c_pt, n = find_optimum(specs[i], bracket, fidelity)
            lw, fl = _rwa_line(specs[i], c_pt * gb)
        else:
            n = _value(n_effs[i])
            lw, fl = _rwa_line(specs[i], gamma)
        return n, lw, fl

    return _sweep(spec, "delta_ab", values, point)
