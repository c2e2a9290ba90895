"""Parameter sweeps over cooperativity and mode detuning, and optimum finding.

The optomechanical cooperativity C_OM = Gamma/gamma_b is swept by
adjusting alpha*g0 at fixed kappa (the experimental pump-power knob), at
either closed-form ("rwa") or exact six-component ("full") fidelity.  A
full-fidelity n_eff is the exact steady-state covariance of the 6x6
model (:func:`steady_state_occupation`), not a spectrum integral.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .analytics import (
    _nbar_b,
    cooperativity_ab,
    induced_damping_detuned,
    n_eff_closed_form,
)
from .errors import BathcoolError, PhysicsError
from .model import SystemSpec, build_full_system, effective_temperature
from .spectra import fit_lorentzian, position_spectrum, steady_state_occupations

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


def _with_cooling_rate(spec: SystemSpec, Gamma: float) -> SystemSpec:
    """Return a spec whose cavity drive realizes the given Gamma.

    alpha*g0 = sqrt(Gamma*kappa)/2 at fixed kappa; alpha absorbs the
    change (g0 must be positive to solve for alpha).
    """
    cav = spec.cavity
    target = math.sqrt(Gamma * cav.kappa) / 2.0
    if cav.g0 > 0:
        alpha = target / cav.g0
        new_cav = replace(cav, alpha=alpha, pump=None)
    elif target == 0.0:
        new_cav = replace(cav, alpha=0.0, pump=None)
    else:
        raise ValueError("cavity g0 must be > 0 to set a nonzero cooling rate")
    return replace(spec, cavity=new_cav)


def _point_rwa(spec: SystemSpec, Gamma: float):
    n_eff = n_eff_closed_form(spec, Gamma, spec.mode_a.nbar, nbar_b=_nbar_b(spec))
    delta = spec.mode_b.omega - spec.mode_a.omega
    lw = spec.mode_a.gamma + induced_damping_detuned(
        spec.coupling, spec.mode_b.gamma, Gamma, delta
    )
    return float(n_eff), lw, n_eff.flags


def _n_effs(specs, gammas, fidelity: str) -> list:
    """n_eff at every (spec, Gamma) point.

    At full fidelity all points share one batched steady-state covariance
    solve, and the entry of a point that failed is its BathcoolError.
    """
    if fidelity == "rwa":
        return [_point_rwa(s, g)[0] for s, g in zip(specs, gammas)]
    if fidelity == "full":
        return _covariance_n_effs([_with_cooling_rate(s, g) for s, g in zip(specs, gammas)])
    raise ValueError(f"fidelity must be 'rwa' or 'full', got {fidelity!r}")


def _covariance_n_effs(driven_specs) -> list:
    """Exact n_eff of each spec at its own drive, or the BathcoolError
    that point raises, from one batched steady-state covariance solve."""
    return steady_state_occupations([build_full_system(s) for s in driven_specs], "a")


def _value(n_eff):
    """An entry of :func:`_n_effs`: the float, or raise its error."""
    if isinstance(n_eff, BathcoolError):
        raise n_eff
    return n_eff


def _evaluate_n_eff(spec: SystemSpec, Gamma: float, fidelity: str) -> float:
    return _value(_n_effs([spec], [Gamma], fidelity)[0])


def _point_full(spec_g: SystemSpec, Gamma: float, n_eff, fit_line: bool):
    """A full-fidelity point of ``spec_g``, driven at Gamma, from its entry
    of :func:`_covariance_n_effs`; the spectrum is built only for a line
    fit."""
    n_eff = _value(n_eff)
    _, gp, flags = _point_rwa(spec_g, Gamma)
    lw = math.nan
    if fit_line:
        # window around the dressed mode-a line
        result = position_spectrum(build_full_system(spec_g), "a")
        wa = spec_g.mode_a.omega
        lw = fit_lorentzian(result.grid, result.values, (wa - 8 * gp, wa + 8 * gp)).fwhm
    return n_eff, lw, flags


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
    (alpha*g0 = sqrt(Gamma*kappa)/2).  Instability or fit failure at a
    point records a per-point error; the sweep continues.
    """
    if fidelity not in ("rwa", "full"):
        raise ValueError(f"fidelity must be 'rwa' or 'full', got {fidelity!r}")
    values = np.asarray(list(c_om_values), dtype=float)
    if values.size and np.any(np.diff(values) <= 0):
        raise ValueError("C_OM values must be sorted strictly increasing")
    if np.any(values < 0):
        raise ValueError("C_OM values must be >= 0")
    gammas = values * spec.mode_b.gamma
    if fidelity == "rwa":
        return _sweep(spec, "C_OM", values, lambda i: _point_rwa(spec, gammas[i]))
    driven = [_with_cooling_rate(spec, g) for g in gammas]
    n_effs = _covariance_n_effs(driven)
    return _sweep(
        spec,
        "C_OM",
        values,
        lambda i: _point_full(driven[i], gammas[i], n_effs[i], fit_line=fit_lines),
    )


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

    def f(log_c):
        return _evaluate_n_eff(spec, math.exp(log_c) * gb, fidelity)

    xs = np.linspace(math.log(lo), math.log(hi), coarse_points)
    coarse = _n_effs([spec] * xs.size, [math.exp(x) * gb for x in xs], fidelity)
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
        n_effs = _n_effs(specs, [gamma] * values.size, fidelity)

    def point(i):
        if optimize_each:
            c_pt, n = find_optimum(specs[i], bracket, fidelity)
            _, lw, fl = _point_rwa(specs[i], c_pt * gb)
        else:
            n = _value(n_effs[i])
            _, lw, fl = _point_rwa(specs[i], gamma)
        return n, lw, fl

    return _sweep(spec, "delta_ab", values, point)
