"""Closed-form rotating-wave results for the bath-engineered cooling scheme.

Everything here is analytic: the optically induced damping of mode b, the
mode susceptibilities, the frequency pull and induced damping of mode a,
the effective occupation and its optimum over the optomechanical
cooperativity, and the thermomechanical force-noise density.

The closed forms assume a degenerate, sideband-resolved, hierarchical
regime.  Rather than refusing to evaluate near the regime edges,
:func:`regime_flags` reports boolean validity flags computed with a
threshold factor of 10.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import KB
from .errors import UnstableSystemError
from .model import SystemSpec, _thermal_occupations, thermal_occupation

__all__ = [
    "RegimeFlags",
    "CoolingSummary",
    "ForceNoiseResult",
    "regime_flags",
    "optical_damping",
    "chi_b",
    "chi_a",
    "mode_a_response",
    "induced_damping_detuned",
    "cooperativity_ab",
    "optomechanical_cooperativity",
    "n_eff_closed_form",
    "optimal_cooperativity",
    "cooling_limit_ratio",
    "narrowed_linewidth",
    "force_noise_psd",
    "cooling_summary",
]

REGIME_FACTOR = 10.0
_UNDAMPED = "mode a is undamped (gamma_a + Gamma_a = 0)"


@dataclass(frozen=True)
class RegimeFlags:
    """Validity flags for the closed-form results (True = inside regime).

    degenerate : |omega_a - omega_b| small against gamma_b + Gamma
    sideband   : cavity broad against the damped-b linewidth and the
                 pump tuned near the lower motional sideband
    hierarchy  : (gamma_b + Gamma)/gamma_a large against C_ab
    cooperative: C_ab large against 1
    """

    degenerate: bool
    sideband: bool
    hierarchy: bool
    cooperative: bool

    @property
    def ok(self) -> bool:
        return self.degenerate and self.sideband and self.hierarchy and self.cooperative


@dataclass(frozen=True)
class CoolingSummary:
    """All closed-form figures of merit for one operating point."""

    Gamma: float
    Gamma_a: float
    C_ab: float
    C_OM: float
    n_eff: float
    linewidth_a: float
    omega_a_pulled: float
    flags: RegimeFlags


@dataclass(frozen=True)
class ForceNoiseResult:
    """Thermal force noise on mode a.

    ``s_ff`` is the one-sided classical-limit density in N^2/Hz; ``factor``
    is the dimensionless bracket multiplying the bare m*gamma_a*kB*T.
    ``classical`` records whether nbar >> 1 holds (threshold factor 10).
    """

    s_ff: float
    factor: float
    classical: bool


def regime_flags(spec: SystemSpec, Gamma: float) -> RegimeFlags:
    """Where the closed forms hold at optical damping Gamma (see RegimeFlags)."""
    return RegimeFlags(*_regime_tests(spec, Gamma, spec.mode_b.omega))


def _regime_tests(spec: SystemSpec, Gamma, omega_b) -> tuple:
    """:func:`regime_flags`' tests, mode b at omega_b; on floats or arrays."""
    gtot = spec.mode_b.gamma + Gamma
    cab = cooperativity_ab(spec)
    kappa = spec.cavity.kappa
    sideband = (kappa >= REGIME_FACTOR * gtot) & (
        abs(spec.cavity.detuning + omega_b) * REGIME_FACTOR <= kappa / 2
    )
    hierarchy = spec.mode_a.gamma == 0.0 or gtot / spec.mode_a.gamma >= REGIME_FACTOR * cab
    degenerate = abs(spec.mode_a.omega - omega_b) * REGIME_FACTOR <= gtot
    return degenerate, sideband, hierarchy, cab >= REGIME_FACTOR


# every RegimeFlags, at index 8*degenerate + 4*sideband + 2*hierarchy + cooperative
_FLAG_SETS = tuple(RegimeFlags(*(bool(k & bit) for bit in (8, 4, 2, 1))) for k in range(16))


def _regime_flags_column(spec: SystemSpec, Gamma: np.ndarray, omega_b) -> list:
    """:func:`regime_flags` at each Gamma, mode b at omega_b; one instance per flag set."""
    d, s, h, c = _regime_tests(spec, Gamma, omega_b)
    return [_FLAG_SETS[k] for k in (8 * d + 4 * s + 2 * h + c).tolist()]


def optical_damping(alpha_g0: float, kappa: float) -> float:
    """Optically induced damping of mode b: Gamma = 4|alpha*g0|^2/kappa."""
    if not kappa > 0:
        raise ValueError(f"kappa must be > 0, got {kappa}")
    return 4.0 * abs(alpha_g0) ** 2 / kappa


def chi_b(omega, spec: SystemSpec, Gamma: float):
    """Susceptibility of mode b with optical damping included.

    chi_b(omega) = [-i(omega - omega_b) + (gamma_b + Gamma)/2]^-1
    Accepts scalar or array omega.
    """
    return 1.0 / (
        -1j * (omega - spec.mode_b.omega) + (spec.mode_b.gamma + Gamma) / 2.0
    )


def chi_a(omega, spec: SystemSpec, Gamma: float):
    """Susceptibility of mode a dressed by its coupling through b.

    chi_a(omega) = [-i(omega - omega_a) + gamma_a/2 + chi_b(omega)*lambda^2]^-1
    """
    return 1.0 / (
        -1j * (omega - spec.mode_a.omega)
        + spec.mode_a.gamma / 2.0
        + chi_b(omega, spec, Gamma) * spec.coupling**2
    )


def mode_a_response(omega, spec: SystemSpec, Gamma: float):
    """Pulled frequency and dressed damping of mode a at probe frequency omega.

    Returns (omega_a_pulled, gamma_a_prime) from the real and imaginary
    parts of lambda^2 * chi_b.
    """
    lam2 = spec.coupling**2
    gtot = spec.mode_b.gamma + Gamma
    denom = (omega - spec.mode_b.omega) ** 2 + gtot**2 / 4.0
    omega_pulled = spec.mode_a.omega + lam2 * (omega - spec.mode_b.omega) / denom
    gamma_prime = spec.mode_a.gamma + lam2 * gtot / denom
    return omega_pulled, gamma_prime


@np.errstate(over="ignore", invalid="ignore")
def induced_damping_detuned(lam: float, gamma_b: float, Gamma: float, delta: float) -> float:
    """Induced damping of mode a when b is detuned by delta = omega_b - omega_a.

    Gamma_a(delta) = lambda^2*(gamma_b + Gamma) / (delta^2 + (gamma_b + Gamma)^2/4);
    reduces to the on-resonance value at delta = 0.
    """
    return float(_induced_damping(lam, gamma_b + np.array([Gamma], dtype=float), delta)[0])


def _induced_damping(lam, gtot, delta) -> np.ndarray:
    """:func:`induced_damping_detuned` at each total b damping of the column ``gtot``
    (ValueError unless all > 0), squaring by libm pow: numpy's x**2 is x*x, which can
    differ in the last bit.  Where a square overflows or gtot is infinite, the
    Lorentzian takes its limit, 0, with numpy's warnings off by the caller.
    Where the denominator is below the normal range (gtot and |delta| below
    about 1e-154), it is scaled by s = max(|delta|, gtot) instead:
    lambda^2 (gtot/s) / D / s with D = (delta/s)^2 + (gtot/s)^2/4 in [1/4, 5/4],
    which is 4 lambda^2/gtot at delta = 0 and divides by no 0."""
    if not (gtot > 0).all():
        raise ValueError("gamma_b + Gamma must be > 0")
    lam2 = np.float_power(lam, 2)
    den = np.float_power(delta, 2) + np.float_power(gtot, 2) / 4.0
    normal = np.finfo(float).tiny
    out = np.where(np.isinf(den), 0.0, lam2 * gtot / np.maximum(den, normal))
    low = den < normal
    if low.any():
        lam2, gtot, delta = (np.broadcast_to(x, out.shape)[low] for x in (lam2, gtot, delta))
        s = np.maximum(np.abs(delta), gtot)
        scaled = np.float_power(delta / s, 2) + np.float_power(gtot / s, 2) / 4.0
        out[low] = lam2 * (gtot / s) / scaled / s
    return out


@np.errstate(over="ignore")
def cooperativity_ab(spec: SystemSpec) -> float:
    """C_ab = 4*lambda^2/(gamma_a*gamma_b), inf where it overflows."""
    ga, gb = spec.mode_a.gamma, spec.mode_b.gamma
    if not ga * gb > 0:  # a damping of 0, or a product that underflows to 0
        return math.inf if spec.coupling > 0 else 0.0
    return float(4.0 * np.float_power(spec.coupling, 2) / (ga * gb))  # libm pow, as Python's **


def optomechanical_cooperativity(Gamma: float, gamma_b: float) -> float:
    """C_OM = Gamma/gamma_b."""
    if not gamma_b > 0:
        raise ValueError("gamma_b must be > 0")
    return Gamma / gamma_b


@np.errstate(over="ignore", invalid="ignore")
def n_eff_closed_form(spec: SystemSpec, Gamma: float) -> float:
    """Effective occupation of mode a from the weighted bath average.

    n_eff = (gamma_a*nbar_a + Gamma_a*(gamma_b/(Gamma+gamma_b))*nbar_b)
            / (gamma_a + Gamma_a)

    nbar_a is mode a's bath occupation, evaluated at omega_a.  When the
    two baths share a temperature, mode b's bath takes the same value, as
    the paper's formula does; otherwise nbar_b is mode b's own, evaluated
    at omega_b.  Gamma_a uses the detuning-aware Lorentzian so the formula degrades
    gracefully when omega_a != omega_b; it is evaluated outside the regime
    too, whose edges :func:`regime_flags` reports.
    """
    n = float(_n_eff_columns(spec, spec.mode_b.omega)(np.array([Gamma], dtype=float))[0][0])
    if math.isnan(n):
        raise UnstableSystemError(_UNDAMPED)
    return n


def _n_eff_columns(spec: SystemSpec, omega_b):
    """``(Gamma, slopes=False) -> (n, slope)``: :func:`n_eff_closed_form` at each
    Gamma of a column, mode b at ``omega_b`` (a float, or a column like Gamma),
    NaN where mode a is undamped (0/0), and with ``slopes`` dn/dGamma, else None.
    Where Gamma_a*nbar_b overflows, n is the same average with the weight
    gamma_a/(gamma_a + Gamma_a) formed first.  What Gamma does not move is read
    once, here; numpy's overflow and invalid warnings are off by the caller.  The
    slope: with g = gamma_b + Gamma, D = delta^2 + g^2/4, n = P/R,
    P = gamma_a*nbar_a*D + lambda^2*gamma_b*nbar_b, R = gamma_a*D + lambda^2*g.
    """
    ma, mb = spec.mode_a, spec.mode_b
    ga, gb, lam, delta, nbar = ma.gamma, mb.gamma, spec.coupling, omega_b - ma.omega, ma.nbar
    nbar_b = nbar
    if ma.bath_temperature != mb.bath_temperature:
        nbar_b = _thermal_occupations(np.atleast_1d(omega_b), mb.bath_temperature)
    lam2 = np.float_power(lam, 2)

    def columns(Gamma, slopes=False):
        g = gb + Gamma
        gamma_a = _induced_damping(lam, g, delta)
        n = (ga * nbar + gamma_a * (gb / g) * nbar_b) / (ga + gamma_a)
        over = np.isinf(n)
        if over.any():  # Gamma_a*nbar_b overflows (gamma_b + Gamma ~ 1e-300), n need not
            w = ga / (ga + gamma_a)
            n = np.where(over, w * nbar + (1.0 - w) * (gb / g) * nbar_b, n)
        if not slopes:
            return n, None
        d = np.float_power(delta, 2) + np.float_power(g, 2) / 4.0
        r = ga * d + lam2 * g
        p = (ga * nbar * d + lam2 * gb * nbar_b) / r
        return n, (ga * nbar * g / 2.0 - p * (ga * g / 2.0 + lam2)) / r

    return columns


def optimal_cooperativity(C_ab: float) -> float:
    """Occupation-minimizing optomechanical cooperativity sqrt(1 + C_ab)."""
    if C_ab < 0:
        raise ValueError(f"C_ab must be >= 0, got {C_ab}")
    return math.sqrt(1.0 + C_ab)


def cooling_limit_ratio(C_ab: float) -> float:
    """Minimum achievable n_eff/nbar: 2/(1 + sqrt(1 + C_ab))."""
    if C_ab < 0:
        raise ValueError(f"C_ab must be >= 0, got {C_ab}")
    return 2.0 / (1.0 + math.sqrt(1.0 + C_ab))


def narrowed_linewidth(gamma_a: float, C_ab: float) -> float:
    """Mode-a linewidth at the cooling optimum: gamma_a*sqrt(1 + C_ab)."""
    if gamma_a < 0 or C_ab < 0:
        raise ValueError("gamma_a and C_ab must be >= 0")
    return gamma_a * math.sqrt(1.0 + C_ab)


def force_noise_psd(
    spec: SystemSpec, Gamma: float, temperature: float
) -> ForceNoiseResult:
    """Thermal force noise density on mode a in the classical limit.

    S_FF = [1 + C_ab/(1 + C_OM)^2] * m * gamma_a * kB * T; the bracketed
    factor is returned separately so dimensionless checks avoid SI
    constants.  At C_OM = 0 this is the conventional-cooling baseline
    (1 + C_ab) * m * gamma_a * kB * T.
    """
    if spec.mass_a is None or not spec.mass_a > 0:
        raise ValueError("spec.mass_a must be set and > 0 for force noise")
    if not temperature > 0:
        raise ValueError("temperature must be > 0")
    cab = cooperativity_ab(spec)
    com = optomechanical_cooperativity(Gamma, spec.mode_b.gamma)
    with np.errstate(over="ignore"):
        den = float(np.float_power(1.0 + com, 2))  # libm pow, as Python's **; inf past C_OM ~ 1.3e154
    # where the square overflows, dividing twice keeps the term, and its limit 0 at C_OM = inf
    factor = 1.0 + (cab / den if den < math.inf else cab / (1.0 + com) / (1.0 + com))
    s_ff = factor * spec.mass_a * spec.mode_a.gamma * KB * temperature
    nbar = thermal_occupation(spec.mode_a.omega, temperature)
    return ForceNoiseResult(s_ff=s_ff, factor=factor, classical=nbar >= REGIME_FACTOR)


def cooling_summary(spec: SystemSpec) -> CoolingSummary:
    """Every closed-form figure of merit at the operating point of ``spec``,
    Gamma the optical damping of its cavity drive."""
    Gamma = optical_damping(spec.cavity.alpha_g0, spec.cavity.kappa)
    n_eff = n_eff_closed_form(spec, Gamma)
    omega_pulled, gamma_prime = mode_a_response(spec.mode_a.omega, spec, Gamma)
    return CoolingSummary(
        Gamma=Gamma,
        Gamma_a=gamma_prime - spec.mode_a.gamma,
        C_ab=cooperativity_ab(spec),
        C_OM=optomechanical_cooperativity(Gamma, spec.mode_b.gamma),
        n_eff=n_eff,
        linewidth_a=gamma_prime,
        omega_a_pulled=omega_pulled,
        flags=regime_flags(spec, Gamma),
    )
