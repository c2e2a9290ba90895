"""Physical data model and linear Langevin system assembly.

Defines the three-mode system (two mechanical modes ``a``, ``b`` plus a
driven cavity ``c``), Bose-Einstein occupation helpers, and builders for
the drift/noise matrices of both the rotating-wave (3x3) and the full
counter-rotating (6x6) models.

Conventions
-----------
* All frequencies and rates are angular (rad/s).
* RWA basis order is ``(c, a, b)`` with input channels
  ``(c_in, a_in, b_in)``.
* Full-model basis order is ``(a, a_dag, b, b_dag, c, c_dag)`` with the
  correspondingly doubled input channels.
* :meth:`DriftModel.paired` puts either model in a conjugate-paired basis,
  where the position quadrature ``a + a_dag`` is a single row.
* The intracavity amplitude is taken real (a pump phase choice); only
  ``|alpha| * g0`` enters the drift matrices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import block_diag

from .constants import HBAR, KB
from .errors import NumericsError

__all__ = [
    "MechanicalMode",
    "CavityDrive",
    "SystemSpec",
    "ThermalBathSpec",
    "DriftModel",
    "thermal_occupation",
    "effective_temperature",
    "intracavity_amplitude",
    "build_rwa_system",
    "build_full_system",
    "stability_eigenvalues",
    "is_stable",
]


@dataclass(frozen=True)
class MechanicalMode:
    """A mechanical mode coupled to its own heat bath.

    Parameters
    ----------
    omega : float
        Resonance frequency (rad/s, > 0).
    gamma : float
        Energy damping rate (rad/s, >= 0).
    bath_temperature : float
        Bath temperature (K, finite, >= 0).
    """

    omega: float
    gamma: float
    bath_temperature: float

    def __post_init__(self):
        if not self.omega > 0:
            raise ValueError(f"omega must be > 0, got {self.omega}")
        if self.gamma < 0:
            raise ValueError(f"gamma must be >= 0, got {self.gamma}")
        if not 0 <= self.bath_temperature < math.inf:
            raise ValueError(
                f"bath_temperature must be finite and >= 0, got {self.bath_temperature}"
            )

    @property
    def quality_factor(self) -> float:
        return self.omega / self.gamma if self.gamma > 0 else math.inf

    @property
    def nbar(self) -> float:
        """Bath occupation evaluated at this mode's frequency."""
        return thermal_occupation(self.omega, self.bath_temperature)


@dataclass(frozen=True)
class CavityDrive:
    """Driven optical cavity parameters.

    ``alpha`` is stored explicitly so users may set the intracavity
    amplitude (equivalently the cooling rate) directly without choosing a
    pump strength and detuning.  When ``pump`` is given, consistency
    ``alpha = pump / (i*detuning - kappa/2)`` is asserted.
    """

    kappa: float
    detuning: float
    g0: float
    alpha: complex = 0.0
    pump: complex | None = None
    bath_temperature: float = 0.0

    def __post_init__(self):
        if not self.kappa > 0:
            raise ValueError(f"kappa must be > 0, got {self.kappa}")
        if self.g0 < 0:
            raise ValueError(f"g0 must be >= 0, got {self.g0}")
        if not 0 <= self.bath_temperature < math.inf:
            raise ValueError(
                f"bath_temperature must be finite and >= 0, got {self.bath_temperature}"
            )
        if self.pump is not None:
            expected = intracavity_amplitude(self.pump, self.detuning, self.kappa)
            scale = max(abs(expected), abs(self.alpha), 1e-300)
            if abs(expected - self.alpha) > 1e-9 * scale:
                raise ValueError(
                    "alpha inconsistent with pump: expected "
                    f"{expected}, got {self.alpha}"
                )

    @classmethod
    def from_pump(cls, pump, detuning, kappa, g0, bath_temperature=0.0):
        alpha = intracavity_amplitude(pump, detuning, kappa)
        return cls(
            kappa=kappa,
            detuning=detuning,
            g0=g0,
            alpha=alpha,
            pump=pump,
            bath_temperature=bath_temperature,
        )

    @property
    def alpha_g0(self) -> float:
        """Linearized optomechanical coupling |alpha|*g0 (rad/s)."""
        return abs(self.alpha) * self.g0


@dataclass(frozen=True)
class SystemSpec:
    """The assembled three-mode model: two mechanical modes plus cavity.

    ``coupling`` is the mechanical-mechanical rate lambda (rad/s, >= 0;
    its sign is a basis redefinition of ``b`` and unobservable in
    spectra).  ``mass_a`` is used only for dimensional force noise.
    """

    mode_a: MechanicalMode
    mode_b: MechanicalMode
    cavity: CavityDrive
    coupling: float
    mass_a: float | None = None

    def __post_init__(self):
        if self.coupling < 0:
            raise ValueError(f"coupling must be >= 0, got {self.coupling}")
        if self.mass_a is not None and not self.mass_a > 0:
            raise ValueError(f"mass_a must be > 0, got {self.mass_a}")

    def baths(self) -> "ThermalBathSpec":
        """Bath occupations at the respective carrier frequencies.

        The cavity bath is vacuum (its optical carrier frequency is far
        above any thermal scale here); pass an explicit ThermalBathSpec to
        the system builders to override nbar_c.
        """
        return ThermalBathSpec(
            nbar_a=self.mode_a.nbar,
            nbar_b=self.mode_b.nbar,
            nbar_c=0.0,
        )


@dataclass(frozen=True)
class ThermalBathSpec:
    """Mean input-noise occupations for the three baths.

    The cavity bath defaults to vacuum (``nbar_c = 0``) unless explicitly
    overridden.
    """

    nbar_a: float
    nbar_b: float
    nbar_c: float = 0.0

    def __post_init__(self):
        for name in ("nbar_a", "nbar_b", "nbar_c"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")


@dataclass(frozen=True)
class DriftModel:
    """Linear Langevin system dv/dt = drift @ v + noise_input @ xi.

    Attributes
    ----------
    drift : (d, d) complex ndarray
        Drift matrix A (rad/s).
    noise_input : (d, n) float ndarray
        Input matrix B; column k carries the rate amplitude (sqrt(rad/s))
        of channel k.
    input_correlations : (2, n) float ndarray
        Row 0 holds the <xi_k xi_k^dag> coefficients, row 1 the
        <xi_k^dag xi_k> coefficients (nbar+1 / nbar pairs per the thermal
        input correlators).
    labels : tuple of str
        Operator basis labels, same order as the drift rows.
    kind : str
        "rwa" (annihilation-operator basis) or "full" (conjugate-paired
        basis).
    """

    dimension: int
    drift: np.ndarray
    noise_input: np.ndarray
    input_correlations: np.ndarray
    labels: tuple
    kind: str

    def __post_init__(self):
        a = np.asarray(self.drift, dtype=complex)
        b = np.asarray(self.noise_input, dtype=float)
        c = np.asarray(self.input_correlations, dtype=float)
        for arr in (a, b, c):
            arr.setflags(write=False)
        object.__setattr__(self, "drift", a)
        object.__setattr__(self, "noise_input", b)
        object.__setattr__(self, "input_correlations", c)
        if a.shape != (self.dimension, self.dimension):
            raise ValueError("drift must be square with `dimension` rows")
        if b.shape[0] != self.dimension:
            raise ValueError("noise_input must have `dimension` rows")
        if c.shape != (2, b.shape[1]):
            raise ValueError("input_correlations must be (2, n_channels)")
        if len(self.labels) != self.dimension:
            raise ValueError("labels must match dimension")
        if self.kind not in ("rwa", "full"):
            raise ValueError("kind must be 'rwa' or 'full'")

    def index(self, label: str) -> int:
        return self.labels.index(label)

    def paired(self) -> "DriftModel":
        """This model in a conjugate-paired basis.

        A full model is returned as is.  An rwa model on ``(c, a, b)``
        becomes blockdiag(A, conj A) on ``(c, a, b, c_dag, a_dag, b_dag)``
        with the conjugate inputs, whose <xi xi^dag> weight is nbar where
        the annihilation inputs carry nbar + 1.
        """
        if self.kind == "full":
            return self
        plus, minus = self.input_correlations
        return DriftModel(
            dimension=2 * self.dimension,
            drift=block_diag(self.drift, self.drift.conj()),
            noise_input=block_diag(self.noise_input, self.noise_input),
            input_correlations=[np.r_[plus, minus], np.r_[minus, plus]],
            labels=self.labels + tuple(f"{label}_dag" for label in self.labels),
            kind="full",
        )


def thermal_occupation(omega: float, temperature: float) -> float:
    """Bose-Einstein occupation 1/(exp(hbar*omega/kB/T) - 1).

    Returns 0 at zero temperature.  Uses expm1 so the high-temperature
    limit (hbar*omega/kB/T -> 0) is evaluated without cancellation.
    """
    if not omega > 0:
        raise ValueError(f"omega must be > 0, got {omega}")
    if temperature < 0:
        raise ValueError(f"temperature must be >= 0, got {temperature}")
    if temperature == 0.0:
        return 0.0
    x = HBAR * omega / (KB * temperature)
    if x > 700.0:  # exp overflow; occupation is indistinguishable from 0
        return 0.0
    return 1.0 / math.expm1(x)


def effective_temperature(n_eff: float, omega: float) -> float:
    """Temperature at which a mode of frequency omega has occupation n_eff.

    Inverse of :func:`thermal_occupation`; returns 0 for n_eff = 0.
    """
    if n_eff < 0:
        raise ValueError(f"n_eff must be >= 0, got {n_eff}")
    if not omega > 0:
        raise ValueError(f"omega must be > 0, got {omega}")
    if n_eff == 0.0:
        return 0.0
    return HBAR * omega / (KB * math.log1p(1.0 / n_eff))


def intracavity_amplitude(pump: complex, detuning: float, kappa: float) -> complex:
    """Steady-state coherent amplitude alpha = E / (i*detuning - kappa/2)."""
    if not kappa > 0:
        raise ValueError(f"kappa must be > 0, got {kappa}")
    return pump / (1j * detuning - kappa / 2.0)


def build_rwa_system(spec: SystemSpec, baths: ThermalBathSpec | None = None) -> DriftModel:
    """Assemble the 3x3 rotating-wave Langevin system on basis (c, a, b).

    Rows implement

        dc/dt = (i*Delta - kappa/2) c + i*alpha*g0 b + sqrt(kappa) c_in
        da/dt = (-i*omega_a - gamma_a/2) a - i*lambda b + sqrt(gamma_a) a_in
        db/dt = (-i*omega_b - gamma_b/2) b - i*lambda a + i*alpha*g0 c
                + sqrt(gamma_b) b_in
    """
    if baths is None:
        baths = spec.baths()
    ma, mb, cav = spec.mode_a, spec.mode_b, spec.cavity
    lam = spec.coupling
    ag = cav.alpha_g0

    drift = np.array(
        [
            [1j * cav.detuning - cav.kappa / 2, 0.0, 1j * ag],
            [0.0, -1j * ma.omega - ma.gamma / 2, -1j * lam],
            [1j * ag, -1j * lam, -1j * mb.omega - mb.gamma / 2],
        ],
        dtype=complex,
    )
    noise = np.diag([math.sqrt(cav.kappa), math.sqrt(ma.gamma), math.sqrt(mb.gamma)])
    nbars = np.array([baths.nbar_c, baths.nbar_a, baths.nbar_b])
    corr = np.vstack([nbars + 1.0, nbars])
    return DriftModel(
        dimension=3,
        drift=drift,
        noise_input=noise,
        input_correlations=corr,
        labels=("c", "a", "b"),
        kind="rwa",
    )


def build_full_system(spec: SystemSpec, baths: ThermalBathSpec | None = None) -> DriftModel:
    """Assemble the 6x6 system retaining counter-rotating terms.

    Basis (a, a_dag, b, b_dag, c, c_dag).  The mechanical coupling keeps
    the lambda*(a*b + a_dag*b_dag) terms and the optomechanical part keeps
    -alpha*g0*(b*c + b_dag*c_dag); damping enters as -gamma/2 on diagonal
    pairs and input channels double to include the conjugate inputs.
    """
    if baths is None:
        baths = spec.baths()
    ma, mb, cav = spec.mode_a, spec.mode_b, spec.cavity
    lam = spec.coupling
    ag = cav.alpha_g0

    wa, ga = ma.omega, ma.gamma
    wb, gb = mb.omega, mb.gamma
    dd, kp = cav.detuning, cav.kappa

    drift = np.array(
        [
            [-1j * wa - ga / 2, 0, -1j * lam, -1j * lam, 0, 0],
            [0, 1j * wa - ga / 2, 1j * lam, 1j * lam, 0, 0],
            [-1j * lam, -1j * lam, -1j * wb - gb / 2, 0, 1j * ag, 1j * ag],
            [1j * lam, 1j * lam, 0, 1j * wb - gb / 2, -1j * ag, -1j * ag],
            [0, 0, 1j * ag, 1j * ag, 1j * dd - kp / 2, 0],
            [0, 0, -1j * ag, -1j * ag, 0, -1j * dd - kp / 2],
        ],
        dtype=complex,
    )
    amps = [math.sqrt(ga)] * 2 + [math.sqrt(gb)] * 2 + [math.sqrt(kp)] * 2
    noise = np.diag(amps)
    na, nb, nc = baths.nbar_a, baths.nbar_b, baths.nbar_c
    # channel order (a_in, a_in_dag, b_in, b_in_dag, c_in, c_in_dag):
    # row 0 = <xi xi^dag> weight, row 1 = <xi^dag xi> weight.
    corr = np.array(
        [
            [na + 1, na, nb + 1, nb, nc + 1, nc],
            [na, na + 1, nb, nb + 1, nc, nc + 1],
        ],
        dtype=float,
    )
    return DriftModel(
        dimension=6,
        drift=drift,
        noise_input=noise,
        input_correlations=corr,
        labels=("a", "a_dag", "b", "b_dag", "c", "c_dag"),
        kind="full",
    )


def stability_eigenvalues(model: DriftModel) -> np.ndarray:
    """Eigenvalues of the drift matrix (complex, rad/s).

    The system is stable iff every real part is negative (see
    :func:`is_stable`).
    """
    try:
        return np.linalg.eigvals(model.drift)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - rare
        raise NumericsError(f"eigensolver failed: {exc}") from exc


def is_stable(model: DriftModel) -> bool:
    """True iff all drift eigenvalues have strictly negative real part."""
    return bool(np.all(stability_eigenvalues(model).real < 0))
