"""Physical data model and linear Langevin system assembly.

Defines the three-mode system (two mechanical modes ``a``, ``b`` plus a
driven cavity ``c``), Bose-Einstein occupation helpers, and the builders
of the drift/noise matrices: the full model, which keeps the
counter-rotating terms, and the rotating-wave model, which zeroes them.

Conventions
-----------
* All frequencies and rates are angular (rad/s).
* Both models are 6x6 in one conjugate-paired basis
  ``(a, a_dag, b, b_dag, c, c_dag)``, with input channels
  ``(a_in, a_in_dag, b_in, b_in_dag, c_in, c_in_dag)``; the position
  quadrature ``a + a_dag`` is a single row.
* The drift is affine in the linearized coupling G = |alpha|*g0,
  A(G) = A0 + G*A1; the noise does not depend on G.
* The intracavity amplitude is taken real (a pump phase choice); only
  ``|alpha| * g0`` enters the drift matrices.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .constants import HBAR, KB
from .errors import NumericsError

__all__ = [
    "MechanicalMode",
    "CavityDrive",
    "SystemSpec",
    "DriftModel",
    "thermal_occupation",
    "effective_temperature",
    "intracavity_amplitude",
    "build_rwa_system",
    "build_full_system",
    "stability_eigenvalues",
]


@dataclass(frozen=True)
class MechanicalMode:
    """A mechanical mode coupled to its own heat bath.

    Parameters
    ----------
    omega : float
        Resonance frequency (rad/s, finite, > 0).
    gamma : float
        Energy damping rate (rad/s, finite, >= 0).
    bath_temperature : float
        Bath temperature (K, finite, >= 0).
    """

    omega: float
    gamma: float
    bath_temperature: float

    def __post_init__(self):
        if not 0 < self.omega < math.inf:
            raise ValueError(f"omega must be finite and > 0, got {self.omega}")
        if not 0 <= self.gamma < math.inf:
            raise ValueError(f"gamma must be finite and >= 0, got {self.gamma}")
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
    pump strength and detuning; :meth:`from_pump` derives it from a pump.
    """

    kappa: float
    detuning: float
    g0: float
    alpha: complex = 0.0

    def __post_init__(self):
        if not 0 < self.kappa < math.inf:
            raise ValueError(f"kappa must be finite and > 0, got {self.kappa}")
        if not math.isfinite(self.detuning):
            raise ValueError(f"detuning must be finite, got {self.detuning}")
        if not 0 <= self.g0 < math.inf:
            raise ValueError(f"g0 must be finite and >= 0, got {self.g0}")
        if not cmath.isfinite(self.alpha):
            raise ValueError(f"alpha must be finite, got {self.alpha}")

    @classmethod
    def from_pump(cls, pump, detuning, kappa, g0):
        """The drive whose ``alpha`` is :func:`intracavity_amplitude` of a finite ``pump``."""
        alpha = intracavity_amplitude(pump, detuning, kappa)
        drive = cls(kappa=kappa, detuning=detuning, g0=g0)  # the other fields are checked first
        if not cmath.isfinite(pump):
            raise ValueError(f"pump must be finite, got {pump}")
        return replace(drive, alpha=alpha)

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
        if not 0 <= self.coupling < math.inf:
            raise ValueError(f"coupling must be finite and >= 0, got {self.coupling}")
        if self.mass_a is not None and not 0 < self.mass_a < math.inf:
            raise ValueError(f"mass_a must be finite and > 0, got {self.mass_a}")


@dataclass(frozen=True)
class DriftModel:
    """Linear Langevin system dv/dt = drift @ v + noise_input @ xi.

    The basis is conjugate-paired, else ValueError: labels come in
    ``x``/``x_dag`` pairs, and a finite drift satisfies A = P conj(A) P
    exactly, P swapping each ``x`` and ``x_dag`` (the solvers refuse a
    non-finite one).  The solvers read the rows ``select`` and ``select_dag``.

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
        input correlators); finite and >= 0, so every spectrum is >= 0.
    labels : tuple of str
        Operator basis labels, same order as the drift rows.
    """

    dimension: int
    drift: np.ndarray
    noise_input: np.ndarray
    input_correlations: np.ndarray
    labels: tuple

    def __post_init__(self):
        a = np.asarray(self.drift, dtype=complex)
        b = np.asarray(self.noise_input, dtype=float)
        c = np.asarray(self.input_correlations, dtype=float)
        for arr in (a, b, c):
            arr.setflags(write=False)
        object.__setattr__(self, "drift", a)
        object.__setattr__(self, "noise_input", b)
        object.__setattr__(self, "input_correlations", c)
        # spectra's grids, eigenvalues and last position spectrum per mode of this
        # model, with the mode's e_select chi B where the spectrum solved that row
        object.__setattr__(self, "_memo", {})
        if a.shape != (self.dimension, self.dimension):
            raise ValueError("drift must be square with `dimension` rows")
        if b.shape[0] != self.dimension:
            raise ValueError("noise_input must have `dimension` rows")
        if c.shape != (2, b.shape[1]):
            raise ValueError("input_correlations must be (2, n_channels)")
        if not np.all((c >= 0) & (c < math.inf)):
            raise ValueError(f"input_correlations must be finite and >= 0, got {c.tolist()}")
        if len(self.labels) != self.dimension:
            raise ValueError("labels must match dimension")
        _conjugate_swap(self.labels, *([a] if np.isfinite(a).all() else []))

    def index(self, label: str) -> int:
        return self.labels.index(label)


def _conjugate_swap(labels: tuple, *drifts) -> np.ndarray:
    """The permutation ``perm`` that swaps every ``x`` and ``x_dag`` label.

    ValueError unless the labels come in distinct ``x``/``x_dag`` pairs and
    each drift, a matrix or a stack, has ``drift[..., perm, perm] == conj(drift)``.
    """
    perm = _mates(tuple(labels))
    if not all(np.array_equal(x[..., perm[:, None], perm], x.conj()) for x in drifts):
        raise ValueError("drift is not conjugate-paired: A != P conj(A) P")
    return perm


@functools.lru_cache(maxsize=16)
def _mates(labels: tuple) -> np.ndarray:
    """The read-only ``perm`` of :func:`_conjugate_swap`, built once per label tuple."""
    mates = [x.removesuffix("_dag") if x.endswith("_dag") else x + "_dag" for x in labels]
    perm = np.array([labels.index(x) if x in labels else -1 for x in mates], dtype=int)
    if not np.array_equal(perm[perm], np.arange(perm.size)):  # also fails on a -1
        raise ValueError(f"labels must come in distinct x/x_dag pairs, got {labels}")
    perm.setflags(write=False)
    return perm


def thermal_occupation(omega: float, temperature: float) -> float:
    """Bose-Einstein occupation 1/(exp(hbar*omega/kB/T) - 1).

    Returns 0 at zero temperature, NumericsError where hbar*omega/kB/T
    underflows so far that the occupation overflows; expm1 keeps the
    high-temperature limit free of cancellation.
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
    n = 1.0 / math.expm1(x) if x > 0.0 else math.inf
    if math.isinf(n):  # x is 0 or subnormal
        raise NumericsError(f"hbar*omega/(kB*T) underflows to {x:.3g} at omega = {omega:.6g} rad/s")
    return n


def _thermal_occupations(omegas: np.ndarray, temperature: float) -> np.ndarray:
    """:func:`thermal_occupation` at each frequency of the column ``omegas``, its scalar calls' bits."""
    return np.fromiter((thermal_occupation(w, temperature) for w in omegas.tolist()), float, omegas.size)


def effective_temperature(n_eff: float, omega: float) -> float:
    """Temperature at which a mode of frequency omega has occupation n_eff.

    Inverse of :func:`thermal_occupation`; returns 0 for n_eff = 0 and
    NumericsError where the temperature overflows.
    """
    return float(_effective_temperatures(np.array([n_eff], dtype=float), omega)[0])


@np.errstate(divide="ignore", over="ignore")
def _effective_temperatures(n_eff: np.ndarray, omega: float) -> np.ndarray:
    """:func:`effective_temperature` at each occupation of the column ``n_eff``.

    1/n and the products are numpy's IEEE operations in the scalar
    formula's order, and the logarithm is math.log1p itself, mapped over
    the column (np.log1p is not bitwise math.log1p), so each value is the
    bits of its own scalar call.  At n_eff = 0, 1/n = inf gives T = 0.
    """
    negative = n_eff[n_eff < 0]
    if negative.size:
        raise ValueError(f"n_eff must be >= 0, got {float(negative[0])}")
    if not omega > 0:
        raise ValueError(f"omega must be > 0, got {omega}")
    log = np.fromiter(map(math.log1p, (1.0 / n_eff).tolist()), float, n_eff.size)
    kb_log = KB * log
    temperature = HBAR * omega / kb_log
    low = ~(kb_log > 0.0)
    if low.any():
        # kB*log underflows to 0; the temperature itself may still be finite
        log = log[low]
        temperature[low] = np.where(log > 0.0, HBAR * omega / KB / log, math.inf)
        overflows = np.flatnonzero(np.isinf(temperature) & low)
        if overflows.size:
            raise NumericsError(
                f"effective temperature overflows at n_eff = {float(n_eff[overflows[0]]):.6g}"
            )
    return temperature


def intracavity_amplitude(pump: complex, detuning: float, kappa: float) -> complex:
    """Steady-state coherent amplitude alpha = E / (i*detuning - kappa/2)."""
    if not kappa > 0:
        raise ValueError(f"kappa must be > 0, got {kappa}")
    return pump / (1j * detuning - kappa / 2.0)


def _pencil(spec: SystemSpec, rotating_wave: bool) -> tuple:
    """``(A0, A1, noise_input, input_correlations, labels)`` of ``spec``.

    The drift at linearized coupling G = |alpha|*g0 is A0 + G*A1 on the
    basis (a, a_dag, b, b_dag, c, c_dag); the noise does not depend on G.
    The mechanical coupling keeps the lambda*(a*b + a_dag*b_dag) terms
    and the optomechanical part the -G*(b*c + b_dag*c_dag) terms, unless
    ``rotating_wave`` zeroes every counter-rotating (annihilation <->
    creation) entry.  Damping enters as -gamma/2 on the diagonal and the
    input channels double to include the conjugate inputs.
    """
    ma, mb, cav = spec.mode_a, spec.mode_b, spec.cavity
    lam = spec.coupling
    wa, ga = ma.omega, ma.gamma
    wb, gb = mb.omega, mb.gamma
    dd, kp = cav.detuning, cav.kappa

    # each mode's pole and its conjugate on the diagonal; -i*lambda*(b + b_dag)
    # drives a and -i*lambda*(a + a_dag) drives b, i*G*(c + c_dag) drives b
    # and i*G*(b + b_dag) drives c; the conjugate rows flip the sign
    poles = (-1j * wa - ga / 2, -1j * wb - gb / 2, 1j * dd - kp / 2)
    a0 = np.diag([p for z in poles for p in (z, z.conjugate())])
    a0[0:2, 2:4] = a0[2:4, 0:2] = [[-1j * lam], [1j * lam]]
    a1 = np.zeros((6, 6), dtype=complex)
    a1[2:4, 4:6] = a1[4:6, 2:4] = [[1j], [-1j]]
    if rotating_wave:
        dag = np.arange(6) % 2 == 1
        counter = dag[:, None] != dag[None, :]
        a0[counter] = 0.0
        a1[counter] = 0.0
    amps = [math.sqrt(ga)] * 2 + [math.sqrt(gb)] * 2 + [math.sqrt(kp)] * 2
    # the cavity input is vacuum: nbar ~ 0 at optical frequencies
    na, nb, nc = ma.nbar, mb.nbar, 0.0
    # channel order (a_in, a_in_dag, b_in, b_in_dag, c_in, c_in_dag);
    # <xi xi^dag> and <xi^dag xi> weights
    plus = [na + 1, na, nb + 1, nb, nc + 1, nc]
    minus = [na, na + 1, nb, nb + 1, nc, nc + 1]
    corr = np.array([plus, minus], dtype=float)
    return a0, a1, np.diag(amps), corr, ("a", "a_dag", "b", "b_dag", "c", "c_dag")


def _omega_b_pencil(spec: SystemSpec, g: float, omega_b: np.ndarray) -> tuple:
    """``(A0', E, noise_input, weights, labels)``: the full drift of ``spec``
    at G = ``g`` as the pencil A0' + omega_b*E, bitwise ``spec``'s drift with
    mode b at each omega_b of ``omega_b``.  A0' is A0 + G*A1 (:func:`_pencil`)
    less mode b's frequency, E = diag(0, 0, -i, i, 0, 0) puts it back, and
    the <xi xi^dag> weights have a row per point, as mode b's bath does."""
    a0, a1, b, corr, labels = _pencil(spec, rotating_wave=False)
    a0 = a0 + g * a1
    a0.imag[[2, 3], [2, 3]] = 0.0
    nb = _thermal_occupations(omega_b, spec.mode_b.bath_temperature)
    weights = np.repeat(corr[:1], omega_b.size, axis=0)
    weights[:, 2], weights[:, 3] = nb + 1, nb
    return a0, np.diag([0, 0, -1j, 1j, 0, 0]), b, weights, labels


def build_rwa_system(spec: SystemSpec) -> DriftModel:
    """The rotating-wave model: :func:`build_full_system` with every
    counter-rotating entry zeroed, in the same basis.

    Its annihilation rows implement

        da/dt = (-i*omega_a - gamma_a/2) a - i*lambda b + sqrt(gamma_a) a_in
        db/dt = (-i*omega_b - gamma_b/2) b - i*lambda a + i*alpha*g0 c
                + sqrt(gamma_b) b_in
        dc/dt = (i*Delta - kappa/2) c + i*alpha*g0 b + sqrt(kappa) c_in

    and the creation rows their conjugates.
    """
    a0, a1, *inputs = _pencil(spec, rotating_wave=True)
    return DriftModel(6, a0 + _drive(spec) * a1, *inputs)


def build_full_system(spec: SystemSpec) -> DriftModel:
    """The 6x6 system retaining counter-rotating terms (see :func:`_pencil`)."""
    a0, a1, *inputs = _pencil(spec, rotating_wave=False)
    return DriftModel(6, a0 + _drive(spec) * a1, *inputs)


def _drive(spec: SystemSpec) -> float:
    """G = |alpha|*g0 of ``spec``, refused if it overflowed: G*A1 would be inf*0 = NaN."""
    if not math.isfinite(g := spec.cavity.alpha_g0):
        raise NumericsError(f"linearized coupling |alpha|*g0 = {g!r} is not finite")
    return g


def stability_eigenvalues(model: DriftModel) -> np.ndarray:
    """Eigenvalues of the drift matrix (complex, rad/s).

    The system is stable iff every real part is negative.
    """
    try:
        return np.linalg.eigvals(model.drift)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - rare
        raise NumericsError(f"eigensolver failed: {exc}") from exc
