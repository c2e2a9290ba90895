"""Exact frequency-domain solution of a linear Langevin DriftModel.

Every model is solved in the conjugate-paired basis :class:`DriftModel`
holds it to.  Builds adaptive frequency grids around
every resonance of the drift matrix, solves for the needed rows of the
susceptibility (-i*omega*I - A)^-1 in batch (at omega >= 0, the rows at
-omega by conjugation), propagates the thermal input correlators into
position fluctuation spectra S_xx(omega), integrates occupations, fits
Lorentzian lines, and evaluates the fluctuating-force density seen by a
selected mode.  The stationary occupation comes from the steady-state
covariance instead: one real linear solve of the exact Lyapunov
equation, with no grid, within 5e-16 of a 40-digit solve where measured.

Needs numpy alone: the line fit's peak test and least-squares solve are
its own (:func:`_peaks`, :func:`_levenberg_marquardt`).
"""

from __future__ import annotations

import contextlib
import functools
import math
from dataclasses import dataclass

import numpy as np

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
    _conjugate_swap,
    effective_temperature,
    stability_eigenvalues,
)

__all__ = [
    "FrequencyGrid",
    "SpectrumResult",
    "LorentzFit",
    "ForceSpectrumResult",
    "make_grid",
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
MAX_FIT_EVALUATIONS = 2000     # function evaluations one line fit may use

# numpy < 2 names the trapezoidal rule ``trapz``
_trapezoid = getattr(np, "trapezoid", None) or np.trapz


@dataclass(frozen=True)
class FrequencyGrid:
    """Sorted angular-frequency grid with its densification anchors.

    ``clusters`` records (center, linewidth) pairs for every resonance the
    grid was built around.  ``points`` is a read-only copy of the points
    given, so the caller's array stays writeable; they must be finite.
    """

    points: np.ndarray
    clusters: tuple

    def __post_init__(self):
        pts = np.array(self.points, dtype=float)
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)
        if pts.ndim != 1 or pts.size < 4:
            raise ValueError("grid needs at least 4 points")
        if not np.all(np.isfinite(pts)):
            raise ValueError("grid points must be finite")
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
    """Position fluctuation spectrum of one mode plus derived quantities (``T_eff``
    NaN for a mode at zero frequency)."""

    grid: FrequencyGrid
    values: np.ndarray
    n_eff: float
    n_eff_error: float
    T_eff: float
    select: str


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
    eigs = model._memo.get("eigs")
    if eigs is None:
        eigs = model._memo["eigs"] = stability_eigenvalues(model)
    error = _instability(eigs)
    if error is not None:
        raise error
    return eigs


def _instability(eigs: np.ndarray) -> UnstableSystemError | None:
    """The error for drift eigenvalues with a non-negative real part, if any.

    They are listed by imaginary part, then real part, and formatted as
    complex numbers even when ``eigs`` is a real array.  An imaginary part
    within 1e3*eps*max|lam|, roundoff of the complex eigensolve on a real
    eigenvalue, is written as 0, so both eigensolves give one message.
    """
    bad = eigs[eigs.real >= 0].astype(complex)
    if not bad.size:
        return None
    bad.imag[np.abs(bad.imag) <= 1e3 * np.finfo(float).eps * np.abs(eigs).max()] = 0.0
    return UnstableSystemError(
        "drift matrix has non-negative-real-part eigenvalue(s): "
        + ", ".join(f"{z:.6g}" for z in bad[np.lexsort((bad.real, bad.imag))])
    )


def make_grid(
    model: DriftModel,
    span_linewidths: float = DEFAULT_SPAN,
    points_per_linewidth: float = DEFAULT_POINTS_PER_LW,
    log_points: int = DEFAULT_LOG_POINTS,
) -> FrequencyGrid:
    """Adaptive grid covering every resonance of the drift matrix.

    Each eigenvalue of ``model.drift`` contributes a cluster at its
    resonance frequency: linear sampling (``points_per_linewidth`` per
    linewidth) within +-5 linewidths, log-spaced fill out to
    ``span_linewidths``.  The conjugate eigenvalues give the
    negative-frequency clusters.  Degenerate resonances share one center
    (:func:`_clusters`), so the grid does not depend on the last bits of
    the eigensolve.  Refuses unstable models, and an overflowing extent (NumericsError).

    The grid is the positive points, their negations and omega = 0 (an odd
    count, so :meth:`FrequencyGrid.halved` is mirror-symmetric too), less
    the positive points nearest zero that would exceed the clusters'
    count.  :func:`_solve_rows` then solves only the omega >= 0 half.
    The grid, and the eigenvalues, are kept on the immutable ``model`` by
    the call's arguments, so a second call returns the same object.
    """
    if span_linewidths < 5:
        raise ValueError("span_linewidths must be >= 5")
    key = (span_linewidths, points_per_linewidth, log_points)
    if key in model._memo:
        return model._memo[key]
    clusters = _clusters(_require_stable(model))
    centers, widths = map(np.array, zip(*clusters))

    # every cluster's log fill runs out to the global grid extent, so a
    # narrow line's power-law tail is never left to another cluster's
    # coarse sampling
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite extent is refused
        lo = np.min(centers - span_linewidths * widths)
        hi = np.max(centers + span_linewidths * widths)
        if not np.isfinite(hi - lo):
            raise NumericsError(f"frequency grid extent [{lo:.6g}, {hi:.6g}] rad/s is not finite")
    n_dense = int(round(10 * points_per_linewidth)) + 1
    # offsets from the center, so clusters sharing a center share it bitwise
    dense = centers[:, None] + widths[:, None] * np.linspace(-5.0, 5.0, n_dense)
    right = np.maximum(hi - centers, span_linewidths * widths)
    left = np.maximum(centers - lo, span_linewidths * widths)
    fills = np.geomspace(5 * np.tile(widths, 2), np.concatenate((right, left)), log_points + 1, axis=1)
    tail_r, tail_l = np.split(fills[:, 1:], 2)
    pieces = (dense, centers[:, None] + tail_r, centers[:, None] - tail_l)
    points = np.unique(np.concatenate([x.ravel() for x in pieces]))
    half = points[points > 0]
    half = half[max(half.size - (points.size - 1) // 2, 0) :]
    points = np.concatenate((-half[::-1], [0.0], half))
    return model._memo.setdefault(key, FrequencyGrid(points=points, clusters=tuple(clusters)))


def _clusters(eigs: np.ndarray) -> list:
    """(center, linewidth) of every eigenvalue, degenerate ones merged.

    The eigenvalues are taken narrowest line first.  A center within ``tol``
    of an earlier one of the same sign takes that center's value, and a
    cluster whose width is also within 1e-9 of its own is dropped.  ``tol`` is
    1e-9 of the width or 1e-12 of the largest |eigenvalue|, whichever is larger:
    the eigensolve places degenerate eigenvalues a few ulps of the largest one
    apart, which can exceed 1e-9 of a narrow line.  Only the centers take that
    floor, and not across zero: under a far broader cavity it would merge the
    lines of modes a and b, and each with its mirror.  Since ``tol`` grows with
    the width, the order fixes which lines merge; narrowest first, it does not
    depend on the eigensolver's order, so conjugate pairs' clusters mirror.
    """
    floor = 1e-12 * float(np.max(np.abs(eigs)))
    clusters = []
    for eig in eigs[np.argsort(-eigs.real, kind="stable")]:
        center, width = -eig.imag, -2.0 * eig.real
        tol = max(1e-9 * width, floor)
        same = [c for c in clusters if abs(c[0] - center) <= tol and c[0] * center >= 0]
        if same:
            center = same[0][0]
            if any(abs(w - width) <= 1e-9 * width for _, w in same):
                continue
        clusters.append((center, width))
    return clusters


def _mirrors(omegas: np.ndarray) -> tuple:
    """``(mirror, solve, at)`` slices: the omegas mirrored from their negations,
    the omegas solved, and where in ``omegas[solve]`` each mirror's negation is.
    The omegas < 0 are mirrored when they negate the largest omegas, as on
    every made grid and its halving; else none is.  Found by no search.
    ValueError unless ``omegas`` is strictly increasing."""
    if not np.all(np.diff(omegas) > 0):
        raise ValueError("omegas must be strictly increasing")
    n, h = omegas.size, int(np.searchsorted(omegas, 0.0))  # the omegas < 0 come first
    if h and np.array_equal(omegas[n - h :], -omegas[h - 1 :: -1]):
        return slice(h - 1, None, -1), slice(h, None), slice(n - 2 * h, n - h)
    return slice(0), slice(None), slice(0)


def _solve_rows(model: DriftModel, omegas: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Rows ``rows @ chi(omega)`` of the susceptibility, shape (n, k, d).

    Solves y T = u with T = -i*omega*I - A for each of the k rows u of
    ``rows`` (:func:`_eliminate`).  As A = P conj(A) P (:class:`DriftModel`),
    the row at -omega is y_u(-omega) = conj(y_u'(omega)) P, u' = conj(u) P
    the mate of u, so an omega < 0 that :func:`_mirrors` pairs with its
    negation is not eliminated.  One elimination solves the rows and, where
    some omega is mirrored, the mates they lack: rows [u, e_a] with
    u = e_a + e_a_dag, its own mate, solve the three rows u, e_a and
    e_a_dag.  A grid with nothing to mirror solves the rows alone.
    ``omegas`` must be strictly increasing (ValueError).  No eigen or
    Schur transform.

    This is the one place rows are eliminated, gated and mirrored.  The
    eliminated rows, mates included, are gated and refined where they
    were eliminated (:func:`_gate`), before the mirrored rows are placed:
    T(-omega) = P conj(T(omega)) P exactly, so a mirrored row's residual
    is its twin's, conjugated and permuted, and a mirrored row is bitwise
    the conjugate of its twin's gated, refined value.  So every returned
    row meets the gate, and a grid with nothing to mirror is gated at
    every point.  Each row's bits do not depend on the other rows solved
    with it, unless the gate refines them.

    The rows at one omega do not depend on the other omegas: the
    elimination, the gate and the refinement work omega by omega.  So a
    mirror-symmetric grid and its halving, which :func:`_mirrors` pairs
    throughout, give the same bits at the points they share
    (:func:`position_spectrum` reads its halved grid so).
    """
    a = model.drift
    u = np.asarray(rows, dtype=complex)
    k = u.shape[0]
    perm = _conjugate_swap(model.labels)
    mirror, solve, at = _mirrors(omegas)
    mates = u[:, perm].conj()
    hits = np.all(mates[:, None, :] == u[None, :, :], axis=2)
    lack = ~hits.any(axis=1) & (omegas[mirror].size > 0)  # a mate only for a mirrored row
    solved = np.concatenate((u, mates[lack]))
    twin = np.where(lack, k - 1 + np.cumsum(lack), hits.argmax(axis=1))  # each row's mate in solved
    z = _eliminate(a, omegas[solve], solved).T  # (d, k + mates lacked, n_solve)
    _gate(a, omegas[solve], solved, z)
    y = np.empty((z.shape[0], k, omegas.size), dtype=complex)
    y[..., solve] = z[:, :k]
    y[..., mirror] = z[..., at][perm][:, twin].conj()
    return y.T


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _gate(a: np.ndarray, omegas: np.ndarray, u: np.ndarray, y: np.ndarray):
    """Refine, in place, the rows ``y`` (d, k, n) of y T = u (``u`` is (k, d))
    at each omega where they miss the residual gate.

    The gate is the worst relative residual ||y T - u|| / (||T|| ||y||)
    of the rows at an omega: where that is not within RESIDUAL_TOL (NaN
    included), every row at that omega gets one refinement step, so a row
    that passes is refined with one that misses; NumericsError if the
    worst still misses.  The residual costs O(n k d^2) and forms no matrix
    stack: T's diagonal -i*omega - A_jj is formed first, as inside T, so
    omega - omega_j is exact near a resonance, and ||T||_F comes in
    closed form.  An overflow fails the gate as inf or NaN, unwarned.
    """
    d = a.shape[0]
    shift = -1j * omegas - np.diag(a)[:, None]
    off = a - np.diag(np.diag(a))
    t_norm = np.sqrt(np.sum(np.abs(off) ** 2) + _sum_abs2(shift))

    def residual(sel):
        """y T - u, as (d, k, n), and the worst relative residual per omega, on ``sel``."""
        ys = y[..., sel]
        r = ys * shift[:, None, sel]
        r -= (off.T @ ys.reshape(d, -1)).reshape(ys.shape)
        r -= u.T[..., None]
        rel = np.sqrt(_sum_abs2(r) / _sum_abs2(ys)) / t_norm[sel]
        return r, rel.max(axis=0)

    resid, rel = residual(slice(None))
    bad = ~(rel <= RESIDUAL_TOL)
    if np.any(bad):
        y[..., bad] -= _eliminate(a, omegas[bad], resid.T[bad]).T
        _, rel_bad = residual(bad)
        if np.any(~(rel_bad <= RESIDUAL_TOL)):
            i = int(np.argmax(rel_bad))  # np.argmax picks a NaN first
            raise NumericsError(
                "susceptibility residual "
                f"{rel_bad[i]:.3g} exceeds {RESIDUAL_TOL} at "
                f"omega={omegas[np.flatnonzero(bad)[i]]:.6g} rad/s"
            )


def _sum_abs2(z: np.ndarray) -> np.ndarray:
    """|z|^2 summed over the first axis: ``(z.real**2 + z.imag**2).sum(axis=0)``,
    with one temporary fewer."""
    sq = z.real**2
    sq += z.imag**2
    return sq.sum(axis=0)


def _eliminate(a: np.ndarray, omegas: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Rows y (n, k, d) with y T = u at every omega, T = -i*omega*I - A.

    Gaussian elimination with partial pivoting on T^T = -A^T - i*omega*I,
    each column's pivot its largest |Re| + |Im| (the rule of LAPACK
    zgetrf; :func:`_pivot`).  The augmented system is held as (row,
    column, omega), so every pivot, swap, update and back-substitution
    step is a vector operation over the grid.  ``u`` broadcasts to
    (n, k, d).  An exactly zero pivot raises NumericsError.  Not an eigen
    or Schur form: a unitary transform moves the poles by about
    eps*||A||, which is not small next to the narrowest linewidths.

    Each step works only on the rows that can be nonzero in its column
    and the columns its pivot row can fill (:func:`_band`); every entry
    it skips is an exact zero.  Every entry it computes takes the same
    operations, in the same order, as the dense elimination over every
    row and column: the same pivot, the factor as the entry times the
    reciprocal pivot, the back substitution's products summed column by
    column as ``np.sum`` sums over its first axis.  So the result is the
    dense elimination's bit for bit, and a dense A runs exactly as the
    dense one.

    Its memory is the augmented matrix, the rows y and temporaries of
    one matrix row each: the diagonal is shifted, the rows are swapped
    and updated, and y is summed one row at a time.  No scratch array the
    size of the augmented matrix is kept: a block larger than any glibc
    has freed is mapped afresh on every call, and its pages fault in again.
    """
    d, n = a.shape[0], omegas.size
    u = np.broadcast_to(u, (n,) + u.shape[-2:])
    m = np.empty((d, d + u.shape[1], n), dtype=complex)
    m[:, :d] = -a.T[:, :, None]
    shift = 1j * omegas
    for i in range(d):
        m[i, i] -= shift
    m[:, d:] = u.transpose(2, 1, 0)
    rows, cols = _band(d, (a != 0).tobytes())
    scratch = np.empty(n), np.empty(n), np.empty(n, dtype=bool)
    for j in range(d):
        below = range(d)[rows[j]][1:]  # the candidate rows under the diagonal
        if below:
            _pivot(m, j, below, *scratch)
        if not np.all(m[j, j] != 0):
            _raise_singular(a, omegas)
        if not below:
            continue
        inv = 1.0 / m[j, j]
        fill = cols[j]
        through = fill.step == 1 and fill.stop == d  # fill and right-hand sides in one update
        parts = (slice(fill.start, None),) if through else (fill, slice(d, None))
        for r in below:
            f = m[r, j] * inv
            for part in parts:
                m[r, part] -= f * m[j, part]
    y = np.empty_like(m[:, d:])
    acc = np.empty_like(y[0])
    for i in range(d - 1, -1, -1):
        c = range(d)[cols[i]]
        if c:
            np.multiply(m[i, c[0]], y[c[0]], out=acc)
            for col in c[1:]:
                acc += m[i, col] * y[col]
            np.subtract(m[i, d:], acc, out=y[i])
        else:
            y[i] = m[i, d:]
        y[i] /= m[i, i]
    return y.T


def _pivot(m: np.ndarray, j: int, below: range, best: np.ndarray, key: np.ndarray, win: np.ndarray):
    """Swap into row j of the augmented system ``m`` (row, column, omega), at
    each omega, the row of j and ``below`` whose column-j entry has the
    largest |Re| + |Im|.

    The rows are compared one at a time, and a later row takes the pivot
    only where its key is strictly larger or is the first NaN: the rule of
    ``np.argmax`` over the rows.  Each swap is a masked copy over the
    omegas that row won.  ``best`` and ``key`` (float) and ``win`` (bool)
    are (n,) scratch.
    """
    np.abs(m[j, j].real, out=best)
    best += np.abs(m[j, j].imag)
    p, won = None, []
    for r in below:
        np.abs(m[r, j].real, out=key)
        key += np.abs(m[r, j].imag)
        np.less_equal(key, best, out=win)  # False where row r wins, or at a NaN
        if win.all():
            continue
        np.logical_not(win, out=win)
        win &= best == best  # a NaN already chosen keeps the pivot
        if win.any():
            if p is None:
                p = np.zeros(best.size, dtype=np.intp)  # row j's own pivot, as r > j >= 0
            np.copyto(p, r, where=win)
            np.copyto(best, key, where=win)
            won.append(r)
    if won:
        row_j = m[j, j:].copy()
        for r in won:
            np.equal(p, r, out=win)
            np.copyto(m[j, j:], m[r, j:], where=win)
            np.copyto(m[r, j:], row_j, where=win)


@functools.lru_cache(maxsize=16)
def _band(d: int, pattern: bytes) -> tuple:
    """Where the elimination of T^T = -A^T - i*omega*I can meet nonzeros.

    ``rows[j]`` is a slice from j over every row that can be nonzero in
    column j at step j, and ``cols[j]`` a slice over every column > j in
    which the pivot row of step j can be nonzero.  From the zero pattern
    of A^T (plus the diagonal), with the fill of partial pivoting: any
    candidate row may become the pivot, so after the step each candidate
    holds the union of their patterns.  The RWA's two decoupled chains
    give slices of step 2.  ``pattern`` is the bytes of the (d, d) bool
    array A != 0; every model of one builder shares it, so it is cached.
    """
    s = np.frombuffer(pattern, dtype=bool).reshape(d, d).T | np.eye(d, dtype=bool)
    rows, cols = [], []
    for j in range(d):
        cand = j + np.flatnonzero(s[j:, j])
        s[cand] = s[cand].any(axis=0)
        rows.append(_slice(cand))
        cols.append(_slice(j + 1 + np.flatnonzero(s[j, j + 1 :])))
    return tuple(rows), tuple(cols)


def _slice(idx: np.ndarray) -> slice:
    """The slice with the longest step that covers the sorted indices ``idx``."""
    if not idx.size:
        return slice(0, 0)
    step = int(np.gcd.reduce(np.diff(idx))) or 1  # the gcd of no differences is 0
    return slice(int(idx[0]), int(idx[-1]) + 1, step)


@functools.lru_cache(maxsize=16)
def _blocks(d: int, pattern: bytes) -> tuple:
    """The block of each index: the lowest index a path joins it to in the
    graph of A != 0, edges taken either way.

    ``pattern`` is the bytes of the (d, d) bool array A != 0, cached as
    for :func:`_band`.  The RWA keeps the annihilation and the creation
    operators in two blocks; the full model's counter-rotating terms join
    them into one.
    """
    s = np.frombuffer(pattern, dtype=bool).reshape(d, d)
    reach = s | s.T | np.eye(d, dtype=bool)
    while True:
        wider = (reach.astype(int) @ reach) > 0
        if np.array_equal(wider, reach):
            return tuple(reach.argmax(axis=1).tolist())
        reach = wider


def _raise_singular(a: np.ndarray, omegas: np.ndarray):
    """NumericsError naming the omega of ``omegas`` closest to a pole of A."""
    dist = np.abs(-1j * omegas[:, None] - np.linalg.eigvals(a)).min(axis=1)
    i = int(np.argmin(dist))
    raise NumericsError(
        f"singular susceptibility near omega={omegas[i]:.6g} rad/s "
        f"(drift eigenvalue within {dist[i]:.3g} of the pole)"
    )


def position_spectrum(
    model: DriftModel, select: str, grid: FrequencyGrid | None = None
) -> SpectrumResult:
    """Position fluctuation spectrum S_xx(omega) for x = a + a_dag.

    In the conjugate-paired basis the quadrature is the susceptibility row
    u = e_select + e_select_dag, so S_xx = |u chi B|^2 . <xi xi^dag>, which
    covers both +-omega resonances and, as :class:`DriftModel` holds the
    correlations >= 0, is >= 0 unclipped.  Refuses unstable models.

    One row solve (:func:`_solve_rows`) gives the values.  For mode a,
    where a path joins ``a`` and ``a_dag`` in the graph of A != 0
    (:func:`_blocks`; every full drift), it solves [u, e_a], to which the
    row solve adds e_a's mate e_a_dag, and the model keeps e_a chi B
    beside the spectrum, which :func:`force_spectrum_numeric` reads on the
    same grid points instead of solving again.  Otherwise (every RWA
    drift, and modes b and c, whose e_select row nothing reads) it solves
    u alone.  Each row's bits are its own solve's, so the values are those
    of u solved alone.

    The model keeps its last solved spectrum of each mode.  A ``grid``
    that is the :meth:`FrequencyGrid.halved` of that spectrum's grid, both
    their own mirror images, takes its values from it, with no solve: each
    omega's row is solved on its own (:func:`_solve_rows`), so they are
    the bits a solve would give.  ``values`` is read-only.
    """
    r = _mode(model, select)
    key = ("spectrum", select)
    solved, solved_values, _ = model._memo.get(key, (None, None, None))
    if grid is not None and _reads_halved(grid.points, solved):
        values = solved_values[_every_other(solved.size)]
    else:
        grid = _grid(model, grid)
        u = _quadrature(model, select)
        blocks = _blocks(model.dimension, (model.drift != 0).tobytes())
        joined = select == "a" and blocks[r] == blocks[model.index("a_dag")]
        y = _solve_rows(model, grid.points, [u, np.eye(model.dimension)[r]] if joined else [u])
        values = np.abs(y[:, 0] @ model.noise_input) ** 2 @ model.input_correlations[0]
        kept = y[:, 1] @ model.noise_input if joined else None
        model._memo[key] = (grid.points, values, kept)
    values.setflags(write=False)
    n_eff, err = integrate_occupation(grid, values)
    if n_eff < 0:
        if n_eff < -1e-3:
            raise NumericsError(f"integrated occupation {n_eff:.4g} < 0")
        n_eff = 0.0
    # a mode at zero frequency (a cavity at zero detuning) has no temperature
    omega_sel = abs(model.drift[r, r].imag)
    t_eff = effective_temperature(n_eff, omega_sel) if omega_sel > 0 else math.nan
    return SpectrumResult(
        grid=grid,
        values=values,
        n_eff=n_eff,
        n_eff_error=err,
        T_eff=t_eff,
        select=select,
    )


def _reads_halved(points: np.ndarray, solved: np.ndarray | None) -> bool:
    """Whether ``points`` are the halved ``solved``, both their own mirror images.

    Both solves then mirror every omega < 0 (:func:`_mirrors`), and the
    halved values are the solved grid's bit for bit; a grid that is not
    its own mirror image may be eliminated at every point.  Only the halving is
    tested, not any subset: its indices come from :func:`_every_other`,
    by no search, and it is the one sub-grid a caller asks for
    (criterion 7's refinement check).
    """
    return (
        solved is not None
        and np.array_equal(solved, -solved[::-1])
        and np.array_equal(points, -points[::-1])
        and np.array_equal(points, solved[_every_other(solved.size)])
    )


def _grid(model: DriftModel, grid: FrequencyGrid | None) -> FrequencyGrid:
    """``grid``, made by :func:`make_grid` if None; refuses unstable models either way."""
    if grid is None:
        return make_grid(model)
    _require_stable(model)
    return grid


def _mode(model: DriftModel, select: str) -> int:
    """Index of mode ``select``: a label whose ``_dag`` mate is a label too."""
    if select not in model.labels or select + "_dag" not in model.labels:
        raise ValueError(f"unknown mode label {select!r}; have {model.labels}")
    return model.index(select)


def _quadrature(model: DriftModel, select: str) -> np.ndarray:
    """The row u = e_select + e_select_dag that reads x = select + select_dag."""
    u = np.zeros(model.dimension)
    u[[model.index(select), model.index(select + "_dag")]] = 1.0
    return u


@np.errstate(over="ignore", invalid="ignore")
def steady_state_occupation(model: DriftModel, select: str) -> float:
    """Stationary occupation (u Sigma u^T - 1) / 2 of mode ``select``.

    Sigma = <v v^dag> solves A Sigma + Sigma A^dag + Q = 0 with
    Q = B diag(<xi xi^dag>) B^T, and u = e_select + e_select_dag, so
    u Sigma u^T = <x^2> is the integral (1/2pi) int S_xx dw that
    :func:`position_spectrum` approximates by quadrature.  The equation
    is exact, and its backward-stable solve (:func:`_occupations`) is
    accurate to eps*max|lam|/min(-Re lam) relative at worst, lam the
    drift eigenvalues; the drift A is solved as the pencil (A, 0) at G = 0.
    Refuses unstable models; NumericsError when the Lyapunov residual
    exceeds RESIDUAL_TOL.
    """
    a, perm = model.drift, _conjugate_swap(model.labels)
    pencil = _prepare_noise(a, np.zeros_like(a), model.noise_input, model.input_correlations[0], perm)
    occupation = _occupations(pencil, np.zeros(1), _mode(model, select))
    if occupation.errors:
        raise occupation.errors[0]
    return float(occupation.n[0])


@dataclass(frozen=True)
class _Occupations:
    """Occupations ``n`` of a batch (NaN where a point failed), ``slope`` alike or None
    unless asked for, and each failed point's BathcoolError by index, in index order."""

    n: np.ndarray
    slope: np.ndarray | None
    errors: dict


@dataclass(frozen=True)
class _Noise:
    """A prepared pencil A(G) = A0 + G*A1 and its noise: all that
    :func:`_occupations` needs which no G moves.

    G is the pencil's parameter: the linearized coupling of a cooperativity
    sweep, mode b's frequency of a detuning sweep, or 0 for one drift A
    as the pencil (A, 0).  ``fold`` holds :func:`_fold`'s tables for the
    conjugate swap ``perm``.  ``a0`` and ``a1`` are the drift's parts, and
    ``ops`` their folded operators (:func:`_operator`) L1 and L0,
    flattened, as (2, m*m).  The noise side has one row, or one row per
    point where Q varies along the column: ``qf`` is the folded Q that is
    solved, ``q_floor`` a Gershgorin lower bound on its lambda_min,
    ``q_norm`` its Frobenius norm and ``q_rounding`` gamma_{h+2} ||Q||_F,
    qf's share of the residual's rounding.

    The rest serves the residual and the certificate (:meth:`certified`),
    which work on the folded coordinates and not on drift matrices:
    ``parts`` holds ||A0||_F^2, 2 Re<A0, A1> and ||A1||_F^2, so
    ||A0 + G*A1||_F^2 = (1, G, G^2) @ parts; ``nu`` holds gamma_{k+3} nu1
    and gamma_{k+3} nu0, the rounding of the residual per unit ||Sigma||_F
    and |G| or 1 (:func:`_nu`); and ``shift`` is d^2 eps I, the Cholesky
    test's backward error per unit ||Sigma||_F.  :attr:`modal` is the
    pencil's eigendecomposition about the G ``origin``, prepared on the
    first call that uses it.
    """

    perm: np.ndarray
    fold: tuple
    a0: np.ndarray
    a1: np.ndarray
    ops: np.ndarray
    qf: np.ndarray
    q_floor: np.ndarray
    q_norm: np.ndarray
    q_rounding: np.ndarray
    parts: np.ndarray
    nu: np.ndarray
    shift: np.ndarray
    origin: float

    @functools.cached_property
    def modal(self) -> tuple | None:
        """``(d, V, W, L(o), o)`` of the pencil L(G) = L0 + G*L1 about its
        ``origin`` o, L(G) = L(o) (I - (G - o) K): K = -L(o)^-1 L1 =
        V diag(d) V^-1 and W = V^-1 L(o)^-1 = (L(o) V)^-1, so
        L(G)^-1 = V diag(1/(1 - (G - o) d)) W, with poles at G = o + 1/d.
        None where L(o) is singular or the preparation is not finite: such
        a pencil takes the LU.  About 0.15 ms, once per pencil, as
        :func:`_occupations` reads it only on a call of _MODAL_POINTS
        points or more."""
        m = self.qf.shape[1]
        l1, l0 = self.ops.reshape(2, m, m)
        try:
            with np.errstate(all="ignore"):  # a non-finite part is refused below
                lo = l0 + self.origin * l1 if self.origin else l0  # L(o); about 0, L0 itself
                d, v = np.linalg.eig(-np.linalg.solve(lo, l1))
                w = np.linalg.inv(lo @ v)
        except np.linalg.LinAlgError:
            return None
        parts = (d, v, w, lo)
        return (*parts, self.origin) if all(np.isfinite(x).all() for x in parts) else None

    def certified(self, sel, at, g, y, r_norm, s_norm) -> np.ndarray:
        """The points of the mask ``sel`` whose solved Sigma certifies them
        stable (:func:`_occupations`): the points ``at`` of the column
        ``g``, with their folded Sigma ``y`` (n, m, 1), ||R||_F and
        ||Sigma||_F."""
        nu1, nu0 = self.nu
        q_rounding, q_floor = _rows(self.q_rounding, at), _rows(self.q_floor, at)
        # ||R||_F + t < L; a non-finite Sigma has a non-finite t, so it fails the bound
        ok = sel & (r_norm + ((nu0 + np.abs(g) * nu1)[at] * s_norm + q_rounding) < q_floor)
        fits = _where(ok)
        s = _hermitian(y[fits, :, 0], self.fold[2], self.perm.size)
        ok[fits] = _positive_definite(s - s_norm[fits, None, None] * self.shift)
        return ok


# A covariance call of this many points or more takes its pencil's modal form
# (_Noise.modal).  On the README pencil a call with its preparation broke even
# with the LU at about 56 points (0.94 of its time at 64, 0.49 at 301, one
# BLAS thread); below this, calls stay bitwise the LU.
_MODAL_POINTS = 64


def _modal_solve(modal: tuple, ops: np.ndarray, g: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Rows y with L(G) y = ``rhs`` at each G of the column ``g``: the modal
    inverse of the pencil (:attr:`_Noise.modal`), then one refinement step
    y += L(G)^-1 (rhs - L(G) y), L(G) = L(o) + (G - o) L1 with ``ops``
    (2, m*m) = (L1, L0).  V's condition (8e8 to 4e9 on the README pencils)
    costs the modal form alone up to 1e-8 relative; the step, whose
    residual is formed from L(o) and L1 directly, brings it to the LU's
    rounding.  Where G*L1 cancels part of L0 (along omega_b, mode b's
    frequency against mode a's), that needs an origin o near the column:
    about 0, the step left up to 1e-11 relative on criterion-7 draws;
    about omega_a, 1e-15.  A G at or past a pole gives a meaningless or
    non-finite y, which the gates of :func:`_occupations` refuse."""
    d, v, w, lo, origin = modal
    l1 = ops.reshape(2, *v.shape)[0]
    dg = g[:, None] - origin
    with np.errstate(all="ignore"):
        c = 1.0 / (1.0 - dg * d)
        inverse = lambda x: ((c * (x @ w.T)) @ v.T).real
        y = inverse(rhs)
        return y + inverse(rhs - y @ lo.T - dg * (y @ l1.T))


def _prepare_noise(a0, a1, b, weights, perm, origin=0.0) -> _Noise:
    """The :class:`_Noise` of the pencil A0 + G*A1, its noise inputs ``b``
    and their <xi xi^dag> ``weights`` (see :func:`_occupations`): one
    row (d,), or one row per point (n, d), as a detuning sweep moves mode
    b's bath occupation with its frequency.  The modal form is taken
    about the G ``origin``.  The only place that folds drifts into
    operators: a call of :func:`_occupations` adds them."""
    d = b.shape[-2]
    fold = _fold(d, tuple(perm.tolist()))
    op, qmap, unfold, _, w, _ = fold
    m = qmap.shape[1]
    eps = np.finfo(float).eps
    q = (b * weights[..., None, :]) @ b.swapaxes(-1, -2)
    qf = (q.reshape(q.shape[:-2] + (d * d,)) @ qmap).reshape(-1, m)  # the Q that is solved
    qs = _hermitian(qf, unfold, d)
    # Gershgorin: lambda_min(Q) >= min_i Q_ii - sum_(j != i) |Q_ij|; 2 d eps covers its rounding
    rows = (1 + 2 * d * eps) * np.abs(qs).sum(axis=2)
    q_floor = (2 * qs.diagonal(axis1=1, axis2=2).real - rows).min(axis=1)
    pair = np.stack((a1, a0))
    ops = _operator(pair, op, m).reshape(2, m * m)
    # ||A0||_F^2, 2 Re<A0, A1> and ||A1||_F^2 from the float views' Gram matrix
    v = pair.reshape(1, 2, -1).view(float)
    parts = (v @ v.swapaxes(1, 2)).reshape(4)[[3, 1, 0]]
    parts[1] *= 2.0
    q_norm = np.sqrt(np.square(qf) @ w)
    q_rounding = (math.ceil(m / 2) + 3) * (eps / 2) * q_norm  # gamma_{h+2} ||Q||_F
    shift = d * d * eps * np.eye(d)
    return _Noise(perm, fold, a0, a1, ops, qf, q_floor, q_norm, q_rounding, parts, _nu(ops, w), shift, origin)


def _nu(ops: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """gamma_{k+3} nu1 and gamma_{k+3} nu0 of the folded operators ``ops``
    (2, m*m) = (L1, L0) and the coordinates' ``weights`` W (:func:`_fold`):
    nu = sqrt(||M||_1 ||M||_inf) >= ||M||_2 of M = W^1/2 |L| W^-1/2, k the
    most nonzeros in a row of [L0 L1].  M's row and column sums come from
    |L| and the vectors W^+-1/2 by BLAS products, so no weighted copy of
    |L| is made.  Each sum passes m + 2 roundings at most, and the (k+4) u
    taken for gamma_{k+3} also covers them, nu's and t's."""
    root = np.sqrt(weights)
    a = np.abs(ops).reshape(2, root.size, root.size)
    row_sums = (a @ (1.0 / root)) * root  # ||M||_inf
    column_sums = (root @ a) / root  # ||M||_1
    norms = np.sqrt(row_sums.max(axis=1) * column_sums.max(axis=1))
    k = np.count_nonzero(a, axis=(0, 2)).max()
    return (k + 4) * (np.finfo(float).eps / 2) * norms


def _drifts(noise: _Noise, g: np.ndarray, points: np.ndarray) -> np.ndarray:
    """The drifts A0 + G*A1 of the points ``points`` (indices into the column
    ``g``), bitwise those of the whole column."""
    return noise.a0 + g[points, None, None] * noise.a1


@np.errstate(over="ignore", invalid="ignore")  # an unstable point's Sigma may overflow its norms
def _occupations(noise: _Noise, g, r, slopes: bool = False) -> _Occupations:
    """Occupation of x = v_r + v_c, c = perm[r], at every drift A0 + G*A1 of the column ``g``.

    ``noise`` is the pencil and all that no G moves (:func:`_prepare_noise`),
    prepared once per pencil by a sweep; one drift A is the pencil (A, 0)
    at G = 0.  The noise side has one row or a row per point, and the
    pencil's finite drifts and A1 satisfy A = P conj(A) P, P the
    conjugate swap ``perm`` (:class:`DriftModel`).  A point whose drift is
    not finite is a NumericsError.  Where ||A||_F^2, from G and the
    pencil's norms, is finite, so is every entry; only where it is not
    (G past 1e154, say) and G is finite is the drift formed to be tested.
    Each solve's folded operators are (G, 1) (L1, L0) = G*L1 + L0, one
    product, bitwise those of A0 + G*A1 for the builders' pencils: each
    nonzero float-view component of A1 is +-1 where A0's is 0 (an entry
    +-i of the coupling, or mode b's frequency along omega_b) and every
    coefficient of the fold is 0, +-1/2, +-1 or +-2, so each entry
    rounds once either way.  Sigma comes from one batched real linear
    solve of A Sigma + Sigma A^dag = -Q on its real coordinates
    (:func:`_fold`), LU with partial pivoting: backward stable however
    ill-conditioned the eigenbasis.  Q becomes
    (Q + P conj(Q) P)/2, weight (2n+1)/2 per channel, so
    Sigma = P conj(Sigma) P has m = d(d+1)/2 coordinates y, not d^2, and
    u Sigma u^T is unchanged (u = e_r + e_c is real, u P = u).  It is
    read from y (``reads`` of :func:`_fold`), bitwise the sum over Sigma's
    Hermitian matrix, which only the certificate's Cholesky test forms.

    The residual R = A Sigma + Sigma A^dag + Q is formed on the same
    coordinates, r = G*(L1 y) + L0 y + qf in that order: one product of
    the batch with the pencil's (L1; L0).  The coordinates have disjoint
    supports in Sigma, so ||R||_F^2 = sum_k w_k r_k^2 and
    ||Sigma||_F^2 = sum_k w_k y_k^2 (the weights of :func:`_fold`), and
    ||A||_F comes from the pencil's three norms.  Each point's ||R||_F / (2 ||A|| ||Sigma|| + ||Q||), for
    this Q, must be within RESIDUAL_TOL, else NumericsError.

    A call of _MODAL_POINTS points or more solves by the pencil's modal
    form instead (:attr:`_Noise.modal`, :func:`_modal_solve`: a few
    batched 21-wide products and one refinement step, where the LU
    factors every operator); a smaller call and a pencil without a modal
    form take the LU.  Each point is solved once, and one pass through the
    gates below serves both solves: a certified modal Sigma that misses
    the residual gate is proved stable, and the LU solves it again with
    no second certificate and no eigensolve.

    Stability comes from the solve where it can.  For the computed S and
    the exact R of A = A0 + G*A1 and this Q, a left eigenvector
    v^dag A = lam v^dag gives 2 Re lam v^dag S v = v^dag (R - Q) v.  If S
    is positive definite and ||R||_F < lambda_min(Q), the right side is
    negative, so Re lam < 0 (Lyapunov's theorem).  So every finite point
    whose Q has a positive Gershgorin lower bound L <= lambda_min(Q) (exact
    for the builders' diagonal Q; positive for positive rates, even at
    T = 0) is solved first.  It is certified stable when the computed
    ||R||_F + t < L, which also needs S finite, and
    S - d^2 eps ||S||_F I passes :func:`_positive_definite` (d^2 eps the
    backward error of the Cholesky test; :meth:`_Noise.certified`), where

        t = gamma_{k+3} (nu0 + |G| nu1) ||S||_F + gamma_{h+2} ||Q||_F,

    gamma_n = n u / (1 - n u), u = eps/2 (Higham, Accuracy and Stability
    of Numerical Algorithms, section 3.1), h = ceil(m/2), k the most
    nonzeros in a row of [L0 L1] (8 on the full README pencil in G, 5 on
    the rwa one) and nu = sqrt(||M||_1 ||M||_inf) >= ||M||_2 of
    M = W^1/2 |L| W^-1/2 for each part L (``nu`` of :class:`_Noise`,
    prepared with the pencil: :func:`_nu`).  Along omega_b, A1 is
    E = diag(0, 0, -i, i, 0, 0): it shares diagonal entries with A0 but
    no float-view component, as omega_b is moved out of A0, so its
    products round as G's do; its L1 has one nonzero per row, and k is 9
    on the full README pencil in omega_b (the only one built).  A product in r
    passes k + 3 roundings at most: its dot product's, G's, the two sums'
    and the one of the stored L, whose entries each sum two of A's
    (:func:`_fold`); qf passes one.  So
    |r^ - r| <= gamma_{k+3} (|G| |L1| + |L0|) |y| + u |qf|, and in the
    weighted norm ||W^1/2 |L| |y|||_2 <= ||M||_2 ||S||_F.  The computed
    norm is within gamma_{h+1} of ||r^||, which is below L <= ||Q||_F
    where the test passes.  Each gamma_n is taken as (n + 1) u, which also
    covers the rounding of t.  Only the other points run an eigensolve,
    of the real quadrature form (``to_real`` of :func:`_fold`) of their
    drifts, which are formed for them alone (:func:`_drifts`), and
    :func:`_instability` words their error; a batch whose eigensolve
    raises LinAlgError is solved point by point, and a point that fails
    alone is a NumericsError.  So a singular Q (gamma_a = 0), a first
    solve that raises LinAlgError, or a modal S that the certificate
    refuses (past a pole) takes the eigensolve first; a stable point
    keeps its uncertified LU S under the residual gate, and the LU
    solves each other stable point.

    With ``slopes`` the record's ``slope`` is dn/dG, 0 for a drift (A, 0):
    dSigma/dG solves A S + S A^dag + A1 Sigma + Sigma A1^dag = 0 on the
    same operator, by the modal form where it gave every Sigma, else by
    the LU, and is read from its y as n is.  The record lists the errors
    by index, whichever gate found them.  A call whose points are all
    finite, solved and certified fills no buffer and builds no error table.

    Every gate fails on a non-finite value, so a point whose norms or
    Sigma overflow is decided by the eigensolve and the residual gate,
    with numpy's overflow and invalid warnings off.
    """
    p0, p1, p2 = noise.parts
    a_squared = p0 + g * (p1 + g * p2)  # ||A||_F^2
    # where it is finite, every |A_ij| is below sqrt(max): A is finite; where
    # G is not, A holds inf or inf * 0; only between is A formed to be tested
    finite = np.isfinite(a_squared)
    errors, at = {}, slice(None)  # the finite points: views, not copies, where all are
    qf, q_floor, q_norm, ops = noise.qf, noise.q_floor, noise.q_norm, noise.ops
    if not _all(finite):
        near = np.flatnonzero(~finite & np.isfinite(g))
        finite[near] = np.isfinite(_drifts(noise, g, near)).all(axis=(1, 2))
        non_finite = "drift matrix has non-finite entries"
        errors = {i: NumericsError(non_finite) for i in np.flatnonzero(~finite).tolist()}
        at = np.flatnonzero(finite)
        qf, q_floor, q_norm = (_rows(x, at) for x in (qf, q_floor, q_norm))
    gk = g[at]
    size = gk.size
    coef = np.empty((size, 1, 2))  # (G, 1) of (L1, L0)
    coef[:, 0, 0], coef[:, 0, 1] = gk, 1.0
    _, qmap, _, to_real, w, reads = noise.fold
    d, m = noise.perm.size, qmap.shape[1]
    solved = q_floor > np.zeros(size)  # one decision per point, Q shared or not
    modal = noise.modal if size >= _MODAL_POINTS else None  # the solve that gave every kept Sigma
    first, sigma = _where(solved), None  # y, ||R||_F and ||Sigma||_F where solved
    if np.count_nonzero(solved):
        try:
            sigma = _covariance(modal, ops, qf, coef, w, first)
        except np.linalg.LinAlgError:
            solved[:] = False
    if sigma is None or not isinstance(first, slice):  # zero rows where unsolved
        whole = np.zeros((size, m, 1)), np.zeros(size), np.zeros(size)
        for x, part in zip(whole, sigma or ()):
            x[first] = part
        sigma = whole
    y, r_norm, s_norm = sigma
    # below 0 only by rounding, where A0 nearly cancels G*A1
    a_norm = np.sqrt(np.maximum(a_squared[at], 0.0))
    resid = r_norm / (2 * a_norm * s_norm + q_norm)  # what the residual gate bounds
    ok = noise.certified(solved, at, g, y, r_norm, s_norm)
    if modal is not None:  # a certified Sigma above the gate is stable: the LU solves it below
        solved = ok & (resid <= RESIDUAL_TOL)
    k = _where(ok)
    if not isinstance(k, slice):
        rest = np.flatnonzero(~ok)
        points = np.arange(len(g))[at][rest]
        # A's spectrum from the real eigensolver, about half the work of the complex one
        drifts = _drifts(noise, g, points).view(float).reshape(-1, 2 * d * d)
        real_form = (drifts @ to_real).reshape(-1, d, d)
        try:
            lam = np.linalg.eigvals(real_form)
        except np.linalg.LinAlgError:  # one point at a time, NaN where it fails
            lam = np.full(real_form.shape[:2], complex(math.nan))
            for j, form in enumerate(real_form):
                with contextlib.suppress(np.linalg.LinAlgError):
                    lam[j] = np.linalg.eigvals(form)
        stable = np.all(lam.real < 0, axis=1)
        for i, eigs in zip(points[~stable].tolist(), lam[~stable]):
            errors[i] = _instability(eigs) or NumericsError("eigensolver did not converge")
        ok[rest[stable]] = True
        k = _where(ok)
    new = ok & ~solved  # stable, with no kept Sigma in y
    if np.count_nonzero(new):
        modal = None  # the LU solves every slope too
        y[new], r_norm[new], s_norm[new] = _covariance(None, ops, qf, coef, w, new)
        resid = r_norm / (2 * a_norm * s_norm + q_norm)
    ys = [y[k]]
    if slopes:
        ys.append(_solve(modal, ops, coef[k], -(ops[0].reshape(m, m) @ ys[0])))
    # <x^2> = u Sigma u^T with u = e_r + e_c: Re Sigma_rr + Re Sigma_rc + Re Sigma_cr + Re Sigma_cc
    rr, rc, cr, cc = reads[r]
    x, *slope = [v[:, rr, 0] + v[:, rc, 0] + v[:, cr, 0] + v[:, cc, 0] for v in ys]
    resid = resid[k]
    n = (x - 1.0) / 2.0  # the vacuum floor <x^2> = 1 is clipped to roundoff
    out = [np.maximum(n, 0.0), *(dn / 2.0 for dn in slope)]  # n, and the slope if solved
    failed = ~(resid <= RESIDUAL_TOL) | (n < -1e-9 * x)
    if errors or np.count_nonzero(failed):  # NaN at every failed point
        points = np.arange(len(g))[at][k]
        for j in np.flatnonzero(failed).tolist():
            message = f"steady-state occupation {n[j]:.4g} < 0"
            if not resid[j] <= RESIDUAL_TOL:
                message = f"Lyapunov residual {resid[j]:.3g} exceeds {RESIDUAL_TOL}"
            errors[int(points[j])] = NumericsError(message)
        whole = np.full((len(out), len(g)), math.nan)
        whole[:, points] = out
        whole[:, list(errors)] = math.nan
        out, errors = whole, dict(sorted(errors.items()))
    return _Occupations(out[0], out[1] if slope else None, errors)


def _solve(modal, ops: np.ndarray, coef: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Rows y (n, m, 1) with (G*L1 + L0) y = ``rhs`` at the (G, 1) rows ``coef`` of
    (L1, L0) ``ops``: by the modal form ``modal``, or by LU where it is None.

    The LU's operators are freed before Sigma is read back: a stack kept
    for the call (1 MiB at 301 points, which the modal form solves instead)
    lifts the heap peak to glibc's trim threshold, and every call then
    faults the heap in again.
    """
    if modal is not None:
        return _modal_solve(modal, ops, coef[:, 0, 0], rhs[..., 0])[..., None]
    m = rhs.shape[1]
    return np.linalg.solve((coef @ ops).reshape(-1, m, m), rhs)


def _covariance(modal, ops: np.ndarray, qf: np.ndarray, coef: np.ndarray, w: np.ndarray, sel) -> tuple:
    """``(y, ||R||_F, ||Sigma||_F)`` of the points ``sel``: their folded Sigma by
    :func:`_solve` and its norms (:func:`_residual`)."""
    qf, coef = _rows(qf, sel), coef[sel]
    y = _solve(modal, ops, coef, -qf[:, :, None])
    return (y, *_residual(ops, qf, coef[:, 0, 0], y[..., 0], w))


def _residual(ops: np.ndarray, qf: np.ndarray, g: np.ndarray, y: np.ndarray, w: np.ndarray) -> tuple:
    """``(||R||_F, ||Sigma||_F)`` of the folded Sigma rows ``y`` (n, m) at
    the drifts A0 + G*A1 of the column ``g``, with the pencil's ``ops``
    (:class:`_Noise`), the rows of ``qf`` (one or n) and the weights ``w``.
    R's folded coordinates are G*(L1 y) + L0 y + qf, in that order, from
    one product of the batch with (L1; L0).  ||X||_F^2 = sum_k w_k x_k^2
    of folded x."""
    m = y.shape[1]
    p = y @ ops.reshape(-1, m).T
    r = g[:, None] * p[:, :m] + p[:, m:] + qf
    return np.sqrt((r * r) @ w), np.sqrt((y * y) @ w)


def _rows(x: np.ndarray, sel) -> np.ndarray:
    """Rows ``sel`` of the noise side's per-point rows ``x``; one row serves every point."""
    return x if len(x) == 1 else x[sel]


def _operator(x: np.ndarray, op: np.ndarray, m: int) -> np.ndarray:
    """Folded operators (n, m, m) of A Sigma + Sigma A^dag, A the drifts ``x`` (:func:`_fold`)."""
    # a complex matrix enters by its float view, [Re A_00, Im A_00, Re A_01, ...]
    v = np.ascontiguousarray(x).view(float).reshape(-1, op.shape[0])
    return (v @ op).reshape(-1, m, m)


def _hermitian(y: np.ndarray, unfold: np.ndarray, d: int) -> np.ndarray:
    """The Hermitian matrices (n, d, d) of the folded coordinates ``y`` (:func:`_fold`)."""
    return (y.reshape(-1, unfold.shape[0]) @ unfold).view(complex).reshape(-1, d, d)


def _all(mask: np.ndarray) -> bool:
    """Whether every entry of ``mask`` is True: a count, a third of ``mask.all()``'s cost."""
    return np.count_nonzero(mask) == mask.size


def _where(mask: np.ndarray):
    """Index of the True entries of ``mask``; a slice, which indexes by views, if all are."""
    return slice(None) if _all(mask) else np.flatnonzero(mask)


def _positive_definite(h: np.ndarray) -> np.ndarray:
    """Whether each matrix of the finite Hermitian stack ``h`` is positive definite.

    One batched Cholesky factorization answers for a stack that passes
    throughout (0.15 ms for 301 6x6 matrices) with a finite factor; an
    overflowing update leaves NaN in it instead of raising.  Otherwise
    each matrix is tested by its smallest eigenvalue (eigvalsh, ~1 ms).
    """
    try:
        if _all(np.isfinite(np.linalg.cholesky(h))):
            return np.ones(len(h), dtype=bool)
    except np.linalg.LinAlgError:
        pass
    return np.linalg.eigvalsh(h)[:, 0] > 0


@functools.lru_cache(maxsize=4)
def _fold(d: int, perm: tuple) -> tuple:
    """``(op, qmap, unfold, to_real, weights, reads)``: A Sigma +
    Sigma A^dag on Sigma's real coordinates, and A's real quadrature form.

    A Hermitian Sigma has d^2 real coordinates, Re Sigma_ij (i <= j) and
    Im Sigma_ij (i < j).  Sigma -> P conj(Sigma) P, P the permutation
    matrix of ``perm``, sends each to +-1 times one coordinate; the folded
    space it fixes has basis vectors e_k + s e_k' (orbits of two) and e_k
    (fixed coordinates), read back by coordinate k.  The folded operator
    of A is its float view times ``op`` (m x m), the folded
    (Q + P conj(Q) P)/2 of a real Q is ``Q.ravel() @ qmap``, and the
    Hermitian matrix of folded coordinates y has the float view
    ``y @ unfold``.  Distinct coordinates fill disjoint entries, and a real
    part's entries in ``unfold`` are 0 or 1: ``reads[r]`` holds the one
    coordinate of each of Re Sigma_rr, Re Sigma_rc, Re Sigma_cr and
    Re Sigma_cc, c = perm[r], which read u Sigma u^T, u = e_r + e_c, exactly.  So
    ||Sigma||_F^2 = sum_k w_k y_k^2, ``weights`` w_k = ||unfold[k]||^2
    (2 or 4 where every coordinate has a mate), W = diag(w) (the ``nu``
    of :func:`_nu` weighs a folded operator L as W^1/2 |L| W^-1/2).
    ``to_real`` takes A's float view to M = U A U^-1, row-major, U mapping
    each pair i < Pi in turn to x = v_i + v_Pi and p = -i (v_i - v_Pi).
    For A = P conj(A) P, M is real with A's eigenvalues:
    M[x_k, x_l] = Re A_ij + Re A_{i,Pj},
    M[x_k, p_l] = -Im A_ij + Im A_{i,Pj}, M[p_k, x_l] = Im A_ij + Im A_{i,Pj}
    and M[p_k, p_l] = Re A_ij - Re A_{i,Pj} (pair k's i, pair l's j).  All
    entries are 0, +-1/2, +-1 or +-2, built exactly, and each entry of a
    folded operator or of M combines at most two entries of A or Q, so it
    is A's own roundoff (a 1/sqrt(2) basis change perturbs A by eps*||A||,
    more than the narrowest lines absorb) and the same bits in any batch.
    """
    n = d * d
    iu, ju = np.triu_indices(d)
    su, sv = np.triu_indices(d, 1)
    coords = lambda m: np.concatenate((m[..., iu, ju].real, m[..., su, sv].imag), axis=-1)
    basis = np.zeros((n, d, d), dtype=complex)  # basis[k] has coordinates e_k
    k, j = np.arange(iu.size), iu.size + np.arange(su.size)
    basis[k, iu, ju] = basis[k, ju, iu] = 1.0
    basis[j, su, sv], basis[j, sv, su] = 1j, -1j
    image = coords(basis[np.ix_(range(n), perm, perm)].conj())
    target = np.abs(image).argmax(axis=1)  # image[k] = sign[k] * e_target[k]
    keep = np.flatnonzero(np.arange(n) <= target)  # no coordinate maps to minus itself
    span = np.eye(n)[:, keep]
    span[target[keep], np.arange(keep.size)] = image[keep, target[keep]]
    real_a = np.eye(2 * n).reshape(2 * n, d, 2 * d).view(complex)  # float views e_t
    op = np.stack([coords(e @ basis + basis @ _dagger(e)).T for e in real_a])
    qmap = coords(real_a[::2])
    qmap = (qmap + qmap @ image) / 2.0
    unfold = (span.T @ basis.reshape(n, n)).view(float)
    i = np.flatnonzero(np.arange(d) < perm)  # rows x_k, p_k of M: 2 Re, 2 Im of row i of A U^-1
    u_inv = np.zeros((d, i.size, 2), dtype=complex)  # v_i, v_Pi = (x +- i p)/2
    u_inv[i, range(i.size)], u_inv[np.take(perm, i), range(i.size)] = (0.5, 0.5j), (0.5, -0.5j)
    rows = real_a[:, i] @ u_inv.reshape(d, d)
    # stacked into a C-contiguous array; .real alone is a strided view
    to_real = 2.0 * np.stack((rows.real, rows.imag), axis=2).reshape(2 * n, n)
    folded = (op @ span)[:, keep].reshape(2 * n, -1)
    weights = np.square(unfold).sum(axis=1)
    r, c = np.arange(d), np.array(perm)
    entries = np.stack((r * d + r, r * d + c, c * d + r, c * d + c), axis=1)
    reads = tuple(map(tuple, unfold.argmax(axis=0)[2 * entries].tolist()))
    return folded, qmap[:, keep], unfold, to_real, weights, reads


def _dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of each matrix in a stack."""
    return m.conj().swapaxes(-1, -2)


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
    raw tail estimate exceeds 1% of the integral.  A bare array of points
    must pass :class:`FrequencyGrid`'s checks, and ``values`` match it
    (ValueError).
    """
    points, values = _sampled(grid, values)
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


def _sampled(grid: FrequencyGrid | np.ndarray, values: np.ndarray) -> tuple:
    """``(points, values)`` as floats: a bare array is checked as a grid's
    points (at least 4, strictly increasing)."""
    if not isinstance(grid, FrequencyGrid):
        grid = FrequencyGrid(grid, ())
    values = np.asarray(values, dtype=float)
    if grid.points.shape != values.shape:
        raise ValueError("grid and values must have matching shapes")
    return grid.points, values


def _lorentz(params, omega):
    center, fwhm, amp, base = params
    hw = fwhm / 2.0
    return amp * hw**2 / ((omega - center) ** 2 + hw**2) + base


def _lorentz_jacobian(params, omega):
    """d :func:`_lorentz` / d(center, fwhm, amp, base), shape (n, 4)."""
    center, fwhm, amp, base = params
    hw = fwhm / 2.0
    dx = omega - center
    den = dx**2 + hw**2
    shape = hw**2 / den
    return np.column_stack(
        (2.0 * amp * shape * dx / den, amp * hw * dx**2 / den**2, shape, np.ones_like(dx))
    )


def fit_lorentzian(
    grid: FrequencyGrid | np.ndarray, values: np.ndarray, window: tuple
) -> LorentzFit:
    """Nonlinear least-squares Lorentzian fit inside ``window = (lo, hi)``.

    The window must hold finite values and exactly one peak of prominence
    at least 5% of its range (:func:`_peaks`); initialization uses the
    peak location and half-maximum crossings.  The fit runs in the offset
    from the peak's grid point, with the analytic Jacobian
    (:func:`_levenberg_marquardt`), so the center is resolved far below
    the linewidth.  Fails when no peak is present, several peaks overlap,
    the fit does not converge in MAX_FIT_EVALUATIONS evaluations, the
    residual exceeds 5% of the peak, or the fitted FWHM is below the grid
    spacing at the center (a line the grid does not resolve).  Mismatched
    ``grid`` and ``values`` shapes, or a bare array of points that fails
    :class:`FrequencyGrid`'s checks, are a ValueError.
    """
    points, values = _sampled(grid, values)
    lo, hi = window
    mask = (points >= lo) & (points <= hi)
    x = points[mask]
    y = values[mask]
    if x.size < 8:
        raise FitFailureError("window contains fewer than 8 grid points")
    if not np.isfinite(y).all():
        raise FitFailureError("non-finite spectrum value in window")

    span = float(y.max() - y.min())
    if span <= 0:
        raise FitFailureError("no peak in window (flat spectrum)")
    peaks = _peaks(y, 0.05 * span)
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
    dx = x - x[ipk]

    params = _levenberg_marquardt(
        lambda p: _lorentz(p, dx) - y,
        lambda p: _lorentz_jacobian(p, dx),
        np.array([0.0, w0, amp0, base0]),
        MAX_FIT_EVALUATIONS,
    )
    offset, fwhm, amp, base = params
    fwhm = abs(fwhm)
    resid = np.max(np.abs(_lorentz(params, dx) - y))
    if resid > 0.05 * (amp + abs(base)):
        raise FitFailureError(
            f"fit residual {resid:.3g} exceeds 5% of peak {amp:.3g}"
        )
    center = x[ipk] + offset
    k = min(max(int(np.searchsorted(x, center)), 1), x.size - 1)
    if fwhm < x[k] - x[k - 1]:
        raise FitFailureError(
            f"fitted FWHM {fwhm:.3g} is below the grid spacing "
            f"{x[k] - x[k - 1]:.3g} at the center; the line is not resolved"
        )
    return LorentzFit(center=float(center), fwhm=float(fwhm), area=float(amp * math.pi * fwhm / 2.0))


def _peaks(y: np.ndarray, prominence: float) -> np.ndarray:
    """Interior local maxima of the finite ``y`` whose prominence is at least
    ``prominence``; the indices ``scipy.signal.find_peaks`` returns.

    A maximum is a sample, or a flat run of equal samples, with a lower
    neighbour on each side; a run is reported by its middle index (the
    left one of two).  Its prominence is its height less the higher of the
    two minima between it and the nearest strictly higher sample on each
    side, or the end of ``y`` where there is none.
    """
    k = np.flatnonzero(np.diff(y))  # the steps y[k] -> y[k + 1] that change
    turn = (y[k[1:] + 1] < y[k[1:]]) & (y[k[:-1]] < y[k[:-1] + 1])
    tops = (k[:-1][turn] + 1 + k[1:][turn]) // 2  # a rise, a flat run, then a fall
    keep = []
    for p in tops.tolist():
        higher_left = np.flatnonzero(y[:p] > y[p])
        higher_right = np.flatnonzero(y[p:] > y[p])
        start = higher_left[-1] + 1 if higher_left.size else 0
        stop = p + higher_right[0] if higher_right.size else y.size
        base = max(y[start : p + 1].min(), y[p:stop].min())
        keep.append(y[p] - base >= prominence)
    return tops[np.array(keep, dtype=bool)]


def _levenberg_marquardt(fun, jac, x, max_evaluations) -> np.ndarray:
    """Least-squares minimum of ||fun(x)||^2 from the start ``x``.

    Each trial step solves (J^T J + mu D^2) dx = -J^T f by one SVD of J D^-1
    per Jacobian, D the column norms of J, never decreasing (Moré's
    scaling; scipy's ``x_scale="jac"``).  A step that lowers the cost is
    taken; mu then shrinks by max(1/3, 1 - (2 rho - 1)^3), rho the ratio of
    actual to predicted reduction, and otherwise grows by a factor that
    doubles on each rejection in a row (Nielsen's update).  It stops, as
    scipy's ``least_squares``, after an evaluation whose step has
    ||dx|| < xtol (xtol + ||x||), or whose relative cost reduction is
    below ``ftol`` with rho > 1/4.  ``max_evaluations`` counts calls of
    ``fun``, the start's included; running out raises FitFailureError.
    """
    xtol, ftol = 1e-9, 1e-15
    f = fun(x)
    cost = f @ f / 2.0
    evaluations = 1
    j = jac(x)
    d = np.linalg.norm(j, axis=0)
    d[d == 0] = 1.0
    mu, grow = 1e-3, 2.0
    while evaluations < max_evaluations:
        u, s, vt = np.linalg.svd(j / d, full_matrices=False)
        uf = u.T @ f
        while evaluations < max_evaluations:
            shrink = s**2 / (s**2 + mu)
            step = -(vt.T @ (s * uf / (s**2 + mu))) / d
            f_new = fun(x + step)
            evaluations += 1
            if not np.isfinite(f_new).all():
                mu, grow = mu * grow, 2.0 * grow
                continue
            reduction = cost - f_new @ f_new / 2.0
            predicted = np.sum(uf**2 * shrink * (1.0 - shrink / 2.0))
            rho = reduction / predicted if predicted > 0 else float(reduction == predicted)
            done = np.linalg.norm(step) < xtol * (xtol + np.linalg.norm(x)) or (
                reduction < ftol * cost and rho > 0.25
            )
            if reduction > 0:
                x, f, cost = x + step, f_new, cost - reduction
            if done:
                return x
            if reduction > 0:
                mu *= max(1.0 / 3.0, 1.0 - (2.0 * rho - 1.0) ** 3)
                grow = 2.0
                break
            mu, grow = mu * grow, 2.0 * grow
        j = jac(x)
        d = np.maximum(d, np.linalg.norm(j, axis=0))
    raise FitFailureError(f"fit did not converge in {evaluations} evaluations")


def force_spectrum_numeric(
    model: DriftModel, spec: SystemSpec, grid: FrequencyGrid | None = None
) -> ForceSpectrumResult:
    """Fluctuating-force density on mode a from the exact susceptibility.

    The per-channel force coefficients are extracted by deconvolving the
    exact mode-a response e_a chi B with its own a_in transfer (which
    enters the Langevin equation unfiltered with amplitude sqrt(gamma_a));
    each channel then contributes with the symmetrized weight 2*nbar + 1.
    At omega = omega_a the narrowband closed form is recovered.  The
    response is the one the model kept beside its last mode-a spectrum
    (:func:`position_spectrum`) when that was solved on the same grid
    points, else one row solve.  Needs an ``a``/``a_dag`` pair in the
    model (ValueError), refuses unstable models, and raises NumericsError
    unless the baseline (hbar*m*omega_a/2)*gamma_a*(2*nbar_a + 1) is
    positive and finite (it underflows at m or gamma_a ~ 1e-300), or
    where the density is not finite: with mode b undamped
    (gamma_b ~ 1e-300, no drive), |f_b|^2 overflows near omega_b.
    """
    if spec.mass_a is None:
        raise ValueError("spec.mass_a must be set for force noise")
    ga = spec.mode_a.gamma
    if not ga > 0:
        raise ValueError("gamma_a must be > 0 to normalize the force transfer")
    ia = _mode(model, "a")
    grid = _grid(model, grid)
    solved, _, kept = model._memo.get(("spectrum", "a"), (None, None, None))
    if kept is not None and np.array_equal(solved, grid.points):
        resp = kept
    else:
        resp = _solve_rows(model, grid.points, np.eye(model.dimension)[[ia]])[:, 0, :]
        resp = resp @ model.noise_input
    chi_eff = resp[:, ia] / math.sqrt(ga)
    f = resp / chi_eff[:, None]  # f[:, a_in] = sqrt(gamma_a) exactly
    weights = model.input_correlations.sum(axis=0)  # 2*nbar + 1 per channel
    prefactor = HBAR * spec.mass_a * spec.mode_a.omega / 2.0
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        s_ff = prefactor * (np.abs(f) ** 2 @ weights)
    baseline = prefactor * ga * weights[ia]
    if not 0.0 < baseline < math.inf:
        raise NumericsError(
            f"force baseline hbar*m*omega_a*gamma_a*(2*nbar_a + 1)/2 = {baseline:.3g} "
            "is not positive and finite"
        )
    over = np.flatnonzero(~np.isfinite(s_ff))
    if over.size:
        raise NumericsError(
            "force density hbar*m*omega_a/2 * sum_k |f_k|^2 (2*nbar_k + 1) overflows "
            f"at omega = {grid.points[over[0]]:.6g} rad/s"
        )
    return ForceSpectrumResult(grid=grid, s_ff=s_ff, factor=s_ff / baseline)
