"""Steady-state occupation of mode ``a`` from the Lyapunov equation.

An exact reference for the quadrature ``n_eff`` that does not share its
grid, its tail model or its error estimate.  For the linear Langevin
system ``dv/dt = A v + B xi`` the stationary correlation matrix
``S = <v v^dag>`` solves

    A S + S A^dag + B D B^T = 0,    D = diag(<xi xi^dag>),

(Genes et al., PRA 77, 033804 (2008)).  With ``x = a + a_dag`` the
occupation is ``n = (<x^2> - 1) / 2``, the same definition the
spectrum integral uses.

* Conjugate-paired basis (labels contain ``a_dag``): ``<x^2> = u^T S u``
  with ``u = e_a + e_a_dag``.
* Annihilation-only basis: ``<x^2> = <a a^dag> + <a^dag a>``, the second
  term from the same equation driven by the ``<xi^dag xi>`` weights.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import solve_continuous_lyapunov
from scipy.optimize import minimize_scalar


def _x2(drift, noise, weights, u) -> float:
    q = (noise * weights) @ noise.T
    s = solve_continuous_lyapunov(drift, -q)
    return float((u @ s @ u).real)


def occupation(model) -> float:
    """Exact steady-state occupation of mode ``a`` of a DriftModel."""
    corr_plus, corr_minus = model.input_correlations
    u = np.zeros(model.dimension)
    u[model.index("a")] = 1.0
    if "a_dag" in model.labels:
        u[model.index("a_dag")] = 1.0
        x2 = _x2(model.drift, model.noise_input, corr_plus, u)
    else:
        x2 = _x2(model.drift, model.noise_input, corr_plus, u) + _x2(
            model.drift, model.noise_input, corr_minus, u
        )
    return (x2 - 1.0) / 2.0


def optimum(n_of_c, bracket) -> tuple:
    """Minimum of ``n_of_c(C_OM)`` over log C_OM: ``(c_star, n_star)``.

    A coarse log scan picks the basin, then bounded Brent refines it to
    roundoff; the search shares no code with ``find_optimum``.
    """
    xs = np.linspace(math.log(bracket[0]), math.log(bracket[1]), 41)
    ys = [n_of_c(math.exp(x)) for x in xs]
    i = int(np.argmin(ys))
    a, b = xs[max(i - 1, 0)], xs[min(i + 1, xs.size - 1)]
    res = minimize_scalar(
        lambda x: n_of_c(math.exp(x)),
        bounds=(a, b),
        method="bounded",
        options={"xatol": 1e-10},
    )
    return math.exp(res.x), float(res.fun)
