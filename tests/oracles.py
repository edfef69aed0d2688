"""Reference evaluations the tests compare the package against.

Each oracle takes a different route from the production code it checks:
whole-function forcing evaluation instead of the per-node pieces of the
Picard loop, direct per-point quadrature of the explicit kernel of each root
family instead of the grid sweep, and the factored ansatz pieces instead of
the sampled profile for the tail-integral traces.
"""

import math

import numpy as np
from scipy.interpolate import PchipInterpolator

from itergelfand.corrector import PicardConvergenceError, _ForcingM, _ForcingM1, phi_m1
from itergelfand.numerics import panel_nodes, scalar_or_array
from itergelfand.towers import f_tail_log


def forcing_m1(n, t, eta):
    """F(t, eta) = F_0 + F_1 eta + F_2 + F_3 at tower height 1."""
    return scalar_or_array(_ForcingM1(n, t).total(eta))


def forcing_m(n, m, t, eta):
    """F(t, eta) = F_0 + F_1 eta + F_2 at tower height m >= 2."""
    return scalar_or_array(_ForcingM(n, m, t).total(eta))


def rho_remainder(n, m, t, eta):
    """Taylor remainder rho(eta) = G_m(H_m(z)+eta) - z - G'_m(H_m(z)) eta, z = 2t+phi."""
    return scalar_or_array(_ForcingM(n, m, t).rho(eta))


def psi_apply(kernel, forcing, t, t_max, tol=None, tail_scale=None):
    """Evaluate Psi[eta](t) for a forcing map s -> F(s, eta(s)) truncated at t_max.

    `forcing` is any callable accepting an ndarray of s values.  The kernel
    is written out per root family and integrated by Gauss panels of width
    at most 0.25.  When tail_scale (an estimate of sup s^2 |F|) is given, the
    analytic tail bound beyond t_max is computed and checked against tol if
    provided.
    """
    if t >= t_max:
        raise ValueError("need t < t_max")
    n = kernel.n
    a = 0.5 * (n - 2)
    n_panels = max(4, int(math.ceil((t_max - t) / 0.25)))
    nodes, weights = panel_nodes(np.linspace(t, t_max, n_panels + 1))
    tau = nodes - t
    if n <= 9:
        b = 0.5 * math.sqrt((n - 2) * (10 - n))
        K = -np.exp(-a * tau) * np.sin(b * tau) / b
    elif n == 10:
        K = -tau * np.exp(-a * tau)
    else:
        d = 0.5 * math.sqrt((n - 2) * (n - 10))
        K = (np.exp(-(a + d) * tau) - np.exp(-(a - d) * tau)) / (2.0 * d)
    val = np.sum(weights * K * forcing(nodes))
    if tail_scale is not None:
        bound = tail_scale * kernel.tail_constant / t_max ** 2 * math.exp(-a * (t_max - t))
        if tol is not None and bound > tol:
            raise PicardConvergenceError(
                f"truncation tail bound {bound:.3e} exceeds tolerance {tol:.3e}")
    return float(val)


def x_star_factored(n, t, eta_sol):
    """x* evaluated through the factored ansatz pieces instead of exp(w*).

    Uses e^{w*} = (2t + phi) e^eta and w* = ln(2t + phi) + eta so the
    exponent 2t - e^{w*} - w* + log-series never subtracts large numbers.
    """
    t = np.asarray(t, dtype=float)
    phi, _, _ = phi_m1(n, t)
    z = 2.0 * t + phi
    eta = PchipInterpolator(eta_sol.grid, eta_sol.eta)(t)
    ew = z * np.exp(eta)
    # log F(w*) = -e^{w*} - w* + log S(e^{w*}) with the asymptotic series S
    logS = f_tail_log(np.log(ew)) + ew + np.log(ew)
    expo = -phi - z * np.expm1(eta) - np.log(z) - eta + logS
    return scalar_or_array(2.0 * (n - 2) * np.exp(expo) - 1.0)


def y_star_factored(n, t, eta_sol):
    """y* through the factored ansatz pieces; companion to x_star_factored."""
    t = np.asarray(t, dtype=float)
    phi, phi_t, _ = phi_m1(n, t)
    z = 2.0 * t + phi
    eta = PchipInterpolator(eta_sol.grid, eta_sol.eta)(t)
    eta_t = PchipInterpolator(eta_sol.grid, eta_sol.eta_t)(t)
    wt = (2.0 + phi_t) / z + eta_t
    term2 = 2.0 * (n - 2) * wt * np.exp(-phi - z * np.expm1(eta))
    return scalar_or_array(2.0 * (x_star_factored(n, t, eta_sol) + 1.0) - term2)
