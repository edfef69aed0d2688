"""Reference evaluations the tests compare the package against.

Each oracle takes a different route from the production code it checks:
whole-function forcing evaluation instead of the per-node pieces of the
Picard loop, direct per-point quadrature of the explicit kernel of each root
family instead of the grid sweep, the factored ansatz pieces instead of
the sampled profile for the tail-integral traces, Fornberg's recurrence
one stencil at a time instead of batched over all samples, a sampled
copy of a branch shot instead of its dense output, a branch shot whose
descent runs all the way to its zero instead of being matched to w*, and
the corrector derivative from its first-order representation instead of
the Psi sweeps.  g_diff, the tower difference by its level recursion, is
checked against plain subtraction.  miyamoto_profile is the characterized
profile U(r) = F^{-1}(r^2/(2(n-2))) that the tail-integral traces identify
the constructed solution with.
"""

import math

import numpy as np
from scipy.interpolate import CubicSpline, PchipInterpolator

import itergelfand.branch as br
from itergelfand.corrector import (PicardConvergenceError, PsiKernel, _ForcingM, _QuadPlan,
                                   _sweep, phi_m)
from itergelfand.numerics import panel_nodes, scalar_or_array
from itergelfand.towers import MAX_EXP_ARG, TowerOverflowError, f_tail_inverse_log, f_tail_log
from itergelfand.transform import LogProfile


def forcing_m(n, m, t, eta):
    """F(t, eta) = F_0 + F_1 eta + F_2 at tower height m >= 1."""
    return scalar_or_array(_ForcingM(n, m, t).total(eta))


def rho_remainder(n, m, t, eta):
    """Taylor remainder rho(eta) = G_m(H_m(z)+eta) - z - G'_m(H_m(z)) eta, z = 2t+phi."""
    return scalar_or_array(_ForcingM(n, m, t).rho(eta))


def g_diff(m, y0, dy):
    """G_m(y0 + dy) - G_m(y0) without forming the near-cancelling difference.

    Uses the level recursion D_j = G_j(y0) * expm1(D_{j-1}), D_0 = dy.
    Requires every G_j(y0) representable.
    """
    if m < 0:
        raise ValueError("tower height must be >= 0")
    d = np.asarray(dy, dtype=float)
    base = np.asarray(y0, dtype=float)
    for j in range(1, m + 1):
        if np.any(base > MAX_EXP_ARG):
            raise TowerOverflowError(j)
        base = np.exp(base)
        d = base * np.expm1(d)
    return scalar_or_array(d)


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



def eta_t_first_order(sol):
    """Corrector derivative through its first-order integral representation.

    eta_t(t) = -integral_t^tmax e^{(n-2)(t-s)} g(s) ds with
    g = -2(n-2) eta - F(t, eta), one right-to-left sweep at lam = n-2 on the
    solve's grid and quadrature.  It differs from the eta_t of the Psi
    sweeps by the Picard defect: it reads F at the converged eta, they at
    the iterate before.  eta reaches the quadrature nodes through scipy's
    not-a-knot cubic spline rather than the solver's Hermite interpolant.
    """
    n = sol.n
    plan = _QuadPlan(sol.grid, PsiKernel.for_dimension(n))
    eta_q = CubicSpline(sol.grid, sol.eta)(plan.nodes)
    g_q = -2.0 * (n - 2) * eta_q - _ForcingM(n, sol.m, plan.nodes).total(eta_q)
    P = plan.interval_integrals(np.exp(-(n - 2) * plan.tau), g_q)
    return -_sweep(P, np.exp(-(n - 2) * plan.h))

def x_star_factored(n, t, eta_sol):
    """x* evaluated through the factored ansatz pieces instead of exp(w*).

    Uses e^{w*} = (2t + phi) e^eta and w* = ln(2t + phi) + eta so the
    exponent 2t - e^{w*} - w* + log-series never subtracts large numbers.
    """
    t = np.asarray(t, dtype=float)
    phi, _, _ = phi_m(n, 1, t)
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
    phi, phi_t, _ = phi_m(n, 1, t)
    z = 2.0 * t + phi
    eta = PchipInterpolator(eta_sol.grid, eta_sol.eta)(t)
    eta_t = PchipInterpolator(eta_sol.grid, eta_sol.eta_t)(t)
    wt = (2.0 + phi_t) / z + eta_t
    term2 = 2.0 * (n - 2) * wt * np.exp(-phi - z * np.expm1(eta))
    return scalar_or_array(2.0 * (x_star_factored(n, t, eta_sol) + 1.0) - term2)


def miyamoto_profile(n, r):
    """Leading-order characterized profile U(r) = F^{-1}(r^2 / (2(n-2))) of exp(e^u)."""
    r = np.asarray(r, dtype=float)
    if np.any(r <= 0):
        raise ValueError("radius must be positive")
    log_x = 2.0 * np.log(r) - math.log(2.0 * (n - 2))
    return scalar_or_array(np.vectorize(f_tail_inverse_log, otypes=[float])(log_x))


def fd_weights(x, x0, order):
    """Fornberg weights for the ``order``-th derivative at x0 on nodes x."""
    x = np.asarray(x, dtype=float)
    n = len(x)
    if order >= n:
        raise ValueError("stencil too short for requested derivative order")
    w = np.zeros((order + 1, n))
    w[0, 0] = 1.0
    c1 = 1.0
    c4 = x[0] - x0
    for i in range(1, n):
        mn = min(i, order)
        c2 = 1.0
        c5 = c4
        c4 = x[i] - x0
        for j in range(i):
            c3 = x[i] - x[j]
            c2 *= c3
            if j == i - 1:
                for k in range(mn, 0, -1):
                    w[k, i] = c1 * (k * w[k - 1, i - 1] - c5 * w[k, i - 1]) / c2
                w[0, i] = -c1 * c5 * w[0, i - 1] / c2
            for k in range(mn, 0, -1):
                w[k, j] = ((c4 * w[k, j] - k * w[k - 1, j]) / c3)
            w[0, j] = c4 * w[0, j] / c3
        c1 = c2
    return w[order]


def _segment_times(tlo, thi, focus_lo, focus_hi, fine=0.02, coarse=0.5):
    """Sample times for a segment: fine inside the focus window, coarse outside."""
    pts = [np.arange(tlo, thi, coarse)]
    flo, fhi = max(tlo, focus_lo), min(thi, focus_hi)
    if fhi > flo:
        pts.append(np.arange(flo, fhi, fine))
    pts.append(np.array([thi]))
    out = np.unique(np.concatenate(pts))
    return out[(out >= tlo) & (out <= thi)]


def sampled_branch(point):
    """LogProfile samples of a kept branch shot.

    The descent and the inner phase are sampled from their dense output,
    every 0.02 in t from just below the zero to 260 above it and every 0.5
    elsewhere, mapped through s -> t = L/2 - ln s, w = v, w_t = -s v', and
    cut at the zero.
    """
    t_zero = -math.log(point.R)
    focus_lo, focus_hi = t_zero - 1.0, t_zero + 260.0
    ts, ws, wts = [], [], []
    for sol_b in point.descents():
        tlo, thi = sorted((float(sol_b.t[0]), float(sol_b.t[-1])))
        tt = _segment_times(tlo, thi, focus_lo, focus_hi)
        yy = sol_b.sol(tt)
        ts.append(tt)
        ws.append(yy[0])
        wts.append(yy[1])
    sol_a, L = point.inner, point.L
    t_of_s = 0.5 * L - np.log(np.array([sol_a.t[0], sol_a.t[-1]]))
    tt = _segment_times(float(np.min(t_of_s)), float(np.max(t_of_s)), focus_lo, focus_hi)
    ss = np.clip(np.exp(0.5 * L - tt), min(sol_a.t[0], sol_a.t[-1]),
                 max(sol_a.t[0], sol_a.t[-1]))
    yy = sol_a.sol(ss)
    ts.append(tt)
    ws.append(yy[0])
    wts.append(-ss * yy[1])
    t_all, w_all, wt_all = (np.concatenate(a) for a in (ts, ws, wts))
    order = np.argsort(t_all)
    t_all, w_all, wt_all = t_all[order], w_all[order], wt_all[order]
    keep = np.concatenate([[True], np.diff(t_all) > 1e-12]) & (t_all >= t_zero - 1e-12)
    return LogProfile(t_all[keep], w_all[keep], wt_all[keep])


def full_descent_shot(n, m, rho, rtol=1e-11, atol=1e-13):
    """shoot_regular without matching: its descent always runs on to the zero of w."""
    saved, br.MATCH_DEPTH = br.MATCH_DEPTH, math.inf
    try:
        return br.shoot_regular(n, m, rho, rtol=rtol, atol=atol, keep_profile=False)
    finally:
        br.MATCH_DEPTH = saved
