"""Reference evaluations the tests compare the package against.

Each oracle takes a different route from the production code it checks:
whole-function forcing evaluation instead of the per-node pieces of the
Picard loop, direct per-point quadrature of the explicit kernel of each root
family instead of the grid sweep, the factored ansatz pieces instead of
the sampled profile for the tail-integral traces, Fornberg's recurrence
one stencil at a time instead of batched over all samples, a sampled
copy of a branch shot instead of its dense output, a branch shot whose
descent runs all the way to its zero instead of taking lambda* or its
response along w*, w* at t from a corrector solve on a short window
that starts at t instead of the ansatz and the corrector's ball around it,
the corrector derivative from its
first-order representation instead of the Psi sweeps, and a DOP853 solver
whose trial step and interpolant loop over the tableau rows, applied to
the first-order system (y, y')' = (y', a) with the acceleration a called,
instead of the straight-line solve loop that itergelfand.rk generates from
them with a inlined.  dense_eval
evaluates an rk dense solution for both components at once, where
DenseSolution takes one component at a time.  csv_text writes a CSV one
cell at a time, where write_csv applies one row format per file, and
h_deriv_fd_worst takes verify iterexp's finite differences one scalar t at
a time, where the suite takes them on the whole t array.  g_diff, the tower difference by its level
recursion, is checked against plain subtraction.  miyamoto_profile is the characterized
profile U(r) = F^{-1}(r^2/(2(n-2))) that the tail-integral traces identify
the constructed solution with.
"""

import math

import numpy as np
from scipy.interpolate import CubicSpline, PchipInterpolator

import itergelfand.branch as br
import itergelfand.rk as rk
from itergelfand.corrector import (HANDOFF_OFFSET, EtaSpaceConfig, PicardConvergenceError,
                                   PsiKernel, _ForcingM, _QuadPlan, _solve_on_grid, _sweep, phi_m)
from itergelfand.numerics import panel_nodes, scalar_or_array
from itergelfand.singular import ansatz_terms
from itergelfand.towers import (MAX_EXP_ARG, TowerOverflowError, f_tail_inverse_log, f_tail_log,
                                h_deriv, h_tower, tower_domain_lower)
from itergelfand.transform import LogProfile


def forcing_m(n, m, t, eta):
    """F(t, eta) = F_0 + F_1 eta + F_2 at tower height m >= 1."""
    return scalar_or_array(_ForcingM(n, m, t).total(eta))


def rho_remainder(n, m, t, eta):
    """Taylor remainder rho(eta) = G_m(H_m(z)+eta) - z - G'_m(H_m(z)) eta, z = 2t+phi."""
    forcing = _ForcingM(n, m, t)
    eta = np.asarray(eta, dtype=float)
    return scalar_or_array(forcing._taylor_increment(eta) - forcing.Q * eta)


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


def damping(kernel):
    """Real part (n - 2) / 2 of the kernel's roots lam_+ and lam_- for n <= 9."""
    return 0.5 * (kernel.n - 2)


def tail_constant(kernel):
    """C with |integral tail| <= C * sup s^2|F| / t_max^2 for the kernel's roots."""
    if kernel.freq:
        return 1.0 / (damping(kernel) * kernel.freq)
    return 1.0 / (2.0 * (kernel.n - 2))


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
        bound = tail_scale * tail_constant(kernel) / t_max ** 2 * math.exp(-a * (t_max - t))
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
    exponent 2t - e^{w*} - w* + log S never subtracts large numbers.
    """
    t = np.asarray(t, dtype=float)
    phi, _, _ = phi_m(n, 1, t)
    z = 2.0 * t + phi
    eta = PchipInterpolator(eta_sol.grid, eta_sol.eta)(t)
    ew = z * np.exp(eta)
    # log F(w*) = -e^{w*} - w* + log S(e^{w*}) with S(x) = x e^x E_1(x)
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

    The descent and the inner solve are sampled from their dense output,
    and the center series above the inner solve from its sum, every 0.02 in
    t from just below the zero to 260 above it and every 0.5 elsewhere,
    mapped through s -> t = L/2 - ln s, w = v, w_t = -s v', and cut at the
    zero.
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
    L = point.L
    for sol_a in (point.inner, point.start):
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


def full_descent_shot(n, m, rho, rtol=1e-11, atol=1e-13, keep_profile=False):
    """shoot_regular as if the default singular build had failed: with no lambda* and no
    response along w*, its descent always runs on to the zero of w."""
    saved = br._singular
    br._singular = lambda n, m: None
    try:
        return br.shoot_regular(n, m, rho, rtol=rtol, atol=atol, keep_profile=keep_profile)
    finally:
        br._singular = saved


def short_window_state(n, m, t):
    """(w*, w*_t)(t) from one 128-node corrector solve on [t, t + 5 + pad], or None
    when that solve fails: the reference for w* far up."""
    try:
        eta_sol = _solve_on_grid(n, m, EtaSpaceConfig(), t, t + HANDOFF_OFFSET, 128)
    except PicardConvergenceError:
        return None
    f, f_t = (float(v) for v in ansatz_terms(n, m, t))
    return f + float(eta_sol.eta[0]), f_t + float(eta_sol.eta_t[0])


def _combine(rows, k0, k1):
    """sum_j a_j k_j of both components, accumulated from 0.0 in the rows' order."""
    d0 = d1 = 0.0
    for j, a in rows:
        d0 += a * k0[j]
        d1 += a * k1[j]
    return d0, d1


def first_order(fun):
    """The system (y, y')' = (y', a(t, y, y')) of an acceleration a, as a pair-valued RHS."""
    return lambda t, y: (y[1], fun(t, y[0], y[1]))


def dop853_step(fun, t, h, t_new, y0, y1, f1, atol, rtol):
    """One trial step of rk's solve loop by loops over the tableau rows of the first-order
    system.

    The step of size h goes from (t, y0, y1), of acceleration f1, to t_new.
    Returns (n0, n1, e5, e3, k0, k1): the new state, the squared norms (sum
    over components, not halved) of the E5 and E3 error sums scaled by
    atol + max(|y|, |n|) rtol, and the 13 stages of each component, the last
    one evaluated at (t_new, n0, n1).
    """
    f = first_order(fun)
    k0 = [y1] + [0.0] * rk.N_STAGES
    k1 = [f1] + [0.0] * rk.N_STAGES
    for s in range(1, rk.N_STAGES):
        d0, d1 = _combine(rk._A[s], k0, k1)
        k0[s], k1[s] = f(t + rk._C[s] * h, (y0 + d0 * h, y1 + d1 * h))
    d0, d1 = _combine(rk._B, k0, k1)
    n0, n1 = y0 + h * d0, y1 + h * d1
    k0[rk.N_STAGES], k1[rk.N_STAGES] = f(t_new, (n0, n1))
    sc0 = atol + max(abs(y0), abs(n0)) * rtol
    sc1 = atol + max(abs(y1), abs(n1)) * rtol
    e0, e1 = _combine(rk._E5, k0, k1)
    e0, e1 = e0 / sc0, e1 / sc1
    d0, d1 = _combine(rk._E3, k0, k1)
    d0, d1 = d0 / sc0, d1 / sc1
    return n0, n1, e0 * e0 + e1 * e1, d0 * d0 + d1 * d1, k0, k1


def dop853_dense(fun, t, h, y0, y1, n0, n1, k0, k1):
    """The interpolant of rk's solve loop by loops over the tableau rows of the first-order
    system.

    For the step (t, y) -> (t + h, n) with the 13 stages k0, k1 of dop853_step
    it evaluates the three extra stages and returns the 7 interpolant
    coefficients of each component.
    """
    f = first_order(fun)
    k0, k1 = list(k0) + [0.0] * 3, list(k1) + [0.0] * 3
    for i, rows in enumerate(rk._A_EXTRA):
        d0, d1 = _combine(rows, k0, k1)
        s = rk.N_STAGES + 1 + i
        k0[s], k1[s] = f(t + rk._C_EXTRA[i] * h, (y0 + d0 * h, y1 + d1 * h))
    c0, c1 = [], []
    for c, y, n, k in ((c0, y0, n0, k0), (c1, y1, n1, k1)):
        dy = n - y
        c += [dy, h * k[0] - dy, 2.0 * dy - h * (k[rk.N_STAGES] + k[0])]
    for rows in rk._D:
        d0, d1 = _combine(rows, k0, k1)
        c0.append(h * d0)
        c1.append(h * d1)
    return c0, c1


def dop853_solve(fun, t_span, y0, rtol, atol, stop_at=None, dense_output=False):
    """rk.solve_ivp as a Python loop that calls dop853_step and dop853_dense.

    The loop rk generates for an acceleration body, written out by hand and
    driven by the callable fun; it shares only the initial step rule and the
    crossing search with rk.
    """
    t, t_bound = float(t_span[0]), float(t_span[1])
    sign = 1.0 if t_bound > t else -1.0
    y0, y1 = float(y0[0]), float(y0[1])
    f1 = fun(t, y0, y1)
    h_abs = rk._initial_step(fun, t, y0, y1, f1, abs(t_bound - t), sign, rtol, atol)
    nfev, naccept, nreject = 2, 0, 0
    g = None if stop_at is None else y0 - stop_at
    ts, ys0, ys1, dense = [t], [y0], [y1], []
    status = None
    while status is None:
        min_step = 10.0 * abs(math.nextafter(t, sign * math.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if not h_abs >= min_step:
                status = -1
                break
            t_new = t + h_abs * sign
            if sign * (t_new - t_bound) > 0.0:
                t_new = t_bound
            h = t_new - t
            h_abs = abs(h)
            n0, n1, e5, e3, k0, k1 = dop853_step(fun, t, h, t_new, y0, y1, f1, atol, rtol)
            nfev += rk.N_STAGES
            err = 0.0 if e5 == 0.0 else h_abs * e5 / math.sqrt((e5 + 0.01 * e3) * 2.0)
            if err < 1.0:
                factor = rk.MAX_FACTOR
                if err > 0.0:
                    factor = min(rk.MAX_FACTOR, rk.SAFETY * err ** rk.ERROR_EXPONENT)
                h_abs *= min(1.0, factor) if rejected else factor
                break
            h_abs *= max(rk.MIN_FACTOR, rk.SAFETY * err ** rk.ERROR_EXPONENT)
            rejected = True
            nreject += 1
        if status == -1:
            break
        naccept += 1
        if sign * (t_new - t_bound) >= 0.0:
            status = 0
        crossed = False
        if stop_at is not None:
            g_new = n0 - stop_at
            crossed = g <= 0.0 <= g_new or g >= 0.0 >= g_new
            g = g_new
        if dense_output or crossed:
            c0, c1 = dop853_dense(fun, t, h, y0, y1, n0, n1, k0, k1)
            nfev += 3
            if dense_output:
                dense += [t, h, y0, y1, *c0, *c1]
            if crossed:
                t_new, n0, n1 = rk._crossing(stop_at, t, h, y0, y1, c0, c1, t_new)
                status = 1
        t, y0, y1, f1 = t_new, n0, n1, k1[rk.N_STAGES]
        if dense_output and len(ts) > 1 and ts[-1] == t:
            del dense[-rk._STRIDE:]
        else:
            ts.append(t)
            ys0.append(y0)
            ys1.append(y1)
    ts = np.array(ts)
    # the ready buffer, through the constructor's build on first read
    sol = rk.DenseSolution(ts, lambda: np.array(dense)) if dense_output else None
    message = rk.NAN_MESSAGE if status == -1 and math.isnan(f1) else rk.MESSAGES[status]
    return rk.OdeResult(t=ts, y=np.array([ys0, ys1]), sol=sol, status=status, message=message,
                        nfev=nfev, naccept=naccept, nreject=nreject)


def dense_eval(sol, t):
    """sol(t) for an rk.DenseSolution sol, both components in one (N, 2) sum.

    The Horner sums of the two components run side by side on the step's
    coefficients as (N, 2, 7) blocks, where DenseSolution runs one 1-d sum per
    component; the operations and their order are the same.
    """
    t = np.asarray(t, dtype=float)
    nseg = len(sol.coef)
    if sol.ascending:
        seg = np.searchsorted(sol.ts, t, side="left") - 1
    else:
        seg = np.searchsorted(sol.ts[::-1], t, side="right") - 1
    seg = np.clip(seg, 0, nseg - 1)
    if not sol.ascending:
        seg = nseg - 1 - seg
    c = sol.coef[seg]
    x = ((t - c[:, 0]) / c[:, 1])[:, None]
    F = c[:, 4:].reshape(-1, 2, 7)
    y = np.zeros((len(t), 2))
    for i in range(6, -1, -1):
        y += F[:, :, i]
        y *= x if i % 2 == 0 else 1.0 - x
    y += c[:, 2:4]
    return y.T


def csv_cell(v):
    """One CSV cell: text as it is, integers by str, anything else as a 17-digit float."""
    if isinstance(v, str):
        return v
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return format(float(v), ".17g")


def csv_text(header, columns):
    """The text of numerics.write_csv(path, header, columns), formed cell by cell."""
    cols = [np.asarray(c) for c in columns]
    lines = [",".join(header)]
    for row in zip(*cols):
        lines.append(",".join(csv_cell(v) for v in row))
    return "\n".join(lines) + "\n"


def h_deriv_fd_worst(m):
    """The value of verify iterexp's h_deriv_fd_m<m> check, one scalar t at a time.

    The largest relative gap between H_m^(k) and the central difference of
    H_m^(k-1), over k = 1, 2, 3 and the suite's 25 t.
    """
    ts = np.geomspace(max(tower_domain_lower(m), 0.5) + 4.0, 1e3, 25)
    worst = 0.0
    h = 1e-3
    for k in (1, 2, 3):
        lower = (lambda x: h_tower(m, x)) if k == 1 else (lambda x: h_deriv(m, k - 1, x))
        for t in ts:
            fd = (lower(t + h) - lower(t - h)) / (2 * h)
            worst = max(worst, abs(h_deriv(m, k, t) - fd) / max(abs(fd), 1e-300))
    return worst
