"""Regular solution branch lambda(rho) by shooting from the center.

A regular profile with center value rho solves

    v'' + (n-1)/r v' + exp(G_m(v)) = 0,  v(0) = rho, v'(0) = 0,

and lambda(rho) = R^2 with R its first zero.  Shooting always starts in the
rescaled inner variables s = r exp(G_m(rho)/2), where the nonlinearity is
exp(G_m(v) - G_m(rho)) and the center layer has unit scale; once the
rescaled force has died (or s has grown past a fixed cap) the descent
continues in log variables (t, w) where the remaining range is
logarithmically compressed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .rk import solve_ivp
from .singular import descend
from .towers import TowerOverflowError, g_tower
from .transform import LogProfile, RadialProfile

# descent budget: refuse shots whose log-variable start would need more work
# than roughly a million steps
T1_BUDGET = 2.0e5
# sampling step in tau = -ln r when scanning for profile intersections
TAU_STEP = 0.02


class ShootError(RuntimeError):
    """The inner phase of a shot is refused (tower out of range, budget exceeded) or fails."""


@dataclass
class BranchPoint:
    """One point of the regular branch: rho, first zero R, lambda = R^2."""

    rho: float
    R: float
    lam: float
    n: int
    m: int
    profile: RadialProfile | None = None
    log_profile: LogProfile | None = field(default=None, repr=False)
    dense: object = field(default=None, repr=False)


class _DenseBranch:
    """Evaluate w(t) straight from a shot's dense output.

    The descent (when the shot has one) covers the lower t-range in log
    variables, the inner phase the upper one through s = exp(L/2 - t).
    """

    def __init__(self, sol_a, sol_b, L):
        self.inner, self.descent, self.L = sol_a, sol_b, L
        s_lo, s_hi = sorted((float(sol_a.t[0]), float(sol_a.t[-1])))
        self.inner_range = (0.5 * L - math.log(s_hi), 0.5 * L - math.log(s_lo))
        if sol_b is not None:
            self.descent_range = tuple(sorted((float(sol_b.t[0]), float(sol_b.t[-1]))))

    def eval_w(self, t):
        t = np.atleast_1d(np.asarray(t, dtype=float))
        out = np.full(t.shape, np.nan)
        lo, hi = self.inner_range
        inner = (t >= lo - 1e-12) & (t <= hi + 1e-12)
        if self.descent is not None:
            dlo, dhi = self.descent_range
            below = (t >= dlo - 1e-12) & (t <= dhi + 1e-12)
            out[below] = self.descent.sol(np.clip(t[below], dlo, dhi))[0]
            inner &= ~below
        out[inner] = self.inner.sol(np.exp(0.5 * self.L - np.clip(t[inner], lo, hi)))[0]
        return out


@dataclass
class BifurcationCurve:
    """Branch samples ordered by rho with turning-point annotations."""

    points: list
    turning: list

    @property
    def rho(self):
        return np.array([p.rho for p in self.points])

    @property
    def lam(self):
        return np.array([p.lam for p in self.points])


class _InnerForce:
    """exp(G_m(v) - G_m(rho)) evaluated through level differences.

    Safe for G_m(rho) far beyond the exp overflow point as long as
    G_{m-1}(rho) <= 700.
    """

    def __init__(self, m, rho):
        self.m = m
        self.rho = rho
        if m == 0:
            self.direct = True
            self.L = rho
            return
        self.g_rho = [g_tower(j, rho) for j in range(m)]   # G_0..G_{m-1}
        if self.g_rho[-1] > 700.0:
            raise ShootError(
                f"rho = {rho} needs G_{m-1}(rho) <= 700 for the rescaled shoot")
        try:
            self.L = g_tower(m, rho)
        except TowerOverflowError as exc:
            raise ShootError(f"G_m(rho) not representable at rho = {rho}") from exc
        self.direct = self.L <= 700.0

    def exponent(self, v):
        """G_m(v) - G_m(rho), clamped to a large negative floor when dead."""
        if self.m == 0:
            return v - self.rho
        if self.direct:
            return g_tower(self.m, v) - self.L
        # d = G_{m-1}(v) - G_{m-1}(rho); v <= rho on the solution
        d = min(v - self.rho, 0.0)
        for j in range(1, self.m):
            d = self.g_rho[j] * math.expm1(d)
        if d >= 0.0:
            return 0.0
        inner = self.g_rho[self.m - 1] + math.log(-math.expm1(d))
        if inner > 700.0:
            return -1e300
        return -math.exp(inner)

    def __call__(self, v):
        expo = self.exponent(v)
        return math.exp(expo) if expo > -745.0 else 0.0


def _log_grad_gm(m, rho):
    """ln G'_m(rho) = sum_{j=1..m} G_{j-1}(rho); stays representable."""
    return sum(g_tower(j - 1, rho) for j in range(1, m + 1))


def shoot_regular(n, m, rho, rtol=1e-11, atol=1e-13, keep_profile=True):
    """Integrate the center problem to the first zero; lambda(rho) = R^2.

    Raises ShootError when the inner phase is refused or fails and
    singular.DescentError when the log-variable descent finds no zero.
    """
    if n < 3:
        raise ValueError("dimension must be >= 3")
    if rho <= 0:
        raise ValueError("rho must be positive")
    force = _InnerForce(m, rho)
    L = force.L

    # series start: v = rho - s^2/(2n) + G'_m(rho) s^4/(8n(n+2)); keep s0 well
    # inside the series radius ~ 1/sqrt(G'_m(rho))
    ln_gp = _log_grad_gm(m, rho) if m >= 1 else 0.0
    ln_s0 = math.log(1e-4) - 0.5 * max(0.0, ln_gp - math.log(2.0 * n))
    s0 = math.exp(ln_s0)
    quart = math.exp(min(ln_gp + 4.0 * ln_s0, 700.0)) / (8.0 * n * (n + 2)) if m >= 1 else \
        s0 ** 4 / (8.0 * n * (n + 2))
    v0 = rho - s0 * s0 / (2.0 * n) + quart
    p0 = -s0 / n + 4.0 * quart / s0

    def rhs_inner(s, y):
        return [y[1], -(n - 1) / s * y[1] - force(y[0])]

    def ev_zero(s, y):
        return y[0]
    ev_zero.terminal = True

    # hand over to log variables once the rescaled force is dead; the cap at
    # s = 100 bounds the inner phase for slowly-dying nonlinearities
    def ev_switch(s, y):
        return force.exponent(y[0]) + 60.0
    ev_switch.terminal = True
    ev_switch.direction = -1.0

    sol_a = solve_ivp(rhs_inner, (s0, 100.0), [v0, p0], rtol=rtol,
                      atol=atol, dense_output=keep_profile,
                      events=[ev_zero, ev_switch])
    if len(sol_a.t_events[0]):
        s_zero = float(sol_a.t_events[0][0])
        ln_R = math.log(s_zero) - 0.5 * L
        return _finish(n, m, rho, ln_R, sol_a, None, L, keep_profile)
    if sol_a.status < 0:
        raise ShootError(f"the inner phase at rho = {rho} failed: {sol_a.message}")
    if len(sol_a.t_events[1]):
        s1 = float(sol_a.t_events[1][0])
        v1, p1 = (float(v) for v in sol_a.y_events[1][0])
    else:
        s1 = float(sol_a.t[-1])
        v1, p1 = float(sol_a.y[0, -1]), float(sol_a.y[1, -1])

    t1 = 0.5 * L - math.log(s1)
    if t1 > T1_BUDGET:
        raise ShootError(
            f"rho = {rho} puts the log-variable start at t = {t1:.3g}, beyond the "
            f"practical descent budget {T1_BUDGET:.0e}")
    t_zero, sol_b = descend(n, m, t1, v1, -s1 * p1, rtol, atol,
                            dense_output=keep_profile)
    return _finish(n, m, rho, -t_zero, sol_a, sol_b, L, keep_profile)


def _segment_times(tlo, thi, focus_lo, focus_hi, fine=0.02, coarse=0.5):
    """Sample times for a segment: fine inside the focus window, coarse outside."""
    pts = [np.arange(tlo, thi, coarse)]
    flo, fhi = max(tlo, focus_lo), min(thi, focus_hi)
    if fhi > flo:
        pts.append(np.arange(flo, fhi, fine))
    pts.append(np.array([thi]))
    out = np.unique(np.concatenate(pts))
    return out[(out >= tlo) & (out <= thi)]


def _finish(n, m, rho, ln_R, sol_a, sol_b, L, keep_profile):
    """BranchPoint of a shot from its inner solve sol_a and its descent sol_b (or None)."""
    R = math.exp(ln_R)
    lam = math.exp(2.0 * ln_R)
    log_profile = None
    profile = None
    if keep_profile:
        t_zero = -ln_R
        focus_lo, focus_hi = t_zero - 1.0, t_zero + 260.0
        ts, ws, wts = [], [], []
        if sol_b is not None:
            tlo, thi = sorted((float(sol_b.t[0]), float(sol_b.t[-1])))
            tt = _segment_times(tlo, thi, focus_lo, focus_hi)
            yy = sol_b.sol(tt)
            ts.append(tt)
            ws.append(yy[0])
            wts.append(yy[1])
        # s -> t = L/2 - ln s, w = v, w_t = -s v'
        t_of_s = 0.5 * L - np.log(np.array([sol_a.t[0], sol_a.t[-1]]))
        tlo, thi = float(np.min(t_of_s)), float(np.max(t_of_s))
        tt = _segment_times(tlo, thi, focus_lo, focus_hi)
        ss = np.exp(0.5 * L - tt)
        ss = np.clip(ss, min(sol_a.t[0], sol_a.t[-1]), max(sol_a.t[0], sol_a.t[-1]))
        yy = sol_a.sol(ss)
        ts.append(tt)
        ws.append(yy[0])
        wts.append(-ss * yy[1])
        t_all = np.concatenate(ts)
        w_all = np.concatenate(ws)
        wt_all = np.concatenate(wts)
        order = np.argsort(t_all)
        t_all, w_all, wt_all = t_all[order], w_all[order], wt_all[order]
        keep = np.concatenate([[True], np.diff(t_all) > 1e-12])
        above = t_all >= -ln_R - 1e-12
        sel = keep & above
        log_profile = LogProfile(t_all[sel], w_all[sel], wt_all[sel])
        # radial samples where the radius is representable
        tsel = log_profile.t <= 700.0
        if np.any(tsel):
            r = np.exp(-log_profile.t[tsel])
            profile = RadialProfile(lam, r, log_profile.w[tsel],
                                    -log_profile.w_t[tsel] / r)
    dense = _DenseBranch(sol_a, sol_b, L) if keep_profile else None
    return BranchPoint(rho=rho, R=R, lam=lam, n=n, m=m,
                       profile=profile, log_profile=log_profile, dense=dense)


def trace_curve(n, m, rho_grid, rtol=1e-11, atol=1e-13):
    """Shoot the branch over an increasing rho grid and annotate turning points."""
    rho_grid = np.asarray(rho_grid, dtype=float)
    if rho_grid.ndim != 1 or len(rho_grid) == 0:
        raise ValueError("rho grid must be a non-empty 1-d array")
    if np.any(rho_grid <= 0) or not np.all(np.diff(rho_grid) > 0):
        raise ValueError("rho grid must be positive and strictly increasing")
    points = [shoot_regular(n, m, rho, rtol=rtol, atol=atol, keep_profile=False)
              for rho in rho_grid]
    curve = BifurcationCurve(points=points, turning=[])
    curve.turning = turning_points(curve)
    return curve


def turning_points(curve, min_delta=None):
    """Sign changes of dlambda/drho, each refined by a local quadratic.

    Returns a list of (rho, lambda) vertices.  Sign changes whose local
    lambda variation stays below min_delta (default 1e-9 of the curve's
    lambda scale) are treated as integrator noise and dropped; without the
    filter the flat tail of the branch, where lambda has converged to the
    singular value within rounding, sheds spurious detections.
    """
    rho = curve.rho if isinstance(curve, BifurcationCurve) else np.asarray(curve[0])
    lam = curve.lam if isinstance(curve, BifurcationCurve) else np.asarray(curve[1])
    if len(rho) < 3:
        raise ValueError("need at least 3 branch points")
    if min_delta is None:
        min_delta = 1e-9 * float(np.max(np.abs(lam)))
    slopes = (lam[2:] - lam[:-2]) / (rho[2:] - rho[:-2])
    out = []
    for i in range(len(slopes) - 1):
        s0, s1 = slopes[i], slopes[i + 1]
        if s0 == 0.0:
            continue
        if s0 * s1 < 0.0:
            j = i + 1 if abs(s0) < abs(s1) else i + 2
            j = min(max(j, 2), len(rho) - 3)
            local = lam[j - 2:j + 3]
            if float(np.max(local) - np.min(local)) < min_delta:
                continue
            x0, x1, x2 = rho[j - 1], rho[j], rho[j + 1]
            y0, y1, y2 = lam[j - 1], lam[j], lam[j + 1]
            d1 = (x1 - x0) ** 2 * (y1 - y2) - (x1 - x2) ** 2 * (y1 - y0)
            d2 = (x1 - x0) * (y1 - y2) - (x1 - x2) * (y1 - y0)
            if d2 == 0.0:
                continue
            xv = x1 - 0.5 * d1 / d2
            # quadratic value at the vertex via Lagrange form
            yv = (y0 * (xv - x1) * (xv - x2) / ((x0 - x1) * (x0 - x2))
                  + y1 * (xv - x0) * (xv - x2) / ((x1 - x0) * (x1 - x2))
                  + y2 * (xv - x0) * (xv - x1) / ((x2 - x0) * (x2 - x1)))
            if not out or abs(xv - out[-1][0]) > 1e-12:
                out.append((float(xv), float(yv)))
    out.sort(key=lambda p: p[0])
    return out


def intersection_count(point, singular):
    """Number of crossings between the regular and singular boundary-normalized profiles.

    Both are compared as functions of tau = -ln r on their shared range,
    i.e. u_rho(r) = w_b(t_zero + tau) against u*(r) = w*(t_star + tau),
    sampled every TAU_STEP.  A sign change only counts once the difference
    has cleared a noise tolerance on both sides (the regular solution tracks
    the singular one to rounding level deep in the overlap, where raw sign
    flips are meaningless).
    """
    if point.log_profile is None:
        raise ValueError("branch point must carry its profile")
    t_zero = -math.log(point.R)
    t_star = singular.t_star
    tau_hi = min(point.log_profile.t_max - t_zero,
                 singular.profile.t_max - t_star)
    if tau_hi <= 0:
        raise ValueError("profiles do not overlap")
    tau = np.arange(1e-6, tau_hi, TAU_STEP)
    branch_eval = point.dense.eval_w if point.dense is not None \
        else point.log_profile.eval_w

    d = branch_eval(t_zero + tau) - singular.eval_w_dense(t_star + tau)
    scale = max(1.0, float(np.max(np.abs(singular.profile.w))))
    # evaluation noise sits near 1e-12 of scale when both sides come from
    # dense representations; crossings must clear it comfortably
    noise_tol = 1e-10 * scale
    # the degeneracy threshold allows for the interpolation seam of sampled
    # profiles at their grid junctions
    if np.max(np.abs(d)) < 1e-5 * scale:
        raise ValueError("profiles coincide; intersection count undefined")
    # count sign changes between consecutive samples that clear the noise
    positive = d[np.abs(d) >= noise_tol] > 0.0
    return int(np.count_nonzero(positive[1:] != positive[:-1]))
