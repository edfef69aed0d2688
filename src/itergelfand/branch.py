"""Regular solution branch lambda(rho) by shooting from the center.

A regular profile with center value rho solves

    v'' + (n-1)/r v' + exp(G_m(v)) = 0,  v(0) = rho, v'(0) = 0,

and lambda(rho) = R^2 with R its first zero.  Shooting always starts in the
rescaled inner variables s = r exp(G_m(rho)/2), where the nonlinearity is
exp(G_m(v) - G_m(rho)) and the center layer has unit scale; once the
rescaled force has died (or s has grown past a fixed cap) the descent
continues in log variables (t, w) where the remaining range is
logarithmically compressed.

A shot whose log-variable start t1 lies high up (Miyamoto's limit-equation
picture: the rescaled inner solution glued onto u*) first descends only
to t_match = t1 - MATCH_DEPTH.  Below t1 its deviation from w* decays like
e^{-r (t1-t)}, with r = Re lam_- the slower root of the linearized equation
((n-2)/2 for n <= 10, tending to 2 as n grows).  If at t_match the
deviation is below MATCH_TOL_CAP (the bound that binds for n >= 4) and so
small that, decaying further down to t_star, it could not move the zero
by rounding, the shot returns lambda* of the default build_singular(n, m)
(computed once per process).  Otherwise, or when that build fails, the
descent goes on to the zero.

A shot that keeps its profile keeps the dense output of its solves and is
evaluated from it directly; it is never sampled.  A matched shot integrates
the rest of its descent below t_match only when its profile is first asked
for there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .corrector import EtaSpaceConfig, PicardConvergenceError, PsiKernel
from .numerics import scalar_or_array
from .rk import EPS, solve_ivp
from .singular import DescentError, build_singular, descend, singular_state
from .towers import TowerOverflowError, g_tower

# descent budget: refuse shots whose log-variable start would need more work
# than roughly a million steps
T1_BUDGET = 2.0e5
# sampling step in tau = -ln r when scanning for profile intersections
TAU_STEP = 0.02
# a deep shot is compared with w* this far below its log-variable start
MATCH_DEPTH = 40.0
# larger deviations from w* at t_match are not taken as linear perturbations
MATCH_TOL_CAP = 1e-8
# (n, m) -> lambda* of the default build_singular(n, m), or None when it fails
_LAMBDA_STAR = {}


class ShootError(RuntimeError):
    """The inner phase of a shot is refused (tower out of range, budget exceeded) or fails."""


@dataclass
class BranchPoint:
    """One point of the regular branch: rho, first zero R, lambda = R^2.

    t_match is where a matched shot left its descent for w* (lambda is then
    lambda*); None for a shot that descended to its own zero.  A shot that
    keeps its profile also holds the dense solutions of its inner phase
    (in s = exp(L/2 - t), L = G_m(rho)) and the list of its log-variable
    descent solves, top first (empty when the inner phase reaches the zero
    itself).  A matched shot holds the descent above t_match and, in resume,
    the call that integrates the rest.
    """

    rho: float
    R: float
    lam: float
    n: int
    m: int
    inner: object = field(default=None, repr=False)
    descent: list | None = field(default=None, repr=False)
    L: float | None = None
    t_match: float | None = None
    resume: object = field(default=None, repr=False)

    def _inner_range(self):
        if self.inner is None:
            raise ValueError("branch point must carry its profile")
        s_lo, s_hi = sorted((float(self.inner.t[0]), float(self.inner.t[-1])))
        return 0.5 * self.L - math.log(s_hi), 0.5 * self.L - math.log(s_lo)

    @property
    def t_max(self):
        """Top of the kept t-range: the start of the inner phase."""
        return self._inner_range()[1]

    def descents(self, t_lo=-math.inf):
        """The kept descent solves, top first, once they reach down to t_lo.

        A matched shot integrates its descent below t_match here, the first
        time t_lo lies below it.
        """
        if self.resume is not None and t_lo < self.t_match:
            self.descent.append(self.resume()[1])
            self.resume = None
        return self.descent or []

    def eval_w(self, t):
        """w(t) from the kept dense solutions; NaN outside their t-range."""
        shape = np.shape(t)
        t = np.atleast_1d(np.asarray(t, dtype=float))
        out = np.full(t.shape, np.nan)
        lo, hi = self._inner_range()
        inner = (t >= lo - 1e-12) & (t <= hi + 1e-12)
        # a NaN in t must not hide the finite t below t_match from the resume
        t_lo = float(np.min(t, initial=math.inf, where=~np.isnan(t)))
        for sol in self.descents(t_lo):
            dlo, dhi = sorted((float(sol.t[0]), float(sol.t[-1])))
            # an earlier (higher) solve keeps the t it shares with this one
            below = (t >= dlo - 1e-12) & (t <= dhi + 1e-12) & np.isnan(out)
            out[below] = sol.sol(np.clip(t[below], dlo, dhi))[0]
            inner &= ~below
        out[inner] = self.inner.sol(np.exp(0.5 * self.L - np.clip(t[inner], lo, hi)))[0]
        return scalar_or_array(out.reshape(shape))


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

    The exponent is the recursion D_0 = min(v - rho, 0), D_j = G_j(rho)
    expm1(D_{j-1}): it subtracts no tower values and stays in [-G_m(rho), 0],
    so it serves any rho whose G_m(rho) is a double.
    """

    def __init__(self, m, rho):
        self.rho = rho
        try:
            chain = [g_tower(j, rho) for j in range(m + 1)]   # G_0..G_m
        except TowerOverflowError as exc:
            raise ShootError(f"G_m(rho) not representable at rho = {rho}") from exc
        self.L = chain[-1]
        self.levels = chain[1:]
        # ln G'_m(rho) = G_0(rho) + ... + G_{m-1}(rho)
        self.ln_grad = sum(chain[:-1])

    def exponent(self, v):
        """G_m(v) - G_m(rho); v <= rho on the solution."""
        d = v - self.rho if v < self.rho else 0.0
        for g in self.levels:
            d = g * math.expm1(d)
        return d

    def __call__(self, v):
        expo = self.exponent(v)
        return math.exp(expo) if expo > -745.0 else 0.0


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
    ln_s0 = math.log(1e-4) - 0.5 * max(0.0, force.ln_grad - math.log(2.0 * n))
    s0 = math.exp(ln_s0)
    # ln G'_m + 4 ln_s0 <= ln(2n) - 36.8 < 0 by the choice of s0
    quart = math.exp(force.ln_grad + 4.0 * ln_s0) / (8.0 * n * (n + 2))
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
        return _finish(n, m, rho, ln_R, sol_a, [], L, keep_profile)
    if sol_a.status < 0:
        raise ShootError(f"the inner phase at rho = {rho} failed: {sol_a.message}")
    if len(sol_a.t_events[1]):
        s1 = float(sol_a.t_events[1][0])
        v1, p1 = (float(v) for v in sol_a.y_events[1][0])
    else:
        s1 = float(sol_a.t[-1])
        v1, p1 = float(sol_a.y[0, -1]), float(sol_a.y[1, -1])

    t1, y1 = 0.5 * L - math.log(s1), (v1, -s1 * p1)
    if t1 > T1_BUDGET:
        raise ShootError(
            f"rho = {rho} puts the log-variable start at t = {t1:.3g}, beyond the "
            f"practical descent budget {T1_BUDGET:.0e}")
    descents = []
    t_match = t1 - MATCH_DEPTH
    if t_match >= EtaSpaceConfig().resolved(m)[0]:
        t_zero, sol_b = descend(n, m, t1, *y1, rtol, atol, t_match,
                                dense_output=keep_profile, stop_at_floor=True)
        descents.append(sol_b)
        if t_zero is not None:
            return _finish(n, m, rho, -t_zero, sol_a, descents, L, keep_profile)
        # stop at t_match when the shot sits on w*, else go on from there
        t1, y1 = t_match, (float(sol_b.y[0, -1]), float(sol_b.y[1, -1]))
        lam_star = _matched_lambda(n, m, t1, *y1)
        if lam_star is not None:
            kept = {}
            if keep_profile:
                kept = {"inner": sol_a, "descent": descents, "L": L,
                        "resume": partial(descend, n, m, t1, *y1, rtol, atol, dense_output=True)}
            return BranchPoint(rho=rho, R=math.sqrt(lam_star), lam=lam_star, n=n, m=m,
                               t_match=t_match, **kept)
    t_zero, sol_b = descend(n, m, t1, *y1, rtol, atol, dense_output=keep_profile)
    descents.append(sol_b)
    return _finish(n, m, rho, -t_zero, sol_a, descents, L, keep_profile)


def _singular_lambda(n, m):
    """lambda* of the default build_singular(n, m), built once per process; None if it fails."""
    if (n, m) not in _LAMBDA_STAR:
        try:
            _LAMBDA_STAR[(n, m)] = build_singular(n, m).lambda_star
        except (PicardConvergenceError, DescentError, ValueError, OverflowError):
            _LAMBDA_STAR[(n, m)] = None
    return _LAMBDA_STAR[(n, m)]


def _matched_lambda(n, m, t, w, w_t):
    """lambda* when the descent state (w, w_t) at t sits on w*, else None.

    The deviation from w*(t) decays like e^{-r (t-s)} on the way down to
    s = t_star, with r = Re lam_- of PsiKernel ((n-2)/2 for n <= 10, the
    real slower root for n >= 11), and moves t_star, and so ln(lambda) / 2,
    by about that much; it matches when that effect is below eps / 2 and
    the deviation itself below MATCH_TOL_CAP.  With t >= 30 the cap is the
    bound that binds for every n >= 4.
    """
    lam_star = _singular_lambda(n, m)
    star = singular_state(n, m, t) if lam_star is not None else None
    if star is None:
        return None
    dev = max(abs(w - star[0]), abs(w_t - star[1]))
    rate = PsiKernel.for_dimension(n).lam_minus.real
    decay = math.exp(-rate * (t + 0.5 * math.log(lam_star)))
    return lam_star if dev < MATCH_TOL_CAP and dev * decay < 0.5 * EPS else None


def _finish(n, m, rho, ln_R, sol_a, descents, L, keep_profile):
    """BranchPoint of a shot from its inner solve sol_a and its descent solves."""
    kept = {"inner": sol_a, "descent": descents, "L": L} if keep_profile else {}
    return BranchPoint(rho=rho, R=math.exp(ln_R), lam=math.exp(2.0 * ln_R), n=n, m=m, **kept)


def trace_curve(n, m, rho_grid, rtol=1e-11, atol=1e-13):
    """Shoot the branch over an increasing rho grid and annotate turning points."""
    rho_grid = np.asarray(rho_grid, dtype=float)
    if rho_grid.ndim != 1 or len(rho_grid) == 0:
        raise ValueError("rho grid must be a non-empty 1-d array")
    if np.any(rho_grid <= 0) or not np.all(np.diff(rho_grid) > 0):
        raise ValueError("rho grid must be positive and strictly increasing")
    points = [shoot_regular(n, m, rho, rtol=rtol, atol=atol, keep_profile=False)
              for rho in rho_grid]
    lam = np.array([p.lam for p in points])
    return BifurcationCurve(points=points, turning=turning_points(rho_grid, lam))


def turning_points(rho, lam, min_delta=None):
    """Sign changes of dlambda/drho on branch samples, each refined by a local quadratic.

    rho (increasing) and lam are the sample arrays; returns a list of
    (rho, lambda) vertices.  Sign changes whose local lambda variation stays
    below min_delta (default 1e-9 of the curve's lambda scale) are treated
    as integrator noise and dropped; without the filter the flat tail of the
    branch, where lambda has converged to the singular value within
    rounding, sheds spurious detections.
    """
    rho, lam = np.asarray(rho, dtype=float), np.asarray(lam, dtype=float)
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
    flips are meaningless).  Raises ValueError for a point shot without its
    profile.
    """
    t_zero = -math.log(point.R)
    t_star = singular.t_star
    tau_hi = min(point.t_max - t_zero, singular.profile.t_max - t_star)
    if tau_hi <= 0:
        raise ValueError("profiles do not overlap")
    tau = np.arange(1e-6, tau_hi, TAU_STEP)
    d = point.eval_w(t_zero + tau) - singular.profile.eval_w(t_star + tau)
    scale = max(1.0, float(np.max(np.abs(singular.profile.w))))
    # the branch side is the shot's own dense output and the singular side
    # the cubic Hermite of its (w, w_t) samples, so evaluation noise stays
    # below 1e-11 of scale; crossings must clear it comfortably
    noise_tol = 1e-10 * scale
    # profiles closer than this everywhere are taken to be the same solution
    if np.max(np.abs(d)) < 1e-5 * scale:
        raise ValueError("profiles coincide; intersection count undefined")
    # count sign changes between consecutive samples that clear the noise
    positive = d[np.abs(d) >= noise_tol] > 0.0
    return int(np.count_nonzero(positive[1:] != positive[:-1]))
