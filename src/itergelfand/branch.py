"""Regular solution branch lambda(rho) by shooting from the center.

A regular profile with center value rho solves

    v'' + (n-1)/r v' + exp(G_m(v)) = 0,  v(0) = rho, v'(0) = 0,

and lambda(rho) = R^2 with R its first zero.  Shooting always starts in the
rescaled inner variables s = r exp(G_m(rho)/2), where the nonlinearity is
exp(G_m(v) - G_m(rho)) and the center layer has unit scale.  Near the
center v is its Taylor series rho + sum_{k<=K} c_k s^{2k}: the ODE gives
c_{k+1} (2k+2)(2k+n) = -[exp(D_m)]_k, with D_m from the level recursion
D_0 = v - rho, D_j = G_j(rho) expm1(D_{j-1}) run on truncated series by the
series recurrence of exp (Corliss and Chang 1982), in O(m K^2) operations.
The inner phase runs in tau = -ln s from where that series stops converging to
rtol down to its zero or to s = S_CAP, as the descent's equation v_tt - (n-2) v_t
+ exp(D_m - 2 tau) = 0, handing (v, v_tau) on as (w, w_t) at t = G_m(rho)/2 + tau.
Its error test holds v_tau to rtol, not to s atol as in s (Hairer, Norsett and
Wanner, II.4): a quarter fewer steps at n <= 6, up to a quarter more at large n.

A shot whose log-variable start t1 lies high up (Miyamoto's limit-equation
picture: the rescaled inner solution glued onto u*) lies near w* = f + eta,
f the ansatz, and the paper's fixed point puts the corrector in the ball
t^2 |eta| <= M.  Below t1 a deviation d from w* moves the zero by psi.d +
d^T P d / 2, with psi the adjoint of the descent's linearisation A along w*
and P the Hessian of the zero's position, P' = -A^T P - P A + psi_b F_ww
E_11 (Cao, Li, Petzold and Serban 2003), both tabulated from the default
build_singular(n, m) (built once per process) up to T + MATCH_DEPTH, T the
left end of its corrector window.  A shot with t1 at or above that top
returns lambda* at t1 itself when its state lies within BALL_CAP of f(t1), so
within BALL_CAP + M / t1^2 of w*, and that bound times the table's psi near
its top cannot move ln(lambda) by eps / 4.  A shot below it stops at the
highest node t_s of the table where K |d|^3, K the table's weight of the
cubic remainder, is aimed to be at most REMAINDER_TOL (d decays like
e^{-r (t1-t)}, with r = Re lam_- the slower root of the linearized equation:
(n-2)/2 for n <= 10, tending to 2 as n grows), and returns lambda* exp(-2
psi.d - d^T P d) there when the d it reaches meets that bound.  Otherwise,
or when that build fails, the descent goes on to the zero.

A shot that keeps its profile keeps the dense output of its solves and,
above the integrated start, its center series, and is evaluated from them
directly; it is never sampled.  A shot with a t_match integrates its descent
below t_match only as far down as its profile is asked for.
"""

from __future__ import annotations

import array
import math
from dataclasses import dataclass, field
from functools import cache
from operator import mul
from typing import NamedTuple

import numpy as np

from .corrector import PicardConvergenceError, PsiKernel, check_dimension
from .numerics import scalar_or_array
from .rk import EPS, acceleration, check_tolerances, solve_ivp
from .singular import FLOOR, DescentError, ansatz_terms, build_singular, descend
from .towers import TowerOverflowError, _g_levels, check_height, g_tower

# terms of the center series; a shot starts where each of the last two terms of
# its v' is below SERIES_TOL rtol times the first, and x^2 below SERIES_RADIUS of
# the radius that the last coefficient ratio estimates
SERIES_TERMS = 10
SERIES_TOL = 0.1
SERIES_RADIUS = 0.25
# the inner phase ends at its zero or at s = S_CAP
S_CAP = 100.0
# descent budget: refuse shots whose log-variable start would need more work
# than roughly a million steps
T1_BUDGET = 2.0e5
# sampling step in tau = -ln r when scanning for profile intersections
TAU_STEP = 0.02
# a shot that starts MATCH_DEPTH or more above the default T takes lambda* when its
# state lies within BALL_CAP of the ansatz there; |psi| is read as its largest
# |a| + |b| over the table's top PSI_SPAN, a full period of its oscillation
# (2 pi / Im lam_- is at most 4.75)
MATCH_DEPTH = 40.0
BALL_CAP = 1e-3
PSI_SPAN = 5.0
# a shot with t_match below the default T stops at a node of the response table,
# RESPONSE_STEP apart from t_star and RESPONSE_GUARD or more above it, and takes
# lambda from its second-order response there when the table's cubic remainder
# weight K times the cube of its deviation from w* is at most REMAINDER_TOL
REMAINDER_TOL = 1e-14
RESPONSE_STEP = 0.02
RESPONSE_GUARD = 12.0
# classical RK4 damps a mode of real rate -r at step h when r h <= RK4_STABLE
RK4_STABLE = 2.785
# a shot with a t_match is counted down to _GUARD_WINDOW below where its difference
# to w* is aimed to decay to half of _GUARD_MARGIN of the noise tolerance, when it
# stays within _GUARD_MARGIN over that window (over 103 shots at n = 3..12 the
# measured decay lagged the aim by up to a factor 1.5)
_GUARD_WINDOW = 2.0
_GUARD_MARGIN = 0.1


class ShootError(RuntimeError):
    """The inner phase of a shot is refused (tower out of range, budget exceeded) or fails."""


@dataclass
class BranchPoint:
    """One point of the regular branch: rho, first zero R, lambda = R^2.

    t_match is where a shot left its descent for w*: its descent start t1
    (lambda is then lambda*) or, for t1 below T + MATCH_DEPTH, the node of its
    second-order response along w*, and y_match its state (w, w_t) there; None for a
    shot that descended to its own zero.
    A shot that keeps its profile also holds the dense inner solve (in tau =
    -ln s = t - L/2, L = G_m(rho)), the center series above it (in s) and the list of
    its log-variable descent solves, top first (empty when the inner phase
    reaches the zero itself, or while a shot with a t_match has none).  Such a
    shot holds in resume(t, w, w_t, t_lo) the call that extends its descent from
    its bottom state down to t_lo, until it reaches the zero.
    """

    rho: float
    R: float
    lam: float
    n: int
    m: int
    inner: object = field(default=None, repr=False)
    start: CenterSeries | None = field(default=None, repr=False)
    descent: list | None = field(default=None, repr=False)
    L: float | None = None
    t_match: float | None = None
    y_match: tuple | None = field(default=None, repr=False)
    resume: object = field(default=None, repr=False)

    def _inner_pieces(self):
        """(t_lo, t_hi, (w, w_t) of t) of the inner solve, then of the center series above it."""
        if self.inner is None:
            raise ValueError("branch point must carry its profile")
        half = 0.5 * self.L
        yield (half + float(self.inner.t[-1]), half + float(self.inner.t[0]),
               lambda t: self.inner.sol(t - half))
        yield (half - math.log(self.start.t[1]), half - math.log(self.start.t[0]),
               lambda t: self.start.sol(np.exp(half - t)))

    @property
    def t_max(self):
        """Top of the kept t-range: the top of the center series."""
        return max(hi for _, hi, _ in self._inner_pieces())

    def descents(self, t_lo=-math.inf):
        """The kept descent solves, top first, once they reach down to t_lo.

        A shot with a t_match extends its descent here, only down to t_lo (or
        to its zero, if that lies above); a later, lower t_lo continues from there.
        """
        bottom, y = ((float(self.descent[-1].t[-1]), self.descent[-1].y[:, -1])
                     if self.descent else (self.t_match, self.y_match))
        if self.resume is not None and t_lo < bottom:
            t_zero, sol = self.resume(bottom, *y, t_lo)
            self.descent.append(sol)
            if t_zero is not None:
                self.resume = None
        return self.descent or []

    def eval_w(self, t):
        """w(t) from the kept pieces, NaN outside them: the descent solves (top first),
        the inner solve and the center series, each keeping the t it shares with a
        later one; a piece that holds none of the t left is not evaluated (or built)."""
        shape = np.shape(t)
        t = np.atleast_1d(np.asarray(t, dtype=float))
        out = np.full(t.shape, np.nan)
        # a NaN in t must not hide the finite t below the kept descent from the resume
        t_lo = float(np.min(t, initial=math.inf, where=~np.isnan(t)))
        for lo, hi, w_of in [(*sorted((float(sol.t[0]), float(sol.t[-1]))), sol.sol)
                             for sol in self.descents(t_lo)] + list(self._inner_pieces()):
            sel = (t >= lo - 1e-12) & (t <= hi + 1e-12) & np.isnan(out)
            if sel.any():
                out[sel] = w_of(np.clip(t[sel], lo, hi))[0]
        return scalar_or_array(out.reshape(shape))


@dataclass
class CenterSeries:
    """v = rho + s^2 sum_{k=1}^K b_k x^{2k-2}, x = s sqrt(G'_m(rho)), each b_k of order one.

    t is its s-range, from the top of the kept profile to the start s0; sol(s) is (v, v_tau),
    v_tau = -s v', at a float or an array s: the inner solve's state at tau = -ln s.
    """

    rho: float
    b: tuple
    root_grad: float
    t: tuple | None = None

    def sol(self, s):
        x = s * self.root_grad
        z = x * x
        q = dq = 0.0
        for k in range(len(self.b), 0, -1):
            q = q * z + self.b[k - 1]
            dq = dq * z + k * self.b[k - 1]
        return self.rho + s * s * q, -2.0 * s * s * dq


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


def _inner_acceleration(n, m, rho):
    """(G_0(rho), ..., G_m(rho)) and the inner phase's acceleration v_tt = a(tau, v, v_tau).

    In tau = -ln s the inner equation is the descent's, a = (n-2) v_tau -
    exp(D_m - 2 tau), D_m = G_m(v) - G_m(rho), the force flushed to 0 below
    the double range.  a forms the exponent itself, by the level-difference
    recursion D_0 = min(v - rho, 0), D_j = G_j(rho) expm1(D_{j-1}): it
    subtracts no tower values and stays in [-G_m(rho), 0], so it serves any
    rho whose G_m(rho) is a double.
    """
    try:
        chain = tuple(g_tower(j, rho) for j in range(m + 1))
    except TowerOverflowError as exc:
        raise ShootError(f"G_m(rho) not representable at rho = {rho}") from exc
    # the level recursion unrolled; chain[0] is rho as a Python float, cheaper
    # per evaluation than a numpy scalar
    levels = "".join(f"d = g{j} * expm1(d)\n" for j in range(1, m + 1))
    accel = acceleration(f"d = y - rho if y < rho else 0.0\n{levels}d -= 2.0 * t\n"
                         "a = c * p - (exp(d) if d > -745.0 else 0.0)",
                         rho=chain[0], c=float(n - 2),
                         **{f"g{j}": chain[j] for j in range(1, m + 1)})
    return chain, accel


def _series_start(n, rho, chain, rtol):
    """The CenterSeries of a shot with chain (G_0(rho), ..., G_m(rho)), from its start s0 up.

    s0 is the largest s at which the last two terms of v' are below SERIES_TOL rtol
    times its first, inside SERIES_RADIUS of the estimated radius and below half
    the cap, then halved until v(s0) >= rho / 2: in the core, before the zero.
    """
    m = len(chain) - 1
    # levels B_0 = G'_m(rho) D_0 = sum_k b_k x^{2k}, B_j = D_j G_{j+1}(rho)...G_m(rho) =
    # P expm1(B_{j-1} / P), P = G_j(rho)...G_m(rho), then exp(B_m) - 1 at P = 1; F = P
    # expm1(B / P) has k F_k = k B_k + (1 / P) sum_{0<i<k} i B_i F_{k-i}, and 1/P may be 0;
    # each level keeps its i B_i beside it for the sums of the level above
    inv = [math.exp(-sum(chain[j - 1:m])) for j in range(1, m + 1)] + [1.0]
    levels = [[0.0, -1.0 / (2 * n)]] + [[0.0] for _ in inv]
    weighted = [[0.0, levels[0][1]]] + [[0.0] for _ in inv]
    steps = list(zip(levels, weighted, levels[1:], weighted[1:], inv))
    for k in range(1, SERIES_TERMS):
        for below, ib_below, level, ib_level, q in steps:
            level.append(below[k] + q / k * sum(map(mul, ib_below[1:k], level[k - 1:0:-1])))
            ib_level.append(k * level[k])
        levels[0].append(-levels[-1][k] / ((2 * k + 2) * (2 * k + n)))
        weighted[0].append((k + 1) * levels[0][k + 1])
    b = levels[0][1:]
    # v' = 2s sum_k k b_k x^{2k-2}
    ln_z = [(math.log(SERIES_TOL * rtol * abs(b[0])) - math.log(k * abs(b[k - 1]))) / (k - 1)
            for k in (SERIES_TERMS - 1, SERIES_TERMS) if b[k - 1]]
    if b[-1] and b[-2]:
        ln_z.append(math.log(SERIES_RADIUS * abs(b[-2] / b[-1])))
    series = CenterSeries(rho, tuple(b), math.exp(0.5 * sum(chain[:-1])))
    s0 = min(math.exp(0.5 * min(ln_z, default=math.inf)) / series.root_grad, 0.5 * S_CAP)
    while series.sol(s0)[0] < 0.5 * rho:
        s0 *= 0.5
    # the kept profile reaches up to where v - rho falls below rounding of rho
    series.t = (min(s0, math.sqrt(2.0 * n * EPS * rho)), s0)
    return series


def shoot_regular(n, m, rho, rtol=1e-11, atol=1e-13, keep_profile=True):
    """Integrate the center problem to the first zero; lambda(rho) = R^2.

    Raises ShootError when the inner phase is refused or fails and
    singular.DescentError when the log-variable descent finds no zero.
    """
    check_dimension(n)
    if not 0 < rho < math.inf:
        raise ValueError("rho must be finite and positive")
    check_tolerances(rtol, atol)
    m = check_height(m)
    chain, accel = _inner_acceleration(n, m, rho)
    L = chain[-1]
    # refused before the inner phase: past the budget its force jumps within an ulp of rho
    if (t1 := 0.5 * L - math.log(S_CAP)) > T1_BUDGET:
        raise ShootError(f"rho = {rho} puts the log-variable start at t = {t1:.3g}, beyond "
                         f"the practical descent budget {T1_BUDGET:.0e}")
    start = _series_start(n, rho, chain, rtol)
    s0 = start.t[1]
    # stop at the zero of v; the cap bounds the inner phase for slowly-dying nonlinearities
    sol_a = solve_ivp(accel, (-math.log(s0), -math.log(S_CAP)), start.sol(s0), rtol=rtol,
                      atol=atol, dense_output=keep_profile, stop_at=0.0)
    if sol_a.status < 0:
        raise ShootError(f"the inner phase of n = {n}, m = {m} at rho = {rho} failed: "
                         f"{sol_a.message}")
    t1, y1 = 0.5 * L + float(sol_a.t[-1]), (float(sol_a.y[0, -1]), float(sol_a.y[1, -1]))
    descents = []
    kept = {"inner": sol_a, "start": start, "descent": descents, "L": L} if keep_profile else {}
    if sol_a.status == 1:
        return _finish(n, m, rho, t1, kept)
    star, lam = _singular(n, m), None
    if star is not None and t1 >= star.top:
        lam = _ball_lambda(star, n, m, t1, *y1)
    elif (stop := _response_stop(star, n, t1, *y1)) is not None:
        t_zero, sol_b = descend(n, m, t1, *y1, rtol, atol, stop,
                                dense_output=keep_profile, stop_at_floor=True)
        descents.append(sol_b)
        if t_zero is not None:
            return _finish(n, m, rho, t_zero, kept)
        # stop there when the shot sits near enough on w* for its response, else go on
        t1, y1 = stop, (float(sol_b.y[0, -1]), float(sol_b.y[1, -1]))
        lam = _response_lambda(star, t1, *y1)
    if lam is not None:
        if keep_profile:
            # the dense descent from (w, w_t) at t down to t_lo; below FLOOR, to the zero
            kept["resume"] = lambda t, w, w_t, t_lo: descend(
                n, m, t, w, w_t, rtol, atol, max(t_lo, FLOOR), dense_output=True,
                stop_at_floor=t_lo > FLOOR)
        return BranchPoint(rho=rho, R=math.sqrt(lam), lam=lam, n=n, m=m, t_match=t1,
                           y_match=y1, **kept)
    t_zero, sol_b = descend(n, m, t1, *y1, rtol, atol, dense_output=keep_profile)
    descents.append(sol_b)
    return _finish(n, m, rho, t_zero, kept)


def _forces(m, w, t):
    """F_w, F_ww and F_www of F = exp(G_m(w) - 2t) at arrays w, t, with the derivatives of
    G_m from towers' level recursion."""
    G, d1, d2, d3 = _g_levels(m, w)
    F = np.exp(G - 2.0 * t)
    return F * d1, F * (d1 * d1 + d2), F * (d1 * (d1 * d1 + 3.0 * d2) + d3)


def _window_max(v, half):
    """The largest of the v >= 0 within half entries of each (fewer at the ends)."""
    return np.lib.stride_tricks.sliding_window_view(np.pad(v, half), 2 * half + 1).max(axis=1)


def _remainder_weight(n, table, F_ww, F_www, h):
    """K = (max |psi| F_www + 3 max |P| F_ww) / r at the nodes of an _adjoint table, given
    F_ww and F_www there, each max over the PSI_SPAN around the node and r = Re lam_-: the
    weight of the cube of a deviation d in the remainder of the zero's shift psi.d +
    d^T P d / 2, as d decays like e^{-r (t-s)} below the node."""
    half = round(0.5 * PSI_SPAN / h)
    psi = _window_max(np.abs(table[:, :2]).max(axis=1), half)
    hessian = _window_max(np.abs(table[:, 2:5]).max(axis=1), half)
    return (psi * F_www + 3.0 * hessian * F_ww) / PsiKernel.for_dimension(n).lam_minus.real


def _adjoint(n, m, profile, top, h):
    """Rows (a, b, x, y, z, K) at t_star + k h up to top along w* = profile.

    psi = (a, b) is the adjoint a' = F_w b, b' = -a - (n-2) b of the descent's
    linearisation A = [[0, 1], [-F_w, n-2]] along w*, F_w = exp(G_m(w*) - 2t)
    G'_m(w*): psi . (dw, dw_t) is constant along it, and psi(t_star) =
    (-1 / w*_t, 0) makes it the shift of the zero.  P = [[x, y], [y, z]] is the
    Hessian of the zero's position, P' = -A^T P - P A + b F_ww E_11 from
    P(t_star) = [[-w*_tt / w*_t^3, 1 / w*_t^2], [1 / w*_t^2, 0]]:
    x' = 2 F_w y + F_ww b, y' = -x - (n-2) y + F_w z, z' = -2 y - 2 (n-2) z.
    K is _remainder_weight.  The five floats are integrated from t_star up by
    classical RK4 from one _forces read at the substeps' ends and midpoints, in as
    many substeps per node as keep the fastest mode, z's -2 (n-2), inside RK4's
    stability interval; every n <= 71 takes one.
    """
    steps, c = int((top - profile.t_min) / h), n - 2.0
    sub = max(1, math.ceil(2.0 * c * h / RK4_STABLE))
    w_t = float(profile.w_t[0])
    w_tt = c * w_t - math.exp(g_tower(m, float(profile.w[0])) - 2.0 * profile.t_min)
    a, b, x, y, z = -1.0 / w_t, 0.0, -w_tt / w_t ** 3, 1.0 / (w_t * w_t), 0.0
    hs = h / sub
    t = profile.t_min + 0.5 * hs * np.arange(2 * sub * steps + 1)
    F_w, F_ww, F_www = _forces(m, profile.eval_w(t), t)
    u, v = F_w.tolist(), F_ww.tolist()
    h2, h6 = 0.5 * hs, hs / 6.0
    # raw doubles: a list of row tuples would hold 0.57 MB more at (3, 1)
    rows = array.array("d", (a, b, x, y, z))
    for u0, u1, u2, v0, v1, v2 in zip(u[:-1:2], u[1::2], u[2::2], v[:-1:2], v[1::2], v[2::2]):
        a1, b1 = u0 * b, -a - c * b
        x1, y1, z1 = 2.0 * u0 * y + v0 * b, -x - c * y + u0 * z, -2.0 * y - 2.0 * c * z
        A, B, X, Y, Z = a + h2 * a1, b + h2 * b1, x + h2 * x1, y + h2 * y1, z + h2 * z1
        a2, b2 = u1 * B, -A - c * B
        x2, y2, z2 = 2.0 * u1 * Y + v1 * B, -X - c * Y + u1 * Z, -2.0 * Y - 2.0 * c * Z
        A, B, X, Y, Z = a + h2 * a2, b + h2 * b2, x + h2 * x2, y + h2 * y2, z + h2 * z2
        a3, b3 = u1 * B, -A - c * B
        x3, y3, z3 = 2.0 * u1 * Y + v1 * B, -X - c * Y + u1 * Z, -2.0 * Y - 2.0 * c * Z
        A, B, X, Y, Z = a + hs * a3, b + hs * b3, x + hs * x3, y + hs * y3, z + hs * z3
        a4, b4 = u2 * B, -A - c * B
        x4, y4, z4 = 2.0 * u2 * Y + v2 * B, -X - c * Y + u2 * Z, -2.0 * Y - 2.0 * c * Z
        a, b = a + h6 * (a1 + 2.0 * (a2 + a3) + a4), b + h6 * (b1 + 2.0 * (b2 + b3) + b4)
        x, y = x + h6 * (x1 + 2.0 * (x2 + x3) + x4), y + h6 * (y1 + 2.0 * (y2 + y3) + y4)
        z = z + h6 * (z1 + 2.0 * (z2 + z3) + z4)
        rows.extend((a, b, x, y, z))
    table = np.empty((steps + 1, 6))
    table[:, :5] = np.frombuffer(rows).reshape(-1, 5)[::sub]
    table[:, 5] = _remainder_weight(n, table, F_ww[::2 * sub], F_www[::2 * sub], h)
    return table


class _Star(NamedTuple):
    """The default build_singular(n, m) as shots read it: lambda*, w*, the response table
    (rows of _adjoint) up to top = T + MATCH_DEPTH, psi bounding its |a| + |b| above top,
    and M."""

    lam: float
    profile: object
    table: np.ndarray
    top: float
    psi: float
    M: float


@cache
def _singular(n, m):
    """The _Star of the default build_singular(n, m), built once per process; None when
    the build fails."""
    try:
        sol = build_singular(n, m)
    except (PicardConvergenceError, DescentError, ValueError, OverflowError):
        return None
    top = sol.eta.T + MATCH_DEPTH
    table = _adjoint(n, m, sol.profile, top, RESPONSE_STEP)
    psi = float(np.max(np.abs(table[-round(PSI_SPAN / RESPONSE_STEP):, :2]).sum(axis=1)))
    return _Star(sol.lambda_star, sol.profile, table, top, psi, sol.eta.M)


def _deviation(dw, dw_t):
    """max(|dw|, |dw_t|), NaN when either is NaN, so that a NaN fails every bound on it."""
    dw, dw_t = abs(dw), abs(dw_t)
    return dw if dw >= dw_t else dw_t if dw_t > dw else math.nan


def _ball_lambda(star, n, m, t, w, w_t):
    """lambda* when the descent state (w, w_t) at t >= star.top lies in the corrector's
    ball around w*, else None.

    The state lies within dev of the ansatz (f, f_t) at t, so within dev + M / t^2 of
    w*, which moves ln(lambda) by at most 2 psi (dev + M / t^2); it is taken when dev
    is within BALL_CAP and that shift below eps / 4.
    """
    f, f_t = ansatz_terms(n, m, t)
    dev = _deviation(w - float(f), w_t - float(f_t))
    shift = 2.0 * star.psi * (dev + star.M / (t * t))
    return star.lam if dev <= BALL_CAP and shift < 0.25 * EPS else None


def _response_stop(star, n, t, w, w_t):
    """The response table's node at which a descent from (w, w_t) at t stops, or None.

    The deviation delta from w* decays like e^{-r (t-s)} on the way down, with
    r = Re lam_- of PsiKernel: the stop is the highest node below t at which
    K (2 delta e^{-r (t-s)})^3 is at most REMAINDER_TOL, the factor 2 a margin for
    the decay's oscillation.  None when the default build failed (star is None),
    the deviation is 0 or NaN (t above the profile) or no node from t_star +
    RESPONSE_GUARD up, where psi is small, meets it.
    """
    if star is None or t < star.profile.t_min + RESPONSE_GUARD:
        return None
    profile = star.profile
    dev = _deviation(w - profile.eval_w(t), w_t - profile.eval_wt(t))
    if not dev > 0.0:
        return None
    rate = PsiKernel.for_dimension(n).lam_minus.real
    guard = round(RESPONSE_GUARD / RESPONSE_STEP)
    s = profile.t_min + RESPONSE_STEP * np.arange(
        guard, min(math.ceil((t - profile.t_min) / RESPONSE_STEP), len(star.table)))
    remainder = star.table[guard:guard + len(s), 5] * (2.0 * dev * np.exp(rate * (s - t))) ** 3
    hits = np.flatnonzero(remainder <= REMAINDER_TOL)
    return float(s[hits[-1]]) if hits.size else None


def _response_lambda(star, t, w, w_t):
    """lambda* exp(-2 psi.d - d^T P d) at the response node t, d = (w - w*, w_t - w*_t),
    or None when the table's K times the cube of d's larger component is above
    REMAINDER_TOL."""
    profile = star.profile
    dw, dw_t = w - profile.eval_w(t), w_t - profile.eval_wt(t)
    a, b, x, y, z, K = star.table[round((t - profile.t_min) / RESPONSE_STEP)].tolist()
    if not K * _deviation(dw, dw_t) ** 3 <= REMAINDER_TOL:
        return None
    return star.lam * math.exp(-2.0 * (a * dw + b * dw_t)
                               - (x * dw * dw + 2.0 * y * dw * dw_t + z * dw_t * dw_t))


def _finish(n, m, rho, t_zero, kept):
    """BranchPoint of a shot whose first zero is R = exp(-t_zero), with the pieces it keeps."""
    return BranchPoint(rho=rho, R=math.exp(-t_zero), lam=math.exp(-2.0 * t_zero), n=n, m=m, **kept)


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


def turning_points(rho, lam):
    """Sign changes of dlambda/drho on branch samples, each refined by a local quadratic.

    rho (increasing) and lam are the sample arrays; returns a list of
    (rho, lambda) vertices.  Sign changes whose local lambda variation stays
    below min_delta, 1e-9 of the curve's lambda scale, are treated as
    integrator noise and dropped; without the filter the flat tail of the
    branch, where lambda has converged to the singular value within
    rounding, sheds spurious detections.
    """
    rho, lam = np.asarray(rho, dtype=float), np.asarray(lam, dtype=float)
    if len(rho) != len(lam):
        raise ValueError(f"rho has {len(rho)} samples and lam {len(lam)}: they must pair up")
    if len(rho) < 3:
        raise ValueError("need at least 3 branch points")
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

    Both are compared as functions of tau = -ln r over the shot's range,
    i.e. u_rho(r) = w_b(t_zero + tau) against u*(r) = w*(t_star + tau),
    sampled every TAU_STEP.  A sign change only counts once the difference
    has cleared a noise tolerance on both sides (the regular solution tracks
    the singular one to rounding level deep in the overlap, where raw sign
    flips are meaningless).

    A shot with a t_match is first compared down to t_g - _GUARD_WINDOW only.
    Below t_match it solves w*'s equation, so its difference to w* decays on
    the way down, like e^{-r (t_match - t)} (r as in _response_stop): t_g is
    where that reaches half of _GUARD_MARGIN of the tolerance from the larger
    of the differences in w and w_t at t_match.  When the difference stays
    within _GUARD_MARGIN of it over the _GUARD_WINDOW below t_g, no sample
    below can count, and the descent is integrated no further down.
    Otherwise the whole range is compared.
    Raises ValueError for a point shot without its profile and for a
    singular profile that ends below the shot's.
    """
    t_zero = -math.log(point.R)
    t_star = singular.t_star
    tau_hi = min(point.t_max - t_zero, singular.profile.t_max - t_star)
    if tau_hi <= 0:
        raise ValueError("profiles do not overlap")
    if tau_hi < point.t_max - t_zero:
        top = t_star + point.t_max - t_zero
        raise ValueError(f"the singular profile ends at t = {singular.profile.t_max:.6g}, "
                         f"below t = {top:.6g}, where the shot at rho = {point.rho:.6g} "
                         f"ends: the count needs a singular profile up to that height, "
                         f"so a t_max above {top:.6g}")
    tau = np.arange(1e-6, tau_hi, TAU_STEP)
    scale = max(1.0, float(np.max(np.abs(singular.profile.w))))
    # the branch side is the shot's own dense output and the singular side
    # the cubic Hermite of its (w, w_t) samples, so evaluation noise stays
    # below 1e-11 of scale; crossings must clear it comfortably
    noise_tol = 1e-10 * scale

    def difference(tau):
        return point.eval_w(t_zero + tau) - singular.profile.eval_w(t_star + tau)

    d = None
    if point.t_match is not None:
        margin = _GUARD_MARGIN * noise_tol
        t_ref = t_star + point.t_match - t_zero
        delta = _deviation(point.y_match[0] - singular.profile.eval_w(t_ref),
                           point.y_match[1] - singular.profile.eval_wt(t_ref))
        rate = PsiKernel.for_dimension(point.n).lam_minus.real
        ratio = 2.0 * delta / margin
        # a NaN delta puts t_g at NaN, so the window below is empty
        t_g = point.t_match - (0.0 if ratio <= 1.0 else math.log(ratio) / rate)
        above = tau[t_zero + tau >= t_g - _GUARD_WINDOW]
        d = difference(above)
        guard = np.abs(d[t_zero + above < t_g])
        # an empty window, or a NaN in it, fails the guard
        if not (guard.size and np.max(guard) <= margin):
            d = None
    if d is None:
        d = difference(tau)
    # profiles closer than this everywhere are taken to be the same solution
    if np.max(np.abs(d)) < 1e-5 * scale:
        raise ValueError("profiles coincide; intersection count undefined")
    # count sign changes between consecutive samples that clear the noise
    positive = d[np.abs(d) >= noise_tol] > 0.0
    return int(np.count_nonzero(positive[1:] != positive[:-1]))
