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
The inner phase is integrated from where that series stops converging to
rtol, and ends at its zero or at s = S_CAP; from there the descent
continues in log variables (t, w) where the remaining range is
logarithmically compressed.

A shot whose log-variable start t1 lies high up (Miyamoto's limit-equation
picture: the rescaled inner solution glued onto u*) first descends only
to t_match = t1 - MATCH_DEPTH, where singular.singular_state reads w* from
the corrector band that holds it.  Below t1 its deviation from w* decays like
e^{-r (t1-t)}, with r = Re lam_- the slower root of the linearized equation
((n-2)/2 for n <= 10, tending to 2 as n grows).  If at t_match the
deviation is below MATCH_TOL_CAP (the bound that binds for n >= 4) and so
small that, decaying further down to t_star, it could not move the zero
by rounding, the shot returns lambda* of the default build_singular(n, m)
(built once per process).  A shot with t_match below T instead stops at a
node t_s of that build's response table, aimed at where its deviation delta
from w* has decayed below RESPONSE_TOL, and returns lambda* exp(-2 psi.delta)
there, with psi the adjoint of the descent's linearisation along w*, which
turns delta(t_s) into the shift of the zero (Cao, Li, Petzold and Serban
2003).  Otherwise, or when that build fails, the descent goes on to the zero.

A shot that keeps its profile keeps the dense output of its solves and,
above the integrated start, its center series, and is evaluated from them
directly; it is never sampled.  A matched shot integrates the rest of its
descent below t_match only when its profile is first asked for there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache, partial

import numpy as np

from .corrector import EtaSpaceConfig, PicardConvergenceError, PsiKernel, check_dimension
from .numerics import scalar_or_array
from .rk import EPS, acceleration, check_tolerances, solve_ivp
from .singular import DescentError, build_singular, descend, singular_state
from .towers import TowerOverflowError, check_height, g_tower

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
# a deep shot is compared with w* this far below its log-variable start
MATCH_DEPTH = 40.0
# larger deviations from w* at t_match are not taken as linear perturbations
MATCH_TOL_CAP = 1e-8
# a shot with t_match below the default T takes lambda from its linear response once
# its deviation from w* is below RESPONSE_TOL, at a node of the adjoint table,
# RESPONSE_STEP apart from t_star, that lies RESPONSE_GUARD or more above t_star
RESPONSE_TOL = 1e-7
RESPONSE_STEP = 0.02
RESPONSE_GUARD = 12.0
# a matched shot's intersections are counted above t_match alone when the
# difference stays within _GUARD_MARGIN of the noise tolerance over the
# _GUARD_WINDOW above it
_GUARD_WINDOW = 10.0
_GUARD_MARGIN = 0.1


class ShootError(RuntimeError):
    """The inner phase of a shot is refused (tower out of range, budget exceeded) or fails."""


@dataclass
class BranchPoint:
    """One point of the regular branch: rho, first zero R, lambda = R^2.

    t_match is where a matched shot left its descent for w* (lambda is then
    lambda*) or, below the default T, for its linear response along w*; None
    for a shot that descended to its own zero.  A shot that
    keeps its profile also holds the dense inner solve and the center series
    above it (in s = exp(L/2 - t), L = G_m(rho)) and the list of its log-variable
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
    start: CenterSeries | None = field(default=None, repr=False)
    descent: list | None = field(default=None, repr=False)
    L: float | None = None
    t_match: float | None = None
    resume: object = field(default=None, repr=False)

    def _inner_pieces(self):
        """(t_lo, t_hi, piece) of the inner solve, then of the center series above it."""
        if self.inner is None:
            raise ValueError("branch point must carry its profile")
        for piece in (self.inner, self.start):
            if piece is not None:
                yield (*sorted(0.5 * self.L - math.log(s) for s in piece.t[[0, -1]]), piece)

    @property
    def t_max(self):
        """Top of the kept t-range: the top of the center series."""
        return max(hi for _, hi, _ in self._inner_pieces())

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
        """w(t) from the kept pieces, NaN outside them: the descent solves (top first),
        the inner solve and the center series, each keeping the t it shares with a
        later one; a piece that holds none of the t left is not evaluated (or built)."""
        shape = np.shape(t)
        t = np.atleast_1d(np.asarray(t, dtype=float))
        out = np.full(t.shape, np.nan)
        inner = [(lo, hi, lambda tt, sol=piece.sol: sol(np.exp(0.5 * self.L - tt)))
                 for lo, hi, piece in self._inner_pieces()]
        # a NaN in t must not hide the finite t below t_match from the resume
        t_lo = float(np.min(t, initial=math.inf, where=~np.isnan(t)))
        for lo, hi, w_of in [(*sorted((float(sol.t[0]), float(sol.t[-1]))), sol.sol)
                             for sol in self.descents(t_lo)] + inner:
            sel = (t >= lo - 1e-12) & (t <= hi + 1e-12) & np.isnan(out)
            if sel.any():
                out[sel] = w_of(np.clip(t[sel], lo, hi))[0]
        return scalar_or_array(out.reshape(shape))


@dataclass
class CenterSeries:
    """v = rho + s^2 sum_{k=1}^K b_k x^{2k-2}, x = s sqrt(G'_m(rho)), each b_k of order one.

    Read like the inner solve: t is its s-range, from the top of the kept
    profile to the start s0, and sol(s) is (v, v') at a float or an array s.
    """

    rho: float
    b: tuple
    root_grad: float
    t: np.ndarray | None = None

    def sol(self, s):
        x = s * self.root_grad
        z = x * x
        q = dq = 0.0
        for k in range(len(self.b), 0, -1):
            q = q * z + self.b[k - 1]
            dq = dq * z + k * self.b[k - 1]
        return np.array([self.rho + s * s * q, 2.0 * s * dq])


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
    """(G_0(rho), ..., G_m(rho)) and the inner phase's acceleration v'' = a(s, v, v').

    a = -(n-1)/s v' - exp(G_m(v) - G_m(rho)), the force flushed to 0 below
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
    accel = acceleration(f"d = y - rho if y < rho else 0.0\n{levels}"
                         "a = damping / t * p - (exp(d) if d > -745.0 else 0.0)",
                         rho=chain[0], damping=float(-(n - 1)),
                         **{f"g{j}": chain[j] for j in range(1, m + 1)})
    return chain, accel


def _series_start(n, rho, chain, rtol):
    """The CenterSeries of a shot with chain (G_0(rho), ..., G_m(rho)), from its start s0 up.

    s0 is the largest s at which the last two terms of v' are below SERIES_TOL
    rtol times its first, inside SERIES_RADIUS of the estimated radius and
    below half the cap, then halved until v(s0) >= rho / 2: in the core,
    before the zero.
    """
    m = len(chain) - 1
    # levels B_0 = G'_m(rho) D_0 = sum_k b_k x^{2k}, B_j = D_j G_{j+1}(rho)...G_m(rho) =
    # P expm1(B_{j-1} / P), P = G_j(rho)...G_m(rho), then exp(B_m) - 1 at P = 1; F = P
    # expm1(B / P) has k F_k = k B_k + (1 / P) sum_{0<i<k} i B_i F_{k-i}, and 1/P may be 0
    inv = [math.exp(-sum(chain[j - 1:m])) for j in range(1, m + 1)] + [1.0]
    levels = [[0.0, -1.0 / (2 * n)]] + [[0.0] for _ in inv]
    for k in range(1, SERIES_TERMS):
        for below, level, q in zip(levels, levels[1:], inv):
            level.append(below[k] + q / k * sum(i * below[i] * level[k - i] for i in range(1, k)))
        levels[0].append(-levels[-1][k] / ((2 * k + 2) * (2 * k + n)))
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
    series.t = np.array([min(s0, math.sqrt(2.0 * n * EPS * rho)), s0])
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
    start = _series_start(n, rho, chain, rtol)
    s0 = float(start.t[-1])
    # stop at the zero of v; the cap bounds the inner phase for slowly-dying
    # nonlinearities
    sol_a = solve_ivp(accel, (s0, S_CAP), start.sol(s0), rtol=rtol,
                      atol=atol, dense_output=keep_profile, stop_at=0.0)
    if sol_a.status < 0:
        raise ShootError(f"the inner phase of n = {n}, m = {m} at rho = {rho} failed: "
                         f"{sol_a.message}")
    s1 = float(sol_a.t[-1])
    descents = []
    kept = {"inner": sol_a, "start": start, "descent": descents, "L": L} if keep_profile else {}
    if sol_a.status == 1:
        return _finish(n, m, rho, math.log(s1) - 0.5 * L, kept)
    v1, p1 = float(sol_a.y[0, -1]), float(sol_a.y[1, -1])

    t1, y1 = 0.5 * L - math.log(s1), (v1, -s1 * p1)
    if t1 > T1_BUDGET:
        raise ShootError(
            f"rho = {rho} puts the log-variable start at t = {t1:.3g}, beyond the "
            f"practical descent budget {T1_BUDGET:.0e}")
    t_match = t1 - MATCH_DEPTH
    if t_match >= EtaSpaceConfig().resolved(m)[0]:
        stop, lam_at = t_match, _matched_lambda
    else:
        stop, lam_at = _response_stop(n, m, t1, *y1), _response_lambda
    if stop is not None:
        t_zero, sol_b = descend(n, m, t1, *y1, rtol, atol, stop,
                                dense_output=keep_profile, stop_at_floor=True)
        descents.append(sol_b)
        if t_zero is not None:
            return _finish(n, m, rho, -t_zero, kept)
        # stop there when the shot sits on w* or near enough for its response, else go on
        t1, y1 = stop, (float(sol_b.y[0, -1]), float(sol_b.y[1, -1]))
        lam = lam_at(n, m, t1, *y1)
        if lam is not None:
            if keep_profile:
                kept["resume"] = partial(descend, n, m, t1, *y1, rtol, atol, dense_output=True)
            return BranchPoint(rho=rho, R=math.sqrt(lam), lam=lam, n=n, m=m, t_match=t1,
                               **kept)
    t_zero, sol_b = descend(n, m, t1, *y1, rtol, atol, dense_output=keep_profile)
    descents.append(sol_b)
    return _finish(n, m, rho, -t_zero, kept)


def _adjoint(n, m, profile, top, h):
    """Rows (a, b) = psi at t_star + k h up to top: the adjoint a' = F_w b, b' = -a - (n-2) b
    of the descent's linearisation along w* = profile, F_w = exp(G_m(w*) - 2t) G'_m(w*).

    psi . (dw, dw_t) is constant along it, and psi(t_star) = (-1 / w*_t(t_star), 0)
    makes it the shift of the zero.  F_w (G'_0 = 1) is read at the nodes and
    midpoints; RK4 forms one 2x2 step matrix per step, applied in floats from t_star up.
    """
    t = profile.t_min + 0.5 * h * np.arange(2 * int((top - profile.t_min) / h) + 1)
    G, dG = profile.eval_w(t), 1.0
    for _ in range(m):
        G = np.exp(G)
        dG = dG * G
    A = np.zeros((len(t), 2, 2))
    A[:, 0, 1], A[:, 1, 0], A[:, 1, 1] = np.exp(G - 2.0 * t) * dG, -1.0, -(n - 2.0)
    A0, A1, A2, eye = A[:-1:2], A[1::2], A[2::2], np.eye(2)
    K2 = A1 @ (eye + 0.5 * h * A0)
    K3 = A1 @ (eye + 0.5 * h * K2)
    K4 = A2 @ (eye + h * K3)
    M = eye + h / 6.0 * (A0 + 2.0 * (K2 + K3) + K4)
    a, b = -1.0 / float(profile.w_t[0]), 0.0
    psi = [(a, b)]
    for p, q, r, s in M.reshape(-1, 4).tolist():
        a, b = p * a + q * b, r * a + s * b
        psi.append((a, b))
    return np.array(psi)


@cache
def _singular(n, m):
    """(lambda*, profile, response table) of the default build_singular(n, m), built once
    per process; None when the build fails.  The table is _adjoint's up to T + MATCH_DEPTH."""
    try:
        sol = build_singular(n, m)
    except (PicardConvergenceError, DescentError, ValueError, OverflowError):
        return None
    top = EtaSpaceConfig().resolved(m)[0] + MATCH_DEPTH
    return sol.lambda_star, sol.profile, _adjoint(n, m, sol.profile, top, RESPONSE_STEP)


def _matched_lambda(n, m, t, w, w_t):
    """lambda* when the descent state (w, w_t) at t sits on w*, else None.

    The deviation from w*(t) decays like e^{-r (t-s)} on the way down to
    s = t_star, with r = Re lam_- of PsiKernel ((n-2)/2 for n <= 10, the
    real slower root for n >= 11), and moves t_star, and so ln(lambda) / 2,
    by about that much; it matches when that effect is below eps / 2 and
    the deviation itself below MATCH_TOL_CAP.  With t >= 30 the cap is the
    bound that binds for every n >= 4.
    """
    star = _singular(n, m)
    state = singular_state(n, m, t) if star is not None else None
    if state is None:
        return None
    lam_star = star[0]
    dev = max(abs(w - state[0]), abs(w_t - state[1]))
    rate = PsiKernel.for_dimension(n).lam_minus.real
    decay = math.exp(-rate * (t + 0.5 * math.log(lam_star)))
    return lam_star if dev < MATCH_TOL_CAP and dev * decay < 0.5 * EPS else None


def _response_stop(n, m, t, w, w_t):
    """The response table's node at which a descent from (w, w_t) at t stops, or None.

    The deviation from w* decays like e^{-r (t-s)} on the way down (r as in
    _matched_lambda): the stop is the last node below t and 2 below where it
    reaches RESPONSE_TOL.  None when the default build fails, the deviation
    is 0 or NaN (t above the profile) or the stop lies below t_star + RESPONSE_GUARD,
    where psi is not small.
    """
    star = _singular(n, m)
    if star is None or t < star[1].t_min + RESPONSE_GUARD:
        return None
    _, profile, table = star
    dev = max(abs(w - profile.eval_w(t)), abs(w_t - profile.eval_wt(t)))
    if not dev > 0.0:
        return None
    rate = PsiKernel.for_dimension(n).lam_minus.real
    aim = min(t - math.log(dev / RESPONSE_TOL) / rate - 2.0, t) - profile.t_min
    k = min(math.ceil(aim / RESPONSE_STEP) - 1, len(table) - 1)
    return profile.t_min + k * RESPONSE_STEP if k * RESPONSE_STEP >= RESPONSE_GUARD else None


def _response_lambda(n, m, t, w, w_t):
    """lambda* exp(-2 psi . (w - w*, w_t - w*_t)) at the response node t, or None when
    the deviation is above RESPONSE_TOL."""
    lam_star, profile, table = _singular(n, m)
    dw, dw_t = w - profile.eval_w(t), w_t - profile.eval_wt(t)
    if max(abs(dw), abs(dw_t)) > RESPONSE_TOL:
        return None
    a, b = table[round((t - profile.t_min) / RESPONSE_STEP)].tolist()
    return lam_star * math.exp(-2.0 * (a * dw + b * dw_t))


def _finish(n, m, rho, ln_R, kept):
    """BranchPoint of a shot whose first zero is R = exp(ln_R), with the pieces it keeps."""
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
    if len(rho) != len(lam):
        raise ValueError(f"rho has {len(rho)} samples and lam {len(lam)}: they must pair up")
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

    Both are compared as functions of tau = -ln r over the shot's range,
    i.e. u_rho(r) = w_b(t_zero + tau) against u*(r) = w*(t_star + tau),
    sampled every TAU_STEP.  A sign change only counts once the difference
    has cleared a noise tolerance on both sides (the regular solution tracks
    the singular one to rounding level deep in the overlap, where raw sign
    flips are meaningless).

    A matched shot is first compared at and above t_match only.  Below
    t_match it solves w*'s equation, so its deviation decays on the way
    down; when the difference stays within _GUARD_MARGIN of the tolerance
    over the _GUARD_WINDOW above t_match, no sample below can count, and the
    rest of its descent is not integrated.  Otherwise the whole range is
    compared.  Raises ValueError for a point shot without its profile and
    for a singular profile that ends below the shot's.
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
        above = tau[t_zero + tau >= point.t_match]
        d = difference(above)
        guard = np.abs(d[t_zero + above < point.t_match + _GUARD_WINDOW])
        # an empty window, or a NaN in it, fails the guard
        if not (guard.size and np.max(guard) <= _GUARD_MARGIN * noise_tol):
            d = None
    if d is None:
        d = difference(tau)
    # profiles closer than this everywhere are taken to be the same solution
    if np.max(np.abs(d)) < 1e-5 * scale:
        raise ValueError("profiles coincide; intersection count undefined")
    # count sign changes between consecutive samples that clear the noise
    positive = d[np.abs(d) >= noise_tol] > 0.0
    return int(np.count_nonzero(positive[1:] != positive[:-1]))
